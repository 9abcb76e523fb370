"""Finite abelian groups with nondegenerate quadratic forms (metric groups).

A metric group (A, q) is a finite abelian group A = Z_{n_1} x ... x Z_{n_k}
(invariant factors n_1 | n_2 | ...) together with q: A -> Q/Z whose associated
bi-additive pairing chi(x, y) = q(x+y) - q(x) - q(y) is nondegenerate.  Each
such pair is an abelian anyon model with twists theta(x) = e^{2 pi i q(x)}.

The eight prime families are named A..F following Wall's classification of
quadratic forms on finite abelian groups:

  A_{p^r}, B_{p^r}   cyclic, odd p, q(1) = m/p^r with (2m/p) = +1 resp. -1
  A_{2^r}, B_{2^r}   cyclic, q(1) = +-1/2^{r+1}
  C_{2^r}, D_{2^r}   cyclic (r >= 2), q(1) = +-5/2^{r+1}
  E_{2^r}            Z_{2^r}^2, q(m, n) = mn/2^r            (toric-code family)
  F_{2^r}            Z_{2^r}^2, q(m, n) = (m^2+n^2+mn)/2^r  (three-fermion family)

The central charge c mod 8 is defined by sum_x theta(x) / sqrt|A| = e^{i pi c/4};
`central_charge_closed` tabulates it per family and `central_charge_gauss`
recomputes it from the Gauss sum as an independent oracle.

`_q_sum` and `_bil_sum` are the package's only evaluators of q and chi, and
`_isometries` its only generator-image search (`is_isomorphic` takes the first
isometry, `symmetry.aut_bruteforce` all of them).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import mpmath

from .linalg import hermite_normal_form, left_kernel, smith_normal_form
from .numtheory import is_prime, jacobi_symbol, sqrt_mod

__all__ = [
    "MetricGroup",
    "PrimeFamilySpec",
    "trivial_group",
    "build_prime",
    "direct_sum",
    "conjugate",
    "is_nondegenerate",
    "central_charge_closed",
    "central_charge_gauss",
    "is_isomorphic",
    "gauged_center_fpdim",
    "canonical_unit",
    "DegenerateFormError",
    "BudgetExceededError",
]

DENSE_TABLE_LIMIT = 2**16
GAUSS_BUDGET_DEFAULT = 10**6
ISO_BUDGET_DEFAULT = 4096


class DegenerateFormError(ValueError):
    """Raised when a Gauss sum does not land on any admissible phase."""


class BudgetExceededError(ValueError):
    """Raised when an enumeration would exceed its size budget."""


def _mod1(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


def _q_sum(x, gen_q, gen_bil) -> Fraction:
    """q(sum_i x_i e_i) mod 1 from q(e_i) and chi(e_i, e_j)."""
    total = Fraction(0)
    k = len(gen_q)
    for i in range(k):
        if x[i]:
            total += x[i] * x[i] * gen_q[i]
            for j in range(i + 1, k):
                if x[j]:
                    total += x[i] * x[j] * gen_bil[i][j]
    return _mod1(total)


def _bil_sum(x, y, gen_bil) -> Fraction:
    """chi(sum_i x_i e_i, sum_j y_j e_j) mod 1 from chi(e_i, e_j)."""
    total = Fraction(0)
    for i, xi in enumerate(x):
        if xi:
            row = gen_bil[i]
            for j, yj in enumerate(y):
                if yj:
                    total += xi * yj * row[j]
    return _mod1(total)


class MetricGroup:
    """Immutable metric group given by q and chi on a fixed generator basis.

    orders   : invariant factors n_1 | n_2 | ... (possibly empty: trivial group)
    gen_q    : q(e_i) mod 1
    gen_bil  : chi(e_i, e_j) mod 1, symmetric, with chi(e_i, e_i) = 2 q(e_i)
    """

    __slots__ = ("orders", "gen_q", "gen_bil", "_table")

    def __init__(self, orders, gen_q, gen_bil):
        orders = tuple(int(n) for n in orders)
        gen_q = tuple(_mod1(Fraction(x)) for x in gen_q)
        gen_bil = tuple(tuple(_mod1(Fraction(x)) for x in row) for row in gen_bil)
        k = len(orders)
        if any(n < 2 for n in orders):
            raise ValueError("invariant factors must be >= 2")
        if any(orders[i] % orders[i - 1] for i in range(1, k)):
            raise ValueError(f"orders {orders} are not a divisibility chain")
        if len(gen_q) != k or len(gen_bil) != k or any(len(r) != k for r in gen_bil):
            raise ValueError("generator data shape mismatch")
        for i in range(k):
            if gen_bil[i][i] != _mod1(2 * gen_q[i]):
                raise ValueError("chi(e_i, e_i) must equal 2 q(e_i) mod 1")
            if (orders[i] * orders[i] * gen_q[i]).denominator != 1:
                raise ValueError("q is not well-defined on Z_{n_i}")
            for j in range(k):
                if gen_bil[i][j] != gen_bil[j][i]:
                    raise ValueError("chi must be symmetric")
                if (orders[i] * gen_bil[i][j]).denominator != 1:
                    raise ValueError("chi is not well-defined on Z_{n_i}")
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "gen_q", gen_q)
        object.__setattr__(self, "gen_bil", gen_bil)
        object.__setattr__(self, "_table", None)

    def __setattr__(self, name, value):
        raise AttributeError("MetricGroup is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, MetricGroup)
            and self.orders == other.orders
            and self.gen_q == other.gen_q
            and self.gen_bil == other.gen_bil
        )

    def __hash__(self):
        return hash((self.orders, self.gen_q, self.gen_bil))

    def __repr__(self):
        qs = ", ".join(str(q) for q in self.gen_q)
        return f"MetricGroup(orders={self.orders}, q(gens)=[{qs}])"

    @property
    def size(self) -> int:
        out = 1
        for n in self.orders:
            out *= n
        return out

    def elements(self):
        return itertools.product(*(range(n) for n in self.orders))

    def reduce(self, x) -> tuple[int, ...]:
        return tuple(int(a) % n for a, n in zip(x, self.orders))

    def add(self, x, y) -> tuple[int, ...]:
        return tuple((a + b) % n for a, b, n in zip(x, y, self.orders))

    def neg(self, x) -> tuple[int, ...]:
        return tuple((-a) % n for a, n in zip(x, self.orders))

    def order_of(self, x) -> int:
        return lcm(1, *(n // gcd(a, n) for a, n in zip(x, self.orders)))

    def q(self, x) -> Fraction:
        x = self.reduce(x)
        table = self._q_table()
        if table is not None:
            return table[x]
        return _q_sum(x, self.gen_q, self.gen_bil)

    def bilinear(self, x, y) -> Fraction:
        return _bil_sum(self.reduce(x), self.reduce(y), self.gen_bil)

    def _q_table(self):
        if self._table is None and 0 < self.size <= DENSE_TABLE_LIMIT:
            gen_q, gen_bil = self.gen_q, self.gen_bil
            table = {x: _q_sum(x, gen_q, gen_bil) for x in self.elements()}
            object.__setattr__(self, "_table", table)
        return self._table

    def q_values(self) -> dict[tuple[int, ...], Fraction]:
        """Dense q table (size-limited)."""
        if self.size > DENSE_TABLE_LIMIT:
            raise BudgetExceededError(f"group of order {self.size} exceeds dense-table limit")
        return dict(self._q_table())


def trivial_group() -> MetricGroup:
    return MetricGroup((), (), ())


@dataclass(frozen=True)
class PrimeFamilySpec:
    """One of the eight prime families.

    family : 'A'..'F'
    p      : the prime (2 for C, D, E, F; A and B allow any prime)
    r      : the exponent, group Z_{p^r} (or Z_{2^r}^2 for E, F)
    unit   : optional override of the parameter m (family A) or n (family B)
             for odd p; None picks the canonical smallest admissible value.
    """

    family: str
    p: int
    r: int
    unit: int | None = None

    def __post_init__(self):
        if self.family not in "ABCDEF":
            raise ValueError(f"unknown family {self.family!r}")
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if self.family in "CDEF" and self.p != 2:
            raise ValueError(f"family {self.family} requires p = 2")
        if self.family in "CD" and self.r < 2:
            raise ValueError(f"family {self.family} requires r >= 2")
        if self.unit is not None:
            if self.family not in "AB" or self.p == 2:
                raise ValueError("unit override only applies to A/B at odd p")
            if not (1 <= self.unit < self.p) or self.unit % self.p == 0:
                raise ValueError(f"unit must satisfy 1 <= unit < p, got {self.unit}")
            want = 1 if self.family == "A" else -1
            if jacobi_symbol(2 * self.unit, self.p) != want:
                raise ValueError(
                    f"unit {self.unit} has wrong quadratic character for {self.family}_{self.p}^{self.r}"
                )

    @property
    def group_order(self) -> int:
        n = self.p**self.r
        return n * n if self.family in "EF" else n

    def label(self) -> str:
        return f"{self.family}[{self.p}^{self.r}]" if self.r > 1 else f"{self.family}[{self.p}]"


def canonical_unit(family: str, p: int) -> int:
    """Smallest m with (2m/p) = +1 (family A) or -1 (family B), odd p.

    No closed form exists for a quadratic non-residue when p = 1 mod 8, so a
    linear search settles it.
    """
    want = 1 if family == "A" else -1
    for m in range(1, p):
        if m % p and jacobi_symbol(2 * m, p) == want:
            return m
    raise ValueError(f"no admissible unit below {p}")


def _cyclic(n: int, q1: Fraction) -> MetricGroup:
    return MetricGroup((n,), (q1,), ((_mod1(2 * q1),),))


def build_prime(spec: PrimeFamilySpec) -> MetricGroup:
    """The metric group of a prime family, verified nondegenerate."""
    p, r = spec.p, spec.r
    n = p**r
    if spec.family in "AB" and p != 2:
        m = spec.unit if spec.unit is not None else canonical_unit(spec.family, p)
        g = _cyclic(n, Fraction(m, n))
    elif spec.family == "A":
        g = _cyclic(n, Fraction(1, 2 * n))
    elif spec.family == "B":
        g = _cyclic(n, Fraction(-1, 2 * n))
    elif spec.family == "C":
        g = _cyclic(n, Fraction(5, 2 * n))
    elif spec.family == "D":
        g = _cyclic(n, Fraction(-5, 2 * n))
    elif spec.family == "E":
        g = MetricGroup(
            (n, n),
            (Fraction(0), Fraction(0)),
            ((Fraction(0), Fraction(1, n)), (Fraction(1, n), Fraction(0))),
        )
    else:  # F
        one = Fraction(1, n)
        g = MetricGroup((n, n), (one, one), ((_mod1(2 * one), one), (one, _mod1(2 * one))))
    if not is_nondegenerate(g):
        raise DegenerateFormError(f"degenerate form for {spec}")
    return g


def _canonicalize(orders, gen_q, gen_bil) -> MetricGroup:
    """Rewrite generators so the orders form a divisibility chain."""
    k = len(orders)
    if k == 0:
        return trivial_group()
    chain = all(orders[i] % orders[i - 1] == 0 for i in range(1, k))
    if chain:
        return MetricGroup(orders, gen_q, gen_bil)
    rel = [[orders[i] if i == j else 0 for j in range(k)] for i in range(k)]
    snf = smith_normal_form(rel)
    # x -> U x identifies Z^k / diag(orders) with Z^k / S; the new generator j
    # pulls back to column j of U^{-1}.
    new_orders = [snf.s[i][i] for i in range(k)]
    gens = [tuple(snf.u_inv[i][j] for i in range(k)) for j in range(k)]

    keep = [j for j in range(k) if new_orders[j] > 1]
    q_new = [_q_sum(gens[j], gen_q, gen_bil) for j in keep]
    bil_new = [[_bil_sum(gens[i], gens[j], gen_bil) for j in keep] for i in keep]
    return MetricGroup([new_orders[j] for j in keep], q_new, bil_new)


def direct_sum(g1: MetricGroup, g2: MetricGroup) -> MetricGroup:
    """Orthogonal sum; invariant factors are renormalized to a chain."""
    k1, k2 = len(g1.orders), len(g2.orders)
    orders = g1.orders + g2.orders
    gen_q = g1.gen_q + g2.gen_q
    bil = [[Fraction(0)] * (k1 + k2) for _ in range(k1 + k2)]
    for i in range(k1):
        for j in range(k1):
            bil[i][j] = g1.gen_bil[i][j]
    for i in range(k2):
        for j in range(k2):
            bil[k1 + i][k1 + j] = g2.gen_bil[i][j]
    return _canonicalize(orders, gen_q, bil)


def conjugate(g: MetricGroup) -> MetricGroup:
    """Same group with q replaced by -q."""
    return MetricGroup(
        g.orders,
        tuple(_mod1(-q) for q in g.gen_q),
        tuple(tuple(_mod1(-b) for b in row) for row in g.gen_bil),
    )


def is_nondegenerate(g: MetricGroup) -> bool:
    """True iff x -> chi(x, .) is injective.

    The radical is computed structurally: with D a common denominator and
    C[i][j] = D * chi(e_i, e_j), the radical is S / diag(orders) Z^k where
    S = {x : x C = 0 mod D}, so it is trivial exactly when [Z^k : S] = |A|.
    """
    k = len(g.orders)
    if k == 0:
        return True
    d = lcm(1, *(b.denominator for row in g.gen_bil for b in row))
    c = [[int(g.gen_bil[i][j] * d) for j in range(k)] for i in range(k)]
    # S is the projection onto the first k coordinates of the left kernel of
    # [[C], [D I]]; the projection is injective on that kernel.
    block = [row[:] for row in c] + [[d if i == j else 0 for j in range(k)] for i in range(k)]
    proj = [row[:k] for row in left_kernel(block)]
    h, _ = hermite_normal_form(proj)
    index = 1
    for i in range(k):
        if i >= len(h) or h[i][i] == 0:
            return False
        index *= h[i][i]
    return index == g.size


_ODD_A_CHARGE = {1: 0, 7: 2, 5: 4, 3: 6}
_ODD_B_CHARGE = {1: 4, 7: 6, 5: 0, 3: 2}


def central_charge_closed(spec: PrimeFamilySpec) -> int:
    """Central charge mod 8 from the per-family table."""
    fam, p, r = spec.family, spec.p, spec.r
    if fam in "AB" and p != 2:
        if r % 2 == 0:
            return 0
        table = _ODD_A_CHARGE if fam == "A" else _ODD_B_CHARGE
        return table[p % 8]
    if fam == "A":
        return 1
    if fam == "B":
        return 7
    if fam == "C":
        return 1 if r % 2 else 5
    if fam == "D":
        return 7 if r % 2 else 3
    if fam == "E":
        return 0
    return 4 if r % 2 else 0  # F


def central_charge_gauss(g: MetricGroup, budget: int = GAUSS_BUDGET_DEFAULT, tol: float = 1e-9) -> int:
    """Central charge mod 8 from the normalized Gauss sum sum_x e^{2 pi i q(x)}.

    High-precision arithmetic with a 1e-9 phase tolerance; the eight candidate
    phases are separated by |e^{i pi/4} - 1| ~ 0.765, so the margin is vast.
    Raises DegenerateFormError when no candidate matches (e.g. degenerate q).
    """
    size = g.size
    if size > budget:
        raise BudgetExceededError(f"group of order {size} exceeds Gauss budget {budget}")
    counts: dict[Fraction, int] = {}
    if size <= DENSE_TABLE_LIMIT:
        for value in g._q_table().values():
            counts[value] = counts.get(value, 0) + 1
    else:
        for x in g.elements():
            value = g.q(x)
            counts[value] = counts.get(value, 0) + 1
    # 96 bits for this sum only: importing the package leaves mpmath.mp alone.
    with mpmath.workprec(96):
        total = mpmath.mpc(0)
        for value, count in sorted(counts.items()):
            angle = 2 * mpmath.pi * mpmath.mpf(value.numerator) / value.denominator
            total += count * mpmath.mpc(mpmath.cos(angle), mpmath.sin(angle))
        norm = total / mpmath.sqrt(size)
        for c in range(8):
            target = mpmath.mpc(mpmath.cos(mpmath.pi * c / 4), mpmath.sin(mpmath.pi * c / 4))
            if abs(norm - target) < tol:
                return c
    raise DegenerateFormError(f"Gauss sum {norm} matches no phase e^(i pi c/4)")


def _order_index(h_rows, orders) -> int:
    """|Z^k / (rowspace(h_rows) + diag(orders) Z^k)| as det of an HNF."""
    k = len(orders)
    rel = [[orders[i] if i == j else 0 for j in range(k)] for i in range(k)]
    h, _ = hermite_normal_form([list(r) for r in h_rows] + rel)
    det = 1
    for i in range(k):
        det *= h[i][i]
        if h[i][i] == 0:
            return 0
    return abs(det)


def _cyclic_iso(g1: MetricGroup, g2: MetricGroup):
    """Isometry between cyclic groups via square roots mod the denominator.

    phi(1) = u works iff u^2 q2(1) = q1(1) mod 1 and gcd(u, n) = 1; solving
    u^2 = a b^{-1} mod d covers all candidates, whatever the group size.
    """
    n = g1.orders[0]
    a, b = g1.gen_q[0], g2.gen_q[0]
    if a.denominator != b.denominator:
        return None
    d = a.denominator
    if d == 1:
        # q vanishes identically (degenerate unless n = 1); any unit matches.
        return ((1,),) if a == b else None
    target = a.numerator * pow(b.numerator, -1, d) % d
    lifts = max(1, -(-n // d))
    for root in sorted(sqrt_mod(target, d)):
        for j in range(lifts):
            u = (root + j * d) % n
            if u and gcd(u, n) == 1 and g2.q((u,)) == g1.gen_q[0]:
                return ((u,),)
    return None


def _isometries(g1: MetricGroup, g2: MetricGroup):
    """Yield every isometry g1 -> g2 (g1 not trivial) as generator images,
    in the lexicographic order of the image tuples."""
    k = len(g1.orders)
    buckets: dict[Fraction, list] = {}
    for x in g2.elements():
        buckets.setdefault(g2.q(x), []).append(x)

    images: list[tuple[int, ...]] = []

    def extend(i: int):
        if i == k:
            if _order_index(images, g1.orders) == 1:
                yield tuple(images)
            return
        n_i = g1.orders[i]
        for x in buckets.get(g1.gen_q[i], ()):
            if n_i % g2.order_of(x):
                continue
            if any(g2.bilinear(x, images[j]) != g1.gen_bil[i][j] for j in range(i)):
                continue
            images.append(x)
            yield from extend(i + 1)
            images.pop()

    return extend(0)


def is_isomorphic(g1: MetricGroup, g2: MetricGroup, budget: int = ISO_BUDGET_DEFAULT):
    """An isometry g1 -> g2 as a tuple of generator images, or None.

    The witness phi maps sum x_i e_i to sum x_i images[i]; q2(phi(x)) = q1(x)
    holds for all x whenever it holds on generators and pairs, which is what
    the search enforces.  Cyclic groups are handled in closed form via square
    roots modulo the denominator, so they bypass the size budget; otherwise
    the witness is the first isometry `_isometries` yields.
    """
    if g1.orders != g2.orders:
        return None
    k = len(g1.orders)
    if k == 0:
        return ()
    if k == 1:
        return _cyclic_iso(g1, g2)
    if g1.size > budget:
        raise BudgetExceededError(f"group of order {g1.size} exceeds isomorphism budget {budget}")
    return next(_isometries(g1, g2), None)


def gauged_center_fpdim(spec: PrimeFamilySpec) -> int:
    """|G|^4 |A|^2 for G the topological symmetry group of the family."""
    from .symmetry import aut_order_closed

    order, _ = aut_order_closed(spec)
    return order**4 * spec.group_order**2
