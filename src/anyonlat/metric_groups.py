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

Every group has a level N, the lcm of the denominators of q(e_i) and
chi(e_i, e_j): all values of q and chi lie in (1/N)Z/Z, and N is an isometry
invariant (the lcm of the denominators of all values of q).  A MetricGroup
stores the integer numerators N q(e_i) and N chi(e_i, e_j) mod N, and every
internal computation (the Gauss-sum histogram, the isometry and automorphism
searches, the glue search's isotropy sums, the nondegeneracy test) compares
those ints.  The constructor takes int numerators over any common
denominator and reduces them to the level with one gcd; `q`, `bilinear` and
`q_values` return Fractions only at the public boundary.

The central charge c mod 8 is defined by sum_x theta(x) / sqrt|A| = e^{i pi c/4};
`central_charge_closed` tabulates it per family and `central_charge_gauss`
recomputes it from the Gauss sum as an independent oracle.  The Gauss sum
counts N q(x) mod N into a length-N histogram, evaluating one x of each pair
{x, -x} (q(-x) = q(x)) and counting it twice, and sums the histogram against
the powers of e^{2 pi i/N} in fixed point, F = 42 + bits(N) +
ceil(bits(|A|)/2) fractional bits, in blocks of ceil(sqrt N) levels: one
C-level dot product with the block's baby powers, each packed with its real
and imaginary part in one int, turned by one giant power per block.  e^{2 pi
i/N} itself is rounded in integers (`_unit_root`: Machin's pi, then Taylor
series), so the package needs nothing outside the standard library.  The
normalized value is off by less than 2^-36, and a phase matches within 2^-20
(the derivation is in its docstring).

`_q_sum` and `_bil_sum` are the package's only evaluators of q and chi at
one element, `_q_rows` the only per-element sweep (the histogram's paired
runs and the flattened per-element view of `q_values` and `_candidates`),
which updates their terms as one coordinate moves at a time, and
`_isometries` its only generator-image search.  It tries as images of e_i only
the elements of q(e_i) and order exactly n_i, and can hold the first images
fixed: `is_isomorphic` takes its first isometry, `symmetry.aut_bruteforce`
asks it one first-extension question per orbit point it cannot reach from
the witnesses it has, and the tests list every isometry with it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, isqrt, lcm
from operator import add, mul

from .linalg import hermite_normal_form, smith_normal_form
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
    "check_gauss_budget",
    "is_isomorphic",
    "gauged_center_fpdim",
    "canonical_unit",
    "DegenerateFormError",
    "BudgetExceededError",
    "InternalError",
]

DENSE_TABLE_LIMIT = 2**16
# The longest run `_q_rows` lists at once, so a sweep holds O(ROW_CHUNK)
# values beyond what its caller keeps.
ROW_CHUNK = 2**12
GAUSS_BUDGET_DEFAULT = 10**6
# The default size budget of every other enumeration: isometry and
# automorphism search, coset minima, and the CLI's --budget.
BUDGET_DEFAULT = 4096


class DegenerateFormError(ValueError):
    """Raised when a Gauss sum does not land on any admissible phase."""


class BudgetExceededError(ValueError):
    """Raised when an enumeration would exceed its size budget."""


class InternalError(RuntimeError):
    """An internal consistency check failed: a bug, not bad input."""


def _q_sum(x, q_num, bil_num, level: int) -> int:
    """N q(sum_i x_i e_i) mod N from N q(e_i) and N chi(e_i, e_j), N = level."""
    total = 0
    k = len(q_num)
    for i in range(k):
        xi = x[i]
        if xi:
            row = bil_num[i]
            part = xi * q_num[i]
            for j in range(i + 1, k):
                if x[j]:
                    part += x[j] * row[j]
            total += xi * part
    return total % level


def _bil_sum(x, y, bil_num, level: int) -> int:
    """N chi(sum_i x_i e_i, sum_j y_j e_j) mod N from N chi(e_i, e_j), N = level."""
    total = 0
    for i, xi in enumerate(x):
        if xi:
            row = bil_num[i]
            for j, yj in enumerate(y):
                if yj:
                    total += xi * yj * row[j]
    return total % level


def _q_rows(g: MetricGroup, paired: bool = False):
    """Yield (weight, values): N q(x) mod N over runs x = p + t e, t in a range.

    The last coordinate runs innermost: for a prefix p of the first k - 1
    coordinates and the last generator e, q(p + t e) = q(p) + t chi(p, e) +
    t^2 q(e), so each run of t is one comprehension, at most ROW_CHUNK values
    long.  q(p) and chi(p, e_j) follow the prefixes as `itertools.product`
    advances them: a coordinate i moving by s changes q by s chi(p, e_i) -
    s p_i chi(e_i, e_i) + (2 p_i s + s^2) q(e_i), the terms of `_q_sum`, and
    chi(p, e_j) by s chi(e_i, e_j).  Unpaired, every run has weight 1 and the
    runs list every element in `g.elements()` order.

    Paired, each pair {x, -x} is listed once with weight 2 (and x = -x once
    with weight 1), which is what a histogram of q needs: q(-x) = q(x).  A
    prefix p with -p <_lex p is skipped and its partner's row counted twice,
    since q(-p + t e) = q(p + (n - t) e).  A self-paired prefix (-p = p, the
    empty prefix of a cyclic group included) has equal values at t and n - t:
    t = 1..ceil(n/2)-1 count twice, t = 0 and t = n/2 (n even) once.
    """
    if not g.orders:
        yield 1, [0]
        return
    *head, n = g.orders
    level, q_num, bil_num = g.level, g.gen_q_num, g.gen_bil_num
    a = q_num[-1]
    # (weight, ts) runs of t: every t for an unpaired or a twice-counted
    # prefix, t = 0 (and n/2) once and 1..ceil(n/2)-1 twice for a self-paired one.
    runs = full = [(2 if paired else 1, ts) for ts in _chunks(0, n)]
    ranges = [range(m) for m in head]
    if paired:
        self_paired = [(1, (0, n // 2) if n % 2 == 0 else (0,))] + [(2, ts) for ts in _chunks(1, (n + 1) // 2)]
        # -p for each prefix p, in step with the prefixes.
        negatives = itertools.product(*([-c % m for c in range(m)] for m in head))
    # N q(p) and N chi(p, e_j) as exact ints, reduced only in the values
    cur = [0] * len(head)
    base = 0
    chi = [0] * len(q_num)
    back = range(len(head) - 1, -1, -1)
    for prefix in itertools.product(*ranges):
        # The coordinates that moved: the last one that rose, and the ones
        # after it, which wrapped to 0.
        for i in back:
            step = prefix[i] - cur[i]
            if step:
                row = bil_num[i]
                base += step * (chi[i] - cur[i] * row[i]) + (2 * cur[i] + step) * step * q_num[i]
                chi = list(map(add, chi, row if step == 1 else map(mul, row, itertools.repeat(step))))
                cur[i] = prefix[i]
                if step > 0:
                    break
        if paired:
            neg = next(negatives)
            if neg < prefix:
                continue
            runs = self_paired if neg == prefix else full
        lin = chi[-1]
        for weight, ts in runs:
            yield weight, [(base + t * (lin + t * a)) % level for t in ts]


def _chunks(start: int, stop: int) -> list[range]:
    """range(start, stop) cut into ranges of at most ROW_CHUNK values."""
    return [range(lo, min(lo + ROW_CHUNK, stop)) for lo in range(start, stop, ROW_CHUNK)]


def _q_histogram(g: MetricGroup) -> list[int]:
    """c_v = #{x : N q(x) = v mod N} for v < N, from the paired runs."""
    counts = [0] * g.level
    for weight, values in _q_rows(g, paired=True):
        for v in values:
            counts[v] += weight
    return counts


def _q_numerators(g: MetricGroup):
    """Yield N q(x) mod N for every x, in the order of `g.elements()`."""
    for _, values in _q_rows(g):
        yield from values


class MetricGroup:
    """Immutable metric group given by q and chi on a fixed generator basis.

    orders      : invariant factors n_1 | n_2 | ... (possibly empty: trivial group)
    level       : N, the lcm of the denominators of q(e_i) and chi(e_i, e_j);
                  every value of q and chi lies in (1/N)Z/Z
    gen_q_num   : N q(e_i) mod N
    gen_bil_num : N chi(e_i, e_j) mod N, symmetric, with chi(e_i, e_i) = 2 q(e_i)

    The constructor takes q(e_i) = q_num[i] / den and chi(e_i, e_j) =
    bil_num[i][j] / den as exact ints, refusing any other type, and reduces
    den to N = den / g, g = gcd(den, every numerator).  `gen_q`, `gen_bil`,
    `q`, `bilinear` and `q_values` hand values back as Fractions.
    `is_nondegenerate` memoizes its answer on the group, outside its identity.
    """

    __slots__ = ("orders", "level", "gen_q_num", "gen_bil_num", "_nondegenerate")

    def __init__(self, orders, den, q_num, bil_num):
        orders, q_num = tuple(orders), tuple(q_num)
        bil_num = tuple(tuple(row) for row in bil_num)
        k = len(orders)
        if len(q_num) != k or len(bil_num) != k or any(len(r) != k for r in bil_num):
            raise ValueError("generator data shape mismatch")
        if any(type(x) is not int for x in (den, *orders, *q_num, *(b for row in bil_num for b in row))):
            raise TypeError("orders, denominator and numerators must be ints")
        if den < 1:
            raise ValueError(f"denominator must be >= 1, got {den}")
        if any(n < 2 for n in orders):
            raise ValueError("invariant factors must be >= 2")
        if any(orders[i] % orders[i - 1] for i in range(1, k)):
            raise ValueError(f"orders {orders} are not a divisibility chain")
        g = gcd(den, *q_num, *(b for row in bil_num for b in row))
        level = den // g
        q_num = tuple(v // g % level for v in q_num)
        bil_num = tuple(tuple(b // g % level for b in row) for row in bil_num)
        for i in range(k):
            if bil_num[i][i] != 2 * q_num[i] % level:
                raise ValueError("chi(e_i, e_i) must equal 2 q(e_i) mod 1")
            if orders[i] * orders[i] * q_num[i] % level:
                raise ValueError("q is not well-defined on Z_{n_i}")
            for j in range(k):
                if bil_num[i][j] != bil_num[j][i]:
                    raise ValueError("chi must be symmetric")
                if orders[i] * bil_num[i][j] % level:
                    raise ValueError("chi is not well-defined on Z_{n_i}")
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "gen_q_num", q_num)
        object.__setattr__(self, "gen_bil_num", bil_num)
        object.__setattr__(self, "_nondegenerate", None if k else True)

    def __setattr__(self, name, value):
        raise AttributeError("MetricGroup is immutable")

    def _key(self):
        return (self.orders, self.level, self.gen_q_num, self.gen_bil_num)

    def __eq__(self, other):
        return isinstance(other, MetricGroup) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        qs = ", ".join(str(q) for q in self.gen_q)
        return f"MetricGroup(orders={self.orders}, q(gens)=[{qs}])"

    @property
    def gen_q(self) -> tuple[Fraction, ...]:
        """q(e_i) mod 1."""
        return tuple(Fraction(v, self.level) for v in self.gen_q_num)

    @property
    def gen_bil(self) -> tuple[tuple[Fraction, ...], ...]:
        """chi(e_i, e_j) mod 1."""
        return tuple(tuple(Fraction(v, self.level) for v in row) for row in self.gen_bil_num)

    @property
    def size(self) -> int:
        out = 1
        for n in self.orders:
            out *= n
        return out

    def elements(self):
        return itertools.product(*(range(n) for n in self.orders))

    def reduce(self, x) -> tuple[int, ...]:
        """Int coordinates reduced mod the orders; anything else is refused."""
        if len(x) != len(self.orders):
            raise ValueError(f"element {tuple(x)} has {len(x)} coordinates, want {len(self.orders)}")
        if any(type(a) is not int for a in x):
            raise TypeError(f"element coordinates must be ints, got {tuple(x)!r}")
        return tuple(a % n for a, n in zip(x, self.orders))

    def add(self, x, y) -> tuple[int, ...]:
        return tuple((a + b) % n for a, b, n in zip(x, y, self.orders))

    def order_of(self, x) -> int:
        return lcm(1, *(n // gcd(a, n) for a, n in zip(x, self.orders)))

    def q_num(self, x) -> int:
        """N q(x) mod N, N = level."""
        return _q_sum(self.reduce(x), self.gen_q_num, self.gen_bil_num, self.level)

    def bilinear_num(self, x, y) -> int:
        """N chi(x, y) mod N, N = level."""
        return _bil_sum(self.reduce(x), self.reduce(y), self.gen_bil_num, self.level)

    def q(self, x) -> Fraction:
        return Fraction(self.q_num(x), self.level)

    def bilinear(self, x, y) -> Fraction:
        return Fraction(self.bilinear_num(x, y), self.level)

    def q_values(self) -> dict[tuple[int, ...], Fraction]:
        """Dense q table (size-limited)."""
        if self.size > DENSE_TABLE_LIMIT:
            raise BudgetExceededError(
                f"q table (q_values): group of order {self.size} exceeds the dense-table limit "
                f"DENSE_TABLE_LIMIT = {DENSE_TABLE_LIMIT}; no flag raises it"
            )
        level = self.level
        return {x: Fraction(v, level) for x, v in zip(self.elements(), _q_numerators(self))}


def trivial_group() -> MetricGroup:
    return MetricGroup((), 1, (), ())


@dataclass(frozen=True)
class PrimeFamilySpec:
    """One of the eight prime families.

    family : 'A'..'F'
    p      : the prime (2 for C, D, E, F; A and B allow any prime)
    r      : the exponent, group Z_{p^r} (or Z_{2^r}^2 for E, F)
    """

    family: str
    p: int
    r: int

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


def _cyclic(n: int, num: int, den: int) -> MetricGroup:
    """Z_n with q(1) = num / den."""
    return MetricGroup((n,), den, (num,), ((2 * num,),))


def build_prime(spec: PrimeFamilySpec) -> MetricGroup:
    """The metric group of a prime family, verified nondegenerate."""
    p, r = spec.p, spec.r
    n = p**r
    if spec.family in "AB" and p != 2:
        g = _cyclic(n, canonical_unit(spec.family, p), n)
    elif spec.family in "ABCD":
        g = _cyclic(n, {"A": 1, "B": -1, "C": 5, "D": -5}[spec.family], 2 * n)
    elif spec.family == "E":
        g = MetricGroup((n, n), n, (0, 0), ((0, 1), (1, 0)))
    else:  # F
        g = MetricGroup((n, n), n, (1, 1), ((2, 1), (1, 2)))
    if not is_nondegenerate(g):
        raise DegenerateFormError(f"degenerate form for {spec}")
    return g


def _canonicalize(orders, level, q_num, bil_num) -> MetricGroup:
    """Rewrite generators so the orders form a divisibility chain."""
    k = len(orders)
    chain = all(orders[i] % orders[i - 1] == 0 for i in range(1, k))
    if chain:
        gens = [tuple(int(i == j) for i in range(k)) for j in range(k)]
        new_orders = list(orders)
    else:
        rel = [[orders[i] if i == j else 0 for j in range(k)] for i in range(k)]
        snf = smith_normal_form(rel)
        # x -> U x identifies Z^k / diag(orders) with Z^k / S; the new
        # generator j pulls back to column j of U^{-1}, and U rel V = S makes
        # that diag(orders) V e_j / s_j.
        new_orders = [snf.s[i][i] for i in range(k)]
        gens = [tuple(n * x // s for n, x in zip(orders, snf.v_column(j)))
                for j, s in enumerate(new_orders)]

    keep = [j for j in range(k) if new_orders[j] > 1]
    q_new = [_q_sum(gens[j], q_num, bil_num, level) for j in keep]
    bil_new = [[_bil_sum(gens[i], gens[j], bil_num, level) for j in keep] for i in keep]
    return MetricGroup([new_orders[j] for j in keep], level, q_new, bil_new)


def direct_sum(g1: MetricGroup, g2: MetricGroup) -> MetricGroup:
    """Orthogonal sum; invariant factors are renormalized to a chain."""
    k1, k2 = len(g1.orders), len(g2.orders)
    level = lcm(g1.level, g2.level)
    s1, s2 = level // g1.level, level // g2.level
    q_num = [v * s1 for v in g1.gen_q_num] + [v * s2 for v in g2.gen_q_num]
    bil = [[v * s1 for v in row] + [0] * k2 for row in g1.gen_bil_num]
    bil += [[0] * k1 + [v * s2 for v in row] for row in g2.gen_bil_num]
    out = _canonicalize(g1.orders + g2.orders, level, q_num, bil)
    if g1._nondegenerate and g2._nondegenerate:
        # An orthogonal sum of nondegenerate forms is nondegenerate.
        object.__setattr__(out, "_nondegenerate", True)
    return out


def conjugate(g: MetricGroup) -> MetricGroup:
    """Same group with q replaced by -q."""
    return MetricGroup(g.orders, g.level, [-v for v in g.gen_q_num],
                       [[-v for v in row] for row in g.gen_bil_num])


def is_nondegenerate(g: MetricGroup) -> bool:
    """True iff x -> chi(x, .) is injective.

    With N the level and C[i][j] = N chi(e_i, e_j), row i of
    n_j C[i][j] / N is the image of e_i in the character group
    Hom(A, Q/Z) = Z_{n_1} x ... x Z_{n_k}.  A and its character group have
    the same order, so the map is injective iff it is onto, i.e. iff those
    rows generate Z^k / diag(orders) Z^k (Nikulin 1979, section 1).  The
    answer is kept on g, so a group is checked once.
    """
    if g._nondegenerate is None:
        level, orders = g.level, g.orders
        rows = [[n * c // level for n, c in zip(orders, row)] for row in g.gen_bil_num]
        object.__setattr__(g, "_nondegenerate", _order_index(rows, orders) == 1)
    return g._nondegenerate


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


def check_gauss_budget(size: int, budget: int) -> None:
    """The Gauss sum's refusal of a group of order `size`, also asked early."""
    if size > budget:
        raise BudgetExceededError(
            f"Gauss sum (central_charge_gauss): group of order {size} exceeds budget {budget}; "
            "raise it with --budget"
        )


def _gauss_bits(level: int, size: int) -> int:
    """F = 42 + bits(N) + ceil(bits(|A|)/2) fractional bits for the Gauss sum
    of a group of order |A| = size and level N: then 36 N < 2^(6 + bits(N))
    and sqrt|A| <= 2^ceil(bits(|A|)/2), so 36 N sqrt|A| <= 2^(F - 36), which
    is the bound `central_charge_gauss` needs."""
    return 42 + level.bit_length() + (size.bit_length() + 1) // 2


# Guard bits of `_unit_root`'s working precision W = F + 32: its integer
# steps lose less than 2 W + 16 units of 2^-W, under 2^-20 of w's last bit.
_ROOT_GUARD = 32


@cache
def _machin_pi(bits: int) -> int:
    """pi 2^bits from Machin's formula pi = 16 atan(1/5) - 4 atan(1/239).

    Each series term floor(2^bits / (d x^d)), d = 1, 3, 5, ..., is one floor
    (nested floors by ints are one), so it is off by less than 1; the series
    for x stops at the first zero power, after at most bits/(2 log2 x) + 1/2
    terms, and its omitted tail is below 1.  So the result is off by less
    than 16 (bits/4.6 + 1.5) + 4 (bits/15.8 + 1.5) < 4 bits + 30 units."""

    def atan_inv(x: int) -> int:
        total, power, x2, d = 0, (1 << bits) // x, x * x, 1
        while power:
            term = power // d
            total += -term if d & 2 else term  # d = 3, 7, 11, ... subtract
            power //= x2
            d += 2
        return total

    return 16 * atan_inv(5) - 4 * atan_inv(239)


def _unit_root(level: int, bits: int) -> tuple[int, int]:
    """w = (cos, sin)(2 pi/N) 2^F for N = level, F = bits, each part within
    1/2 + 2^-20 of the exact value, in integers only.

    In W = F + 32 fractional bits, 2 pi/N = q pi/2 + phi with q = round(4/N)
    and |phi| <= pi/4 (phi = 0 for N = 1, 2, 4).  phi is pi's value times
    (4 - q N)/(2N), of modulus <= 1/4, floored: off by less than W + 9 units.
    Both Taylor series run on phi^2 floored to W bits; each of their at most
    W/4 + 2 terms is one floor of the last term times -phi^2/(d (d + 1)) <=
    0.31, so it is off by less than 2.2 units, and the tail is below 1.  With
    |cos'|, |sin'| <= 1 each part is off by less than 2 W + 16 units before
    the quarter turns i^q (exact) and the rounding to F bits, so for F <= 2000
    w is within 1/2 + 2^-20 of (cos, sin)(2 pi/N) 2^F."""
    work = bits + _ROOT_GUARD
    q = (8 + level) // (2 * level)
    x = _machin_pi(work) * (4 - q * level) // (2 * level)
    x2 = x * x >> work
    c = t = 1 << work  # cos: terms (-phi^2)^k / (2k)!
    s = u = x  # sin: terms phi (-phi^2)^k / (2k + 1)!
    d = 1
    while t or u:
        t = -(t * x2) // ((d * (d + 1)) << work)
        u = -(u * x2) // (((d + 1) * (d + 2)) << work)
        c += t
        s += u
        d += 2
    for _ in range(q % 4):
        c, s = -s, c
    half = 1 << (_ROOT_GUARD - 1)
    return (c + half) >> _ROOT_GUARD, (s + half) >> _ROOT_GUARD


def central_charge_gauss(g: MetricGroup, budget: int = GAUSS_BUDGET_DEFAULT) -> int:
    """Central charge mod 8 from the normalized Gauss sum sum_x e^{2 pi i q(x)}.

    With N the level, the sum is sum_v c_v zeta^v over the histogram
    c_v = #{x : N q(x) = v mod N}, zeta = e^{2 pi i/N}.  `_q_histogram`
    fills it from `_q_rows(g, paired=True)`: q(-x) = q(x), so each pair
    {x, -x} is evaluated once and counted twice.

    The sum is taken in fixed point with F fractional bits (u = 2^-F), in
    blocks of B = ceil(sqrt N) levels.  `_unit_root` rounds w = zeta once, in
    integers, each part within (1/2 + 2^-20) u, so |w - zeta| < 0.71 u; the
    baby powers are z_0 = 1 and z_{j+1} = z_j w truncated to F bits, j <= B,
    and the giant powers G_0 = 1 and G_{h+1} = G_h z_B truncated.  Each baby
    step adds at most |z_j| 0.71 u + sqrt 2 u < 2.5u to |z_j - zeta^j|, so it
    is <= 3 j u, and each giant step at most |G_h| 3 B u + sqrt 2 u <
    (3B + 3) u (|z_B - zeta^B| <= 3 B u, and a truncation moves each part by
    less than u), so |G_h - zeta^{hB}| <= h (3B + 3) u.
    Block h adds (A_h G_h) >> F with A_h = sum_j c_{hB+j} z_j, an exact
    integer, so it is off by at most
    C_h (3B + h (3B + 3)) u (1 + 3Bu) + sqrt 2 u, C_h the block's count.  With
    h < ceil(N/B) <= B the sum is off by less than 4 |A| (B + 1)^2 u
    <= 36 N |A| u, and the normalized sum (with its targets sqrt|A|
    e^{i pi c/4} rounded to F bits) by less than 2^-36 for
    F = 42 + bits(N) + ceil(bits(|A|)/2).  A phase e^{i pi c/4} matches when
    it lies within 2^-20 of the normalized sum: far above that error, and far
    below both the gap |e^{i pi/4} - 1| ~ 0.765 between phases and the
    distance >= sqrt 2 - 1 from the unit circle of a degenerate form's sum
    (modulus 0 or sqrt|radical| >= sqrt 2).
    Both parts of A_h come from one C-level dot product: each baby power is
    packed into one int, (re + 2^(F+1)) + im 2^S with S = F + 2 + bits(|A| - 1).
    Each |re| <= 2^F + 3B < 2^(F+1), so the low slot holds values in
    (0, 2^(F+2)); a block sums at most |A| <= 2^bits(|A| - 1) of them, so the
    slot stays below 2^S and never carries into im.  The mask and the shift
    then give A_h exactly, after 2^(F+1) sum_j c_{hB+j} comes off re.
    Raises DegenerateFormError when no phase matches.
    """
    size = g.size
    check_gauss_budget(size, budget)
    n = g.level
    counts = _q_histogram(g)
    bits = _gauss_bits(n, size)
    wr, wi = _unit_root(n, bits)
    block = isqrt(n - 1) + 1  # B = ceil(sqrt N)
    off = 1 << (bits + 1)
    shift = bits + 2 + (size - 1).bit_length()
    mask = (1 << shift) - 1
    baby = []
    zr, zi = 1 << bits, 0
    for _ in range(block):
        baby.append(zr + off + (zi << shift))
        zr, zi = (zr * wr - zi * wi) >> bits, (zr * wi + zi * wr) >> bits
    gr, gi = 1 << bits, 0
    sr = si = 0
    for h in range(0, n, block):
        part = counts[h:h + block]
        packed = sum(map(mul, part, baby))
        ar, ai = (packed & mask) - off * sum(part), packed >> shift
        sr += (ar * gr - ai * gi) >> bits
        si += (ar * gi + ai * gr) >> bits
        gr, gi = (gr * zr - gi * zi) >> bits, (gr * zi + gi * zr) >> bits
    full = isqrt(size << (2 * bits))  # sqrt|A| and sqrt(|A|/2), F bits
    half = isqrt(size << (2 * bits - 1))
    phases = ((full, 0), (half, half), (0, full), (-half, half),
              (-full, 0), (-half, -half), (0, -full), (half, -half))
    limit = size << (2 * bits - 40)  # |A| (2^-20)^2 in units of 2^-2F
    for c, (tr, ti) in enumerate(phases):
        if (sr - tr) ** 2 + (si - ti) ** 2 < limit:
            return c
    modulus2 = Fraction(sr * sr + si * si, size << (2 * bits))
    raise DegenerateFormError(
        f"Gauss sum matches no phase e^(i pi c/4): |sum|^2/|A| = {float(modulus2):.6g}"
    )


def _order_index(h_rows, orders) -> int:
    """|Z^k / (rowspace(h_rows) + diag(orders) Z^k)| as det of an HNF."""
    k = len(orders)
    rel = [[orders[i] if i == j else 0 for j in range(k)] for i in range(k)]
    h = hermite_normal_form([list(r) for r in h_rows] + rel).h
    det = 1
    for i in range(k):
        det *= h[i][i]
        if h[i][i] == 0:
            return 0
    return abs(det)


def _cyclic_iso(g1: MetricGroup, g2: MetricGroup):
    """Isometry between cyclic groups of the same level N via square roots mod N.

    q(1) = a/N in lowest terms, so phi(1) = u works iff u^2 b = a mod N for
    q2(1) = b/N and gcd(u, n) = 1; solving u^2 = a b^{-1} mod N covers all
    candidates, whatever the group size.
    """
    n, d = g1.orders[0], g1.level
    a, b = g1.gen_q_num[0], g2.gen_q_num[0]
    target = a * pow(b, -1, d) % d
    lifts = max(1, -(-n // d))
    for root in sorted(sqrt_mod(target, d)):
        for j in range(lifts):
            u = (root + j * d) % n
            if u and gcd(u, n) == 1 and _q_sum((u,), g2.gen_q_num, g2.gen_bil_num, d) == a:
                return ((u,),)
    return None


def _candidates(g1: MetricGroup, g2: MetricGroup) -> list[list[tuple[int, ...]]]:
    """Per generator e_i of g1, the elements x of g2 with q(x) = q(e_i) and
    order exactly n_i, in lexicographic order.  An isometry is a bijective
    homomorphism, so these are the only images e_i can have when g1 and g2
    share their invariant factors."""
    by_q: dict[int, list[int]] = {}
    for i, v in enumerate(g1.gen_q_num):
        by_q.setdefault(v, []).append(i)
    pools: list[list[tuple[int, ...]]] = [[] for _ in g1.orders]
    for x, v in zip(g2.elements(), _q_numerators(g2)):
        if v in by_q:
            order = g2.order_of(x)
            for i in by_q[v]:
                if g1.orders[i] == order:
                    pools[i].append(x)
    return pools


def _isometries(g1: MetricGroup, g2: MetricGroup, prefix=(), pools=None):
    """Yield every isometry g1 -> g2 (g1 not trivial) that maps e_i to
    prefix[i] for i < len(prefix), as generator images in the lexicographic
    order of the image tuples.

    Groups with different invariant factors or levels yield nothing.  The
    images of e_i are drawn from `pools[i]` (default `_candidates(g1, g2)`);
    a prefix image is held to the same q and order test.  Once an image y is
    fixed, its column C y mod N (C the Gram numerators of g2, N the level) is
    kept, so chi(x, y) against a deeper candidate x is one dot product.  The
    generation check `_order_index` runs on every complete map unless g1 is
    known to be nondegenerate (`is_nondegenerate` has answered for it): a map
    preserving chi on a nondegenerate form has a trivial kernel, since a
    kernel element pairs to 0 with everything, so it is a bijection; on a
    degenerate form it need not be.
    """
    if g1.orders != g2.orders or g1.level != g2.level:
        return iter(())
    if pools is None:
        pools = _candidates(g1, g2)
    orders, k, level, bil2 = g1.orders, len(g1.orders), g2.level, g2.gen_bil_num
    injective = g1._nondegenerate is True
    levels = list(pools)
    for i, y in enumerate(prefix):
        fits = g2.q_num(y) == g1.gen_q_num[i] and g2.order_of(y) == orders[i]
        levels[i] = [y] if fits else []

    images: list[tuple[int, ...]] = []
    columns: list[tuple[int, ...]] = []

    # `extend` gets itself as an argument: recursing through its closure
    # cell would tie the function to itself in a cycle that keeps the pools
    # alive until a gen-2 collection.
    def extend(i: int, extend):
        if i == k:
            if injective or _order_index(images, orders) == 1:
                yield tuple(images)
            return
        want = g1.gen_bil_num[i]
        for x in levels[i]:
            if any(sum(map(mul, x, columns[j])) % level != want[j] for j in range(i)):
                continue
            images.append(x)
            columns.append(tuple(sum(map(mul, row, x)) % level for row in bil2))
            yield from extend(i + 1, extend)
            images.pop()
            columns.pop()

    return extend(0, extend)


def is_isomorphic(g1: MetricGroup, g2: MetricGroup, budget: int = BUDGET_DEFAULT):
    """An isometry g1 -> g2 as a tuple of generator images, or None.

    The witness phi maps sum x_i e_i to sum x_i images[i]; q2(phi(x)) = q1(x)
    holds for all x whenever it holds on generators and pairs, which is what
    the search enforces.  Groups with different invariant factors or levels
    are not isometric.  Cyclic groups are handled in closed form via square
    roots modulo the level, so they bypass the size budget; otherwise the
    witness is the first isometry `_isometries` yields.
    """
    if g1.orders != g2.orders or g1.level != g2.level:
        return None
    k = len(g1.orders)
    if k == 0:
        return ()
    if k == 1:
        return _cyclic_iso(g1, g2)
    if g1.size > budget:
        raise BudgetExceededError(
            f"isometry search (is_isomorphic): group of order {g1.size} exceeds budget {budget}; "
            "raise it with --budget"
        )
    return next(_isometries(g1, g2), None)


def gauged_center_fpdim(spec: PrimeFamilySpec) -> int:
    """|G|^4 |A|^2 for G the topological symmetry group of the family."""
    from .symmetry import aut_order_closed

    order, _ = aut_order_closed(spec)
    return order**4 * spec.group_order**2
