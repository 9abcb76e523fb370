"""Even lattices, discriminant forms, and the verification oracle.

A Gram matrix K of an even lattice L determines the discriminant group
A_L = Z^m / K Z^m of order |det K| together with the quadratic form
q2(w) = w^T K^{-1} w mod 2 on dual-coset representatives w.  The metric group
(A_L, q2/2 mod 1) is the abelian anyon model the lattice realizes, with twists
theta = e^{pi i q2} and central charge = signature(K) mod 8; `discriminant_form`
holds it once, as a `MetricGroup`, with the int columns e K^{-1} w_j.

`verify_realization` is the oracle used throughout: it re-derives evenness,
determinant, exact inertia, and the discriminant form of a candidate Gram
matrix and matches the form against a target metric group by explicit
isometry search.  Its report carries the determinant and signature, which
callers read instead of computing them again.  A `Lattice` is only its Gram
matrix (a glued lattice's embedding lives on `gluing.GluedLattice`).

Explicit even positive-definite families provided here:

* `cartan_a(n)` / `cartan_d(n)` / `e6`..`e8`: the simply-laced root lattices,
* `k_e(r)` (rank 3, r even) and `k_o(r)` (rank 7, r odd) with cyclic
  discriminant Z_{2^r} in the D family,
* `k_double_prime(p, r, s)`: the rank-(p'+1) construction for cyclic odd
  p = 1 mod 4 models, built from an auxiliary prime p' = 3 mod 4 with
  prescribed quadratic characters and a square root t of 2 p^r mod p'.

These constructors check only their parameters: each package path to one
ends in the oracle `kmatrix` runs on its output (with signature = rank under
--positive-definite) or in `glue_selfdual_8`'s inertia check of its base.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import mul

from .linalg import (
    determinant,
    has_even_diagonal,
    inertia,
    is_symmetric,
    smith_normal_form,
)
from .metric_groups import (
    BUDGET_DEFAULT,
    GAUSS_BUDGET_DEFAULT,
    MetricGroup,
    central_charge_gauss,
    is_isomorphic,
)
from .numtheory import is_prime, jacobi_symbol, sqrt_mod_prime_power

__all__ = [
    "Lattice",
    "DiscriminantData",
    "discriminant_form",
    "CheckResult",
    "RealizationReport",
    "verify_realization",
    "cartan_a",
    "cartan_d",
    "e6_gram",
    "e7_gram",
    "e8_gram",
    "k_e",
    "k_o",
    "k_double_prime",
    "auxiliary_prime",
]

# Largest auxiliary prime p' that k_double_prime tries.
PPRIME_BOUND = 100000


@dataclass(frozen=True)
class Lattice:
    """An integral lattice, given by its Gram matrix."""

    gram: list[list[int]]

    def __post_init__(self):
        if not is_symmetric(self.gram):
            raise ValueError("Gram matrix must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def is_even(self) -> bool:
        return has_even_diagonal(self.gram)


@dataclass(frozen=True)
class DiscriminantData:
    """The discriminant form on dual-coset generators w_j: `group` is
    (A_L, q2/2 mod 1) with chi(e_i, e_j) = w_i . K^{-1} w_j, and `dual_num`
    holds the int columns e K^{-1} w_j, e the exponent; column j has exact
    order s_j mod Z^m, so e is the lcm of the denominators of all K^{-1} w_j."""

    group: MetricGroup
    generator_reps: tuple[tuple[int, ...], ...]
    dual_num: tuple[tuple[int, ...], ...]

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return self.group.orders

    @property
    def order(self) -> int:
        return self.group.size

    @property
    def exponent(self) -> int:
        return self.group.orders[-1] if self.group.orders else 1

    @property
    def q2_gen(self) -> tuple[Fraction, ...]:
        """q2(w_j) = 2 q(e_j) mod 2."""
        return tuple(Fraction(2 * v, self.group.level) for v in self.group.gen_q_num)


def discriminant_form(gram: list[list[int]]) -> DiscriminantData:
    """Extract A_L = Z^m / K Z^m with its form on generators, via Smith normal form.

    Requires an even symmetric Gram matrix with nonzero determinant; a zero
    on the diagonal of S marks a singular one.  The generator representative
    for the j-th invariant factor s_j is w_j = column j of U^{-1}, where
    U K V = S.  Only V is replayed: K V e_j = s_j U^{-1} e_j, so with
    v_j = V e_j, w_j = K v_j / s_j (an exact division) and
    e K^{-1} w_j = (e / s_j) v_j; q(e_j) and chi(e_i, e_j) are its dot
    products with w_j resp. w_i over 2e resp. e, passed as numerators over
    2e, which the `MetricGroup` constructor reduces to the level.
    """
    if not is_symmetric(gram):
        raise ValueError("Gram matrix must be symmetric")
    if not has_even_diagonal(gram):
        raise ValueError("Gram matrix must be even (all diagonal entries even)")
    snf = smith_normal_form(gram)
    diag = snf.diagonal()
    if 0 in diag:
        raise ValueError("Gram matrix is singular")
    cols = [j for j, s in enumerate(diag) if s > 1]
    factors = [diag[j] for j in cols]
    e = factors[-1] if factors else 1
    vs = [snf.v_column(j) for j in cols]
    # K v over the nonzero entries of each row only: Cartan-like K is sparse
    gens = tuple(tuple(sum(map(mul, filter(None, row), compress(v, row))) // s for row in gram)
                 for v, s in zip(vs, factors))
    dual = tuple(tuple(e // s * x for x in v) for v, s in zip(vs, factors))
    dots = [[sum(map(mul, w, z)) for z in dual] for w in gens]
    q = [row[j] for j, row in enumerate(dots)]
    group = MetricGroup(factors, 2 * e, q, [[2 * x for x in row] for row in dots])
    return DiscriminantData(group, gens, dual)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class RealizationReport:
    checks: tuple[CheckResult, ...]
    det: int | None = None
    signature: int | None = None
    witness: tuple | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self):
        for c in self.checks:
            yield f"[{'pass' if c.passed else 'FAIL'}] {c.name}: {c.detail}"


def verify_realization(
    gram: list[list[int]], target: MetricGroup, iso_budget: int = BUDGET_DEFAULT
) -> RealizationReport:
    """Full oracle: does this Gram matrix realize the target anyon model?

    Checks evenness, |det| = |A|, nondegeneracy and exact inertia, the
    signature = central charge congruence mod 8, and finally an explicit
    isometry between the discriminant form and the target.  `iso_budget`
    bounds the isometry search; the target's Gauss sum runs up to
    max(iso_budget, GAUSS_BUDGET_DEFAULT) elements, as in `model`.
    """
    checks: list[CheckResult] = []
    if not is_symmetric(gram):
        return RealizationReport((CheckResult("symmetric", False, "matrix is not symmetric"),))
    even = has_even_diagonal(gram)
    checks.append(CheckResult("even", even, f"diagonal {[gram[i][i] for i in range(len(gram))]}"))
    det = determinant(gram)
    checks.append(CheckResult("nondegenerate", det != 0, f"det = {det}"))
    if not even or det == 0:
        return RealizationReport(tuple(checks), det=det)
    size_ok = abs(det) == target.size
    checks.append(CheckResult("determinant", size_ok, f"|det| = {abs(det)}, |A| = {target.size}"))
    n_plus, n_minus, n_zero = inertia(gram)
    sig = n_plus - n_minus
    checks.append(
        CheckResult("inertia", n_zero == 0, f"(n+, n-, n0) = ({n_plus}, {n_minus}, {n_zero})")
    )
    charge = central_charge_gauss(target, budget=max(iso_budget, GAUSS_BUDGET_DEFAULT))
    sig_ok = (sig - charge) % 8 == 0
    checks.append(
        CheckResult("signature_mod_8", sig_ok, f"signature {sig} vs central charge {charge} (mod 8)")
    )
    if not size_ok:
        return RealizationReport(tuple(checks), det=det, signature=sig)
    disc = discriminant_form(gram)
    witness = is_isomorphic(disc.group, target, budget=iso_budget)
    checks.append(
        CheckResult(
            "discriminant_form",
            witness is not None,
            f"invariants {disc.invariant_factors}, q2(gens) = {[str(q) for q in disc.q2_gen]}"
            + (f", witness {witness}" if witness else ", no isometry"),
        )
    )
    return RealizationReport(tuple(checks), det=det, signature=sig, witness=witness)


# ---------------------------------------------------------------------------
# explicit positive-definite families


def cartan_a(n: int) -> Lattice:
    """Cartan matrix of A_n = su(n+1): tridiagonal (2, -1), determinant n+1."""
    if n < 1:
        raise ValueError(f"cartan_a requires n >= 1, got {n}")
    gram = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    return Lattice(gram)


def cartan_d(n: int) -> Lattice:
    """Cartan matrix of D_n (n >= 3): a fork at the end of an A_{n-1} chain."""
    if n < 3:
        raise ValueError(f"cartan_d requires n >= 3, got {n}")
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = 2
    for i in range(n - 2):
        gram[i][i + 1] = gram[i + 1][i] = -1
    gram[n - 3][n - 1] = gram[n - 1][n - 3] = -1
    return Lattice(gram)


def _from_dynkin(edges, n):
    gram = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        gram[i][j] = gram[j][i] = -1
    return Lattice(gram)


def e6_gram() -> Lattice:
    return _from_dynkin([(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)], 6)


def e7_gram() -> Lattice:
    return _from_dynkin([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)], 7)


def e8_gram() -> Lattice:
    return _from_dynkin([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)], 8)


def k_e(r: int) -> Lattice:
    """Rank-3 even positive-definite lattice with discriminant Z_{2^r} in the
    D family; defined for even r >= 2 (the corner (2^r + 2)/3 is integral
    exactly then).  Unchecked: see the module docstring."""
    if r < 2 or r % 2:
        raise ValueError(f"k_e requires even r >= 2, got {r}")
    corner = (2**r + 2) // 3
    return Lattice([[corner, 0, 1], [0, 2, -1], [1, -1, 2]])


def k_o(r: int) -> Lattice:
    """Rank-7 companion of k_e for odd r >= 3, corner (2^r + 4)/3."""
    if r < 3 or r % 2 == 0:
        raise ValueError(f"k_o requires odd r >= 3, got {r}")
    corner = (2**r + 4) // 3
    gram = [
        [corner, 0, 1, 0, 0, 0, -1],
        [0, 2, -1, 0, 0, 0, 0],
        [1, -1, 2, -1, 0, 0, 0],
        [0, 0, -1, 2, -1, 0, -1],
        [0, 0, 0, -1, 2, -1, 0],
        [0, 0, 0, 0, -1, 2, 0],
        [-1, 0, 0, -1, 0, 0, 2],
    ]
    return Lattice(gram)


def auxiliary_prime(p: int, r: int, s: int) -> int:
    """The smallest prime p' = 3 mod 4 with (2 p^r / p') = 1 and
    (2 p' / p) = s, for a prime p = 1 mod 4: `k_double_prime` has rank p' + 1."""
    if p % 4 != 1 or not is_prime(p):
        raise ValueError(f"p must be a prime = 1 mod 4, got {p}")
    if s not in (1, -1):
        raise ValueError(f"s must be +-1, got {s}")
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    n = p**r
    for candidate in range(3, PPRIME_BOUND + 1, 4):
        if (
            is_prime(candidate)
            and jacobi_symbol(2 * n % candidate, candidate) == 1
            and jacobi_symbol(2 * candidate % p, p) == s
        ):
            return candidate
    raise ValueError(f"no auxiliary prime below {PPRIME_BOUND} for (p, r, s) = ({p}, {r}, {s})")


def k_double_prime(p: int, r: int, s: int) -> tuple[Lattice, int, int]:
    """Even positive-definite lattice with discriminant Z_{p^r}, p = 1 mod 4.

    Searches the smallest prime p' = 3 mod 4 with (2 p^r / p') = 1 and
    (2 p' / p) = s, takes the smallest t with t^2 = 2 p^r mod p', and builds
    the rank-(p'+1) matrix: a Cartan A_{p'-1} core, a heavy corner
    (p' p^r + 1)/2 tied to the last coordinate by p^r, and a unit hook at
    position p' - t.  Returns (lattice, p', t), unchecked like k_e.
    """
    pprime = auxiliary_prime(p, r, s)
    n = p**r
    t = min(sqrt_mod_prime_power(2 * n % pprime, pprime, 1))
    c = pprime + 1
    gram = [[0] * c for _ in range(c)]
    gram[0][0] = (pprime * n + 1) // 2
    gram[0][c - 1] = gram[c - 1][0] = n
    for i in range(1, c - 1):
        gram[i][i] = 2
        if i + 1 < c - 1:
            gram[i][i + 1] = gram[i + 1][i] = -1
    hook = pprime - t
    gram[hook][c - 1] = gram[c - 1][hook] = 1
    gram[c - 1][c - 1] = (2 * n + t * (pprime - t)) // pprime
    return Lattice(gram), pprime, t
