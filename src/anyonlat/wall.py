"""Wall's even-remainder continued fraction and the K-matrices it generates.

Given a prime power p^r and n coprime to p, the algorithm expands n/p^r into a
continued fraction whose partial quotients are forced to be even:

    1       = n d_1 - p^r d_2
    d_i     = a_i d_{i+1} - d_{i+2}      with a_i d_{i+1} the even-coefficient
                                         multiple of d_{i+1} closest to d_i
    d_{k+1} = +-1,  d_{k+2} = 0.

The tridiagonal matrix W with diagonal (n/p^r, a_1, ..., a_k) and unit
off-diagonals then has det W = +-p^{-r}, and K = W^{-1} is an even symmetric
integer matrix with cyclic cokernel Z_{p^r} and q2(generator) = n/p^r, i.e. a
K-matrix for the cyclic model with q(1) = n/(2 p^r).

Initial solution convention: the smallest positive d_1 with the parity the
parity bookkeeping requires (d_1 even for odd p; d_2 even and positive for
p = 2).  This choice is deterministic and reproduces most of the standard
per-family matrices; see the regression tests for the exceptions.

For the two rank-2 families the K-matrices are written down directly
(`direct_ef_k`): antidiagonal 2^r for the E family, and a 4x4 closed form for
the F family obtained by inverting a fixed tridiagonal W.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .linalg import (
    congruence,
    has_even_diagonal,
    is_symmetric,
    rational_inverse,
    smith_normal_form,
)
from .metric_groups import InternalError, PrimeFamilySpec
from .numtheory import jacobi_symbol, prime_power_split

__all__ = [
    "WallSequence",
    "wall_sequence",
    "assemble_w",
    "k_from_wall",
    "choose_c_for_family",
    "direct_ef_k",
    "SpecialCaseRouted",
    "WallVerificationError",
]


class SpecialCaseRouted(ValueError):
    """The family instance is served by an explicit lattice, not the expansion.

    Raised for A_3, B_2, B_4 and C_4, where no admissible parameter n exists
    below the modulus; `route` names the replacement construction.
    """

    def __init__(self, spec: PrimeFamilySpec, route: str):
        super().__init__(f"{spec.label()} routes to {route}")
        self.spec = spec
        self.route = route


class WallVerificationError(InternalError):
    """Internal consistency check failed on a synthesized K-matrix."""


@dataclass(frozen=True)
class WallSequence:
    n: int
    modulus: int
    d: tuple[int, ...]  # d_1 .. d_{k+1}
    a: tuple[int, ...]  # a_1 .. a_k
    epsilon: int

    @property
    def k(self) -> int:
        return len(self.a)


def _closest_even_multiple(target: int, base: int) -> int:
    """Even coefficient a minimizing |a * base - target|.

    Ties (target exactly between two even multiples) resolve to the smaller
    |a|, then to positive a.
    """
    ratio = Fraction(target, 2 * base)
    lo = 2 * (ratio.numerator // ratio.denominator)
    candidates = sorted(
        (lo, lo + 2),
        key=lambda a: (abs(target - a * base), abs(a), -a),
    )
    return candidates[0]


def wall_sequence(n: int, modulus: int) -> WallSequence:
    """Run the expansion for (n, modulus = p^r)."""
    p, _ = prime_power_split(modulus)
    if not (0 < n < modulus):
        raise ValueError(f"need 0 < n < modulus, got n={n}, modulus={modulus}")
    if gcd(n, p) != 1:
        raise ValueError(f"n={n} must be coprime to p={p}")
    if p != 2 and n % 2:
        raise ValueError(f"odd modulus requires even n, got n={n}")

    inv = pow(n, -1, modulus)
    if p != 2:
        # d_1 even (a shift by the odd modulus flips parity), d_2 > 0 odd.
        d1 = inv if inv % 2 == 0 else inv + modulus
        d2 = (n * d1 - 1) // modulus
    else:
        # d_1 odd is forced; take the smallest lift making d_2 even positive.
        d1 = inv
        while True:
            d2 = (n * d1 - 1) // modulus
            if d2 > 0 and d2 % 2 == 0:
                break
            d1 += modulus
    assert d2 >= 1 and abs(d2) < d1

    ds = [d1, d2]
    a: list[int] = []
    while True:
        prev, cur = ds[-2], ds[-1]
        coeff = _closest_even_multiple(prev, cur)
        nxt = coeff * cur - prev
        a.append(coeff)
        ds.append(nxt)
        if nxt == 0:
            break
        if abs(nxt) >= abs(cur):
            raise WallVerificationError(f"remainders not decreasing for ({n}, {modulus})")
    ds.pop()  # drop the trailing zero
    epsilon = ds[-1]
    if epsilon not in (1, -1):
        raise WallVerificationError(f"terminal divisor {epsilon} is not a unit")
    k = len(a)
    if p != 2 and k % 2 == 0:
        raise WallVerificationError(f"odd modulus must give odd k, got k={k}")
    if p == 2 and k % 2 == 1:
        raise WallVerificationError(f"even modulus must give even k, got k={k}")
    return WallSequence(n=n, modulus=modulus, d=tuple(ds), a=tuple(a), epsilon=epsilon)


def assemble_w(seq: WallSequence) -> list[list[Fraction]]:
    """The (k+1) x (k+1) tridiagonal matrix with diagonal (n/p^r, a_1..a_k)."""
    size = seq.k + 1
    w = [[Fraction(0)] * size for _ in range(size)]
    w[0][0] = Fraction(seq.n, seq.modulus)
    for i, coeff in enumerate(seq.a, start=1):
        w[i][i] = Fraction(coeff)
    for i in range(size - 1):
        w[i][i + 1] = w[i + 1][i] = Fraction(1)
    # modulus * W is integral (only w[0][0] has a denominator), and
    # det(modulus * W) = modulus^(k+1) det W.
    det = congruence([[int(seq.modulus * x) for x in row] for row in w]).det
    if det != seq.epsilon * seq.modulus**seq.k:
        raise WallVerificationError(
            f"det(W) = {Fraction(det, seq.modulus**size)}, expected {seq.epsilon}/{seq.modulus}")
    return w


def k_from_wall(n: int, modulus: int) -> list[list[int]]:
    """K = W^{-1}: even symmetric integral with cokernel Z_modulus, verified.

    Every run re-checks integrality, evenness, |det K| = modulus and the
    cokernel before returning, without factoring K: `assemble_w` checked
    det W = epsilon/modulus, so det K = epsilon * modulus exactly, and the
    cokernel is cyclic iff d_{n-1}(K), the gcd of the (n-1)-minors of K, is 1.
    Those minors are the entries of adj K = det(K) W.  Any failure is a bug,
    not an input error, and raises WallVerificationError.
    """
    seq = wall_sequence(n, modulus)
    w = assemble_w(seq)
    k_frac = rational_inverse(w)
    if any(x.denominator != 1 for row in k_frac for x in row):
        raise WallVerificationError(f"W^-1 not integral for ({n}, {modulus})")
    k = [[int(x) for x in row] for row in k_frac]
    if not is_symmetric(k) or not has_even_diagonal(k):
        raise WallVerificationError(f"K not even symmetric for ({n}, {modulus})")
    d_last = gcd(*(int(modulus * x) for row in w for x in row))
    if d_last != 1:
        raise WallVerificationError(f"cokernel is not cyclic of order {modulus}: d_(n-1)(K) = {d_last}")
    return k


def choose_c_for_family(spec: PrimeFamilySpec) -> int:
    """The canonical expansion parameter n for an A/B/C/D family instance.

    Odd p: n = 2m with m = 2 for family A, and for family B the smallest
    quadratic non-residue pairing (found by search when p = 1 mod 8).
    p = 2: n = 1, 7, 5, 3 for A, B, C, D.  Instances whose parameter would
    not satisfy n < p^r raise SpecialCaseRouted.
    """
    fam, p, r = spec.family, spec.p, spec.r
    modulus = p**r
    if fam in "EF":
        raise ValueError(f"family {fam} has a direct K-matrix; use direct_ef_k")
    if p != 2:
        if fam == "A":
            n = 4  # m = 2; (4/p) = 1 always
            if n >= modulus:
                raise SpecialCaseRouted(spec, "complement of the SU(3) Cartan lattice")
            return n
        if p % 8 in (3, 5):
            n = 2
        elif p % 8 == 7:
            n = p - 1
        else:
            m = next(m for m in range(1, p) if jacobi_symbol(2 * m, p) == -1)
            n = 2 * m
        if n >= modulus:
            raise SpecialCaseRouted(spec, "direct lattice table")
        return n
    n = {"A": 1, "B": 7, "C": 5, "D": 3}[fam]
    if n >= modulus:
        route = {
            "B": "complement of the rank-1 lattice (2^r)",
            "C": "complement of the D-family lattice",
        }.get(fam, "direct lattice table")
        raise SpecialCaseRouted(spec, route)
    return n


def direct_ef_k(family: str, r: int) -> list[list[int]]:
    """Closed-form K-matrices for the rank-2 families.

    E: antidiagonal (2^r).  F: the inverse of the fixed 4x4 tridiagonal W with
    diagonal (2^{1-r}, 2^{1-r}, 2a, 2b), a = (2^r - (-1)^r)/3, b = (-1)^{r-1},
    and (1,2)-entry 2^{-r}; signature 4 for odd r and 0 for even r.
    """
    if family not in "EF":
        raise ValueError(f"direct_ef_k serves families E and F, got {family!r}")
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    n = 2**r
    if family == "E":
        return [[0, n], [n, 0]]
    a = (n - (-1) ** r) // 3
    b = (-1) ** (r - 1)
    w = [
        [Fraction(2, n), Fraction(1, n), Fraction(0), Fraction(0)],
        [Fraction(1, n), Fraction(2, n), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(2 * a), Fraction(1)],
        [Fraction(0), Fraction(0), Fraction(1), Fraction(2 * b)],
    ]
    k_frac = rational_inverse(w)
    if any(x.denominator != 1 for row in k_frac for x in row):
        raise WallVerificationError(f"F-family W^-1 not integral at r={r}")
    k = [[int(x) for x in row] for row in k_frac]
    if not has_even_diagonal(k):
        raise WallVerificationError(f"F-family K not even at r={r}")
    # d_3(K) alone does not pin the factors (1, 1, n, n): (1, 2, 2, 4) has
    # the same d_3 and det at n = 4, so this check keeps the full SNF.
    factors = smith_normal_form(k).invariant_factors()
    if factors != [n, n]:
        raise WallVerificationError(f"F-family cokernel {factors} != Z_{n} x Z_{n}")
    return k
