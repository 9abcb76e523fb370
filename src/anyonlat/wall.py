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

W is never formed.  The inverse of a tridiagonal matrix with unit
off-diagonals is (W^{-1})_ij = (-1)^{i+j} theta_min(i,j) phi_max(i,j) / det W
for i, j = 0..k, theta_i the leading principal minor of order i and phi_j
the trailing one on the rows after j (Usmani 1994).  Here p^r theta_i are
the continuants T_0 = p^r, T_1 = n, T_{i+1} = a_i T_i - T_{i-1}, with
T_{k+1} = p^r det W = epsilon, and epsilon phi_j are the remainders d_{j+1}
themselves (same recurrence, run from the other end), so
K_ij = (-1)^{i+j} T_min(i,j) d_{max(i,j)+1} in ints (`k_from_wall`).

Initial solution convention: the smallest positive d_1 with the parity the
parity bookkeeping requires (d_1 even for odd p; d_2 even and positive for
p = 2).  This choice is deterministic and reproduces most of the standard
per-family matrices; see the regression tests for the exceptions.

For the two rank-2 families the K-matrices are written down directly
(`direct_ef_k`): antidiagonal 2^r for the E family, and for the F family the
4x4 closed form of the inverse of a fixed tridiagonal W; the oracle that
`kmatrix` runs on them checks their cokernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .linalg import has_even_diagonal
from .metric_groups import InternalError, PrimeFamilySpec
from .numtheory import jacobi_symbol, prime_power_split

__all__ = [
    "WallSequence",
    "wall_sequence",
    "k_from_wall",
    "choose_c_for_family",
    "direct_ef_k",
    "WallVerificationError",
]


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
    lo = 2 * (target // (2 * base))
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


def k_from_wall(n: int, modulus: int) -> list[list[int]]:
    """K = W^{-1}: even symmetric integral with cokernel Z_modulus, verified.

    K_ij = (-1)^{i+j} T_min(i,j) d_{max(i,j)+1} from the continuants T (see
    the module docstring) is integral and symmetric by construction.  Every
    run re-checks T_{k+1} = epsilon, which is det W = epsilon/modulus and so
    det K = epsilon * modulus, and the even diagonal.  The cokernel is
    cyclic iff the gcd of the entries of adj K = det(K) W is 1, and that gcd
    is gcd(n, modulus) = 1, which `wall_sequence` enforces.  Any failure is
    a bug, not an input error, and raises WallVerificationError.
    """
    seq = wall_sequence(n, modulus)
    t = [modulus, n]
    for coeff in seq.a:
        t.append(coeff * t[-1] - t[-2])
    if t[-1] != seq.epsilon:
        raise WallVerificationError(f"det(W) = {t[-1]}/{modulus}, expected {seq.epsilon}/{modulus}")
    d, size = seq.d, seq.k + 1
    k = [[(-1) ** (i + j) * t[min(i, j)] * d[max(i, j)] for j in range(size)] for i in range(size)]
    if not has_even_diagonal(k):
        raise WallVerificationError(f"K not even for ({n}, {modulus})")
    return k


def choose_c_for_family(spec: PrimeFamilySpec) -> int | None:
    """The canonical expansion parameter n for an A/B/C/D family instance.

    Odd p: n = 2m with m = 2 for family A, and for family B the smallest
    quadratic non-residue pairing (found by search when p = 1 mod 8).
    p = 2: n = 1, 7, 5, 3 for A, B, C, D.  None when n >= p^r, which happens
    for A_3, B_2, B_4 and C_4 only; `realize.kmatrix_for` routes those to a
    positive-definite lattice.
    """
    fam, p, r = spec.family, spec.p, spec.r
    if fam in "EF":
        raise ValueError(f"family {fam} has a direct K-matrix; use direct_ef_k")
    if p == 2:
        n = {"A": 1, "B": 7, "C": 5, "D": 3}[fam]
    elif fam == "A":
        n = 4  # m = 2; (4/p) = 1 always
    elif p % 8 in (3, 5):
        n = 2
    elif p % 8 == 7:
        n = p - 1
    else:
        n = 2 * next(m for m in range(1, p) if jacobi_symbol(2 * m, p) == -1)
    return n if n < p**r else None


def direct_ef_k(family: str, r: int) -> list[list[int]]:
    """Closed-form K-matrices for the rank-2 families.

    E: antidiagonal (2^r).  F: the inverse, written out in closed form, of
    the fixed 4x4 tridiagonal W with diagonal (2^{1-r}, 2^{1-r}, 2a, 2b),
    a = (2^r - (-1)^r)/3, b = (-1)^{r-1}, and (1,2)-entry 2^{-r}; signature
    4 for odd r and 0 for even r.  Only the even diagonal is checked: the
    oracle `kmatrix` runs on K matches its whole discriminant form.
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
    k = [
        [2 * n * (4 * a * b - b * n - 1), n * (1 - 4 * a * b), 2 * b * n, -n],
        [n * (1 - 4 * a * b), 2 * n * (4 * a * b - 1), -4 * b * n, 2 * n],
        [2 * b * n, -4 * b * n, 6 * b, -3],
        [-n, 2 * n, -3, 2 * (3 * a - n)],
    ]
    if not has_even_diagonal(k):
        raise WallVerificationError(f"F-family K not even at r={r}")
    return k
