"""Frozen regression fixtures: the per-branch W-matrices and explicit Gram
matrices the synthesis is expected to reproduce, together with variant forms
that circulate with transcription errata (kept to pin down exactly which
branch labels hold).

Each Wall-branch case records the instantiation (n, modulus), the expected
W-matrix, the target model spec string, and a status:

  exact      our canonical run reproduces the matrix entry for entry
  corrected  the matrix as commonly printed has a bad corner denominator;
             with the corrected corner (recorded here) the run matches
  divergent  the commonly printed form is not a valid W-matrix at all
             (wrong determinant or non-integral entry); our run's output is
             verified against the model instead, and `invalid_variant`
             documents the broken form where it is instantiable
"""

from fractions import Fraction


def tridiagonal_w(first: Fraction, diag: list[int]) -> list[list[Fraction]]:
    size = len(diag) + 1
    w = [[Fraction(0)] * size for _ in range(size)]
    w[0][0] = Fraction(first)
    for i, a in enumerate(diag, start=1):
        w[i][i] = Fraction(a)
    for i in range(size - 1):
        w[i][i + 1] = w[i + 1][i] = Fraction(1)
    return w


def wall_w(seq) -> list[list[Fraction]]:
    """The tridiagonal W of a `WallSequence`: diagonal (n/p^r, a_1..a_k)."""
    return tridiagonal_w(Fraction(seq.n, seq.modulus), list(seq.a))


WALL_BRANCH_CASES = [
    # family A, odd p, n = 4
    {
        "name": "A, r even",
        "n": 4, "modulus": 9, "target": "A[3^2]",
        "status": "exact",
        "w": tridiagonal_w(Fraction(4, 9), [(9 - 1) // 4, -4, -2]),
    },
    {
        "name": "A, r odd, p = 1 mod 8",
        "n": 4, "modulus": 17, "target": "A[17]",
        "status": "exact",
        "w": tridiagonal_w(Fraction(4, 17), [(17 - 1) // 4, -4, -2]),
    },
    {
        "name": "A, r odd, p = 5 mod 8",
        "n": 4, "modulus": 5, "target": "A[5]",
        "status": "exact",
        "w": tridiagonal_w(Fraction(4, 5), [(5 + 3) // 4, 2, 2]),
    },
    {
        "name": "A, r odd, p = 7 mod 8",
        "n": 4, "modulus": 7, "target": "A[7]",
        "status": "exact",
        "w": tridiagonal_w(Fraction(4, 7), [(7 + 1) // 4]),
    },
    {
        "name": "A, r odd, p = 3 mod 8",
        "n": 4, "modulus": 27, "target": "A[3^3]",
        "status": "divergent",
        # The published 4x4 uses the smallest-|d1| initial solution; it is a
        # valid alternative (checked below), but the canonical positive run
        # gives a 6x6.
        "w": None,
        "valid_variant": tridiagonal_w(Fraction(4, 27), [(27 - 3) // 4, -2, -2]),
    },
    # family B, odd p
    {
        "name": "B, r even, p = 5 mod 8",
        "n": 2, "modulus": 25, "target": "B[5^2]",
        "status": "exact",
        "w": tridiagonal_w(Fraction(2, 25), [(25 - 1) // 2, -2, -2]),
    },
    {
        "name": "B, r even, p = 3 mod 8",
        "n": 2, "modulus": 9, "target": "B[3^2]",
        "status": "exact",
        "w": tridiagonal_w(Fraction(2, 9), [(9 - 1) // 2, -2, -2]),
    },
    {
        "name": "B, r even, p = 7 mod 8",
        "n": 6, "modulus": 49, "target": "B[7^2]",
        "status": "divergent",
        "w": None,
        # As printed, the tail (-2, -2) gives det 9/49 instead of 1/49.
        "invalid_variant": tridiagonal_w(Fraction(6, 49), [(49 - 1) // 6, -2, -2]),
    },
    {
        "name": "B, r odd, p = 5 mod 8",
        "n": 2, "modulus": 5, "target": "B[5]",
        "status": "exact",
        "w": tridiagonal_w(Fraction(2, 5), [(5 - 1) // 2, -2, -2]),
    },
    {
        "name": "B, r odd, p = 7 mod 8 (r = 1)",
        "n": 6, "modulus": 7, "target": "B[7]",
        "status": "exact",
        "w": tridiagonal_w(Fraction(6, 7), [(7 - 1) // 6 + 1, 2, 2, 2, 2]),
    },
    {
        "name": "B, r odd, p = 7 mod 8 (r = 3)",
        "n": 6, "modulus": 343, "target": "B[7^3]",
        "status": "exact",
        "w": tridiagonal_w(Fraction(6, 343), [(343 - 1) // 6 + 1, 2, 2, 2, 2]),
    },
    {
        "name": "B, r odd, p = 3 mod 8",
        "n": 2, "modulus": 3, "target": "B[3]",
        "status": "exact",
        "w": tridiagonal_w(Fraction(2, 3), [(3 + 1) // 2]),
    },
    # p = 2 families
    {
        "name": "A, p = 2 (r = 2)",
        "n": 1, "modulus": 4, "target": "A[4]",
        "status": "exact",
        "w": tridiagonal_w(Fraction(1, 4), [4, -2]),
    },
    {
        "name": "A, p = 2 (r = 5)",
        "n": 1, "modulus": 32, "target": "A[2^5]",
        "status": "exact",
        "w": tridiagonal_w(Fraction(1, 32), [32, -2]),
    },
    {
        "name": "D, r even",
        "n": 3, "modulus": 4, "target": "D[4]",
        "status": "exact",
        "w": tridiagonal_w(Fraction(3, 4), [(4 + 2) // 3, 2]),
    },
    {
        "name": "D, r odd",
        "n": 3, "modulus": 8, "target": "D[8]",
        "status": "exact",
        "w": tridiagonal_w(Fraction(3, 8), [(8 - 2) // 3, -2, -2, -2]),
    },
    {
        "name": "C, r = 1 mod 4",
        "n": 5, "modulus": 32, "target": "C[2^5]",
        "status": "exact",
        "w": tridiagonal_w(Fraction(5, 32), [(32 - 2) // 5, -2]),
    },
    {
        "name": "C, r = 3 mod 4",
        "n": 5, "modulus": 8, "target": "C[8]",
        "status": "corrected",
        # Corner widely printed as (2^r + 2)/3, which is not an integer for
        # odd r; with denominator 5 = n the branch holds.
        "w": tridiagonal_w(Fraction(5, 8), [(8 + 2) // 5, 2, -2, -2]),
    },
    {
        "name": "C, r = 0 mod 4",
        "n": 5, "modulus": 16, "target": "C[2^4]",
        "status": "corrected",
        # Same corner typo: (2^r + 4)/3 -> (2^r + 4)/5.
        "w": tridiagonal_w(Fraction(5, 16), [(16 + 4) // 5, 2, 2, 2]),
    },
    {
        "name": "C, r = 2 mod 4",
        "n": 5, "modulus": 64, "target": "C[2^6]",
        "status": "divergent",
        "w": None,
        # The printed 7x7 with corner (2^r - 4)/3 = 20 and all -2 tail has
        # det -241/64.
        "invalid_variant": tridiagonal_w(Fraction(5, 64), [20, -2, -2, -2, -2, -2]),
    },
    {
        "name": "B, p = 2, r = 0 mod 3",
        "n": 7, "modulus": 8, "target": "B[8]",
        "status": "corrected",
        # Corner printed as (2^r + 6)/3 (never integral); with denominator 7
        # the r = 0 mod 3 branch holds.
        "w": tridiagonal_w(Fraction(7, 8), [(8 + 6) // 7, 2, 2, 2, 2, 2]),
    },
    {
        "name": "B, p = 2, r = 0 mod 3 (r = 6)",
        "n": 7, "modulus": 64, "target": "B[2^6]",
        "status": "corrected",
        "w": tridiagonal_w(Fraction(7, 64), [(64 + 6) // 7, 2, 2, 2, 2, 2]),
    },
    {
        "name": "B, p = 2, r = 1 mod 3",
        "n": 7, "modulus": 16, "target": "B[2^4]",
        "status": "divergent",
        "w": None,  # no integral corner under any printed reading
    },
    {
        "name": "B, p = 2, r = 2 mod 3",
        "n": 7, "modulus": 32, "target": "B[2^5]",
        "status": "divergent",
        "w": None,
    },
]


# Explicit Gram matrices with their models (regression anchors).

SU3_K = [[2, 1], [1, 2]]  # target B[3], c = 2

P5_C4_K = [  # target A[5]; also the output of the (4, 5) expansion
    [20, -15, 10, -5],
    [-15, 12, -8, 4],
    [10, -8, 6, -3],
    [-5, 4, -3, 2],
]

# Target B[5]: the unique rank-8 solution.  As circulated, entry (2, 3) is
# +1 while (3, 2) is -1; both symmetrizations are even positive definite of
# determinant 5 and realize the model, this fixture freezes the -1 reading.
P5_C8_K = [
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, -1, 0],
    [0, 0, 0, -1, 2, -1, 0, 0],
    [0, 0, 0, 0, -1, 2, 0, -1],
    [0, 0, 0, -1, 0, 0, 2, 1],
    [0, 0, 0, 0, 0, -1, 1, 4],
]

E4_16x16_K = [  # target E[4]: rank-16 positive-definite solution
    [4, 1, -1, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0],
    [1, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [-1, 0, 2, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 2, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, -1, -1, 2, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, -1, 2, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, -1, 2, -1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, -1, 2, -1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, -1, 2, 0, 0, 0, 0, 0, 0, 0],
    [-1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, -1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, -1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, -1, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 2, -1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 2, -1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 2],
]

# The rank-4 three-fermion-family matrix as widely printed: its (1, 1) entry
# +8 makes det = 144 (so it realizes nothing of order 16); flipping the sign
# to -8 gives the true inverse of the defining tridiagonal W.
F4_PRINTED_INVALID = [
    [8, 20, -8, -4],
    [20, -40, 16, 8],
    [-8, 16, -6, -3],
    [-4, 8, -3, -2],
]

F4_CORRECTED = [
    [-8, 20, -8, -4],
    [20, -40, 16, 8],
    [-8, 16, -6, -3],
    [-4, 8, -3, -2],
]

# Rank-3 D-family lattice as displayed in the worked example, labelled there
# with argument 2 although the corner 6 = (2^4 + 2)/3 belongs to r = 4; it
# realizes D[16], while the r = 2 instance (corner 2) realizes D[4].
KE_DISPLAY = [[6, 0, 1], [0, 2, -1], [1, -1, 2]]

KO3 = [
    [4, 0, 1, 0, 0, 0, -1],
    [0, 2, -1, 0, 0, 0, 0],
    [1, -1, 2, -1, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, -1],
    [0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, -1, 2, 0],
    [-1, 0, 0, -1, 0, 0, 2],
]
