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


def glued_lattice_oracle(base_gram, glued):
    """The full Gram matrix of a `GluedLattice` and the first copy's
    coordinates in its basis, rebuilt from `basis_rows` (h) alone.

    The Gram matrix is h K^{+8} h^T / e^2, e = the base's exponent, with
    K^{+8} assembled by hand from the base and every entry checked to be
    divisible by e^2.  The coordinates X solve X h = e [I_m | 0] by forward
    substitution down the upper-triangular h, each step checked to divide.
    """
    from anyonlat.linalg import mat_mul, transpose

    m = len(base_gram)
    big = 8 * m
    den = glued.base_disc.exponent
    h = glued.basis_rows
    k8 = [[0] * big for _ in range(big)]
    for copy in range(8):
        for i in range(m):
            for j in range(m):
                k8[copy * m + i][copy * m + j] = base_gram[i][j]
    product = mat_mul(mat_mul(h, k8), transpose(h))
    assert all(x % (den * den) == 0 for row in product for x in row), "non-integral glued Gram matrix"
    gram = [[x // (den * den) for x in row] for row in product]
    first_copy = []
    for t in range(m):
        rest = [den if j == t else 0 for j in range(big)]
        x = [0] * big
        for c in range(big):
            assert rest[c] % h[c][c] == 0, "first copy row is not in the glued lattice"
            x[c] = rest[c] // h[c][c]
            rest = [r - x[c] * y for r, y in zip(rest, h[c])]
        first_copy.append(x)
    return gram, first_copy


def smith_u_inv_columns(m, snf):
    """Check a Smith normal form U m V = S whose U is not kept, and return the
    columns U^-1 e_j, j < r = rank, read off m V = U^-1 S.

    Column j < r of m V must be divisible by s_j, the columns past r must
    vanish, V must be unimodular, and the r quotient columns must have gcd 1
    over their r x r minors (each taken with `bareiss_determinant`), so that they
    extend to a unimodular U^-1: for square nonsingular m the one minor is
    det(m V S^-1) = +-1.
    """
    import itertools
    from math import gcd

    from anyonlat.linalg import mat_mul, transpose

    diag = snf.diagonal()
    rank = sum(1 for d in diag if d)
    mv_cols = transpose(mat_mul(m, snf.v))
    assert all(not any(col) for col in mv_cols[rank:]), "a column of m V past the rank is nonzero"
    assert all(x % s == 0 for col, s in zip(mv_cols, diag[:rank]) for x in col), "m V e_j is not divisible by s_j"
    quotients = [[x // s for x in col] for col, s in zip(mv_cols, diag[:rank])]
    rows = transpose(quotients) if quotients else [[] for _ in m]
    minors = (bareiss_determinant([rows[i] for i in pick]) for pick in itertools.combinations(range(len(m)), rank))
    assert gcd(*minors) == 1, "the columns of U^-1 do not extend to a unimodular matrix"
    assert abs(bareiss_determinant(snf.v)) == 1
    return quotients


def disguised(gram, rng, ops):
    """U K U^T for a seeded unimodular U of `ops` elementary operations."""
    k = [row[:] for row in gram]
    n = len(k)
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        for t in range(n):
            k[i][t] += c * k[j][t]
        for row in k:
            row[i] += c * row[j]
    return k


def span_with(span: set, vec: tuple, orders) -> set:
    """The subgroup H + <v> of Z_orders, for a subgroup H given as a set:
    the union of the cosets H + k v, k = 0, 1, ... until k v lies in H."""

    def add(x, y):
        return tuple((a + b) % n for a, b, n in zip(x, y, orders))

    new = set(span)
    step = vec
    while step not in span:
        new.update(add(h, step) for h in span)
        step = add(step, vec)
    return new


def glue_generators_search_oracle(disc, budget: int) -> list[list[int]]:
    """The glue search over a list of every tuple of D^8, in lexicographic
    order: the same depth-first search, checks and node count as
    `gluing._glue_generators_search`, with q and chi summed copy by copy and
    each span built from tuples.  Kept as the reference its generators must
    match."""
    import itertools

    from anyonlat.gluing import GlueSearchError
    from anyonlat.metric_groups import BudgetExceededError

    orders = list(disc.invariant_factors)
    g = len(orders)
    target = disc.order**4
    size = disc.order**8
    if size > budget:
        raise BudgetExceededError(f"D^8 with |D| = {disc.order}: {size} elements exceed node budget {budget}")
    all_orders = orders * 8
    group = disc.group
    level = group.level
    points = list(group.elements())
    q_num = {x: group.q_num(x) for x in points}
    bil_num = {(x, y): group.bilinear_num(x, y) for x in points for y in points}
    copies = [slice(copy * g, (copy + 1) * g) for copy in range(8)]

    def q2_total(vec) -> bool:
        return sum(q_num[vec[c]] for c in copies) % level == 0

    def bil_total(v, w) -> bool:
        return sum(bil_num[v[c], w[c]] for c in copies) % level == 0

    def touches_first_copy(x) -> bool:
        return any(x[:g]) and not any(x[g:])

    elements = list(itertools.product(*(range(n) for n in all_orders)))
    zero = tuple([0] * (8 * g))
    nodes = 0

    def search(span, gens, start):
        nonlocal nodes
        if len(span) == target:
            return gens
        for idx in range(start, len(elements)):
            nodes += 1
            if nodes > budget:
                raise GlueSearchError("glue search node budget exhausted")
            cand = elements[idx]
            if cand in span or not q2_total(cand):
                continue
            if any(not bil_total(cand, h) for h in gens):
                continue
            new_span = span_with(span, cand, all_orders)
            if len(new_span) > target:
                continue
            if any(touches_first_copy(x) for x in new_span - span):
                continue
            if not all(q2_total(x) for x in new_span - span):
                continue
            result = search(new_span, gens + [cand], idx + 1)
            if result is not None:
                return result
        return None

    try:
        result = search({zero}, [], 0)
    finally:
        del search  # break the self-reference through the closure cell
    if result is None:
        raise GlueSearchError("no glue group found within the budget")
    return [list(vec) for vec in result]


# ---------------------------------------------------------------------------
# Natural-order eliminations over whole rows: the oracles of `linalg`'s
# span-limited, reordered ones, which must return the same ints.


def _current_oracle(a, stamp, k, prev):
    s = stamp[k]
    if s != prev:
        a[k] = [x * prev // s for x in a[k]]
        stamp[k] = prev
    return a[k]


def bareiss_determinant(m):
    """Bareiss elimination in the natural order, every row operation over
    the whole tail of the row."""
    n = len(m)
    a = [list(row) for row in m]
    stamp = [1] * n
    sign = prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            stamp[k], stamp[piv] = stamp[piv], stamp[k]
            sign = -sign
        row_k = _current_oracle(a, stamp, k, prev)
        pivot, tail = row_k[k], row_k[k:]
        for i in range(k + 1, n):
            if a[i][k]:
                row_i = _current_oracle(a, stamp, i, prev)
                f = row_i[k]
                row_i[k:] = [(pivot * x - f * y) // prev for x, y in zip(row_i[k:], tail)]
                stamp[i] = pivot
        prev = pivot
    return sign * prev


def congruence_oracle(m):
    """The congruence elimination in the natural order over whole rows, each
    pivot scanning every live row: ((n+, n-, n0), det, rows, stamps).  A
    vanishing pivot p, with b_pk != 0 first at k > p, takes x_p += s x_k
    over whole rows and columns, rows p and k at scale prev, s = -1 where
    2 b_pk + b_kk = 0 and 1 otherwise; a zero row p is a null direction,
    counted and skipped."""
    n = len(m)
    b = [list(row) for row in m]
    stamp = [1] * n
    prev = 1
    n_plus = n_minus = n_zero = 0
    for p in range(n):
        row_p = _current_oracle(b, stamp, p, prev)
        if not row_p[p]:
            k = next((k for k in range(p + 1, n) if row_p[k]), None)
            if k is None:
                n_zero += 1
                continue
            row_k = _current_oracle(b, stamp, k, prev)
            s = -1 if 2 * row_p[k] + row_k[k] == 0 else 1
            row_p[p:] = [x + s * y for x, y in zip(row_p[p:], row_k[p:])]
            for row in b[p:]:
                row[p] += s * row[k]
        d = row_p[p]
        if (d > 0) == (prev > 0):
            n_plus += 1
        else:
            n_minus += 1
        for k in range(p + 1, n):
            if b[k][p]:
                row_k = _current_oracle(b, stamp, k, prev)
                f = row_k[p]
                row_k[p:] = [(d * x - f * y) // prev for x, y in zip(row_k[p:], row_p[p:])]
                stamp[k] = d
        prev = d
    return (n_plus, n_minus, n_zero), 0 if n_zero else prev, b, stamp


def hermite_oracle(m):
    """Row-style HNF in the natural order with T carried along: (H, T, ops),
    T m = H, every operation over whole rows of both, and ops the row
    operations in `HnfResult.row_ops`'s format: (i, j, 0) swaps rows i and
    j, (i, i, 2) negates row i, and (i, j, q) is row i -= q * row j."""
    rows = len(m)
    cols = len(m[0]) if m else 0
    a = [list(row) for row in m]
    t = [[int(i == j) for j in range(rows)] for i in range(rows)]
    ops = []
    pivot_row = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        while True:
            candidates = [i for i in range(pivot_row, rows) if a[i][col]]
            if not candidates:
                break
            best = min(candidates, key=lambda i: (abs(a[i][col]), i))
            if best != pivot_row:
                a[pivot_row], a[best] = a[best], a[pivot_row]
                t[pivot_row], t[best] = t[best], t[pivot_row]
                ops.append((pivot_row, best, 0))
            if a[pivot_row][col] < 0:
                a[pivot_row] = [-x for x in a[pivot_row]]
                t[pivot_row] = [-x for x in t[pivot_row]]
                ops.append((pivot_row, pivot_row, 2))
            p = a[pivot_row][col]
            done = True
            for i in range(pivot_row + 1, rows):
                if a[i][col]:
                    q = a[i][col] // p
                    a[i] = [x - q * y for x, y in zip(a[i], a[pivot_row])]
                    t[i] = [x - q * y for x, y in zip(t[i], t[pivot_row])]
                    ops.append((i, pivot_row, q))
                    if a[i][col]:
                        done = False
            if done:
                break
        if a[pivot_row][col]:
            p = a[pivot_row][col]
            for i in range(pivot_row):
                q = a[i][col] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[pivot_row])]
                    t[i] = [x - q * y for x, y in zip(t[i], t[pivot_row])]
                    ops.append((i, pivot_row, q))
            pivot_row += 1
    return a, t, ops


def _smith_pivot_oracle(a, t, rows):
    """(i, j) of the smallest nonzero |a[i][j]| with i, j >= t, the first in
    row-major order among equals; None for a zero block."""
    best = None
    for i in range(t, rows):
        tail = a[i][t:]
        x = min(filter(None, map(abs, tail)), default=0)
        if x and (best is None or x < best[0]):
            best = (x, i, t + min(tail.index(v) for v in (x, -x) if v in tail))
            if x == 1:
                break
    return best and best[1:]


def smith_oracle(m):
    """The Smith normal form elimination over whole rows and columns, every
    pass scanning every remaining row and column: `SnfResult(S, col_ops)`,
    which `smith_normal_form` must reproduce exactly."""
    from anyonlat.linalg import SnfResult, copy_matrix

    rows = len(m)
    cols = len(m[0]) if m else 0
    a = copy_matrix(m)
    col_ops: list[tuple[int, int, int]] = []
    t = 0
    while t < min(rows, cols):
        pos = _smith_pivot_oracle(a, t, rows)
        if pos is None:
            break
        while True:
            i, j = pos
            if i != t:
                a[t], a[i] = a[i], a[t]
            if j != t:
                for row in a[t:]:
                    row[t], row[j] = row[j], row[t]
                col_ops.append((t, j, 0))
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            pivot_row = a[t]
            p = pivot_row[t]
            pivot_tail = pivot_row[t:]
            dirty = False
            for r in range(t + 1, rows):
                row = a[r]
                q = -(row[t] // p)
                if q:
                    row[t:] = [x + q * y if y else x for x, y in zip(row[t:], pivot_tail)]
                dirty = dirty or row[t] != 0
            column = [row for row in a[t:] if row[t]]
            for c in range(t + 1, cols):
                q = -(pivot_row[c] // p)
                if q:
                    for row in column:
                        row[c] += q * row[t]
                    col_ops.append((t, c, q))
                dirty = dirty or pivot_row[c] != 0
            if dirty:
                pos = _smith_pivot_oracle(a, t, rows)
                continue
            # Row and column at t are clear; force the pivot to divide the
            # rest, which a unit pivot always does.
            offender = None if p == 1 else next(
                (r for r in range(t + 1, rows) if any(x % p for x in a[r][t + 1:])), None)
            if offender is None:
                break
            pivot_row[t:] = [x + y for x, y in zip(pivot_row[t:], a[offender][t:])]
            pos = _smith_pivot_oracle(a, t, rows)
        t += 1
    return SnfResult(a, col_ops)
