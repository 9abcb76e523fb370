import random
from fractions import Fraction
from itertools import chain

import pytest
from reference_matrices import (
    bareiss_determinant,
    congruence_oracle,
    disguised,
    hermite_oracle,
    local_smith_oracle,
    smith_oracle,
    smith_u_inv_columns,
)

from anyonlat.linalg import (
    block_diagonal,
    congruence,
    determinant,
    hermite_normal_form,
    identity_matrix,
    inertia,
    is_positive_definite,
    is_symmetric,
    left_kernel,
    local_smith_form,
    mat_mul,
    rational_inverse,
    signature,
    smith_normal_form,
    solve_columns,
    transpose,
)
from anyonlat.numtheory import factorize


def gauss_det(m):
    """Independent determinant oracle: plain fraction Gaussian elimination."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return int(det)


def test_determinant_examples():
    assert determinant(identity_matrix(3)) == 1
    assert determinant([[2, -1], [-1, 2]]) == 3
    assert determinant([[0, 4], [4, 0]]) == -16
    assert determinant([[2]]) == 2
    with pytest.raises(ValueError):
        determinant([[1, 2, 3], [4, 5, 6]])


def test_smith_normal_form_examples():
    assert smith_normal_form([[2]]).diagonal() == [2]
    assert smith_normal_form([[2, -1], [-1, 2]]).diagonal() == [1, 3]
    assert smith_normal_form([[0, 2], [2, 0]]).diagonal() == [2, 2]


def test_smith_transforms_are_unimodular():
    # U^-1 = m V S^-1 is integral with |det| = 1, and |det V| = 1.
    m = [[6, 4, 2], [4, 8, 0], [2, 0, 10]]
    snf = smith_normal_form(m)
    u_inv = transpose(smith_u_inv_columns(m, snf))
    assert abs(bareiss_determinant(u_inv)) == 1
    assert abs(bareiss_determinant(snf.v)) == 1


def test_rational_inverse_examples():
    assert rational_inverse([[2]]) == [[Fraction(1, 2)]]
    assert rational_inverse([[Fraction(4, 7), 1], [1, 2]]) == [[14, -7], [-7, 4]]
    eye = identity_matrix(4)
    assert rational_inverse(eye) == [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    with pytest.raises(ValueError):
        rational_inverse([[1, 1], [1, 1]])


def test_inertia_examples():
    assert inertia(identity_matrix(2)) == (2, 0, 0)
    assert inertia([[0, 2], [2, 0]]) == (1, 1, 0)
    m = [[20, -15, 10, -5], [-15, 12, -8, 4], [10, -8, 6, -3], [-5, 4, -3, 2]]
    assert inertia(m) == (4, 0, 0)
    assert is_positive_definite(m)
    # positive definite: the elimination factors m = L D L^T
    assert ldl_product(congruence(m), 4) == m
    assert inertia([[0, 0], [0, 0]]) == (0, 0, 2)
    with pytest.raises(ValueError):
        inertia([[1, 2], [3, 4]])


def test_hermite_normal_form_examples():
    assert hermite_normal_form(identity_matrix(2)).h == identity_matrix(2)
    hnf = hermite_normal_form([[2, 0], [1, 1]])
    assert hnf.h == [[1, 1], [0, 2]]
    assert mat_mul(hnf.t, [[2, 0], [1, 1]]) == hnf.h
    zero = [[0, 0], [0, 0]]
    assert hermite_normal_form(zero).h == zero


def test_block_diagonal_against_a_hand_assembled_matrix():
    blocks = [[[2, 1], [1, 2]], [[4]], [], [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]]
    assert block_diagonal(blocks) == [
        [2, 1, 0, 0, 0, 0],
        [1, 2, 0, 0, 0, 0],
        [0, 0, 4, 0, 0, 0],
        [0, 0, 0, 2, -1, 0],
        [0, 0, 0, -1, 2, -1],
        [0, 0, 0, 0, -1, 2],
    ]
    assert block_diagonal([]) == []
    block = [[6]]
    assert block_diagonal([block, block]) == [[6, 0], [0, 6]]
    assert block == [[6]]


def test_left_kernel():
    m = [[1, 2], [2, 4], [3, 6]]
    kern = left_kernel(m)
    assert len(kern) == 2
    for row in kern:
        assert all(x == 0 for x in mat_mul([row], m)[0])


def test_solve_columns_banded():
    m = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    cols = solve_columns(m, [[1, 0, 0], [0, 0, 1]])
    for rhs, x in zip([[1, 0, 0], [0, 0, 1]], cols):
        assert [sum(Fraction(m[i][j]) * x[j] for j in range(3)) for i in range(3)] == [
            Fraction(v) for v in rhs
        ]


def test_random_exactness_properties():
    # 500 random matrices, entries up to 10^3: SNF transform identity and
    # divisibility chain, determinant via an independent oracle, inverse
    # round-trip, and inertia against the leading-principal-minor signs.
    rng = random.Random(20240817)
    for trial in range(500):
        n = rng.randint(1, 4)
        rows = rng.randint(1, 4)
        m = [[rng.randint(-1000, 1000) for _ in range(n)] for _ in range(rows)]
        snf = smith_normal_form(m)
        smith_u_inv_columns(m, snf)
        diag = snf.diagonal()
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
        for i, row in enumerate(snf.s):
            for j, x in enumerate(row):
                if i != j:
                    assert x == 0
        if rows == n:
            det = bareiss_determinant(m)
            prod = 1
            for d in diag:
                prod *= d
            assert abs(det) == prod
            if det != 0:
                inv = rational_inverse(m)
                assert mat_mul(inv, m) == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        sym = [[m[i][j] + m[j][i] if i != j else 2 * m[i][i] for j in range(rows)] for i in range(rows)] if rows == n else None
        if sym is not None:
            n_plus, n_minus, n_zero = inertia(sym)
            assert n_plus + n_minus + n_zero == n
            # The congruence determinant in both orders against Bareiss,
            # also on a zero diagonal (x_p +- x_k steps) and on a singular
            # matrix (the last index repeats the first).
            hyperbolic = [[0 if i == j else x for j, x in enumerate(row)] for i, row in enumerate(sym)]
            singular = [[row[j] if j < n - 1 else row[0] for j in range(n)] for row in sym]
            singular[-1] = singular[0][:]
            for case in (sym, hyperbolic, singular):
                assert congruence(case).det == determinant(case) == bareiss_determinant(case)
            if n > 1:
                assert determinant(singular) == 0
            # Jacobi/Sylvester cross-check on regular symmetric matrices.
            minors = [determinant([row[: k + 1] for row in sym[: k + 1]]) for k in range(n)]
            if all(minors):
                expected_plus = sum(
                    1 for k in range(n) if (minors[k] > 0) == (k == 0 or minors[k - 1] > 0)
                )
                assert (n_plus, n_minus, n_zero) == (expected_plus, n - expected_plus, 0)


def test_inertia_matches_minor_signs_on_regular_matrices():
    rng = random.Random(7)
    checked = 0
    while checked < 60:
        n = rng.randint(2, 5)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                v = rng.randint(-6, 6)
                m[i][j] = m[j][i] = v
        minors = [determinant([row[: k + 1] for row in m[: k + 1]]) for k in range(n)]
        if not all(minors):
            continue
        checked += 1
        n_plus, n_minus, n_zero = inertia(m)
        signs = []
        prev = 1
        for mu in minors:
            signs.append(1 if (mu > 0) == (prev > 0) else -1)
            prev = mu
        assert n_zero == 0
        assert congruence(m).det == minors[-1]
        assert n_plus == signs.count(1)
        assert n_minus == signs.count(-1)
        assert signature(m) == n_plus - n_minus


def cofactor_det(m):
    """Independent determinant oracle: cofactor expansion along row 0."""
    if not m:
        return 1
    return sum(
        (-1) ** j * x * cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
        for j, x in enumerate(m[0]) if x
    )


def test_determinant_against_cofactor_expansion():
    # Sparse entries, zero leading pivots and singular matrices, all
    # symmetric: the cases where the congruence elimination skips rows or
    # makes a vanishing pivot nonzero by x_p +- x_k.
    rng = random.Random(6161)
    singular = 0
    for trial in range(600):
        n = rng.randint(1, 6)
        zero_share = rng.choice((0.0, 0.3, 0.6, 0.8))
        m = [[0 if rng.random() < zero_share else rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        m = [[x + y for x, y in zip(row, col)] for row, col in zip(m, zip(*m))]
        if trial % 3 == 0:
            m[0][0] = 0
        if trial % 5 == 0 and n > 2:
            # one row and column a combination of two others
            i, j, k = rng.sample(range(n), 3)
            c = rng.randint(-3, 3)
            m[i] = [x + c * y for x, y in zip(m[j], m[k])]
            for row in m:
                row[i] = row[j] + c * row[k]
        assert is_symmetric(m), m
        expected = cofactor_det(m)
        singular += expected == 0
        assert determinant(m) == expected, m
    assert singular > 100


def fraction_congruence(m):
    """Independent inertia and determinant oracle over Q.

    Pivots on a nonzero diagonal entry when there is one; otherwise adds row
    and column j to row and column i for an entry a_ij != 0, which makes the
    diagonal entry 2 a_ij nonzero without changing inertia or determinant.
    """
    a = [[Fraction(x) for x in row] for row in m]
    n_plus = n_minus = 0
    det = Fraction(1)
    while a:
        i = next((i for i in range(len(a)) if a[i][i]), None)
        if i is None:
            pair = next(((i, j) for i in range(len(a)) for j in range(len(a)) if a[i][j]), None)
            if pair is None:
                return (n_plus, n_minus, len(a)), 0
            i, j = pair
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for row in a:
                row[i] += row[j]
        d = a[i][i]
        n_plus += d > 0
        n_minus += d < 0
        det *= d
        a = [[a[k][l] - a[k][i] * a[i][l] / d for l in range(len(a)) if l != i]
             for k in range(len(a)) if k != i]
    return (n_plus, n_minus, 0), det


def ldl(elim):
    """The Fraction decoding of `Congruence.minors` for positive-definite m:
    m = L D L^T with d_i = D_i / D_{i-1} and L[j][i] = b_ij / D_i, as the
    pivots d and, per column i of the unit lower-triangular L, its nonzero
    entries below the diagonal as pairs (j, L[j][i])."""
    view = elim.minors()
    d = [Fraction(minor, stamp) for minor, stamp, _ in view]
    lower = [[(j, Fraction(x, minor)) for j, x in tail] for minor, _, tail in view]
    return d, lower


def ldl_product(elim, n):
    d, columns = ldl(elim)
    lower = identity_matrix(n)
    for i, column in enumerate(columns):
        for j, x in column:
            lower[j][i] = x
    return [[sum(lower[i][k] * d[k] * lower[j][k] for k in range(n)) for j in range(n)] for i in range(n)]


def upper(rows):
    """The upper triangle of a congruence's rows, row i from column i on:
    the part that holds bordered minors (`rows[i][:i]` keeps the input's
    entries, which the elimination never touches)."""
    return [row[i:] for i, row in enumerate(rows)]


def test_congruence_against_a_fraction_elimination():
    rng = random.Random(6262)
    hyperbolic = 0
    for trial in range(400):
        n = rng.randint(1, 7)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                m[i][j] = m[j][i] = 0 if rng.random() < 0.4 else rng.randint(-20, 20)
        if trial % 2:
            # zero diagonal: the first pivots take x_p +- x_k steps
            for i in range(n):
                m[i][i] = 0
            hyperbolic += 1
        if trial % 3 == 0 and n > 2:
            # singular tail: the last row and column repeat a combination
            c = rng.randint(-2, 2)
            tail = [x + c * y for x, y in zip(m[0], m[1])]
            for i in range(n):
                m[i][-1] = m[-1][i] = tail[i]
            m[-1][-1] = tail[0] + c * tail[1]
        elim = congruence(m)
        assert (elim.inertia, elim.det) == fraction_congruence(m), m
    assert hyperbolic >= 200
    # Rank 10-40, where in-order pivots go in pairs (see
    # test_congruence_phase_change_matches_the_oracle): dense and banded,
    # definite and indefinite, odd ranks whose last pivot runs alone, a pair
    # whose second diagonal vanishes after the first step (k odd), and a
    # zero-diagonal tail; the rows and stamps are the whole-row oracle's.
    rng = random.Random("pair-fractions")
    for n, k, kind, density, band, definite in [
            (10, 10, None, 1.0, None, True), (11, 11, None, 1.0, None, False), (24, 24, None, 1.0, 3, True),
            (25, 25, None, 0.4, None, False), (39, 39, None, 1.0, None, True), (40, 40, None, 1.0, 2, False),
            (17, 9, "vanishing", 1.0, None, False), (30, 15, "vanishing", 0.5, 4, False),
            (20, 12, "hyperbolic", 1.0, None, False), (33, 21, "hyperbolic", 1.0, 3, False),
            (26, 13, "singular", 0.5, None, False)]:
        m = _ldl_case(rng, n, k, kind, density, rng.choice((7, 8)), band, definite)
        elim = congruence(m)
        assert (elim.inertia, elim.det) == fraction_congruence(m), m
        assert not definite or elim.inertia == (n, 0, 0), m
        inertia_want, det_want, rows_want, stamps_want = congruence_oracle(m)
        assert (elim.inertia, elim.det, upper(elim.rows), elim.stamps) == (
            inertia_want, det_want, upper(rows_want), stamps_want), m


def test_congruence_ldl_rebuilds_positive_definite_matrices():
    rng = random.Random(6363)
    for _ in range(100):
        n = rng.randint(1, 6)
        b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        m = [[sum(x * y for x, y in zip(r, s)) + (i == j) for j, s in enumerate(b)] for i, r in enumerate(b)]
        elim = congruence(m)
        assert elim.inertia == (n, 0, 0)
        assert ldl_product(elim, n) == m


def test_congruence_minors_split_the_norm_into_integer_squares():
    # D_i is the leading principal minor (gauss_det), stamped at D_{i-1}, and
    # y^T m y = sum_i M_i^2 / (D_i D_{i-1}) with M_i = sum_{j>=i} b_ij y_j.
    # The last cases reach rank ~30, where the in-order pivots go in pairs.
    rng = random.Random(6565)
    for trial in range(103):
        n = rng.randint(1, 6) if trial < 100 else (28, 29, 31)[trial - 100]
        b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        m = [[sum(x * y for x, y in zip(r, s)) + (i == j) for j, s in enumerate(b)] for i, r in enumerate(b)]
        view = congruence(m).minors()
        leading = [1] + [gauss_det([row[:i + 1] for row in m[:i + 1]]) for i in range(n)]
        assert [(minor, stamp) for minor, stamp, _ in view] == list(zip(leading[1:], leading[:-1]))
        assert all(isinstance(x, int) and x and j > i for i, (_, _, tail) in enumerate(view) for j, x in tail)
        y = [rng.randint(-5, 5) for _ in range(n)]
        norm = sum(y[i] * m[i][j] * y[j] for i in range(n) for j in range(n))
        squares = sum(Fraction((minor * y[i] + sum(x * y[j] for j, x in tail)) ** 2, minor * stamp)
                      for i, (minor, stamp, tail) in enumerate(view))
        assert squares == norm


def test_congruence_on_a_rank_300_cartan():
    # A_300: det 301, pivots d_i = (i + 2) / (i + 1), L[i+1][i] = -(i + 1) / (i + 2).
    n = 300
    m = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    elim = congruence(m)
    assert (elim.inertia, elim.det) == ((n, 0, 0), n + 1)
    d, columns = ldl(elim)
    assert d == [Fraction(i + 2, i + 1) for i in range(n)]
    assert columns == [[(i + 1, Fraction(-(i + 1), i + 2))] for i in range(n - 1)] + [[]]
    negated = [[-x for x in row] for row in m]
    assert (congruence(negated).inertia, congruence(negated).det) == ((0, n, 0), n + 1)


def _vanishing_corner(e):
    """Pivot 0 (d = 2) leaves b_11 = 0 with b_1k != 0 first at k = 4, past
    row 3's bound; row 2 lies between, with b_24 = 5 at a stamp (1) that
    lags prev (2); row 4 reaches column 5, past row 1's bound.  e = -2 makes
    2 b_14 + b_44 = 4 + 2 e vanish, so the step takes s = -1."""
    return [[2, 2, 0, 0, 0, 0], [2, 2, 0, 0, 1, 0], [0, 0, 2, 0, 5, 0],
            [0, 0, 0, 3, 0, 0], [0, 1, 5, 0, e, 3], [0, 0, 0, 0, 3, 1]]


VANISHING_PIVOTS = [
    # s = -1: 2 b_01 + b_11 = 0, so x_0 -= x_1 and the pivot is -4
    ([[0, 1], [1, -2]], ((1, 1, 0), -1), 0, [-4, 3]),
    # a null row between two pivots
    ([[2, 0, 0], [0, 0, 0], [0, 0, -2]], ((1, 1, 1), 0), 1, [0, 0]),
    # b_11 = b_12 = 0 after pivot 0: row 1 is null, and row 2 keeps its
    # input entry in column 1, left of its diagonal
    ([[1, 1, 1], [1, 1, 1], [1, 1, 3]], ((2, 0, 1), 0), 1, [0, 0]),
    # x_0 += x_2 past the zero row 1, which is then null
    ([[0, 0, 1], [0, 0, 0], [1, 0, 0]], ((1, 1, 1), 0), 0, [2, 0, 1]),
    (_vanishing_corner(-2), ((5, 1, 0), -12), 1, [-8, -10, 0, 6, -6]),
    (_vanishing_corner(7), ((5, 1, 0), -12), 1, [18, 10, 0, 16, 6]),
]


@pytest.mark.parametrize("m, want, p, row", VANISHING_PIVOTS,
                         ids=["minus", "null-row", "null-row-cleared", "past-a-zero-row", "corner-minus", "corner-plus"])
def test_congruence_vanishing_pivot_takes_x_p_plus_or_minus_x_k(m, want, p, row):
    """A vanishing pivot p takes x_p += s x_k for the first k > p with
    b_pk != 0, s = -1 exactly where 2 b_pk + b_kk = 0; a zero live row is a
    null direction.  Pinned against the Fraction elimination and Bareiss,
    with the whole-row oracle's upper triangle and stamps, and the frozen
    row of the first vanishing pivot p (the shifted row, or the null row)
    spelled out from column p on."""
    elim = congruence(m)
    assert (elim.inertia, elim.det) == want == fraction_congruence(m)
    assert elim.det == bareiss_determinant(m) == determinant(m)
    assert elim.inertia == inertia(m)
    inertia_want, det_want, rows_want, stamps_want = congruence_oracle(m)
    assert (elim.inertia, elim.det, upper(elim.rows), elim.stamps) == (
        inertia_want, det_want, upper(rows_want), stamps_want)
    assert elim.rows[p][p:] == row


def test_congruence_leaves_the_strictly_lower_triangle_as_the_input():
    """The elimination reads and writes nothing left of a row's diagonal,
    so each row keeps the input's entries there: through x_p +- x_k steps,
    null rows and pivots that go in pairs (a row both pivots update, a row
    whose stamp lags prev, a pair whose second diagonal vanishes)."""
    rng = random.Random("lower-triangle")
    cases = [m for m, *_ in VANISHING_PIVOTS]
    cases += [block_diagonal([[[0, 1], [1, 0]]] * 3), [[1, 1, 1], [1, 3, 1], [1, 1, 3]]]
    cases += [_ldl_case(rng, n, k, kind, density, 7, band)
              for n, k in ((9, 4), (12, 7), (16, 16))
              for kind in ("vanishing", "hyperbolic", "singular")
              for density, band in ((1.0, None), (0.3, None), (1.0, 2))]
    for m in cases:
        elim = congruence(m)
        assert all(row[:i] == m[i][:i] for i, row in enumerate(elim.rows)), m
        assert (elim.inertia, elim.det) == fraction_congruence(m), m


def test_congruence_on_hyperbolic_planes():
    """U^k, U = [[0, 1], [1, 0]], takes one x_p + x_k step per plane in the
    natural order; A_40 + U^100 is the CI's rank-240 case, where the static
    order puts the 200 hyperbolic rows first."""
    u = [[0, 1], [1, 0]]
    for k in (1, 2, 5, 30):
        m = block_diagonal([u] * k)
        elim = congruence(m)
        assert (elim.inertia, elim.det) == ((k, k, 0), (-1) ** k)
        inertia_want, det_want, rows_want, stamps_want = congruence_oracle(m)
        assert (elim.inertia, elim.det, upper(elim.rows), elim.stamps) == (
            inertia_want, det_want, upper(rows_want), stamps_want)
    m = block_diagonal([[[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(40)] for i in range(40)]]
                       + [u] * 100)
    assert (determinant(m), inertia(m)) == (41, (140, 100, 0))
    assert (congruence(m).inertia, congruence(m).det) == ((140, 100, 0), 41)


def replayed_v(snf, cols):
    """V built forward, by applying the logged column operations to the
    identity as right multiplications, the opposite order of the per-column
    replay."""
    v = identity_matrix(cols)
    for i, k, q in snf.col_ops:
        for row in v:
            if not q:
                row[i], row[k] = row[k], row[i]
            else:
                row[k] += q * row[i]
    return v


def test_smith_columns_replay_the_transforms():
    rng = random.Random(6464)
    for trial in range(150):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        if trial % 2:
            cols = rows
        m = [[rng.randint(-50, 50) if rng.random() < 0.7 else 0 for _ in range(cols)] for _ in range(rows)]
        snf = smith_normal_form(m)
        v = snf.v
        assert v == replayed_v(snf, cols)
        for j in range(cols):
            assert snf.v_column(j) == [row[j] for row in v]
        smith_u_inv_columns(m, snf)


def _snf_case(rng, kind):
    """A seeded integer matrix of the given kind for the SNF oracle."""
    from anyonlat.lattices import cartan_a, cartan_d

    n = rng.randint(1, 16)
    if kind == "cartan":
        return (cartan_a(n) if n < 3 or rng.random() < 0.5 else cartan_d(n)).gram
    if kind == "arrowhead":
        # a band with one or two dense hub rows and columns, anywhere
        m = [[rng.randint(-3, 3) if abs(i - j) <= 1 else 0 for j in range(n)] for i in range(n)]
        for h in rng.sample(range(n), min(n, rng.randint(1, 2))):
            for k in range(n):
                m[h][k] = rng.randint(-9, 9) or 1
                if rng.random() < 0.7:
                    m[k][h] = rng.randint(-9, 9) or 1
        return m
    if kind == "rectangle":
        rows, cols = rng.choice([(n, rng.randint(1, n)), (rng.randint(1, n), n)])
        m = [[rng.randint(-20, 20) if rng.random() < 0.3 else 0 for _ in range(cols)] for _ in range(rows)]
        for i in rng.sample(range(rows), rows // 4):  # zero rows
            m[i] = [0] * cols
        for j in rng.sample(range(cols), cols // 4):  # zero columns
            for row in m:
                row[j] = 0
        return m
    if kind == "deficient":
        # rows past the rank are combinations of the first ones
        cols, rank = rng.randint(1, 12), rng.randint(1, max(1, n - 1))
        m = [[rng.randint(-6, 6) if rng.random() < 0.5 else 0 for _ in range(cols)] for _ in range(rank)]
        for _ in range(n - rank):
            c, d = rng.randint(-3, 3), rng.randint(-3, 3)
            x, y = rng.choice(m), rng.choice(m)
            m.append([c * u + d * v for u, v in zip(x, y)])
        return m
    if kind == "nearly-dense":
        m = [[rng.randint(-30, 30) or 1 for _ in range(n)] for _ in range(n)]
        for _ in range(rng.randint(1, max(1, n // 2))):
            m[rng.randrange(n)][rng.randrange(n)] = 0
        return m
    # kind == "disguised": U K U^T of a Cartan band, dense with large entries
    return disguised(cartan_a(rng.randint(2, 12)).gram, rng, rng.randint(4, 40))


def test_smith_normal_form_matches_the_whole_row_oracle():
    """The SNF takes the oracle's pivots: equal S, equal column log, so equal
    columns of V, on sparse and dense input alike, and again after a random
    permutation of the rows and of the columns.  The fixed cases include
    the package's own traffic: diagonals of non-chain orders, as
    `_canonicalize` passes them, the Cartan A_120, the largest glue base a
    route builds, and a block-diagonal D_4^30 in a basis with no unit entry,
    so no pivot search stops early on its first pass."""
    from anyonlat.gluing import build_ef_positive, conjugate_realization
    from anyonlat.lattices import cartan_a, cartan_d

    u = [[1, 0, 0, 0], [2, 1, 0, 0], [1, 0, 1, 0], [-1, 0, 0, 1]]
    d4 = mat_mul(mat_mul(u, cartan_d(4).gram), transpose(u))
    assert 1 not in map(abs, chain.from_iterable(d4))
    diagonals = [block_diagonal([[[d]] for d in ds]) for ds in ((4, 6), (2, 3, 5), (8, 12, 18), (6, 10, 15, 4))]
    fixed = [cartan_a(60).gram, cartan_a(120).gram, block_diagonal([d4] * 30), *diagonals,
             build_ef_positive("F", 5), build_ef_positive("E", 3), build_ef_positive("F", 2),
             conjugate_realization(cartan_a(22).gram), [], [[]], [[0, 0]], [[0], [0]]]
    rng = random.Random("smith-oracle")
    kinds = ("cartan", "arrowhead", "rectangle", "deficient", "nearly-dense", "disguised")
    cases = fixed + [_snf_case(rng, kinds[trial % len(kinds)]) for trial in range(600)]
    sparse = singular = 0
    for m in cases:
        rows, cols = len(m), len(m[0]) if m else 0
        row_perm, col_perm = rng.sample(range(rows), rows), rng.sample(range(cols), cols)
        for a in (m, [[m[i][j] for j in col_perm] for i in row_perm]):
            got, want = smith_normal_form(a), smith_oracle(a)
            assert (got.s, got.col_ops) == (want.s, want.col_ops), a
            for j in range(cols) if cols <= 24 else rng.sample(range(cols), 24):
                assert got.v_column(j) == want.v_column(j), (a, j)
        sparse += 2 * sum(row.count(0) for row in m) > rows * cols
        singular += 0 in got.diagonal()
    assert sparse > 200 and len(cases) - sparse > 200 and singular > 100


def dense_mat_mul(a, b):
    """The dense reference product: one dot product per output entry."""
    bt = [list(col) for col in zip(*b)] if b else []
    return [[sum(x * y for x, y in zip(row, col) if x) for col in bt] for row in a]


def test_mat_mul_against_the_dense_product():
    rng = random.Random(7171)

    def matrix(rows, cols, density, entry):
        return [[entry() if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]

    def int_entry():
        return rng.randint(-9, 9)

    def fraction_entry():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    for trial in range(240):
        k = rng.randint(1, 7)
        rows, cols = rng.choice([(0, rng.randint(0, 7)), (1, rng.randint(1, 7)),
                                 (rng.randint(1, 7), 1), (rng.randint(1, 7), 0),
                                 (rng.randint(2, 7), rng.randint(2, 7))])
        density = rng.choice((0.0, 0.02, 0.1, 0.3, 0.6, 1.0))
        entry = fraction_entry if trial % 4 == 0 else int_entry
        a = matrix(rows, k, density, entry)
        b = matrix(k, cols, rng.choice((0.0, 0.1, 0.5, 1.0)), entry)
        # an all-zero row in either factor; Fraction zeros are falsy too
        zero = Fraction(0) if entry is fraction_entry else 0
        for m in (a, b):
            if m and trial % 3 == 0:
                m[rng.randrange(len(m))] = [zero] * len(m[0])
        assert mat_mul(a, b) == dense_mat_mul(a, b), (a, b)
    assert mat_mul([[0, 0, 0], [Fraction(0), 2, Fraction(0)], [1, 0, -1]],
                   [[1, 2], [0, 0], [Fraction(1, 2), 3]]) == [[0, 0], [0, 0], [Fraction(1, 2), -1]]
    assert mat_mul([], []) == [] and mat_mul([[]], []) == [[]]
    # k x 0 on the right, 0 x k on the left, 1 x k and k x 1 factors
    assert mat_mul([[1, 2, 3]], [[], [], []]) == [[]]
    assert mat_mul([], [[1, 2], [3, 4]]) == []
    assert mat_mul([[1, 0, 2]], [[1], [5], [Fraction(1, 2)]]) == [[2]]
    assert mat_mul([[3], [0], [Fraction(-1, 3)]], [[0, 6]]) == [[0, 18], [0, 0], [0, -2]]
    with pytest.raises(ValueError):
        mat_mul([[1, 2]], [[1, 2]])
    with pytest.raises(ValueError):
        mat_mul([[1, 2], [3, 4]], [[1], [2], [3]])


def test_is_symmetric_matches_the_pairwise_definition():
    """Rows against columns, on square, ragged and tuple-row input alike."""
    rng = random.Random(14)

    def pairwise(m):
        n = len(m)
        return all(len(row) == n for row in m) and all(m[i][j] == m[j][i] for i in range(n) for j in range(i))

    seen = set()
    for _ in range(2000):
        n = rng.randint(0, 5)
        m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.5:
            for i in range(n):
                for j in range(i):
                    m[i][j] = m[j][i]
        if n and rng.random() < 0.2:
            row = rng.randrange(n)
            m[row] = m[row][:-1] if rng.random() < 0.5 else m[row] + [m[row][0]]
        if rng.random() < 0.3:
            m = [tuple(row) for row in m]
        expected = pairwise(m)
        seen.add(expected)
        assert is_symmetric(m) == expected, m
    assert seen == {True, False}
    assert not is_symmetric([[1, 2], [2]]) and not is_symmetric([[1], [2]])
    assert is_symmetric(((1, 2), (2, 3))) and is_symmetric([(1, 2), [2, 3]])


# ---------------------------------------------------------------------------
# Span-limited, reordered eliminations against the natural-order oracles


def _symmetric_case(rng, kind, n):
    """A seeded symmetric matrix of the given kind: sparse, banded,
    arrowhead (a few hub rows), dense, singular or zero-diagonal."""
    m = [[0] * n for _ in range(n)]
    hubs = rng.sample(range(n), min(n, 2))
    for i in range(n):
        for j in range(i, n):
            keep = {"sparse": rng.random() < 0.15, "banded": j - i <= 2, "dense": True,
                    "arrowhead": i == j or j == i + 1 or i in hubs or j in hubs}.get(kind, rng.random() < 0.3)
            if keep:
                m[i][j] = m[j][i] = rng.randint(-6, 6) or 1
    if kind == "zero-diagonal":
        for i in range(n):
            m[i][i] = 0
    if kind == "singular" and n > 1:
        # the last index repeats a combination of the first two
        c = rng.randint(-2, 2)
        for t in range(n - 1):
            m[n - 1][t] = m[t][n - 1] = m[0][t] + c * m[1][t] if n > 2 else m[0][t]
        m[n - 1][n - 1] = m[0][n - 1] + c * m[1][n - 1] if n > 2 else m[0][n - 1]
    return m


def _symmetric_cases(seed, count):
    rng = random.Random(seed)
    kinds = ("sparse", "banded", "arrowhead", "dense", "singular", "zero-diagonal")
    for trial in range(count):
        yield rng, _symmetric_case(rng, kinds[trial % len(kinds)], rng.randint(0, 24))


def test_eliminations_match_the_natural_order_oracles():
    """determinant and inertia equal the whole-row natural-order eliminations,
    also after a random symmetric permutation; congruence(m) itself keeps the
    natural order, so its frozen rows and stamps are the oracle's.  The E/F
    gluings and the complement are matrices the static order permutes."""
    from anyonlat.gluing import build_ef_positive, conjugate_realization
    from anyonlat.lattices import cartan_a

    glued = [build_ef_positive("F", 5), build_ef_positive("E", 3),
             conjugate_realization(cartan_a(22).gram)]
    cases = [(random.Random("glued"), m) for m in glued] + list(_symmetric_cases("span-oracles", 600))
    kinds_singular = kinds_hyperbolic = 0
    for rng, m in cases:
        n = len(m)
        inertia_want, det_want, rows_want, stamps_want = congruence_oracle(m)
        assert determinant(m) == bareiss_determinant(m) == det_want, m
        assert inertia(m) == inertia_want, m
        elim = congruence(m)
        assert (elim.inertia, elim.det, upper(elim.rows), elim.stamps) == (
            inertia_want, det_want, upper(rows_want), stamps_want), m
        perm = rng.sample(range(n), n)
        moved = [[m[i][j] for j in perm] for i in perm]
        assert determinant(moved) == det_want and inertia(moved) == inertia_want, (m, perm)
        kinds_singular += det_want == 0
        kinds_hyperbolic += inertia_want[0] > 0 and not any(m[i][i] for i in range(n))
    assert kinds_singular > 50 and kinds_hyperbolic > 50


def test_determinant_and_inertia_refuse_a_non_symmetric_matrix():
    # Non-square, ragged, and square but not symmetric, also where the
    # static order permutes the matrix first.  The wide 3 x 4 case has a
    # symmetric 3 x 3 part once reordered, which drops its last column.
    rng = random.Random("general-det")
    cases = [[[1, 2, 3], [4, 5, 6]], [[1, 0], [0, 1], [0, 0]], [[1, 0, 0], [0, 1], [0, 0, 1]],
             [[0, 1, 0, 5], [1, 0, 0, 0], [0, 0, 2, 0]],
             [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1]], [[1, 2], [3, 4]]]
    while len(cases) < 200:
        n = rng.randint(2, 16)
        share = rng.choice((0.1, 0.3, 0.7, 1.0))
        m = [[rng.randint(-9, 9) if rng.random() < share else 0 for _ in range(n)] for _ in range(n)]
        if not is_symmetric(m):
            cases.append(m)
    for m in cases:
        for read in (determinant, inertia, congruence, signature, is_positive_definite):
            with pytest.raises(ValueError):
                read(m)


def test_tuple_rows_read_as_lists_and_ragged_rows_are_refused():
    """Tuple rows give what list rows give, in every elimination; a ragged
    matrix is a ValueError in each, never an IndexError."""
    rng = random.Random("tuple-rows")
    symmetric = [((2, 1), (1, 2)), ((0, 3), (3, 0)), ((2, -1, 0), (-1, 2, -1), (0, -1, 2)), ()]
    symmetric += [tuple(map(tuple, m)) for _, m in _symmetric_cases("tuple-rows", 60)]
    for m in symmetric:
        lists = [list(row) for row in m]
        for read in (determinant, inertia, signature, is_positive_definite):
            assert read(m) == read(lists), m
        elim, want = congruence(m), congruence(lists)
        assert (elim.inertia, elim.det, elim.rows, elim.stamps) == (want.inertia, want.det, want.rows, want.stamps)
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = tuple(tuple(rng.randint(-9, 9) for _ in range(cols)) for _ in range(rows))
        lists = [list(row) for row in m]
        snf, want = smith_normal_form(m), smith_normal_form(lists)
        assert (snf.s, snf.col_ops) == (want.s, want.col_ops), m
        hnf, want = hermite_normal_form(m), hermite_normal_form(lists)
        assert (hnf.h, hnf.row_ops) == (want.h, want.row_ops), m
    for m in ([[2, 1], [1]], [[1], [1, 2]], [[1, 2, 3], [4, 5], [6, 7, 8]], [(2, 1), (1,)]):
        for read in (smith_normal_form, hermite_normal_form, determinant, inertia, congruence):
            with pytest.raises(ValueError):
                read(m)


def _ldl_case(rng, n, k, kind, density, bits=0, band=None, definite=False):
    """m = L B L^T, L unit lower triangular with entries nonzero at the given
    density, B = diag(D_0, ..., D_{k-1}) + T with every D_i != 0.  So the
    first k pivots of `congruence` are in order, and after them the live
    block is L' T L'^T, L' the tail of L, whose first diagonal is T_00 = 0.
    With `bits`, |D_i| <= 2^bits (positive if `definite`) and the entries
    of L and T grow with 2^(bits // 2); with `band`, L_ij = 0 for i - j >
    band, so m is banded.  The tail T is one of:

    * "vanishing": T random with T_00 = 0, under a random L',
    * "hyperbolic": T random with a zero diagonal, L' = 1, so every pivot
      left vanishes until an x_p +- x_k step (null rows if T is singular),
    * "singular": T = 0 but for at most one hyperbolic pair, L' = 1.

    A sparse L leaves rows that a pivot skips, whose stamps lag prev, and
    entries b_jc = D_0..D_j L_cj that cancel to 0 where m_jc does not."""
    r = n - k
    size = 2 ** (bits // 2) if bits else 2
    t = [[0] * r for _ in range(r)]
    if kind == "singular":
        if r >= 2 and rng.random() < 0.7:
            i, j = rng.sample(range(r), 2)
            t[i][j] = t[j][i] = rng.choice((-3, -1, 1, 2)) * (size if bits else 1)
    else:
        for i in range(r):
            for j in range(i, r):
                if (i, j) != (0, 0) and (kind == "vanishing" or i != j) and rng.random() < 0.6:
                    t[i][j] = t[j][i] = rng.randint(-2 * size, 2 * size)
    b = [[0] * n for _ in range(n)]
    for i in range(k):
        if bits:
            b[i][i] = rng.randint(1, 2**bits) * (1 if definite else rng.choice((-1, 1)))
        else:
            b[i][i] = rng.choice((-3, -2, -1, 1, 2, 3, 5))
    for i in range(r):
        b[k + i][k:] = t[i]
    low = [[int(i == j) if j >= i or (i >= k and j >= k and kind != "vanishing")
            else 0 if band is not None and i - j > band
            else rng.randint(-size, size) if rng.random() < density else 0 for j in range(n)] for i in range(n)]
    return mat_mul(mat_mul(low, b), transpose(low))


def _pair_rows(rows, k):
    """How the pairs of in-order pivots (2i, 2i + 1), both below k, update
    the rows past them, read off the oracle's frozen rows (rows[j][c] != 0
    exactly where pivot j updated row c): by both pivots, by the first or
    the second alone, and by both with a stamp, the pivot of the row's last
    update before the pair (or 1), other than prev."""
    counts = dict.fromkeys(("both", "first", "second", "lagging"), 0)
    for j in range(0, k - 1, 2):
        prev = rows[j - 1][j - 1] if j else 1
        for c in range(j + 2, len(rows)):
            f, g = rows[j][c], rows[j + 1][c]
            if f and g:
                counts["both"] += 1
                last = next((i for i in range(j - 1, -1, -1) if rows[i][c]), None)
                counts["lagging"] += (1 if last is None else rows[last][last]) != prev
            elif f or g:
                counts["first" if f else "second"] += 1
    return counts


def test_congruence_phase_change_matches_the_oracle():
    """After k in-order pivots, for every k, the first live diagonal vanishes
    and takes an x_p +- x_k step or is a null row: the rows, stamps, det
    and inertia must be the oracle's, through a vanishing diagonal, a
    zero-diagonal tail and a singular tail.  The cases
    include rows whose stamp lags prev when a pivot updates them, and input
    entries whose bordered minor cancels to 0 before their column is
    eliminated; both are counted off the oracle's frozen pivot rows."""
    rng = random.Random("phase-change")
    lags = cancels = late = singular = 0
    for n in range(1, 10):
        for k in range(n + 1):
            for kind in ("vanishing", "hyperbolic", "singular"):
                for density in (0.2, 0.5, 1.0):
                    m = _ldl_case(rng, n, k, kind, density)
                    # the leading minors: k nonzero ones, then a zero one
                    assert all(bareiss_determinant([row[:i] for row in m[:i]]) for i in range(1, k + 1)), m
                    assert k == n or bareiss_determinant([row[:k + 1] for row in m[:k + 1]]) == 0, m
                    inertia_want, det_want, rows_want, stamps_want = congruence_oracle(m)
                    elim = congruence(m)
                    assert (elim.inertia, elim.det, upper(elim.rows), elim.stamps) == (
                        inertia_want, det_want, upper(rows_want), stamps_want), m
                    assert (determinant(m), inertia(m)) == (det_want, inertia_want), m
                    late += 0 < k < n  # a vanishing pivot after k in order
                    singular += 0 < k < n and inertia_want[2] > 0
                    # pivot j < k froze row j: rows_want[j][c] = b_jc, nonzero
                    # exactly where pivot j updated row c
                    for c in range(1, n):
                        touched = [j for j in range(min(c, k)) if rows_want[j][c]]
                        # row c's stamp is the pivot D_i of its last update i
                        lags += any(rows_want[i][i] != rows_want[j - 1][j - 1] for i, j in zip(touched, touched[1:]))
                        cancels += any(m[j][c] and not rows_want[j][c] for j in range(min(c, k)))
    assert lags > 50 and cancels > 50 and late > 300 and singular > 50, (lags, cancels, late, singular)
    # Rank 10-40 with 9-20-bit entries, dense, sparse and banded, definite
    # and indefinite: the in-order pivots 2i and 2i + 1 go as a pair, which
    # updates rows by both pivots (some with a stamp that lags prev) and by
    # one of them alone.  An odd k leaves a pair whose second diagonal
    # vanishes after the first step, and an odd k = n a last pivot alone.
    rng = random.Random("pair-step")
    counts = dict.fromkeys(("both", "first", "second", "lagging"), 0)
    vanished = alone = tails = 0
    for n in (10, 15, 24, 33, 40):
        for k in sorted({1, 2, n // 2 | 1, n // 2 & ~1, n - 1, n}):
            for kind, definite in ([("vanishing", False), ("hyperbolic", False), ("singular", False)]
                                   if k < n else [(None, False), (None, True)]):
                for density, band in ((1.0, None), (0.3, None), (1.0, 2)):
                    m = _ldl_case(rng, n, k, kind, density, rng.choice((7, 8)), band, definite)
                    assert 9 <= max(abs(x) for row in m for x in row).bit_length() <= 20, m
                    assert bareiss_determinant([row[:k] for row in m[:k]]), m
                    assert k == n or bareiss_determinant([row[:k + 1] for row in m[:k + 1]]) == 0, m
                    inertia_want, det_want, rows_want, stamps_want = congruence_oracle(m)
                    elim = congruence(m)
                    assert (elim.inertia, elim.det, upper(elim.rows), elim.stamps) == (
                        inertia_want, det_want, upper(rows_want), stamps_want), m
                    assert (determinant(m), inertia(m)) == (det_want, inertia_want), m
                    assert not definite or inertia_want == (n, 0, 0), m
                    for shape, count in _pair_rows(rows_want, k).items():
                        counts[shape] += count
                    vanished += k < n and k % 2 and rows_want[k - 1][k] != 0
                    alone += k == n and n % 2
                    tails += kind == "hyperbolic" and sum(inertia_want[:2]) > k
    assert min(counts.values()) > 500 and vanished > 50 and alone >= 12 and tails > 30, (
        counts, vanished, alone, tails)
    # b_12 = 1 * 1 - 1 * 1 cancels after the first pivot, so pivot 1 does
    # not update row 2; row 2's input entry 1 in column 1, left of its
    # diagonal, is never read.
    m = [[1, 1, 1], [1, 3, 1], [1, 1, 3]]
    inertia_want, det_want, rows_want, stamps_want = congruence_oracle(m)
    elim = congruence(m)
    assert (elim.inertia, elim.det, upper(elim.rows), elim.stamps) == (
        inertia_want, det_want, upper(rows_want), stamps_want)
    assert upper(elim.rows) == [[1, 1, 1], [2, 0], [4]]


def test_hermite_transform_replays_the_oracle():
    """H and the replayed T equal the natural-order HNF that carries T along,
    and T m = H, on tall, wide, sparse, dense and rank-deficient matrices."""
    rng = random.Random("hnf-oracle")
    for trial in range(400):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        share = rng.choice((0.15, 0.4, 1.0))
        m = [[rng.randint(-20, 20) if rng.random() < share else 0 for _ in range(cols)] for _ in range(rows)]
        if trial % 4 == 0 and rows > 2:
            m[-1] = [x - 2 * y for x, y in zip(m[0], m[1])]
        hnf = hermite_normal_form(m)
        h_want, t_want, ops_want = hermite_oracle(m)
        assert hnf.h == h_want, m
        assert hnf.row_ops == ops_want, m
        assert hnf.t == t_want, m
        assert mat_mul(hnf.t, m) == hnf.h
    glue_like = [[6 if i == j else 0 for j in range(16)] for i in range(16)] + [[rng.randrange(6) for _ in range(16)]]
    assert hermite_normal_form(glue_like).t == hermite_oracle(glue_like)[1]


def _glue_stack(rng, den, size, glue, share):
    """den I_size over `glue` rows as `glue_selfdual_8` stacks them, each glue
    entry nonzero at the given share; so the pivot rows end at different
    columns and a pivot row's span is often shorter than the rows it clears."""
    rows = [[den if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(glue):
        rows.append([rng.randint(-3 * den, 3 * den) if rng.random() < share else 0 for _ in range(size)])
    return rows


def test_hermite_normal_form_on_glue_shaped_stacks():
    """H, the row operation log and the replayed T equal the whole-row
    oracle's on den I over dense or sparse glue rows (the HNF of
    `glue_selfdual_8`), on their transposes (tall and narrow, as the pairing
    matrix of `orthogonal_complement`), on rank-deficient variants with a
    column zero in every row, and on stacks whose last glue row is a
    combination of two others."""
    rng = random.Random("glue-stacks")
    deficient = 0
    for trial in range(160):
        den = rng.choice((2, 3, 4, 5, 6, 8, 12))
        size = 8 * rng.randint(1, 4)
        glue = rng.randint(1, 4)
        m = _glue_stack(rng, den, size, glue, rng.choice((0.1, 0.4, 1.0)))
        if trial % 3 == 1:
            dead = rng.randrange(size)
            for row in m:
                row[dead] = 0
        if trial % 3 == 2 and glue > 2:
            c = rng.randint(-2, 2)
            m[-1] = [x + c * y for x, y in zip(m[size], m[size + 1])]
        for case in (m, transpose(m)):
            hnf = hermite_normal_form(case)
            h_want, t_want, ops_want = hermite_oracle(case)
            assert (hnf.h, hnf.row_ops) == (h_want, ops_want), case
            assert hnf.t == t_want, case
            assert mat_mul(hnf.t, case) == hnf.h
            deficient += sum(not any(row) for row in hnf.h) > max(0, len(case) - len(case[0]))
    assert deficient > 50, deficient


def _pattern(m):
    """The columns of the nonzero entries of each row, in order."""
    return [[j for j, x in enumerate(row) if x] for row in m]


def test_fill_order_puts_rows_denser_than_the_median_last():
    """Rows with at most the upper median of nonzeros keep index order, ahead
    of the others, which follow by nondecreasing count, ties by index; None
    exactly when that is the identity, and always without a zero entry."""
    from anyonlat.linalg import _fill_order

    moved = 0
    for _, m in _symmetric_cases("fill-order", 400):
        n = len(m)
        counts = list(map(len, _pattern(m)))
        order = _fill_order(m)
        if all(map(all, m)):
            assert order is None, m
            continue
        middle = sorted(counts)[n // 2]
        low = [v for v in range(n) if counts[v] <= middle]
        want = low + sorted(set(range(n)) - set(low), key=lambda v: (counts[v], v))
        assert (order or list(range(n))) == want, m
        assert (order is None) == (want == list(range(n))), m
        moved += order is not None
    assert moved > 50


def test_fill_order_keeps_bands_and_full_patterns_and_defers_hubs():
    from anyonlat.gluing import build_ef_positive, conjugate_realization
    from anyonlat.lattices import cartan_a
    from anyonlat.linalg import _fill_order

    rng = random.Random("bands")
    # A_3's middle row has 3 nonzeros against a median of 2, so it goes
    # last; that makes no fill either.
    assert _fill_order(cartan_a(3).gram) == [0, 2, 1]
    for n in (9, 40, 359):
        assert _fill_order(cartan_a(n).gram) is None
    for width in (2, 3, 5):
        band = [[rng.randint(1, 9) if abs(i - j) <= width else 0 for j in range(30)] for i in range(30)]
        band = [[band[min(i, j)][max(i, j)] for j in range(30)] for i in range(30)]
        assert _fill_order(band) is None
    dense = [[rng.randint(1, 9) for _ in range(20)] for _ in range(20)]
    assert _fill_order([[dense[min(i, j)][max(i, j)] for j in range(20)] for i in range(20)]) is None
    # The E/F head and glue rows and the complement's dense rows go after
    # almost all their neighbours, which cuts the fill.
    for gram in (build_ef_positive("F", 5), build_ef_positive("E", 3),
                 conjugate_realization(cartan_a(22).gram)):
        n = len(gram)
        pattern = _pattern(gram)
        order = _fill_order(gram)
        position = {v: t for t, v in enumerate(order)}
        hubs = [v for v in range(n) if len(pattern[v]) >= max(map(len, pattern)) * 2 // 3]
        assert hubs
        for v in hubs:
            later = sum(position[u] > position[v] for u in pattern[v])
            assert later * 4 <= len(pattern[v]), (v, later)


# ---------------------------------------------------------------------------
# Smith form over Z/p^k


def _valuation(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _assert_local_smith(m, p, local):
    """U m V = D mod p^k: V is invertible mod p, column j of m V is divisible
    by p^(v_j) mod p^k, and those columns over p^(v_j) are invertible mod p;
    the v_j are the p-valuations of the SNF's diagonal."""
    modulus, n = local.modulus, len(m)
    vs = [local.v_column(j) for j in range(n)]
    assert all(0 <= x < modulus for v in vs for x in v)
    assert gauss_det(transpose(vs)) % p
    cols = []
    for v, e in zip(vs, local.exponents):
        mv = [sum(a * b for a, b in zip(row, v)) % modulus for row in m]
        assert all(x % p**e == 0 for x in mv)
        cols.append([x // p**e for x in mv])
    assert gauss_det(transpose(cols)) % p
    # units first, then nondecreasing: the SNF's p-valuations in order
    assert local.exponents == sorted(_valuation(s, p) for s in smith_normal_form(m).diagonal())


def _sparse_with_hub(rng, n):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = rng.choice((2, 3, -2, 4, 6))
        if i + 1 < n:
            m[i][i + 1] = rng.choice((-1, 1, 2))
            m[i + 1][i] = rng.choice((-1, 1, 3))
    hub = rng.randrange(n)
    for j in range(n):
        m[hub][j] = m[j][hub] = m[hub][j] or rng.randint(-3, 3)
    return m


def test_local_smith_form_is_a_smith_form_over_each_prime_power():
    rng = random.Random(4141)
    mats = [[[2, -1], [-1, 2]], [[0, 4], [4, 0]], [[6, -3], [-3, 2]], [[12]], [[4, 2], [2, 4]]]
    while len(mats) < 120:
        n = rng.randint(1, 6)
        mats.append([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
    mats += [_sparse_with_hub(rng, n) for n in (6, 9, 12, 15) for _ in range(3)]
    mats += [disguised(block_diagonal([[[2, 1], [1, 2]], [[0, 6], [6, 0]], [[4]]]), rng, 10) for _ in range(5)]
    checked = 0
    for m in mats:
        det = abs(gauss_det(m))
        if det in (0, 1):
            continue
        powers = {p: a + 1 for p, a in factorize(det).items()}
        forms = local_smith_form(m, powers)
        assert sorted(forms) == sorted(powers)
        for p in powers:
            local = forms[p]
            assert local.modulus == p ** powers[p] and len(local.exponents) == len(m)
            assert sum(local.exponents) == powers[p] - 1
            _assert_local_smith(m, p, local)
            # the shared unit pivots of several primes leave each prime's
            # exponents as its own elimination finds them
            assert local.exponents == local_smith_form(m, {p: powers[p]})[p].exponents
        checked += 1
    assert checked > 100


def _untouched_rows(rng, n, modulus):
    """n x n at p = 2: n - 2 rows take the unit pivots, in n - 2 of the
    columns; the other two rows, 0 mod the modulus there and even in the
    last two columns, have no unit and are never updated.  Rows and columns
    are shuffled, so most pivots swap columns, and a row with no unit ahead
    of the pivot rows is swapped past them.  The two rows reach the graded
    phase with entries past the modulus, so the tail over 2 of their pivot
    depends on which representative they hold."""
    m = [[rng.randrange(-99, 100) for _ in range(n)] for _ in range(n)]
    for i in range(n - 2):
        m[i][i] = 2 * rng.randrange(-50, 50) + 1
        m[i][i + 1:] = [2 * rng.randrange(-50, 50) for _ in range(i + 1, n)]
    for i in (n - 2, n - 1):
        m[i][:n - 2] = [modulus * rng.randrange(-9, 10) or modulus for _ in range(n - 2)]
        m[i][n - 2:] = [modulus * rng.randrange(1, 9) + 2 * rng.choice((1, 2)) for _ in range(2)]
    order = rng.sample(range(n), n)
    return [[row[j] for j in order] for row in rng.sample(m, n)]


def test_local_smith_form_matches_the_whole_row_reference():
    """Exponents and every V column against `local_smith_oracle`, on dense
    input: pivots off the diagonal, the shared pass of three primes, each
    prime's own pass over the whole matrix, rectangular blocks, rows no
    pivot updates, moduli on both sides of the packed rows' slot bound
    M^2 (cols + 1) < 2^64, a 1 x 1 and an empty matrix."""
    rng = random.Random(3434)

    def dense(r, c, bound=99):
        return [[rng.randint(-bound, bound) or 1 for _ in range(c)] for _ in range(r)]

    def even_symmetric(n):
        m = dense(n, n)
        for i in range(n):
            m[i][i] = 2 * rng.randint(-20, 20) or 2
            for j in range(i):
                m[i][j] = m[j][i]
        return m

    # the largest power of 2 whose square times 11 stays below 2^64
    k_in = max(k for k in range(64) if 2 ** (2 * k) * 11 < 2**64)
    cases = [
        *((even_symmetric(n), {2: 4}) for n in (9, 12, 16)),
        (disguised(block_diagonal([[[2, -1], [-1, 2]]] * 6), rng, 40), {2: 3, 3: 2}),
        *((dense(12, 12), powers) for powers in ({2: 3, 3: 2, 7: 2}, {2: 2, 5: 1, 11: 3}, {3: 2, 5: 2, 13: 1})),
        # no entry is prime to 3, so no pivot is shared and each prime eliminates all of m
        ([[3 * x for x in row] for row in dense(12, 12)], {2: 3, 3: 4}),
        (dense(14, 9), {2: 3}), (dense(14, 9), {3: 2, 5: 1}),
        (dense(9, 14), {2: 3}), (dense(9, 14), {3: 2, 5: 1}),
        (dense(10, 10, 10**12), {2: k_in}), (dense(10, 10, 10**12), {2: k_in + 1}),
        (dense(10, 10, 10**12), {2: k_in // 2, 3: 9}), (dense(10, 10, 10**12), {65521: 2}),
        ([[12]], {2: 3, 3: 2}), ([[7]], {7: 1}), ([], {2: 1}), ([[], []], {3: 2}),
    ]
    cases += [(_untouched_rows(rng, n, 2**k), {2: k}) for n in (10, 12) for k in (3, 5)]
    for m, powers in cases:
        cols = len(m[0]) if m else 0
        got, want = local_smith_form(m, powers), local_smith_oracle(m, powers)
        for p in powers:
            assert got[p].exponents == want[p].exponents, (m, powers)
            assert [got[p].v_column(j) for j in range(cols)] == [want[p].v_column(j) for j in range(cols)], (m, p)


def test_local_smith_form_stops_at_a_block_that_is_zero_mod_the_modulus():
    # [[4, 0], [0, 8]] mod 8: one pivot of valuation 2, then a zero block
    assert local_smith_form([[4, 0], [0, 8]], {2: 3})[2].exponents == [2]
    assert local_smith_form([[2, 4], [1, 2]], {3: 1})[3].exponents == [0]
    assert local_smith_form([[0, 0], [0, 0]], {5: 2})[5].exponents == []
    with pytest.raises(ValueError):
        local_smith_form([[1, 2], [3]], {2: 1})
