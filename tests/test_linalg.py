import random
from fractions import Fraction

import pytest
from reference_matrices import smith_u_inv_columns

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
    mat_mul,
    rational_inverse,
    signature,
    smith_normal_form,
    solve_columns,
    transpose,
)


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
    assert abs(determinant(u_inv)) == 1
    assert abs(determinant(snf.v)) == 1


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
    assert hermite_normal_form(identity_matrix(2))[0] == identity_matrix(2)
    h, t = hermite_normal_form([[2, 0], [1, 1]])
    assert h == [[1, 1], [0, 2]]
    assert mat_mul(t, [[2, 0], [1, 1]]) == h
    zero = [[0, 0], [0, 0]]
    assert hermite_normal_form(zero)[0] == zero


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
            det = determinant(m)
            assert det == gauss_det(m)
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
            # The congruence determinant against Bareiss, also on a zero
            # diagonal (hyperbolic pivots) and on a singular matrix (the
            # last index repeats the first).
            hyperbolic = [[0 if i == j else x for j, x in enumerate(row)] for i, row in enumerate(sym)]
            singular = [[row[j] if j < n - 1 else row[0] for j in range(n)] for row in sym]
            singular[-1] = singular[0][:]
            for case in (sym, hyperbolic, singular):
                assert congruence(case).det == determinant(case)
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
    # Sparse entries, zero leading pivots and singular matrices: the cases
    # where the stamped Bareiss elimination skips rows or swaps.
    rng = random.Random(6161)
    singular = 0
    for trial in range(600):
        n = rng.randint(1, 6)
        zero_share = rng.choice((0.0, 0.3, 0.6, 0.8))
        m = [[0 if rng.random() < zero_share else rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if trial % 3 == 0:
            m[0][0] = 0
        if trial % 5 == 0 and n > 2:
            # one row a combination of two others
            i, j, k = rng.sample(range(n), 3)
            c = rng.randint(-3, 3)
            m[i] = [x + c * y for x, y in zip(m[j], m[k])]
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
            # zero diagonal: the first pivots are hyperbolic
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
    rng = random.Random(6565)
    for _ in range(100):
        n = rng.randint(1, 6)
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
        assert mat_mul(a, b) == dense_mat_mul(a, b), (a, b)
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
