import random
from fractions import Fraction

import pytest

from anyonlat.linalg import (
    congruence,
    determinant,
    hermite_normal_form,
    identity_matrix,
    inertia,
    is_positive_definite,
    left_kernel,
    mat_mul,
    rational_inverse,
    signature,
    smith_normal_form,
    solve_columns,
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
    m = [[6, 4, 2], [4, 8, 0], [2, 0, 10]]
    snf = smith_normal_form(m)
    assert mat_mul(m, snf.v) == mat_mul(snf.u_inv, snf.s)
    assert abs(determinant(snf.u_inv)) == 1
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
    d, columns = congruence(m).ldl()
    lower = identity_matrix(4)
    for i, column in enumerate(columns):
        for j, x in column:
            lower[j][i] = x
    ldl = [[sum(lower[i][k] * d[k] * lower[j][k] for k in range(4)) for j in range(4)] for i in range(4)]
    assert ldl == m
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
        assert mat_mul(m, snf.v) == mat_mul(snf.u_inv, snf.s)
        assert abs(determinant(snf.u_inv)) == 1
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
