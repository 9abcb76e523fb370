"""Exact linear algebra over the integers and rationals.

Matrices are plain lists of lists; integer routines stay in int, rational ones
use fractions.Fraction.  Nothing here touches floating point:

* fraction-free (Bareiss) determinants,
* rational solves and inverses over Q,
* Smith normal form U m V = S keeping U^-1 (generators) and V (with S, the
  inverse on the image: m^-1 U^-1 e_j = V e_j / s_j); U itself is not kept,
* row-style Hermite normal form with its unimodular transform,
* `congruence`, the one symmetric elimination: diagonal pivots, and
  hyperbolic 2x2 pivots when the remaining diagonal vanishes (Sylvester's
  law without any epsilon perturbation).  One pass yields the exact inertia,
  the determinant and, for positive-definite input, the factors of
  m = L D L^T.

Pivot selection in SNF/HNF is smallest absolute value, ties by lowest index,
so outputs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "identity_matrix",
    "copy_matrix",
    "transpose",
    "mat_mul",
    "mat_vec",
    "is_square",
    "is_symmetric",
    "has_even_diagonal",
    "determinant",
    "rational_inverse",
    "solve_columns",
    "SnfResult",
    "smith_normal_form",
    "hermite_normal_form",
    "left_kernel",
    "Congruence",
    "congruence",
    "inertia",
    "signature",
    "is_positive_definite",
]


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def copy_matrix(m):
    return [row[:] for row in m]


def transpose(m):
    return [list(col) for col in zip(*m)] if m else []


def mat_mul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch in mat_mul")
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col) if x) for col in bt] for row in a]


def mat_vec(m, v):
    return [sum(x * y for x, y in zip(row, v) if x) for row in m]


def is_square(m) -> bool:
    return all(len(row) == len(m) for row in m)


def is_symmetric(m) -> bool:
    n = len(m)
    return is_square(m) and all(m[i][j] == m[j][i] for i in range(n) for j in range(i))


def has_even_diagonal(m) -> bool:
    return all(m[i][i] % 2 == 0 for i in range(len(m)))


def determinant(m: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by Bareiss elimination."""
    if not is_square(m):
        raise ValueError("determinant requires a square matrix")
    n = len(m)
    if n == 0:
        return 1
    a = copy_matrix(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def rational_inverse(m) -> list[list[Fraction]]:
    """Exact inverse of a nonsingular matrix with int or Fraction entries."""
    if not is_square(m):
        raise ValueError("rational_inverse requires a square matrix")
    return transpose(solve_columns(m, identity_matrix(len(m))))


def solve_columns(m, rhs_cols) -> list[list[Fraction]]:
    """Solve m * X = rhs for each column of rhs (given as a list of columns).

    Returns the solution columns.  Skips zero multipliers, so banded systems
    stay cheap.
    """
    if not is_square(m):
        raise ValueError("solve_columns requires a square matrix")
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    cols = [[Fraction(x) for x in col] for col in rhs_cols]
    order = []
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot_row is None:
            raise ValueError("matrix is singular")
        a[col], a[pivot_row] = a[pivot_row], a[col]
        for c in cols:
            c[col], c[pivot_row] = c[pivot_row], c[col]
        p = a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] / p
                arow, prow = a[r], a[col]
                for j in range(col, n):
                    if prow[j]:
                        arow[j] -= f * prow[j]
                for c in cols:
                    if c[col]:
                        c[r] -= f * c[col]
    out = []
    for c in cols:
        x = [Fraction(0)] * n
        for i in range(n - 1, -1, -1):
            s = c[i] - sum(a[i][j] * x[j] for j in range(i + 1, n) if a[i][j])
            x[i] = s / a[i][i]
        out.append(x)
    return out


@dataclass(frozen=True)
class SnfResult:
    """U * m * V = S with U, V unimodular and S diagonal with a divisibility
    chain; U is carried as its inverse only."""

    s: list[list[int]]
    v: list[list[int]]
    u_inv: list[list[int]]

    def diagonal(self) -> list[int]:
        return [self.s[i][i] for i in range(min(len(self.s), len(self.s[0]) if self.s else 0))]

    def invariant_factors(self) -> list[int]:
        return [d for d in self.diagonal() if d not in (0, 1)]


def _find_pivot(a, t, rows, cols):
    best = None
    for i in range(t, rows):
        row = a[i]
        for j in range(t, cols):
            x = row[j]
            if x:
                if best is None or abs(x) < best[0]:
                    best = (abs(x), i, j)
                    if best[0] == 1:
                        return best[1], best[2]
    return (best[1], best[2]) if best else None


def smith_normal_form(m: list[list[int]]) -> SnfResult:
    """Smith normal form with V and U^-1; deterministic for a given input."""
    rows = len(m)
    cols = len(m[0]) if m else 0
    a = copy_matrix(m)
    u_inv = identity_matrix(rows)
    v = identity_matrix(cols)

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            for row in u_inv:
                row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row_dst += q * row_src
        if q:
            arow_s, arow_d = a[src], a[dst]
            for j in range(cols):
                if arow_s[j]:
                    arow_d[j] += q * arow_s[j]
            for row in u_inv:
                if row[dst]:
                    row[src] -= q * row[dst]

    def add_col(src, dst, q):
        if q:
            for row in a:
                if row[src]:
                    row[dst] += q * row[src]
            for row in v:
                if row[src]:
                    row[dst] += q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        for row in u_inv:
            row[i] = -row[i]

    t = 0
    while t < min(rows, cols):
        pos = _find_pivot(a, t, rows, cols)
        if pos is None:
            break
        while True:
            i, j = pos
            swap_rows(t, i)
            swap_cols(t, j)
            if a[t][t] < 0:
                negate_row(t)
            dirty = False
            for r in range(t + 1, rows):
                if a[r][t]:
                    q = a[r][t] // a[t][t]
                    add_row(t, r, -q)
                    if a[r][t]:
                        dirty = True
            for c in range(t + 1, cols):
                if a[t][c]:
                    q = a[t][c] // a[t][t]
                    add_col(t, c, -q)
                    if a[t][c]:
                        dirty = True
            if dirty:
                pos = _find_pivot(a, t, rows, cols)
                continue
            # Row and column at t are clear; force the pivot to divide the rest.
            offender = None
            p = a[t][t]
            for r in range(t + 1, rows):
                row = a[r]
                for c in range(t + 1, cols):
                    if row[c] % p:
                        offender = r
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
            pos = _find_pivot(a, t, rows, cols)
        t += 1
    return SnfResult(s=a, v=v, u_inv=u_inv)


def hermite_normal_form(m: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row-style HNF.  Returns (H, T) with T unimodular and T * m = H.

    Pivots are positive, entries above each pivot are reduced into [0, pivot),
    and zero rows sink to the bottom.
    """
    rows = len(m)
    cols = len(m[0]) if m else 0
    a = copy_matrix(m)
    t = identity_matrix(rows)
    pivot_row = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        # Clear the column below pivot_row by gcd steps on rows.
        while True:
            candidates = [i for i in range(pivot_row, rows) if a[i][col]]
            if not candidates:
                break
            best = min(candidates, key=lambda i: (abs(a[i][col]), i))
            if best != pivot_row:
                a[pivot_row], a[best] = a[best], a[pivot_row]
                t[pivot_row], t[best] = t[best], t[pivot_row]
            if a[pivot_row][col] < 0:
                a[pivot_row] = [-x for x in a[pivot_row]]
                t[pivot_row] = [-x for x in t[pivot_row]]
            p = a[pivot_row][col]
            done = True
            for i in range(pivot_row + 1, rows):
                if a[i][col]:
                    q = a[i][col] // p
                    a[i] = [x - q * y for x, y in zip(a[i], a[pivot_row])]
                    t[i] = [x - q * y for x, y in zip(t[i], t[pivot_row])]
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
            pivot_row += 1
    return a, t


def left_kernel(m: list[list[int]]) -> list[list[int]]:
    """Basis of {y integer row : y * m = 0}; saturated by construction."""
    h, t = hermite_normal_form(m)
    return [t[i] for i in range(len(m)) if not any(h[i])]


@dataclass(frozen=True)
class Congruence:
    """One congruence elimination of a symmetric matrix m.

    `inertia` is (n_plus, n_minus, n_zero) and `det` the exact determinant:
    the product of the 1x1 pivots d and of -b^2 for each hyperbolic pivot
    [[0, b], [b, 0]], or 0 once only a zero block is left.  `rows` is the
    working matrix; the row of each eliminated pivot is frozen as it stood
    when eliminated, which `ldl` decodes.
    """

    inertia: tuple[int, int, int]
    det: Fraction
    rows: list[list[Fraction]]

    def ldl(self):
        """m = L D L^T for positive-definite m, whose pivots are taken in
        order, so d_i = rows[i][i] and L[j][i] = rows[i][j] / d_i: the pivots
        d and, for each column i of the unit lower-triangular L, its nonzero
        entries below the diagonal as pairs (j, L[j][i])."""
        rows = self.rows
        d = [row[i] for i, row in enumerate(rows)]
        lower = [[(j, x / d[i]) for j, x in enumerate(row[i + 1:], i + 1) if x] for i, row in enumerate(rows)]
        return d, lower


def congruence(m) -> Congruence:
    """Exact congruence elimination with diagonal and hyperbolic 2x2 pivots."""
    if not is_symmetric(m):
        raise ValueError("inertia requires a symmetric matrix")
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    alive = list(range(n))
    n_plus = n_minus = n_zero = 0
    det = Fraction(1)
    while alive:
        piv = next((i for i in alive if a[i][i] != 0), None)
        if piv is not None:
            d = a[piv][piv]
            if d > 0:
                n_plus += 1
            else:
                n_minus += 1
            det *= d
            alive.remove(piv)
            touched = [j for j in alive if a[j][piv] != 0]
            for j in touched:
                f = a[j][piv] / d
                row_j, row_p = a[j], a[piv]
                for k in alive:
                    if row_p[k]:
                        row_j[k] -= f * row_p[k]
            continue
        # All remaining diagonal entries vanish; look for an off-diagonal entry.
        pair = None
        for idx, i in enumerate(alive):
            for j in alive[idx + 1:]:
                if a[i][j] != 0:
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            n_zero += len(alive)
            det = Fraction(0)
            break
        i, j = pair
        b = a[i][j]
        n_plus += 1
        n_minus += 1
        det *= -b * b
        alive.remove(i)
        alive.remove(j)
        # Schur complement of the hyperbolic block [[0, b], [b, 0]].
        for k in alive:
            ci, cj = a[k][i], a[k][j]
            if ci or cj:
                row_k = a[k]
                for l in alive:
                    delta = (ci * a[j][l] + cj * a[i][l]) / b
                    if delta:
                        row_k[l] -= delta
    return Congruence((n_plus, n_minus, n_zero), det, a)


def inertia(m) -> tuple[int, int, int]:
    """(n_plus, n_minus, n_zero) of a symmetric matrix: `congruence`'s view."""
    return congruence(m).inertia


def signature(m) -> int:
    n_plus, n_minus, _ = inertia(m)
    return n_plus - n_minus


def is_positive_definite(m) -> bool:
    n_plus, n_minus, n_zero = inertia(m)
    return n_minus == 0 and n_zero == 0
