"""Exact linear algebra over the integers and rationals.

Matrices are plain lists of lists; integer routines stay in int, rational ones
use fractions.Fraction.  Nothing here touches floating point:

* fraction-free (Bareiss) determinants,
* rational solves and inverses over Q (no package module calls them; the
  tests use them as an oracle, and the benchmark's tracer wraps them),
* Smith normal form U m V = S, with V replayed per column from a log of the
  elimination's column operations; U is not kept, since m V e_j = s_j U^-1 e_j
  gives each column of U^-1 with s_j != 0 as m V e_j / s_j exactly,
* row-style Hermite normal form with its unimodular transform,
* `congruence`, the one symmetric elimination: diagonal pivots, and
  hyperbolic 2x2 pivots when the remaining diagonal vanishes (Sylvester's
  law without any epsilon perturbation).  One pass yields the exact inertia,
  the determinant and, for positive-definite input, the leading principal
  minors and bordered minors that split y^T m y into integer squares (the
  factors of m = L D L^T, undivided).

The two Bareiss-style eliminations (`determinant`, `congruence`) work in
int throughout.  Once the pivots S are eliminated, with prev = det m[S, S],
the entry (k, l) of the working matrix is the bordered minor
b_kl = det m[S + k, S + l], so every division in Sylvester's identity is
exact.  A row that a pivot does not touch (b_kp = 0) only scales by the
ratio of the new prev to the old one, so it is not rewritten: each row
carries a stamp, the prev at which it was last written, and stored * prev /
stamp is its current value, computed only when the row is read.

Pivot selection in SNF/HNF is smallest absolute value, ties by lowest index,
so outputs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import eq

__all__ = [
    "identity_matrix",
    "copy_matrix",
    "transpose",
    "mat_mul",
    "block_diagonal",
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
    """Exact product a * b of int or Fraction matrices, row-sparse on both
    sides: b's nonzero (j, y) pairs are listed once per row, and each nonzero
    a_ik adds a_ik * y into row i of the product.  The cost is the sum, over
    nonzero a_ik, of nnz(b_k); a sum with no nonzero term is the int 0."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch in mat_mul")
    width = len(b[0]) if b else 0
    b_rows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [0] * width
        for x, b_row in zip(row, b_rows):
            if x:
                for j, y in b_row:
                    acc[j] += x * y
        out.append(acc)
    return out


def block_diagonal(blocks) -> list[list[int]]:
    """The square matrix with the given square blocks down its diagonal."""
    size = sum(len(b) for b in blocks)
    out = []
    offset = 0
    for b in blocks:
        for row in b:
            out.append([0] * offset + list(row) + [0] * (size - offset - len(b)))
        offset += len(b)
    return out


def is_square(m) -> bool:
    return all(len(row) == len(m) for row in m)


def is_symmetric(m) -> bool:
    """Square with each row equal to the column of the same index; rows may
    be lists or tuples, and ragged input is not symmetric."""
    return is_square(m) and all(map(eq, map(tuple, m), zip(*m)))


def has_even_diagonal(m) -> bool:
    return all(m[i][i] % 2 == 0 for i in range(len(m)))


def _current(a, stamp, k, prev):
    """Row k of a stamped elimination, brought up to the scale `prev`."""
    s = stamp[k]
    if s != prev:
        a[k] = [x * prev // s for x in a[k]]
        stamp[k] = prev
    return a[k]


def determinant(m: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by Bareiss elimination, whose
    final prev is the determinant; rows without a multiplier keep their
    stamp instead of being rescaled."""
    if not is_square(m):
        raise ValueError("determinant requires a square matrix")
    n = len(m)
    a = copy_matrix(m)
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
        row_k = _current(a, stamp, k, prev)
        pivot, tail = row_k[k], row_k[k:]
        for i in range(k + 1, n):
            if a[i][k]:
                # columns before k are zero in both rows
                row_i = _current(a, stamp, i, prev)
                f = row_i[k]
                row_i[k:] = [(pivot * x - f * y) // prev for x, y in zip(row_i[k:], tail)]
                stamp[i] = pivot
        prev = pivot
    return sign * prev


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
    chain.  V is not stored: `col_ops` logs the elementary column operations
    in order, an entry (i, j, q) being a swap of columns i and j when q == 0
    and otherwise column j += q * column i.  A column of V is replayed from
    the log in O(#ops); `v` replays every column.  U is not logged at all:
    m V = U^-1 S, so U^-1 e_j = m V e_j / s_j for each s_j != 0."""

    s: list[list[int]]
    col_ops: list[tuple[int, int, int]]

    def diagonal(self) -> list[int]:
        return [self.s[i][i] for i in range(min(len(self.s), len(self.s[0]) if self.s else 0))]

    def invariant_factors(self) -> list[int]:
        return [d for d in self.diagonal() if d not in (0, 1)]

    def v_column(self, j: int) -> list[int]:
        """V e_j = F_1 ... F_t e_j for the column operations F_i."""
        x = [0] * (len(self.s[0]) if self.s else 0)
        x[j] = 1
        for i, k, q in reversed(self.col_ops):
            if not q:
                x[i], x[k] = x[k], x[i]
            elif x[k]:
                x[i] += q * x[k]
        return x

    @property
    def v(self) -> list[list[int]]:
        return transpose([self.v_column(j) for j in range(len(self.s[0]) if self.s else 0)])


def _find_pivot(a, t, rows):
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


def smith_normal_form(m: list[list[int]]) -> SnfResult:
    """Smith normal form with the log of V; deterministic for a given input.
    The row operations are applied but not recorded (U^-1 is read off m V,
    see `SnfResult`).  Once pivot t is being worked, the rows and columns
    before t hold only their diagonal entry, so every operation starts at
    column or row t."""
    rows = len(m)
    cols = len(m[0]) if m else 0
    a = copy_matrix(m)
    col_ops: list[tuple[int, int, int]] = []
    t = 0
    while t < min(rows, cols):
        pos = _find_pivot(a, t, rows)
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
                pos = _find_pivot(a, t, rows)
                continue
            # Row and column at t are clear; force the pivot to divide the
            # rest, which a unit pivot always does.
            offender = None if p == 1 else next(
                (r for r in range(t + 1, rows) if any(x % p for x in a[r][t + 1:])), None)
            if offender is None:
                break
            pivot_row[t:] = [x + y for x, y in zip(pivot_row[t:], a[offender][t:])]
            pos = _find_pivot(a, t, rows)
        t += 1
    return SnfResult(a, col_ops)


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
    """Basis of {y integer row : y * m = 0}, saturated by construction; no
    package module calls it, and the benchmark's tracer wraps it by name."""
    h, t = hermite_normal_form(m)
    return [t[i] for i in range(len(m)) if not any(h[i])]


@dataclass(frozen=True)
class Congruence:
    """One congruence elimination of an integer symmetric matrix m.

    `inertia` is (n_plus, n_minus, n_zero) and `det` the exact determinant,
    the last prev, or 0 once only a zero block is left.  `rows` is the
    working matrix of bordered minors b (see the module docstring); the row
    of each eliminated pivot is frozen as it stood when eliminated, with
    `stamps` holding the prev it was frozen at.

    For positive-definite m the pivots are taken in order, so frozen row i
    holds b_ij = det m[0..i-1 + i, 0..i-1 + j], its diagonal b_ii = D_i is
    the i-th leading principal minor, and its stamp is D_{i-1} (D_{-1} = 1).
    Then y^T m y = sum_i M_i^2 / (D_i D_{i-1}) with M_i = sum_{j>=i} b_ij y_j:
    `minors` hands out this integer view.
    """

    inertia: tuple[int, int, int]
    det: int
    rows: list[list[int]]
    stamps: list[int]

    def minors(self) -> list[tuple[int, int, list[tuple[int, int]]]]:
        """Per frozen row i of a positive-definite m: (D_i, D_{i-1}, the
        nonzero bordered minors (j, b_ij) with j > i), all ints."""
        return [(row[i], stamp, [(j, x) for j, x in enumerate(row[i + 1:], i + 1) if x])
                for i, (row, stamp) in enumerate(zip(self.rows, self.stamps))]


def congruence(m) -> Congruence:
    """Exact congruence elimination of an integer symmetric matrix with
    diagonal and hyperbolic 2x2 pivots, fraction-free.

    A diagonal pivot d = b_pp updates b_kl to (d b_kl - b_kp b_pl) / prev; a
    hyperbolic pivot, taken once the remaining diagonal vanishes, with
    beta = b_ij updates it to (-beta^2 b_kl + beta (b_ki b_jl + b_kj b_il))
    / prev^2 and prev to -beta^2 / prev (Sylvester's identity).  The sign of
    d / prev, the pivot of the rational elimination, counts towards the
    inertia; a hyperbolic pivot counts once each way.
    """
    if not is_symmetric(m):
        raise ValueError("inertia requires a symmetric matrix")
    n = len(m)
    b = copy_matrix(m)
    stamp = [1] * n
    prev = 1
    alive = list(range(n))
    n_plus = n_minus = n_zero = 0
    while alive:
        p = next((i for i in alive if b[i][i]), None)
        if p is not None:
            row_p = _current(b, stamp, p, prev)
            d = row_p[p]
            if (d > 0) == (prev > 0):
                n_plus += 1
            else:
                n_minus += 1
            lo = alive[0]  # columns before lo are eliminated: zero in every live row
            alive.remove(p)
            for k in alive:
                if b[k][p]:
                    row_k = _current(b, stamp, k, prev)
                    f = row_k[p]
                    row_k[lo:] = [(d * x - f * y) // prev for x, y in zip(row_k[lo:], row_p[lo:])]
                    stamp[k] = d
            prev = d
            continue
        # All remaining diagonal entries vanish; look for an off-diagonal entry.
        pair = next(((i, j) for t, i in enumerate(alive) for j in alive[t + 1:] if b[i][j]), None)
        if pair is None:
            n_zero = len(alive)
            break
        i, j = pair
        row_i, row_j = _current(b, stamp, i, prev), _current(b, stamp, j, prev)
        beta = row_i[j]
        n_plus += 1
        n_minus += 1
        lo = alive[0]
        alive.remove(i)
        alive.remove(j)
        b2, div = beta * beta, prev * prev
        for k in alive:
            if b[k][i] or b[k][j]:
                row_k = _current(b, stamp, k, prev)
                fi, fj = row_k[i], row_k[j]
                row_k[lo:] = [(beta * (fi * yj + fj * yi) - b2 * x) // div
                              for x, yi, yj in zip(row_k[lo:], row_i[lo:], row_j[lo:])]
                stamp[k] = -b2 // prev
        prev = -b2 // prev
    return Congruence((n_plus, n_minus, n_zero), 0 if n_zero else prev, b, stamp)


def inertia(m) -> tuple[int, int, int]:
    """(n_plus, n_minus, n_zero) of a symmetric matrix: `congruence`'s view."""
    return congruence(m).inertia


def signature(m) -> int:
    n_plus, n_minus, _ = inertia(m)
    return n_plus - n_minus


def is_positive_definite(m) -> bool:
    n_plus, n_minus, n_zero = inertia(m)
    return n_minus == 0 and n_zero == 0
