"""Exact linear algebra over the integers and rationals.

Matrices are plain lists of lists; integer routines stay in int, rational ones
use fractions.Fraction.  Nothing here touches floating point:

* rational solves and inverses over Q (no package module calls them; the
  tests use them as an oracle, and the benchmark's tracer wraps them),
* Smith normal form U m V = S, with V replayed per column from a log of the
  elimination's column operations; U is not kept, since m V e_j = s_j U^-1 e_j
  gives each column of U^-1 with s_j != 0 as m V e_j / s_j exactly,
* the Smith form of m over Z/p^k for each prime power of a modulus
  (`local_smith_form`), U m V = D mod p^k with D = diag(unit * p^(v_t)),
  V logged and replayed mod p^k as for the SNF; its entries stay below the
  modulus, which the integer SNF's do not on dense input,
* row-style Hermite normal form T m = H, with T replayed from a log of the
  row operations only when it is read,
* `congruence`, the one fraction-free elimination, for symmetric matrices:
  diagonal pivots in index order, a vanishing pivot p made nonzero by
  x_p += s x_k (s = +-1) and a zero live row counted as a null direction
  (Sylvester's law without any epsilon perturbation).  One pass yields the
  exact inertia, the determinant and, for positive-definite input, the
  leading principal minors and bordered minors that split y^T m y into
  integer squares (the factors of m = L D L^T, undivided).
  `determinant` and `inertia` each read it.

`congruence` works in int throughout.  Once the pivots S are eliminated,
with prev = det m[S, S], the entry (k, l) of the working matrix is the
bordered minor b_kl = det m[S + k, S + l], so every division in Sylvester's
identity is exact.  A row that a pivot does not touch (b_kp = 0) only scales
by the ratio of the new prev to the old one, so it is not rewritten: each
row carries a stamp, the prev at which it was last written, and stored *
prev / stamp is its current value.  A pivot row is brought to scale when
read; a row a pivot updates is divided by its own stamp instead of prev,
which gives the same ints without rescaling it first.  The bordered minors
are symmetric too, so only the upper triangle is read and written, at
about half the cost of whole rows; the input's entries left of the
diagonal are never touched (LAPACK's `?sytrf` with UPLO = 'U' leaves the
strictly lower part of A unreferenced in the same way).  They are also
bilinear in row and column, so a unimodular E acting on the live indices
alone maps them to E b E^T at the same prev: the step x_p += s x_k for a
vanishing pivot keeps every division exact, keeps det and inertia, and
rewrites only row p of the triangle (the textbook diagonalization of a
symmetric form, as in Cassels, Rational Quadratic Forms, 1978, ch. 2).
The pivots go two at a time, as in Bareiss's two-step elimination
(Bareiss, Sylvester's identity and multistep integer-preserving Gaussian
elimination, Math. Comp. 22, 1968): a row both pivots update is written
once, with one division, to the same ints as two steps.

Sparse input costs in proportion to the nonzeros the eliminations touch.
In `congruence` and `hermite_normal_form` each row keeps an upper bound on
its last nonzero column, and every row operation, rescale and negation
runs from the pivot column (in `congruence` the updated row's diagonal)
to the larger of its rows' bounds: past both, both rows are zero and stay
so.  The HNF runs each operation only to the pivot row's bound, past
which it adds zero, and raises the target row's bound to it where that
bound is read again; its transform replays each operation over the span
of the source row alone.  `local_smith_form` keeps the HNF's row bounds
and, per column, a bound on its last nonzero row, so its column swaps and
its scan for rows to clear stop there; it keeps both only for a matrix
whose entries are mostly zero, since elsewhere the bounds skip little, and
on such a square matrix eliminates P m P^T in `_fill_order`'s order,
replaying V back to m's order.  `smith_normal_form` works on whole rows and columns: its
callers (the canonical form of a metric group, the glue path, `weights`)
mostly pass small or diagonal matrices, on which bounds cost more than
they skip.  `congruence` reads the rows a pivot updates off the pivot row,
since the bordered minors are symmetric, and its working copy is the
transpose of m, which is m itself exactly when m is symmetric, so one pass
copies and checks.  `mat_mul` walks only the nonzeros of both factors'
rows.
`determinant` and `inertia` give the same value for P m P^T, so they
eliminate in a static order (`_fill_order`): rows with more nonzeros than
the median go last, by count, and the rest keep index order.
That keeps a band or a full pattern in index order and puts hub rows after
their neighbours.  `congruence(m)` itself keeps index order: its frozen rows
are the leading principal minors that `weights` reads in order.

Pivot selection in SNF/HNF is smallest absolute value, ties by lowest index,
and in `local_smith_form` the first unit in row-major order, else the first
entry of least p-valuation, so outputs are deterministic.

On a dense block, `local_smith_form` takes its unit pivots on packed rows
(`_packed_units`): each row is one int of 64-bit slots, one per column, and
a row update is row += (M - f) * pivot, one multiply-add on ints, then a
64-bit shift that drops the cleared column.  The slots are reduced mod M
only when read (delayed modular reduction, as in Dumas, Gautier and Pernet,
Finite field linear algebra subroutines, ISSAC 2002); a slot starts below M
and gains at most (M - 1)^2 per pivot, so M^2 (cols + 1) < 2^64 keeps every
slot in its 64 bits, and a larger modulus stays on list rows.  The graded
pivots read entry / p^v off raw entries, so which representative a row
holds shows in V: only the rows a pivot updated come back, as residues,
and any other row keeps its input entries, as on list rows.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from itertools import chain, compress, repeat
from math import gcd, prod
from operator import contains, eq, itemgetter, mul

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
    "LocalSmithResult",
    "local_smith_form",
    "HnfResult",
    "hermite_normal_form",
    "left_kernel",
    "Congruence",
    "congruence",
    "inertia",
    "signature",
    "is_positive_definite",
]


def identity_matrix(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def copy_matrix(m):
    return [list(row) for row in m]


def transpose(m):
    return [list(col) for col in zip(*m)] if m else []


def mat_mul(a, b):
    """Exact product a * b of int or Fraction matrices, row-sparse on both
    sides: b's nonzero (j, y) pairs are listed once per row, and each row of
    a is walked over its nonzeros only, each a_ik adding a_ik * y into row i
    of the product.  The cost is the sum, over nonzero a_ik, of nnz(b_k)
    (plus one C-level scan of each row of a); a sum with no nonzero term is
    the int 0."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch in mat_mul")
    width = len(b[0]) if b else 0
    b_rows = [list(zip(compress(range(width), row), filter(None, row))) for row in b]
    out = []
    for row in a:
        acc = [0] * width
        for x, b_row in zip(filter(None, row), compress(b_rows, row)):
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
    return all(map(len(m).__eq__, map(len, m)))


def is_symmetric(m) -> bool:
    """Square with each row equal to the column of the same index; rows may
    be lists or tuples, and ragged input is not symmetric."""
    return is_square(m) and all(map(eq, map(tuple, m), zip(*m)))


def has_even_diagonal(m) -> bool:
    return all(m[i][i] % 2 == 0 for i in range(len(m)))


def _ends(m, width: int) -> list[int]:
    """1 + the column of each row's last nonzero entry (0 for a zero row),
    scanning each row, of the given width, from its end; m may be any
    iterable of rows."""
    if not width:
        return [0 for _ in m]
    back = range(width - 1, -1, -1)
    return [width if row[-1] else next(compress(back, reversed(row)), -1) + 1 for row in m]


def _current(a, stamp, k, prev, lo, hi):
    """Pivot row k of a stamped elimination, brought up to the scale `prev`;
    the row is zero outside columns lo..hi-1, so only those are rescaled."""
    row = a[k]
    s = stamp[k]
    if s != prev:
        row[lo:hi] = [x * prev // s for x in row[lo:hi]]
        stamp[k] = prev
    return row


def _triangle_step(b, stamp, end, k, row_p, top, d, prev):
    """A pivot's update of row k in `congruence`, from column k on: the
    pivot row row_p is at scale prev, with diagonal d, and zero from column
    top on; b_kp is read off it, at row k's scale, and row k is divided by
    its own stamp.  Row k's entries left of column k stay as they are."""
    row_k = b[k]
    s = stamp[k]
    f = row_p[k] if s == prev else row_p[k] * s // prev  # b_kp at row k's scale
    hi = max(end[k], top)
    row_k[k:hi] = [(d * x - f * y) // s for x, y in zip(row_k[k:hi], row_p[k:hi])]
    stamp[k] = d
    end[k] = hi


def _shift(b, stamp, end, p, k, prev):
    """x_p += s x_k in `congruence`, for a vanishing pivot p whose row, at
    scale prev, first has b_pk != 0 at column k: s = 1 unless
    2 b_pk + b_kk = 0, and then -1, so the new diagonal 2 s b_pk + b_kk is
    nonzero.  Only row p changes: it adds s times row k (brought to scale
    prev) from column k on, and s b_jk, read off row j at its own stamp, at
    each column p < j < k.  Returns row p's new bound, the larger of the
    two rows' bounds (row p, a pivot row from here on, reads no bound)."""
    row_p = b[p]
    row_k = _current(b, stamp, k, prev, k, end[k])
    f, e = row_p[k], row_k[k]
    s = -1 if 2 * f + e == 0 else 1
    hi = max(end[p], end[k])
    row_p[k:hi] = [x + s * y for x, y in zip(row_p[k:hi], row_k[k:hi])]
    row_p[p + 1:k] = [s * b[j][k] * prev // stamp[j] for j in range(p + 1, k)]
    row_p[p] = 2 * s * f + e
    return hi


def _fill_order(m):
    """A static elimination order for m's nonzero pattern (Tinney and Walker's
    scheme 1, Proc. IEEE 55, 1967), or None for the natural order: rows with
    more nonzeros than the (upper) median go last, by count, and all others
    keep index order ahead of them.  So a band or a full pattern keeps index
    order, and hub rows are eliminated after their neighbours.  A matrix
    without a zero entry costs one C-level scan for a zero."""
    n = len(m)
    if not any(map(contains, m, repeat(0))):
        return None
    counts = [n - row.count(0) for row in m]
    middle = sorted(counts)[n // 2]
    keys = [max(count, middle) for count in counts]
    order = sorted(range(n), key=keys.__getitem__)
    return None if order == list(range(n)) else order


def _permuted(m, order):
    """P m P^T, a new matrix, for the permutation `order` of the indices."""
    pick = itemgetter(*order)
    return [list(pick(m[i])) for i in order]


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


class SnfResult:
    """U * m * V = S with U, V unimodular and S diagonal with a divisibility
    chain.  V is not stored: `col_ops` logs the elementary column operations
    in order, an entry (i, j, q) being a swap of columns i and j when q == 0
    and otherwise column j += q * column i.  A column of V is replayed from
    the log in O(#ops); `v` replays every column.  U is not logged at all:
    m V = U^-1 S, so U^-1 e_j = m V e_j / s_j for each s_j != 0.  A plain
    class, like `HnfResult`."""

    __slots__ = ("s", "col_ops")

    def __init__(self, s: list[list[int]], col_ops: list[tuple[int, int, int]]):
        self.s = s
        self.col_ops = col_ops

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


def _to_pivot(a, t, i, j, end, bottom, grow):
    """Swap row i and column j of a into row and column t, moving the row
    bounds `end` and the column bounds `bottom` with them and, if `grow`,
    raising those the swaps widen."""
    if i != t:
        if grow:  # row t moves down to i: its columns now reach row i
            for c in compress(range(t, end[t]), a[t][t:end[t]]):
                if bottom[c] <= i:
                    bottom[c] = i + 1
        a[t], a[i] = a[i], a[t]
        end[t], end[i] = end[i], end[t]
    if j != t:
        for row in a[t:max(bottom[t], bottom[j])]:
            row[t], row[j] = row[j], row[t]
        # column t moved right to j: its rows now reach column j
        if grow and min(end[t:bottom[t]], default=len(bottom)) <= j:
            for r in range(t, bottom[t]):
                if end[r] <= j and a[r][j]:
                    end[r] = j + 1
        bottom[t], bottom[j] = bottom[j], bottom[t]


def _find_pivot(a, t, stop):
    """(i, j) of the smallest nonzero |a[i][j]| with t <= i < stop and j >= t,
    the first in row-major order among equals; None for a zero block."""
    best = None
    for i in range(t, stop):
        tail = a[i][t:]
        x = min(filter(None, map(abs, tail)), default=0)
        if x and (best is None or x < best[0]):
            best = (x, i, t + [*map(abs, tail)].index(x))
            if x == 1:
                break
    return best and best[1:]


def smith_normal_form(m: list[list[int]]) -> SnfResult:
    """Smith normal form with the log of V; deterministic for a given input.
    The row operations are applied but not recorded (U^-1 is read off m V,
    see `SnfResult`).  Once pivot t is being worked, the rows and columns
    before t hold only their diagonal entry, so every operation starts at
    column or row t and runs over the whole rest of the row or column.

    The pivot p is the least |entry| of the block, and a pass keeps p at
    (t, t).  So rows below the last one the pass changed still hold only
    entries of |entry| >= p or 0, and the next pivot search stops there."""
    rows = len(m)
    cols = len(m[0]) if m else 0
    if not all(map(cols.__eq__, map(len, m))):
        raise ValueError("smith_normal_form requires rows of equal length")
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
            pivot_row = a[t]
            if pivot_row[t] < 0:
                pivot_row[t:] = [-x for x in pivot_row[t:]]
            p = pivot_row[t]
            pivot_tail = pivot_row[t:]
            # A nonzero entry in the pivot's row or column has a nonzero
            # quotient.  `column` collects the pivot row and the rows below
            # it left with a remainder at t; rows up to `low` were changed.
            column = [pivot_row]
            low = t + 1
            for r in range(t + 1, rows):
                row = a[r]
                if row[t]:
                    q = -(row[t] // p)
                    row[t:] = [x + q * y if y else x for x, y in zip(row[t:], pivot_tail)]
                    low = r + 1
                    if row[t]:
                        column.append(row)
            for c in range(t + 1, cols):
                if pivot_row[c]:
                    q = -(pivot_row[c] // p)
                    for row in column:
                        row[c] += q * row[t]
                    col_ops.append((t, c, q))
            if len(column) > 1 or any(pivot_row[t + 1:]):
                pos = _find_pivot(a, t, low)
                continue
            # Row and column at t are clear; force the pivot to divide the
            # rest, which a unit pivot always does.
            offender = None if p == 1 else next(
                (r for r in range(t + 1, rows) if any(map(p.__rmod__, a[r][t + 1:]))), None)
            if offender is None:
                break
            pivot_row[t:] = [x + y for x, y in zip(pivot_row[t:], a[offender][t:])]
            pos = _find_pivot(a, t, low)
        t += 1
    return SnfResult(a, col_ops)


class LocalSmithResult:
    """U m V = D mod p^k with U, V invertible mod p and D diagonal, its entry
    t a unit times p^(v_t).  `exponents` lists v_t for each pivot t in the
    order found, units first and then nondecreasing; a block that is zero
    mod p^k ends it early.  V is logged in `col_ops`, one entry
    (t, j, inv, tail) per pivot t: a swap of columns t and j (none when
    j == t), then column c -= tail[c - t - 1] * inv * column t for every
    c > t, inv being the inverse of the pivot's unit part mod p^k (mod the
    product of the prime powers, for a pivot shared by several primes).  A
    column is replayed mod p^k, since an unreduced replay grows without
    bound, and each entry's column operations replay as one dot product
    with `tail`.  If `order` is set, the elimination ran on P m P^T for
    that order, and `v_column` returns P^T times its column."""

    __slots__ = ("exponents", "modulus", "width", "col_ops", "order")

    def __init__(self, exponents: list[int], modulus: int, width: int,
                 col_ops: list[tuple[int, int, int, list[int]]], order: list[int] | None = None):
        self.exponents = exponents
        self.modulus = modulus
        self.width = width
        self.col_ops = col_ops
        self.order = order

    def v_column(self, j: int) -> list[int]:
        """V e_j mod p^k, entries in [0, p^k)."""
        modulus = self.modulus
        x = [0] * self.width
        x[j] = 1
        for t, s, inv, tail in reversed(self.col_ops):
            if tail:
                x[t] = (x[t] - inv * sum(map(mul, tail, x[t + 1:t + 1 + len(tail)]))) % modulus
            if s != t:
                x[t], x[s] = x[s], x[t]
        if self.order:
            y = [0] * self.width
            for i, xi in zip(self.order, x):
                y[i] = xi
            return y
        return x


_SLOT_MASK = (1 << 64) - 1
# The least number of pivots a block must have left to go packed: below
# it, packing the rows and each pivot costs more than the row updates save.
# Timed on the benchmark's dense disguises (2-core Xeon, Python 3.11.7): at
# rank 2-5 the packed path was 4-6 us slower per call, at rank 6-7 even,
# and from rank 8 on faster, by 14% at rank 8 and 5x at rank 70.
_PACKED_MIN_PIVOTS = 8


def _first_with_gcd(a, t, end, stop, q, g):
    """(i, j) of the first entry x in row-major order, t <= i < stop and
    j >= t, with gcd(x, q) == g; None if there is none.  Row i is zero from
    column end[i] on, so it is read up to there."""
    for i in range(t, stop):
        j = next(compress(range(t, end[i]), map(g.__eq__, map(gcd, repeat(q), a[i][t:end[i]]))), None)
        if j is not None:
            return i, j
    return None


def _pack(residues) -> int:
    """The residues, each below 2^64, as one int with slot k (bits 64k to
    64k + 63) holding residues[k]."""
    return int.from_bytes(array("Q", residues).tobytes(), sys.byteorder)


def _unpack(x: int, k: int):
    """The k slots of a packed row, as a sequence of ints."""
    return memoryview(x.to_bytes(8 * k, sys.byteorder)).cast("Q")


def _packed_units(a, t, cols, modulus, radical, col_ops, exponents):
    """The unit pivots of a dense block over Z/modulus, from pivot t on, on
    packed rows; return the pivot index it stopped at, where the block has
    no unit left.  The pivots, the column log and the rows it leaves are
    those of `_local_pass`'s list path.

    Each live row r >= t is one int, slot k holding its residue in column
    t + k.  A unit in column j > t swaps slots 0 and j of every live row,
    and the list rows' entries with them.  The pivot row is reduced, and
    each row below with f = slot 0 * pivot^-1 mod the modulus nonzero takes
    row += (modulus - f) * pivot, which leaves slot 0 a multiple of the
    modulus, and row >>= 64, which drops it: one multiply-add on ints per
    row update, the slots reduced only when read.  No slot overflows: it
    starts below M = modulus, and an update adds at most (M - 1)^2 to it,
    at most once per pivot, so after at most cols pivots it is below
    M + cols (M - 1)^2 < M^2 (cols + 1) < 2^64, the caller's guard.  So no
    carry crosses into the next slot, and slot 0 of an updated row is
    exactly a multiple of M.  Once no unit is left, a row some pivot
    updated gets its residues written back from column t on; any other
    row keeps the entries it came with, as on the list path, since the
    graded phase reads entry / p^v off those."""
    rows = len(a)
    live = [0] * t + [_pack([x % modulus for x in row[t:]]) for row in a[t:]]
    updated = [False] * rows
    while t < min(rows, cols):
        k = cols - t
        if gcd(live[t] & _SLOT_MASK, radical) == 1:
            i = j = t
        else:
            for i in range(t, rows):
                slots = _unpack(live[i], k)
                j = next(compress(range(t, cols), map((1).__eq__, map(gcd, repeat(radical), slots))), None)
                if j is not None:
                    break
            else:
                break
        if i != t:
            a[t], a[i] = a[i], a[t]
            live[t], live[i] = live[i], live[t]
            updated[t], updated[i] = updated[i], updated[t]
        if j != t:
            shift = 64 * (j - t)
            for r in range(t, rows):
                row = a[r]
                row[t], row[j] = row[j], row[t]
                x = live[r]
                d = (x >> shift & _SLOT_MASK) - (x & _SLOT_MASK)
                live[r] = x + d - (d << shift)
        pivot_tail = [x % modulus for x in _unpack(live[t], k)]
        inv = pow(pivot_tail[0], -1, modulus)
        pivot = _pack(pivot_tail)
        for r in range(t + 1, rows):
            x = live[r]
            f = (x & _SLOT_MASK) * inv % modulus
            if f:
                live[r] = (x + (modulus - f) * pivot) >> 64
                updated[r] = True
            else:
                live[r] = x >> 64
        col_ops.append((t, j, inv, pivot_tail[1:]))
        exponents.append(0)
        t += 1
    for r in compress(range(t, rows), updated[t:]):
        a[r][t:] = [x % modulus for x in _unpack(live[r], cols - t)]
    return t


def _local_pass(a, t, end, bottom, grow, modulus, radical, col_ops, exponents, graded):
    """Eliminate a over Z/modulus from pivot t on, appending to `col_ops`
    and `exponents`; return the pivot index it stopped at.  The pivot is the
    first unit (an entry prime to `radical`, the product of the modulus's
    primes) in row-major order.  Only `graded`, for a prime power modulus,
    goes on once the block has no unit: then the pivot is the first entry
    of least p-valuation v, which every entry of the block has at least.
    Either way the pivot divides the block up to a unit, so one pass clears
    its row and column: each row below subtracts (entry / p^v) * pivot^-1
    times the pivot row, reduced mod the modulus, and the pivot row's
    entries go to the column log alone, since column t is zero mod the
    modulus below the pivot; they are logged as the pivot row's tail over
    p^v (see `LocalSmithResult`).  A dense block (not `grow`) with at least
    _PACKED_MIN_PIVOTS pivots left, whose modulus M has M^2 (cols + 1) <
    2^64, takes its unit pivots on packed rows (`_packed_units`, where that
    bound is proved), with the same pivots and the same rows left for the
    graded phase."""
    rows, cols = len(a), len(bottom)
    level, v = 1, 0  # level = p^v divides every entry of the block
    if not grow and min(rows, cols) - t >= _PACKED_MIN_PIVOTS and modulus * modulus * (cols + 1) < 1 << 64:
        t = _packed_units(a, t, cols, modulus, radical, col_ops, exponents)
    while t < min(rows, cols):
        # (t, t) is the block's first entry in row-major order
        pos = (t, t) if gcd(a[t][t], level * radical) == level else (
            _first_with_gcd(a, t, end, rows, level * radical, level))
        if pos is None:
            if not graded:
                break
            level = gcd(modulus, *chain.from_iterable(a[i][t:end[i]] for i in range(t, rows)))
            if level == modulus:
                break
            while radical**v < level:
                v += 1
            continue
        i, j = pos
        _to_pivot(a, t, i, j, end, bottom, grow)
        pivot_row = a[t]
        top = end[t]
        pivot_tail = pivot_row[t:top]
        inv = pow(pivot_tail[0] % modulus // level, -1, modulus)
        low = t + 1
        stop = bottom[t]
        for r in compress(range(t + 1, stop), map(modulus.__rmod__, map(itemgetter(t), a[t + 1:stop]))):
            row = a[r]
            f = row[t] % modulus // level * inv % modulus
            row[t:top] = [(x - f * y) % modulus for x, y in zip(row[t:top], pivot_tail)]
            if grow and end[r] < top:
                end[r] = top
            low = r + 1
        if grow and low > t + 1:  # the pivot row's columns now reach row low - 1
            for c in compress(range(t + 1, top), pivot_tail[1:]):
                if bottom[c] < low:
                    bottom[c] = low
        # column c -= (entry_c / p^v) * pivot^-1 * column t, for every c > t
        col_ops.append((t, j, inv, pivot_tail[1:] if level == 1 else [x // level for x in pivot_tail[1:]]))
        exponents.append(v)
        t += 1
    return t


def local_smith_form(m: list[list[int]], powers: dict[int, int]) -> dict[int, LocalSmithResult]:
    """Smith form of m over Z/p^k for each prime p with k = powers[p], with
    the log of V; deterministic for a given input.  Row operations are
    applied mod p^k and not recorded.  A square matrix whose entries are
    mostly zero is eliminated as P m P^T in `_fill_order`'s order (sparse
    rows first, hub rows last), so a diagonal unit stays on the diagonal,
    and `v_column` maps V back to m's order.  Pivots are chosen and
    eliminated by `_local_pass`.  With several primes the unit pivots
    shared by all of them (entries prime to every p) are eliminated once,
    over Z/M, M the product of the p^k, and each prime goes on from a copy
    of the rest: by the Chinese remainder theorem those steps are steps
    over each Z/p^k.  m is copied as it is, and a row is reduced when a
    pivot updates it; a row operation runs to the pivot row's bound, and
    a column swap and the scan for rows to clear to the pivot column's
    (see the module docstring).  A dense block's unit pivots run on packed
    rows, reduced lazily (`_packed_units`), which hand back the same rows:
    the ones a pivot updated as residues, the rest as they came."""
    rows = len(m)
    cols = len(m[0]) if m else 0
    if not all(map(cols.__eq__, map(len, m))):
        raise ValueError("local_smith_form requires rows of equal length")
    a = [list(row) for row in m]
    grow = 2 * sum(map(list.count, a, repeat(0))) > rows * cols
    order = _fill_order(a) if grow and rows == cols else None
    if order:
        a = _permuted(a, order)
    end = _ends(a, cols) if grow else [cols] * rows
    bottom = _ends(zip(*a), rows) if grow else [rows] * cols
    shared: list[tuple[int, int, int, list[int]]] = []
    t = 0
    if len(powers) > 1:
        modulus = prod(p**k for p, k in powers.items())
        t = _local_pass(a, 0, end, bottom, grow, modulus, prod(powers), shared, [], False)
    out = {}
    for p, k in powers.items():
        if len(powers) > 1:
            b, b_end, b_bottom = a[:t] + [list(row) for row in a[t:]], end[:], bottom[:]
        else:
            b, b_end, b_bottom = a, end, bottom
        col_ops, exponents = list(shared), [0] * t
        _local_pass(b, t, b_end, b_bottom, grow, p**k, p, col_ops, exponents, True)
        out[p] = LocalSmithResult(exponents, p**k, cols, col_ops, order)
    return out


class HnfResult:
    """T m = H with T unimodular.  T is not stored: `row_ops` logs the row
    operations in order, an entry (i, j, q) being a swap of rows i and j
    when q == 0 and otherwise row i -= q * row j (a negation is (i, i, 2)).
    `t` replays the log on the identity, keeping per row a span [lo, hi)
    outside which it is zero: each operation runs over the span of its
    source row j only, and widens row i's span to the union of both.  A
    plain class, since building a dataclass costs about 0.7 ms at import."""

    __slots__ = ("h", "row_ops")

    def __init__(self, h: list[list[int]], row_ops: list[tuple[int, int, int]]):
        self.h = h
        self.row_ops = row_ops

    @property
    def t(self) -> list[list[int]]:
        rows = identity_matrix(len(self.h))
        lo, hi = list(range(len(rows))), list(range(1, len(rows) + 1))
        for i, j, q in self.row_ops:
            if q:
                a, b = lo[j], hi[j]
                rows[i][a:b] = [x - q * y for x, y in zip(rows[i][a:b], rows[j][a:b])]
                if a < lo[i]:
                    lo[i] = a
                if b > hi[i]:
                    hi[i] = b
            else:
                rows[i], rows[j] = rows[j], rows[i]
                lo[i], lo[j], hi[i], hi[j] = lo[j], lo[i], hi[j], hi[i]
        return rows


def hermite_normal_form(m: list[list[int]]) -> HnfResult:
    """Row-style HNF H = T m, T logged (`HnfResult`).

    Pivots are positive, entries above each pivot are reduced into [0, pivot),
    and zero rows sink to the bottom.  Rows at or below the pivot row are
    zero before the pivot column, and each row keeps a bound on its last
    nonzero column.  The pivot row is zero from its bound on, so every
    operation, below the pivot or above it, runs from the pivot column to
    the pivot row's bound; below the pivot it raises the target row's bound
    to it, and above it no bound is read again.
    """
    rows = len(m)
    cols = len(m[0]) if m else 0
    if not all(map(cols.__eq__, map(len, m))):
        raise ValueError("hermite_normal_form requires rows of equal length")
    a = copy_matrix(m)
    end = _ends(a, cols)
    ops: list[tuple[int, int, int]] = []
    pivot_row = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        entry = itemgetter(col)
        # Clear the column below pivot_row by gcd steps on rows.
        while True:
            candidates = list(compress(range(pivot_row, rows), map(entry, a[pivot_row:])))
            if not candidates:
                break
            best = candidates[0] if len(candidates) == 1 else min(candidates, key=lambda i: (abs(a[i][col]), i))
            below = candidates[1:] if candidates[0] == pivot_row else candidates
            if best != pivot_row:
                a[pivot_row], a[best] = a[best], a[pivot_row]
                end[pivot_row], end[best] = end[best], end[pivot_row]
                ops.append((pivot_row, best, 0))
                if below is candidates:
                    below = [i for i in candidates if i != best]  # the old pivot row, now at best, is zero here
            prow, top = a[pivot_row], end[pivot_row]
            if prow[col] < 0:
                prow[col:top] = [-x for x in prow[col:top]]
                ops.append((pivot_row, pivot_row, 2))
            p = prow[col]
            tail = prow[col:top]
            done = True
            for i in below:
                row = a[i]
                q = row[col] // p
                row[col:top] = [x - q * y for x, y in zip(row[col:top], tail)]
                if end[i] < top:
                    end[i] = top
                ops.append((i, pivot_row, q))
                if row[col]:
                    done = False
            if done:
                break
        prow, top = a[pivot_row], end[pivot_row]
        p = prow[col]
        if p:
            tail = prow[col:top]
            # A row above the pivot row is never a pivot row again, so its
            # bound is not read again and is left as it is.
            for i in compress(range(pivot_row), map(entry, a[:pivot_row])):
                row = a[i]
                q = row[col] // p
                if q:
                    row[col:top] = [x - q * y for x, y in zip(row[col:top], tail)]
                    ops.append((i, pivot_row, q))
            pivot_row += 1
    return HnfResult(a, ops)


def left_kernel(m: list[list[int]]) -> list[list[int]]:
    """Basis of {y integer row : y * m = 0}, saturated by construction; no
    package module calls it, and the benchmark's tracer wraps it by name."""
    hnf = hermite_normal_form(m)
    t = hnf.t
    return [t[i] for i in range(len(m)) if not any(hnf.h[i])]


class Congruence:
    """One congruence elimination of an integer symmetric matrix m.

    `inertia` is (n_plus, n_minus, n_zero) and `det` the exact determinant,
    the last prev, or 0 once a null direction was found.  `rows` is the
    working matrix of bordered minors b (see the module docstring); the row
    of each eliminated pivot, or null row, is frozen as it stood then, with
    `stamps` holding the prev it was frozen at.  Only the upper triangle
    holds bordered minors: `rows[i][:i]` keeps m's entries, and nothing
    reads them (`minors` reads row[i] and row[i+1:]).  Wherever a vanishing
    pivot took x_p += s x_k (see `congruence`), the rows frozen from then on
    are those of E m E^T, E the product of the steps taken so far.

    Positive-definite m never meets a vanishing pivot, so frozen row i
    holds b_ij = det m[0..i-1 + i, 0..i-1 + j], its diagonal b_ii = D_i is
    the i-th leading principal minor, and its stamp is D_{i-1} (D_{-1} = 1).
    Then y^T m y = sum_i M_i^2 / (D_i D_{i-1}) with M_i = sum_{j>=i} b_ij y_j:
    `minors` hands out this integer view.  A plain class, like `HnfResult`.
    """

    __slots__ = ("inertia", "det", "rows", "stamps")

    def __init__(self, inertia: tuple[int, int, int], det: int, rows: list[list[int]], stamps: list[int]):
        self.inertia = inertia
        self.det = det
        self.rows = rows
        self.stamps = stamps

    def minors(self) -> list[tuple[int, int, list[tuple[int, int]]]]:
        """Per frozen row i of a positive-definite m: (D_i, D_{i-1}, the
        nonzero bordered minors (j, b_ij) with j > i), all ints."""
        return [(row[i], stamp, [(j, x) for j, x in enumerate(row[i + 1:], i + 1) if x])
                for i, (row, stamp) in enumerate(zip(self.rows, self.stamps))]


def congruence(m) -> Congruence:
    """Exact congruence elimination of an integer symmetric matrix with
    diagonal pivots, fraction-free, in the natural order.

    A pivot d = b_pp updates b_kl to (d b_kl - b_kp b_pl) / prev
    (Sylvester's identity), and the sign of d / prev, the pivot of the
    rational elimination, counts towards the inertia.  A vanishing pivot p
    whose live row has b_pk != 0, k > p first, takes x_p += s x_k: s = 1
    unless 2 b_pk + b_kk = 0, and then -1, so its new diagonal
    2 s b_pk + b_kk is nonzero and the elimination goes on in index order.
    A live row p that is all zero is a null direction: it counts towards
    n_zero, and pivot p + 1 is next.

    The working copy is m's transpose, built in one pass; it equals m
    exactly when m is symmetric, which is the check.  The bordered minors
    are symmetric, so only the upper triangle is read and written: row k
    is updated from column k on, with b_kp = b_pk * stamp_k / prev read off
    the pivot row, and its entries left of the diagonal keep the input's
    values.  Each row keeps a bound on its last nonzero column: an
    update runs to the larger of the bounds of the rows it combines.

    The pivots go in pairs.  Pivot p = lo first updates row q = lo + 1
    alone, which freezes it as a pivot row; if q's diagonal e is then
    nonzero, p and q go as a pair, and otherwise, as for the last row, pivot
    p goes on alone.  A row k that both pivots update takes one step
    by Sylvester's identity on the 3 x 3 bordered minor (Bareiss 1968's
    two-step elimination), with f = b_kp at row k's scale s and g = b'_kq
    read off the frozen pivot rows:

        b''_kl = (d e x_l - e f b_pl - s g b'_ql) / (d s),

    x_l the stored entry; for s = prev it is (d e b_kl - e b_pk b_pl -
    prev b'_qk b'_ql) / (d prev).  Row k is stamped e, so its ints are
    those two one-steps would write, one division instead of two.  A row
    that only one pivot of the pair updates takes that pivot's one-step.
    """
    # The transpose is a copy of m exactly when m is symmetric; tuple rows
    # never equal list rows, so they are compared as lists.
    b = [list(col) for col in zip(*m)]
    if not is_square(m) or b != m and b != copy_matrix(m):
        raise ValueError("the congruence elimination requires a symmetric matrix")
    n = len(m)
    end = _ends(b, n)
    stamp = [1] * n
    prev = 1
    n_plus = n_minus = n_zero = 0
    lo = 0
    while lo < n:
        top = end[lo]
        row_p = b[lo] if stamp[lo] == prev else _current(b, stamp, lo, prev, lo, top)
        if not row_p[lo]:
            k = next(compress(range(lo + 1, top), row_p[lo + 1:top]), None)
            if k is None:  # a null direction: the live row is zero
                n_zero += 1
                lo += 1
                continue
            top = _shift(b, stamp, end, lo, k, prev)
        d = row_p[lo]
        if (d > 0) == (prev > 0):
            n_plus += 1
        else:
            n_minus += 1
        q = lo + 1  # the pair's second pivot, if its diagonal survives pivot lo
        if q < top and row_p[q]:
            _triangle_step(b, stamp, end, q, row_p, top, d, prev)
        if q == n or not b[q][q]:
            for k in compress(range(q + 1, top), row_p[q + 1:top]):
                _triangle_step(b, stamp, end, k, row_p, top, d, prev)
            prev = d
            lo = q
            continue
        row_q = b[q] if stamp[q] == d else _current(b, stamp, q, d, q, end[q])
        e = row_q[q]
        if (e > 0) == (d > 0):
            n_plus += 1
        else:
            n_minus += 1
        top_q = end[q]
        both = max(top, top_q)
        de = d * e
        for k, f, g in zip(range(q + 1, both), row_p[q + 1:both], row_q[q + 1:both]):
            if not g:
                if f:
                    _triangle_step(b, stamp, end, k, row_p, top, d, prev)
            elif not f:
                _triangle_step(b, stamp, end, k, row_q, top_q, e, d)
            else:
                # One update by both pivots, with row k's stamp s in place
                # of prev: (e (d x - f y) - s g z) / (d s), f at row k's scale.
                row_k = b[k]
                s = stamp[k]
                a1 = e * f if s == prev else e * (f * s // prev)
                a2 = g * s
                div = d * s
                hi = max(end[k], both)
                row_k[k:hi] = [(de * x - a1 * y - a2 * z) // div
                               for x, y, z in zip(row_k[k:hi], row_p[k:hi], row_q[k:hi])]
                stamp[k] = e
                end[k] = hi
        prev = e
        lo = q + 1
    return Congruence((n_plus, n_minus, n_zero), 0 if n_zero else prev, b, stamp)


def _ordered_congruence(m) -> Congruence:
    """`congruence` of P m P^T in the static order of m's pattern
    (`_fill_order`: rows denser than the median last), which keeps the
    inertia (Sylvester's law) and the determinant (det P enters squared).
    A non-symmetric m is refused by `congruence` after the permutation."""
    if not is_square(m):
        raise ValueError("the congruence elimination requires a square matrix")
    order = _fill_order(m)
    return congruence(m if order is None else _permuted(m, order))


def determinant(m) -> int:
    """Exact determinant of an integer symmetric matrix."""
    return _ordered_congruence(m).det


def inertia(m) -> tuple[int, int, int]:
    """(n_plus, n_minus, n_zero) of an integer symmetric matrix."""
    return _ordered_congruence(m).inertia


def signature(m) -> int:
    n_plus, n_minus, _ = inertia(m)
    return n_plus - n_minus


def is_positive_definite(m) -> bool:
    return inertia(m) == (len(m), 0, 0)
