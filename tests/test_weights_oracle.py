"""Oracles for the coset search of `weights`.

`coset_minima` and `minimum_nonzero_norm` are held to two independent
searches on seeded even positive-definite Gram matrices of rank 1 to 8,
dense U K U^T disguises included:

* `_fraction_branch_and_bound`, a Fraction Fincke-Pohst over the L D L^T
  factors that `_ldl` decodes from `Congruence.minors`, kept here as the
  reference;
* a brute-force box search: a vector y with y^T K y <= B has
  y_i^2 <= B (K^-1)_ii (Cauchy-Schwarz in the K^-1 inner product), so with
  B the claimed minimum every shorter vector of the coset lies in the box
  (up to rank 5, where the box stays small).

A change of basis U K U^T keeps the sorted h values and the minimum norm,
and a SHA-256 pin holds the `weights` stdout bytes.
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import lcm

import pytest
from reference_matrices import bareiss_determinant

from anyonlat.cli import main
from anyonlat.lattices import cartan_a, cartan_d, discriminant_form, e6_gram, e7_gram, k_e, k_o
from anyonlat.linalg import congruence, determinant, rational_inverse, solve_columns
from anyonlat.weights import coset_minima, minimum_nonzero_norm


def _block_sum(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(b)] = row
        at += len(b)
    return out


def _disguised(gram, rng, ops, steps=(-2, -1, 1, 2)):
    """U K U^T for a seeded unimodular U of `ops` elementary operations, each
    adding one of `steps` times a row and column to another."""
    k = [row[:] for row in gram]
    n = len(k)
    for _ in range(ops if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice(steps)
        for t in range(n):
            k[i][t] += c * k[j][t]
        for row in k:
            row[i] += c * row[j]
    return k


_PIECES = [
    lambda: [[2]], lambda: [[4]], lambda: [[6]], lambda: [[2, 1], [1, 4]],
    lambda: cartan_a(2).gram, lambda: cartan_a(3).gram, lambda: cartan_a(4).gram,
    lambda: cartan_d(4).gram, lambda: k_e(2).gram, lambda: e6_gram().gram, lambda: e7_gram().gram,
]


def _random_even_posdef(n, rng):
    """T B T^T with B a block sum of small even positive-definite pieces and
    T lower triangular with diagonal 1 or 2: an even positive-definite Gram
    matrix of rank n with |det| at most 200."""
    while True:
        blocks, size = [], 0
        while size < n:
            piece = rng.choice(_PIECES)()
            if size + len(piece) <= n:
                blocks.append(piece)
                size += len(piece)
        base = _block_sum(*blocks)
        t = [[rng.choice((1, 1, 1, 1, 2)) if i == j else rng.randint(-1, 1) if j < i else 0
              for j in range(n)] for i in range(n)]
        if determinant(base) * bareiss_determinant(t) ** 2 > 200:
            continue
        return [[sum(t[i][a] * base[a][b] * t[j][b] for a in range(n) for b in range(n))
                 for j in range(n)] for i in range(n)]


def _cases():
    rng = random.Random(9191)
    out = []
    for n in range(1, 9):
        out.append((f"rank{n}", _random_even_posdef(n, rng)))
        out.append((f"rank{n}-disguised", _disguised(_random_even_posdef(n, rng), rng, n, (-1, 1))))
    return out


CASES = _cases()


def _ldl(gram):
    """K = L D L^T in Fractions: d_i = D_i / D_{i-1}, and per column i of L
    its entries below the diagonal as pairs (j, L[j][i] = b_ij / D_i)."""
    view = congruence(gram).minors()
    d = [Fraction(minor, stamp) for minor, stamp, _ in view]
    return d, [[(j, Fraction(x, minor)) for j, x in tail] for minor, _, tail in view]


def _fraction_branch_and_bound(gram, z0, exclude_zero_at=None):
    """min (z0 + x)^T K (z0 + x) over integer x, in Fractions: with
    K = L D L^T the norm is sum_i d_i (x_i + c_i)^2, c_i fixed by the later
    coordinates, enumerated last coordinate first inside a shrinking bound."""
    d, lower = _ldl(gram)
    n = len(d)
    center = [z0[i] + sum(f * z0[j] for j, f in lower[i]) for i in range(n)]
    best = None
    x = [0] * n

    def descend(i, partial):
        nonlocal best
        if i < 0:
            if x != exclude_zero_at and (best is None or partial < best):
                best = partial
            return
        c = center[i] + sum(f * x[j] for j, f in lower[i])
        base = -round(c)
        k = 0
        while True:
            hit = False
            for xi in (base,) if k == 0 else (base + k, base - k):
                term = d[i] * (xi + c) ** 2
                if best is None or partial + term <= best:
                    hit = True
                    x[i] = xi
                    descend(i - 1, partial + term)
            if k > 0 and not hit:
                break
            k += 1
        x[i] = 0

    descend(n - 1, Fraction(0))
    return best


def _box_minimum(gram, z0, bound, exclude_zero=False):
    """min (z0 + x)^T K (z0 + x) over the integer x with
    (z0_i + x_i)^2 <= bound (K^-1)_ii for every i, or None for an empty box."""
    n = len(gram)
    inv = rational_inverse(gram)
    ranges = []
    for i in range(n):
        radius2 = bound * inv[i][i]
        lo = hi = -round(z0[i])
        while (z0[i] + lo - 1) ** 2 <= radius2:
            lo -= 1
        while (z0[i] + hi + 1) ** 2 <= radius2:
            hi += 1
        ranges.append(range(lo, hi + 1) if (z0[i] + lo) ** 2 <= radius2 else range(0))
    den = lcm(1, *(Fraction(v).denominator for v in z0))
    scaled = [int(v * den) for v in z0]
    best = None
    for x in itertools.product(*ranges):
        if exclude_zero and not any(x):
            continue
        y = [s + den * xi for s, xi in zip(scaled, x)]
        norm = sum(y[i] * sum(gram[i][j] * y[j] for j in range(n)) for i in range(n))
        if best is None or norm < best:
            best = norm
    return None if best is None else Fraction(best, den * den)


def _centers(gram):
    """(coefficients, coset center K^-1 w) for every dual coset, with K^-1 w_j
    solved for, not read off the discriminant form."""
    disc = discriminant_form(gram)
    sols = solve_columns(gram, [list(w) for w in disc.generator_reps])
    m = len(gram)
    for coeffs in itertools.product(*(range(k) for k in disc.invariant_factors)):
        yield coeffs, [sum(c * sols[j][i] for j, c in enumerate(coeffs)) for i in range(m)]


# The box holds prod_i (2 sqrt(B (K^-1)_ii) + 1) points, millions per coset
# from rank 6 on, so the box search runs up to rank 5.
BOX_CASES = [(name, gram) for name, gram in CASES if len(gram) <= 5]


@pytest.mark.parametrize("name,gram", CASES, ids=[name for name, _ in CASES])
def test_search_matches_the_fraction_search(name, gram):
    n = len(gram)
    minima = coset_minima(gram)
    for coeffs, center in _centers(gram):
        assert _fraction_branch_and_bound(gram, center) == 2 * minima[coeffs], coeffs
    zero = [Fraction(0)] * n
    assert _fraction_branch_and_bound(gram, zero, exclude_zero_at=[0] * n) == minimum_nonzero_norm(gram)


@pytest.mark.parametrize("name,gram", BOX_CASES, ids=[name for name, _ in BOX_CASES])
def test_search_matches_the_box(name, gram):
    n = len(gram)
    minima = coset_minima(gram)
    for coeffs, center in _centers(gram):
        assert _box_minimum(gram, center, 2 * minima[coeffs]) == 2 * minima[coeffs], coeffs
    norm = minimum_nonzero_norm(gram)
    assert _box_minimum(gram, [Fraction(0)] * n, norm, exclude_zero=True) == norm


@pytest.mark.parametrize("name,gram", CASES, ids=[name for name, _ in CASES])
def test_change_of_basis_keeps_the_weights_and_the_minimum(name, gram):
    rng = random.Random(f"basis-{name}")
    moved = _disguised(gram, rng, 2 * len(gram), (-1, 1))
    assert sorted(coset_minima(moved).values()) == sorted(coset_minima(gram).values())
    assert minimum_nonzero_norm(moved) == minimum_nonzero_norm(gram)


def _pin_inputs():
    rng = random.Random(9292)
    return [
        cartan_a(6).gram, cartan_d(7).gram, e6_gram().gram, e7_gram().gram, k_o(3).gram,
        _disguised(cartan_a(6).gram, rng, 12, (-1, 1)),
        _disguised(cartan_d(5).gram, rng, 10, (-1, 1)),
        _disguised(_block_sum([[2, 1], [1, 12]], cartan_a(2).gram), rng, 8, (-1, 1)),
    ]


# SHA-256 (first 16 hex digits) of `weights` stdout on each input above.
_WEIGHTS_STDOUT_DIGESTS = [
    "ea353783f750ca84",  # A_6, |A| = 7
    "a63ce80d7e82f038",  # D_7, |A| = 4
    "c93b0da7f6fd4b58",  # E_6, |A| = 3
    "c3af0da8c2a6ae3f",  # E_7, |A| = 2
    "520ccb688d50f830",  # k_o(3), |A| = 8
    "a2fed8f36eec1e82",  # A_6 disguised, |A| = 7
    "e19aeaccbbaebbb4",  # D_5 disguised, |A| = 4
    "d83bbc822147643f",  # (2 1; 1 12) + A_2 disguised, |A| = 69
]


def test_weights_stdout_is_pinned(tmp_path, capsys):
    digests = []
    for i, gram in enumerate(_pin_inputs()):
        path = tmp_path / f"k{i}.json"
        path.write_text(json.dumps({"gram": gram}))
        capsys.readouterr()
        assert main(["weights", str(path)]) == 0
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16])
    assert digests == _WEIGHTS_STDOUT_DIGESTS
