"""Conformal weights of dual cosets and the extremality score.

For an even positive-definite Gram matrix K, the weight of a dual coset a is
h_a = min { x.x / 2 : x in the coset a of L*/L }, found by exact branch and
bound: with K = L D L^T (unit lower-triangular L, positive rational pivots
D, from `linalg.congruence`), the norm splits as
sum_i d_i (x_i + c_i)^2 where c_i depends only on later coordinates, so
coordinates are enumerated last-to-first inside an exact shrinking bound.
Always h_a = q2(a)/2 mod 1.

The extremality score of a realization with N anyon types and rank c is
N c / 4 + N (N - 1) / 2 - 6 sum_a h_a; an extremal chiral algebra in its
genus makes this the smallest positive integer.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .lattices import discriminant_form
from .linalg import congruence, is_symmetric
from .metric_groups import BudgetExceededError, InternalError

__all__ = [
    "coset_minima",
    "minimum_nonzero_norm",
    "extremality_score",
    "score_of_minima",
]

COSET_BUDGET_DEFAULT = 4096
RANK_LIMIT = 20  # largest rank whose coset minima are enumerated


def _factors(gram, caller):
    """gram = L D L^T as `Congruence.ldl` lists it.  The elimination's inertia
    is also `caller`'s positive-definiteness check."""
    if not is_symmetric(gram):
        raise ValueError(f"{caller} requires a symmetric Gram matrix")
    elim = congruence(gram)
    if elim.inertia[0] != len(gram):
        raise ValueError(f"{caller} requires a positive-definite Gram matrix")
    return elim.ldl()


def _branch_and_bound(d, lower, z0, exclude_zero_at=None):
    """Minimize (z0 + x)^T K (z0 + x) over integer x for K = L D L^T, with L
    given by the nonzero entries of its columns as `Congruence.ldl` lists them.

    The norm separates as sum_i d_i (x_i + c_i)^2 with c_i = (L^T z0)_i plus
    the L^T-contributions of the already-fixed later coordinates, so the
    enumeration runs last coordinate first inside an exact shrinking bound.
    `exclude_zero_at` excludes one specific point (used for the shortest
    nonzero vector and nothing else).
    """
    n = len(d)
    center = [z0[i] + sum(f * z0[j] for j, f in lower[i]) for i in range(n)]

    def initial_guess():
        x = [0] * n
        for i in range(n - 1, -1, -1):
            c = center[i] + sum(f * x[j] for j, f in lower[i])
            x[i] = -round(c)
        return x

    def value_of(x):
        total = Fraction(0)
        for i in range(n):
            c = center[i] + sum(f * x[j] for j, f in lower[i])
            total += d[i] * (x[i] + c) ** 2
        return total

    guess = initial_guess()
    best = value_of(guess)
    best_x = list(guess)
    if exclude_zero_at is not None and guess == exclude_zero_at:
        best = None
        best_x = None

    x = [0] * n

    def descend(i, partial):
        nonlocal best, best_x
        if i < 0:
            if exclude_zero_at is not None and x == exclude_zero_at:
                return
            if best is None or partial < best:
                best = partial
                best_x = list(x)
            return
        c = center[i] + sum(f * x[j] for j, f in lower[i])
        base = -round(c)  # |base + c| <= 1/2 is the per-level minimum
        k = 0
        while True:
            hit = False
            for xi in (base,) if k == 0 else (base + k, base - k):
                term = d[i] * (xi + c) ** 2
                if best is None or partial + term <= best:
                    hit = True
                    x[i] = xi
                    descend(i - 1, partial + term)
            # |xi + c| grows monotonically with k on both sides, so once a
            # ring misses entirely nothing farther out can fit.
            if k > 0 and not hit:
                break
            k += 1
        x[i] = 0

    try:
        descend(n - 1, Fraction(0))
    finally:
        del descend  # break the self-reference through the closure cell
    return best, best_x


def coset_minima(gram, budget: int = COSET_BUDGET_DEFAULT):
    """h_a for every dual coset a, keyed by coordinates in the discriminant
    generators; exact, with the q2 congruence rechecked on every value."""
    d, lower = _factors(gram, "coset_minima")
    m = len(gram)
    if m > RANK_LIMIT:
        raise BudgetExceededError(
            f"coset enumeration (coset_minima): rank {m} exceeds the fixed limit RANK_LIMIT = {RANK_LIMIT}; "
            "no flag raises it"
        )
    disc = discriminant_form(gram)
    if disc.order > budget:
        raise BudgetExceededError(
            f"coset enumeration (coset_minima): {disc.order} cosets exceed budget {budget}; raise it with --budget"
        )
    zcols = disc.dual_coords
    group = disc.metric_group()
    out = {}
    for coeffs in itertools.product(*(range(k) for k in disc.invariant_factors)):
        if not any(coeffs):
            out[coeffs] = Fraction(0)
            continue
        center = [sum(c * zcols[j][i] for j, c in enumerate(coeffs)) for i in range(m)]
        norm, _ = _branch_and_bound(d, lower, center)
        h = norm / 2
        q = group.q(coeffs)
        if (h - q) % 1 != 0:
            raise InternalError(f"h = {h} incompatible with q2/2 = {q} at {coeffs}")
        out[coeffs] = h
    return out


def minimum_nonzero_norm(gram) -> Fraction:
    """Norm of a shortest nonzero lattice vector (exact enumeration)."""
    d, lower = _factors(gram, "minimum_nonzero_norm")
    m = len(gram)
    norm, _ = _branch_and_bound(d, lower, [Fraction(0)] * m, exclude_zero_at=[0] * m)
    return norm


def extremality_score(gram, budget: int = COSET_BUDGET_DEFAULT) -> Fraction:
    """N c / 4 + N (N - 1) / 2 - 6 sum_a h_a with N anyon types, c = rank."""
    return score_of_minima(coset_minima(gram, budget=budget), len(gram))


def score_of_minima(minima, c: int) -> Fraction:
    """The extremality score from a `coset_minima` table and the rank c."""
    n_types = len(minima)
    total = sum(minima.values(), Fraction(0))
    return Fraction(n_types * c, 4) + Fraction(n_types * (n_types - 1), 2) - 6 * total
