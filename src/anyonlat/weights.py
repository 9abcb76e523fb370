"""Conformal weights of dual cosets and the extremality score.

For an even positive-definite Gram matrix K, the weight of a dual coset a is
h_a = min { y.y / 2 : y in the coset a of L*/L }, found by an all-integer
Fincke-Pohst search (Fincke-Pohst 1985; Cohen, A Course in Computational
Algebraic Number Theory, 2.7) over the elimination `linalg.congruence`
already runs.  Its frozen rows hold the bordered minors b_ij, with
b_ii = D_i the i-th leading principal minor, so

    y^T K y = sum_i M_i^2 / (D_i D_{i-1}),   M_i = sum_{j>=i} b_ij y_j.

A coset center is y0 = Z / den with Z an int vector and den the lcm of its
denominators; with y = (Z + den x) / den for integer x, level i contributes
den M_i = (D_i den) x_i + R_i, where the int R_i is fixed by the deeper
coordinates.  Weighting each square by w_i = W / (D_i D_{i-1}), with W the
lcm of the D_i D_{i-1}, makes the norm (sum_i (den M_i)^2 w_i) / (den^2 W):
the nearest x_i is a floor division, every bound test compares ints, and a
Fraction appears only in the returned norm.  Coordinates run last to first,
each level from its nearest value outwards, inside the shrinking bound.
Always h_a = q2(a)/2 mod 1, and every value is rechecked against it.

The extremality score of a realization with N anyon types and rank c is
N c / 4 + N (N - 1) / 2 - 6 sum_a h_a; an extremal chiral algebra in its
genus makes this the smallest positive integer.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

from .lattices import discriminant_form
from .linalg import congruence, is_symmetric
from .metric_groups import BUDGET_DEFAULT, BudgetExceededError, InternalError

__all__ = [
    "coset_minima",
    "minimum_nonzero_norm",
    "extremality_score",
    "score_of_minima",
]

RANK_LIMIT = 20  # largest rank whose coset minima are enumerated


def _elimination(gram, caller, rank_limit=None):
    """`congruence(gram)` after the symmetry check and, when given, the rank
    limit; its inertia is also `caller`'s positive-definiteness check."""
    if not is_symmetric(gram):
        raise ValueError(f"{caller} requires a symmetric Gram matrix")
    if rank_limit is not None and len(gram) > rank_limit:
        raise BudgetExceededError(
            f"coset enumeration ({caller}): rank {len(gram)} exceeds the fixed limit RANK_LIMIT = {rank_limit}; "
            "no flag raises it"
        )
    elim = congruence(gram)
    if elim.inertia[0] != len(gram):
        raise ValueError(f"{caller} requires a positive-definite Gram matrix")
    return elim


class _Search:
    """Integer Fincke-Pohst over the minors of one positive-definite
    elimination: `minimum(z, den)` is min over integer x of
    (z + den x)^T K (z + den x) / den^2."""

    def __init__(self, elim):
        minors = elim.minors()
        self.tails = [tail for _, _, tail in minors]
        self.diag = [minor for minor, _, _ in minors]
        self.scale = lcm(*(minor * stamp for minor, stamp, _ in minors))
        self.weight = [self.scale // (minor * stamp) for minor, stamp, _ in minors]

    def minimum(self, z, den, exclude_zero=False) -> Fraction | None:
        """The norm; with `exclude_zero` (z = 0 only), over x != 0, which
        is None for rank 0."""
        diag, tails, weight = self.diag, self.tails, self.weight
        t = list(z)  # t_j = z_j + den x_j on the levels fixed so far
        best = None

        def descend(i, partial, on_zero):
            nonlocal best
            d = diag[i]
            a, w = d * den, weight[i]
            r = d * z[i] + sum(b * t[j] for j, b in tails[i])
            base = -((2 * r + a) // (2 * a))  # |a base + r| <= a / 2
            if i == 0:
                # The squares grow away from base, so one value settles the leaf.
                if exclude_zero and on_zero and base == 0:
                    term = min((r + a) ** 2, (r - a) ** 2) * w
                else:
                    term = (a * base + r) ** 2 * w
                if best is None or partial + term < best:
                    best = partial + term
                return
            k = 0
            while True:
                hit = False
                for xi in (base,) if k == 0 else (base + k, base - k):
                    term = (a * xi + r) ** 2 * w
                    if best is None or partial + term < best:
                        hit = True
                        t[i] = z[i] + den * xi
                        descend(i - 1, partial + term, on_zero and xi == 0)
                # |a xi + r| grows with k on both sides, so once a ring misses
                # entirely nothing farther out can fit.
                if k > 0 and not hit:
                    break
                k += 1

        try:
            if diag:
                descend(len(diag) - 1, 0, True)
        finally:
            del descend  # break the self-reference through the closure cell
        return None if best is None else Fraction(best, den * den * self.scale)


def coset_minima(gram, budget: int = BUDGET_DEFAULT):
    """h_a for every dual coset a, keyed by coordinates in the discriminant
    generators; exact, with the q2 congruence rechecked on every value.  The
    rank limit is checked before the elimination, and the coset budget
    against |det K| from it, before the discriminant form is built."""
    elim = _elimination(gram, "coset_minima", RANK_LIMIT)
    if elim.det > budget:
        raise BudgetExceededError(
            f"coset enumeration (coset_minima): {elim.det} cosets exceed budget {budget}; raise it with --budget"
        )
    disc = discriminant_form(gram)
    search = _Search(elim)
    # Every coset center is an int vector over the exponent e.
    e, zcols, group = disc.exponent, disc.dual_num, disc.group
    out = {}
    for coeffs in itertools.product(*(range(k) for k in disc.invariant_factors)):
        if not any(coeffs):
            out[coeffs] = Fraction(0)
            continue
        z = [sum(c * col[i] for c, col in zip(coeffs, zcols) if c) for i in range(len(gram))]
        g = gcd(e, *z)
        h = search.minimum([v // g for v in z], e // g) / 2
        q = group.q(coeffs)
        if (h - q) % 1 != 0:
            raise InternalError(f"h = {h} incompatible with q2/2 = {q} at {coeffs}")
        out[coeffs] = h
    return out


def minimum_nonzero_norm(gram) -> Fraction:
    """Norm of a shortest nonzero lattice vector (exact enumeration)."""
    elim = _elimination(gram, "minimum_nonzero_norm")
    return _Search(elim).minimum([0] * len(gram), 1, exclude_zero=True)


def extremality_score(gram, budget: int = BUDGET_DEFAULT) -> Fraction:
    """N c / 4 + N (N - 1) / 2 - 6 sum_a h_a with N anyon types, c = rank."""
    return score_of_minima(coset_minima(gram, budget=budget), len(gram))


def score_of_minima(minima, c: int) -> Fraction:
    """The extremality score from a `coset_minima` table and the rank c."""
    n_types = len(minima)
    total = sum(minima.values(), Fraction(0))
    return Fraction(n_types * c, 4) + Fraction(n_types * (n_types - 1), 2) - 6 * total
