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
from operator import mul

from .lattices import discriminant_form
from .linalg import congruence, has_even_diagonal
from .metric_groups import BUDGET_DEFAULT, BudgetExceededError, InternalError

__all__ = [
    "coset_minima",
    "extremality_score",
    "score_of_minima",
]

RANK_LIMIT = 20  # largest rank whose coset minima are enumerated
# Search nodes (values tried for one coordinate) that one `coset_minima`
# call may use over all its cosets; a badly reduced basis can need
# unboundedly many.
NODE_BUDGET = 2_000_000


class _Search:
    """Integer Fincke-Pohst over the minors of one positive-definite
    elimination: `minimum(z, den)` is min over integer x of
    (z + den x)^T K (z + den x) / den^2.  A node is a value tried for one
    coordinate; all its calls together try at most NODE_BUDGET of them, and
    past that it raises a budget error.  Each level adds its count once its
    rings are done, so a leaf costs nothing extra."""

    def __init__(self, elim):
        self.nodes_left = NODE_BUDGET
        minors = elim.minors()
        # the columns j > i and the minors b_ij of each level's tail
        self.cols = [[j for j, _ in tail] for _, _, tail in minors]
        self.coefs = [[b for _, b in tail] for _, _, tail in minors]
        self.diag = [minor for minor, _, _ in minors]
        self.scale = lcm(*(minor * stamp for minor, stamp, _ in minors))
        self.weight = [self.scale // (minor * stamp) for minor, stamp, _ in minors]

    def minimum(self, z, den) -> Fraction:
        """The norm, at rank >= 1."""
        diag, cols, coefs, weight = self.diag, self.cols, self.coefs, self.weight
        t = list(z)  # t_j = z_j + den x_j on the levels fixed so far
        fixed = t.__getitem__
        best = None
        left = self.nodes_left

        def descend(i, partial):
            nonlocal best, left
            d = diag[i]
            a, w = d * den, weight[i]
            r = d * z[i] + sum(map(mul, coefs[i], map(fixed, cols[i])))
            base = -((2 * r + a) // (2 * a))  # |a base + r| <= a / 2
            if i == 0:
                # The squares grow away from base, so one value settles the leaf.
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
                        descend(i - 1, partial + term)
                # |a xi + r| grows with k on both sides, so once a ring misses
                # entirely nothing farther out can fit.
                if k > 0 and not hit:
                    break
                k += 1
            # Rings 0..k held the 2k + 1 values tried here, each a node.
            left -= 2 * k + 1
            if left < 0:
                raise BudgetExceededError(
                    f"lattice search (coset_minima): {NODE_BUDGET - left} nodes exceed the fixed node budget "
                    f"NODE_BUDGET = {NODE_BUDGET}; no flag raises it"
                )

        try:
            descend(len(diag) - 1, 0)
        finally:
            del descend  # break the self-reference through the closure cell
        self.nodes_left = left
        return Fraction(best, den * den * self.scale)


def coset_minima(gram, budget: int = BUDGET_DEFAULT):
    """h_a for every dual coset a, keyed by coordinates in the discriminant
    generators; exact, with the q2 congruence rechecked on every value.  The
    rank limit is checked before the elimination, and the coset budget
    against |det K| from it and evenness before the discriminant form."""
    if len(gram) > RANK_LIMIT:
        raise BudgetExceededError(
            f"coset enumeration (coset_minima): rank {len(gram)} exceeds the fixed limit RANK_LIMIT = {RANK_LIMIT}; "
            "no flag raises it"
        )
    elim = congruence(gram)  # which refuses a non-symmetric matrix
    if elim.inertia[0] != len(gram):
        raise ValueError("coset_minima requires a positive-definite Gram matrix")
    if elim.det > budget:
        raise BudgetExceededError(
            f"coset enumeration (coset_minima): {elim.det} cosets exceed budget {budget}; raise it with --budget"
        )
    if not has_even_diagonal(gram):
        raise ValueError("Gram matrix must be even (all diagonal entries even)")
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


def extremality_score(gram, budget: int = BUDGET_DEFAULT) -> Fraction:
    """N c / 4 + N (N - 1) / 2 - 6 sum_a h_a with N anyon types, c = rank."""
    return score_of_minima(coset_minima(gram, budget=budget), len(gram))


def score_of_minima(minima, c: int) -> Fraction:
    """The extremality score from a `coset_minima` table and the rank c."""
    n_types = len(minima)
    total = sum(minima.values(), Fraction(0))
    return Fraction(n_types * c, 4) + Fraction(n_types * (n_types - 1), 2) - 6 * total
