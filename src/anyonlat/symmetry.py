"""Topological symmetry groups Aut(A, q): a count by search plus the
closed-form orders, with conservative structure identification.

An automorphism is a group isomorphism of A preserving q; it is recorded as
the tuple of generator images.  `aut_bruteforce` counts Aut down a stabilizer
chain: |Aut| is the product of the orbit lengths of the generators e_i under
the automorphisms fixing e_1..e_{i-1}, and each orbit is found with
first-hit queries to `metric_groups._isometries`, the same search that
`is_isomorphic` runs.  Its count is the oracle that cross-validates
`aut_order_closed`; the tests hold it to the full listing of that search.

A structure name is attached only when it can be certified on the element
table itself: cyclic/elementary-abelian cases by order census, dihedral-type
groups by exhibiting an abelian index-2 subgroup inverted by an outside
involution, and the order-24 case by a normal D6 plus a splitting involution.
No rule covers an order other than 6, 12, 24 or a power of 2, so for those
the table, the closure of the chain's witnesses, is never built; nor for a
power of 2 whose group has too short orbits to hold the one name it could get.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from operator import mul

from .metric_groups import (
    BUDGET_DEFAULT,
    BudgetExceededError,
    InternalError,
    MetricGroup,
    PrimeFamilySpec,
    _candidates,
    _isometries,
    is_nondegenerate,
)

__all__ = ["AutGroup", "aut_bruteforce", "aut_order_closed"]

Morphism = tuple[tuple[int, ...], ...]  # generator images


@dataclass(frozen=True)
class AutGroup:
    """Aut(A, q) as its order and a generating set of witnesses.

    The element table and the structure name are derived on first use."""

    group: MetricGroup
    order: int
    witnesses: tuple[Morphism, ...]

    @cached_property
    def elements(self) -> tuple[Morphism, ...]:
        """Every automorphism, sorted: the closure of the witnesses."""
        closure = _subgroup_generated(self, self.witnesses)
        if len(closure) != self.order:
            raise InternalError(
                f"witnesses generate {len(closure)} automorphisms, the stabilizer chain counts {self.order}"
            )
        return tuple(sorted(closure))

    @cached_property
    def structure_name(self) -> str | None:
        return _identify_structure(self)

    def apply(self, phi: Morphism, x) -> tuple[int, ...]:
        return _apply(self.group.orders, phi, x)

    def compose(self, phi: Morphism, psi: Morphism) -> Morphism:
        """phi after psi."""
        orders = self.group.orders
        return tuple(_apply(orders, phi, x) for x in psi)

    def identity(self) -> Morphism:
        return _basis(len(self.group.orders))


def _apply(orders, phi: Morphism, x) -> tuple[int, ...]:
    """phi(x) = sum_i x_i phi(e_i), reduced once per coordinate."""
    return tuple(sum(map(mul, x, row)) % n for row, n in zip(zip(*phi), orders))


@cache
def _basis(k: int) -> Morphism:
    """(e_1, .., e_k), the identity's generator images."""
    return tuple(tuple(int(i == j) for j in range(k)) for i in range(k))


def aut_bruteforce(g: MetricGroup, budget: int = BUDGET_DEFAULT) -> AutGroup:
    """Aut(A, q) by search, its structure named where a rule can certify one."""
    if g.size > budget:
        raise BudgetExceededError(
            f"automorphism search (aut_bruteforce): group of order {g.size} exceeds budget {budget}; "
            "raise it with --budget"
        )
    aut = AutGroup(g, *_stabilizer_chain(g))
    aut.structure_name  # certified here, so the time of naming counts as this call's
    return aut


def _stabilizer_chain(g: MetricGroup) -> tuple[int, tuple[Morphism, ...]]:
    """|Aut| and a generating set of witnesses, down a stabilizer chain.

    With G_i the automorphisms fixing e_1..e_i, |Aut| is the product over i of
    the orbit lengths of e_i under G_{i-1}.  A candidate x for e_i lies in that
    orbit iff chi(x, e_j) = chi(e_i, e_j) for j < i and some isometry extends
    the images (e_1, .., e_{i-1}, x): one first-hit `_isometries` query.

    The levels run from the last generator up, so every witness found so far
    lies in G_{i-1}.  A candidate in the orbit of e_i under them needs no
    query; a hit becomes a witness and the orbit is closed again; a miss rules
    out the whole orbit of x under them.  The witnesses of levels i..k
    generate G_{i-1} (Seress, Permutation Group Algorithms, 2003, ch. 4), so
    all of them generate Aut.
    """
    basis = _basis(len(g.orders))
    pools = _candidates(g, g)
    is_nondegenerate(g)  # once per group; a nondegenerate g spares every query the generation check
    order = 1
    witnesses: list[Morphism] = []
    level, bil = g.level, g.gen_bil_num
    for i in reversed(range(len(pools))):
        orbit = _orbit(g, basis[i], witnesses)
        missed: set[tuple[int, ...]] = set()
        for x in pools[i]:
            if x in orbit or x in missed:
                continue
            if any(sum(map(mul, x, bil[j])) % level != bil[i][j] for j in range(i)):
                continue  # chi(x, e_j) != chi(e_i, e_j): no map fixing e_j sends e_i to x
            phi = next(_isometries(g, g, basis[:i] + (x,), pools), None)
            if phi is None:
                missed |= _orbit(g, x, witnesses)
            else:
                witnesses.append(phi)
                orbit = _orbit(g, basis[i], witnesses)
        order *= len(orbit)
    return order, tuple(witnesses)


def _orbit(g: MetricGroup, x, gens) -> set[tuple[int, ...]]:
    """The orbit of x under the group the automorphisms gens generate."""
    orbit = {x}
    frontier = [x]
    while frontier:
        y = frontier.pop()
        for w in gens:
            z = _apply(g.orders, w, y)
            if z not in orbit:
                orbit.add(z)
                frontier.append(z)
    return orbit


def aut_order_closed(spec: PrimeFamilySpec) -> tuple[int, str | None]:
    """(order, structure name) of Aut for a prime family.

    For F_{2^r} with r >= 4 only the order 3 * 2^r is known, so the name is
    left unset there.
    """
    fam, p, r = spec.family, spec.p, spec.r
    if fam in "AB" and p != 2:
        return 2, "Z2"
    if fam in "AB" and r == 1:
        return 1, "1"
    if fam in "ABCD":
        return 2, "Z2"
    if fam == "E":
        if r == 1:
            return 2, "Z2"
        if r == 2:
            return 4, "Z2xZ2"
        return 2**r, f"(Z2xZ{2 ** (r - 2)}):Z2"
    # F
    if r == 1:
        return 6, "D3"
    if r == 2:
        return 12, "D6"
    if r == 3:
        return 24, "D6:Z2"
    return 3 * 2**r, None


# ---------------------------------------------------------------------------
# structure certification


def _order_and_inverse(aut: AutGroup, phi: Morphism, limit: int) -> tuple[int, Morphism]:
    """phi's order and inverse off one walk of its powers: the inverse is the
    last power before the identity."""
    ident = aut.identity()
    prev, power = ident, phi
    for n in range(1, limit + 1):
        if power == ident:
            return n, prev
        prev, power = power, aut.compose(power, phi)
    raise ValueError("element order exceeds group order")


def _subgroup_generated(aut: AutGroup, gens) -> set[Morphism]:
    """Closure of gens under composition; in a finite group every element
    is a word in the generators, so right multiplication alone reaches it."""
    seen = set(gens) | {aut.identity()}
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for gph in gens:
            y = aut.compose(x, gph)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def _dihedral_subgroups(aut: AutGroup, orders, inverses, rotation_order: int):
    """Each subgroup <a, t> of order 2 * rotation_order, with a of order
    rotation_order inverted by an involution t."""
    for a in aut.elements:
        if orders[a] != rotation_order:
            continue
        a_inv = inverses[a]
        for t in aut.elements:
            if orders[t] != 2 or aut.compose(aut.compose(t, a), t) != a_inv:
                continue
            h = _subgroup_generated(aut, [a, t])
            if len(h) == 2 * rotation_order:
                yield h


def _identify_structure(aut: AutGroup) -> str | None:
    n = aut.order
    if n <= 2:
        return "1" if n == 1 else "Z2"
    if n & (n - 1) and n not in (6, 12, 24):
        # No rule certifies any other order: leave the element table unbuilt.
        return None
    if n >= 8 and not n & (n - 1):
        # Only Dih(Z2 x Z_{n/4}) is named at these orders, and it has an
        # element of order n/4.  In a 2-group an element's order is the
        # longest of its orbits on the generators, and each of those lies in
        # an orbit of the whole group: when all are shorter, no table.
        if max(len(_orbit(aut.group, e, aut.witnesses)) for e in aut.identity()) < n // 4:
            return None
    orders, inverses = {}, {}
    for phi in aut.elements:
        orders[phi], inverses[phi] = _order_and_inverse(aut, phi, n)
    if n == 6 or n == 12:
        # D3 or D6: the whole group is dihedral.
        if next(_dihedral_subgroups(aut, orders, inverses, n // 2), None) is None:
            return None
        return "D3" if n == 6 else "D6"
    if n == 24:
        # D6:Z2: a D6 subgroup (index 2, so normal) and an involution outside it.
        involutions = [s for s, o in orders.items() if o == 2]
        for d6 in _dihedral_subgroups(aut, orders, inverses, 6):
            if any(s not in d6 for s in involutions):
                return "D6:Z2"
        return None
    if n == 4:
        return "Z2xZ2" if sum(o == 2 for o in orders.values()) == 3 else None
    # An elementary abelian group of order 8 is Dih(Z2 x Z2) with trivial action.
    return _generalized_dihedral_name(aut, orders, inverses)


def _generalized_dihedral_name(aut: AutGroup, orders, inverses) -> str | None:
    """Certify G = Dih(H) with H = Z2 x Z_{2^m}, |G| >= 8 a power of 2: an
    abelian index-2 subgroup of that shape, inverted elementwise by an
    involution outside it."""
    n = aut.order
    half = n // 2
    if max(orders.values()) not in (n // 4, half):
        return None
    for a in aut.elements:
        if orders[a] != n // 4:
            continue
        cyc = _subgroup_generated(aut, [a])
        for z in aut.elements:
            if orders[z] != 2 or z in cyc:
                continue
            if aut.compose(a, z) != aut.compose(z, a):
                continue
            h = _subgroup_generated(aut, [a, z])
            if len(h) != half:
                continue
            # h = <a, z> is abelian of order n/2; it is Z2 x Z_{n/4} iff its
            # exponent is n/4 and it has exactly three involutions.
            h_census = Counter(orders[x] for x in h)
            if max(h_census) != n // 4 or h_census[2] != 3:
                continue
            for t in aut.elements:
                if t in h or orders[t] != 2:
                    continue
                if all(aut.compose(aut.compose(t, x), t) == inverses[x] for x in h):
                    return f"(Z2xZ{n // 4}):Z2"
    return None
