"""Topological symmetry groups Aut(A, q): exhaustive enumeration plus the
closed-form orders, with conservative structure identification.

An automorphism is a group isomorphism of A preserving q; it is recorded as
the tuple of generator images.  `aut_bruteforce` collects every isometry of
(A, q) onto itself from `metric_groups._isometries`, the same search that
`is_isomorphic` runs, and is the oracle that cross-validates
`aut_order_closed`.

A structure name is attached only when it can be certified on the element
table itself: cyclic/elementary-abelian cases by order census, dihedral-type
groups by exhibiting an abelian index-2 subgroup inverted by an outside
involution, and the order-24 case by a normal D6 plus a splitting involution.
"""

from __future__ import annotations

from dataclasses import dataclass

from .metric_groups import (
    BudgetExceededError,
    MetricGroup,
    PrimeFamilySpec,
    _isometries,
)

__all__ = ["AutGroup", "aut_bruteforce", "aut_order_closed"]

AUT_BUDGET_DEFAULT = 4096

Morphism = tuple[tuple[int, ...], ...]  # generator images


@dataclass(frozen=True)
class AutGroup:
    group: MetricGroup
    elements: tuple[Morphism, ...]
    structure_name: str | None

    @property
    def order(self) -> int:
        return len(self.elements)

    def apply(self, phi: Morphism, x) -> tuple[int, ...]:
        g = self.group
        out = tuple(0 for _ in g.orders)
        for coeff, image in zip(x, phi):
            if coeff:
                out = g.add(out, tuple((coeff * c) % n for c, n in zip(image, g.orders)))
        return out

    def compose(self, phi: Morphism, psi: Morphism) -> Morphism:
        """phi after psi."""
        return tuple(self.apply(phi, image) for image in psi)

    def identity(self) -> Morphism:
        k = len(self.group.orders)
        return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


def aut_bruteforce(g: MetricGroup, budget: int = AUT_BUDGET_DEFAULT) -> AutGroup:
    """All q-preserving automorphisms: every isometry g -> g."""
    if g.size > budget:
        raise BudgetExceededError(f"group of order {g.size} exceeds aut budget {budget}")
    if not g.orders:
        return AutGroup(g, ((),), "1")
    elements = tuple(sorted(_isometries(g, g)))
    aut = AutGroup(g, elements, None)
    return AutGroup(g, elements, _identify_structure(aut))


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


def _element_order(aut: AutGroup, phi: Morphism, limit: int) -> int:
    ident = aut.identity()
    power = phi
    for n in range(1, limit + 1):
        if power == ident:
            return n
        power = aut.compose(power, phi)
    raise ValueError("element order exceeds group order")


def _inverse(aut: AutGroup, phi: Morphism) -> Morphism:
    ident = aut.identity()
    power = phi
    prev = ident
    while power != ident:
        prev = power
        power = aut.compose(power, phi)
    return prev


def _is_abelian(aut: AutGroup) -> bool:
    els = aut.elements
    return all(
        aut.compose(a, b) == aut.compose(b, a) for i, a in enumerate(els) for b in els[i + 1:]
    )


def _subgroup_generated(aut: AutGroup, gens) -> set[Morphism]:
    seen = set(gens) | {aut.identity()}
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for gph in gens:
            for y in (aut.compose(x, gph), aut.compose(gph, x)):
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return seen


def _abelian_invariants_small(orders_census: dict[int, int], size: int):
    """Invariant factors of an abelian 2-group of the shapes met here."""
    # Distinguish Z2 x Z_{2^m} from other order-2^{m+1} abelian groups by the
    # exponent and the number of involutions.
    exponent = max(orders_census)
    involutions = orders_census.get(2, 0)
    if size == exponent:
        return (size,)
    if size == 2 * exponent and involutions == 3:
        return (2, exponent)
    return None


def _dihedral_over(aut: AutGroup, rotation_order: int) -> Morphism | None:
    """An element a of the given order inverted by an outside involution,
    generating the whole group together with it."""
    n = aut.order
    for a in aut.elements:
        if _element_order(aut, a, n) != rotation_order:
            continue
        a_inv = _inverse(aut, a)
        for t in aut.elements:
            if _element_order(aut, t, n) != 2:
                continue
            if aut.compose(aut.compose(t, a), t) != a_inv:
                continue
            if len(_subgroup_generated(aut, [a, t])) == n:
                return a
    return None


def _identify_structure(aut: AutGroup) -> str | None:
    n = aut.order
    if n == 1:
        return "1"
    census: dict[int, int] = {}
    for phi in aut.elements:
        o = _element_order(aut, phi, n)
        census[o] = census.get(o, 0) + 1
    if _is_abelian(aut):
        if n == 2:
            return "Z2"
        if census.get(2, 0) == n - 1:
            # Elementary abelian 2-group; report Z2 x ... per size.
            if n == 4:
                return "Z2xZ2"
            if n == 8:
                # Matches the generalized-dihedral picture with trivial action.
                return "(Z2xZ2):Z2" if _generalized_dihedral_name(aut, census) else "Z2xZ2xZ2"
        name = _generalized_dihedral_name(aut, census)
        if name:
            return name
        return None
    if n == 6 and _dihedral_over(aut, 3):
        return "D3"
    if n == 12 and _dihedral_over(aut, 6):
        return "D6"
    if n == 24:
        return _certify_d6_extension(aut)
    name = _generalized_dihedral_name(aut, census)
    if name:
        return name
    return None


def _generalized_dihedral_name(aut: AutGroup, census) -> str | None:
    """Certify G = Dih(H) with H = Z2 x Z_{2^m}: abelian index-2 subgroup of
    that shape, inverted elementwise by an involution outside it."""
    n = aut.order
    if n % 2 or n < 8 or n & (n - 1):
        return None
    half = n // 2
    exponent = max(census)
    if exponent * 2 != half and exponent != half and exponent * 4 != n:
        return None
    for a in aut.elements:
        if _element_order(aut, a, n) != n // 4:
            continue
        cyc = _subgroup_generated(aut, [a])
        for z in aut.elements:
            if _element_order(aut, z, n) != 2 or z in cyc:
                continue
            if aut.compose(a, z) != aut.compose(z, a):
                continue
            h = _subgroup_generated(aut, [a, z])
            if len(h) != half:
                continue
            h_census: dict[int, int] = {}
            for x in h:
                o = _element_order(aut, x, n)
                h_census[o] = h_census.get(o, 0) + 1
            if _abelian_invariants_small(h_census, half) != (2, n // 4):
                continue
            for t in aut.elements:
                if t in h or _element_order(aut, t, n) != 2:
                    continue
                if all(aut.compose(aut.compose(t, x), t) == _inverse(aut, x) for x in h):
                    return f"(Z2xZ{n // 4}):Z2"
    return None


def _certify_d6_extension(aut: AutGroup) -> str | None:
    """Order 24: normal D6 subgroup plus an outside involution splits G."""
    n = aut.order
    for a in aut.elements:
        if _element_order(aut, a, n) != 6:
            continue
        a_inv = _inverse(aut, a)
        for t in aut.elements:
            if _element_order(aut, t, n) != 2:
                continue
            if aut.compose(aut.compose(t, a), t) != a_inv:
                continue
            d6 = _subgroup_generated(aut, [a, t])
            if len(d6) != 12:
                continue
            for s in aut.elements:
                if s not in d6 and _element_order(aut, s, n) == 2:
                    return "D6:Z2"
    return None
