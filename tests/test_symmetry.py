import itertools
import random

import pytest

from anyonlat.cli import parse_spec
from anyonlat.metric_groups import (
    BudgetExceededError,
    InternalError,
    MetricGroup,
    PrimeFamilySpec,
    _isometries,
    build_prime,
    direct_sum,
    is_isomorphic,
    is_nondegenerate,
)
from anyonlat.symmetry import AutGroup, aut_bruteforce, aut_order_closed


def brute(fam, p, r, budget=4096):
    return aut_bruteforce(build_prime(PrimeFamilySpec(fam, p, r)), budget=budget)


def test_order_examples():
    assert brute("A", 2, 1).order == 1
    assert brute("F", 2, 1).order == 6
    assert brute("E", 2, 2).order == 4


def test_closed_form_examples():
    assert aut_order_closed(PrimeFamilySpec("A", 7, 3)) == (2, "Z2")
    assert aut_order_closed(PrimeFamilySpec("F", 2, 4)) == (48, None)
    assert aut_order_closed(PrimeFamilySpec("E", 2, 3)) == (8, "(Z2xZ2):Z2")


def test_structure_names():
    assert brute("F", 2, 1).structure_name == "D3"
    assert brute("F", 2, 2).structure_name == "D6"
    assert brute("F", 2, 3).structure_name == "D6:Z2"
    assert brute("E", 2, 1).structure_name == "Z2"
    assert brute("E", 2, 2).structure_name == "Z2xZ2"
    assert brute("E", 2, 4).structure_name == "(Z2xZ4):Z2"


def test_group_axioms_and_q_preservation():
    for fam, p, r in (("F", 2, 2), ("E", 2, 3), ("B", 5, 1)):
        g = build_prime(PrimeFamilySpec(fam, p, r))
        aut = aut_bruteforce(g)
        elements = set(aut.elements)
        assert aut.identity() in elements
        for phi in aut.elements:
            # q is preserved on the entire element table, not just generators.
            for x in g.elements():
                assert g.q(aut.apply(phi, x)) == g.q(x)
            assert any(aut.compose(phi, psi) == aut.identity() for psi in aut.elements)
            for psi in aut.elements:
                assert aut.compose(phi, psi) in elements


def test_e_family_commutativity_split():
    # The inversion action is trivial below r = 4, nontrivial from r = 4 on.
    def abelian(aut: AutGroup) -> bool:
        els = aut.elements
        return all(aut.compose(a, b) == aut.compose(b, a) for a in els for b in els)

    assert abelian(brute("E", 2, 2))
    assert abelian(brute("E", 2, 3))
    assert not abelian(brute("E", 2, 4))
    assert not abelian(brute("E", 2, 5))


def test_budget():
    g = build_prime(PrimeFamilySpec("A", 23, 3))
    with pytest.raises(BudgetExceededError, match=r"^automorphism search \(aut_bruteforce\): "
                       r"group of order 12167 exceeds budget 4096; raise it with --budget$"):
        aut_bruteforce(g, budget=4096)


@pytest.mark.parametrize("search", [lambda g, budget: is_isomorphic(g, g, budget), aut_bruteforce],
                         ids=["is_isomorphic", "aut_bruteforce"])
def test_search_past_its_budget_refuses_before_listing_candidates(monkeypatch, search):
    """Both searches compare |A| with the budget before `_candidates` lists
    the images of any generator, so a refused search allocates nothing per
    element.  E[2^6] is Z64 x Z64, non-cyclic, so no closed form settles it."""
    import anyonlat.metric_groups
    import anyonlat.symmetry

    def refuse(*args):
        raise AssertionError("candidates listed")

    monkeypatch.setattr(anyonlat.metric_groups, "_candidates", refuse)
    monkeypatch.setattr(anyonlat.symmetry, "_candidates", refuse)
    g = build_prime(PrimeFamilySpec("E", 2, 6))
    with pytest.raises(BudgetExceededError, match=f"group of order {g.size} exceeds budget {g.size - 1}"):
        search(g, budget=g.size - 1)


def test_nonprime_group_aut():
    # Semion x semion: the two factors can be swapped, nothing else.
    s = build_prime(PrimeFamilySpec("A", 2, 1))
    aut = aut_bruteforce(direct_sum(s, s))
    assert aut.order == 2


def test_witness_is_the_first_automorphism():
    # One search serves both: is_isomorphic(g, g) stops at the first isometry
    # it yields, aut_bruteforce keeps all of them, and the search runs in
    # lexicographic order of the image tuples.
    for fam, p, r in (("E", 2, 2), ("F", 2, 2), ("E", 2, 3), ("F", 2, 1)):
        g = build_prime(PrimeFamilySpec(fam, p, r))
        assert is_isomorphic(g, g) == aut_bruteforce(g).elements[0]


def listing(g):
    """Every automorphism, one by one: the oracle the chain's count is held to."""
    return sorted(_isometries(g, g))


def assert_chain_matches_listing(g):
    aut = aut_bruteforce(g)
    want = listing(g)
    assert aut.order == len(want)
    assert set(aut.elements) == set(want)


# Factors of the seeded products below: every product of two or three of them
# with |A| <= 256 and three to five invariant factors.  Six invariant factors
# (Z2^6) give orders of 40320 and more, past what the listing can check; those
# are held to the orders of the orthogonal groups instead.
PRODUCT_FACTORS = ("A[2]", "B[2]", "A[2^2]", "B[2^2]", "C[2^2]", "D[2^2]", "A[2^3]",
                   "A[3]", "B[3]", "A[5]", "E[2]", "F[2]", "E[2^2]", "F[2^2]")


def seeded_products(seed, count):
    pool = []
    for k in (2, 3):
        for combo in itertools.combinations_with_replacement(PRODUCT_FACTORS, k):
            text = "*".join(combo)
            g = parse_spec(text)
            if g.size <= 256 and 3 <= len(g.orders) <= 5:
                pool.append(text)
    return random.Random(seed).sample(pool, count)


@pytest.mark.parametrize("text", [
    "E[2]*E[2]", "E[2]*F[2]", "A[2]*A[2]*A[2]", "B[2^2]*B[2^2]", "E[2^2]*F[2]",
    "A[2]*B[2]*C[2^2]*D[2^2]", "A[2]*A[2]*A[2]*A[2]*A[2]", "F[2^2]*E[2^2]",
] + seeded_products(2718, 10))
def test_chain_order_and_closure_match_the_listing_on_products(text):
    assert_chain_matches_listing(parse_spec(text))


def test_chain_order_and_closure_match_the_listing_on_prime_families():
    specs = [PrimeFamilySpec(fam, p, r) for fam in "AB" for p in (3, 5, 7, 11, 13, 17, 19, 23)
             for r in (1, 2, 3) if p**r <= 4096]
    specs += [PrimeFamilySpec(fam, 2, r) for fam in "ABCD" for r in range(2 if fam in "CD" else 1, 9)]
    specs += [PrimeFamilySpec("E", 2, r) for r in range(1, 7)]
    specs += [PrimeFamilySpec("F", 2, r) for r in range(1, 6)]
    for spec in specs:
        g = build_prime(spec)
        assert g.size <= 4096
        assert_chain_matches_listing(g)


def orthogonal_order(n, sign):
    """|O^sign(2n, 2)|, the isometries of a nondegenerate quadratic form on
    F_2^{2n} of Witt index n (sign +1) or n - 1 (sign -1)."""
    out = 2 * 2 ** (n * (n - 1)) * (2**n - sign)
    for i in range(1, n):
        out *= 4**i - 1
    return out


@pytest.mark.parametrize("text, n, sign", [
    ("E[2]", 1, 1), ("F[2]", 1, -1), ("E[2]*E[2]", 2, 1), ("E[2]*F[2]", 2, -1),
    ("E[2]*E[2]*E[2]", 3, 1), ("E[2]*E[2]*F[2]", 3, -1),
    ("E[2]*E[2]*E[2]*E[2]", 4, 1), ("E[2]*E[2]*E[2]*F[2]", 4, -1),
])
def test_chain_order_of_toric_and_fermion_sums_is_the_orthogonal_group_order(text, n, sign):
    # E[2] + E[2] = F[2] + F[2], so the sign is (-1)^(number of F[2] factors).
    aut = aut_bruteforce(parse_spec(text))
    assert aut.order == orthogonal_order(n, sign)
    if aut.order > 24:
        # No rule names these orders, so no element table was built.
        assert aut.structure_name is None and "elements" not in vars(aut)


def test_power_of_two_order_without_a_long_enough_orbit_builds_no_table(monkeypatch):
    """|Aut(E[4] + E[8])| = 8192.  The one name a 2-group of that order could
    get, Dih(Z2 x Z2048), needs an element of order 2048, but no generator
    has an orbit that long, so the element table is never built."""
    import anyonlat.symmetry

    def refuse(*args):
        raise AssertionError("element table built")

    monkeypatch.setattr(anyonlat.symmetry, "_subgroup_generated", refuse)
    aut = aut_bruteforce(parse_spec("E[2^2]*E[2^3]"))
    assert (aut.order, aut.structure_name) == (8192, None)


def test_prefix_fixes_the_first_images():
    for text in ("E[2]*F[2]", "A[2]*A[2^2]*A[2^2]", "F[2^2]"):
        g = parse_spec(text)
        full = listing(g)
        for m in range(1, len(g.orders) + 1):
            for head in sorted({phi[:m] for phi in full}):
                want = [phi for phi in full if phi[:m] == head]
                assert list(_isometries(g, g, head)) == want
        # An image of the wrong order (here the identity element) fits nothing.
        zero = (0,) * len(g.orders)
        assert list(_isometries(g, g, (zero,))) == []


def test_closure_must_reach_the_chain_order():
    g = parse_spec("E[2]*F[2]")
    aut = aut_bruteforce(g)
    assert len(aut.elements) == 120
    with pytest.raises(InternalError, match="witnesses generate 120 automorphisms, the stabilizer chain counts 60"):
        AutGroup(g, 60, aut.witnesses).elements


def test_nondegenerate_groups_skip_the_generation_check(monkeypatch):
    """A map preserving chi on a nondegenerate form is injective, so once
    `is_nondegenerate` has answered, no complete map runs `_order_index`, and
    the listing is the one the check would let through."""
    import anyonlat.metric_groups

    groups = [parse_spec(text) for text in ("E[2]*F[2]", "A[2]*A[2^2]*A[2^2]", "A[2]*B[2]*C[2^2]*D[2^2]")]
    for g in groups:
        checked = MetricGroup(g.orders, g.level, g.gen_q_num, g.gen_bil_num)  # nondegeneracy not yet known
        assert list(_isometries(g, g)) == list(_isometries(checked, checked))
    known = parse_spec("F[2^2]*E[2^2]")
    checked = MetricGroup((2, 2), 2, (0, 0), ((0, 1), (1, 0)))

    calls = []
    order_index = anyonlat.metric_groups._order_index

    def counting(*args):
        calls.append(args)
        return order_index(*args)

    monkeypatch.setattr(anyonlat.metric_groups, "_order_index", counting)
    for g in groups:
        assert list(_isometries(g, g))
    assert aut_bruteforce(known).order == 7680
    assert calls == []
    # is_nondegenerate settles E[2] with one call, and no complete map adds one.
    assert aut_bruteforce(checked).order == 2
    assert len(calls) == 1


def test_degenerate_groups_keep_the_generation_check():
    # chi vanishes on Z2 x Z2, so e_1, e_2 -> x, x preserves q and chi but is
    # not a bijection; only the 6 elements of GL(2, 2) are isometries.
    g = MetricGroup((2, 2), 1, (0, 0), ((0, 0), (0, 0)))
    assert not is_nondegenerate(g)
    assert len(list(_isometries(g, g))) == 6
