import pytest

from anyonlat.metric_groups import (
    BudgetExceededError,
    PrimeFamilySpec,
    build_prime,
    direct_sum,
    is_isomorphic,
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
    with pytest.raises(BudgetExceededError):
        aut_bruteforce(g, budget=4096)


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
