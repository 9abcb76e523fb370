import gc
import hashlib
import inspect
import random

import pytest
from reference_matrices import (
    disguised,
    glue_generators_search_oracle,
    glued_lattice_oracle,
    shortest_nonzero_norm,
    span_with,
)

import anyonlat.gluing as gluing
from anyonlat.cli import main
from anyonlat.gluing import (
    GLUE_SEARCH_NODE_BUDGET,
    GlueSearchError,
    anti_isometry_mod,
    build_ef_positive,
    conjugate_realization,
    default_ef_input,
    glue_selfdual_8,
    orthogonal_complement,
)
from anyonlat.lattices import (
    cartan_a,
    cartan_d,
    discriminant_form,
    e7_gram,
    e8_gram,
    k_e,
    k_o,
    verify_realization,
)
from anyonlat.linalg import (
    block_diagonal,
    determinant,
    has_even_diagonal,
    is_positive_definite,
    mat_mul,
    smith_normal_form,
)
from anyonlat.metric_groups import (
    BudgetExceededError,
    PrimeFamilySpec,
    build_prime,
    conjugate,
    direct_sum,
    is_isomorphic,
)
from anyonlat.symmetry import aut_bruteforce
from anyonlat.weights import coset_minima


def model(fam, p, r):
    return build_prime(PrimeFamilySpec(fam, p, r))


class TestAntiIsometry:
    @pytest.mark.parametrize("n", list(range(1, 28)) + [32, 45, 64, 529])
    def test_negates_the_form(self, n):
        m = anti_isometry_mod(n)
        check = 2 * n if n % 2 == 0 else n
        for i in range(4):
            for j in range(4):
                dot = sum(m[k][i] * m[k][j] for k in range(4))
                assert (dot - (-1 if i == j else 0)) % check == 0


class TestGlueRankOne:
    def test_e8_from_rank_one(self):
        lam, _ = glued_lattice_oracle([[2]], glue_selfdual_8([[2]]))
        assert len(lam) == 8
        assert determinant(lam) == 1
        assert has_even_diagonal(lam)
        assert is_positive_definite(lam)
        assert shortest_nonzero_norm(lam) == 2  # the unique such lattice

    def test_complement_is_antisemion(self):
        from fractions import Fraction

        comp = orthogonal_complement(glue_selfdual_8([[2]]))
        assert len(comp) == 7
        assert determinant(comp) == 2
        assert has_even_diagonal(comp)
        assert is_positive_definite(comp)
        d = discriminant_form(comp)
        assert d.q2_gen == (Fraction(3, 2),)
        rep = verify_realization(comp, conjugate(model("A", 2, 1)))
        assert rep.passed


class TestGlueRankTwo:
    def test_su3_gluing(self):
        lam, first_copy = glued_lattice_oracle(cartan_a(2).gram, glue_selfdual_8(cartan_a(2).gram))
        assert len(lam) == 16
        assert determinant(lam) == 1
        assert has_even_diagonal(lam)
        # The first copy stays primitive: its quotient is torsion-free.
        assert smith_normal_form(first_copy).invariant_factors() == []

    def test_complement_realizes_a3(self):
        from fractions import Fraction

        comp = conjugate_realization(cartan_a(2).gram)
        assert len(comp) == 14
        assert determinant(comp) == 3
        d = discriminant_form(comp)
        assert d.q2_gen == (Fraction(4, 3),)
        assert verify_realization(comp, model("A", 3, 1)).passed


class TestGlueBasis:
    @pytest.mark.parametrize("base", [[[4]], [[6]], k_e(2).gram, cartan_a(5).gram], ids=["Z4", "Z6", "ke2", "a5"])
    def test_first_copy_coordinates_rebuild_the_ambient_rows(self, base):
        glued = glue_selfdual_8(base)
        _, first_copy = glued_lattice_oracle(base, glued)
        e, m = glued.base_disc.exponent, len(base)
        assert mat_mul(first_copy, glued.basis_rows) == [
            [e if j == i else 0 for j in range(8 * m)] for i in range(m)]


def pairwise_closure(span, vec, orders):
    """Reference span: add every new element to every element until closed."""
    new = set(span)
    frontier = [vec]
    while frontier:
        x = frontier.pop()
        for y in list(new):
            z = tuple((a + b) % n for a, b, n in zip(x, y, orders))
            if z not in new:
                new.add(z)
                frontier.append(z)
    return new


def test_coset_union_span_matches_the_pairwise_closure():
    # Element orders above 2 need more than one new coset; within the glue
    # search's default budget only Z2 x Z2 (all orders 2) is reachable.
    rng = random.Random(7272)
    for orders in [(4, 6), (2, 2, 2), (3, 9), (8,), (2, 4, 5)]:
        for _ in range(20):
            span = {tuple([0] * len(orders))}
            for _ in range(rng.randint(1, 3)):
                vec = tuple(rng.randrange(n) for n in orders)
                expected = pairwise_closure(span, vec, orders)
                span = span_with(span, vec, orders)
                assert span == expected


_Z2_SQUARED_BASES = {"Z2xZ2": [[2, 0], [0, 2]], **{f"D{n}": cartan_d(n).gram for n in (4, 6, 10, 12)}}


@pytest.mark.parametrize("name, seed", [(name, seed) for name in _Z2_SQUARED_BASES for seed in (None, 1, 2)])
def test_glue_search_returns_the_generators_of_the_tuple_search(name, seed):
    """The int-indexed search takes the same lexicographic-first glue group
    as the search over a list of every D^8 tuple, on Z2 x Z2 bases and two
    disguises of each (which move the discriminant form's generators)."""
    base = _Z2_SQUARED_BASES[name]
    disc = discriminant_form(base if seed is None else disguised(base, random.Random(seed), 6))
    assert disc.invariant_factors == (2, 2)
    expected = glue_generators_search_oracle(disc, GLUE_SEARCH_NODE_BUDGET)
    assert gluing._glue_generators_search(disc, GLUE_SEARCH_NODE_BUDGET) == expected


class TestGlueSearchBudget:
    def test_node_budget_counts_every_index_the_scan_passes(self):
        # A1 + E7 (D = Z2 x Z2) backtracks: the tuple search passes 3933473
        # indices of D^8 before it finds its glue group (the generators
        # pinned here), so that budget is the least one it succeeds with.
        disc = discriminant_form(block_diagonal([[[2]], e7_gram().gram]))
        with pytest.raises(GlueSearchError, match="node budget exhausted"):
            gluing._glue_generators_search(disc, 3933472)
        assert _digest(gluing._glue_generators_search(disc, 3933473)) == "364a4848483e66ba"

    def test_refuses_before_listing_d8(self, monkeypatch):
        # D = Z2 x Z2: 4^8 = 65536 elements of D^8, over a budget of 1000.
        monkeypatch.setattr(gluing, "GLUE_SEARCH_NODE_BUDGET", 1000)
        with pytest.raises(BudgetExceededError, match="65536"):
            glue_selfdual_8([[2, 0], [0, 2]])


class TestComplementDuality:
    @pytest.mark.parametrize(
        "base",
        [
            [[4]],
            [[6]],
            k_e(2).gram,
            cartan_a(4).gram,
        ],
        ids=["Z4", "Z6", "ke2", "a4"],
    )
    def test_conjugate_form_and_ranks(self, base):
        glued = glue_selfdual_8(base)
        comp = orthogonal_complement(glued)
        rank = len(base)
        assert len(glued_lattice_oracle(base, glued)[0]) == 8 * rank
        assert len(comp) == 7 * rank
        assert abs(determinant(comp)) == abs(determinant(base))
        target = conjugate(discriminant_form(base).group)
        assert verify_realization(comp, target).passed


class TestGlueGroupProperties:
    def test_isotropic_generators(self):
        # Cyclic form s/n: q2(x) = s/n sum x_t^2 mod 2, b(x, y) = s/n <x, y>
        # mod 1.  Both must vanish on the glue group.
        base = [[6]]
        glued = glue_selfdual_8(base)
        q2 = discriminant_form(base).q2_gen[0]
        for g1 in glued.glue_generators:
            assert (sum(c * c for c in g1) * q2) % 2 == 0
            for g2 in glued.glue_generators:
                assert (sum(a * b for a, b in zip(g1, g2)) * q2) % 1 == 0

    def test_noncyclic_backtracking(self):
        base = cartan_d(4).gram  # discriminant Z2 x Z2
        glued = glue_selfdual_8(base)
        assert determinant(glued_lattice_oracle(base, glued)[0]) == 1
        comp = orthogonal_complement(glued)
        target = conjugate(discriminant_form(base).group)
        assert verify_realization(comp, target).passed

    def test_rejects_indefinite_base(self):
        with pytest.raises(ValueError):
            glue_selfdual_8([[0, 2], [2, 0]])
        with pytest.raises(ValueError):
            glue_selfdual_8([[1]])


class TestEFBuilders:
    def test_e_family(self):
        for r in (1, 2, 3):
            gram = build_ef_positive("E", r)
            assert has_even_diagonal(gram)
            assert is_positive_definite(gram)
            assert abs(determinant(gram)) == 4**r
            assert verify_realization(gram, model("E", 2, r)).passed

    def test_e2_rank_16(self):
        assert len(build_ef_positive("E", 2)) == 16

    def test_e1_matches_d8_form(self):
        g1 = discriminant_form(build_ef_positive("E", 1)).group
        g2 = discriminant_form(cartan_d(8).gram).group
        assert is_isomorphic(g1, g2) is not None

    def test_f1_matches_d4_form(self):
        g1 = discriminant_form(build_ef_positive("F", 1)).group
        g2 = discriminant_form(cartan_d(4).gram).group
        assert is_isomorphic(g1, g2) is not None

    def test_f_family(self):
        for r in (2, 3):
            gram = build_ef_positive("F", r)
            assert has_even_diagonal(gram)
            assert is_positive_definite(gram)
            assert abs(determinant(gram)) == 4**r
            assert verify_realization(gram, model("F", 2, r)).passed

    def test_default_inputs_realize_required_forms(self):
        assert verify_realization(default_ef_input("E", 2), model("B", 2, 2)).passed
        assert verify_realization(default_ef_input("E", 1), model("B", 2, 1)).passed
        assert verify_realization(default_ef_input("F", 2), model("C", 2, 2)).passed


def test_recursive_searches_leave_no_reference_cycle():
    """The glue search, the branch and bound and the isometry search are
    recursive closures; each call must free them (and the tables and pools
    they hold) on return rather than leave a cycle for the collector."""
    z3_squared = direct_sum(model("A", 3, 1), model("B", 3, 1))
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        coset_minima(cartan_a(8).gram)
        glue_selfdual_8([[2, 0], [0, 2]])
        assert is_isomorphic(z3_squared, z3_squared) is not None
        aut_bruteforce(z3_squared)
        gc.collect()
        saved = {getattr(obj, "__name__", None) for obj in gc.garbage if inspect.isfunction(obj)}
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert not saved & {"descend", "search", "extend"}


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


# (complement Gram matrix, glue generators) digests, recorded before the
# sparse products and the coset-union span; D4 and Z2 x Z2 take the
# non-cyclic glue search.
_GLUE_PINS = {
    "Z2": ([[2]], "db0daf3517a3522b", "28ee180bdc931f2a"),
    "Z4": ([[4]], "9a2deb4c23f7bf62", "192875bfd4b6f5c9"),
    "A2": (cartan_a(2).gram, "4afc8de718d01a07", "4176c3d933cfccdd"),
    "A3": (cartan_a(3).gram, "636d092bae4f370e", "192875bfd4b6f5c9"),
    "A4": (cartan_a(4).gram, "06c9f05a2a77c2d0", "6186848e264964be"),
    "A5": (cartan_a(5).gram, "d516bb2a88cfb15a", "5750b89ab084c7a1"),
    "A6": (cartan_a(6).gram, "b5a688cddae98191", "253ef84d2b4994d3"),
    "D4": (cartan_d(4).gram, "9ff906de4b4ec9b5", "cfefd54c604b2c93"),
    "Z2xZ2": ([[2, 0], [0, 2]], "1e17b31059e3ee57", "6a69d6a949925999"),
    "A22": (cartan_a(22).gram, "6d45342757a2661d", "27a8b81939ca6d5c"),
}


@pytest.mark.parametrize("name", list(_GLUE_PINS))
def test_gluing_outputs_are_pinned(name):
    base, complement_digest, glue_digest = _GLUE_PINS[name]
    assert _digest(conjugate_realization(base)) == complement_digest
    assert _digest(glue_selfdual_8(base).glue_generators) == glue_digest


# build_ef_positive's Gram matrices for r = 1..6, as `kmatrix
# --positive-definite` writes them.  Several of them take a half-way rounding
# of the glue vector's dual coordinates, so they pin the halves-to-even rule.
_EF_PINS = {
    "E": ("1b8f7f5bd2a0b84b", "113341cec953f054", "b5dd84114be32ebf",
          "53d120c3a89fbee2", "5eb70fb31fd48988", "7ee1f6bd1948cee8"),
    "F": ("f26492395de1aecc", "ae35c1edb01b812d", "a198d9ef4348aa1e",
          "875035969034a0bb", "078603cc9158b762", "396a166e3dc4a062"),
}


@pytest.mark.parametrize("family", list(_EF_PINS))
def test_ef_builder_outputs_are_pinned(family):
    assert tuple(_digest(build_ef_positive(family, r)) for r in range(1, 7)) == _EF_PINS[family]


_ORACLE_BASES = {name: base for name, (base, _, _) in _GLUE_PINS.items()}
_ORACLE_BASES.update(E8=e8_gram().gram, ko5=k_o(5).gram)


@pytest.mark.parametrize("name", list(_ORACLE_BASES))
def test_glued_lattice_is_even_unimodular_with_a_primitive_first_copy(name):
    """The gluing checks these three by identities on its HNFs; here they
    run on the full rank-8m Gram matrix and the first copy's coordinates."""
    base = _ORACLE_BASES[name]
    lam, first_copy = glued_lattice_oracle(base, glue_selfdual_8(base))
    assert determinant(lam) == 1
    assert has_even_diagonal(lam)
    assert smith_normal_form(first_copy).invariant_factors() == []


_cyclic_generators = gluing._glue_generators_cyclic


@pytest.mark.parametrize("base, generators, message", [
    # (3 Z9)^8 is isotropic of order 9^4, so Lambda is even unimodular, but it
    # holds 3 e_1 of the first copy.
    (cartan_a(8).gram, lambda n: [[3 if j == t else 0 for j in range(8)] for t in range(8)],
     "first copy is not primitively embedded"),
    # {(x, x)} has order 9^4, but q2(x, x) = 2 q2(x) = 16/9 mod 2.
    (cartan_a(8).gram, lambda n: [[1 if j in (t, 4 + t) else 0 for j in range(8)] for t in range(4)],
     "glued lattice is not even"),
    # Three of the four generators span a group of order 5^3 < 5^4.
    (cartan_a(4).gram, lambda n: _cyclic_generators(n)[:3],
     "glued lattice is not unimodular"),
], ids=["imprimitive", "identity-graph", "three-generators"])
def test_replacement_checks_refuse_a_bad_glue_group(monkeypatch, base, generators, message):
    monkeypatch.setattr(gluing, "_glue_generators_cyclic", generators)
    with pytest.raises(GlueSearchError, match=message):
        conjugate_realization(base)


# Eight generators in 0 + (Z2 x Z2)^7 for D8, found by a random search: they
# span a group of order 4^4 on which q vanishes at every row of the HNF basis,
# so each basis vector of Lambda has even norm, but chi does not vanish on
# it.  Evenness needs the glue rows' pairings too, not only their norms.
_NON_ISOTROPIC_D8_GLUE = [
    [0, 0, 0, 0, 1, 1, 1, 1, 0, 1, 0, 1, 1, 1, 0, 0],
    [0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 0, 0, 1, 0],
    [0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1],
    [0, 0, 1, 0, 0, 0, 1, 1, 0, 1, 0, 1, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 0, 1],
    [0, 0, 1, 1, 1, 0, 1, 0, 0, 0, 1, 1, 1, 1, 1, 1],
    [0, 0, 1, 0, 1, 0, 0, 0, 1, 1, 0, 1, 1, 1, 1, 0],
    [0, 0, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 1, 1, 1],
]


def test_a_glue_group_with_even_basis_norms_but_odd_pairings_is_not_even(monkeypatch):
    monkeypatch.setattr(gluing, "_glue_generators_search", lambda disc, budget: _NON_ISOTROPIC_D8_GLUE)
    with pytest.raises(GlueSearchError, match="glued lattice is not even"):
        glue_selfdual_8(cartan_d(8).gram)


def test_positive_definite_kmatrix_file_is_pinned(tmp_path, capsys):
    # A[7^2] goes through the complement of A48 (rank 336).
    path = tmp_path / "a72.json"
    assert main(["kmatrix", "A[7^2]", "--positive-definite", "--out", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == "483fe634eff5ba92"
