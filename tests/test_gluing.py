import gc
import hashlib
import inspect
import random

import pytest

from anyonlat.cli import main
from anyonlat.gluing import (
    _span_with,
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
    k_e,
    verify_realization,
)
from anyonlat.linalg import (
    determinant,
    is_positive_definite,
    mat_mul,
    smith_normal_form,
)
from anyonlat.metric_groups import (
    BudgetExceededError,
    PrimeFamilySpec,
    build_prime,
    conjugate,
    is_isomorphic,
)
from anyonlat.weights import coset_minima, minimum_nonzero_norm


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
        glued = glue_selfdual_8([[2]])
        lam = glued.lattice
        assert lam.rank == 8
        assert determinant(lam.gram) == 1
        assert lam.is_even
        assert is_positive_definite(lam.gram)
        assert minimum_nonzero_norm(lam.gram) == 2  # the unique such lattice

    def test_complement_is_antisemion(self):
        from fractions import Fraction

        glued = glue_selfdual_8([[2]])
        comp = orthogonal_complement(glued, glued.first_copy_ambient)
        assert comp.rank == 7
        assert determinant(comp.gram) == 2
        assert comp.is_even
        assert is_positive_definite(comp.gram)
        d = discriminant_form(comp.gram)
        assert d.q2_gen == (Fraction(3, 2),)
        rep = verify_realization(comp.gram, conjugate(model("A", 2, 1)))
        assert rep.passed


class TestGlueRankTwo:
    def test_su3_gluing(self):
        glued = glue_selfdual_8(cartan_a(2))
        assert glued.lattice.rank == 16
        assert determinant(glued.lattice.gram) == 1
        assert glued.lattice.is_even
        # The first copy stays primitive: its quotient is torsion-free.
        assert smith_normal_form(glued.first_copy_in_lattice).invariant_factors() == []

    def test_complement_realizes_a3(self):
        from fractions import Fraction

        comp = conjugate_realization(cartan_a(2))
        assert comp.rank == 14
        assert determinant(comp.gram) == 3
        d = discriminant_form(comp.gram)
        assert d.q2_gen == (Fraction(4, 3),)
        assert verify_realization(comp.gram, model("A", 3, 1)).passed


class TestGlueBasis:
    @pytest.mark.parametrize("base", [[[4]], [[6]], k_e(2).gram, cartan_a(5).gram], ids=["Z4", "Z6", "ke2", "a5"])
    def test_first_copy_coordinates_rebuild_the_ambient_rows(self, base):
        glued = glue_selfdual_8(base)
        rebuilt = mat_mul(glued.first_copy_in_lattice, glued.basis_rows)
        assert rebuilt == [[glued.denominator * x for x in row] for row in glued.first_copy_ambient]


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
                span = _span_with(span, vec, orders)
                assert span == expected


class TestGlueSearchBudget:
    def test_refuses_before_listing_d8(self):
        # D = Z2 x Z2: 4^8 = 65536 elements of D^8, over a budget of 1000.
        with pytest.raises(BudgetExceededError, match="65536"):
            glue_selfdual_8([[2, 0], [0, 2]], budget=1000)


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
        comp = orthogonal_complement(glued, glued.first_copy_ambient)
        rank = len(base)
        assert glued.lattice.rank == 8 * rank
        assert comp.rank == 7 * rank
        assert abs(determinant(comp.gram)) == abs(determinant(base))
        target = conjugate(discriminant_form(base).metric_group())
        assert verify_realization(comp.gram, target).passed

    def test_complement_of_everything_is_trivial(self):
        glued = glue_selfdual_8([[2]])
        all_rows = [[int(x * 1) for x in row] for row in
                    [[1 if i == j else 0 for j in range(8)] for i in range(8)]]
        comp = orthogonal_complement(glued, all_rows)
        assert comp.rank == 0


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
        base = cartan_d(4)  # discriminant Z2 x Z2
        glued = glue_selfdual_8(base)
        assert determinant(glued.lattice.gram) == 1
        comp = orthogonal_complement(glued, glued.first_copy_ambient)
        target = conjugate(discriminant_form(base.gram).metric_group())
        assert verify_realization(comp.gram, target).passed

    def test_rejects_indefinite_base(self):
        with pytest.raises(ValueError):
            glue_selfdual_8([[0, 2], [2, 0]])
        with pytest.raises(ValueError):
            glue_selfdual_8([[1]])


class TestEFBuilders:
    def test_e_family(self):
        for r in (1, 2, 3):
            lat = build_ef_positive("E", r)
            assert lat.is_even
            assert is_positive_definite(lat.gram)
            assert abs(determinant(lat.gram)) == 4**r
            # build_ef_positive verifies against the model internally.

    def test_e2_rank_16(self):
        lat = build_ef_positive("E", 2)
        assert lat.rank == 16

    def test_e1_matches_d8_form(self):
        lat = build_ef_positive("E", 1)
        g1 = discriminant_form(lat.gram).metric_group()
        g2 = discriminant_form(cartan_d(8).gram).metric_group()
        assert is_isomorphic(g1, g2) is not None

    def test_f1_matches_d4_form(self):
        lat = build_ef_positive("F", 1, input_lattice=None)
        g1 = discriminant_form(lat.gram).metric_group()
        g2 = discriminant_form(cartan_d(4).gram).metric_group()
        assert is_isomorphic(g1, g2) is not None

    def test_f1_explicit_input(self):
        from anyonlat.lattices import Lattice

        lat = build_ef_positive("F", 1, input_lattice=Lattice([[2]]))
        assert lat.rank == 4
        assert verify_realization(lat.gram, model("F", 2, 1)).passed

    def test_f_family(self):
        for r in (2, 3):
            lat = build_ef_positive("F", r)
            assert lat.is_even
            assert is_positive_definite(lat.gram)
            assert abs(determinant(lat.gram)) == 4**r

    def test_default_inputs_realize_required_forms(self):
        assert verify_realization(default_ef_input("E", 2).gram, model("B", 2, 2)).passed
        assert verify_realization(default_ef_input("E", 1).gram, model("B", 2, 1)).passed
        assert verify_realization(default_ef_input("F", 2).gram, model("C", 2, 2)).passed


def test_recursive_searches_leave_no_reference_cycle():
    """The glue search and the branch and bound are recursive closures; each
    call must free them (and the D^8 list the glue search holds) on return
    rather than leave a cycle for the collector."""
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        coset_minima(cartan_a(8).gram)
        glue_selfdual_8([[2, 0], [0, 2]])
        gc.collect()
        saved = {getattr(obj, "__name__", None) for obj in gc.garbage if inspect.isfunction(obj)}
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert not saved & {"descend", "search"}


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
    assert _digest(conjugate_realization(base).gram) == complement_digest
    assert _digest(glue_selfdual_8(base).glue_generators) == glue_digest


def test_positive_definite_kmatrix_file_is_pinned(tmp_path, capsys):
    # A[7^2] goes through the complement of A48 (rank 336).
    path = tmp_path / "a72.json"
    assert main(["kmatrix", "A[7^2]", "--positive-definite", "--out", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == "483fe634eff5ba92"
