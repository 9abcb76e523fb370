import pytest

from anyonlat.gluing import (
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
    smith_normal_form,
)
from anyonlat.metric_groups import (
    BudgetExceededError,
    PrimeFamilySpec,
    build_prime,
    conjugate,
    is_isomorphic,
)
from anyonlat.weights import minimum_nonzero_norm


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
        comp = orthogonal_complement(glued.lattice, glued.first_copy_ambient)
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
        comp = orthogonal_complement(glued.lattice, glued.first_copy_ambient)
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
        comp = orthogonal_complement(glued.lattice, all_rows)
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
        comp = orthogonal_complement(glued.lattice, glued.first_copy_ambient)
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
