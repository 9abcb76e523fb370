import random
from fractions import Fraction

import pytest

from anyonlat.lattices import (
    Lattice,
    cartan_a,
    cartan_d,
    discriminant_form,
    e6_gram,
    e7_gram,
    e8_gram,
    k_double_prime,
    k_e,
    k_o,
    lattice_metric_group,
    verify_realization,
)
from anyonlat.linalg import determinant, is_positive_definite, solve_columns
from anyonlat.metric_groups import (
    PrimeFamilySpec,
    build_prime,
    central_charge_closed,
    conjugate,
    trivial_group,
)


def model(fam, p, r):
    return build_prime(PrimeFamilySpec(fam, p, r))


class TestDiscriminantForm:
    def test_su3_root_lattice(self):
        d = discriminant_form([[2, -1], [-1, 2]])
        assert d.invariant_factors == (3,)
        assert d.q2_gen == (Fraction(2, 3),)

    def test_e8_trivial(self):
        d = discriminant_form(e8_gram().gram)
        assert d.invariant_factors == ()
        assert verify_realization(e8_gram().gram, trivial_group()).passed

    def test_toric_block(self):
        d = discriminant_form([[0, 2], [2, 0]])
        assert d.invariant_factors == (2, 2)
        g = d.metric_group()
        assert sorted(2 * q for q in g.q_values().values()) == [0, 0, 0, 1]

    def test_rejects_odd_or_singular(self):
        with pytest.raises(ValueError):
            discriminant_form([[1, 0], [0, 2]])
        with pytest.raises(ValueError):
            discriminant_form([[2, 2], [2, 2]])

    def test_dual_coords_solve_k_z_equals_w(self):
        for gram in ([[2, -1], [-1, 2]], [[0, 2], [2, 0]], cartan_d(4).gram, [[4, 2], [2, 4]]):
            d = discriminant_form(gram)
            assert len(d.dual_coords) == len(d.generator_reps)
            for w, z in zip(d.generator_reps, d.dual_coords):
                assert [sum(a * b for a, b in zip(row, z)) for row in gram] == list(w)

    def test_q2_well_defined_on_cosets(self):
        rng = random.Random(5)
        checked = 0
        while checked < 100:
            n = rng.randint(1, 3)
            gram = [[0] * n for _ in range(n)]
            for i in range(n):
                gram[i][i] = 2 * rng.randint(-3, 3)
                for j in range(i):
                    gram[i][j] = gram[j][i] = rng.randint(-3, 3)
            if determinant(gram) == 0:
                continue
            checked += 1
            w = [rng.randint(-5, 5) for _ in range(n)]
            shift = [rng.randint(-2, 2) for _ in range(n)]
            w2 = [a + sum(s * gram[k][i] for k, s in enumerate(shift)) for i, a in enumerate(w)]
            q_of = lambda v: sum(
                Fraction(a) * b for a, b in zip(v, solve_columns(gram, [list(v)])[0])
            ) % 2
            assert q_of(w) == q_of(w2)


class TestVerifyRealization:
    def test_su3_vs_b3(self):
        rep = verify_realization([[2, 1], [1, 2]], model("B", 3, 1))
        assert rep.passed
        assert rep.signature == 2

    def test_d7_vs_b4(self):
        rep = verify_realization(cartan_d(7).gram, model("B", 2, 2))
        assert rep.passed
        assert rep.signature == 7

    def test_mismatch_detected(self):
        rep = verify_realization([[2]], conjugate(model("A", 2, 1)))
        assert not rep.passed
        failed = {c.name for c in rep.checks if not c.passed}
        assert "discriminant_form" in failed


class TestAdeTable:
    def test_a_series_forms(self):
        # A_{r-1} realizes the cyclic form with q2(gen) = (r-1)/r.
        for n in (1, 2, 4, 6):
            d = discriminant_form(cartan_a(n).gram)
            assert d.invariant_factors == (n + 1,)
            assert d.q2_gen == (Fraction(n, n + 1),)

    def test_cartan_a_models(self):
        assert verify_realization(cartan_a(2).gram, model("B", 3, 1)).passed
        assert verify_realization(cartan_a(6).gram, model("B", 7, 1)).passed
        assert central_charge_closed(PrimeFamilySpec("B", 7, 1)) == 6
        # The rank-3 root lattice pairs with the rank-5 D-series one.
        assert verify_realization(cartan_a(3).gram, model("D", 2, 2)).passed
        assert verify_realization(cartan_d(5).gram, model("C", 2, 2)).passed

    def test_exceptional_forms(self):
        assert verify_realization(e6_gram().gram, model("A", 3, 1)).passed
        assert verify_realization(e7_gram().gram, conjugate(model("A", 2, 1))).passed
        assert verify_realization(e8_gram().gram, trivial_group()).passed
        assert discriminant_form(e6_gram().gram).q2_gen == (Fraction(4, 3),)
        assert discriminant_form(e7_gram().gram).q2_gen == (Fraction(3, 2),)

    def test_d_even_series_values(self):
        # D_{2s} has q2 values {0, 1, s/2, s/2}; the widely quoted
        # {0, s/2, s/2, (s-4)/2} agrees at s = 2 but not at s = 4, where the
        # vector class has q2 = 1, not 0.
        for s, expected in ((2, [0, 1, 1, 1]), (4, [0, 0, 0, 1]), (3, [0, Fraction(3, 2), Fraction(3, 2), 1])):
            table = lattice_metric_group(cartan_d(2 * s).gram).q_values()
            assert sorted(2 * q % 2 for q in table.values()) == sorted(Fraction(e) % 2 for e in expected)
        assert verify_realization(cartan_d(4).gram, model("F", 2, 1)).passed
        assert verify_realization(cartan_d(8).gram, model("E", 2, 1)).passed

    def test_d_odd_series_values(self):
        for s in (2, 3):
            d = discriminant_form(cartan_d(2 * s + 1).gram)
            assert d.invariant_factors == (4,)
            assert d.q2_gen[0] % 2 == Fraction(2 * s + 1, 4) % 2


class TestDFamilyLattices:
    def test_k_e_values(self):
        assert k_e(2).gram == [[2, 0, 1], [0, 2, -1], [1, -1, 2]]
        assert k_e(4).gram == [[6, 0, 1], [0, 2, -1], [1, -1, 2]]
        assert determinant(k_e(4).gram) == 16

    def test_k_e_realizes_d_family(self):
        for r in (2, 4, 6):
            assert verify_realization(k_e(r).gram, model("D", 2, r)).passed

    def test_k_o_realizes_d_family(self):
        k = k_o(3)
        assert determinant(k.gram) == 8
        assert verify_realization(k.gram, model("D", 2, 3)).passed
        assert verify_realization(k_o(5).gram, model("D", 2, 5)).passed

    def test_parity_validation(self):
        with pytest.raises(ValueError):
            k_e(3)
        with pytest.raises(ValueError):
            k_o(4)


class TestKDoublePrime:
    def test_b5_auxiliary_prime(self):
        lat, pprime, t = k_double_prime(5, 1, -1)
        assert pprime == 31
        assert lat.rank == 32
        assert t in (14, 17) and pow(t, 2, 31) == 10
        assert is_positive_definite(lat.gram)
        assert lat.is_even
        assert determinant(lat.gram) == 5

    def test_b5_realizes_model(self):
        lat, _, _ = k_double_prime(5, 1, -1)
        assert verify_realization(lat.gram, model("B", 5, 1)).passed

    def test_a13(self):
        lat, pprime, _ = k_double_prime(13, 1, 1)
        assert pprime % 4 == 3
        assert verify_realization(lat.gram, model("A", 13, 1)).passed

    def test_a5_and_b13(self):
        lat, _, _ = k_double_prime(5, 1, 1)
        assert verify_realization(lat.gram, model("A", 5, 1)).passed
        lat, _, _ = k_double_prime(13, 1, -1)
        assert verify_realization(lat.gram, model("B", 13, 1)).passed

    def test_rejects_wrong_residue(self):
        with pytest.raises(ValueError):
            k_double_prime(7, 1, 1)


def test_lattice_basis_consistency_check():
    with pytest.raises(ValueError):
        Lattice([[2]], basis=[[Fraction(1)]], ambient_gram=[[4]])
