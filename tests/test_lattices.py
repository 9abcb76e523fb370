import hashlib
import random
from fractions import Fraction
from math import lcm
from operator import mul

import pytest
from reference_matrices import disguised

from anyonlat.lattices import (
    cartan_a,
    cartan_d,
    discriminant_form,
    e6_gram,
    e7_gram,
    e8_gram,
    k_double_prime,
    k_e,
    k_o,
    verify_realization,
)
from anyonlat.linalg import determinant, is_positive_definite, solve_columns
from anyonlat.metric_groups import (
    MetricGroup,
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
        g = d.group
        assert sorted(2 * q for q in g.q_values().values()) == [0, 0, 0, 1]

    def test_rejects_odd_or_singular(self):
        with pytest.raises(ValueError):
            discriminant_form([[1, 0], [0, 2]])
        with pytest.raises(ValueError):
            discriminant_form([[2, 2], [2, 2]])

    def test_dual_coords_solve_k_z_equals_w(self):
        grams = [[[2, -1], [-1, 2]], [[0, 2], [2, 0]], cartan_d(4).gram, [[4, 2], [2, 4]]]
        rng = random.Random(11)
        while len(grams) < 200:
            n = rng.randint(1, 5)
            gram = [[0] * n for _ in range(n)]
            for i in range(n):
                gram[i][i] = 2 * rng.randint(-4, 4)
                for j in range(i):
                    gram[i][j] = gram[j][i] = rng.randint(-4, 4)
            if determinant(gram) != 0:
                grams.append(gram)
        for gram in grams:
            d = discriminant_form(gram)
            e = d.exponent
            assert len(d.dual_num) == len(d.generator_reps)
            for w, z in zip(d.generator_reps, d.dual_num):
                assert [sum(a * b for a, b in zip(row, z)) for row in gram] == [e * x for x in w]
            # read off V of the SNF, equal to e times a rational solve of K z = w
            solved = solve_columns(gram, [list(w) for w in d.generator_reps])
            assert [[Fraction(x, e) for x in z] for z in d.dual_num] == solved

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

    @pytest.mark.parametrize("gram, checks", [
        ([[3, 1], [1, 2]], [("even", False), ("nondegenerate", True)]),
        ([[2, 2], [2, 2]], [("even", True), ("nondegenerate", False)]),
    ])
    def test_odd_or_singular_matrix_stops_after_two_checks(self, gram, checks):
        """An odd matrix, or a singular even one, has no discriminant form:
        the report lists evenness and nondegeneracy and nothing after them."""
        rep = verify_realization(gram, model("A", 5, 1))
        assert [(c.name, c.passed) for c in rep.checks] == checks
        assert rep.signature is None and not rep.passed


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
            table = discriminant_form(cartan_d(2 * s).gram).group.q_values()
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


def _block_sum(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(b)] = row
        at += len(b)
    return out


def _negated(gram):
    return [[-x for x in row] for row in gram]


_HYP = [[0, 1], [1, 0]]
# Definite and indefinite even bases of rank 2 to 40, with cyclic and
# non-cyclic discriminant groups.
_PIN_BASES = [
    cartan_a(2).gram, [[2, 3], [3, 2]], _block_sum(_HYP, [[4]]), cartan_a(4).gram,
    _block_sum(cartan_a(3).gram, _negated(cartan_a(2).gram)), e6_gram().gram, k_e(4).gram,
    cartan_d(8).gram, _block_sum(_HYP, cartan_a(7).gram), e7_gram().gram,
    _block_sum(cartan_a(5).gram, cartan_a(5).gram), _block_sum(_negated(cartan_d(6).gram), cartan_a(8).gram),
    cartan_a(16).gram, _block_sum(*[cartan_a(3).gram] * 4, [[12]]),
    _block_sum(_HYP, _HYP, cartan_d(16).gram), cartan_a(24).gram,
    _block_sum(_negated(cartan_a(14).gram), cartan_a(14).gram),
    _block_sum(*[cartan_d(4).gram] * 3, cartan_a(20).gram), cartan_a(36).gram,
    _block_sum(_negated(cartan_a(19).gram), cartan_a(18).gram, [[0, 5], [5, 0]]),
]

# SHA-256 (first 16 hex digits) of the repr of (invariant_factors,
# generator_reps, q2_gen, bil_gen, dual_coords), recorded when
# DiscriminantData held q2, chi and K^-1 w as Fractions; `verify` prints q2 on
# these generators and the isometry witness found from them.
_PIN_DIGESTS = [
    "c3d0aa6ed6377bff",  # rank 2, (3,)
    "dbd7e546415b607f",  # rank 2, (5,)
    "9c43642d8331c0c4",  # rank 3, (4,)
    "b4bbd7fa7f3fb3a1",  # rank 4, (5,)
    "684aa5f0a965ee29",  # rank 5, (12,)
    "e01be4796aae1a54",  # rank 6, (3,)
    "10deb4d32ca04471",  # rank 3, (16,)
    "bcb45560fa0d64cb",  # rank 8, (2, 2)
    "55491af9b1e87e71",  # rank 9, (8,)
    "3f83b8fe492ed101",  # rank 7, (2,)
    "d69445e8c3ee527e",  # rank 10, (6, 6)
    "221d307ba68973c4",  # rank 14, (2, 18)
    "69b51052770bb9a7",  # rank 16, (17,)
    "563215d51275bcfa",  # rank 13, (4, 4, 4, 4, 12)
    "982506fe082c5f03",  # rank 20, (2, 2)
    "75e17ca835be8c4a",  # rank 24, (25,)
    "e9fe0ccfedc770ca",  # rank 28, (15, 15)
    "d5c86cb5a313f781",  # rank 32, (2, 2, 2, 2, 2, 42)
    "5a9e40823a7149f7",  # rank 36, (37,)
    "1e174cedbaf3abc3",  # rank 39, (5, 5, 380)
]


def test_discriminant_form_pins_generators_of_dense_disguises():
    rng = random.Random(6262)
    digests = []
    for base in _PIN_BASES:
        gram = disguised(base, rng, 6 * len(base))
        disc = discriminant_form(gram)
        e = disc.exponent
        for w, z in zip(disc.generator_reps, disc.dual_num):
            # w_j = K (e K^-1 w_j) / e: the generators are K V e_j / s_j
            assert [e * x for x in w] == [sum(map(mul, row, z)) for row in gram]
        dual_coords = tuple(tuple(Fraction(x, e) for x in col) for col in disc.dual_num)
        text = repr((disc.invariant_factors, disc.generator_reps, disc.q2_gen, disc.group.gen_bil, dual_coords))
        digests.append(hashlib.sha256(text.encode()).hexdigest()[:16])
    assert digests == _PIN_DIGESTS


def _rebuilt_from_solve(gram, disc):
    """(group, dual_num) from K^-1 w_j solved by `solve_columns`, not read off
    the SNF's V, with the level as the lcm of the denominators of q and chi."""
    sols = solve_columns(gram, [list(w) for w in disc.generator_reps])
    e = lcm(1, *(x.denominator for col in sols for x in col))
    q = [sum(map(mul, w, z)) / 2 % 1 for w, z in zip(disc.generator_reps, sols)]
    bil = [[sum(map(mul, w, z)) % 1 for z in sols] for w in disc.generator_reps]
    level = lcm(1, *(x.denominator for x in q), *(x.denominator for row in bil for x in row))
    group = MetricGroup(disc.invariant_factors, level, [int(x * level) for x in q],
                        [[int(x * level) for x in row] for row in bil])
    assert group.level == level
    return group, tuple(tuple(int(x * e) for x in col) for col in sols), e


def test_group_and_dual_num_match_a_rebuild_from_solved_dual_coordinates():
    rng = random.Random(7373)
    grams = [base for base in _PIN_BASES if len(base) <= 16]
    grams += [disguised(base, rng, 4 * len(base)) for base in list(grams)]
    while len(grams) < 80:
        n = rng.randint(1, 5)
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            gram[i][i] = 2 * rng.randint(-4, 4)
            for j in range(i):
                gram[i][j] = gram[j][i] = rng.randint(-4, 4)
        if determinant(gram) != 0:
            grams.append(gram)
    for gram in grams:
        disc = discriminant_form(gram)
        group, dual_num, e = _rebuilt_from_solve(gram, disc)
        assert disc.group == group and disc.group.level == group.level
        # the lcm of the denominators of K^-1 w is the exponent
        assert e == disc.exponent
        assert disc.dual_num == dual_num
