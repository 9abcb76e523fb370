import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from anyonlat.metric_groups import (
    BudgetExceededError,
    MetricGroup,
    PrimeFamilySpec,
    build_prime,
    canonical_unit,
    central_charge_closed,
    central_charge_gauss,
    conjugate,
    direct_sum,
    gauged_center_fpdim,
    is_isomorphic,
    is_nondegenerate,
    trivial_group,
)


def spec(fam, p, r, unit=None):
    return PrimeFamilySpec(fam, p, r, unit)


def apply_witness(g_from, g_to, witness, x):
    out = tuple(0 for _ in g_to.orders)
    for coeff, image in zip(x, witness):
        out = g_to.add(out, tuple(coeff * c % n for c, n in zip(image, g_to.orders)))
    return out


class TestBuildPrime:
    def test_b3(self):
        g = build_prime(spec("B", 3, 1))
        assert g.orders == (3,)
        assert g.q((1,)) == Fraction(1, 3)

    def test_toric_code(self):
        g = build_prime(spec("E", 2, 1))
        assert g.orders == (2, 2)
        assert sorted(g.q_values().values()) == [0, 0, 0, Fraction(1, 2)]

    def test_semion(self):
        g = build_prime(spec("A", 2, 1))
        assert g.orders == (2,)
        assert g.q((1,)) == Fraction(1, 4)

    def test_three_fermion(self):
        g = build_prime(spec("F", 2, 1))
        assert sorted(g.q_values().values()) == [0] + [Fraction(1, 2)] * 3

    def test_all_families_nondegenerate(self):
        for fam, p, r in [("A", 5, 2), ("B", 7, 1), ("A", 2, 3), ("B", 2, 4),
                          ("C", 2, 2), ("D", 2, 5), ("E", 2, 3), ("F", 2, 3)]:
            assert is_nondegenerate(build_prime(spec(fam, p, r)))

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            spec("C", 2, 1)
        with pytest.raises(ValueError):
            spec("E", 3, 1)
        with pytest.raises(ValueError):
            spec("G", 2, 1)
        with pytest.raises(ValueError):
            spec("A", 4, 1)
        with pytest.raises(ValueError):
            spec("A", 5, 1, unit=1)  # (2/5) = -1: wrong character for A


class TestDirectSum:
    def test_trivial_identity(self):
        g = build_prime(spec("B", 3, 1))
        assert direct_sum(g, trivial_group()) == g
        assert direct_sum(trivial_group(), g) == g

    def test_semion_pair(self):
        s = build_prime(spec("A", 2, 1))
        ds = direct_sum(s, s)
        assert ds.orders == (2, 2)
        assert sorted(ds.q_values().values()) == [0, Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]

    def test_charge_additive_toric_semion(self):
        g = direct_sum(build_prime(spec("E", 2, 1)), build_prime(spec("A", 2, 1)))
        assert central_charge_gauss(g) == 1

    def test_invariant_factor_chain(self):
        g = direct_sum(build_prime(spec("B", 3, 1)), build_prime(spec("A", 2, 2)))
        assert g.orders == (12,)
        assert central_charge_gauss(g) == (2 + 1) % 8


class TestConjugate:
    def test_semion_antisemion(self):
        s = build_prime(spec("A", 2, 1))
        anti = conjugate(s)
        assert anti.q((1,)) == Fraction(3, 4)
        assert conjugate(anti) == s

    def test_toric_self_conjugate(self):
        e2 = build_prime(spec("E", 2, 1))
        assert is_isomorphic(conjugate(e2), e2) is not None


class TestNondegeneracy:
    def test_semion(self):
        assert is_nondegenerate(build_prime(spec("A", 2, 1)))

    def test_zero_form(self):
        assert not is_nondegenerate(MetricGroup((2,), (0,), ((0,),)))

    def test_f2(self):
        assert is_nondegenerate(build_prime(spec("F", 2, 1)))

    def test_matches_bruteforce_radical(self):
        for g in (build_prime(spec("E", 2, 2)), build_prime(spec("B", 3, 2)),
                  MetricGroup((2, 2), (Fraction(1, 2), 0), ((0, 0), (0, 0)))):
            radical = [
                x for x in g.elements()
                if all(g.bilinear(x, y) == 0 for y in g.elements())
            ]
            assert is_nondegenerate(g) == (len(radical) == 1)


class TestCentralCharge:
    def test_closed_examples(self):
        assert central_charge_closed(spec("B", 3, 1)) == 2
        assert central_charge_closed(spec("F", 2, 1)) == 4
        assert central_charge_closed(spec("A", 7, 2)) == 0

    def test_gauss_examples(self):
        assert central_charge_gauss(trivial_group()) == 0
        assert central_charge_gauss(build_prime(spec("B", 3, 1))) == 2
        assert central_charge_gauss(build_prime(spec("F", 2, 1))) == 4

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            central_charge_gauss(build_prime(spec("A", 23, 3)), budget=100)

    def test_parity_opposite_for_cyclic_families(self):
        for fam, p, r in [("A", 3, 1), ("B", 5, 2), ("A", 2, 3), ("B", 2, 2),
                          ("C", 2, 4), ("D", 2, 3), ("A", 11, 1)]:
            s = spec(fam, p, r)
            assert central_charge_closed(s) % 2 != (p**r) % 2

    def test_no_phase_for_degenerate_form(self):
        from anyonlat.metric_groups import DegenerateFormError

        with pytest.raises(DegenerateFormError):
            central_charge_gauss(MetricGroup((2,), (0,), ((0,),)))


class TestIsomorphism:
    def test_reflexive(self):
        for s in (spec("B", 3, 1), spec("E", 2, 2), spec("A", 2, 3)):
            g = build_prime(s)
            assert is_isomorphic(g, g) is not None

    def test_semion_antisemion_not_isomorphic(self):
        s = build_prime(spec("A", 2, 1))
        assert is_isomorphic(s, conjugate(s)) is None

    def test_e2_f2_not_isomorphic(self):
        assert is_isomorphic(build_prime(spec("E", 2, 1)), build_prime(spec("F", 2, 1))) is None

    def test_symmetric_with_inverse_witness(self):
        g1 = build_prime(spec("F", 2, 2))
        g2 = MetricGroup(g1.orders, (g1.gen_q[1], g1.gen_q[0]),
                         ((g1.gen_bil[1][1], g1.gen_bil[1][0]), (g1.gen_bil[0][1], g1.gen_bil[0][0])))
        fwd = is_isomorphic(g1, g2)
        back = is_isomorphic(g2, g1)
        assert fwd is not None and back is not None
        k = len(g1.orders)
        for i in range(k):
            e_i = tuple(int(i == j) for j in range(k))
            roundtrip = apply_witness(g2, g1, back, fwd[i])
            assert roundtrip == e_i or g1.q(roundtrip) == g1.q(e_i)
        # The composite must be an automorphism fixing q everywhere.
        for x in g1.elements():
            img = apply_witness(g2, g1, back, apply_witness(g1, g2, fwd, x))
            assert g1.q(img) == g1.q(x)

    def test_relabeling_invariance(self):
        g = build_prime(spec("E", 2, 2))
        swapped = MetricGroup(
            g.orders,
            (g.gen_q[1], g.gen_q[0]),
            ((g.gen_bil[1][1], g.gen_bil[1][0]), (g.gen_bil[0][1], g.gen_bil[0][0])),
        )
        assert is_isomorphic(g, swapped) is not None

    def test_unit_choices_equivalent(self):
        # Any admissible parameter yields the same theory: p <= 13, r <= 2.
        from anyonlat.numtheory import jacobi_symbol

        for fam, want in (("A", 1), ("B", -1)):
            for p in (3, 5, 7, 11, 13):
                units = [m for m in range(1, p) if jacobi_symbol(2 * m, p) == want]
                for r in (1, 2):
                    base = build_prime(spec(fam, p, r, units[0]))
                    for m in units[1:]:
                        other = build_prime(spec(fam, p, r, m))
                        assert is_isomorphic(base, other) is not None, (fam, p, r, m)

    def test_large_cyclic_fast_path(self):
        g1 = build_prime(spec("A", 23, 3))
        g2 = build_prime(spec("A", 23, 3, unit=canonical_unit("A", 23)))
        assert g1.size == 12167
        assert is_isomorphic(g1, g2) is not None
        assert is_isomorphic(g1, conjugate(g1)) is None  # c = 2 vs c = 6


class TestGaugedCenter:
    def test_spot_values(self):
        assert gauged_center_fpdim(spec("A", 3, 1)) == 144
        assert gauged_center_fpdim(spec("A", 2, 1)) == 4
        assert gauged_center_fpdim(spec("F", 2, 1)) == 20736
        assert gauged_center_fpdim(spec("A", 2, 2)) == 2**8
        assert gauged_center_fpdim(spec("C", 2, 3)) == 2**10
        assert gauged_center_fpdim(spec("E", 2, 4)) == 2**32


def random_prime_model(rng):
    choices = [
        ("A", 2, 1), ("B", 2, 1), ("A", 2, 2), ("B", 2, 2), ("C", 2, 2), ("D", 2, 2),
        ("E", 2, 1), ("F", 2, 1), ("A", 3, 1), ("B", 3, 1), ("A", 5, 1), ("B", 5, 1),
        ("A", 7, 1), ("B", 7, 1), ("E", 2, 2), ("F", 2, 2),
    ]
    return build_prime(spec(*rng.choice(choices)))


def test_gauss_additivity_and_conjugation_random():
    rng = random.Random(99)
    for _ in range(60):
        g1, g2 = random_prime_model(rng), random_prime_model(rng)
        total = direct_sum(g1, g2)
        assert central_charge_gauss(total) == (central_charge_gauss(g1) + central_charge_gauss(g2)) % 8
        assert central_charge_gauss(conjugate(g1)) == (-central_charge_gauss(g1)) % 8


def test_direct_sum_order_does_not_matter_up_to_isometry():
    """direct_sum(g1, g2) and direct_sum(g2, g1) are isometric, and the
    witness preserves q everywhere.  The pairs cover both the closed-form
    cyclic path and the generator-image search, and concatenations such as
    Z4 + Z2 that _canonicalize must rewrite into a divisibility chain."""
    rng = random.Random(2024)
    searched = rewritten = 0
    for _ in range(30):
        g1, g2 = random_prime_model(rng), random_prime_model(rng)
        left, right = direct_sum(g1, g2), direct_sum(g2, g1)
        concatenated = g1.orders + g2.orders
        rewritten += any(concatenated[i] % concatenated[i - 1] for i in range(1, len(concatenated)))
        searched += len(left.orders) >= 2
        assert left.orders == right.orders
        witness = is_isomorphic(left, right)
        assert witness is not None, (g1, g2)
        for x in left.elements():
            assert right.q(apply_witness(left, right, witness, x)) == left.q(x)
    assert searched >= 10 and rewritten >= 5


def test_import_leaves_mpmath_precision_alone():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import mpmath, anyonlat.cli\n"
        "from anyonlat import build_prime, central_charge_gauss, PrimeFamilySpec\n"
        "before = mpmath.mp.prec\n"
        "assert central_charge_gauss(build_prime(PrimeFamilySpec('B', 3, 1))) == 2\n"
        "print(before, mpmath.mp.prec)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["53", "53"]
