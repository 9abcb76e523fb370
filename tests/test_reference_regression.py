"""Regression over the published per-branch W-matrices and explicit Gram
matrices, pinning down which branch labels hold and documenting the errata
(wrong corner denominators, an invalid tail, a sign slip) where they do not.
"""

from fractions import Fraction
from math import lcm

import pytest

from reference_matrices import (
    E4_16x16_K,
    F4_CORRECTED,
    F4_PRINTED_INVALID,
    KE_DISPLAY,
    KO3,
    P5_C4_K,
    P5_C8_K,
    SU3_K,
    WALL_BRANCH_CASES,
    wall_w,
)

from anyonlat.cli import parse_spec
from anyonlat.lattices import k_e, k_o, verify_realization
from anyonlat.linalg import determinant, inertia, rational_inverse, signature
from anyonlat.wall import direct_ef_k, k_from_wall, wall_sequence


def frac_det(w):
    """det W by Bareiss on the integer matrix s W, s the lcm of the denominators."""
    s = lcm(*(Fraction(x).denominator for row in w for x in row))
    return Fraction(determinant([[int(s * x) for x in row] for row in w]), s ** len(w))


@pytest.mark.parametrize("case", WALL_BRANCH_CASES, ids=lambda c: c["name"])
def test_wall_branch(case):
    n, modulus = case["n"], case["modulus"]
    seq = wall_sequence(n, modulus)
    ours = wall_w(seq)
    target = parse_spec(case["target"])

    # Whatever the branch status, our synthesized K must realize the model.
    k = k_from_wall(n, modulus)
    assert verify_realization(k, target).passed, case["name"]

    if case["status"] in ("exact", "corrected"):
        assert ours == case["w"], f"{case['name']}: canonical run deviates from the fixture"
    else:
        assert case["w"] is None
        variant = case.get("valid_variant")
        if variant is not None:
            # A different initial solution: still a valid W whose inverse
            # realizes the same model.
            assert frac_det(variant) in (Fraction(1, modulus), Fraction(-1, modulus))
            k_var = rational_inverse(variant)
            assert all(x.denominator == 1 for row in k_var for x in row)
            k_var = [[int(x) for x in row] for row in k_var]
            assert verify_realization(k_var, target).passed
            assert ours != variant
        invalid = case.get("invalid_variant")
        if invalid is not None:
            # The printed branch is not even a valid W-matrix.
            assert frac_det(invalid) not in (Fraction(1, modulus), Fraction(-1, modulus))


class TestExplicitMatrices:
    def test_su3(self):
        rep = verify_realization(SU3_K, parse_spec("B[3]"))
        assert rep.passed and rep.signature == 2

    def test_rank5_charge4(self):
        rep = verify_realization(P5_C4_K, parse_spec("A[5]"))
        assert rep.passed and rep.signature == 4
        assert inertia(P5_C4_K) == (4, 0, 0)
        assert k_from_wall(4, 5) == P5_C4_K  # the expansion reproduces it exactly

    def test_rank8_charge8(self):
        rep = verify_realization(P5_C8_K, parse_spec("B[5]"))
        assert rep.passed and rep.signature == 8

    def test_e4_16x16(self):
        rep = verify_realization(E4_16x16_K, parse_spec("E[4]"))
        assert rep.passed
        assert inertia(E4_16x16_K) == (16, 0, 0)

    def test_f4_corrected_matches_direct_form(self):
        assert direct_ef_k("F", 2) == F4_CORRECTED
        rep = verify_realization(F4_CORRECTED, parse_spec("F[4]"))
        assert rep.passed
        # Stated as definite in print, but the true signature is 0 -- still
        # consistent with central charge 0 mod 8 for even r.
        assert signature(F4_CORRECTED) == 0
        assert inertia(F4_CORRECTED) == (2, 2, 0)

    def test_f4_printed_variant_is_erratic(self):
        # The circulated (1,1) entry +8 breaks the matrix outright:
        # det 144 instead of 16, so it realizes no order-16 model.
        assert determinant(F4_PRINTED_INVALID) == 144
        assert determinant(F4_CORRECTED) == 16

    def test_f_odd_closed_form(self):
        # r odd closed form, r = 1: frozen from the printed display.
        assert direct_ef_k("F", 1) == [
            [4, -6, 4, -2],
            [-6, 12, -8, 4],
            [4, -8, 6, -3],
            [-2, 4, -3, 2],
        ]

    def test_d_family_display_label(self):
        # The worked example labels the corner-6 matrix with argument 2, but
        # corner (2^r + 2)/3 = 6 belongs to r = 4; the r = 2 instance has
        # corner 2.  Both realize their respective models.
        assert KE_DISPLAY == k_e(4).gram
        assert verify_realization(KE_DISPLAY, parse_spec("D[2^4]")).passed
        assert verify_realization(k_e(2).gram, parse_spec("D[4]")).passed

    def test_k_o_display(self):
        assert KO3 == k_o(3).gram
        assert verify_realization(KO3, parse_spec("D[8]")).passed
