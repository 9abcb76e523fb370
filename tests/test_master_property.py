"""Oracle soundness: every lattice constructor's output must verify against
the model it is routed to realize.

Coverage: both quadratic-character routes for odd primes up to 23 (auxiliary-
prime construction for p = 1 mod 4 at r <= 2; Cartan chains and their
eight-copy complements for p = 3 mod 4, with the complement side at r = 2
limited to p = 3 since rank 7 (p^2 - 1) explodes past desk scale for larger
p), all p = 2 families through r = 5, and the four instances the expansion
special-cases.
"""

import pytest

from anyonlat.gluing import build_ef_positive, conjugate_realization
from anyonlat.lattices import cartan_a, k_double_prime, k_e, k_o, verify_realization
from anyonlat.metric_groups import PrimeFamilySpec, build_prime
from anyonlat.realize import positive_definite_realization

ODD_CASES = [
    # (family, p, r) -> expected construction rank
    ("B", 3, 1), ("B", 7, 1), ("B", 11, 1), ("B", 19, 1), ("B", 23, 1),
    ("B", 3, 2), ("B", 7, 2), ("B", 11, 2),
    ("A", 3, 1), ("A", 7, 1), ("A", 11, 1), ("A", 19, 1), ("A", 23, 1),
    ("A", 3, 2),
    ("A", 5, 1), ("B", 5, 1), ("A", 13, 1), ("B", 13, 1), ("A", 17, 1), ("B", 17, 1),
    ("A", 5, 2), ("B", 5, 2), ("A", 13, 2), ("B", 13, 2), ("A", 17, 2), ("B", 17, 2),
]

TWO_CASES = [
    (fam, 2, r)
    for fam in "ABCD"
    for r in range(2 if fam in "CD" else 1, 6)
] + [("E", 2, r) for r in (1, 2, 3, 4, 5)] + [("F", 2, r) for r in (1, 2, 3)]


@pytest.mark.parametrize("fam,p,r", ODD_CASES, ids=lambda v: str(v))
def test_odd_prime_positive_definite_routes(fam, p, r):
    spec = PrimeFamilySpec(fam, p, r)
    gram = positive_definite_realization(spec)
    report = verify_realization(gram, build_prime(spec))
    assert report.passed, (spec, list(report.lines()))
    assert report.signature == len(gram)  # the constructors leave definiteness to the caller


@pytest.mark.parametrize("fam,p,r", TWO_CASES, ids=lambda v: str(v))
def test_two_adic_positive_definite_routes(fam, p, r):
    spec = PrimeFamilySpec(fam, p, r)
    gram = positive_definite_realization(spec)
    report = verify_realization(gram, build_prime(spec))
    assert report.passed, (spec, list(report.lines()))
    assert report.signature == len(gram)  # the constructors leave definiteness to the caller


def test_expansion_special_cases_route_to_lattices():
    # A_3, B_2, B_4, C_4: served by the complement constructions.
    for fam, p, r, rank in [("A", 3, 1, 14), ("B", 2, 1, 7), ("B", 2, 2, 7), ("C", 2, 2, 21)]:
        spec = PrimeFamilySpec(fam, p, r)
        gram = positive_definite_realization(spec)
        assert len(gram) == rank
        assert verify_realization(gram, build_prime(spec)).passed


def test_big_cartan_chains():
    # The direct route stays exact at large rank: Z_{19^2} and Z_{23^2}.
    for p in (19, 23):
        lat = cartan_a(p * p - 1)
        assert verify_realization(lat.gram, build_prime(PrimeFamilySpec("B", p, 2))).passed


def test_auxiliary_prime_construction_both_signs():
    for p, r, s in [(5, 1, 1), (5, 1, -1), (13, 2, 1), (17, 1, -1)]:
        lat, pprime, t = k_double_prime(p, r, s)
        assert pprime % 4 == 3
        assert 1 <= t <= pprime - 1
        fam = "A" if s == 1 else "B"
        assert verify_realization(lat.gram, build_prime(PrimeFamilySpec(fam, p, r))).passed


def test_eight_copy_glue_exists_for_every_base_tested():
    # Every even positive-definite base admits the full isotropic glue group.
    bases = [[[2]], [[4]], [[8]], [[6]], cartan_a(3).gram, k_e(2).gram, k_o(3).gram]
    for base in bases:
        comp = conjugate_realization(base)
        assert len(comp) == 7 * len(base)


def test_ef_gluing_larger_r():
    gram = build_ef_positive("E", 5)
    assert len(gram) == 16
    report = verify_realization(gram, build_prime(PrimeFamilySpec("E", 2, 5)))
    assert report.passed and report.signature == 16
