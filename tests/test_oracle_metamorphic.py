"""Metamorphic tests of the realization oracle: changes of the input that
keep the lattice (a change of basis) or undo each other (the complement of
a complement) must not change its answer, and the Gauss sum of a product
must add up the factors' closed-form central charges."""

import random

import pytest
from reference_matrices import bareiss_determinant

from anyonlat.cli import parse_spec, parse_spec_factors
from anyonlat.gluing import (
    build_ef_positive,
    conjugate_realization,
    glue_selfdual_8,
    orthogonal_complement,
)
from anyonlat.lattices import (
    cartan_a,
    cartan_d,
    discriminant_form,
    e6_gram,
    e8_gram,
    k_double_prime,
    k_e,
    k_o,
    verify_realization,
)
from anyonlat.linalg import mat_mul, transpose
from anyonlat.metric_groups import (
    central_charge_closed,
    central_charge_gauss,
    conjugate,
    trivial_group,
)
from anyonlat.realize import kmatrix_for
from anyonlat.wall import direct_ef_k


def _random_unimodular(n, rng):
    """A signed permutation times 2n elementary row additions with +-1."""
    order = list(range(n))
    rng.shuffle(order)
    u = [[rng.choice((-1, 1)) if j == order[i] else 0 for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return u


# (Gram matrix builder, target, whether the Gram matrix realizes the target)
CASES = {
    "A2": (lambda: cartan_a(2).gram, lambda: parse_spec("B[3]"), True),
    "A2-wrong": (lambda: cartan_a(2).gram, lambda: parse_spec("A[3]"), False),
    "D7": (lambda: cartan_d(7).gram, lambda: parse_spec("B[4]"), True),
    "E6": (lambda: e6_gram().gram, lambda: parse_spec("A[3]"), True),
    "E8": (lambda: e8_gram().gram, trivial_group, True),
    "ke2": (lambda: k_e(2).gram, lambda: parse_spec("D[4]"), True),
    "ko3": (lambda: k_o(3).gram, lambda: parse_spec("D[8]"), True),
    "kpp5": (lambda: k_double_prime(5, 1, 1)[0].gram, lambda: parse_spec("A[5]"), True),
    "wall-B7": (lambda: kmatrix_for(parse_spec_factors("B[7]")[0])[0], lambda: parse_spec("B[7]"), True),
    "direct-F4": (lambda: direct_ef_k("F", 2), lambda: parse_spec("F[4]"), True),
    "complement-2": (lambda: conjugate_realization([[2]]),
                     lambda: conjugate(parse_spec("A[2]")), True),
    "complement-A2": (lambda: conjugate_realization(cartan_a(2).gram), lambda: parse_spec("A[3]"), True),
    "complement-A2-wrong": (lambda: conjugate_realization(cartan_a(2).gram),
                            lambda: parse_spec("B[3]"), False),
    "glued-E2": (lambda: build_ef_positive("E", 1), lambda: parse_spec("E[2]"), True),
    "glued-E2-wrong": (lambda: build_ef_positive("E", 1), lambda: parse_spec("F[2]"), False),
    "glued-F2": (lambda: build_ef_positive("F", 1), lambda: parse_spec("F[2]"), True),
    "glued-F4": (lambda: build_ef_positive("F", 2), lambda: parse_spec("F[4]"), True),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_verify_is_invariant_under_change_of_basis(name):
    build_gram, build_target, realizes = CASES[name]
    gram, target = build_gram(), build_target()
    rng = random.Random(f"unimodular-{name}")
    before = verify_realization(gram, target)
    assert before.passed == realizes, list(before.lines())
    inv_before = discriminant_form(gram).invariant_factors
    for _ in range(2):
        u = _random_unimodular(len(gram), rng)
        assert abs(bareiss_determinant(u)) == 1
        moved = mat_mul(mat_mul(u, gram), transpose(u))
        after = verify_realization(moved, target)
        assert after.passed == before.passed, list(after.lines())
        assert after.signature == before.signature
        assert after.det == before.det
        assert discriminant_form(moved).invariant_factors == inv_before


@pytest.mark.parametrize("base, spec", [
    ([[2]], "A[2]"),
    ([[4]], "A[4]"),
    (cartan_a(2).gram, "B[3]"),
], ids=["Z2", "Z4", "A2"])
def test_complement_of_complement_realizes_the_original_model(base, spec):
    comp = conjugate_realization(base)
    back = orthogonal_complement(glue_selfdual_8(comp))
    assert len(back) == 49 * len(base)
    report = verify_realization(back, parse_spec(spec))
    assert report.passed, list(report.lines())
    assert report.signature == len(back)


FAMILY_POOL = ["A[2]", "B[2]", "A[4]", "B[8]", "C[4]", "D[8]", "E[2]", "F[2]", "E[4]", "F[4]",
               "A[3]", "B[3]", "A[5]", "B[5]", "A[7]", "B[7]", "A[9]", "B[11]", "A[13]", "B[3^3]"]


def test_gauss_sum_of_a_product_adds_the_closed_forms():
    rng = random.Random("gauss-products")
    checked = 0
    while checked < 40:
        spec = "*".join(rng.choice(FAMILY_POOL) for _ in range(rng.randint(2, 4)))
        group = parse_spec(spec)
        if group.size > 4096:  # keeps each Gauss sum well under a second
            continue
        checked += 1
        closed = sum(central_charge_closed(f) for f in parse_spec_factors(spec)) % 8
        assert central_charge_gauss(group) == closed, spec
