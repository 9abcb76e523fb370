import random
from fractions import Fraction

import pytest

from reference_matrices import wall_w

from anyonlat.linalg import determinant, inertia, rational_inverse, signature, smith_normal_form
from anyonlat.metric_groups import PrimeFamilySpec, build_prime, central_charge_closed
from anyonlat.lattices import verify_realization
from anyonlat.numtheory import is_prime
from anyonlat.wall import (
    SpecialCaseRouted,
    choose_c_for_family,
    direct_ef_k,
    k_from_wall,
    wall_sequence,
)


def test_sequence_4_mod_7():
    seq = wall_sequence(4, 7)
    assert seq.d == (2, 1)
    assert seq.a == (2,)
    assert seq.epsilon == 1
    assert wall_w(seq) == [[Fraction(4, 7), 1], [1, 2]]


def test_sequence_1_mod_4():
    seq = wall_sequence(1, 4)
    assert seq.a == (4, -2)
    assert wall_w(seq) == [[Fraction(1, 4), 1, 0], [1, 4, 1], [0, 1, -2]]


def test_sequence_invariants_sweep():
    checked = 0
    for modulus in list(range(3, 80)) + [3**4, 2**7, 5**3]:
        try:
            p = next(q for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
                                 43, 47, 53, 59, 61, 67, 71, 73, 79)
                     if modulus % q == 0)
        except StopIteration:
            continue
        m = modulus
        while m % p == 0:
            m //= p
        if m != 1:
            continue  # not a prime power
        step = 2 if p != 2 else 1
        start = 2 if p != 2 else 1
        for n in range(start, modulus, step):
            if n % p == 0:
                continue
            seq = wall_sequence(n, modulus)
            checked += 1
            assert seq.epsilon in (1, -1)
            d = seq.d
            assert 1 == n * d[0] - modulus * d[1]
            for i, a in enumerate(seq.a):
                nxt = d[i + 2] if i + 2 < len(d) else 0
                assert d[i] == a * d[i + 1] - nxt
                assert (a * d[i + 1]) % 2 == 0  # even-multiple rule
            for i in range(1, len(d) - 1):
                assert abs(d[i + 1]) < abs(d[i])
            # parity of the number of steps is forced by the modulus parity
            assert seq.k % 2 == (1 if p != 2 else 0)
    assert checked > 150


def test_w_determinant_property_random():
    rng = random.Random(424242)
    done = 0
    while done < 50:
        p = rng.choice([2, 3, 5, 7, 11, 13])
        r = rng.randint(1, 5 if p == 2 else 3)
        modulus = p**r
        if modulus < 3:
            continue
        n = rng.randrange(1, modulus)
        if n % p == 0 or (p != 2 and n % 2):
            continue
        seq = wall_sequence(n, modulus)
        k = k_from_wall(n, modulus)
        assert len(k) == seq.k + 1
        assert determinant(k) == seq.epsilon * modulus  # det W = epsilon / modulus
        done += 1


def _inverse_of_w(n, modulus):
    k = rational_inverse(wall_w(wall_sequence(n, modulus)))
    assert all(x.denominator == 1 for row in k for x in row)
    return [[int(x) for x in row] for row in k]


def test_k_from_wall_matches_the_rational_inverse_of_w():
    """The continuant K against a Gaussian solve of the Fraction W, over the
    canonical parameter of A/B at odd p < 100 and A-D at p = 2, r <= 3."""
    checked = 0
    for p in [q for q in range(2, 100) if is_prime(q)]:
        for r in (1, 2, 3):
            for fam in ("ABCD" if p == 2 else "AB"):
                try:
                    spec = PrimeFamilySpec(fam, p, r)
                    n = choose_c_for_family(spec)
                except ValueError:  # no such family, or SpecialCaseRouted
                    continue
                assert k_from_wall(n, p**r) == _inverse_of_w(n, p**r), spec
                checked += 1
    assert checked == 150


def test_k_from_wall_examples():
    assert k_from_wall(4, 7) == [[14, -7], [-7, 4]]
    assert inertia(k_from_wall(4, 7)) == (2, 0, 0)
    assert k_from_wall(2, 27) == [[378, -27], [-27, 2]]
    assert signature(k_from_wall(2, 27)) == 2
    k = k_from_wall(1, 4)
    assert determinant(k) == -4
    assert smith_normal_form(k).invariant_factors() == [4]
    assert signature(k) == 1


def test_k_from_wall_signature_matches_charge():
    for fam, p, r in [("A", 5, 1), ("A", 3, 2), ("B", 7, 1), ("B", 17, 1),
                      ("A", 2, 4), ("B", 2, 5), ("C", 2, 3), ("D", 2, 2)]:
        spec = PrimeFamilySpec(fam, p, r)
        n = choose_c_for_family(spec)
        k = k_from_wall(n, p**r)
        assert (signature(k) - central_charge_closed(spec)) % 8 == 0


def test_choose_c_examples():
    assert choose_c_for_family(PrimeFamilySpec("A", 5, 1)) == 4
    assert choose_c_for_family(PrimeFamilySpec("D", 2, 2)) == 3
    assert choose_c_for_family(PrimeFamilySpec("B", 17, 1)) == 6


def test_choose_c_special_cases():
    for fam, p, r in [("A", 3, 1), ("B", 2, 1), ("B", 2, 2), ("C", 2, 2)]:
        with pytest.raises(SpecialCaseRouted):
            choose_c_for_family(PrimeFamilySpec(fam, p, r))


def test_direct_e_k():
    assert direct_ef_k("E", 1) == [[0, 2], [2, 0]]
    for r in (1, 2, 3, 4):
        k = direct_ef_k("E", r)
        assert k == [[0, 2**r], [2**r, 0]]
        assert signature(k) == 0
        target = build_prime(PrimeFamilySpec("E", 2, r))
        assert verify_realization(k, target).passed


def test_direct_f_k():
    k1 = direct_ef_k("F", 1)
    assert signature(k1) == 4
    assert smith_normal_form(k1).invariant_factors() == [2, 2]
    assert verify_realization(k1, build_prime(PrimeFamilySpec("F", 2, 1))).passed
    k2 = direct_ef_k("F", 2)
    assert signature(k2) == 0
    assert verify_realization(k2, build_prime(PrimeFamilySpec("F", 2, 2))).passed
    k3 = direct_ef_k("F", 3)
    assert signature(k3) == 4
    assert verify_realization(k3, build_prime(PrimeFamilySpec("F", 2, 3))).passed


def test_direct_f_k_is_the_inverse_of_its_w():
    for r in range(1, 13):
        n = 2**r
        a, b = (n - (-1) ** r) // 3, (-1) ** (r - 1)
        w = [
            [Fraction(2, n), Fraction(1, n), 0, 0],
            [Fraction(1, n), Fraction(2, n), 1, 0],
            [0, 1, 2 * a, 1],
            [0, 0, 1, 2 * b],
        ]
        assert direct_ef_k("F", r) == rational_inverse(w), r


def test_wall_rejects_bad_input():
    with pytest.raises(ValueError):
        wall_sequence(3, 9)  # n not coprime
    with pytest.raises(ValueError):
        wall_sequence(3, 7)  # odd n with odd modulus
    with pytest.raises(ValueError):
        wall_sequence(2, 12)  # not a prime power
    with pytest.raises(ValueError):
        wall_sequence(9, 7)  # out of range
