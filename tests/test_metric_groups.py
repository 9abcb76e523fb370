import random
from fractions import Fraction
from math import lcm

import mpmath
import pytest

from anyonlat.metric_groups import (
    BudgetExceededError,
    DegenerateFormError,
    MetricGroup,
    PrimeFamilySpec,
    _cyclic,
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


def spec(fam, p, r):
    return PrimeFamilySpec(fam, p, r)


def cyclic_with_unit(p, r, m):
    """Z_{p^r} with q(1) = m / p^r: family A for odd p when (2m/p) = +1,
    family B when it is -1."""
    n = p**r
    return MetricGroup((n,), n, (m,), ((2 * m,),))


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
        # m = 1 has (2/5) = -1, the wrong character for A: its form is B's.
        wrong = cyclic_with_unit(5, 1, 1)
        assert is_isomorphic(build_prime(spec("A", 5, 1)), wrong) is None
        assert is_isomorphic(build_prime(spec("B", 5, 1)), wrong) is not None


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
        assert not is_nondegenerate(MetricGroup((2,), 1, (0,), ((0,),)))

    def test_f2(self):
        assert is_nondegenerate(build_prime(spec("F", 2, 1)))

    def test_matches_bruteforce_radical(self):
        """The index of chi's image in the character group against the
        radical listed by brute force, on seeded random forms, degenerate
        ones included."""
        rng = random.Random("radical")
        cases = [build_prime(spec("E", 2, 2)), build_prime(spec("B", 3, 2)),
                 MetricGroup((2, 2), 2, (1, 0), ((0, 0), (0, 0)))]
        cases += [random_form(rng) for _ in range(60)]
        degenerate = 0
        for g in cases:
            radical = [
                x for x in g.elements()
                if all(g.bilinear(x, y) == 0 for y in g.elements())
            ]
            assert is_nondegenerate(g) == (len(radical) == 1), g
            degenerate += len(radical) > 1
        assert degenerate == 41  # 40 of the random forms


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
        with pytest.raises(BudgetExceededError, match=r"^Gauss sum .* 12167 exceeds budget 100; raise it with --budget$"):
            central_charge_gauss(build_prime(spec("A", 23, 3)), budget=100)

    def test_parity_opposite_for_cyclic_families(self):
        for fam, p, r in [("A", 3, 1), ("B", 5, 2), ("A", 2, 3), ("B", 2, 2),
                          ("C", 2, 4), ("D", 2, 3), ("A", 11, 1)]:
            s = spec(fam, p, r)
            assert central_charge_closed(s) % 2 != (p**r) % 2

    def test_no_phase_for_degenerate_form(self):
        with pytest.raises(DegenerateFormError):
            central_charge_gauss(MetricGroup((2,), 1, (0,), ((0,),)))


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
        g2 = _swapped(g1)
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
        assert is_isomorphic(g, _swapped(g)) is not None

    def test_unit_choices_equivalent(self):
        # Any admissible parameter yields the same theory: p <= 13, r <= 2.
        from anyonlat.numtheory import jacobi_symbol

        for fam, want in (("A", 1), ("B", -1)):
            for p in (3, 5, 7, 11, 13):
                units = [m for m in range(1, p) if jacobi_symbol(2 * m, p) == want]
                for r in (1, 2):
                    base = build_prime(spec(fam, p, r))
                    assert base == cyclic_with_unit(p, r, units[0])
                    for m in units[1:]:
                        other = cyclic_with_unit(p, r, m)
                        assert is_isomorphic(base, other) is not None, (fam, p, r, m)

    def test_large_cyclic_fast_path(self):
        g1 = build_prime(spec("A", 23, 3))
        g2 = cyclic_with_unit(23, 3, canonical_unit("A", 23))
        assert g1.size == 12167
        assert is_isomorphic(g1, g2) is not None
        assert is_isomorphic(g1, conjugate(g1)) is None  # c = 2 vs c = 6

    def test_level_one_cyclic(self):
        # q vanishes identically, so the identity is an isometry.
        for n in (2, 3, 12):
            g = MetricGroup((n,), 1, (0,), ((0,),))
            assert is_isomorphic(g, g) == ((1,),)


def test_q_table_budget():
    g = build_prime(spec("A", 2, 17))
    assert g.size == 2**17
    with pytest.raises(BudgetExceededError) as err:
        g.q_values()
    assert str(err.value) == ("q table (q_values): group of order 131072 exceeds the dense-table limit "
                              "DENSE_TABLE_LIMIT = 65536; no flag raises it")


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


def test_unit_root_is_correctly_rounded():
    """w = (cos, sin)(2 pi/N) 2^F from Machin's pi and the Taylor series
    is within 1/2 + 2^-20 ulp of mpmath's value at F + 40 bits in each part,
    on every level 1-399 and four large ones, at F = 40..127; a w one ulp
    off fails almost everywhere on this grid."""
    from anyonlat.metric_groups import _unit_root

    levels = [*range(1, 400), 12167, 531441, 10**6, 2 * 10**6]
    slack = 0.5 + 2**-20 + 2**-30  # the bound, and the reference's own error
    for bits in range(40, 128):
        with mpmath.workprec(bits + 40):
            for n in levels:
                wr, wi = _unit_root(n, bits)
                angle = 2 * mpmath.pi / n
                assert abs(wr - mpmath.ldexp(mpmath.cos(angle), bits)) <= slack, (n, bits)
                assert abs(wi - mpmath.ldexp(mpmath.sin(angle), bits)) <= slack, (n, bits)
    assert _unit_root(1, 40) == (1 << 40, 0)
    assert _unit_root(2, 40) == (-(1 << 40), 0)
    assert _unit_root(4, 40) == (0, 1 << 40)


def fraction_q(g, x):
    """q(x) mod 1 recomputed in Fractions from q and chi on the generators."""
    k = len(g.orders)
    total = sum(x[i] * x[i] * g.gen_q[i] for i in range(k))
    total += sum(x[i] * x[j] * g.gen_bil[i][j] for i in range(k) for j in range(i + 1, k))
    return total % 1


def fraction_bilinear(g, x, y):
    k = len(g.orders)
    return sum(x[i] * y[j] * g.gen_bil[i][j] for i in range(k) for j in range(k)) % 1


def reference_gauss(g):
    """The Gauss sum computed the slow way: a Fraction q table and one 96-bit
    mpmath phase per distinct value, matched within 1e-9; None when no phase
    e^(i pi c/4) matches."""
    counts = {}
    for x in g.elements():
        value = fraction_q(g, x)
        counts[value] = counts.get(value, 0) + 1
    with mpmath.workprec(96):
        total = mpmath.mpc(0)
        for value, count in sorted(counts.items()):
            total += count * mpmath.expjpi(2 * mpmath.mpf(value.numerator) / value.denominator)
        norm = total / mpmath.sqrt(g.size)
        for c in range(8):
            if abs(norm - mpmath.expjpi(mpmath.mpf(c) / 4)) < 1e-9:
                return c
    return None


def random_family(rng):
    """The group of a prime family with |A| <= 169, odd A/B with a random
    admissible unit."""
    from anyonlat.numtheory import jacobi_symbol

    if rng.random() < 0.5:
        fam, p, r = rng.choice("AB"), rng.choice((3, 5, 7, 11, 13)), rng.choice((1, 1, 2))
        want = 1 if fam == "A" else -1
        units = [m for m in range(1, p) if jacobi_symbol(2 * m, p) == want]
        return cyclic_with_unit(p, r, rng.choice(units))
    fam = rng.choice("ABCDEF")
    r = rng.randint(2, 4) if fam in "CD" else rng.randint(1, 3)
    return build_prime(spec(fam, 2, r))


def random_form(rng):
    """A metric group, possibly degenerate, with q and chi drawn at random."""
    orders = rng.choice([(2,), (4,), (6,), (9,), (2, 2), (2, 4), (3, 3), (2, 6), (4, 8), (2, 2, 4), (3, 6, 6)])
    k = len(orders)
    # n^2 q(e_i) and n chi(e_i, e_i) = 2 n q(e_i) must be integers.  All
    # values are numerators over den = 2 lcm(orders).
    den = 2 * lcm(*orders)
    gen_q = [rng.randrange(2 * n) * (den // (2 * n)) if n % 2 == 0 else rng.randrange(n) * (den // n)
             for n in orders]
    bil = [[2 * gen_q[i] if i == j else 0 for j in range(k)] for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            bil[i][j] = bil[j][i] = rng.randrange(orders[i]) * (den // orders[i])
    return MetricGroup(orders, den, gen_q, bil)


def test_gauss_sum_matches_the_fraction_reference():
    """Seeded direct sums of one to three prime families (non-canonical
    units included), conjugates, and forms that match no phase."""
    rng = random.Random("gauss-reference")
    cases = [MetricGroup((2,), 1, (0,), ((0,),)), MetricGroup((2, 2), 2, (1, 0), ((0, 0), (0, 0))),
             MetricGroup((4,), 2, (1,), ((0,),))]
    while len(cases) < 100:
        group = trivial_group()
        for _ in range(rng.randint(1, 3)):
            group = direct_sum(group, random_family(rng))
        if group.size <= 1500:
            cases.append(conjugate(group) if rng.random() < 0.25 else group)
    degenerate = 0
    for g in cases:
        want = reference_gauss(g)
        if want is None:
            degenerate += 1
            with pytest.raises(DegenerateFormError):
                central_charge_gauss(g)
        else:
            assert central_charge_gauss(g) == want, g
    assert degenerate == 3


def test_gauss_precision_meets_the_error_bound():
    """The sum is off by less than 36 N |A| 2^-F, and the proof needs that
    to be at most 2^-36 sqrt|A|: (36 N)^2 |A| <= 2^(2 (F - 36)) in ints, over
    a grid of levels N and orders |A| up to and past the 10^6 budget."""
    from anyonlat.metric_groups import _gauss_bits

    values = sorted({*range(1, 130), *(2**k + d for k in range(7, 22) for d in (-1, 0, 1)),
                     12167, 531441, 10**6 - 1, 10**6, 10**6 + 1, 2 * 10**6})
    for level in values:
        for size in values:
            bits = _gauss_bits(level, size)
            assert (36 * level) ** 2 * size <= 1 << (2 * (bits - 36)), (level, size)
    assert _gauss_bits(23**3, 23**3) == 63
    assert _gauss_bits(3**12, 3**12) == 72


def test_packed_block_sum_has_room_for_all_of_a():
    """At level 2 one block carries all of |A|, and its low slot sums the
    packed real parts 3 2^F and 2^F over |A| elements: for E[2]^a + F[2]^b
    with b even it reaches past 2^(F + 1 + bits(|A| - 1)), so a slot one bit
    narrower carries into the imaginary part.  Products up to |A| = 4^9, the
    largest within the Gauss budget, against the closed form."""
    e2, f2 = spec("E", 2, 1), spec("F", 2, 1)
    mixes = [(a, m - a) for m in range(1, 7) for a in range(m + 1)] + [(7, 2)]
    for a, b in mixes:
        group = trivial_group()
        for s in [e2] * a + [f2] * b:
            group = direct_sum(group, build_prime(s))
        assert group.level == 2 and group.size == 4 ** (a + b)
        assert central_charge_gauss(group) == 4 * b % 8, (a, b)


def _histogram_cases():
    """Cyclic groups of odd and even order (2 and 4 included), E and F at
    p = 2, sums with two or three Z2 factors (several self-paired prefixes),
    seeded random forms (degenerate ones included) and the trivial group."""
    rng = random.Random("paired-histogram")
    families = [spec("A", 2, 1), spec("B", 2, 2), spec("B", 3, 1), spec("A", 5, 1), spec("C", 2, 3),
                spec("A", 3, 2), spec("D", 2, 4), spec("E", 2, 1), spec("F", 2, 1), spec("E", 2, 2),
                spec("F", 2, 3)]
    cases = [trivial_group(), _cyclic(6, 1, 12), _cyclic(2, 1, 2), _cyclic(4, 1, 2)]
    cases += [build_prime(s) for s in families]
    a2, e2 = build_prime(spec("A", 2, 1)), build_prime(spec("E", 2, 1))
    cases += [direct_sum(a2, a2), direct_sum(direct_sum(a2, a2), a2), direct_sum(e2, a2),
              direct_sum(e2, build_prime(spec("F", 2, 2))),
              direct_sum(direct_sum(a2, build_prime(spec("A", 2, 2))), build_prime(spec("B", 3, 1))),
              direct_sum(direct_sum(a2, e2), build_prime(spec("A", 3, 1)))]
    cases += [random_form(rng) for _ in range(30)]
    return cases


def test_paired_histogram_counts_every_element_once():
    """The histogram built from one x of each pair {x, -x} against a count of
    `_q_sum` over every element; the flattened rows in `g.elements()` order."""
    from anyonlat.metric_groups import _q_histogram, _q_numerators, _q_sum

    cases = _histogram_cases()
    assert any(len(g.orders) == 3 and g.orders[:2] == (2, 2) for g in cases)
    assert sum(not is_nondegenerate(g) for g in cases) >= 5
    for g in cases:
        values = [_q_sum(x, g.gen_q_num, g.gen_bil_num, g.level) for x in g.elements()]
        want = [0] * g.level
        for v in values:
            want[v] += 1
        assert _q_histogram(g) == want, g
        assert list(_q_numerators(g)) == values, g


def test_histogram_of_many_generators_counts_every_element():
    """The prefix values follow `itertools.product` one coordinate move at a
    time; on E/F products and mixed groups of up to 16 generators (the last
    one E[2]^5 + F[2]^3, |A| = 4^8) the paired histogram still equals a
    count of `_q_sum` over every element, and the flat view its order."""
    from anyonlat.metric_groups import _q_histogram, _q_numerators, _q_sum

    rng = random.Random("many-generators")
    e2, f2 = build_prime(spec("E", 2, 1)), build_prime(spec("F", 2, 1))
    pool = [e2, f2, build_prime(spec("E", 2, 2)), build_prime(spec("A", 2, 1)), build_prime(spec("B", 2, 2)),
            build_prime(spec("A", 3, 1)), build_prime(spec("B", 5, 1)), build_prime(spec("C", 2, 3))]
    cases = []
    for factors in ([e2] * 3 + [f2] * 2, [f2] * 4, [e2, f2, pool[3], pool[5]]):
        cases.append(factors)
    for _ in range(6):
        cases.append(rng.sample(pool, rng.randint(2, 4)) + [random_form(rng)])
    cases.append([e2] * 5 + [f2] * 3)
    for factors in cases:
        g = trivial_group()
        for f in factors:
            g = direct_sum(g, f)
        values = [_q_sum(x, g.gen_q_num, g.gen_bil_num, g.level) for x in g.elements()]
        want = [0] * g.level
        for v in values:
            want[v] += 1
        assert _q_histogram(g) == want, g
        assert list(_q_numerators(g)) == values, g
    assert len(g.orders) == 16 and g.size == 4**8


def test_rows_are_cut_into_chunks_without_changing_the_counts(monkeypatch):
    """With ROW_CHUNK = 3 every row longer than three values is cut; the
    histogram and the flattened order stay the same, and no run is longer."""
    from anyonlat import metric_groups
    from anyonlat.metric_groups import _q_histogram, _q_numerators, _q_rows

    cases = _histogram_cases() + [build_prime(spec("A", 2, 4)), build_prime(spec("B", 3, 3))]
    whole = [(_q_histogram(g), list(_q_numerators(g))) for g in cases]
    monkeypatch.setattr(metric_groups, "ROW_CHUNK", 3)
    for g, (counts, values) in zip(cases, whole):
        assert _q_histogram(g) == counts and list(_q_numerators(g)) == values, g
        for paired in (False, True):
            assert all(len(run) <= 3 for _, run in _q_rows(g, paired)), g


def _level_n_groups(n):
    """A nondegenerate form of level n, and for even n the degenerate Z_n
    with q(1) = 1/n (radical of order 2)."""
    if n == 1:
        return [trivial_group()]
    if n % 2:
        return [_cyclic(n, 1, n)]
    if n % 4 == 0:
        return [_cyclic(n // 2, 1, n), _cyclic(n, 1, n)]
    e2 = build_prime(spec("E", 2, 1))
    return [e2 if n == 2 else direct_sum(e2, _cyclic(n // 2, 1, n // 2)), _cyclic(n, 1, n)]


def test_block_sum_matches_the_fraction_reference():
    """Levels on both sides of each block edge B^2 (B = ceil(sqrt N)), the
    levels 1 to 4, larger levels, and degenerate forms whose radicals have
    order 2 and 4, against the mpmath reference."""
    levels = [1, 2, 3, 4]
    for b in range(2, 13):
        levels += [b * b - 1, b * b, b * b + 1]
    levels += [32 * 32 - 1, 32 * 32, 32 * 32 + 1]
    cases = [g for n in levels for g in _level_n_groups(n)]
    assert {g.level for g in cases} == set(levels)
    cases += [build_prime(spec("B", 23, 2)), build_prime(spec("A", 3, 7)),
              direct_sum(build_prime(spec("E", 2, 4)), build_prime(spec("A", 5, 1)))]
    a27 = build_prime(spec("A", 3, 3))
    zero4 = MetricGroup((2, 2), 1, (0, 0), ((0, 0), (0, 0)))  # radical of order 4, q = 0 on it
    half4 = _cyclic(4, 1, 2)  # q(x) = x^2/2: radical of order 4, q = 1/2 on it
    degenerate = [_cyclic(50, 1, 50), direct_sum(a27, zero4), direct_sum(a27, half4),
                  direct_sum(build_prime(spec("B", 5, 2)), _cyclic(2, 1, 2))]
    cases += degenerate
    refused = 0
    for g in cases:
        want = reference_gauss(g)
        if want is None:
            refused += 1
            with pytest.raises(DegenerateFormError):
                central_charge_gauss(g)
        else:
            assert central_charge_gauss(g) == want, g
    assert refused == sum(not is_nondegenerate(g) for g in cases) >= len(degenerate) + 10


def test_q_and_chi_match_a_fraction_recomputation():
    """q, bilinear and q_values against Fraction sums over the generators,
    on every element of seeded random forms and direct sums."""
    rng = random.Random("int-evaluator")
    groups = [random_form(rng) for _ in range(25)]
    groups += [direct_sum(random_family(rng), random_family(rng)) for _ in range(15)]
    for g in groups:
        if g.size > 1000:
            continue
        table = g.q_values()
        elements = list(g.elements())
        assert list(table) == elements
        for x in elements:
            assert table[x] == g.q(x) == fraction_q(g, x)
            assert g.q(x).denominator <= g.level and g.level % g.q(x).denominator == 0
        for _ in range(50):
            x, y = rng.choice(elements), rng.choice(elements)
            chi = g.bilinear(x, y)
            assert chi == fraction_bilinear(g, x, y) == (g.q(g.add(x, y)) - g.q(x) - g.q(y)) % 1
            # Unreduced representatives give the same values.
            shifted = tuple(a + 3 * n for a, n in zip(x, g.orders))
            assert g.q(shifted) == g.q(x) and g.bilinear(shifted, y) == chi
        # The level is the lcm of the reduced denominators of q and chi, on
        # the generators and over every value of q.
        assert g.level == lcm(1, *(x.denominator for x in g.gen_q),
                              *(x.denominator for row in g.gen_bil for x in row))
        assert g.level == lcm(1, *(v.denominator for v in table.values()))
        # Numerators over any multiple of the level, shifted by multiples of
        # the denominator, build the same group.
        scale = rng.randint(2, 6)
        den = scale * g.level
        scaled = MetricGroup(g.orders, den, [scale * v + den * rng.randint(-2, 2) for v in g.gen_q_num],
                             [[scale * v for v in row] for row in g.gen_bil_num])
        assert scaled == g and hash(scaled) == hash(g)


def test_level_is_the_lcm_of_the_generator_denominators():
    assert build_prime(spec("A", 2, 1)).level == 4  # q(1) = 1/4
    assert build_prime(spec("E", 2, 1)).level == 2
    assert build_prime(spec("B", 3, 1)).level == 3
    assert direct_sum(build_prime(spec("E", 2, 1)), build_prime(spec("A", 2, 1))).level == 4
    assert build_prime(spec("F", 2, 3)).level == 8
    assert trivial_group().level == 1


@pytest.mark.parametrize("orders, den, q_num, bil_num", [
    ((4.9,), 4, (1,), ((2,),)),
    (("4",), 4, (1,), ((2,),)),
    ((True, 2), 4, (1, 0), ((2, 0), (0, 0))),
    ((4,), 4.0, (1,), ((2,),)),
    ((4,), Fraction(4), (1,), ((2,),)),
    ((4,), 4, (Fraction(1, 4),), ((Fraction(1, 2),),)),
    ((4,), 4, (0.25,), ((0.5,),)),
    ((4,), 4, (1,), ((2.0,),)),
    ((4,), 4, (True,), ((2,),)),
])
def test_constructor_refuses_anything_but_ints(orders, den, q_num, bil_num):
    """Each of these once came back as Z4 with q = 1/4 or the like."""
    with pytest.raises(TypeError, match="must be ints"):
        MetricGroup(orders, den, q_num, bil_num)


@pytest.mark.parametrize("x", [(1.9,), ("3",), (True,), (Fraction(1),), (1.0,)])
def test_elements_refuse_coordinates_that_are_not_ints(x):
    """On A[4] each of these once came back as q = 1/8."""
    g = build_prime(spec("A", 2, 2))
    with pytest.raises(TypeError, match="must be ints"):
        g.q(x)
    with pytest.raises(TypeError, match="must be ints"):
        g.bilinear((1,), x)


@pytest.mark.parametrize("x", [(), (1, 5), (1, 0, 0)])
def test_elements_refuse_the_wrong_number_of_coordinates(x):
    g = build_prime(spec("A", 2, 2))
    assert g.q((1,)) == g.q((5,)) == Fraction(1, 8)
    with pytest.raises(ValueError, match="coordinates, want 1"):
        g.q(x)
    with pytest.raises(ValueError, match="coordinates, want 1"):
        g.bilinear((1,), x)


@pytest.mark.parametrize("den", [0, -4])
def test_constructor_refuses_a_denominator_below_one(den):
    with pytest.raises(ValueError, match="denominator must be >= 1"):
        MetricGroup((4,), den, (1,), ((2,),))


def test_groups_of_different_levels_are_not_isomorphic():
    # Z2 x Z2: toric code (level 2) against two semions (level 4).
    semion = build_prime(spec("A", 2, 1))
    assert is_isomorphic(build_prime(spec("E", 2, 1)), direct_sum(semion, semion)) is None
    # Z4 with q(1) = 1/4 (level 4) against A[4] (q(1) = 1/8, level 8).
    assert is_isomorphic(MetricGroup((4,), 4, (1,), ((2,),)),
                         build_prime(spec("A", 2, 2))) is None
    # Z64 x Z64 twice: the level decides before the size budget is consulted.
    e64 = build_prime(spec("E", 2, 6))
    ab64 = direct_sum(build_prime(spec("A", 2, 6)), build_prime(spec("B", 2, 6)))
    assert e64.orders == ab64.orders and (e64.level, ab64.level) == (64, 128)
    assert is_isomorphic(e64, ab64, budget=1) is None
    with pytest.raises(BudgetExceededError, match=r"^isometry search .* 4096 exceeds budget 1; raise it with --budget$"):
        is_isomorphic(e64, e64, budget=1)


def _unpruned_isometries(g1, g2):
    """The isometry search without its pruning: every element with
    q(x) = q(e_i) and order dividing n_i is tried at level i, and chi is
    summed from the generator data at every node.  Kept as the reference the
    pruned `_isometries` must reproduce, sequence and all."""
    from anyonlat.metric_groups import _bil_sum, _order_index, _q_numerators

    if g1.level != g2.level:
        return
    k = len(g1.orders)
    level, bil2 = g2.level, g2.gen_bil_num
    buckets = {}
    for x, v in zip(g2.elements(), _q_numerators(g2)):
        buckets.setdefault(v, []).append(x)
    images = []

    def extend(i):
        if i == k:
            if _order_index(images, g1.orders) == 1:
                yield tuple(images)
            return
        n_i = g1.orders[i]
        want = g1.gen_bil_num[i]
        for x in buckets.get(g1.gen_q_num[i], ()):
            if n_i % g2.order_of(x):
                continue
            if any(_bil_sum(x, images[j], bil2, level) != want[j] for j in range(i)):
                continue
            images.append(x)
            yield from extend(i + 1)
            images.pop()

    yield from extend(0)


def _swapped(g):
    """g with its first two generators exchanged (same invariant factors)."""
    perm = [1, 0] + list(range(2, len(g.orders)))
    return MetricGroup(g.orders, g.level, [g.gen_q_num[i] for i in perm],
                       [[g.gen_bil_num[i][j] for j in perm] for i in perm])


def _pairs_for_the_pruning_check():
    from anyonlat.cli import parse_spec

    pairs = []
    # Isometric pairs: a group with itself, relabeled, and factors reordered.
    for text in ("E[2]*E[2]", "E[2]*F[2]", "A[2]*A[2]*A[2]", "B[2^2]*B[2^2]",
                 "A[2]*A[2^2]*B[3]", "E[2^2]*A[2]", "F[2^2]", "C[2^2]*D[2^2]*A[2]"):
        g = parse_spec(text)
        pairs.append((g, g))
        if g.orders[0] == g.orders[1]:
            pairs.append((g, _swapped(g)))
    pairs.append((parse_spec("A[2]*B[2]*A[2^2]"), parse_spec("B[2]*A[2^2]*A[2]")))
    # E against F (E[2]^2 and F[2]^2 are isometric, the others are not), and
    # conjugates that are not isometric: same invariant factors and level.
    for a, b in (("E[2]", "F[2]"), ("E[2^2]", "F[2^2]"), ("E[2]*A[2]", "F[2]*A[2]"),
                 ("E[2]*E[2]", "F[2]*F[2]")):
        pairs.append((parse_spec(a), parse_spec(b)))
    for text in ("A[2]*A[2]", "A[2]*A[2]*A[2^2]", "C[2^2]*A[2]"):
        g = parse_spec(text)
        pairs.append((g, conjugate(g)))
    # Degenerate forms: q and chi vanish on part of the group, so maps that
    # preserve them can fail to be injective.
    flat = MetricGroup((2, 2), 1, (0, 0), ((0, 0), (0, 0)))
    odd = MetricGroup((2, 2), 2, (1, 0), ((0, 0), (0, 0)))
    half_radical = MetricGroup((2, 4), 8, (0, 1), ((0, 0), (0, 2)))
    rank3 = MetricGroup((2, 2, 2), 2, (0, 0, 1), ((0, 1, 0), (1, 0, 0), (0, 0, 0)))
    pairs += [(flat, flat), (odd, odd), (flat, odd), (odd, flat), (half_radical, half_radical),
              (rank3, rank3), (rank3, _swapped(rank3))]
    return pairs


def test_pruned_isometry_search_matches_the_unpruned_sequence():
    from anyonlat.metric_groups import _isometries

    hits = 0
    for g1, g2 in _pairs_for_the_pruning_check():
        want = list(_unpruned_isometries(g1, g2))
        assert list(_isometries(g1, g2)) == want, (g1, g2)
        hits += bool(want)
    assert hits >= 12  # the isometric pairs and the degenerate ones with a self-map
