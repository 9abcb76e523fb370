"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its measured time and asserting the stated time budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import random
import time
from fractions import Fraction

from reference_matrices import (
    E4_16x16_K,
    F4_CORRECTED,
    F4_PRINTED_INVALID,
    KE_DISPLAY,
    KO3,
    P5_C4_K,
    SU3_K,
    WALL_BRANCH_CASES,
    glued_lattice_oracle,
    smith_u_inv_columns,
)

from anyonlat.cli import parse_spec
from anyonlat.gluing import build_ef_positive, glue_selfdual_8, orthogonal_complement
from anyonlat.lattices import (
    cartan_a,
    cartan_d,
    discriminant_form,
    e6_gram,
    e7_gram,
    e8_gram,
    k_double_prime,
    k_e,
    verify_realization,
)
from anyonlat.linalg import (
    determinant,
    has_even_diagonal,
    inertia,
    is_positive_definite,
    mat_mul,
    rational_inverse,
    signature,
    smith_normal_form,
    solve_columns,
)
from anyonlat.metric_groups import (
    PrimeFamilySpec,
    build_prime,
    central_charge_closed,
    central_charge_gauss,
    conjugate,
    direct_sum,
    gauged_center_fpdim,
    trivial_group,
)
from anyonlat.symmetry import aut_bruteforce, aut_order_closed
from anyonlat.wall import choose_c_for_family, k_from_wall
from anyonlat.weights import coset_minima

ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


class _Criterion:
    def __init__(self, number, limit_seconds):
        self.number = number
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.limit else "FAIL"
        print(f"ACCEPTANCE {self.number}: {status} ({elapsed:.2f}s, limit {self.limit}s)")
        if exc_type is None:
            assert elapsed < self.limit, f"criterion {self.number} exceeded {self.limit}s"
        return False


def all_family_specs(odd_r=(1, 2, 3), two_r_max=6):
    specs = []
    for fam in "AB":
        for p in ODD_PRIMES:
            for r in odd_r:
                specs.append(PrimeFamilySpec(fam, p, r))
    for fam in "ABCDEF":
        start = 2 if fam in "CD" else 1
        for r in range(start, two_r_max + 1):
            specs.append(PrimeFamilySpec(fam, 2, r))
    return specs


def test_criterion_1_central_charge_table():
    # Closed form vs Gauss-sum oracle: exact equality mod 8, zero tolerance.
    with _Criterion(1, 5.0):
        specs = all_family_specs()
        assert len(specs) == 82  # 48 odd-prime cyclic + 34 at p = 2
        for spec in specs:
            closed = central_charge_closed(spec)
            gauss = central_charge_gauss(build_prime(spec), budget=10**6)
            assert closed == gauss, spec


def test_criterion_2_wall_synthesis_end_to_end():
    with _Criterion(2, 30.0):
        special = []
        verified = 0
        for spec in all_family_specs():
            if spec.family in "EF":
                continue
            n = choose_c_for_family(spec)
            if n is None:
                special.append((spec.family, spec.p, spec.r))
                continue
            modulus = spec.p**spec.r
            k = k_from_wall(n, modulus)  # internally: even, integral, cyclic cokernel
            assert abs(determinant(k)) == modulus
            assert smith_normal_form(k).invariant_factors() == [modulus]
            report = verify_realization(k, build_prime(spec))
            assert report.passed, (spec, list(report.lines()))
            assert (report.signature - central_charge_closed(spec)) % 8 == 0
            verified += 1
        assert sorted(special) == [("A", 3, 1), ("B", 2, 1), ("B", 2, 2), ("C", 2, 2)]
        assert verified == 66


def test_criterion_3_printed_matrix_regression():
    with _Criterion(3, 10.0):
        # Every per-branch W-matrix fixture (exact, corrected-corner, or
        # documented-divergent) re-run through the oracle.
        from test_reference_regression import test_wall_branch

        for case in WALL_BRANCH_CASES:
            test_wall_branch(case)
        # Explicit matrices with their stated models.
        assert verify_realization(SU3_K, parse_spec("B[3]")).passed
        assert verify_realization(P5_C4_K, parse_spec("A[5]")).passed
        assert verify_realization(E4_16x16_K, parse_spec("E[4]")).passed
        f4 = verify_realization(F4_CORRECTED, parse_spec("F[4]"))
        assert f4.passed and f4.signature == 0  # definiteness claim is erratic
        assert determinant(F4_PRINTED_INVALID) != 16  # second erratum, documented
        assert verify_realization(KE_DISPLAY, parse_spec("D[2^4]")).passed
        assert verify_realization(k_e(2).gram, parse_spec("D[4]")).passed
        assert verify_realization(KO3, parse_spec("D[8]")).passed
        lat, pprime, _ = k_double_prime(5, 1, -1)
        assert pprime == 31 and lat.rank == 32
        assert verify_realization(lat.gram, parse_spec("B[5]")).passed
        for r in (1, 2, 3, 4):
            assert verify_realization([[0, 2**r], [2**r, 0]], parse_spec(f"E[2^{r}]")).passed
        # Simply-laced forms: A2, D7, E6 (4/3), E7 (3/2), E8 (trivial).
        assert verify_realization(cartan_a(2).gram, parse_spec("B[3]")).passed
        assert verify_realization(cartan_d(7).gram, parse_spec("B[4]")).passed
        assert discriminant_form(e6_gram().gram).q2_gen == (Fraction(4, 3),)
        assert verify_realization(e6_gram().gram, parse_spec("A[3]")).passed
        assert discriminant_form(e7_gram().gram).q2_gen == (Fraction(3, 2),)
        assert verify_realization(e7_gram().gram, conjugate(parse_spec("A[2]"))).passed
        assert verify_realization(e8_gram().gram, trivial_group()).passed


def test_criterion_4_complement_construction():
    with _Criterion(4, 120.0):  # 60s per pipeline
        glued = glue_selfdual_8([[2]])
        lam, _ = glued_lattice_oracle([[2]], glued)
        assert len(lam) == 8 and has_even_diagonal(lam) and abs(determinant(lam)) == 1
        comp = orthogonal_complement(glued)
        assert comp.rank == 7
        assert determinant(comp.gram) == 2
        assert comp.is_even and is_positive_definite(comp.gram)
        assert discriminant_form(comp.gram).q2_gen == (Fraction(3, 2),)
        assert verify_realization(comp.gram, conjugate(build_prime(PrimeFamilySpec("A", 2, 1)))).passed

        comp2 = orthogonal_complement(glue_selfdual_8(cartan_a(2)))
        assert comp2.rank == 14
        assert discriminant_form(comp2.gram).q2_gen == (Fraction(4, 3),)
        assert verify_realization(comp2.gram, build_prime(PrimeFamilySpec("A", 3, 1))).passed


def test_criterion_5_ef_positive_definite_gluing():
    with _Criterion(5, 120.0):
        for fam in "EF":
            for r in (1, 2, 3):
                lat = build_ef_positive(fam, r)
                assert lat.is_even and is_positive_definite(lat.gram)
                assert verify_realization(lat.gram, build_prime(PrimeFamilySpec(fam, 2, r))).passed
                if (fam, r) == ("E", 2):
                    assert lat.rank == 16


def test_criterion_6_symmetry_cross_validation():
    with _Criterion(6, 120.0):
        specs = []
        for fam in "AB":
            for p in ODD_PRIMES:
                r = 1
                while p**r <= 4096 and r <= 3:
                    specs.append(PrimeFamilySpec(fam, p, r))
                    r += 1
        for fam in "ABCD":
            start = 2 if fam in "CD" else 1
            for r in range(start, 9):
                specs.append(PrimeFamilySpec(fam, 2, r))
        specs += [PrimeFamilySpec("E", 2, r) for r in range(1, 7)]
        specs += [PrimeFamilySpec("F", 2, r) for r in range(1, 6)]
        checked_f = checked_e = 0
        for spec in specs:
            assert spec.group_order <= 4096
            order, _ = aut_order_closed(spec)
            aut = aut_bruteforce(build_prime(spec), budget=4096)
            assert aut.order == order, (spec, aut.order, order)
            if spec.family == "F":
                assert order == 3 * 2**spec.r
                checked_f += 1
            if spec.family == "E":
                assert order == {1: 2, 2: 4}.get(spec.r, 2**spec.r)
                checked_e += 1
        assert checked_f == 5  # r = 1..5
        assert checked_e == 6


def test_criterion_7_conformal_weights():
    with _Criterion(7, 5.0):
        m1 = coset_minima([[2, 1], [1, 12]])
        m2 = coset_minima([[4, 1], [1, 6]])
        assert discriminant_form([[2, 1], [1, 12]]).invariant_factors == (23,)
        assert discriminant_form([[4, 1], [1, 6]]).invariant_factors == (23,)
        assert signature([[2, 1], [1, 12]]) == 2
        assert signature([[4, 1], [1, 6]]) == 2
        assert min(v for v in m1.values() if v) == Fraction(1, 23)
        assert min(v for v in m2.values() if v) == Fraction(2, 23)
        assert sorted(v % 1 for v in m1.values()) == sorted(v % 1 for v in m2.values())


def test_criterion_8_gauged_center_dimensions():
    with _Criterion(8, 5.0):
        assert gauged_center_fpdim(PrimeFamilySpec("A", 3, 1)) == 144
        assert gauged_center_fpdim(PrimeFamilySpec("A", 2, 1)) == 4
        assert gauged_center_fpdim(PrimeFamilySpec("F", 2, 1)) == 20736
        for r in (2, 3):
            for fam in "ABCD":
                assert gauged_center_fpdim(PrimeFamilySpec(fam, 2, r)) == 2 ** (2 * r + 4)


def test_criterion_9_property_suites():
    with _Criterion(9, 120.0):
        rng = random.Random(1234)

        # (a) q2 well-definedness on cosets: 1000 random cases.
        cases = 0
        while cases < 1000:
            n = rng.randint(1, 3)
            gram = [[0] * n for _ in range(n)]
            for i in range(n):
                gram[i][i] = 2 * rng.randint(-3, 3)
                for j in range(i):
                    gram[i][j] = gram[j][i] = rng.randint(-3, 3)
            if determinant(gram) == 0:
                continue
            cases += 1
            w = [rng.randint(-6, 6) for _ in range(n)]
            shift = [rng.randint(-2, 2) for _ in range(n)]
            w2 = [a + sum(s * gram[k][i] for k, s in enumerate(shift)) for i, a in enumerate(w)]

            def q2(v):
                z = solve_columns(gram, [list(v)])[0]
                return sum(Fraction(a) * b for a, b in zip(v, z)) % 2

            assert q2(w) == q2(w2)

        # (b) SNF / inverse / inertia exactness: 500 random matrices,
        # entries up to 10^3.
        for _ in range(500):
            n = rng.randint(1, 4)
            m = [[rng.randint(-1000, 1000) for _ in range(n)] for _ in range(n)]
            snf = smith_normal_form(m)
            smith_u_inv_columns(m, snf)
            diag = snf.diagonal()
            for a, b in zip(diag, diag[1:]):
                assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
            det = determinant(m)
            prod = 1
            for dd in diag:
                prod *= dd
            assert abs(det) == prod
            if det:
                inv = rational_inverse(m)
                assert mat_mul(inv, m) == [
                    [Fraction(int(i == j)) for j in range(n)] for i in range(n)
                ]
            sym = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
            n_plus, n_minus, n_zero = inertia(sym)
            assert n_plus + n_minus + n_zero == n

        # (c) Gauss-sum additivity and conjugation antisymmetry: 200 random
        # sums of prime models.
        pool = [
            PrimeFamilySpec(fam, p, r)
            for fam, p, r in [
                ("A", 2, 1), ("B", 2, 1), ("A", 2, 2), ("B", 2, 3), ("C", 2, 2),
                ("D", 2, 2), ("E", 2, 1), ("F", 2, 1), ("E", 2, 2), ("F", 2, 2),
                ("A", 3, 1), ("B", 3, 1), ("A", 5, 1), ("B", 5, 1), ("A", 7, 1),
                ("B", 7, 1), ("A", 3, 2), ("B", 11, 1), ("A", 13, 1),
            ]
        ]
        for _ in range(200):
            s1, s2 = rng.choice(pool), rng.choice(pool)
            g1, g2 = build_prime(s1), build_prime(s2)
            c1, c2 = central_charge_gauss(g1), central_charge_gauss(g2)
            assert central_charge_gauss(direct_sum(g1, g2)) == (c1 + c2) % 8
            assert central_charge_gauss(conjugate(g1)) == (-c1) % 8
