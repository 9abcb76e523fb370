"""Self-dual gluing of eight lattice copies, orthogonal complements, and the
positive-definite constructions for the two rank-2 families.

Gluing: for an even positive-definite base lattice L with discriminant form
(D, q2), the direct sum M = L^{+8} carries the form q2^{+8} on D^8.  A glue
group is a totally isotropic subgroup H <= D^8 of order |D|^4 meeting the
first copy trivially; the preimage Lambda = {x in M* : [x] in H} is then an
even unimodular overlattice containing the first copy primitively, and the
orthogonal complement of that copy realizes the conjugate model (A, -q) in
rank 7 * rank(L).

For cyclic D = Z_n the glue group is produced structurally as the graph of an
anti-isometry phi of (D^4, q2^4): H = {(x, phi x)}.  Such a phi is a 4x4
integer matrix M with M^T M = -I modulo n (n odd) or 2n (n even); two
rotation blocks built from a^2 + b^2 = -1 supply it for odd n, a quaternion
multiplication matrix with a^2 + b^2 + c^2 + d^2 = -1 mod 2^{r+1} for n = 2^r,
and CRT welds the prime parts for mixed n.  Non-cyclic discriminant groups
fall back to a backtracking search over D^8 in lexicographic order, which
tests isotropy with the q and chi of `DiscriminantData.metric_group()` and
refuses up front, with BudgetExceededError, when |D|^8 exceeds its budget.
Each span H + <v> of the search is built as the union of the cosets H + k v,
k = 0, 1, ... until k v lies in H, so no element is added twice.

The `GluedLattice` carries Lambda's basis in M and the base's discriminant
form, which callers read instead of computing again; the orthogonal
complement is taken from that basis and returned as a bare Gram matrix.
The basis, Gram and kernel matrices are about 1-2% nonzero on Cartan bases,
and every product of them goes through the row-sparse `linalg.mat_mul`.

The E/F builders assemble Gram matrices from block generating data: a small
scaled block, a dual-coset glue vector lambda (norm = -1/2^r mod 2) or mu
(norm = -3/2^r mod 2), and two resp. one copies of an input lattice.  Every
inner product is computed through the input Gram matrix and the dual
coordinates K^{-1} w that `discriminant_form` read off its Smith normal
form, so no system is solved and no irrational arithmetic ever occurs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .lattices import (
    DiscriminantData,
    Lattice,
    cartan_d,
    discriminant_form,
    k_e,
    k_o,
    verify_realization,
)
from .linalg import (
    determinant,
    has_even_diagonal,
    hermite_normal_form,
    inertia,
    left_kernel,
    mat_mul,
    smith_normal_form,
    transpose,
)
from .metric_groups import BudgetExceededError, InternalError, PrimeFamilySpec, build_prime
from .numtheory import crt_pair, factorize, sqrt_mod_prime_power

__all__ = [
    "GluedLattice",
    "glue_selfdual_8",
    "orthogonal_complement",
    "conjugate_realization",
    "build_ef_positive",
    "default_ef_input",
    "anti_isometry_mod",
    "GlueSearchError",
]

GLUE_SEARCH_NODE_BUDGET = 10**7


class GlueSearchError(InternalError):
    """No glue group found within the search budget (existence is guaranteed,
    so this signals a budget or representation limitation)."""


# ---------------------------------------------------------------------------
# anti-isometries of four cyclic copies


def _rotation_pair(p: int, e: int) -> tuple[int, int]:
    """(a, b) with a^2 + b^2 = -1 mod p^e, p odd."""
    pk = p**e
    for a in range(pk):
        t = (-1 - a * a) % pk
        if t == 0:
            return a, 0
        if t % p:
            roots = sqrt_mod_prime_power(t, p, e)
            if roots:
                return a, min(roots)
    raise GlueSearchError(f"no rotation pair mod {pk}")


def _quaternion_tuple(e: int) -> tuple[int, int, int, int]:
    """(a, b, c, d) with a^2 + b^2 + c^2 + d^2 = -1 mod 2^e."""
    if e <= 2:
        return 1, 1, 2, 1
    d = min(sqrt_mod_prime_power((-7) % 2**e, 2, e))  # 1 + 1 + 4 + d^2 = -1
    return 1, 1, 2, d


def _quaternion_matrix(a, b, c, d):
    return [
        [a, b, c, d],
        [-b, a, -d, c],
        [-c, d, a, -b],
        [-d, -c, b, a],
    ]


def anti_isometry_mod(n: int) -> list[list[int]]:
    """4x4 integer M with M^T M = -I mod n for odd n, mod 2n for even n.

    Then x -> Mx negates the quadratic form s x.x / n (mod 2) on Z_n^4 for
    any unit s, which is what the glue-graph construction needs.
    """
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    if n == 1:
        return [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    parts = []
    for p, e in sorted(factorize(n).items()):
        if p == 2:
            check_mod = 2 ** (e + 1)
            m_part = _quaternion_matrix(*_quaternion_tuple(e + 1))
        else:
            check_mod = p**e
            a, b = _rotation_pair(p, e)
            m_part = [
                [a, b, 0, 0],
                [-b, a, 0, 0],
                [0, 0, a, b],
                [0, 0, -b, a],
            ]
        parts.append((check_mod, m_part))
    modulus, m = parts[0]
    for mod2, m2 in parts[1:]:
        m = [
            [crt_pair(m[i][j] % modulus, modulus, m2[i][j] % mod2, mod2) for j in range(4)]
            for i in range(4)
        ]
        modulus *= mod2
    _assert_anti_isometry(m, n)
    return [[x % modulus for x in row] for row in m]


def _assert_anti_isometry(m, n):
    check = 2 * n if n % 2 == 0 else n
    for i in range(4):
        for j in range(4):
            dot = sum(m[k][i] * m[k][j] for k in range(4))
            want = -1 if i == j else 0
            if (dot - want) % check:
                raise GlueSearchError(f"anti-isometry check failed mod {check}")


# ---------------------------------------------------------------------------
# glue groups


def _glue_generators_cyclic(n: int) -> list[list[int]]:
    """Generators of the graph glue group {(x, phi x)} inside Z_n^8."""
    m = anti_isometry_mod(n)
    gens = []
    for t in range(4):
        vec = [0] * 8
        vec[t] = 1
        for j in range(4):
            vec[4 + j] = m[j][t] % n
        gens.append(vec)
    return gens


def _span_with(span: set, vec: tuple, orders) -> set:
    """The subgroup H + <v> of Z_orders, for a subgroup H given as a set:
    the union of the cosets H + k v, k = 0, 1, ... until k v lies in H."""

    def add(x, y):
        return tuple((a + b) % n for a, b, n in zip(x, y, orders))

    new = set(span)
    step = vec
    while step not in span:
        new.update(add(h, step) for h in span)
        step = add(step, vec)
    return new


def _glue_generators_search(disc: DiscriminantData, budget: int) -> list[list[int]]:
    """Backtracking element search over D^8 in lexicographic order.

    Candidates must keep the partial group totally isotropic (q = 0 and
    chi = 0 mod 1, summed over the eight copies of the discriminant metric
    group) and meet the first copy only in zero.  Practical only for small
    non-cyclic D; cyclic groups use the structural path instead.  Raises
    BudgetExceededError before listing D^8 when |D|^8 exceeds the budget.
    """
    orders = list(disc.invariant_factors)
    g = len(orders)
    target = disc.order**4
    size = disc.order**8
    if size > budget:
        raise BudgetExceededError(
            f"glue search over D^8 with |D| = {disc.order}: {size} elements exceed node budget {budget}"
        )
    all_orders = orders * 8
    group = disc.metric_group()
    # Numerators of q and chi over the level, tabulated on D (|D| <= budget^(1/8)).
    level = group.level
    points = list(group.elements())
    q_num = {x: group.q_num(x) for x in points}
    bil_num = {(x, y): group.bilinear_num(x, y) for x in points for y in points}
    copies = [slice(copy * g, (copy + 1) * g) for copy in range(8)]

    def q2_total(vec) -> bool:
        return sum(q_num[vec[c]] for c in copies) % level == 0

    def bil_total(v, w) -> bool:
        return sum(bil_num[v[c], w[c]] for c in copies) % level == 0

    def touches_first_copy(x) -> bool:
        return any(x[:g]) and not any(x[g:])

    elements = list(itertools.product(*(range(n) for n in all_orders)))
    zero = tuple([0] * (8 * g))
    nodes = 0

    def search(span, gens, start):
        nonlocal nodes
        if len(span) == target:
            return gens
        for idx in range(start, len(elements)):
            nodes += 1
            if nodes > budget:
                raise GlueSearchError("glue search node budget exhausted")
            cand = elements[idx]
            if cand in span or not q2_total(cand):
                continue
            if any(not bil_total(cand, h) for h in gens):
                continue
            new_span = _span_with(span, cand, all_orders)
            if len(new_span) > target:
                continue
            if any(touches_first_copy(x) for x in new_span - span):
                continue
            if not all(q2_total(x) for x in new_span - span):
                continue
            result = search(new_span, gens + [cand], idx + 1)
            if result is not None:
                return result
        return None

    try:
        result = search({zero}, [], 0)
    finally:
        # `search` refers to itself through its closure cell; breaking that
        # cycle frees `elements` (all of D^8) now, not at a gen-2 collection.
        del search
    if result is None:
        raise GlueSearchError("no glue group found within the budget")
    return [list(vec) for vec in result]


# ---------------------------------------------------------------------------
# gluing and complements


@dataclass(frozen=True)
class GluedLattice:
    """An even unimodular overlattice of base^{+8}, with the base embedded
    primitively as the first summand; its basis is `basis_rows / denominator`
    in the coordinates of base^{+8}, whose Gram matrix is `ambient_gram`."""

    lattice: Lattice
    base: Lattice
    base_disc: DiscriminantData
    glue_generators: tuple[tuple[int, ...], ...]
    basis_rows: list[list[int]]
    denominator: int
    ambient_gram: list[list[int]]
    first_copy_ambient: list[list[int]]
    first_copy_in_lattice: list[list[int]]


def _int_sandwich(left_int, middle_int, right_int, divide_by: int):
    """(left * middle * right^T) / divide_by with exact divisibility check."""
    product = mat_mul(mat_mul(left_int, middle_int), transpose(right_int))
    out = []
    for row in product:
        new_row = []
        for x in row:
            if x % divide_by:
                raise GlueSearchError("non-integral Gram entry in glued lattice")
            new_row.append(x // divide_by)
        out.append(new_row)
    return out


def glue_selfdual_8(base: Lattice | list[list[int]], budget: int = GLUE_SEARCH_NODE_BUDGET) -> GluedLattice:
    """Glue base^{+8} into an even unimodular lattice, first copy primitive."""
    gram = base.gram if isinstance(base, Lattice) else base
    base_lat = base if isinstance(base, Lattice) else Lattice(gram)
    if not has_even_diagonal(gram):
        raise ValueError("glue_selfdual_8 requires an even base")
    n_plus, n_minus, n_zero = inertia(gram)
    if n_minus or n_zero:
        raise ValueError("glue_selfdual_8 requires a positive-definite base")
    m = len(gram)
    disc = discriminant_form(gram)
    g = len(disc.invariant_factors)

    if g == 0:
        glue_gens: list[list[int]] = []
    elif g == 1:
        glue_gens = _glue_generators_cyclic(disc.invariant_factors[0])
    else:
        glue_gens = _glue_generators_search(disc, budget)

    zcols = disc.dual_coords
    den = lcm(1, *(z.denominator for col in zcols for z in col))

    big = 8 * m
    rows = [[den if i == j else 0 for j in range(big)] for i in range(big)]
    for gen in glue_gens:
        row = [0] * big
        for copy in range(8):
            coeffs = gen[copy * g:(copy + 1) * g]
            for j, cj in enumerate(coeffs):
                if cj:
                    for i in range(m):
                        value = cj * zcols[j][i] * den
                        row[copy * m + i] += int(value)
        rows.append(row)
    h, _ = hermite_normal_form(rows)
    h = h[:big]
    if any(h[i][i] == 0 for i in range(big)):
        raise GlueSearchError("glued lattice basis is rank-deficient")

    k8 = [[0] * big for _ in range(big)]
    for copy in range(8):
        for i in range(m):
            for j in range(m):
                k8[copy * m + i][copy * m + j] = gram[i][j]

    lam_gram = _int_sandwich(h, k8, h, den * den)
    if not has_even_diagonal(lam_gram):
        raise GlueSearchError("glued lattice is not even")
    det = determinant(lam_gram)
    if abs(det) != 1:
        raise GlueSearchError(f"glued lattice has |det| = {abs(det)}, want 1")

    first_ambient = [[1 if j == i else 0 for j in range(big)] for i in range(m)]
    first_in_lattice = _solve_in_hnf_basis(h, den, first_ambient)
    if smith_normal_form(first_in_lattice).invariant_factors():
        raise GlueSearchError("first copy is not primitively embedded")

    return GluedLattice(
        lattice=Lattice(lam_gram),
        base=base_lat,
        base_disc=disc,
        glue_generators=tuple(tuple(gen) for gen in glue_gens),
        basis_rows=h,
        denominator=den,
        ambient_gram=k8,
        first_copy_ambient=first_ambient,
        first_copy_in_lattice=first_in_lattice,
    )


def _solve_in_hnf_basis(h, den, targets) -> list[list[int]]:
    """Integer X with X * (h / den) = targets, h upper triangular.

    Forward substitution by rows: once x_c is known, x_c * h_c is taken off
    the remaining right-hand side, through h_c's nonzero entries only."""
    big = len(h)
    h_rows = [[(j, y) for j, y in enumerate(row) if y] for row in h]
    out = []
    for t in targets:
        rest = [den * x for x in t]
        x = [0] * big
        for c in range(big):
            if rest[c] % h[c][c]:
                raise ValueError("target row is not in the glued lattice")
            xc = x[c] = rest[c] // h[c][c]
            if xc:
                for j, y in h_rows[c]:
                    rest[j] -= xc * y
        out.append(x)
    return out


def orthogonal_complement(glued: GluedLattice, sub_ambient_rows: list[list[int]]) -> Lattice:
    """The Gram matrix of {x in the glued lattice : x . sub = 0}.

    `sub_ambient_rows` are rows in the ambient coordinates of base^{+8}
    that lie inside the glued lattice.
    """
    den = glued.denominator
    pairing = mat_mul(mat_mul(glued.basis_rows, glued.ambient_gram), transpose(sub_ambient_rows))
    if any(x % den for row in pairing for x in row):
        raise ValueError("sublattice pairing is not integral; rows not in the lattice?")
    kernel = left_kernel([[x // den for x in row] for row in pairing])
    return Lattice(mat_mul(mat_mul(kernel, glued.lattice.gram), transpose(kernel)))


def conjugate_realization(base: Lattice | list[list[int]]) -> Lattice:
    """Glue 8 copies of the base and take the complement of the embedded copy:
    an even positive-definite lattice realizing the conjugate model."""
    glued = glue_selfdual_8(base)
    return orthogonal_complement(glued, glued.first_copy_ambient)


# ---------------------------------------------------------------------------
# E/F positive-definite builders


def _dual_generator_with_norm(disc: DiscriminantData, gram, target_num: int, r: int) -> tuple[list[int], Fraction]:
    """Integer dual-coset vector w generating Z_{2^r} with w K^{-1} w =
    target_num / 2^r mod 2, and its exact norm w K^{-1} w.

    w = u * (SNF generator) for the smallest odd u, shifted by the Gram rows
    sum_j s_j K_j with s = -round(u * K^{-1} generator) to shrink coordinates;
    the shift stays in the same dual coset and moves K^{-1} w by s.
    """
    n = 2**r
    if disc.invariant_factors != (n,):
        raise ValueError(f"input discriminant group {disc.invariant_factors} is not Z_{n}")
    base_norm = disc.q2_gen[0]
    target = Fraction(target_num, n)
    for u in range(1, 2 * n + 1, 2):
        if (u * u * base_norm - target) % 2 == 0:
            w = [u * x for x in disc.generator_reps[0]]
            z = [u * c for c in disc.dual_coords[0]]
            for j, zj in enumerate(z):
                s = -round(zj)  # exact: round() on Fraction
                if s:
                    z[j] += s
                    for i in range(len(w)):
                        w[i] += s * gram[j][i]
            return w, sum(a * b for a, b in zip(w, z))
    raise ValueError(f"no dual generator with norm {target} mod 2 exists")


def default_ef_input(family: str, r: int) -> Lattice:
    """Stock positive-definite input for build_ef_positive.

    E wants a -1/2^r cyclic form: the D7 root lattice at r = 2 (matching the
    classical rank-16 solution), the complement of (2^r) otherwise.  F wants
    +5/2^r: the rank-1 (2) at r = 1, complements of the D-family rank-3/7
    lattices beyond.
    """
    if family == "E":
        if r == 2:
            return cartan_d(7)
        return conjugate_realization([[2**r]])
    if family == "F":
        if r == 1:
            return Lattice([[2]])
        d_side = k_e(r) if r % 2 == 0 else k_o(r)
        return conjugate_realization(d_side)
    raise ValueError(f"no default input for family {family!r}")


def build_ef_positive(family: str, r: int, input_lattice: Lattice | None = None) -> Lattice:
    """Even positive-definite realization of E_{2^r} or F_{2^r} by gluing.

    E: a rank-2 block [[2/2^r + 2 l.l, 1], [1, 2^r]] tied to two copies of the
    input lattice through the dual vector lambda with l.l = -1/2^r mod 2.
    F: a rank-3 block with corner 3/2^r + m.m (m.m = -3/2^r mod 2) and two
    scaled axes, tied to one input copy through mu.  The output is verified
    against the target model, whose report also gives its positive
    definiteness (signature = rank), before being returned.
    """
    if family not in "EF":
        raise ValueError(f"family must be E or F, got {family!r}")
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    n = 2**r
    lat = input_lattice if input_lattice is not None else default_ef_input(family, r)
    gram_in = lat.gram
    n_plus, n_minus, n_zero = inertia(gram_in)
    if n_minus or n_zero:
        raise ValueError("input lattice must be positive definite")
    disc = discriminant_form(gram_in)
    m = len(gram_in)
    if family == "E":
        w, norm = _dual_generator_with_norm(disc, gram_in, -1, r)
        corner = Fraction(2, n) + 2 * norm
        if corner.denominator != 1:
            raise GlueSearchError("lambda norm residue violated")
        size = 2 + 2 * m
        gram = [[0] * size for _ in range(size)]
        gram[0][0] = int(corner)
        gram[0][1] = gram[1][0] = 1
        gram[1][1] = n
        for copy in range(2):
            off = 2 + copy * m
            for i in range(m):
                gram[0][off + i] = gram[off + i][0] = w[i]
                for j in range(m):
                    gram[off + i][off + j] = gram_in[i][j]
        target = build_prime(PrimeFamilySpec("E", 2, r))
    else:
        w, norm = _dual_generator_with_norm(disc, gram_in, -3, r)
        corner = Fraction(3, n) + norm
        if corner.denominator != 1:
            raise GlueSearchError("mu norm residue violated")
        size = 3 + m
        gram = [[0] * size for _ in range(size)]
        gram[0][0] = int(corner)
        gram[0][1] = gram[1][0] = 1
        gram[0][2] = gram[2][0] = 1
        gram[1][1] = n
        gram[2][2] = n
        for i in range(m):
            gram[0][3 + i] = gram[3 + i][0] = w[i]
            for j in range(m):
                gram[3 + i][3 + j] = gram_in[i][j]
        target = build_prime(PrimeFamilySpec("F", 2, r))
    report = verify_realization(gram, target)
    if report.signature != size:
        raise GlueSearchError(f"{family}_{n} gluing is not positive definite")
    if not report.passed:
        raise GlueSearchError(
            f"{family}_{n} gluing failed verification:\n" + "\n".join(report.lines())
        )
    return Lattice(gram)
