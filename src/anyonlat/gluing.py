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
refuses up front, with BudgetExceededError, when |D|^8 exceeds its budget of
10^7.  That budget admits |D| <= 7, where the only non-cyclic group is
Z2 x Z2, so the search takes D^8 = F_2^16 as 16-bit ints, two bits a copy
and the first copy most significant: ascending ints are lexicographic, the
sum is xor, and q of the base's `DiscriminantData.group` is read off a table
over the bytes of an int, one byte for each four copies.  The candidates are
the sorted isotropic ints, filtered down to chi(., h) = 0 as each generator
h is taken, and each span is a set of ints, doubled by xor with each
generator.

The `GluedLattice` carries the HNF basis h of e Lambda in M, e the exponent
of D, built from the int columns e K^{-1} w_j; the product h K^{+8}; and the
base's discriminant form, which callers read instead of computing again.
Lambda's rank-8m Gram matrix h K^{+8} h^T / e^2 is never formed.  Each check
is an exact identity on those matrices instead:

* unimodular: [Lambda : M] = e^{8m} / prod h_ii and det M = |D|^8, so
  det Lambda = 1 iff prod h_ii * |D|^4 = e^{8m};
* even: Lambda = M + <glue rows / e>, the glue rows being the rows of h not
  divisible by e.  M is even and pairs integrally with Lambda, which lies in
  M*, so Lambda is even iff the glue rows' Gram matrix is integral with an
  even diagonal: glue rows times h K^{+8} is 0 mod e^2, and 0 mod 2 e^2 on
  the diagonal.  Even norms of the basis vectors alone are not enough;
* first copy primitive: for unimodular Lambda, L_1 is primitive iff the
  pairing Lambda -> L_1* is onto, i.e. iff the HNF of the pairing matrix
  (the first m columns of h K^{+8}, over e) has unit pivots.  The zero rows
  of that HNF's transform span the orthogonal complement, whose Gram matrix
  is (kernel h K^{+8}) (kernel h)^T / e^2.

The basis, Gram and kernel matrices are about 1-2% nonzero on Cartan bases,
and every product of them goes through the row-sparse `linalg.mat_mul`; the
HNFs of the glue stack and of the pairing run each row operation over the
pivot row's span, and the glue-row test reads only nonzero entries.

The E/F builders assemble Gram matrices from block generating data: a small
scaled block, a dual-coset glue vector lambda (norm = -1/2^r mod 2) or mu
(norm = -3/2^r mod 2), and two resp. one copies of an input lattice.  Every
inner product is computed through the input Gram matrix and the dual
coordinates K^{-1} w that `discriminant_form` read off its Smith normal
form, so no system is solved and no irrational arithmetic ever occurs.
The input is always `default_ef_input`'s own construction, so the builders
check neither it nor their output: `kmatrix` runs the oracle once on the
matrix it writes, and refuses it unless its signature is its rank.  Gram
matrices pass as plain lists; only `glue_selfdual_8` checks its input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .lattices import (
    DiscriminantData,
    cartan_d,
    discriminant_form,
    k_e,
    k_o,
)
from .linalg import (
    block_diagonal,
    has_even_diagonal,
    hermite_normal_form,
    is_positive_definite,
    mat_mul,
    transpose,
)
from .metric_groups import BudgetExceededError, InternalError, check_gauss_budget
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
        if t % p:
            roots = sqrt_mod_prime_power(t, p, e)
            if roots:
                return a, min(roots)
    raise GlueSearchError(f"no rotation pair mod {pk}")


def _quaternion_tuple(e: int) -> tuple[int, int, int, int]:
    """(a, b, c, d) with a^2 + b^2 + c^2 + d^2 = -1 mod 2^e."""
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


def _glue_generators_search(disc: DiscriminantData, budget: int) -> list[list[int]]:
    """Backtracking element search over D^8 in lexicographic order, for
    D = Z2 x Z2: the only non-cyclic D whose |D|^8 fits the node budget.

    Candidates must keep the partial group totally isotropic (q = 0 and
    chi = 0 mod 1, summed over the eight copies of the discriminant metric
    group) and meet the first copy only in zero.  A trivial D gives [] at
    once; cyclic groups use the structural path instead.  Raises
    BudgetExceededError before tabulating anything when |D|^8 exceeds the
    budget, and InternalError for any other D.

    An element of D^8 = F_2^16 is a 16-bit int, the element (a, b) of copy c
    in bits 15 - 2c and 14 - 2c.  Ascending ints run in lexicographic order,
    the sum of two elements is their xor, so H + <v> = H | {x ^ v : x in H}
    (of order 2|H|, never past |D|^4 while |H| < |D|^4), and x lies in the
    first copy iff x & 0x3FFF == 0.  q is summed over the two bytes of x from
    one table over D^4.  The candidates are the isotropic ints chi-orthogonal
    to every generator taken so far, so q vanishes on each new coset; for
    isotropic x and h, chi(x, h) = q(x + h), so the q table reads chi too.
    `nodes` counts every int the scan passes over, candidate or not, against
    the budget.
    """
    target = disc.order**4
    size = disc.order**8
    if size > budget:
        raise BudgetExceededError(
            f"glue search (glue_selfdual_8): D^8 with |D| = {disc.order}: {size} elements exceed node budget "
            f"{budget}; no flag raises it"
        )
    if size == 1:
        return []
    group = disc.group
    if group.orders != (2, 2):
        raise InternalError(f"glue search: D = {group.orders} is not Z2 x Z2, the only non-cyclic D within its budget")
    level = group.level
    q_num = [group.q_num(x) for x in group.elements()]  # (a, b) is the digit 2a + b
    q_byte = [sum(q_num[x >> s & 3] for s in (6, 4, 2, 0)) for x in range(256)]
    by_q: dict[int, list[int]] = {}
    for lo, v in enumerate(q_byte):
        by_q.setdefault(v % level, []).append(lo)
    isotropic = [hi << 8 | lo for hi, v in enumerate(q_byte) for lo in by_q.get(-v % level, ())]
    nodes = 0

    def search(span, gens, candidates, start):
        nonlocal nodes
        if len(span) == target:
            return gens
        for i, cand in enumerate(candidates):
            nodes += cand - start + 1
            start = cand + 1
            if nodes > budget:
                raise GlueSearchError("glue search node budget exhausted")
            if cand in span:
                continue
            fresh = {x ^ cand for x in span}  # cand is not in span, so fresh has no zero
            if any(x & 0x3FFF == 0 for x in fresh):
                continue
            hi, lo = cand >> 8, cand & 255
            orthogonal = [x for x in candidates[i + 1:] if (q_byte[x >> 8 ^ hi] + q_byte[x & 255 ^ lo]) % level == 0]
            result = search(span | fresh, gens + [cand], orthogonal, cand + 1)
            if result is not None:
                return result
        nodes += size - start
        if nodes > budget:
            raise GlueSearchError("glue search node budget exhausted")
        return None

    try:
        result = search({0}, [], isotropic, 0)
    finally:
        # `search` refers to itself through its closure cell; breaking that
        # cycle frees its tables now, not at a gen-2 collection.
        del search
    if result is None:
        raise GlueSearchError("no glue group found within the budget")
    return [[x >> k & 1 for k in range(15, -1, -1)] for x in result]


# ---------------------------------------------------------------------------
# gluing and complements


@dataclass(frozen=True)
class GluedLattice:
    """An even unimodular overlattice Lambda of M = base^{+8}.  Its basis is
    `basis_rows / e` (e = `base_disc.exponent`) in the coordinates of M, and
    `basis_k8` is the product basis_rows * K^{+8}, so Lambda's Gram matrix
    is basis_k8 * basis_rows^T / e^2.  `orthogonal_complement` checks that
    the first copy is primitive."""

    base_disc: DiscriminantData
    glue_generators: tuple[tuple[int, ...], ...]
    basis_rows: list[list[int]]
    basis_k8: list[list[int]]


def glue_selfdual_8(gram: list[list[int]], gauss_budget: int | None = None) -> GluedLattice:
    """Glue base^{+8} into an even unimodular lattice, after checking the
    base is even and positive-definite (its symmetry is its loader's).  A D
    past `gauss_budget`, the oracle's, is refused before |D| is factored."""
    if not has_even_diagonal(gram):
        raise ValueError("glue_selfdual_8 requires an even base")
    if not is_positive_definite(gram):
        raise ValueError("glue_selfdual_8 requires a positive-definite base")
    m = len(gram)
    disc = discriminant_form(gram)
    if gauss_budget is not None:
        check_gauss_budget(disc.order, gauss_budget)
    g = len(disc.invariant_factors)

    if g == 1:
        glue_gens = _glue_generators_cyclic(disc.invariant_factors[0])
    else:
        glue_gens = _glue_generators_search(disc, GLUE_SEARCH_NODE_BUDGET)

    zcols = disc.dual_num
    den = disc.exponent

    big = 8 * m
    rows = [[0] * big for _ in range(big)]
    for i, row in enumerate(rows):
        row[i] = den
    for gen in glue_gens:
        row = [0] * big
        for copy in range(8):
            coeffs = gen[copy * g:(copy + 1) * g]
            for j, cj in enumerate(coeffs):
                if cj:
                    for i in range(m):
                        row[copy * m + i] += cj * zcols[j][i]
        rows.append(row)
    h = hermite_normal_form(rows).h[:big]
    # [Lambda : M] = e^{8m} / prod h_ii and det M = |D|^8.
    index_den = math.prod(h[i][i] for i in range(big))
    if index_den * disc.order**4 != den ** big:
        det = Fraction(disc.order**8 * index_den**2, den ** (2 * big))
        raise GlueSearchError(f"glued lattice is not unimodular: |det| = {det}")
    hk8 = mat_mul(h, block_diagonal([gram] * 8))
    # The rows of h not divisible by e glue Lambda to M (module docstring).
    glue_rows = [i for i, row in enumerate(h) if any(map(den.__rmod__, filter(None, row)))]
    for a, i in enumerate(glue_rows):
        for j in glue_rows[a:]:
            if sum(map(mul, hk8[i], h[j])) % (2 * den * den if i == j else den * den):
                raise GlueSearchError("glued lattice is not even")
    return GluedLattice(
        base_disc=disc,
        glue_generators=tuple(tuple(gen) for gen in glue_gens),
        basis_rows=h,
        basis_k8=hk8,
    )


def orthogonal_complement(glued: GluedLattice) -> list[list[int]]:
    """The Gram matrix of {x in the glued lattice : x . first copy = 0}.

    The pairing of the basis with the first copy is the first m columns of
    basis_k8 over e, exactly, as the glued lattice lies in the dual of
    base^{+8}; the unit pivots of its HNF say the first copy is primitive,
    and its transform's rows against the HNF's zero rows span the
    complement."""
    den = glued.base_disc.exponent
    m = len(glued.basis_k8) // 8
    pairing = [[x // den for x in row[:m]] for row in glued.basis_k8]
    hnf = hermite_normal_form(pairing)
    if any(hnf.h[i][i] != 1 for i in range(m)):
        raise GlueSearchError("first copy is not primitively embedded")
    kernel = [t for t, row in zip(hnf.t, hnf.h) if not any(row)]
    gram = mat_mul(mat_mul(kernel, glued.basis_k8), transpose(mat_mul(kernel, glued.basis_rows)))
    return [list(map((den * den).__rfloordiv__, row)) for row in gram]


def conjugate_realization(gram: list[list[int]]) -> list[list[int]]:
    """Glue 8 copies of the base and take the complement of the embedded copy:
    an even positive-definite lattice realizing the conjugate model."""
    return orthogonal_complement(glue_selfdual_8(gram))


# ---------------------------------------------------------------------------
# E/F positive-definite builders


def _dual_generator_with_norm(disc: DiscriminantData, gram, target_num: int, r: int) -> tuple[list[int], int]:
    """Integer dual-coset vector w generating Z_{2^r} with w K^{-1} w =
    target_num / 2^r mod 2, and n (w K^{-1} w) as an int, n = 2^r.

    w = u * (SNF generator) for the smallest odd u, shifted by the Gram rows
    sum_j s_j K_j with s = -round(u * K^{-1} generator), halves to even, to
    shrink coordinates; the shift stays in the same dual coset and moves
    K^{-1} w by s.  n is the exponent, so n K^{-1} w = u * dual_num is an
    int column and the norms compare as residues mod 2n.
    """
    n = 2**r
    if disc.invariant_factors != (n,):
        raise ValueError(f"input discriminant group {disc.invariant_factors} is not Z_{n}")
    gen, dual = disc.generator_reps[0], disc.dual_num[0]
    base = sum(map(mul, gen, dual))  # n (w K^{-1} w) at u = 1
    for u in range(1, 2 * n + 1, 2):
        if (u * u * base - target_num) % (2 * n) == 0:
            w = [u * x for x in gen]
            z = [u * x for x in dual]  # n K^{-1} w
            for j, zj in enumerate(z):
                s, rem = divmod(zj, n)
                if 2 * rem > n or (2 * rem == n and s % 2):
                    s += 1
                if s:
                    z[j] -= s * n
                    for i in range(len(w)):
                        w[i] -= s * gram[j][i]
            return w, sum(map(mul, w, z))
    raise ValueError(f"no dual generator with norm {target_num}/{n} mod 2 exists")


def default_ef_input(family: str, r: int) -> list[list[int]]:
    """Stock positive-definite input for build_ef_positive.

    E wants a -1/2^r cyclic form: the D7 root lattice at r = 2 (matching the
    classical rank-16 solution), the complement of (2^r) otherwise.  F wants
    +5/2^r: the rank-1 (2) at r = 1, complements of the D-family rank-3/7
    lattices beyond.
    """
    if family == "E":
        if r == 2:
            return cartan_d(7).gram
        return conjugate_realization([[2**r]])
    if family == "F":
        if r == 1:
            return [[2]]
        d_side = k_e(r) if r % 2 == 0 else k_o(r)
        return conjugate_realization(d_side.gram)
    raise ValueError(f"no default input for family {family!r}")


def build_ef_positive(family: str, r: int) -> list[list[int]]:
    """Even positive-definite realization of E_{2^r} or F_{2^r} by gluing.

    E: a rank-2 block [[2/2^r + 2 l.l, 1], [1, 2^r]] tied to two copies of the
    input lattice through the dual vector lambda with l.l = -1/2^r mod 2.
    F: a rank-3 block with corner 3/2^r + m.m (m.m = -3/2^r mod 2) and two
    scaled axes, tied to one input copy through mu.  Both are the block
    diagonal of the head block and the copies, with the glue vector written
    into row and column 0 of each copy.  The input is `default_ef_input`'s;
    neither it nor the output is verified here: `kmatrix` runs the oracle on
    the output, and refuses it unless its signature is its rank.
    """
    if family not in "EF":
        raise ValueError(f"family must be E or F, got {family!r}")
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    n = 2**r
    gram_in = default_ef_input(family, r)
    disc = discriminant_form(gram_in)
    # norm is n (w K^{-1} w), so the corner is (2 + 2 norm) / n resp. (3 + norm) / n.
    if family == "E":
        w, norm = _dual_generator_with_norm(disc, gram_in, -1, r)
        corner, rem = divmod(2 + 2 * norm, n)
        head, copies, glue = [[corner, 1], [1, n]], 2, "lambda"
    else:
        w, norm = _dual_generator_with_norm(disc, gram_in, -3, r)
        corner, rem = divmod(3 + norm, n)
        head, copies, glue = [[corner, 1, 1], [1, n, 0], [1, 0, n]], 1, "mu"
    if rem:
        raise GlueSearchError(f"{glue} norm residue violated")
    gram = block_diagonal([head] + [gram_in] * copies)
    for copy in range(copies):
        off = len(head) + copy * len(gram_in)
        for i, wi in enumerate(w):
            gram[0][off + i] = gram[off + i][0] = wi
    return gram
