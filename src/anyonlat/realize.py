"""Routing: pick a K-matrix construction for a prime family instance.

Default route is the continued-fraction synthesis (small, possibly
indefinite); the positive-definite route assembles root lattices, the
rank-(p'+1) construction, the rank-3/7 D-family lattices, eight-copy
complements, and the E/F gluings:

  family, condition         positive-definite lattice
  A_{p^r}, p = 1 mod 4      K''(p^r, p'+1, +1)
  A_{p^r}, p = 3 mod 4      complement of the Cartan A_{p^r - 1} lattice
  B_{p^r}, p = 1 mod 4      K''(p^r, p'+1, -1)
  B_{p^r}, p = 3 mod 4      Cartan A_{p^r - 1}
  A_{2^r}                   (2^r)
  B_{2^r}                   complement of (2^r)
  D_{2^r}                   k_e(r) / k_o(r)
  C_{2^r}                   complement of k_e(r) / k_o(r)
  E_{2^r}, F_{2^r}          block gluing over a B- resp. C-family input

The four instances the expansion cannot serve (A_3, B_2, B_4, C_4), where
`choose_c_for_family` gives None, take the positive-definite route.

`route_rank` reads the rank of the largest matrix a positive-definite route
builds off this table, without building it; `check_route_rank` refuses a
route past ROUTE_RANK_LIMIT before anything is allocated.
"""

from __future__ import annotations

from .gluing import build_ef_positive, conjugate_realization
from .lattices import auxiliary_prime, cartan_a, k_double_prime, k_e, k_o
from .metric_groups import BudgetExceededError, PrimeFamilySpec
from .wall import choose_c_for_family, direct_ef_k, k_from_wall

__all__ = ["kmatrix_for", "positive_definite_realization", "route_rank", "check_route_rank"]

# Timed end to end (`kmatrix --positive-definite`, a fresh process's wall time
# and peak RSS; 2-core Intel Xeon container, Python 3.11.7): rank 960 builds
# and verifies in 0.6 s and 78 MB (B[31^2], the Cartan A_960) or 0.7 s and
# 59 MB (A[11^2], 960 glue rows and a rank-840 complement).
ROUTE_RANK_LIMIT = 1000


_SPECIAL_CASE_ROUTES = {
    "A": "complement of the SU(3) Cartan lattice",
    "B": "complement of the rank-1 lattice (2^r)",
    "C": "complement of the D-family lattice",
}


def route_rank(spec: PrimeFamilySpec) -> int:
    """The rank of the largest matrix the positive-definite route builds:
    p^r - 1 for the Cartan A_{p^r - 1}, 8 (p^r - 1) glue rows for its
    eight-copy complement, p' + 1 for K''.  At p = 2 no route passes the 56
    glue rows of eight copies of k_o(r), whatever r is."""
    fam, p, r = spec.family, spec.p, spec.r
    if p == 2:
        return 56
    if p % 4 == 1:
        return auxiliary_prime(p, r, 1 if fam == "A" else -1) + 1
    return p**r - 1 if fam == "B" else 8 * (p**r - 1)


def check_route_rank(spec: PrimeFamilySpec) -> None:
    """Refuse a positive-definite route whose largest matrix passes
    ROUTE_RANK_LIMIT, before it builds anything."""
    rank = route_rank(spec)
    if rank > ROUTE_RANK_LIMIT:
        raise BudgetExceededError(
            f"positive-definite route (positive_definite_realization): {spec.label()} builds a matrix of rank "
            f"{rank}, past the rank limit {ROUTE_RANK_LIMIT}; no flag raises it"
        )


def positive_definite_realization(spec: PrimeFamilySpec) -> list[list[int]]:
    """An even positive-definite Gram matrix realizing the family instance."""
    fam, p, r = spec.family, spec.p, spec.r
    if fam == "E" or fam == "F":
        return build_ef_positive(fam, r)
    if p != 2:
        if p % 4 == 1:
            lattice, _, _ = k_double_prime(p, r, 1 if fam == "A" else -1)
            return lattice.gram
        root = cartan_a(p**r - 1).gram
        return root if fam == "B" else conjugate_realization(root)
    if fam == "A":
        return [[2**r]]
    if fam == "B":
        return conjugate_realization([[2**r]])
    d_side = (k_e(r) if r % 2 == 0 else k_o(r)).gram
    return d_side if fam == "D" else conjugate_realization(d_side)


def kmatrix_for(spec: PrimeFamilySpec, positive_definite: bool = False) -> tuple[list[list[int]], str]:
    """(gram, route description) for one prime family instance."""
    if positive_definite:
        return positive_definite_realization(spec), "positive-definite table"
    if spec.family in "EF":
        return direct_ef_k(spec.family, spec.r), "direct rank-2/4 form"
    n = choose_c_for_family(spec)
    if n is None:
        return positive_definite_realization(spec), f"special case: {_SPECIAL_CASE_ROUTES[spec.family]}"
    return k_from_wall(n, spec.p**spec.r), f"continued fraction, n = {n}"
