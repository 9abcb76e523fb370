"""Seeded op lists for the three benchmark workloads.

An op is one `anyonlat` CLI invocation plus what its result must be.  A
workload is a list of *units*, each a short list of ops that must run in
order (a catalog instance runs `model`, then `kmatrix --out F`, then
`verify F`).  A pass runs every unit once, in an order shuffled per pass.

Pools hold every input any seed can draw, so `record.py` can store the
expected output digests of all of them.  The seed picks from the pools and
builds the random unimodular transforms of the `disguised` workload; it
never reaches the program except through argv and matrix files.

This module imports nothing from `anyonlat`, so input generation costs the
same whatever the program does.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re

HERE = os.path.dirname(os.path.abspath(__file__))
DATA_PATH = os.path.join(HERE, "data.json")

WORKLOADS = ("catalog", "posdef", "disguised")

# ---------------------------------------------------------------------------
# model specs

ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


def label(family: str, p: int, r: int) -> str:
    return f"{family}[{p}^{r}]" if r > 1 else f"{family}[{p}]"


def acceptance_instances() -> list[str]:
    """A/B at odd p <= 23 with r <= 3, and A-F at p = 2 with r <= 6."""
    out = [label(f, p, r) for p in ODD_PRIMES for r in (1, 2, 3) for f in "AB"]
    for f in "ABCDEF":
        out += [label(f, 2, r) for r in range(2 if f in "CD" else 1, 7)]
    return out


_FACTOR = re.compile(r"([A-F])\[(\d+)(?:\^(\d+))?\]$")


def factors(spec: str) -> list[tuple[str, int, int]]:
    out = []
    for part in spec.split("*"):
        m = _FACTOR.match(part)
        if m is None:
            raise ValueError(f"benchmark spec {spec!r} is not FAMILY[p^r]*...")
        out.append((m.group(1), int(m.group(2)), int(m.group(3) or 1)))
    return out


def group_order(spec: str) -> int:
    out = 1
    for fam, p, r in factors(spec):
        out *= p ** (2 * r if fam in "EF" else r)
    return out


def group_rank(spec: str) -> int:
    """Number of invariant factors of the group: the largest p-rank."""
    prank: dict[int, int] = {}
    for fam, p, _ in factors(spec):
        prank[p] = prank.get(p, 0) + (2 if fam in "EF" else 1)
    return max(prank.values())


def wrong_target(spec: str) -> str:
    """A non-isometric model of the same group: swap A<->B, C<->D or E<->F in
    the first factor.  The swapped families differ in their quadratic
    character (odd p), central charge (A/B, C/D at p = 2) or q-value census
    (E/F), so no isometry exists."""
    swap = {"A": "B", "B": "A", "C": "D", "D": "C", "E": "F", "F": "E"}
    parts = spec.split("*")
    parts[0] = swap[parts[0][0]] + parts[0][1:]
    return "*".join(parts)


# Factors of the seeded catalog products.  The pool keeps products of 2 or 3
# of them with |A| <= 4096 whose group has at most two invariant factors.
# With three or more, the brute-force Aut search of `model` explodes:
# model E[2]*E[2]*E[2] (Z2^6, |A| = 64) alone takes 323 s, and a third of
# the products with four invariant factors take longer than 3 s.
PRODUCT_FACTORS = (
    "A[3]", "B[3]", "A[5]", "B[5]", "A[7]", "B[7]", "A[11]", "B[13]", "A[3^2]",
    "A[2]", "B[2]", "A[2^2]", "B[2^2]", "C[2^2]", "D[2^2]", "A[2^3]", "D[2^3]",
    "E[2]", "F[2]", "E[2^2]", "F[2^2]",
)
PRODUCTS_PER_RUN = 20


def product_pool() -> list[str]:
    out = []
    for k in (2, 3):
        for combo in itertools.combinations_with_replacement(PRODUCT_FACTORS, k):
            spec = "*".join(combo)
            if group_order(spec) <= 4096 and group_rank(spec) <= 2:
                out.append(spec)
    return out


# Positive-definite routes too slow for a pass, with their time on one
# 2-core x86 container (Python 3.11):
#   A[7^2], A[7^3], A[11^2], A[19^2], A[23^2]  > 25 s: complements of A_48 and up
#   B[23^2]                                     12 s: rank-528 Cartan, verified
#   A[3^3] 5.8 s, B[19^2] 4.7 s, A[23] 3.3 s, B[7^3] 2.6 s, A[19] 2.5 s
# Odd instances with p^r > 600 are left out as well: their Cartan routes
# have rank p^r - 1.
POSDEF_EXCLUDED = frozenset(
    ["A[7^2]", "A[7^3]", "A[11^2]", "A[19^2]", "A[23^2]", "B[23^2]",
     "A[3^3]", "B[19^2]", "A[23]", "B[7^3]", "A[19]"]
)


def posdef_pool() -> list[str]:
    out = []
    for spec in acceptance_instances():
        (fam, p, r), = factors(spec)
        if spec in POSDEF_EXCLUDED or (p != 2 and p**r > 600):
            continue
        out.append(spec)
    return out


# Cartan A_{m-1} realizes B[m] for m = p^r, p = 3 mod 4.  Rank-528 (B[23^2],
# 13.5 s) is left out; A_342 (B[7^3]) is left out to keep a pass short.
CARTAN_VERIFY = ("B[3]", "B[7]", "B[11]", "B[19]", "B[23]", "B[3^2]", "B[3^3]",
                 "B[7^2]", "B[11^2]", "B[19^2]")
# Complements of Cartan A_n: A_22 in every run, plus 3 distinct n in 1..6,
# which stay below the p90 op time; complements from n = 7 on take 0.25 s
# to 3 s, and drawing them would move p90 and peak RSS from seed to seed.
COMPLEMENT_FIXED = 22
COMPLEMENT_SEEDED = range(1, 7)
COMPLEMENT_SEEDED_COUNT = 3
# Non-cyclic bases whose glue group comes from the brute-force search.
GLUE_BASES = ("z2xz2", "d4")
# `weights` runs on root lattices of rank <= 9, k_e(2, 4, 6), k_o(3) and
# these positive-definite outputs: the inputs of rank <= 10 that take under
# 0.25 s.  A_10 and k_o(5) take 0.5 s, B[2^3] 0.3 s, B[2^4] 1.4 s; B[2^5],
# B[2^6], A[13^2] and B[17^2] (heavy k'' corners) over 8 s.
WEIGHTS_POSDEF = ("A[5]", "B[17]", "A[2]", "A[2^2]", "A[2^3]", "A[2^4]", "A[2^5]",
                  "A[2^6]", "B[2]", "B[2^2]", "F[2]")

# The known MemoryError: sorting all 12^8 elements of D^8 for D = Z2 x Z6.
PROBE_GRAM = [[4, 2], [2, 4]]


# Sources of the disguised Gram matrices, as "route SPEC".
# "kmatrix SPEC" is the default (continued fraction) route, "posdef SPEC" the
# positive-definite one.  Ranks run from 2 to 70.
DISGUISED_SOURCES = (
    "kmatrix A[5]", "kmatrix B[7]", "kmatrix A[3^2]", "kmatrix B[5^2]",
    "kmatrix A[13]", "kmatrix B[11]", "kmatrix A[17]", "kmatrix B[19]",
    "kmatrix A[23]", "kmatrix B[3^3]", "kmatrix A[7^2]", "kmatrix B[13^2]",
    "kmatrix A[5^3]", "kmatrix B[11^2]", "kmatrix C[2^3]", "kmatrix D[2^4]",
    "kmatrix A[2^5]", "kmatrix B[2^3]", "kmatrix C[2^6]", "kmatrix D[2^5]",
    "kmatrix E[2^3]", "kmatrix F[2^2]", "kmatrix F[2^5]", "kmatrix E[2^6]",
    "kmatrix A[3]*B[5]", "kmatrix E[2]*A[3]", "kmatrix B[7]*F[2]",
    "kmatrix A[11]*A[2^3]", "kmatrix D[2^2]*B[13]", "kmatrix A[5]*B[7]*C[2^2]",
    "posdef B[3^2]", "posdef B[19]", "posdef B[23]", "posdef B[3^3]",
    "posdef A[5]", "posdef A[13]", "posdef B[13]", "posdef A[5^2]",
    "posdef B[17^2]", "posdef A[17]", "posdef A[3]", "posdef A[7]",
    "posdef A[11]", "posdef B[2]", "posdef C[2^2]", "posdef C[2^3]",
    "posdef D[2^3]", "posdef D[2^4]", "posdef E[2]", "posdef E[2^4]",
    "posdef F[2]", "posdef F[2^2]", "posdef F[2^3]", "posdef E[2^6]",
)
DENSIFY_ROUNDS = 3


def disguised_bits(rank: int) -> int:
    """Largest entry bit length U K U^T grows to.  Dense SNF cost climbs
    steeply with it: at rank 70, verify takes 3.5 s at 10 bits, 9 s at 12
    and 25 s at 18."""
    return 20 if rank <= 8 else 16 if rank <= 16 else 12 if rank <= 32 else 10


# ---------------------------------------------------------------------------
# recorded data


def load_data() -> dict:
    with open(DATA_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def weights_pool(data: dict) -> list[str]:
    """Names of the rank <= 9 lattices `weights` runs on."""
    return sorted(data["weights_inputs"])


# ---------------------------------------------------------------------------
# matrices


def cartan_a(n: int) -> list[list[int]]:
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]


def matrix_file(gram) -> str:
    return json.dumps({"gram": gram}, separators=(",", ":")) + "\n"


def matrix_size(gram) -> dict:
    """Rank, max entry bit length and nonzero share of a Gram matrix."""
    n = len(gram)
    nonzero = sum(1 for row in gram for x in row if x)
    bits = max((abs(x).bit_length() for row in gram for x in row), default=0)
    return {"rank": n, "bits": bits, "density": round(nonzero / (n * n), 4) if n else 0.0}


def disguise(gram, rng: random.Random, target_bits: int) -> list[list[int]]:
    """U K U^T for a random unimodular U built from elementary row operations.

    Every row takes one operation in each of DENSIFY_ROUNDS rounds, which
    leaves almost no zero entry; operations then continue until the largest
    entry has `target_bits` bits.
    """
    n = len(gram)
    k = [list(row) for row in gram]
    if n == 1:
        return k

    def apply(i, j, c):
        # rows i += c * row j, then columns i += c * column j
        ri, rj = k[i], k[j]
        for t in range(n):
            ri[t] += c * rj[t]
        for row in k:
            row[i] += c * row[j]

    def row_bits(i):
        # only row i and column i change, and K stays symmetric
        return max(abs(x).bit_length() for x in k[i])

    reached = False
    for _ in range(DENSIFY_ROUNDS):
        for i in rng.sample(range(n), n):
            j = rng.choice([t for t in range(n) if t != i])
            apply(i, j, rng.choice((-1, 1)))
            reached = reached or row_bits(i) >= target_bits
    while not reached:
        i, j = rng.sample(range(n), 2)
        apply(i, j, rng.choice((-1, 1)))
        reached = row_bits(i) >= target_bits
    return k


# ---------------------------------------------------------------------------
# ops


def _op(argv, *, exit=0, verdict=None, digest=None, out=None, model=False,
        order=None, size=None) -> dict:
    return {
        "argv": list(argv),
        "out": out,
        "expect": {"exit": exit, "verdict": verdict, "digest": digest, "model": model},
        "order": order,
        "size": size,
    }


def _fname(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", text).strip("_")


def catalog_units(rng: random.Random, data: dict):
    specs = acceptance_instances() + rng.sample(product_pool(), PRODUCTS_PER_RUN)
    units = []
    for spec in specs:
        out = f"km_{_fname(spec)}.json"
        order = group_order(spec)
        units.append([
            _op(["model", spec], model=True, order=order),
            _op(["kmatrix", spec, "--out", out], verdict="pass", out=out,
                digest=f"kmatrix {spec}", order=order),
            _op(["verify", out, "--target", spec], verdict="pass", order=order),
        ])
    return units, {}


def posdef_units(rng: random.Random, data: dict):
    """Every instance of the pool and every `weights` lattice runs in each
    run; the seed draws only the small complements and the order, so runs
    differ little in the work they do."""
    units, files = [], {}
    for spec in posdef_pool():
        out = f"pd_{_fname(spec)}.json"
        units.append([_op(["kmatrix", spec, "--positive-definite", "--out", out], verdict="pass",
                          out=out, digest=f"posdef {spec}", order=group_order(spec))])
    ns = [COMPLEMENT_FIXED] + sorted(rng.sample(COMPLEMENT_SEEDED, COMPLEMENT_SEEDED_COUNT))
    bases = {f"a{n}": (cartan_a(n), n + 1) for n in ns}
    for name in GLUE_BASES:
        gram = data["glue_inputs"][name]
        bases[name] = (gram, 4)
    for name, (gram, order) in bases.items():
        files[f"{name}.json"] = matrix_file(gram)
        out = f"comp_{name}.json"
        units.append([_op(["complement", f"{name}.json", "--out", out], verdict="pass", out=out,
                          digest=f"complement {name}", order=order, size=matrix_size(gram))])
    for spec in CARTAN_VERIFY:
        m = group_order(spec)
        gram = cartan_a(m - 1)
        files[f"cartan{m - 1}.json"] = matrix_file(gram)
        units.append([_op(["verify", f"cartan{m - 1}.json", "--target", spec], verdict="pass",
                          order=m, size=matrix_size(gram))])
    for name in weights_pool(data):
        entry = data["weights_inputs"][name]
        path = f"w_{_fname(name)}.json"
        files[path] = matrix_file(entry["gram"])
        units.append([_op(["weights", path], digest=f"weights {name}",
                          order=entry["order"], size=matrix_size(entry["gram"]))])
    return units, files


def disguised_copies(rank: int) -> int:
    """Disguises of one source per run.  Three of each source up to rank 32
    put p90 inside the cluster of rank 21-31 ops instead of in the gap below
    the ten rank 42-70 ops, where it jumped by 40% from seed to seed."""
    return 3 if rank <= 32 else 1


def disguised_units(rng: random.Random, data: dict):
    units, files = [], {}
    for idx, source in enumerate(DISGUISED_SOURCES):
        spec = source.split(" ", 1)[1]
        base = data["disguised_sources"][source]
        for copy in range(disguised_copies(len(base))):
            gram = disguise(base, rng, disguised_bits(len(base)))
            name = f"dg{idx:02d}_{copy}.json"
            files[name] = matrix_file(gram)
            size = matrix_size(gram)
            order = group_order(spec)
            units.append([_op(["verify", name, "--target", spec], verdict="pass", order=order,
                              size=size)])
            units.append([_op(["verify", name, "--target", wrong_target(spec)], exit=1,
                              verdict="FAIL", order=order, size=size)])
    return units, files


_UNIT_MAKERS = {"catalog": catalog_units, "posdef": posdef_units, "disguised": disguised_units}


def build(workload: str, seed: int, data: dict | None = None):
    """(units, files) for one run: files maps a file name in the run's work
    directory to its text.  The same (workload, seed) gives the same result."""
    if workload not in _UNIT_MAKERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    return _UNIT_MAKERS[workload](rng, data if data is not None else load_data())


def pass_order(units, seed: int, pass_index: int):
    """The units of one pass, shuffled by (seed, pass)."""
    order = list(units)
    random.Random(f"pass:{seed}:{pass_index}").shuffle(order)
    return order
