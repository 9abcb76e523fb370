"""A fixed reference kernel that measures the host's speed.

The kernel does the kinds of work the program spends its time on: exact
integer elimination with growing entries, and lookups in an int-keyed table.
It imports nothing from `anyonlat` and allocates almost no containers, so
its speed depends on the host and not on the program's state.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

_RNG = random.Random(20201223)
_N = 10
_MATRIX = [[_RNG.randint(-2**20, 2**20) for _ in range(_N)] for _ in range(_N)]
_TABLE = {i: (i * 2654435761) % 1000003 for i in range(2048)}


def _bareiss() -> int:
    m = [row[:] for row in _MATRIX]
    prev = 1
    for k in range(_N - 1):
        pivot, row_k = m[k][k], m[k]
        for i in range(k + 1, _N):
            row_i = m[i]
            a = row_i[k]
            for j in range(k + 1, _N):
                row_i[j] = (pivot * row_i[j] - a * row_k[j]) // prev
        prev = pivot
    return m[-1][-1]


def _lookups() -> int:
    table, acc, x = _TABLE, 0, 1
    for _ in range(3000):
        x = (x * 1103515245 + 12345) & 2047
        acc += table[x]
    return acc


def reference_seconds() -> float:
    """Seconds one pass of the reference kernel takes."""
    started = time.perf_counter()
    _bareiss()
    _lookups()
    return time.perf_counter() - started


def probe_seconds() -> float:
    """The host's speed now: the median time of three kernel passes, so one
    burst of slowness does not decide it."""
    return statistics.median(reference_seconds() for _ in range(3))


# The kernel's median time on the 2-core x86 host the benchmark was written
# on, in a quiet phase.  Times scaled by NOMINAL_S / (the kernel's time at
# that moment) read as they would on that host when quiet.
NOMINAL_S = 0.70e-3
# Probes taken right after set-up, for the speed at set-up time.
SETUP_PROBES = 7


def host_scale(probes) -> float:
    """NOMINAL_S over the median of some probe times."""
    return NOMINAL_S / statistics.median(probes)


def record_scales(reference, count: int) -> list[float]:
    """The host scale of each of `count` records, from the `(record index,
    probe seconds)` pairs taken before each unit and after the last: the
    probes just before and just after the record's unit."""
    index = [i for i, _ in reference]
    probes = [s for _, s in reference]
    scales = []
    for i in range(count):
        k = bisect.bisect_right(index, i) - 1
        scales.append(host_scale(probes[k:k + 2]))
    return scales
