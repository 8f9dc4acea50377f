"""Host-speed reference slice used to normalise timings.

The benchmark host shares its CPUs with other tenants, and the speed of a
fixed pure-Python slice drifts by up to 2x in phases lasting seconds to tens
of seconds (CPU time drifts with wall time, so it is contention on the core,
not scheduling).  Raw wall-clock figures from two runs minutes apart are
therefore not comparable.

Every timed round is bracketed by :func:`reference_samples`: a fixed slice of
the same kind of work the program does (fresh string tuples into a frozenset,
then a dict index over it).  Its slowdown tracks the program's far more
closely than a small-dict or integer loop does.  A round's wall times are
multiplied by ``REFERENCE_NOMINAL_S / observed`` (see :func:`factors`), i.e.
expressed in seconds of a host on which the slice takes exactly
``REFERENCE_NOMINAL_S``.  The slice is benchmark code: a change to the
program cannot move it.
"""

from __future__ import annotations

import gc
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from typing import List, Sequence

#: Wall time the reference slice is defined to take; the median observed on
#: the 2-CPU development host, so normalised figures read close to raw ones.
REFERENCE_NOMINAL_S = 0.014

_ROWS = 12000
_HANDOFFS = 100


def _slice() -> int:
    rows = [(f"a{i % 997}", f"b{i}") for i in range(_ROWS)]
    frozen = frozenset(rows)
    index = {}
    for left, right in frozen:
        index.setdefault(left, []).append(right)
    # Thread round trips, as every request makes through the service's
    # dispatcher: under contention wake-ups slow down more than computation.
    with ThreadPoolExecutor(max_workers=1) as pool:
        for _ in range(_HANDOFFS):
            pool.submit(len, rows).result()
    return sum(len(bucket) for bucket in index.values())


def reference_samples(count: int = 2) -> List[float]:
    """Wall seconds of ``count`` runs of the reference slice.  The collector
    is off during each run: a collection landing in one sample and not the
    next would be noise, not host speed."""
    times = []
    for _ in range(count):
        gc.disable()
        try:
            started = time.perf_counter()
            _slice()
            times.append(time.perf_counter() - started)
        finally:
            gc.enable()
    return times


def factors(samples: Sequence[Sequence[float]], window: int) -> List[float]:
    """Per-round factors turning raw seconds into normalised seconds.

    ``samples[k]`` holds the reference timings taken around round ``k``.
    One 10 ms sample is itself noisy, while host speed drifts over seconds,
    so each round is normalised by the median of the samples of the rounds
    within ``window`` of it.
    """
    result = []
    for index in range(len(samples)):
        nearby = [
            value
            for round_samples in samples[max(0, index - window) : index + window + 1]
            for value in round_samples
        ]
        result.append(REFERENCE_NOMINAL_S / statistics.median(nearby))
    return result
