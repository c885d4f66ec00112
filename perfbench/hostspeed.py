"""Host-speed reference: a fixed task timed alongside the program.

The benchmark runs on virtual cores of a shared host.  Even the CPU time of
a single-threaded process swings by up to two times there, from second to
second and from minute to minute, because other guests share the host's
cores, its last-level cache and its memory bandwidth.  The swing moves all
code running at the same moment alike, so each run also times
:func:`probe` - a fixed task that uses no code of the program under test -
between its queries, and reports each query's time scaled by
``NOMINAL_PROBE_S / median time of the probes around it``: as it would
read on a host where the probe takes ``NOMINAL_PROBE_S``.  A change to the
program moves its own times and leaves the probe's alone.

The probe mixes the three kinds of work the library's hot paths do:
interpreted function calls over small objects (planner, schedules), many
small numpy ufuncs and reductions (kernels, DPs, compiled graphs) and
random reads from a table larger than the core's own caches.  Of the
reference tasks tried, this mix tracked the host's swings best on all
three workloads.  Its 8 MB table counts in ``peak_rss_mb``.
"""

from __future__ import annotations

import math
import time
import statistics
from bisect import bisect_right
from typing import List, Sequence, Tuple

import numpy as np

# Probe CPU time on the 2-core x86 host the bounds were set on, in one of
# its mid-speed phases.
NOMINAL_PROBE_S = 1.0e-3
# Probes on either side of a query that set its factor: the host's speed
# shifts within a run, on a scale of seconds.
WINDOW = 5

_SMALL = np.random.RandomState(0).rand(24, 64)
_TABLE = np.random.RandomState(1).rand(1_000_000)
_ROWS = np.random.RandomState(2).randint(0, len(_TABLE), 60_000)


class _Op:
    __slots__ = ("fwd", "bwd")

    def __init__(self, fwd: float, bwd: float):
        self.fwd = fwd
        self.bwd = bwd


def _interpreted() -> float:
    """Function calls and attribute reads over a small 1F1B-like lattice."""
    stages, micro = 6, 12
    ops = [[_Op(1.0 + 0.1 * i, 2.0 + 0.05 * j) for j in range(micro)]
           for i in range(stages)]
    done = [[0.0] * micro for _ in range(stages)]

    def finish(i: int, j: int) -> float:
        up = done[i - 1][j] if i else 0.0
        left = done[i][j - 1] if j else 0.0
        op = ops[i][j]
        return max(up, left) + op.fwd + op.bwd

    for _ in range(20):
        for i in range(stages):
            for j in range(micro):
                done[i][j] = finish(i, j)
    return done[-1][-1]


def _small_ops() -> float:
    """Many numpy ufuncs and reductions over a small array."""
    x = _SMALL
    for _ in range(120):
        x = np.maximum(x, _SMALL[::-1]) + 0.001
        y = np.maximum.accumulate(x, axis=1)
    return float(y[0, -1])


def _gather() -> float:
    """Random reads from an 8 MB table, larger than the core's caches."""
    return float(_TABLE[_ROWS].sum())


def probe() -> float:
    """CPU seconds of one reference task (geometric mean of its parts).

    Each part runs once untimed first, so that what the caller left in the
    caches does not count.
    """
    clock = time.process_time
    parts = (_interpreted, _small_ops, _gather)
    log_sum = 0.0
    for part in parts:
        part()
        t0 = clock()
        part()
        log_sum += math.log(max(clock() - t0, 1e-9))
    return math.exp(log_sum / len(parts))


def probes(n: int) -> List[float]:
    """``n`` probe times in a row."""
    return [probe() for _ in range(n)]


def factors(n: int, log: Sequence[Tuple[int, float]]) -> List[float]:
    """Factors that put each of ``n`` query times at the nominal host speed.

    ``log`` holds ``(queries done before the probe, probe time)`` pairs;
    query ``k`` takes the median of the ``WINDOW`` probes on either side of
    it.
    """
    at = [i for i, _ in log]
    times = [t for _, t in log]
    out = []
    for k in range(n):
        j = bisect_right(at, k)
        near = times[max(0, j - WINDOW):j + WINDOW]
        out.append(NOMINAL_PROBE_S / statistics.median(near))
    return out

