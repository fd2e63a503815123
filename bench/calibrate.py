"""A fixed loop, timed next to every measurement, that turns wall time into nominal seconds.

The host this benchmark runs on is shared, and its speed drifts by up to a
fifth over seconds to minutes; the drift moves every wall time alike.
Scaling a wall time by NOMINAL_S over the loop's time, taken just before
and just after, cancels most of it: a nominal second is a second on a
machine where the loop takes NOMINAL_S (about a 2-core x86 VM running
CPython 3.11).  The loop imports nothing from the library, so no change to
the library moves it.
"""

from __future__ import annotations

from time import perf_counter

NOMINAL_S = 0.020
ITERATIONS = 120_000


def reference_s() -> float:
    """Wall time of the fixed loop: integer arithmetic and dict stores."""
    t0 = perf_counter()
    s, d = 0, {}
    for i in range(ITERATIONS):
        s += (i * i) % 7
        d[i & 1023] = s
    return perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Nominal seconds per wall second, from the loop times around a measurement."""
    return NOMINAL_S / ((before + after) / 2)
