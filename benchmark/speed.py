"""Host-speed correction for timings taken on a shared, contended host.

On a shared host, the rate at which this CPU runs Python bytecode can swing
by 1.5x within seconds and drift by as much over minutes, as other tenants
contend for the same cores. Raw wall times then vary more from run to run
than any change worth detecting. So the benchmark samples the speed of the
CPU its timed code runs on. It times PROBE, a fixed pure-Python loop, every
INTERVAL seconds from a thread pinned to that same CPU. It then reports each
time multiplied by REFERENCE_S / (median probe time while it ran). That
gives seconds at the speed of an uncontended reference CPU. Raw wall times
are printed next to the corrected ones.

Only the standard library is used, so a fresh interpreter can load this
module without changing what an import of ghw costs.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
from array import array
from time import perf_counter

PROBE_ITERATIONS = 2000
# PROBE's time on an uncontended 2.0 GHz Xeon vCPU (its 5th percentile on a
# contended one), so corrected times read close to raw times when uncontended.
REFERENCE_S = 150e-6
INTERVAL = 0.02
PAD = 0.25  # probe samples this far outside an interval still describe it


def probe() -> float:
    """Seconds one run of the fixed loop takes right now."""
    start = perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return perf_counter() - start


def pin_to_one_cpu() -> int:
    """Pin the calling thread, and threads it starts later, to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedSampler:
    """Background thread that probes the CPU speed every INTERVAL seconds."""

    def __init__(self):
        self.times = array("d")
        self.costs = array("d")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(INTERVAL):
            start = perf_counter()
            cost = probe()
            self.times.append(start)
            self.costs.append(cost)

    def correction(self, t0: float, t1: float) -> float:
        """Factor that turns a raw duration over [t0, t1] into reference seconds."""
        lo = bisect.bisect_left(self.times, t0 - PAD)
        hi = bisect.bisect_right(self.times, t1 + PAD)
        costs = self.costs[lo:hi] or self.costs
        return REFERENCE_S / statistics.median(costs) if costs else 1.0
