#!/usr/bin/env python3
"""Does the first operation in a fresh worker pay a one-off cost?

Each trial starts a fresh worker and runs two different GF(2) 8x16
``weights --json`` operations back to back, swapping which input goes first
on alternate trials so input cost and machine drift cancel.  Trials run both
without and with the benchmark's warm-up calls (one call per command form on
a 3-element matroid).  Prints the median first/second latency ratio of each.

Usage (from the repository root): python3 benchmark/firstcall.py
"""

from __future__ import annotations

import random
import statistics
import sys

import run
from workloads import _matrix_input, _op, warmup_ops

TRIALS = 6


def _latency_ms(worker: run.Worker, gate: run.Gate, op) -> float:
    reply = worker.request("pass", [op])
    gate.check([op], reply)
    return reply["ops"][0]["ms"]


def main() -> int:
    rng = random.Random("firstcall")
    pair = []
    for _ in range(2):
        text, ref = _matrix_input(rng, 2, 8, 16, "matrix-text")
        pair.append(_op("weights --json", "-", text, ref, {"field": 2, "format": "matrix-text"}))
    gate = run.Gate()
    for warm in (False, True):
        ratios = []
        for trial in range(TRIALS):
            ops = pair if trial % 2 == 0 else pair[::-1]
            worker = run.Worker()
            try:
                if warm:
                    calls = warmup_ops()
                    gate.check(calls, worker.request("warmup", calls))
                first, second = (_latency_ms(worker, gate, op) for op in ops)
                worker.request("finish")
            finally:
                worker.close()
            ratios.append(first / second)
            print(f"warm-up={warm} trial {trial}: first {first:.0f} ms, second {second:.0f} ms", flush=True)
        print(f"warm-up={warm}: median first/second = {statistics.median(ratios):.3f}"
              f" over {TRIALS} fresh workers")
    print(f"failed operations: {gate.failed} of {gate.attempted}")
    return 1 if gate.failed else 0


if __name__ == "__main__":
    sys.exit(main())
