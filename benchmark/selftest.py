#!/usr/bin/env python3
"""Quick self-test of the benchmark on tiny inputs (n <= 8), under a minute.

Checks, on every workload, that a run with tracing off emits exactly the
end-to-end metrics BENCHMARK.json names and a traced run exactly its
per-layer metrics, each with its unit; that the correctness gate passes the
program as it stands; and that the gate counts a failure when one expected
stdout digest is corrupted.

Usage (from the repository root): python3 benchmark/selftest.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, Generator  # noqa: E402


class CorruptedGenerator(Generator):
    """Tiny inputs whose first expected digest is wrong."""

    def make_pass(self, index):
        ops = super().make_pass(index)
        ops[0].expected_sha = "0" * 64
        return ops


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main() -> int:
    workdir = HERE / "out" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    problems = []
    for workload in WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            gen = Generator(workload, seed=7, workdir=workdir, data_dir=run.ROOT / "data", tiny=True)
            result = run.run(gen, seconds=0.5, trace=trace)["result"]
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != _declared(kind):
                problems.append(f"{workload} {kind}: emitted {emitted}, declared {_declared(kind)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: {result['failed']} operations failed")
            print(f"{workload} trace={int(trace)}: {result['attempted']} ops,"
                  f" {len(emitted)} metrics, failed={result['failed']}")
    gen = CorruptedGenerator("cli-small", seed=7, workdir=workdir, data_dir=run.ROOT / "data", tiny=True)
    result = run.run(gen, seconds=0.01, trace=False)["result"]
    if result["correct"] or result["failed"] != 1:
        problems.append(f"corrupted digest: correct={result['correct']} failed={result['failed']}, want 1")
    print(f"corrupted digest: correct={result['correct']} failed={result['failed']}")
    shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
