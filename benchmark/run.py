#!/usr/bin/env python3
"""ghw benchmark: seeded workloads through the real CLI entry point.

Usage (from the repository root):

  python3 benchmark/run.py --workload fast-large --seed 1 --seconds 10 --trace 0

A run generates its inputs from the seed, computes every expected output
with the independent reference in ``reference.py`` (untimed), then starts a
fresh worker process that calls ``ghw.cli.main(argv)`` once per operation,
one at a time (a closed loop with one client).  Passes of new inputs run
until ``--seconds`` of measured (host-speed corrected) time is used; the pass
in progress always completes.

Every time is reported in seconds at a reference CPU speed: ``speed.py``
samples how fast the worker's CPU runs a fixed loop while the timed code runs
and scales the raw time by it, which removes the swings that contention from
other tenants of a shared host puts into raw wall time.  Raw values are
printed alongside.

--trace 0 prints the end-to-end metrics; --trace 1 runs the first pass twice,
untraced and traced, each in its own fresh worker, and prints the per-layer
metrics.  Every operation of either mode goes through the same correctness
gate: exit code and stdout digest must match the reference.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Readable lines before it give each metric with its unit and sample
count.  Spans of a traced run and the input property record are written
under benchmark/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS, Generator, warmup_ops  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p99": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    **{f"{name}_s": "s" for name in tracing.SPANS},
    **{name: "count" for name in tracing.COUNTS},
    **{name: "ratio" for name in tracing.RATIOS},
    "trace.overhead_s": "s",
    "trace.unattributed_share": "ratio",
    "trace.max_op_unattributed_share": "ratio",
    "trace.spans": "count",
}
SETUP_REPEATS = 11
# Times ``import ghw.cli`` in a fresh interpreter, pinned to one CPU, with
# host-speed probes just before and after it.  argv: SRC_DIR BENCHMARK_DIR.
IMPORT_PROBE = """
import statistics, sys, time
sys.path[:0] = sys.argv[1:3]
import speed
speed.pin_to_one_cpu()
probes = [speed.probe() for _ in range(10)]
start = time.perf_counter()
import ghw.cli
raw = time.perf_counter() - start
probes += [speed.probe() for _ in range(10)]
print(raw, speed.REFERENCE_S / statistics.median(probes))
"""


class Worker:
    """One fresh worker process; requests and replies are JSON lines."""

    def __init__(self, spans_file: Path | None = None):
        cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT / "src")]
        if spans_file is not None:
            cmd += ["--trace", str(spans_file)]
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def request(self, cmd: str, ops=()) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd, "ops": [op.to_json() for op in ops]}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


class Gate:
    """Compares every operation's exit code and stdout digest with the reference."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []

    def check(self, ops, reply: dict) -> None:
        for op, res in zip(ops, reply["ops"], strict=True):
            self.attempted += 1
            if res["rc"] != op.expected_rc or res["sha"] != op.expected_sha:
                self.failed += 1
                if len(self.examples) < 3:
                    self.examples.append(
                        f"ghw {' '.join(op.argv)}: exit {res['rc']} (want {op.expected_rc}),"
                        f" stdout {res['sha'][:12]} (want {op.expected_sha[:12]});"
                        f" stderr: {res.get('stderr', '').strip()[:200]}"
                    )


def run_passes(gen: Generator, gate: Gate, seconds: float, spans_file=None, max_passes=None):
    """Warm up a fresh worker, then run passes.

    Returns the pass replies (corrected and raw times per pass and per
    operation), the finish reply, and the operations run."""
    worker = Worker(spans_file)
    try:
        warm = warmup_ops()
        gate.check(warm, worker.request("warmup", warm))
        replies, all_ops = [], []
        limit = min(x for x in (max_passes, gen.max_passes, math.inf) if x is not None)
        while len(replies) < limit:
            ops = gen.make_pass(len(replies))
            reply = worker.request("pass", ops)
            gate.check(ops, reply)
            for op, res in zip(ops, reply["ops"]):
                op.props["ms"] = res["ms"]
            replies.append(reply)
            all_ops += ops
            if sum(r["wall_s"] for r in replies) >= seconds:
                break
        finish = worker.request("finish")
    finally:
        worker.close()
    return replies, finish, all_ops


def measure_setup() -> tuple[list[float], list[float]]:
    """Corrected and raw seconds to import ghw.cli (numpy included) in fresh
    interpreters.  One untimed import first writes the bytecode cache, so
    every timed import sees the same, warm, state."""
    corrected, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(HERE)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
        )
        seconds, factor = map(float, out.stdout.split())
        if i:
            corrected.append(seconds * factor)
            raw.append(seconds)
    return corrected, raw


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _summary(walls, latencies, setup, rss) -> dict:
    return {
        "wall_s": statistics.median(walls),
        "op_ms_p50": statistics.median(latencies),
        "op_ms_p99": percentile(latencies, 99),
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setup),
    }


def end_to_end(gen: Generator, gate: Gate, seconds: float) -> tuple[dict, list[str], list]:
    setup, raw_setup = measure_setup()
    replies, finish, ops = run_passes(gen, gate, seconds)
    metrics = _summary(
        [r["wall_s"] for r in replies], [o["ms"] for r in replies for o in r["ops"]],
        setup, finish["peak_rss_mb"],
    )
    raw = _summary(
        [r["raw_wall_s"] for r in replies], [o["raw_ms"] for r in replies for o in r["ops"]],
        raw_setup, finish["peak_rss_mb"],
    )
    count = len(ops)
    tail = count - math.ceil(0.99 * count)
    p99_note = f"{tail} samples beyond it" if tail >= 10 else f"only {tail} beyond it: the slowest op"
    notes = {
        "wall_s": f"median of {len(replies)} passes, {count} ops in all",
        "op_ms_p50": f"n={count}",
        "op_ms_p99": f"n={count}, nearest rank, {p99_note}",
        "peak_rss_mb": "ru_maxrss of the fresh worker that ran only this workload",
        "setup_s": f"median of {len(setup)} fresh-interpreter imports",
    }
    lines = [
        f"{m} = {v:.6g} {END_TO_END[m]} ({notes[m]}"
        + ("" if m == "peak_rss_mb" else f"; raw {raw[m]:.6g} {END_TO_END[m]}") + ")"
        for m, v in metrics.items()
    ]
    return metrics, lines, ops


def per_layer(gen: Generator, gate: Gate, seconds: float) -> tuple[dict, list[str], list]:
    plain, _, ops = run_passes(gen, gate, seconds, max_passes=1)
    gen.seen.clear()  # the traced worker is a new process: same inputs, nothing shared
    spans_file = gen.workdir.parent / f"spans-{gen.workload}.npz"
    traced, finish, _ = run_passes(gen, gate, seconds, spans_file, max_passes=1)
    metrics = dict(finish["layers"])
    metrics["trace.overhead_s"] = traced[0]["wall_s"] - plain[0]["wall_s"]
    metrics = {name: metrics[name] for name in PER_LAYER}
    lines = [f"{m} = {v:.6g} {PER_LAYER[m]}" for m, v in metrics.items()]
    lines.append(f"spans written to {spans_file}")
    return metrics, lines, ops


def property_record(ops) -> dict:
    """Per-input properties and how they are shared across the workload."""
    summary = {
        key: dict(sorted(Counter(str(op.props[key]) for op in ops).items()))
        for key in ("form", "format", "field", "n")
    }
    circuits = sorted(op.props["circuits"] for op in ops)
    summary["circuits"] = {
        "min": circuits[0], "median": statistics.median(circuits), "max": circuits[-1],
    }
    return {"summary": summary, "inputs": [op.props for op in ops]}


def run(gen: Generator, seconds: float, trace: bool) -> dict:
    gate = Gate()
    measure = per_layer if trace else end_to_end
    metrics, lines, ops = measure(gen, gate, seconds)
    units = PER_LAYER if trace else END_TO_END
    record = property_record(ops)
    (gen.workdir.parent / f"inputs-{gen.workload}.json").write_text(json.dumps(record, indent=1))
    fail_ratio = gate.failed / gate.attempted
    lines.append(f"fail_ratio = {fail_ratio:.6g} 1 ({gate.failed} of {gate.attempted} ops)")
    lines.append("inputs: " + json.dumps(record["summary"]))
    lines += [f"FAILED {example}" for example in gate.examples]
    return {
        "lines": lines,
        "result": {
            "correct": gate.failed == 0,
            "attempted": gate.attempted,
            "failed": gate.failed,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (ROOT / "src" / "ghw" / "cli.py", ROOT / "data"):
        if not needed.exists():
            print(f"error: {needed} is missing; run from a full ghw checkout", file=sys.stderr)
            return 2
    out = HERE / "out"
    workdir = out / "inputs"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    start = time.perf_counter()
    gen = Generator(args.workload, args.seed, workdir, ROOT / "data")
    report = run(gen, args.seconds, bool(args.trace))
    shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          f" ({time.perf_counter() - start:.1f} s in all)")
    for line in report["lines"]:
        print("  " + line)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
