"""Fresh-process executor: runs operations through ``ghw.cli.main`` in-process.

Started once per measured workload, so ``ru_maxrss`` covers that workload
only.  The worker pins itself to one CPU and runs a ``speed.SpeedSampler``
thread there; every latency it reports comes raw and host-speed corrected.
Requests arrive as JSON lines on stdin and answers leave as JSON lines on
stdout:

  {"cmd": "warmup", "ops": [...]}  untimed calls that let lazy set-up finish
  {"cmd": "pass", "ops": [...]}    one timed pass, back to back, closed loop
  {"cmd": "finish"}                peak RSS and, when tracing, layer metrics

Usage: python3 worker.py SRC_DIR [--trace SPANS_FILE]
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import speed


def _call(main, op: dict) -> tuple[float, float, int | None, str, str]:
    sys.stdin = io.StringIO(op["stdin"] or "")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(op["argv"])
        except Exception as exc:  # a crash is a failed operation, not a dead run
            rc = None
            err.write(f"{type(exc).__name__}: {exc}")
        end = time.perf_counter()
    return start, end, rc, out.getvalue(), err.getvalue()


def _run_ops(main, ops: list[dict], sampler: speed.SpeedSampler) -> dict:
    """Run ``ops`` back to back; times are raw and host-speed corrected."""
    calls = []
    start = time.perf_counter()
    for op in ops:
        calls.append(_call(main, op))
    end = time.perf_counter()
    results = []
    busy = corrected = 0.0
    for op, (t0, t1, rc, stdout, stderr) in zip(ops, calls):
        ms = (t1 - t0) * 1000.0 * sampler.correction(t0, t1)
        busy += t1 - t0
        corrected += ms / 1000.0
        sha = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        res = {"ms": ms, "raw_ms": (t1 - t0) * 1000.0, "rc": rc, "sha": sha}
        if rc != op["expected_rc"] or sha != op["expected_sha"]:
            res["stdout"], res["stderr"] = stdout[-2000:], stderr[-2000:]
        results.append(res)
    # Time between operations (capturing output, swapping stdin) counts too.
    corrected += (end - start - busy) * sampler.correction(start, end)
    return {"wall_s": corrected, "raw_wall_s": end - start, "ops": results}


def main() -> int:
    src = Path(sys.argv[1]).resolve()
    spans_file = sys.argv[3] if len(sys.argv) > 3 and sys.argv[2] == "--trace" else None
    sys.path.insert(0, str(src))
    requests, replies = sys.stdin, sys.stdout

    import ghw.cli

    if Path(ghw.cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported {ghw.cli.__file__}, not the package under {src}")
    entry = ghw.cli.main
    recorder = None
    if spans_file:
        import tracing

        recorder = tracing.Recorder()
        entry = tracing.install(recorder)

    speed.pin_to_one_cpu()
    with speed.SpeedSampler() as sampler:
        return _serve(requests, replies, entry, recorder, spans_file, sampler)


def _serve(requests, replies, entry, recorder, spans_file, sampler) -> int:
    for line in requests:
        req = json.loads(line)
        if req["cmd"] == "finish":
            reply = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            if recorder is not None:
                reply["layers"] = recorder.layer_metrics(sampler.correction)
                recorder.dump(spans_file)
        else:
            reply = _run_ops(entry, req["ops"], sampler)
            if req["cmd"] == "warmup" and recorder is not None:
                recorder.reset()
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
        if req["cmd"] == "finish":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
