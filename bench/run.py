"""Benchmark of manypairs, end to end and per layer.

Usage, from the root of the repository:

    python3 bench/run.py --workload landscape --seed 1 --seconds 40 --trace 0

Each round of a workload runs in a fresh process (``worker.py``), a
single closed-loop client that issues one operation at a time, so every
round starts with cold caches as a CLI invocation does.  Rounds repeat
while the next one is expected to end within ``--seconds``; at least one
always runs.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: ``wall_s``, ``setup_s`` and ``peak_rss_mb``, each the
  median over the run's rounds (``setup_s`` over at least five
  start-ups);
* ``--trace 1``: rounds alternate untraced and traced, and the metrics
  are the per-layer medians of the traced rounds plus ``trace.overhead_s``
  (traced minus untraced median ``wall_s``).  Spans and self times go to
  ``bench/results/trace-<workload>-seed<seed>.json``.

``correct`` is false when an operation's output fails a check, except
the failure of a known fault, which only counts in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("landscape", "high_visibility", "event_analysis")
#: Start-ups per untraced run behind the median ``setup_s``.
MIN_SETUPS = 5
#: Every run ends within this many seconds.
RUN_LIMIT_S = 170.0

sys.path.insert(0, str(BENCH))
from tracing import METRICS  # noqa: E402


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("MANYPAIRS_OUTDIR", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run worker.py once and return its report."""
    result = BENCH / "results" / f".round-{workload}-{os.getpid()}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
           mode, repr(time.monotonic()), str(result)]
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} round did not end within the run limit")
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"{workload} round exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    report = json.loads(result.read_text())
    result.unlink()
    return report


def _median(values) -> float:
    return float(statistics.median(values))


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    modes = ("0", "1") if trace else ("0",)
    rounds = {mode: [] for mode in modes}
    cycles = []
    while True:
        cycle_start = time.monotonic()
        for mode in modes:
            rounds[mode].append(_worker(workload, seed, mode, deadline))
        cycles.append(time.monotonic() - cycle_start)
        if time.monotonic() - start + _median(cycles) > seconds:
            break

    every = [r for mode in modes for r in rounds[mode]]
    ops = [op for r in every for op in r["ops"]]
    failed = [op for op in ops if op["problems"]]
    unexpected = [(op["name"], p) for op in failed for p in op["problems"]
                  if not (op["known_fault"]
                          and p.startswith(op["known_fault"]))]
    for name, problem in dict.fromkeys(unexpected):
        print(f"check failed: {name}: {problem}", file=sys.stderr)

    plain = rounds["0"]
    if trace:
        traced = rounds["1"]
        metrics = {}
        for name, (unit, _) in METRICS.items():
            values = [r["metrics"][name] for r in traced
                      if name in r["metrics"]]
            if values:
                metrics[name] = {"value": _median(values), "unit": unit}
        overhead = (_median(r["wall_s"] for r in traced)
                    - _median(r["wall_s"] for r in plain))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        absent = traced[0]["absent"]
        for name in absent:
            print(f"absent from the package, not traced: {name}",
                  file=sys.stderr)
        trace_file = BENCH / "results" / f"trace-{workload}-seed{seed}.json"
        trace_file.write_text(json.dumps({
            "workload": workload, "seed": seed, "absent": absent,
            "untraced_wall_s": [r["wall_s"] for r in plain],
            "rounds": [{k: r[k] for k in ("wall_s", "metrics", "layers",
                                          "spans")} for r in traced],
        }))
    else:
        setups = [r["setup_s"] for r in plain]
        while len(setups) < MIN_SETUPS:
            setups.append(_worker(workload, seed, "setup", deadline)["setup_s"])
        metrics = {
            "wall_s": {"value": _median(r["wall_s"] for r in plain),
                       "unit": "s"},
            "setup_s": {"value": _median(setups), "unit": "s"},
            "peak_rss_mb": {"value": _median(r["peak_rss_mb"] for r in plain),
                            "unit": "MB"},
        }
    summary = {"correct": not unexpected, "attempted": len(ops),
               "failed": len(failed), "metrics": metrics}
    (BENCH / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
     ).write_text(json.dumps({
         "summary": summary,
         "rounds": [{k: r[k] for k in ("wall_s", "setup_s", "peak_rss_mb",
                                       "ops")} for r in every]}, indent=1))
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "manypairs" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'manypairs'}",
              file=sys.stderr)
        return 2
    (BENCH / "results").mkdir(exist_ok=True)
    try:
        summary = run(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
