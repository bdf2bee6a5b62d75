"""One round of a workload, in a fresh process: set up, run, check, report.

Usage: worker.py WORKLOAD SEED MODE SPAWNED RESULT

SPAWNED is the ``time.monotonic()`` reading of the parent just before it
started this process, so set-up time covers interpreter start, importing
numpy, scipy and manypairs, and creating the work directory.  MODE is
0 for an untraced round, 1 for a traced one and ``setup`` to stop once
set up.  The report is written as JSON to RESULT.  With MODE 0 nothing
is wrapped.
"""

import sys
import time

if __name__ == "__main__":
    import os
    import resource
    import shutil
    from pathlib import Path

    import numpy  # noqa: F401
    import scipy  # noqa: F401

    import manypairs
    import manypairs.cli  # noqa: F401

    workload, seed, mode, spawned, result = sys.argv[1:6]
    root = Path(__file__).resolve().parent.parent
    if not Path(manypairs.__file__).resolve().is_relative_to(root / "src"):
        sys.exit(f"manypairs was imported from {manypairs.__file__}, "
                 f"not from {root / 'src'}")
    work = root / "bench" / "work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True)
    setup_s = time.monotonic() - float(spawned)

    import json

    if mode == "setup":
        work.rmdir()
        Path(result).write_text(json.dumps({"setup_s": setup_s}))
        sys.exit(0)

    import workloads
    try:
        tracer = None
        if mode == "1":
            from tracing import Tracer
            tracer = Tracer().install()
        # numpy seeds must be non-negative
        ops = workloads.WORKLOADS[workload](int(seed) % 2 ** 31, work)

        start = time.perf_counter()
        for op in ops:
            try:
                op.output = op.run()
            except Exception as exc:  # reported as a failed operation
                op.error = f"{type(exc).__name__}: {exc}"
        wall_s = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        for op in ops:
            if op.error is None:
                op.problems = op.check(op)
            else:
                op.problems = [op.error]
        report = {
            "wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
            "ops": [{"name": op.name, "problems": op.problems,
                     "known_fault": op.known_fault} for op in ops],
        }
        if tracer is not None:
            report["metrics"] = tracer.metrics()
            report["layers"] = tracer.layers()
            report["spans"] = tracer.spans
            report["absent"] = tracer.absent
    finally:
        shutil.rmtree(work, ignore_errors=True)
    Path(result).write_text(json.dumps(report))
