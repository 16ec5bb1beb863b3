"""One pass of a workload, in the fresh interpreter ``run.py`` starts.

A pass imports uniconsist from the checkout's ``src``, writes the
workload's configs (set-up ends here), then runs the timed phase. Modes:
``setup`` stops after set-up; ``pass`` times the workload; ``checks`` also
runs the correctness checks after the timed phase; ``trace`` times it with
span tracing installed. The outcome goes to the ``--result`` JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def monotonic() -> float:
    """System-wide clock shared with the parent process."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def provenance(threads: int) -> dict:
    import numpy as np
    import scipy

    import uniconsist
    blas = {}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "uniconsist": uniconsist.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "engine_threads": threads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "pass", "checks", "trace"],
                        required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import uniconsist
    if Path(uniconsist.__file__).resolve().parent != SRC / "uniconsist":
        print(f"perfbench: imported uniconsist from {uniconsist.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracing import NullTracer, Tracer, install, layer_metrics

    work_dir = Path(args.work_dir)
    tracing = args.mode == "trace"
    tracer = (Tracer(f"{args.workload}-seed{args.seed}") if tracing
              else NullTracer())
    workload = workloads.WORKLOADS[args.workload](args.tiny)
    threads = min(workload.threads, len(os.sched_getaffinity(0)))
    session = workloads.Session(args.seed, threads, work_dir, tracer)
    session.out_dir.mkdir(parents=True, exist_ok=True)
    workload.setup(session)
    result = {"ready": monotonic()}

    if args.mode != "setup":
        if tracing:
            install(tracer)
        start = time.perf_counter()
        workload.timed(session)
        result["wall_s"] = time.perf_counter() - start
        result["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracing:
            tracer.dump(work_dir / "spans.jsonl")
            result["layers"] = layer_metrics(tracer.spans)
            result["untraced_targets"] = tracer.missing
        if args.mode == "checks":
            workloads.run_checks(workload, session)
        result["ops"] = session.ops
        result["provenance"] = provenance(threads)

    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
