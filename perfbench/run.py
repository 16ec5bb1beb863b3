"""uniconsist benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every pass is a fresh interpreter
(``worker.py``), because a CLI user pays import and set-up on every
invocation. BLAS is pinned to one thread, so the engine's ``threads`` is
the only parallelism.

``--trace 0`` runs the workload's timed phase in passes until they add up
to ``--seconds`` of timed work (the first pass also runs the correctness
checks), plus set-up-only passes until there are
``SETUP_SAMPLES`` set-up times, and reports medians. ``--trace 1`` runs one
untraced pass with the checks and one traced pass, and reports per-layer
metrics and the tracing overhead.

Human-readable lines (metrics with units, failure counts, provenance) come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A record with every
pass and the provenance is written to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("iid-density", "seq-engine", "null-tables")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class PassFailed(Exception):
    pass


class Runner:
    """Starts worker passes and keeps what they report."""

    def __init__(self, workload: str, seed: int, tiny: bool, work: Path):
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.work = work
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = {**os.environ, **BLAS_ENV,
                    "UNICONSIST_SEED": str(seed), "PYTHONHASHSEED": "0"}
        self.count = 0

    def spawn(self, mode: str) -> dict:
        self.count += 1
        pass_dir = self.work / f"pass-{self.count}-{mode}"
        pass_dir.mkdir(parents=True)
        result_path = pass_dir / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--mode", mode, "--work-dir", str(pass_dir),
               "--result", str(result_path)]
        if self.tiny:
            cmd.append("--tiny")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise PassFailed("time limit reached")
        spawned = monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT,
                                  stdout=subprocess.DEVNULL,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise PassFailed(f"{mode} pass timed out") from exc
        if proc.returncode != 0 or not result_path.is_file():
            raise PassFailed(f"{mode} pass exited {proc.returncode}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["setup_s"] = result["ready"] - spawned
        result["dir"] = pass_dir
        return result


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """Commit of a git working tree; None in an exported checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return (ref_file.read_text(encoding="utf-8").strip()
            if ref_file.is_file() else None)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="minimal sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "uniconsist" / "__init__.py").is_file():
        print(f"perfbench: no uniconsist sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 64:
        print("perfbench: --seed must fit in 64 bits", file=sys.stderr)
        return 2

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / label
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, args.tiny, work)
    started = time.monotonic()

    passes, probes, lost = [], [], []
    traced = None
    try:
        passes.append(runner.spawn("checks"))
        if args.trace:
            traced = runner.spawn("trace")
        else:
            while sum(p["wall_s"] for p in passes) < args.seconds:
                passes.append(runner.spawn("pass"))
            while len(passes) + len(probes) < SETUP_SAMPLES:
                probes.append(runner.spawn("setup")["setup_s"])
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        lost.append(str(exc))
    if not passes or (args.trace and traced is None):
        print("perfbench: no complete pass; no result", file=sys.stderr)
        return 1
    setups = [p["setup_s"] for p in passes] + probes

    ops = [op for p in passes + ([traced] if traced else []) for op in p["ops"]]
    attempted = len(ops) + len(lost)
    failed = sum(1 for _, ok in ops if not ok) + len(lost)
    walls = [p["wall_s"] for p in passes]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["wall_s"] - passes[0]["wall_s"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        spans = traced["dir"] / "spans.jsonl"
        if spans.is_file():
            shutil.move(str(spans), str(WORK / f"{label}.spans.jsonl"))
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
            "ok_frac": (attempted - failed) / attempted,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not "
              "match BENCHMARK.json", file=sys.stderr)
        return 1

    prov = {
        **passes[0]["provenance"],
        "workload": args.workload, "seed": args.seed,
        "nproc": nproc(), "cpu_model": cpu_model(),
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "fresh_interpreter_per_pass": True,
        "passes": len(passes) + (1 if traced else 0),
        "setup_samples": len(setups),
        "run_s": time.monotonic() - started,
    }
    record = {"provenance": prov, "metrics": metrics, "units": units,
              "wall_s_per_pass": walls, "setup_s_samples": setups,
              "failed_operations": [name for name, ok in ops if not ok] + lost,
              "untraced_targets": traced["untraced_targets"] if traced else []}
    (WORK / f"{label}.json").write_text(json.dumps(record, indent=2) + "\n",
                                        encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)

    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    print(f"passes: wall_s {['%.4f' % w for w in walls]}, "
          f"setup_s {['%.4f' % s for s in setups]}")
    print(f"fail_frac {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations failed)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
