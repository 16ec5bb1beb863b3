"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

They run every workload at ``--tiny`` sizes, so they check the harness,
not the program's speed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT,
          script: Path = HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    proc = bench(workload, trace=0)
    out = result(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())
    assert "fail_frac 0 ratio" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly(workload):
    runs = [result(bench(workload, trace=1))["metrics"] for _ in range(2)]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for metrics in runs:
        assert {k: v["unit"] for k, v in metrics.items()} == want
    counts = [name for name, unit in want.items()
              if unit in ("count", "B") or name == "signals.evals_per_point"]
    assert [runs[0][n]["value"] for n in counts] == \
        [runs[1][n]["value"] for n in counts]
    # Each workload reaches the engine at least once.
    engine_calls = sum(runs[0][f"mclab.{f}.calls"]["value"]
                       for f in ("quad", "kernel", "fixed", "chi2", "cvm"))
    assert engine_calls > 0


def test_injected_check_failure_raises_fail_frac(tmp_path, monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import workloads
        from tracing import NullTracer
        from uniconsist import quad
    finally:
        sys.path.remove(str(HERE))
        sys.path.remove(str(ROOT / "src"))

    def fail_frac(work_dir):
        session = workloads.Session(7, 1, work_dir, NullTracer())
        session.out_dir.mkdir(parents=True)
        workload = workloads.NullTables(tiny=True)
        workload.setup(session)
        workload.timed(session)
        workloads.run_checks(workload, session)
        return sum(not ok for _, ok in session.ops) / len(session.ops)

    monkeypatch.setenv("UNICONSIST_SEED", "7")
    assert fail_frac(tmp_path / "clean") == 0.0
    statistic = quad.fixed_kappa_statistic
    monkeypatch.setattr(quad, "fixed_kappa_statistic",
                        lambda z, fk: statistic(z, fk) + 1.0)
    assert fail_frac(tmp_path / "injected") > 0.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOAD_NAMES[0], trace=0, cwd=tmp_path,
                 script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
