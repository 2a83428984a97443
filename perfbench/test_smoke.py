"""Tiny-size smoke run of the benchmark harness.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_smoke.py -q

For every workload, traced and untraced, it checks that each metric named in
``BENCHMARK.json`` is emitted with its unit and that the correctness checks
ran and passed, and that two traced runs of one seed give the same counts.
It asserts no timings.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per-layer figures that must be nonzero where the workload calls that layer.
CALLED = {
    "paper": ["cli.reproduce.calls", "simulate.run_multi.busy_ms", "cli.artifact_bytes"],
    "dynamics": ["simulate.run.busy_ms", "simulate.state_updates", "simulate.stop.diverged",
                 "spectral.multi.busy_ms", "simulate.kept_row_ratio"],
    "identify": ["estimate.solve.calls", "estimate.samples_drawn", "estimate.violation.busy_ms"],
    "regions": ["netcore.tree.calls", "netcore.errors", "stepsize.grid_points",
                "stepsize.bound.busy_ms"],
}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload: str, trace: int):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    result, details = json.loads(result_line), json.loads(detail_line)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, details["failures"]
    assert details["checks"] == details["samples"] > 0
    if not trace:
        assert details["samples"] >= 100
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        for name in CALLED[workload]:
            assert result["metrics"][name]["value"] > 0, name
    for key in ("python", "numpy", "blas", "blas_threads", "nproc",
                "opiniondyn_backend", "git_commit"):
        assert key in details["env"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_are_exact(workload: str):
    # Everything but the timings must repeat exactly for one seed.
    timed = {"ms", "ns", "%"}
    runs = []
    for _ in range(2):
        proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0.1",
                      "--trace", "1", "--smoke")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        runs.append({k: v["value"] for k, v in metrics.items() if v["unit"] not in timed})
    assert runs[0] == runs[1]
    assert runs[0]["bench.traced_tasks"] > 0


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
