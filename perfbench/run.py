"""Layered benchmark of opiniondyn: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {paper,dynamics,identify,regions} \
        --seed N --seconds S --trace {0,1}

The program is imported from ``src/`` (it needs no build beyond byte
compilation, done here).  BLAS is pinned to one thread in the environment of
the worker processes, never in the program.  ``--trace 0`` prints the
end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` its per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and run details, which also go to
``.perfbench_out/<workload>-seed<N>-trace<T>.json``.

Every timing is scaled to a reference machine speed (see
``harness.SpeedProbe``): this shared machine's speed swings by 20-30 % over
seconds, and a fixed probe job timed around each task factors that out.  The
unscaled figures are kept in the result file.

``setup_s`` is measured in fresh processes: the time from launch until the
first task could start (``import opiniondyn`` plus one untimed warm-up task),
minus the harness's own input generation, scaled by the speed probe of that
process.  The median of ``SETUP_SAMPLES`` processes is reported.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
SETUP_SAMPLES = 5
# Whole run, set-up probes included, must end well inside 180 s.
RUN_DEADLINE_S = 170.0
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "OPINION_LOG": "error",
}


class BenchError(Exception):
    pass


def _launch(cmd: list[str], env: dict, timeout: float) -> tuple[float, float, str]:
    """Run one worker; return (set-up seconds, machine speed factor, remaining output)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter()
        speed = proc.stdout.readline()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not first.startswith("READY ") or not speed.startswith("SPEED "):
        raise BenchError(f"worker exited with code {code} before reporting a result")
    return ready - t0 - float(first.split()[1]), float(speed.split()[1]), rest


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _metric_specs(root: Path, trace: int) -> list[dict]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run(args) -> dict:
    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "opiniondyn" / "__init__.py").is_file():
        raise BenchError("no src/opiniondyn here; run from the root of an opiniondyn checkout")
    specs = _metric_specs(root, args.trace)
    compileall.compile_dir(root / "src", quiet=1)
    compileall.compile_dir(BENCH_DIR, quiet=1)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = root / OUT_DIR
    workdir = out_dir / f"{tag}-work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = dict(os.environ, **PINNED_ENV)
    cmd = [sys.executable, str(BENCH_DIR / "harness.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        setups = []
        # Set-up is a separate end-to-end figure only in untraced runs.
        probes = 0 if args.trace else (1 if args.smoke else SETUP_SAMPLES - 1)
        for _ in range(probes):
            left = RUN_DEADLINE_S - (time.perf_counter() - started)
            setups.append(_launch(cmd + ["--probe"], env, left)[:2])
        left = RUN_DEADLINE_S - (time.perf_counter() - started)
        *setup, rest = _launch(cmd, env, left)
        setups.append(tuple(setup))
        worker = json.loads(rest.strip().splitlines()[-1])
        spans = workdir / worker.get("spans_file", "-")
        if spans.is_file():
            shutil.copyfile(spans, out_dir / f"{tag}-spans.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    scaled_setups = [t / speed for t, speed in setups]
    values = dict(worker.pop("metrics"), setup_s=statistics.median(scaled_setups))
    metrics = {}
    for spec in specs:
        if spec["name"] not in values:
            raise BenchError(f"the worker reported no value for {spec['name']}")
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
    worker["env"].update({
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_threads": PINNED_ENV["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(root),
    })
    details = dict(worker, workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, setup_samples_s=scaled_setups,
                   setup_unscaled_s=[t for t, _ in setups], metrics=metrics)
    (out_dir / f"{tag}.json").write_text(json.dumps(details, indent=1) + "\n")
    print(json.dumps({k: details[k] for k in ("workload", "seed", "env", "passes", "samples",
                                                "checks", "failures")}))
    return {
        "correct": worker["failed"] == 0 and worker["checks"] > 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }


def main() -> int:
    p = argparse.ArgumentParser(description="Layered benchmark of opiniondyn.")
    p.add_argument("--workload", required=True, choices=("paper", "dynamics", "identify", "regions"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the harness's own test")
    args = p.parse_args()
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
