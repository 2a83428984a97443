"""Benchmark worker: runs one workload in this process, one task at a time.

Started by ``run.py``; not meant to be called by hand.  It imports the
program from ``src/``, builds the workload's inputs, runs one untimed
warm-up task and prints ``READY <generation seconds>``, then
``SPEED <probe time / SpeedProbe.REFERENCE_S>``.  A ``--probe`` process stops
there (it only measures set-up).  Otherwise it runs whole
passes of tasks in a closed loop with one client until ``--seconds`` have
been measured and at least ``MIN_TASKS`` tasks ran, then prints one JSON
object with its figures.

With ``--trace 1`` it runs a fixed number of passes instead (see
``trace_passes``), each twice, once plain and once with spans recorded around
every call into a program layer, in alternating order.  The plain passes give
the tracing overhead; the traced ones the per-layer figures.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
MIN_TASKS = 100
MAX_FAILURES_LOGGED = 20
CLI_SUBCOMMANDS = ("reproduce", "analyze", "stepsize", "estimate", "samplebound")


class Tracer:
    """Spans (name, start, end, parent, task) kept in memory, plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.task = -1

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.task])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def self_times(self) -> tuple[Counter, Counter]:
        """Per span name: summed self time (seconds) and call count."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        busy, calls = Counter(), Counter()
        for (name, t0, t1, _, _), c in zip(self.spans, child):
            busy[name] += t1 - t0 - c
            calls[name] += 1
        return busy, calls


def _count_traj(counts: Counter, traj) -> None:
    steps = int(traj.ks[-1])
    counts["simulate.state_updates"] += steps * traj.xi_series.shape[1]
    counts["simulate.rows_kept"] += len(traj)
    counts["simulate.rows_computed"] += steps + 1
    counts["simulate.stop." + traj.stop_reason] += 1


def _count_tree(counts: Counter, found: bool) -> None:
    counts["netcore.errors"] += not found


def _count_hb(counts: Counter, diag) -> None:
    counts["stepsize.hb.checks"] += 1
    counts["stepsize.hb.disagree"] += diag.hb_verdict != diag.direct_verdict


def _layer_wraps():
    """(owner, attribute, span name or None for count-only, result hook).

    A callable span name is applied to the call's positional arguments.
    """
    from opiniondyn import cli, estimate, netcore, simulate, spectral, stepsize

    return [
        (cli, "main", lambda argv: f"cli.{argv[0]}", None),
        (netcore.SystemSpec, "from_json_dict", "netcore.load", None),
        (netcore, "has_spanning_tree", "netcore.tree", _count_tree),
        # stepsize holds its own binding of the tree predicate.
        (stepsize, "has_spanning_tree", "netcore.tree", _count_tree),
        (spectral, "classify_system", "spectral.classify", None),
        (spectral, "predict_limit", "spectral.predict", None),
        (spectral, "classify_multi_issue", "spectral.multi", None),
        (simulate, "run", "simulate.run", _count_traj),
        (simulate, "run_multi_issue", "simulate.run_multi", _count_traj),
        (stepsize, "feasible_rho_direct", "stepsize.direct", None),
        (stepsize, "feasible_rho_cubic", "stepsize.cubic", None),
        (stepsize, "hb_step_check", "stepsize.hb", _count_hb),
        (stepsize, "epsilon_range", "stepsize.bound", None),
        (stepsize, "feasible_rho_bound", "stepsize.bound", None),
        (stepsize, "magnitude_samples", None,
         lambda c, out: c.update({"stepsize.grid_points": len(out[0])})),
        (estimate, "draw_scenarios", "estimate.draw",
         lambda c, out: c.update({"estimate.samples_drawn": out.m})),
        (estimate, "solve_estimation", "estimate.solve", None),
        (estimate, "empirical_violation", "estimate.violation", None),
    ]


class Patches:
    """Installs and removes the span-recording wrappers on the program's modules."""

    def __init__(self, tracer: Tracer):
        from opiniondyn.errors import ValidationError

        self.saved = []
        self.wrapped = []
        for owner, attr, name, hook in _layer_wraps():
            raw = owner.__dict__[attr]
            is_cm = isinstance(raw, classmethod)
            fn = raw.__func__ if is_cm else raw

            def traced(*a, _fn=fn, _name=name, _hook=hook, **k):
                if callable(_name):
                    idx = tracer.begin(_name(*a))
                else:
                    idx = tracer.begin(_name) if _name else -1
                try:
                    out = _fn(*a, **k)
                except ValidationError:
                    if isinstance(_name, str) and _name.startswith("netcore."):
                        tracer.counts["netcore.errors"] += 1
                    raise
                finally:
                    if idx >= 0:
                        tracer.end(idx)
                if _hook:
                    _hook(tracer.counts, out)
                return out

            functools.update_wrapper(traced, fn)
            self.saved.append((owner, attr, raw))
            self.wrapped.append((owner, attr, classmethod(traced) if is_cm else traced))

    def install(self) -> None:
        for owner, attr, obj in self.wrapped:
            setattr(owner, attr, obj)

    def remove(self) -> None:
        for owner, attr, obj in self.saved:
            setattr(owner, attr, obj)


class SpeedProbe:
    """Times a fixed job that never touches the program: the machine's current speed.

    This machine's speed swings by 20-30 % over seconds (other tenants share
    its cores and its cache), far beyond any bound a timing could keep.
    Probing right before and right after every task tells how fast the
    machine ran around it; task times are then scaled to a machine on which
    the probe takes ``REFERENCE_S``.  The job mixes the kinds of work the
    tasks do: numpy scalars and small arrays in the interpreter, a pass over
    4 MB (about as long on a busy machine), which tracks the shared cache's
    bandwidth that the large least-squares solves depend on, and a small
    LAPACK call.

    The job runs ``SETTLE`` times untimed before the timed run.  Right after
    a task the job reads slow, and the longer the task the slower (after a
    0.5 s task the first three runs took 1.37, 1.19 and 0.97 ms, then 0.87;
    after a 5 ms task 0.93, then 0.85), whatever the task touched.  Without
    the settling runs a task that got faster would be scaled by a faster
    probe, which would hide part of its gain.
    """

    REFERENCE_S = 0.0005
    SETTLE = 3

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.matrix = rng.random((24, 24)) / 24.0
        self.square = rng.random((16, 16))
        self.block = rng.random(500_000)

    def job(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        np.linalg.eigvals(self.square)
        x = np.ones(24)
        for _ in range(40):
            x = self.matrix @ x
            for v in x[:8]:
                abs(v) > 1e12 or not np.isfinite(v)
        self.block.sum()
        return time.perf_counter() - t0

    def __call__(self) -> float:
        for _ in range(self.SETTLE):
            self.job()
        return self.job()


class Loop:
    """Runs tasks, times them and applies each task's correctness check."""

    def __init__(self, workload, probe: SpeedProbe, tracer: Tracer | None = None):
        self.workload = workload
        self.probe = probe
        self.tracer = tracer
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.probes: list[float] = []
        self.classes: dict[str, list[tuple[float, float]]] = {}
        self.failures: list[str] = []
        self.failed = 0
        self.checks = 0
        self.stats: dict = {}
        self.first: dict[int, object] = {}

    def run_task(self, i: int, task, traced: bool) -> float:
        tr = self.tracer if traced else None
        t0 = time.perf_counter()
        if tr:
            tr.task += 1
            root = tr.begin("bench.task")
        reason = None
        try:
            out = task.run()
        except Exception as exc:  # an unexpected raise is a failed task, not a crash
            reason = f"raised {type(exc).__name__}: {exc}"
        if reason is None:
            idx = tr.begin("bench.check") if tr else -1
            # In a traced run only the traced passes feed the per-layer stats.
            stats = self.stats if traced or self.tracer is None else {}
            reason, fp = task.check(out, stats)
            self.checks += 1
            if reason is None and self.workload.repeat:
                if i not in self.first:
                    self.first[i] = fp
                elif fp != self.first[i]:
                    reason = "output differs from the first pass"
            if tr:
                tr.end(idx)
        if tr:
            tr.end(root)
        dt = time.perf_counter() - t0
        if reason is not None:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_LOGGED:
                self.failures.append(f"{task.cls}: {reason}")
        return dt

    def run_pass(self, k: int, traced: bool = False) -> tuple[float, float]:
        """Run pass ``k``; return its measured and its speed-scaled task seconds."""
        tasks = self.workload.tasks(k)
        elapsed = scaled = 0.0
        before = self.probe()
        for i, task in enumerate(tasks):
            dt = self.run_task(i, task, traced)
            after = self.probe()
            st = dt * 2.0 * SpeedProbe.REFERENCE_S / (before + after)
            elapsed += dt
            scaled += st
            self.latencies.append(dt)
            self.scaled.append(st)
            self.probes.append(before)
            self.classes.setdefault(task.cls, []).append((st, after))
            before = after
        return elapsed, scaled


def trace_passes(seconds: float, pass_seconds: float) -> int:
    """Passes of a traced run: an even number (at least 2) lasting about ``seconds``.

    Fixed by the arguments alone, never by how fast the passes turn out to
    run, so that the traced run's counts are exact for a seed and its busy
    times are totals over the same work.  Each pass runs twice (plain and
    traced), and an even count lets either copy run first equally often.
    """
    return max(2, 2 * round(seconds / (4.0 * pass_seconds)))


def _end_to_end(lat: list[float], attempted: int, failed: int) -> dict:
    return {
        "task_p50_ms": statistics.median(lat) * 1e3,
        "task_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "tasks_per_s": len(lat) / sum(lat),
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _per_layer(tracer: Tracer, stats: dict, plain_s: float, traced_s: float) -> dict:
    busy, calls = tracer.self_times()
    c = tracer.counts
    m = {}
    for name in (
        "simulate.run", "simulate.run_multi",
        "estimate.draw", "estimate.solve", "estimate.violation",
        "netcore.load", "netcore.tree",
        "spectral.classify", "spectral.predict", "spectral.multi",
        "stepsize.direct", "stepsize.cubic", "stepsize.hb", "stepsize.bound",
        *(f"cli.{sub}" for sub in CLI_SUBCOMMANDS),
        "bench.check", "bench.task",
    ):
        m[name + ".busy_ms"] = busy[name] * 1e3
    for name in ("estimate.solve", "netcore.tree", "spectral.classify",
                 *(f"cli.{sub}" for sub in CLI_SUBCOMMANDS)):
        m[name + ".calls"] = calls[name]
    sim_ns = (busy["simulate.run"] + busy["simulate.run_multi"]) * 1e9
    m.update({
        "simulate.state_updates": c["simulate.state_updates"],
        "simulate.ns_per_update": _ratio(sim_ns, c["simulate.state_updates"]),
        "simulate.kept_row_ratio": _ratio(c["simulate.rows_kept"], c["simulate.rows_computed"]),
        "simulate.stop.converged": c["simulate.stop.converged"],
        "simulate.stop.max_steps": c["simulate.stop.max_steps"],
        "simulate.stop.diverged": c["simulate.stop.diverged"],
        "simulate.limit_err_max": stats.get("simulate.limit_err_max", 0.0),
        "estimate.samples_drawn": c["estimate.samples_drawn"],
        "estimate.gauge_err_max": stats.get("estimate.gauge_err_max", 0.0),
        "netcore.errors": c["netcore.errors"],
        "stepsize.grid_points": c["stepsize.grid_points"],
        "stepsize.hb.disagree_ratio": _ratio(c["stepsize.hb.disagree"], c["stepsize.hb.checks"]),
        "cli.artifact_bytes": stats.get("cli.artifact_bytes", 0.0),
        "bench.traced_tasks": calls["bench.task"],
        "bench.unattributed_pct": 100.0 * _ratio(busy["bench.task"], sum(
            t1 - t0 for name, t0, t1, _, _ in tracer.spans if name == "bench.task")),
        "bench.trace_overhead_pct": 100.0 * (traced_s / plain_s - 1.0),
    })
    return m


def _environment() -> dict:
    import numpy as np
    from opiniondyn import _kernels

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "opiniondyn_backend": _kernels.BACKEND,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--probe", action="store_true")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()

    root = Path.cwd()
    sys.path[:0] = [str(root / "src"), str(BENCH_DIR)]
    import opiniondyn  # part of the measured set-up
    import workloads

    if not Path(opiniondyn.__file__).is_relative_to(root / "src"):
        print(f"opiniondyn was imported from {opiniondyn.__file__}, not src/", file=sys.stderr)
        return 2

    workdir = Path(args.workdir)
    g0 = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, args.smoke)
    warm = wl.warmup()
    gen_s = time.perf_counter() - g0
    try:
        warm_reason = warm.check(warm.run(), {})[0]
    except Exception as exc:  # reported as a failed task like any other
        warm_reason = f"raised {type(exc).__name__}: {exc}"
    print(f"READY {gen_s!r}", flush=True)
    # Probed after READY, so the probe's own first numpy calls stay out of set-up.
    probe = SpeedProbe()
    speed = statistics.median(probe() for _ in range(7)) / SpeedProbe.REFERENCE_S
    print(f"SPEED {speed!r}", flush=True)
    if args.probe:
        return 0
    if warm_reason is not None:
        print(f"warm-up task {warm.cls} failed: {warm_reason}", file=sys.stderr)

    result = {"env": _environment(), "warmup_failure": warm_reason}
    k = 0
    if args.trace:
        tracer = Tracer()
        loop = Loop(wl, probe, tracer)
        patches = Patches(tracer)
        plain = traced = (0.0, 0.0)
        # One unrecorded run of pass 0 first.  The first run of a pass pays
        # one-time costs that would otherwise fall on whichever copy of pass
        # 0 runs first (on regions that copy ran 12-15 % slower).
        for task in wl.tasks(0):
            task.check(task.run(), {})
        passes = trace_passes(args.seconds, wl.pass_seconds)
        for k in range(passes):
            # Alternate which copy of pass k runs first, so that running
            # second (warmer caches, same inputs) favours neither side.
            for tracing in (False, True) if k % 2 == 0 else (True, False):
                if tracing:
                    patches.install()
                    traced = tuple(map(sum, zip(traced, loop.run_pass(k, traced=True))))
                    patches.remove()
                else:
                    plain = tuple(map(sum, zip(plain, loop.run_pass(k))))
        k = passes
        result["metrics"] = _per_layer(tracer, loop.stats, plain[1], traced[1])
        spans_path = workdir / "spans.jsonl"
        with spans_path.open("w") as f:
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")
        result["spans_file"] = spans_path.name
    else:
        loop = Loop(wl, probe)
        elapsed = 0.0
        while elapsed < args.seconds or len(loop.latencies) < MIN_TASKS:
            elapsed += loop.run_pass(k)[0]
            k += 1
    attempted = len(loop.latencies) + 1
    failed = loop.failed + (warm_reason is not None)
    if not args.trace:
        result["metrics"] = _end_to_end(loop.scaled, attempted, failed)
        result["unscaled_metrics"] = _end_to_end(loop.latencies, attempted, failed)
    result.update({
        "passes": k,
        "attempted": attempted,
        "failed": failed,
        "checks": loop.checks,
        "samples": len(loop.latencies),
        "failures": loop.failures,
        "speed_probe_ms": {"median": statistics.median(loop.probes) * 1e3,
                           "min": min(loop.probes) * 1e3, "max": max(loop.probes) * 1e3},
        # probe_after_ms: the speed probe that ran right after this class's
        # tasks, to show whether a task leaves the probe reading slower.
        "classes": {c: {"tasks": len(v), "mean_ms": 1e3 * sum(st for st, _ in v) / len(v),
                        "probe_after_ms": 1e3 * statistics.median(p for _, p in v)}
                    for c, v in sorted(loop.classes.items())},
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
