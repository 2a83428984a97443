"""The four benchmark workloads: their tasks and the correctness oracle of each.

A task is one user-level analysis request.  ``run`` makes every call into
the program and returns what the checks need; ``check`` compares that
output with an independent route and returns ``(failure_reason, fingerprint)``.
A workload hands out its tasks one pass at a time, and a run measures whole
passes; workloads whose passes repeat the same inputs also require each
fingerprint to equal the first pass's.  ``pass_seconds`` is the wall time of
one pass measured on a 2-core Xeon VM; it only sets how many passes a traced
run makes (see ``harness.trace_passes``).

Program functions are looked up through their modules at call time
(``simulate.run``, never a bound name), so the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from opiniondyn import cli, estimate, fixtures, netcore, simulate, spectral, stepsize
from opiniondyn.errors import ValidationError

import gen

# PASS SIZES.  Every run measures whole passes, and a pass holds 13, 15 or 25
# tasks.  With an odd count the median sits in the middle of one task's (or
# one cost band's) block of samples, and with 15 or 25 the 90th percentile
# does too, so neither quantile straddles two tasks of very different cost.

# The CLI's own threshold for "at the limit" (opiniondyn.cli.STABILITY_EPS).
LIMIT_TOL = 1e-6
GAMMA_PIN = 1e-16
GAUGE_TOL = 1e-8
ENDPOINT_TOL = 1e-8
BETA = 0.01
VIOLATION_TRIALS = 2
REGION_RHO_MAX = 2.0
BOUND_EPS = 0.1


@dataclass
class Task:
    cls: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], tuple[str | None, Any]]


def note_max(stats: dict, key: str, value: float) -> None:
    stats[key] = max(stats.get(key, 0.0), float(value))


def note_add(stats: dict, key: str, value: float) -> None:
    stats[key] = stats.get(key, 0.0) + value


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


# ---------------------------------------------------------------------------
# paper: every reproduce target and the other subcommands, through cli.main
# ---------------------------------------------------------------------------

REPRODUCE_VERDICTS = {
    "fig2a": "consensus-outside-hull",
    "fig2b": "consensus-inside-hull",
    "fig5": "consensus",
    "fig6": "clusters",
    "fig7a": "stability",
    "fig7b": "stability",
    "example-estimation": "zero-residual",
}


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class Paper:
    """The bundled fixtures (n = 3-4) through ``opiniondyn.cli.main`` in process."""

    repeat = True
    pass_seconds = 0.14

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.workdir = workdir
        self.cli_seed = str(int(_rng(seed).integers(1, 2**31)))
        inputs = workdir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        cat = fixtures.catalog()
        self.coop = inputs / "sec5-coop.json"
        cat["sec5-coop"].system.save_json(self.coop)
        self.lap = inputs / "example1-laplacian.csv"
        netcore.save_matrix_csv(self.lap, fixtures.EXAMPLE1_LAPLACIAN)
        self.x0 = ",".join(repr(float(v)) for v in fixtures.X0_ISSUE_FREE)
        self._pass = None

    def _task(self, label: str, argv: list[str], verdict: str | None) -> Task:
        out_dir = self.workdir / "out" / label
        argv = [a.replace("{out}", str(out_dir)) for a in argv]

        def run():
            return _cli(argv)

        def check(result, stats):
            code, stdout = result
            if code != 0:
                return f"exit code {code}", None
            # Read and remove, so a later pass that writes nothing is caught.
            files = {}
            for f in sorted(out_dir.iterdir()):
                files[f.name] = f.read_bytes()
                f.unlink()
            note_add(stats, "cli.artifact_bytes", sum(len(b) for b in files.values()))
            if verdict is not None:
                line = stdout.splitlines()[0] if stdout else ""
                if line != f"{label}: {verdict}":
                    return f"verdict line {line!r}, expected {verdict!r}", None
            if argv[0] == "samplebound":
                files["stdout"] = stdout.encode()
            if not files:
                return "no artifact written", None
            return None, files

        return Task(f"cli/{label}", run, check)

    def tasks(self, k: int) -> list[Task]:
        if self._pass is None:
            s = self.cli_seed
            plan = [
                (name, ["reproduce", name, "--out-dir", "{out}", "--seed", s], verdict)
                for name, verdict in REPRODUCE_VERDICTS.items()
            ]
            plan += [
                ("analyze", ["analyze", "--system", str(self.coop), "--x0", self.x0,
                             "--out", "{out}/analysis.json"], None),
                ("stepsize-direct", ["stepsize", "--laplacian", str(self.lap),
                                     "--method", "direct", "--out-dir", "{out}"], None),
                ("stepsize-cubic", ["stepsize", "--laplacian", str(self.lap),
                                    "--method", "cubic", "--out-dir", "{out}"], None),
                ("stepsize-hb", ["stepsize", "--laplacian", str(self.lap), "--method", "hb",
                                 "--rho", "0.1", "--out-dir", "{out}"], None),
                ("estimate", ["estimate", "--system", str(self.coop), "--samples", "8",
                              "--seed", s, "--out", "{out}/estimate.json"], None),
                ("samplebound", ["samplebound", "--agents", "4", "--eps", "0.1",
                                 "--beta", str(BETA)], None),
            ]
            for label, argv, _ in plan:
                (self.workdir / "out" / label).mkdir(parents=True, exist_ok=True)
            self._pass = [self._task(*p) for p in plan]
        return self._pass

    def warmup(self) -> Task:
        return self.tasks(0)[0]


# ---------------------------------------------------------------------------
# dynamics: SystemSpec -> classify_system -> predict_limit -> run
# ---------------------------------------------------------------------------


def _dynamics_plan(smoke: bool) -> list[tuple]:
    """(kind, n, rho_rest target, stride, issues) for one pass of 25 tasks."""
    sizes = (6, 10) if smoke else (20, 60, 120)
    rhos = (0.8, 0.9) if smoke else (0.8, 0.9, 0.95, 0.98, 0.99)
    plan = []
    for n in sizes:
        for i, r in enumerate(rhos):
            plan.append(("convergence" if i % 2 else "consensus", n, r, 1, 1))
    # Striped output: the same iterations, a tenth of the rows kept.
    plan += [("consensus", sizes[1], rhos[-1], 10, 1), ("convergence", sizes[-1], rhos[-2], 10, 1)]
    plan += [("divergent", n, 4.0, 1, 1) for n in sizes]
    a, b = sizes[:2]
    plan += [("convergent", a, 0.9, 1, 2), ("stable", b, 0.9, 1, 2), ("stable", a, 0.9, 1, 3),
             ("convergent", b, 0.9, 1, 3), ("stable", b, 0.9, 1, 4)]
    return plan


def _dynamics_system(rng, kind: str, n: int, target: float, issues: int):
    """Draw (system document, initial opinions) whose rho_rest equals ``target``."""
    for _ in range(100):
        # Dense graphs keep the nonzero spectrum tight enough for rho_rest 0.8.
        L = gen.laplacian(gen.strong_weights(rng, n, degree=max(6, n // 4)))
        D = gen.appraisal(rng, n, row_scale=(kind == "convergence"))
        lam0 = rng.uniform(0.75, 1.25, n)
        mu = np.linalg.eigvals((lam0[:, None] * L) @ D)
        if kind == "divergent":
            # |1 - g mu| >= g |mu| - 1 = target + 1 for the largest mu.
            g = (target + 2.0) / np.abs(mu).max()
            break
        g = gen.gain_for_rho(mu, target)
        if g is not None:
            break
    else:
        raise RuntimeError(f"no gain gives rho_rest={target} at n={n}")
    doc = netcore.SystemSpec(g * lam0, L, D).to_json_dict()
    if issues > 1:
        C = gen.coupling(rng, issues, damp=0.9 if kind == "stable" else 1.0)
        doc["mids"] = C.tolist()
        doc["n_issues"] = issues
    return doc, rng.uniform(0.0, 1.0, n * issues)


def _dynamics_task(rng, kind: str, n: int, target: float, stride: int, issues: int) -> Task:
    doc, x0 = _dynamics_system(rng, kind, n, target, issues)
    multi = issues > 1

    def run():
        spec = netcore.SystemSpec.from_json_dict(doc)
        if multi:
            verdict = spectral.classify_multi_issue(spec)
            return verdict, None, simulate.run_multi_issue(spec, x0, stride=stride)
        report = spectral.classify_system(spec)
        pred = None
        if report.classification in (spectral.CONSENSUS, spectral.CONVERGENCE):
            pred = spectral.predict_limit(spec, x0, report=report)
        return report.classification, pred, simulate.run(spec, x0, stride=stride)

    def check(out, stats):
        verdict, pred, traj = out
        steps = int(traj.ks[-1])
        expect_rows = len(range(0, steps + 1, stride)) + (steps % stride != 0)
        if len(traj) != expect_rows or int(traj.ks[0]) != 0:
            return f"stride {stride}: {len(traj)} rows for {steps} steps", None
        if kind == "divergent":
            if verdict != spectral.DIVERGENT or traj.stop_reason != simulate.DIVERGED:
                return f"divergent system: verdict {verdict}, stop {traj.stop_reason}", None
            return None, None
        if verdict != kind:
            return f"classified {verdict!r}, generated {kind!r}", None
        if traj.stop_reason != simulate.CONVERGED:
            return f"{kind} run stopped {traj.stop_reason} after {steps} steps", None
        if kind == "stable" and np.abs(traj.final).max() >= LIMIT_TOL:
            return f"stable run ends at {np.abs(traj.final).max():.3e}", None
        if pred is not None:
            err = float(np.abs(traj.final - pred.phi).max())
            note_max(stats, "simulate.limit_err_max", err)
            if err > LIMIT_TOL:
                return f"converged {err:.3e} from predict_limit (tol {LIMIT_TOL})", None
        return None, None

    label = f"{kind}/n{n}/i{issues}/s{stride}" + ("" if kind == "divergent" else f"/r{target}")
    return Task(label, run, check)


class Dynamics:
    """Generated systems whose trajectories dominate the task time."""

    # Fresh systems every pass: a run's step counts then average over many
    # initial states instead of depending on the few drawn for one seed.
    repeat = False
    pass_seconds = 1.8

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.seed = seed
        self.plan = _dynamics_plan(smoke)

    def tasks(self, k: int) -> list[Task]:
        return [_dynamics_task(_rng(self.seed, 1, k, i), *p) for i, p in enumerate(self.plan)]

    def warmup(self) -> Task:
        return _dynamics_task(_rng(self.seed, 1, 10_000), "consensus", 6, 0.8, 1, 1)


# ---------------------------------------------------------------------------
# identify: draw_scenarios -> solve_estimation -> empirical_violation
# ---------------------------------------------------------------------------


def _gauge_distance(d_hat: np.ndarray, d_ref: np.ndarray) -> float:
    # Distance modulo the constant-row gauge: per column, half the range of
    # the difference is the smallest sup-norm any shift can leave.
    delta = d_ref - d_hat
    return float(((delta.max(axis=0) - delta.min(axis=0)) / 2.0).max())


def _identify_task(seed: int, index: int, n: int, eps: float, m: int) -> Task:
    rng = _rng(seed, 2, index)
    truth = netcore.SystemSpec(
        rng.uniform(0.5, 1.5, n),
        gen.laplacian(gen.strong_weights(rng, n, degree=2)),
        gen.appraisal(rng, n),
    )
    draw_seed, trial_seed = (int(s) for s in rng.integers(0, 2**62, 2))

    def run():
        scen = estimate.draw_scenarios(truth, m, draw_seed)
        result = estimate.solve_estimation(scen, truth.lam, truth.laplacian)
        rate = estimate.empirical_violation(result, truth, VIOLATION_TRIALS, trial_seed)
        return result, rate

    def check(out, stats):
        result, rate = out
        gauge = _gauge_distance(result.d_hat, truth.appraisal)
        note_max(stats, "estimate.gauge_err_max", gauge)
        if result.m_used != m:
            return f"m_used {result.m_used}, asked {m}", None
        if not result.gamma_star < GAMMA_PIN:
            return f"gamma_star {result.gamma_star:.3e} >= {GAMMA_PIN}", None
        if not gauge < GAUGE_TOL:
            return f"gauge distance {gauge:.3e} >= {GAUGE_TOL}", None
        if result.rank != n * n - n:
            return f"rank {result.rank}, expected {n * n - n}", None
        return None, rate

    return Task(f"n{n}/eps{eps}/m{m}", run, check)


class Identify:
    """Scenario estimation at the sample sizes the paper's bound asks for."""

    repeat = True
    pass_seconds = 1.9

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.seed, self.smoke = seed, smoke
        self._pass = None

    @staticmethod
    def _m(n: int, eps: float) -> int:
        return estimate.sample_bound(estimate.SampleBoundQuery(d=n * n, epsilon=eps, beta=BETA))

    def tasks(self, k: int) -> list[Task]:
        if self._pass is None:
            if self.smoke:
                plan = [(4, 0.2), (5, 0.2)]
            else:  # 15 tasks: every n at eps 0.1, six of them again at 0.2
                plan = [(n, 0.1) for n in range(4, 13)]
                plan += [(n, 0.2) for n in (4, 5, 6, 8, 10, 12)]
            self._pass = [
                _identify_task(self.seed, i, n, e, self._m(n, e)) for i, (n, e) in enumerate(plan)
            ]
        return self._pass

    def warmup(self) -> Task:
        return _identify_task(self.seed, 10_000, 4, 0.2, self._m(4, 0.2))


# ---------------------------------------------------------------------------
# regions: validation, tree search, spectra and every step-size route
# ---------------------------------------------------------------------------


def _regions_plan(smoke: bool) -> list[tuple]:
    """(graph kind, n, count) for one pass: 25 tasks in cost bands (see PASS SIZES)."""
    if smoke:
        return [("strong", 8, 2), ("leader", 8, 2), ("treeless", 8, 1), ("strong", 12, 1), ("leader", 12, 1)]
    # Cost bands, cheapest first: strong/30 < treeless/30 and the low half of
    # leader/30 < strong/60 (the median) < leader/60 < strong/150 <
    # leader/150 and strong/300 (the p90) < leader/300.
    return [
        ("strong", 30, 6), ("treeless", 30, 1), ("leader", 30, 4),
        ("strong", 60, 7), ("leader", 60, 2),
        ("strong", 150, 1), ("leader", 150, 2),
        ("strong", 300, 1), ("leader", 300, 1),
    ]


def _regions_task(rng, kind: str, n: int, leader: int) -> Task:
    W = gen.strong_weights(rng, n)
    if kind == "leader":
        W = gen.silence(W, [leader])
    elif kind == "treeless":
        W = gen.silence(W, rng.choice(n, 2, replace=False))
    doc = netcore.SystemSpec(
        rng.uniform(0.2, 0.6, n), gen.laplacian(W), gen.appraisal(rng, n)
    ).to_json_dict()

    def run():
        spec = netcore.SystemSpec.from_json_dict(doc)
        L = spec.laplacian
        out = {"tree": netcore.has_spanning_tree(L), "verdict": spectral.classify_system(spec).classification}
        calls = [
            ("direct", lambda: stepsize.feasible_rho_direct(L, rho_max=REGION_RHO_MAX)),
            ("cubic", lambda: stepsize.feasible_rho_cubic(L, rho_max=REGION_RHO_MAX)),
            ("hb", lambda: stepsize.hb_step_check(L, hb_rho())),
            ("eps_range", lambda: stepsize.epsilon_range(L)),
        ]

        def hb_rho():
            cubic = out.get("cubic")
            return 0.5 * cubic.intervals[0][1] if cubic is not None and cubic.intervals else 0.1

        for name, call in calls:
            try:
                out[name] = call()
            except ValidationError as exc:
                out[name + "_error"] = exc
        eps_range = out.get("eps_range")
        if eps_range is not None and eps_range.contains(BOUND_EPS):
            out["bound"] = stepsize.feasible_rho_bound(L, BOUND_EPS)
        return out

    def check(out, stats):
        want_tree = kind != "treeless"
        if out["tree"] != want_tree:
            return f"has_spanning_tree {out['tree']} on a {kind} graph", None
        if not want_tree:
            missing = [k for k in ("direct", "cubic", "hb", "eps_range") if k + "_error" not in out]
            return (f"no ValidationError from {missing} without a tree" if missing else None), None
        errors = [k for k in out if k.endswith("_error")]
        if errors:
            return f"ValidationError from {errors} on a {kind} graph: {out[errors[0]]}", None
        direct, cubic = out["direct"].intervals, out["cubic"].intervals
        if len(direct) != len(cubic):
            return f"direct has {len(direct)} intervals, cubic {len(cubic)}", None
        gap = max((abs(a - b) for p, q in zip(direct, cubic) for a, b in zip(p, q)), default=0.0)
        if gap > ENDPOINT_TOL:
            return f"direct and cubic endpoints differ by {gap:.3e}", None
        return None, None

    return Task(f"{kind}/n{n}", run, check)


class Regions:
    """Laplacians at n = 30-300: strongly connected, leader-follower and tree-less."""

    # The tree search's cost grows with the leader's index, so the j-th of a
    # class's ``count`` leaders in a pass sits at index (2j + 1) n / (2 count),
    # the middle of the j-th of ``count`` equal stretches: every pass then
    # costs the same.  The graph is drawn from a distribution that relabelling
    # leaves unchanged, so the leader is still a random agent of it.
    repeat = False
    pass_seconds = 3.8

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.seed = seed
        self.plan = _regions_plan(smoke)

    def tasks(self, k: int) -> list[Task]:
        rng = _rng(self.seed, 3, k)
        return [
            _regions_task(rng, kind, n, (2 * j + 1) * n // (2 * count))
            for kind, n, count in self.plan
            for j in range(count)
        ]

    def warmup(self) -> Task:
        return _regions_task(_rng(self.seed, 3, 10_000), "leader", 8, 4)


WORKLOADS = {"paper": Paper, "dynamics": Dynamics, "identify": Identify, "regions": Regions}
