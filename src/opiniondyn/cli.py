"""Command-line surface: analyze, simulate, stepsize, estimate, samplebound,
reproduce, fixtures.

Exit codes: 0 success, 2 validation failure (bad files, flags, or matrix
structure), 3 numerical failure.  The OPINION_LOG environment variable
(error, info, debug) controls verbosity; each ``main`` call reads it again.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import estimate as est
from . import fixtures as fx
from . import simulate as sim
from . import spectral, stepsize
from .errors import NumericalError, OpinionDynError, ValidationError
from .netcore import (
    SystemSpec, check_count, load_matrix_csv, parse_vector_arg, save_matrix_csv, write_csv,
)

logger = logging.getLogger(__name__)

STABILITY_EPS = 1e-6
RESIDUAL_PIN = 1e-16
DEFAULT_SEED = 20240
# The CLI spelling of each bound formula.
FORMULAS = {"campi": est.CAMPI_GARATTI, "paper": est.PAPER_LITERAL}
REPRODUCE_NAMES = ("fig2a", "fig2b", "fig5", "fig6", "fig7a", "fig7b", "example-estimation")


@dataclass
class RunReport:
    """Summary emitted by the reproduce command; scalars are recomputable from artifacts."""

    name: str
    verdict: str
    scalars: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        # Artifact names are recorded relative to the output directory so the
        # report bytes do not depend on where the run landed.
        return {
            "name": self.name,
            "verdict": self.verdict,
            "scalars": {k: float(v) for k, v in self.scalars.items()},
            "artifacts": [Path(a).name for a in self.artifacts],
        }


class _StderrHandler(logging.StreamHandler):
    """Writes each record to ``sys.stderr`` as it is when the record is emitted,
    so a redirected or replaced stderr gets the lines of the call it wraps."""

    def __init__(self) -> None:
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


_log_handler = _StderrHandler()
_log_handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))


def _configure_logging() -> None:
    """Apply OPINION_LOG to the package's logger; the host's root logger is left alone."""
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("OPINION_LOG", "error").strip().lower(), logging.ERROR
    )
    package = logging.getLogger(__package__)
    package.setLevel(level)
    package.addHandler(_log_handler)  # a no-op once the handler is attached


def _write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_trajectory_csv(path: Path, traj: sim.Trajectory) -> None:
    dim = traj.xi_series.shape[1]
    header = "k," + ",".join(f"xi_{i + 1}" for i in range(dim)) + ",spread"
    rows = zip(traj.ks.tolist(), traj.xi_series.tolist(), traj.spread_series.tolist())
    write_csv(path, ([k, *xi, spread] for k, xi, spread in rows), header)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_analyze(args) -> int:
    spec = SystemSpec.from_json(args.system)
    report = spectral.classify_system(spec, tol_eig=args.tol_eig)
    doc = report.to_json_dict()
    if args.x0 is not None:
        x0 = parse_vector_arg(args.x0)
        if report.classification in (spectral.CONSENSUS, spectral.CONVERGENCE):
            pred = spectral.predict_limit(spec, x0, tol_eig=args.tol_eig, report=report)
            doc["phi"] = [float(v) for v in pred.phi]
        else:
            logger.info(
                "no limit prediction for a %s system; omitting phi", report.classification
            )
    if args.out:
        _write_json(Path(args.out), doc)
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))
    print(f"classification: {report.classification}", file=sys.stderr)
    return 0


def _cmd_simulate(args) -> int:
    spec = SystemSpec.from_json(args.system)
    x0 = parse_vector_arg(args.x0)
    n, ni = spec.n_agents, spec.n_issues
    if spec.mids is not None and x0.size == n * ni:
        traj = sim.run_multi_issue(
            spec, x0, max_steps=args.steps, tol_conv=args.tol, window=args.window
        )
    elif x0.size == n:
        traj = sim.run(spec, x0, max_steps=args.steps, tol_conv=args.tol, window=args.window)
    else:
        raise ValidationError(
            f"--x0 has {x0.size} values; expected {n} (issue-free)"
            + (f" or {n * ni} (multi-issue)" if spec.mids is not None else "")
        )
    _write_trajectory_csv(Path(args.out), traj)
    print(
        f"stop={traj.stop_reason} steps={int(traj.ks[-1])} "
        f"final_spread={float(traj.spread_series[-1])!r}"
    )
    return 0


def _cmd_stepsize(args) -> int:
    # --eps selects the fixed-eps iteration; without it eps tracks rho.
    if args.method == "corollary1" and args.eps is None:
        raise ValidationError("--method corollary1 requires --eps")
    if args.method not in ("direct", "corollary1") and args.eps is not None:
        raise ValidationError("--eps applies to --method direct or corollary1")
    if args.method == "hb" and args.rho is None:
        raise ValidationError("--method hb requires --rho")
    if args.method != "hb" and args.rho is not None:
        raise ValidationError("--rho applies to --method hb")
    if args.out_dir is not None and args.out_json and args.out_csv:
        raise ValidationError("--out-dir is unused when both --out-json and --out-csv are given")
    L = load_matrix_csv(args.laplacian)
    out_dir = Path(args.out_dir or ".")
    out_json = Path(args.out_json) if args.out_json else out_dir / "stepsize-region.json"
    out_csv = Path(args.out_csv) if args.out_csv else out_dir / "stepsize-scan.csv"

    samples = None
    if args.method == "direct":
        region, samples = stepsize.direct_scan(
            L, eps=args.eps, grid_step=args.grid, rho_max=args.rho_max
        )
        doc = region.to_json_dict()
    elif args.method == "corollary1":
        doc = stepsize.feasible_rho_bound(L, args.eps).to_json_dict()
    elif args.method in ("cubic", "cubic-paper"):
        variant = "corrected" if args.method == "cubic" else "paper"
        region = stepsize.feasible_rho_cubic(L, variant=variant, rho_max=args.rho_max)
        doc = region.to_json_dict()
    else:  # hb; argparse's choices admit no other method
        diag = stepsize.hb_step_check(L, args.rho)
        doc = {
            "method": "theorem_hb",
            "rho": diag.rho,
            "hb_verdict": diag.hb_verdict,
            "direct_verdict": diag.direct_verdict,
            "magnitudes": diag.magnitudes.tolist(),
        }

    if samples is None:
        samples = stepsize.magnitude_samples(
            L, eps=args.eps, grid_step=args.grid, rho_max=args.rho_max
        )
    rhos, mags, *_ = samples
    save_matrix_csv(out_csv, np.column_stack([rhos, mags]), header="rho,max_magnitude")
    _write_json(out_json, doc)
    print(json.dumps(doc))
    return 0


def _cmd_estimate(args) -> int:
    if args.cap is not None and args.gamma0 is None:
        raise ValidationError("--cap applies to the growth loop, which --gamma0 enables")
    truth = SystemSpec.from_json(args.system)
    if args.gamma0 is not None:
        cap = {} if args.cap is None else {"m_cap": args.cap}
        m, result = est.grow_sample_estimate(
            truth, args.gamma0, m0=args.samples, seed=args.seed, box=args.box, **cap
        )
    else:
        scen = est.draw_scenarios(truth, args.samples, args.seed, box=args.box)
        result = est.solve_estimation(scen, truth.lam, truth.laplacian)
        m = result.m_used
    doc = result.to_json_dict()
    doc["seed"] = int(args.seed)
    _write_json(Path(args.out), doc)
    print(
        f"m={m} gamma_star={float(result.gamma_star)!r} "
        f"rank={result.rank} unique={result.unique}"
    )
    return 0


def _cmd_samplebound(args) -> int:
    d = args.dim if args.dim is not None else check_count("--agents", args.agents) ** 2
    formula = FORMULAS[args.formula]
    query = est.SampleBoundQuery(d=d, epsilon=args.eps, beta=args.beta, formula=formula)
    m = est.sample_bound(query)
    tail = (
        est.binomial_tail(m, d, args.eps)
        if formula == est.CAMPI_GARATTI
        else est.paper_tail(m, d, args.eps)
    )
    print(f"m={m} tail={tail:.6g} d={d} formula={args.formula}")
    return 0


def _cmd_fixtures(args) -> int:
    fx.validate_catalog()
    for name, f in sorted(fx.catalog().items()):
        issues = "-" if f.mids is None else f"{f.mids.shape[0]} issues"
        print(f"{name}: {f.system.n_agents} agents, {issues}; {f.description}")
    return 0


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


def _hull_verdict(limit: float, x0: np.ndarray) -> str:
    inside = x0.min() <= limit <= x0.max()
    return "consensus-inside-hull" if inside else "consensus-outside-hull"


def _reproduce_example1(name: str, out_dir: Path) -> RunReport:
    f = fx.fixture("example1")
    lam = fx.EXAMPLE1_LAM if name == "fig2a" else fx.EXAMPLE1_LAM_FLAT
    spec = SystemSpec(lam, f.system.laplacian, f.system.appraisal)
    report = spectral.classify_system(spec)
    pred = spectral.predict_limit(spec, f.x0, report=report)
    traj = sim.run(spec, f.x0, max_steps=500)
    csv_path = out_dir / f"{name}.csv"
    _write_trajectory_csv(csv_path, traj)
    analysis_path = out_dir / f"{name}-analysis.json"
    analysis = report.to_json_dict()
    analysis["phi"] = [float(v) for v in pred.phi]
    _write_json(analysis_path, analysis)
    limit = float(np.mean(traj.final))
    verdict = _hull_verdict(limit, f.x0)
    if traj.stop_reason != sim.CONVERGED or traj.spread_series[-1] >= STABILITY_EPS:
        verdict = "no-consensus"
    return RunReport(
        name=name,
        verdict=verdict,
        scalars={
            "rho_rest": report.rho_rest,
            "final_spread": traj.spread_series[-1],
            "limit": limit,
            "predicted_limit": float(np.mean(pred.phi)),
        },
        artifacts=[csv_path, analysis_path],
    )


def _reproduce_coupled(name: str, out_dir: Path) -> RunReport:
    fixture_name, damped = {
        "fig5": ("sec5-coop", False),
        "fig6": ("sec5-antag", False),
        "fig7a": ("sec5-coop", True),
        "fig7b": ("sec5-antag", True),
    }[name]
    f = fx.fixture(fixture_name)
    spec = f.with_mids(damped=damped)
    traj = sim.run_multi_issue(spec, f.x0_multi)
    csv_path = out_dir / f"{name}.csv"
    _write_trajectory_csv(csv_path, traj)
    final = traj.final.reshape(spec.n_agents, spec.n_issues)
    issue_spread = float((final.max(axis=0) - final.min(axis=0)).max())
    final_max = float(np.abs(traj.final).max())
    if damped:
        verdict = "stability" if final_max < STABILITY_EPS else "no-stability"
        scalars = {"final_max_abs": final_max, "steps": float(traj.ks[-1])}
    else:
        if traj.stop_reason != sim.CONVERGED:
            verdict = "no-convergence"
        elif issue_spread < STABILITY_EPS:
            verdict = "consensus"
        else:
            verdict = "clusters"
        leader = 2  # absorbing row of the influence network
        block = slice(leader * spec.n_issues, (leader + 1) * spec.n_issues)
        variation = float(np.abs(traj.xi_series[:, block] - traj.xi_series[0, block]).max())
        scalars = {
            "issue_spread": issue_spread,
            "leader_variation": variation,
            "steps": float(traj.ks[-1]),
        }
    return RunReport(name=name, verdict=verdict, scalars=scalars, artifacts=[csv_path])


def _reproduce_estimation(out_dir: Path, seed: int) -> RunReport:
    f = fx.fixture("sec5-coop")
    truth = f.system
    scen = est.draw_scenarios(truth, 2 * truth.n_agents, seed)
    result = est.solve_estimation(scen, truth.lam, truth.laplacian)
    gauge = est.gauge_distance(result.d_hat, truth.appraisal)
    path = out_dir / "example-estimation-result.json"
    doc = result.to_json_dict()
    doc["seed"] = int(seed)
    doc["gauge_distance"] = float(gauge)
    _write_json(path, doc)
    verdict = "zero-residual" if result.gamma_star < RESIDUAL_PIN else "residual-above-pin"
    return RunReport(
        name="example-estimation",
        verdict=verdict,
        scalars={
            "gamma_star": result.gamma_star,
            "gauge_distance": gauge,
            "rank": float(result.rank),
            "m_used": float(result.m_used),
        },
        artifacts=[path],
    )


def reproduce(name: str, out_dir, seed: int = DEFAULT_SEED) -> RunReport:
    """Re-run one named benchmark and emit its CSV/JSON artifacts."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if name in ("fig2a", "fig2b"):
        report = _reproduce_example1(name, out_dir)
    elif name in ("fig5", "fig6", "fig7a", "fig7b"):
        report = _reproduce_coupled(name, out_dir)
    elif name == "example-estimation":
        report = _reproduce_estimation(out_dir, seed)
    else:
        known = ", ".join(REPRODUCE_NAMES)
        raise ValidationError(f"unknown reproduce target {name!r}; known: {known}")
    report_path = out_dir / f"{name}-report.json"
    _write_json(report_path, report.to_json_dict())
    report.artifacts.append(report_path)
    return report


def _cmd_reproduce(args) -> int:
    report = reproduce(args.name, args.out_dir, seed=args.seed)
    print(f"{report.name}: {report.verdict}")
    for key in sorted(report.scalars):
        print(f"  {key}={float(report.scalars[key])!r}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    ``main`` call: ``parse_args`` makes a fresh namespace each time, and every
    default is a constant.  Callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="opiniondyn",
        description="Two-network opinion dynamics: analysis, simulation, and estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="spectral classification of a system")
    p.add_argument("--system", required=True)
    p.add_argument("--tol-eig", type=float, default=spectral.TOL_EIG)
    p.add_argument("--x0", default=None, help="initial opinions (inline CSV or file)")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("simulate", help="run a trajectory to a CSV file")
    p.add_argument("--system", required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--steps", type=int, default=sim.DEFAULT_MAX_STEPS)
    p.add_argument("--tol", type=float, default=sim.DEFAULT_TOL_CONV)
    p.add_argument("--window", type=int, default=sim.DEFAULT_WINDOW)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("stepsize", help="feasible step-size regions")
    p.add_argument("--laplacian", required=True)
    p.add_argument("--eps", type=float, default=None, help="fixed auxiliary step (default: rho)")
    p.add_argument(
        "--method",
        choices=["direct", "corollary1", "cubic", "cubic-paper", "hb"],
        default="direct",
    )
    p.add_argument("--grid", type=float, default=1e-3)
    p.add_argument("--rho-max", type=float, default=None)
    p.add_argument("--rho", type=float, default=None, help="step size to certify (hb)")
    p.add_argument("--out-dir", default=None, help="default: the working directory")
    p.add_argument("--out-json", default=None)
    p.add_argument("--out-csv", default=None)
    p.set_defaults(handler=_cmd_stepsize)

    p = sub.add_parser("estimate", help="appraisal estimation from scenarios")
    p.add_argument("--system", required=True, help="truth system JSON")
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--gamma0", type=float, default=None, help="residual target; enables growth loop")
    p.add_argument("--cap", type=int, default=None, help="largest sample count (growth loop)")
    p.add_argument("--box", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default="result.json")
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("samplebound", help="exact scenario sample-size bound")
    size = p.add_mutually_exclusive_group(required=True)
    size.add_argument("--agents", type=int, help="decision dimension agents^2")
    size.add_argument("--dim", type=int, help="decision dimension")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--formula", choices=list(FORMULAS), default="campi")
    p.set_defaults(handler=_cmd_samplebound)

    p = sub.add_parser("reproduce", help="re-run a named benchmark")
    p.add_argument("name", choices=list(REPRODUCE_NAMES))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(handler=_cmd_reproduce)

    p = sub.add_parser("fixtures", help="list the bundled systems")
    p.set_defaults(handler=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OpinionDynError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
