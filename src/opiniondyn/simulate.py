"""Discrete-time trajectory engines with convergence detection.

Covers the issue-free update, the issue-coupled Kronecker update (run
blockwise, never materializing the large matrix), and the disagreement
diagnostics used to confirm the spectral decay rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import NumericalError, ValidationError
from .netcore import SystemSpec

CONVERGED = "converged"
MAX_STEPS = "max_steps"
DIVERGED = "diverged"

_STOP_NAMES = {
    _kernels.STOP_CONVERGED: CONVERGED,
    _kernels.STOP_MAX_STEPS: MAX_STEPS,
    _kernels.STOP_DIVERGED: DIVERGED,
}

DEFAULT_MAX_STEPS = 10_000
DEFAULT_TOL_CONV = 1e-10
DEFAULT_WINDOW = 10
OVERFLOW_GUARD = 1e12


@dataclass(frozen=True)
class OpinionState:
    """Opinions ``xi`` (and appraisals ``z`` for issue-free runs) at step ``k``."""

    xi: np.ndarray
    z: np.ndarray | None
    k: int


@dataclass(frozen=True)
class Trajectory:
    """A stored run: per-step opinions, stop reason, and spread diagnostics."""

    xi_series: np.ndarray
    z_series: np.ndarray | None
    ks: np.ndarray
    stop_reason: str
    spread_series: np.ndarray

    def __len__(self) -> int:
        return self.xi_series.shape[0]

    @property
    def final(self) -> np.ndarray:
        return self.xi_series[-1]

    @property
    def states(self) -> list[OpinionState]:
        z = self.z_series
        return [
            OpinionState(
                xi=self.xi_series[i],
                z=None if z is None else z[i],
                k=int(self.ks[i]),
            )
            for i in range(len(self))
        ]


def step_issue_free(sys: SystemSpec, state: OpinionState) -> OpinionState:
    """One exact issue-free update; raises on non-finite results."""
    if state.xi.shape[0] != sys.n_agents:
        raise ValidationError(
            f"state has {state.xi.shape[0]} opinions for a {sys.n_agents}-agent system"
        )
    xi = sys.iteration_matrix() @ state.xi
    if not np.isfinite(xi).all():
        raise NumericalError(f"update diverged to non-finite values at step {state.k + 1}")
    return OpinionState(xi=xi, z=sys.appraisal @ xi, k=state.k + 1)


def _package(xis, ks, z_series, status) -> Trajectory:
    flat = xis.reshape(xis.shape[0], -1)
    spread = flat.max(axis=1) - flat.min(axis=1)
    return Trajectory(
        xi_series=xis,
        z_series=z_series,
        ks=ks,
        stop_reason=_STOP_NAMES[status],
        spread_series=spread,
    )


def _check_counts(max_steps: int, stride: int) -> None:
    if max_steps < 1:
        raise ValidationError("max_steps must be at least 1")
    if stride < 1:
        raise ValidationError("stride must be at least 1")


def run(
    sys: SystemSpec,
    xi0,
    max_steps: int = DEFAULT_MAX_STEPS,
    tol_conv: float = DEFAULT_TOL_CONV,
    window: int = DEFAULT_WINDOW,
    overflow_guard: float = OVERFLOW_GUARD,
    stride: int = 1,
) -> Trajectory:
    """Iterate the issue-free system until the step change stays below
    ``tol_conv`` for ``window`` consecutive steps, divergence, or ``max_steps``.

    Only every ``stride``-th state and the last one are stored."""
    xi0 = np.asarray(xi0, dtype=float).reshape(-1)
    if xi0.shape[0] != sys.n_agents:
        raise ValidationError(
            f"initial opinions have length {xi0.shape[0]}, expected {sys.n_agents}"
        )
    _check_counts(max_steps, stride)
    M = sys.iteration_matrix()
    xis, ks, status = _kernels.iterate(
        lambda x: M @ x, xi0, int(max_steps), tol_conv, window, overflow_guard, stride
    )
    return _package(xis, ks, xis @ sys.appraisal.T, status)


def run_multi_issue(
    sys: SystemSpec,
    xi0,
    max_steps: int = DEFAULT_MAX_STEPS,
    tol_conv: float = DEFAULT_TOL_CONV,
    window: int = DEFAULT_WINDOW,
    overflow_guard: float = OVERFLOW_GUARD,
    stride: int = 1,
) -> Trajectory:
    """Iterate the issue-coupled system on agent-major state blocks.

    The state vector stacks each agent's issue block contiguously; one step
    maps the (agents x issues) state X to (M X) C'.
    """
    if sys.mids is None:
        raise ValidationError("system has no issue-coupling matrix")
    n, m = sys.n_agents, sys.n_issues
    xi0 = np.asarray(xi0, dtype=float).reshape(-1)
    if xi0.shape[0] != n * m:
        raise ValidationError(
            f"initial opinions have length {xi0.shape[0]}, expected {n * m} "
            f"({n} agents x {m} issues)"
        )
    _check_counts(max_steps, stride)
    M = sys.iteration_matrix()
    Ct = np.ascontiguousarray(sys.mids.T)
    states, ks, status = _kernels.iterate(
        lambda X: (M @ X) @ Ct,
        xi0.reshape(n, m),
        int(max_steps),
        tol_conv,
        window,
        overflow_guard,
        stride,
    )
    return _package(states.reshape(states.shape[0], n * m), ks, None, status)


def disagreement_series(traj: Trajectory, report) -> np.ndarray:
    """Per-step sup-norm of the state component off the limit direction.

    Uses the unit-eigenvalue projector I - iota*sigma' from a spectral
    report; for convergent systems this decays geometrically at rho_rest.
    """
    if report.left_vec is None or report.right_vec is None:
        raise ValidationError("spectral report carries no unit-eigenvalue eigenvectors")
    sigma = np.asarray(report.left_vec, dtype=float)
    iota = np.asarray(report.right_vec, dtype=float)
    xis = traj.xi_series
    if xis.shape[1] != sigma.shape[0]:
        raise ValidationError("trajectory dimension does not match the report")
    theta = xis - np.outer(xis @ sigma, iota)
    return np.abs(theta).max(axis=1)
