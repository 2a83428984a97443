"""Discrete-time trajectory engines with convergence detection.

Covers the issue-free update and the issue-coupled Kronecker update (run
blockwise, never materializing the large matrix).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import CONVERGED, DIVERGED, MAX_STEPS  # the stop reasons
from .errors import ValidationError
from .netcore import SystemSpec, as_vector, check_count, check_number

DEFAULT_MAX_STEPS = 10_000
DEFAULT_TOL_CONV = 1e-10
DEFAULT_WINDOW = 10
OVERFLOW_GUARD = 1e12


@dataclass(frozen=True)
class Trajectory:
    """A stored run: per-step opinions, stop reason, and spread diagnostics."""

    xi_series: np.ndarray
    ks: np.ndarray
    stop_reason: str
    spread_series: np.ndarray

    def __len__(self) -> int:
        return self.xi_series.shape[0]

    @property
    def final(self) -> np.ndarray:
        return self.xi_series[-1]


def _package(xis, ks, stop_reason) -> Trajectory:
    flat = xis.reshape(xis.shape[0], -1)
    spread = flat.max(axis=1) - flat.min(axis=1)
    return Trajectory(
        xi_series=xis,
        ks=ks,
        stop_reason=stop_reason,
        spread_series=spread,
    )


def _check_counts(max_steps, stride, tol_conv, window) -> tuple[int, int, int]:
    """The checked ``(max_steps, stride, window)``; ``tol_conv`` is checked too."""
    # 0 is allowed: it switches the convergence stop off.
    if check_number("tol_conv", tol_conv, positive=False) < 0:
        raise ValidationError(f"tol_conv must be non-negative, got {tol_conv}")
    return (
        check_count("max_steps", max_steps),
        check_count("stride", stride),
        check_count("window", window),
    )


def run(
    sys: SystemSpec,
    xi0,
    max_steps: int = DEFAULT_MAX_STEPS,
    tol_conv: float = DEFAULT_TOL_CONV,
    window: int = DEFAULT_WINDOW,
    stride: int = 1,
) -> Trajectory:
    """Iterate the issue-free system until the step change stays below
    ``tol_conv`` for ``window`` consecutive steps, divergence, or ``max_steps``.

    Only every ``stride``-th state and the last one are stored."""
    xi0 = as_vector(xi0, "initial opinions", sys.n_agents)
    max_steps, stride, window = _check_counts(max_steps, stride, tol_conv, window)
    M = sys.iteration_matrix()
    xis, ks, stop_reason = _kernels.iterate(
        lambda x: M @ x, xi0, max_steps, tol_conv, window, OVERFLOW_GUARD, stride
    )
    return _package(xis, ks, stop_reason)


def run_multi_issue(
    sys: SystemSpec,
    xi0,
    max_steps: int = DEFAULT_MAX_STEPS,
    tol_conv: float = DEFAULT_TOL_CONV,
    window: int = DEFAULT_WINDOW,
    stride: int = 1,
) -> Trajectory:
    """Iterate the issue-coupled system on agent-major state blocks.

    The state vector stacks each agent's issue block contiguously; one step
    maps the (agents x issues) state X to (M X) C'.
    """
    if sys.mids is None:
        raise ValidationError("system has no issue-coupling matrix")
    n, m = sys.n_agents, sys.n_issues
    xi0 = as_vector(xi0, "initial opinions", n * m)
    max_steps, stride, window = _check_counts(max_steps, stride, tol_conv, window)
    M = sys.iteration_matrix()
    Ct = np.ascontiguousarray(sys.mids.T)
    states, ks, stop_reason = _kernels.iterate(
        lambda X: (M @ X) @ Ct, xi0.reshape(n, m), max_steps, tol_conv, window,
        OVERFLOW_GUARD, stride,
    )
    return _package(states.reshape(states.shape[0], n * m), ks, stop_reason)

