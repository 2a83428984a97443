"""Discrete-time trajectory engines and the stop rule they share.

``iterate`` drives any linear update ``x(k+1) = step(x(k))`` (the issue-free
``M x`` and the issue-coupled ``(M X) C'``, run blockwise without building
the large Kronecker matrix) under one stop rule: divergence, a step change
below ``tol_conv`` for ``window`` consecutive steps, or ``max_steps``.  It
computes states in growing blocks and checks the rule on each block at
once, which gives the same rows as checking after every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .netcore import SystemSpec, as_vector, check_count, check_number

# The stop reasons.
CONVERGED = "converged"
MAX_STEPS = "max_steps"
DIVERGED = "diverged"

FIRST_BLOCK = 16
MAX_BLOCK = 256

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


def iterate(step, x0, max_steps, tol_conv, window, guard, stride) -> Trajectory:
    """Apply ``step`` from ``x0`` until the stop rule fires.

    A state diverges when any entry is non-finite or exceeds ``guard`` in
    magnitude.  Only the states at multiples of ``stride`` and the last one
    are kept, each flattened to one row of ``xi_series``, with their step
    indices in ``ks``; the stop reason is ``CONVERGED``, ``MAX_STEPS`` or
    ``DIVERGED``.

    The states are computed one ``step`` call at a time, each from the
    previous one, in blocks of ``FIRST_BLOCK`` growing to ``MAX_BLOCK``
    steps; the stop rule and the stride are then checked on the whole block
    at once.  States past the stop point are computed (and may overflow) but
    dropped, so rows, ``ks`` and status are those of a step-by-step check.
    """
    prev = np.array(x0, dtype=float)
    rows, ks = [prev[None]], [np.zeros(1, dtype=np.int64)]
    status, streak, done, size = MAX_STEPS, 0, 0, FIRST_BLOCK
    with np.errstate(over="ignore", invalid="ignore"):
        while status == MAX_STEPS and done < max_steps:
            b = min(size, max_steps - done)
            states = [prev]
            cur = prev
            for _ in range(b):
                cur = step(cur)
                states.append(cur)
            block = np.stack(states)
            flat = block.reshape(b + 1, -1)
            bad = ~(np.abs(flat[1:]).max(axis=1) <= guard)
            small = np.abs(flat[1:] - flat[:-1]).max(axis=1) < tol_conv
            # Consecutive small steps ending at each step, counting the
            # streak carried in from earlier blocks.
            idx = np.arange(b)
            run = idx - np.maximum.accumulate(np.where(small, -1 - streak, idx))
            stops = np.flatnonzero(bad | (small & (run >= window)))
            end = b
            if stops.size:
                end = int(stops[0]) + 1
                status = DIVERGED if bad[stops[0]] else CONVERGED
            else:
                streak = int(run[-1])
            k = np.arange(done + 1, done + end + 1)
            keep = k % stride == 0
            if status != MAX_STEPS or done + end == max_steps:
                keep[-1] = True
            rows.append(block[1 : end + 1][keep])
            ks.append(k[keep])
            prev = states[end]
            done += end
            size = min(2 * size, MAX_BLOCK)
        xis = np.concatenate(rows)
        xis = xis.reshape(xis.shape[0], -1)
        spread = xis.max(axis=1) - xis.min(axis=1)
    return Trajectory(
        xi_series=xis, ks=np.concatenate(ks), stop_reason=status, spread_series=spread
    )


def _iterate_checked(step, x0, max_steps, tol_conv, window, stride) -> Trajectory:
    """``iterate`` under ``OVERFLOW_GUARD``, once the stop-rule inputs pass
    their checks."""
    # 0 is allowed: it switches the convergence stop off.
    if check_number("tol_conv", tol_conv, positive=False) < 0:
        raise ValidationError(f"tol_conv must be non-negative, got {tol_conv}")
    max_steps = check_count("max_steps", max_steps)
    stride = check_count("stride", stride)
    window = check_count("window", window)
    return iterate(step, x0, max_steps, tol_conv, window, OVERFLOW_GUARD, stride)


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
    M = sys.iteration_matrix()
    return _iterate_checked(lambda x: M @ x, xi0, max_steps, tol_conv, window, stride)


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
    M = sys.iteration_matrix()
    Ct = np.ascontiguousarray(sys.mids.T)
    return _iterate_checked(
        lambda X: (M @ X) @ Ct, xi0.reshape(n, m), max_steps, tol_conv, window, stride
    )
