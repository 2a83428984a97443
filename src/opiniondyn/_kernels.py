"""The iteration kernel behind every trajectory, and the step-size magnitude scan.

``iterate`` drives any linear update ``x(k+1) = step(x(k))`` (the issue-free
``M x`` and the issue-coupled ``(M X) C'``) under one stop rule: divergence,
a step change below ``tol_conv`` for ``window`` consecutive steps, or
``max_steps``.  Both functions are plain numpy.
"""

from __future__ import annotations

import numpy as np

# Read by the benchmark harness, which records it in every result file.
BACKEND = "numpy"

STOP_CONVERGED = 0
STOP_MAX_STEPS = 1
STOP_DIVERGED = 2


def iterate(step, x0, max_steps, tol_conv, window, guard, stride):
    """Apply ``step`` from ``x0`` until the stop rule fires.

    A state diverges when any entry is non-finite or exceeds ``guard`` in
    magnitude.  Only the states at multiples of ``stride`` and the last one
    are kept.  Returns ``(rows, ks, status)``: the kept states stacked along
    axis 0, their step indices, and a ``STOP_*`` code.
    """
    prev = np.array(x0, dtype=float)
    rows, ks = [prev], [0]
    status = STOP_MAX_STEPS
    streak = 0
    for k in range(1, max_steps + 1):
        cur = step(prev)
        if not np.abs(cur).max() <= guard:
            status = STOP_DIVERGED
            break
        if np.abs(cur - prev).max() < tol_conv:
            streak += 1
            if streak >= window:
                status = STOP_CONVERGED
                break
        else:
            streak = 0
        if k % stride == 0:
            rows.append(cur)
            ks.append(k)
        prev = cur
    if ks[-1] != k:
        rows.append(cur)
        ks.append(k)
    return np.stack(rows), np.array(ks), status


def scan_magnitude(rhos, lams, eps, eps_is_rho):
    """Worst ``|1 - rho*lam + eps*rho*lam^2|`` over ``lams`` for each ``rho``;
    ``eps_is_rho`` makes ``eps`` track ``rho``."""
    r = np.asarray(rhos, dtype=float)[:, None]
    lam = np.asarray(lams, dtype=complex)[None, :]
    if lam.shape[1] == 0:
        return np.zeros(r.shape[0])
    e = r if eps_is_rho else eps
    # In place, so that at most two (rhos x lams) temporaries are alive.
    z = r * lam
    np.subtract(1.0, z, out=z)
    quad = e * r * lam
    quad *= lam
    z += quad
    del quad
    return np.abs(z).max(axis=1)
