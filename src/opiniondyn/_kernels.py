"""The iteration kernel behind every trajectory.

``iterate`` drives any linear update ``x(k+1) = step(x(k))`` (the issue-free
``M x`` and the issue-coupled ``(M X) C'``) under one stop rule: divergence,
a step change below ``tol_conv`` for ``window`` consecutive steps, or
``max_steps``.  It computes states in growing blocks and checks the rule on
each block at once, which gives the same rows as checking after every step.
It is plain numpy.
"""

from __future__ import annotations

import numpy as np

# Read by the benchmark harness, which records it in every result file.
BACKEND = "numpy"

CONVERGED = "converged"
MAX_STEPS = "max_steps"
DIVERGED = "diverged"

FIRST_BLOCK = 16
MAX_BLOCK = 256


def iterate(step, x0, max_steps, tol_conv, window, guard, stride):
    """Apply ``step`` from ``x0`` until the stop rule fires.

    A state diverges when any entry is non-finite or exceeds ``guard`` in
    magnitude.  Only the states at multiples of ``stride`` and the last one
    are kept.  Returns ``(rows, ks, status)``: the kept states stacked along
    axis 0, their step indices, and the stop reason: ``CONVERGED``,
    ``MAX_STEPS`` or ``DIVERGED``.

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
    return np.concatenate(rows), np.concatenate(ks), status

