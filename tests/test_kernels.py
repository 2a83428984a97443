"""The iteration kernel and the magnitude scan against independent references.

``_check_run`` replays the documented stop rule on a run, and the scan is
compared with a plain-loop evaluation of the same formula.
"""

import numpy as np

from opiniondyn import _kernels as k


def _check_run(xs, st, x0, step, max_steps, tol_conv, window, guard):
    """Each stored state is one step of its predecessor, and the run stops
    where the documented rule says: divergence, a step change below
    ``tol_conv`` for ``window`` consecutive steps, or ``max_steps``."""
    np.testing.assert_array_equal(xs[0], x0)
    for i in range(len(xs) - 1):
        np.testing.assert_allclose(xs[i + 1], step(xs[i]), atol=1e-12)
    steps, status, streak = max_steps, k.STOP_MAX_STEPS, 0
    for i in range(1, len(xs)):
        if not np.isfinite(xs[i]).all() or np.abs(xs[i]).max() > guard:
            steps, status = i, k.STOP_DIVERGED
            break
        streak = streak + 1 if np.abs(xs[i] - xs[i - 1]).max() < tol_conv else 0
        if streak >= window:
            steps, status = i, k.STOP_CONVERGED
            break
    assert (len(xs), st) == (steps + 1, status)


def _iterate_all(step, x0, *args):
    """Run the kernel keeping every state (stride 1)."""
    xs, ks, st = k.iterate(step, x0, *args, 1)
    np.testing.assert_array_equal(ks, np.arange(len(xs)))
    return xs, st


def _scan_magnitude_loop(rhos, lams, eps, eps_is_rho):
    out = np.empty(rhos.shape[0])
    for i in range(rhos.shape[0]):
        r = rhos[i]
        e = r if eps_is_rho else eps
        worst = 0.0
        for j in range(lams.shape[0]):
            lam = lams[j]
            m = abs(1.0 - r * lam + e * r * lam * lam)
            if m > worst:
                worst = m
        out[i] = worst
    return out


def test_iterate_linear_parity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        M = np.eye(n) + rng.standard_normal((n, n)) * 0.1
        x0 = rng.uniform(-5, 5, n)
        args = (50, 1e-8, 3, 1e12)
        xs, st = _iterate_all(lambda x: M @ x, x0, *args)
        _check_run(xs, st, x0, lambda x: M @ x, *args)


def test_iterate_linear_statuses():
    for scale, args, expected in (
        (0.5, (500, 1e-12, 5, 1e12), k.STOP_CONVERGED),
        (3.0, (500, 1e-12, 5, 1e6), k.STOP_DIVERGED),
        (np.nan, (500, 1e-12, 5, 1e12), k.STOP_DIVERGED),
        (1.0, (3, -1.0, 5, 1e12), k.STOP_MAX_STEPS),
    ):
        M = np.eye(2) * scale
        xs, st = _iterate_all(lambda x: M @ x, np.ones(2), *args)
        assert st == expected
        _check_run(xs, st, np.ones(2), lambda x: M @ x, *args)


def test_large_step_resets_the_convergence_streak():
    incs = iter([0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    xs, st = _iterate_all(lambda x: x + next(incs), np.zeros(1), 7, 0.5, 3, 1e12)
    assert st == k.STOP_CONVERGED
    np.testing.assert_array_equal(xs[:, 0], [0, 0, 0, 1, 1, 1, 1])


def test_iterate_coupled_parity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        p = int(rng.integers(2, 4))
        M = np.eye(n) + rng.standard_normal((n, n)) * 0.1
        Ct = rng.standard_normal((p, p)) * 0.4
        X0 = rng.uniform(-3, 3, (n, p))
        args = (40, 1e-8, 3, 1e12)
        xs, st = _iterate_all(lambda X: (M @ X) @ Ct, X0, *args)
        _check_run(xs, st, X0, lambda X: (M @ X) @ Ct, *args)


def test_scan_parity():
    rng = np.random.default_rng(2)
    rhos = np.linspace(1e-3, 2.0, 500)
    lams = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    for eps, eps_is_rho in ((0.0, True), (0.3, False)):
        a = k.scan_magnitude(rhos, lams, eps, eps_is_rho)
        ref = _scan_magnitude_loop(rhos, lams, eps, eps_is_rho)
        np.testing.assert_allclose(a, ref, atol=1e-13)


def test_scan_empty_spectrum():
    rhos = np.array([0.5, 1.0])
    out = k.scan_magnitude(rhos, np.empty(0, dtype=complex), 0.0, True)
    np.testing.assert_array_equal(out, [0.0, 0.0])
