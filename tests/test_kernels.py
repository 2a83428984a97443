"""The iteration kernel and the step-size magnitude scan against independent references.

``_check_run`` replays the documented stop rule on a run, ``_iterate_loop``
is the step-by-step kernel the block-checked one must match bit for bit, and
the scan is compared with a plain-loop evaluation of the same formula.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opiniondyn import simulate as k
from opiniondyn.stepsize import SCAN_CELLS, scan_magnitude

# Scripted steps count steps in units of TINY, far below any tolerance.
TINY = 2.0**-900
BIG = 1.0


def _check_run(xs, st, x0, step, max_steps, tol_conv, window, guard):
    """Each stored state is one step of its predecessor, and the run stops
    where the documented rule says: divergence, a step change below
    ``tol_conv`` for ``window`` consecutive steps, or ``max_steps``."""
    np.testing.assert_array_equal(xs[0], x0)
    for i in range(len(xs) - 1):
        np.testing.assert_allclose(xs[i + 1], step(xs[i]), atol=1e-12)
    steps, status, streak = max_steps, k.MAX_STEPS, 0
    for i in range(1, len(xs)):
        if not np.isfinite(xs[i]).all() or np.abs(xs[i]).max() > guard:
            steps, status = i, k.DIVERGED
            break
        streak = streak + 1 if np.abs(xs[i] - xs[i - 1]).max() < tol_conv else 0
        if streak >= window:
            steps, status = i, k.CONVERGED
            break
    assert (len(xs), st) == (steps + 1, status)


def _iterate_loop(step, x0, max_steps, tol_conv, window, guard, stride):
    """Reference kernel: the stop rule checked after every single step."""
    prev = np.array(x0, dtype=float)
    rows, ks = [prev], [0]
    status = k.MAX_STEPS
    streak = 0
    for i in range(1, max_steps + 1):
        cur = step(prev)
        if not np.abs(cur).max() <= guard:
            status = k.DIVERGED
            break
        if np.abs(cur - prev).max() < tol_conv:
            streak += 1
            if streak >= window:
                status = k.CONVERGED
                break
        else:
            streak = 0
        if i % stride == 0:
            rows.append(cur)
            ks.append(i)
        prev = cur
    if ks[-1] != i:
        rows.append(cur)
        ks.append(i)
    return np.stack(rows), np.array(ks), status


def _unpack(traj, x0):
    """The kernel's kept states in ``x0``'s shape, its ``ks`` and status."""
    return traj.xi_series.reshape(-1, *np.shape(x0)), traj.ks, traj.stop_reason


def _assert_matches_loop(step, x0, *args):
    """The kernel's rows, ``ks`` and status are bitwise those of the loop."""
    rows, ks, status = _unpack(k.iterate(step, x0, *args), x0)
    ref_rows, ref_ks, ref_status = _iterate_loop(step, x0, *args)
    assert rows.shape == ref_rows.shape and rows.tobytes() == ref_rows.tobytes()
    assert ks.dtype == ref_ks.dtype and ks.tolist() == ref_ks.tolist()
    assert status == ref_status
    return rows, ks, status


def _scripted_step(incs):
    """A pure step whose second entry moves by ``incs[i]`` at step i."""
    incs = np.asarray(incs, dtype=float)

    def step(x):
        i = int(round(x[0] / TINY)) + 1
        return np.array([x[0] + TINY, x[1] + incs[i]])

    return step


def _converging_at(stop, window, max_steps, after=BIG):
    """Increments whose last ``window`` small steps end exactly at ``stop``."""
    incs = np.full(max_steps + k.MAX_BLOCK + 1, after)
    incs[: stop - window + 1] = BIG
    incs[stop - window + 1 : stop + 1] = 0.0
    return incs


def _iterate_all(step, x0, *args):
    """Run the kernel keeping every state (stride 1)."""
    xs, ks, st = _unpack(k.iterate(step, x0, *args, 1), x0)
    np.testing.assert_array_equal(ks, np.arange(len(xs)))
    return xs, st


def _scan_magnitude_loop(rhos, lams, eps):
    out = np.empty(rhos.shape[0])
    for i in range(rhos.shape[0]):
        r = rhos[i]
        e = r if eps is None else eps
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
        (0.5, (500, 1e-12, 5, 1e12), k.CONVERGED),
        (3.0, (500, 1e-12, 5, 1e6), k.DIVERGED),
        (np.nan, (500, 1e-12, 5, 1e12), k.DIVERGED),
        (1.0, (3, -1.0, 5, 1e12), k.MAX_STEPS),
    ):
        M = np.eye(2) * scale
        xs, st = _iterate_all(lambda x: M @ x, np.ones(2), *args)
        assert st == expected
        _check_run(xs, st, np.ones(2), lambda x: M @ x, *args)


def test_large_step_resets_the_convergence_streak():
    incs = iter([0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    xs, st = _iterate_all(lambda x: x + next(incs), np.zeros(1), 7, 0.5, 3, 1e12)
    assert st == k.CONVERGED
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
    for eps in (None, 0.3):
        a = scan_magnitude(rhos, lams, eps)
        ref = _scan_magnitude_loop(rhos, lams, eps)
        np.testing.assert_allclose(a, ref, atol=1e-13)


def _scan_magnitude_whole(rhos, lams, eps):
    # The same expression as the kernel's, over all rhos in one block.
    r = np.asarray(rhos, dtype=float)[:, None]
    lam = np.asarray(lams, dtype=complex)[None, :]
    e = r if eps is None else eps
    z = r * lam
    np.subtract(1.0, z, out=z)
    quad = e * r * lam
    quad *= lam
    z += quad
    return np.abs(z).max(axis=1)


@pytest.mark.parametrize("n_lams,n_rhos", [
    (1, 10),
    (7, 3 * (SCAN_CELLS // 7) + 1),
    (300, 2000),
    (300, SCAN_CELLS // 300),
    (300, SCAN_CELLS // 300 + 1),
    (SCAN_CELLS + 5, 3),
])
def test_scan_blocks_match_one_block_bitwise(n_lams, n_rhos):
    rng = np.random.default_rng(n_lams + n_rhos)
    lams = rng.uniform(0.0, 3.0, n_lams) + 1j * rng.uniform(-2.0, 2.0, n_lams)
    rhos = np.linspace(1e-3, 2.0, n_rhos)
    for eps in (None, 0.3):
        a = scan_magnitude(rhos, lams, eps)
        np.testing.assert_array_equal(a, _scan_magnitude_whole(rhos, lams, eps))


def test_scan_empty_spectrum():
    rhos = np.array([0.5, 1.0])
    out = scan_magnitude(rhos, np.empty(0, dtype=complex), None)
    np.testing.assert_array_equal(out, [0.0, 0.0])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    issues=st.integers(0, 3),
    scale=st.sampled_from([0.5, 0.9, 0.99, 1.0, 1.02, 3.0]),
    max_steps=st.integers(1, 700),
    tol_conv=st.sampled_from([1e-3, 1e-8, 1e-12, -1.0]),
    window=st.integers(1, 40),
    guard=st.sampled_from([1e3, 1e12, 1e300]),
    stride=st.integers(1, 300),
)
def test_block_kernel_matches_step_loop_on_linear_runs(
    seed, n, issues, scale, max_steps, tol_conv, window, guard, stride
):
    rng = np.random.default_rng(seed)
    M = np.eye(n) * scale + rng.standard_normal((n, n)) * rng.choice([0.0, 0.01, 0.1])
    args = (max_steps, tol_conv, window, guard, stride)
    with np.errstate(over="ignore", invalid="ignore"):
        if issues == 0:
            _assert_matches_loop(lambda x: M @ x, rng.uniform(-5, 5, n), *args)
        else:
            Ct = rng.standard_normal((issues, issues)) * 0.5
            X0 = rng.uniform(-5, 5, (n, issues))
            _assert_matches_loop(lambda X: (M @ X) @ Ct, X0, *args)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    pattern=st.lists(st.sampled_from([0.0, 0.0, 0.0, BIG, 1e13]), min_size=1, max_size=600),
    max_steps=st.integers(1, 600),
    window=st.integers(1, 8),
    stride=st.integers(1, 300),
)
def test_block_kernel_matches_step_loop_on_scripted_runs(pattern, max_steps, window, stride):
    # Random small/large/divergent step changes: streaks of every length
    # start and end anywhere relative to the block seams.
    incs = np.zeros(max_steps + k.MAX_BLOCK + 1)
    incs[1 : len(pattern) + 1] = pattern
    _assert_matches_loop(_scripted_step(incs), np.zeros(2), max_steps, 0.5, window, 1e12, stride)


@pytest.mark.parametrize(
    "stop, window",
    [(s, w) for s in (1, 15, 16, 17, 20, 48, 49, 112, 240, 496, 752, 753) for w in (1, 10) if s >= w],
)
def test_convergence_on_and_across_block_seams(stop, window):
    # Blocks end after steps 16, 48, 112, 240, 496, 752, ...; with window
    # 10 a stop at 20 or 49 has its streak cross a seam.
    incs = _converging_at(stop, window, 1000)
    _, ks, status = _assert_matches_loop(_scripted_step(incs), np.zeros(2), 1000, 0.5, window, 1e12, 1)
    assert (status, int(ks[-1])) == (k.CONVERGED, stop)


@pytest.mark.parametrize("step_at", [1, 16, 17, 49, 113])
def test_divergence_on_the_first_step_of_a_block(step_at):
    incs = np.full(1000 + k.MAX_BLOCK + 1, BIG)
    incs[step_at] = 1e13
    _, ks, status = _assert_matches_loop(_scripted_step(incs), np.zeros(2), 1000, 0.5, 3, 1e12, 1)
    assert (status, int(ks[-1])) == (k.DIVERGED, step_at)


def test_divergence_outranks_convergence():
    # From a start above the guard, a zero step change is both.
    incs = np.zeros(k.FIRST_BLOCK + 1)
    _, ks, status = _assert_matches_loop(_scripted_step(incs), [0.0, 1e13], 10, 0.5, 1, 1e12, 1)
    assert (status, ks.tolist()) == (k.DIVERGED, [0, 1])


@pytest.mark.parametrize("stride", [3, 7, 17, 100, 300])
def test_stride_that_does_not_divide_the_blocks(stride):
    incs = np.full(1000 + k.MAX_BLOCK + 1, BIG)
    _, ks, status = _assert_matches_loop(_scripted_step(incs), np.zeros(2), 1000, 0.5, 3, 1e12, stride)
    assert status == k.MAX_STEPS
    assert ks.tolist() == [*range(0, 1001, stride), *([1000] if 1000 % stride else [])]


@pytest.mark.parametrize("max_steps", [1, 2, 5, k.FIRST_BLOCK - 1, k.FIRST_BLOCK])
def test_max_steps_within_the_first_block(max_steps):
    incs = np.full(k.FIRST_BLOCK + 1, BIG)
    _, ks, status = _assert_matches_loop(_scripted_step(incs), np.zeros(2), max_steps, 0.5, 3, 1e12, 1)
    assert status == k.MAX_STEPS
    assert ks.tolist() == list(range(max_steps + 1))


def test_overflow_past_the_stop_is_silent():
    # Converged at step 40, then inf and NaN in the block's dropped steps;
    # and a linear run whose steps after its divergence overflow to NaN.
    incs = _converging_at(40, 10, 100, after=1e308)
    incs[45:] = -np.inf
    M = np.array([[1e200, 1e200], [1e200, -1e200]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = k.iterate(_scripted_step(incs), np.zeros(2), 100, 0.5, 10, 1e12, 1)
        rows, ks, status = _unpack(traj, np.zeros(2))
        assert (status, int(ks[-1]), np.isfinite(rows).all()) == (k.CONVERGED, 40, True)
        traj = k.iterate(lambda x: M @ x, np.ones(2), 100, 1e-8, 3, 1e300, 1)
        rows, ks, status = _unpack(traj, np.ones(2))
        assert (status, ks.tolist()) == (k.DIVERGED, [0, 1, 2])
        assert not np.isfinite(rows[-1]).all()
