"""Trajectory engines: stepping, stopping, coupling, and decay diagnostics."""

import numpy as np
import pytest

from opiniondyn import fixtures as fx
from opiniondyn.errors import ValidationError
from opiniondyn.netcore import SystemSpec
from opiniondyn.simulate import (
    CONVERGED,
    DIVERGED,
    MAX_STEPS,
    run,
    run_multi_issue,
)
from opiniondyn.spectral import classify_system, predict_limit

from conftest import multi_issue_matrix, random_consensus_system, random_stochastic


def disagreement_series(traj, report) -> np.ndarray:
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


def naive_matvec(M, x):
    out = np.zeros(len(x))
    for i in range(len(x)):
        for j in range(len(x)):
            out[i] += M[i][j] * x[j]
    return out


def diverging_system():
    return SystemSpec([5.0, 5.0], [[1.0, -1.0], [-1.0, 1.0]], np.eye(2))


class TestStep:
    def test_zero_laplacian_fixed_point(self):
        spec = SystemSpec([0.3, 0.3], np.zeros((2, 2)), np.eye(2))
        x0 = np.array([1.0, -2.0])
        traj = run(spec, x0, max_steps=1)
        assert list(traj.ks) == [0, 1]
        np.testing.assert_array_equal(traj.xi_series[1], x0)

    def test_matches_naive_product(self, example1):
        M = example1.system.iteration_matrix()
        traj = run(example1.system, fx.EXAMPLE1_X0, max_steps=1)
        np.testing.assert_allclose(
            traj.xi_series[1], naive_matvec(M, fx.EXAMPLE1_X0), atol=1e-12
        )

    def test_consensus_is_invariant_under_cooperative_appraisal(self):
        rng = np.random.default_rng(101)
        n = 4
        D = random_stochastic(rng, n)
        L = np.eye(n) - random_stochastic(rng, n)
        spec = SystemSpec(rng.uniform(0.5, 1.5, n), L, D)
        traj = run(spec, np.full(n, 3.7), max_steps=1)
        np.testing.assert_allclose(traj.xi_series[1], 3.7, atol=1e-13)


class TestRun:
    def test_ring_reaches_consensus(self, example1):
        traj = run(example1.system, example1.x0, max_steps=500)
        assert traj.stop_reason == CONVERGED
        assert int(traj.ks[-1]) <= 200
        assert traj.spread_series[-1] < 1e-6
        pred = predict_limit(example1.system, example1.x0)
        np.testing.assert_allclose(traj.final, pred.phi, atol=1e-6)

    def test_antagonistic_clusters(self, sec5_antag):
        traj = run(sec5_antag.system, sec5_antag.x0)
        assert traj.stop_reason == CONVERGED
        assert traj.spread_series[-1] > 1.0

    def test_zero_start_converges_at_window(self, example1):
        traj = run(example1.system, np.zeros(3), window=10)
        assert traj.stop_reason == CONVERGED
        assert int(traj.ks[-1]) == 10
        assert not traj.xi_series.any()

    def test_divergence_flag(self):
        traj = run(diverging_system(), [1.0, 2.0], max_steps=200)
        assert traj.stop_reason == DIVERGED

    def test_max_steps_flag(self, sec5_antag):
        traj = run(sec5_antag.system, sec5_antag.x0, max_steps=5)
        assert traj.stop_reason == MAX_STEPS
        assert len(traj) == 6

    def test_replay_determinism_and_one_step_consistency(self, sec5_coop):
        a = run(sec5_coop.system, sec5_coop.x0, max_steps=300)
        b = run(sec5_coop.system, sec5_coop.x0, max_steps=300)
        assert a.stop_reason == b.stop_reason
        np.testing.assert_array_equal(a.xi_series, b.xi_series)
        M = sec5_coop.system.iteration_matrix()
        for k in range(len(a) - 1):
            expect = M @ a.xi_series[k]
            err = np.abs(a.xi_series[k + 1] - expect).max()
            assert err <= 1e-12 * max(1.0, np.abs(a.xi_series[k]).max())

    def test_linearity(self):
        rng = np.random.default_rng(103)
        for _ in range(10):
            spec = random_consensus_system(rng, int(rng.integers(2, 6)))
            x = rng.uniform(-5, 5, spec.n_agents)
            y = rng.uniform(-5, 5, spec.n_agents)
            a, b = rng.uniform(-2, 2, 2)
            kw = dict(max_steps=20, tol_conv=0.0)
            combo = run(spec, a * x + b * y, **kw)
            xs = run(spec, x, **kw)
            ys = run(spec, y, **kw)
            np.testing.assert_allclose(
                combo.xi_series, a * xs.xi_series + b * ys.xi_series, atol=1e-9
            )

    def test_stride_thinning(self, sec5_coop):
        full = run(sec5_coop.system, sec5_coop.x0, max_steps=100, tol_conv=0.0)
        thin = run(sec5_coop.system, sec5_coop.x0, max_steps=100, tol_conv=0.0, stride=7)
        assert list(thin.ks) == sorted(set(range(0, 101, 7)) | {100})
        np.testing.assert_array_equal(thin.xi_series, full.xi_series[thin.ks])
        np.testing.assert_array_equal(thin.spread_series, full.spread_series[thin.ks])

    def test_dimension_validation(self, example1):
        with pytest.raises(ValidationError):
            run(example1.system, [1.0, 2.0])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError):
                run(example1.system, [1.0, bad, 2.0])
        with pytest.raises(ValidationError):
            run(example1.system, example1.x0, stride=0)

    @pytest.mark.parametrize("kw", [
        {"tol_conv": np.nan}, {"tol_conv": -1.0}, {"tol_conv": np.inf},
        {"window": 0}, {"window": -2}, {"window": 2.5}, {"window": True},
        {"stride": 2.5}, {"stride": True}, {"max_steps": 2.5}, {"max_steps": True},
    ])
    def test_stop_rule_inputs_are_checked(self, example1, sec5_coop, kw):
        with pytest.raises(ValidationError):
            run(example1.system, example1.x0, **kw)
        with pytest.raises(ValidationError):
            run_multi_issue(sec5_coop.with_mids(), fx.X0_MULTI, **kw)

    def test_zero_tol_switches_the_convergence_stop_off(self, example1):
        traj = run(example1.system, example1.x0, max_steps=300, tol_conv=0.0, window=1)
        assert traj.stop_reason == MAX_STEPS and int(traj.ks[-1]) == 300


class TestMultiIssue:
    def test_identity_coupling_matches_issue_free_copies(self, sec5_coop):
        spec = SystemSpec(
            sec5_coop.system.lam,
            sec5_coop.system.laplacian,
            sec5_coop.system.appraisal,
            mids=np.eye(2),
        )
        x0 = fx.X0_MULTI
        coupled = run_multi_issue(spec, x0, max_steps=50, tol_conv=0.0)
        for issue in range(2):
            single = run(sec5_coop.system, x0[issue::2], max_steps=50, tol_conv=0.0)
            np.testing.assert_allclose(
                coupled.xi_series[:, issue::2], single.xi_series, atol=1e-12
            )

    def test_leader_steering(self, sec5_coop):
        traj = run_multi_issue(sec5_coop.with_mids(), fx.X0_MULTI)
        assert traj.stop_reason == CONVERGED
        final = traj.final.reshape(4, 2)
        assert (final.max(axis=0) - final.min(axis=0)).max() < 1e-6
        # the leader's opinion moves over time under issue coupling
        leader = traj.xi_series[:, 4:6]
        assert np.abs(leader - leader[0]).max() > 1.0

    def test_final_value_matches_kronecker_eigenanalysis(self, sec5_coop):
        spec = sec5_coop.with_mids()
        K = multi_issue_matrix(spec)
        w, V = np.linalg.eig(K)
        unit = int(np.argmin(np.abs(w - 1.0)))
        right = V[:, unit].real
        wl, U = np.linalg.eig(K.T)
        unit_l = int(np.argmin(np.abs(wl - 1.0)))
        left = U[:, unit_l].real
        left = left / (left @ right)
        phi = right * (left @ fx.X0_MULTI)
        traj = run_multi_issue(spec, fx.X0_MULTI)
        np.testing.assert_allclose(traj.final, phi, atol=1e-6)

    def test_damped_coupling_stabilizes(self, sec5_coop, sec5_antag):
        for f in (sec5_coop, sec5_antag):
            traj = run_multi_issue(f.with_mids(damped=True), fx.X0_MULTI)
            assert np.abs(traj.final).max() < 1e-6
            assert int(traj.ks[-1]) <= 10_000

    def test_block_update_matches_materialized_kronecker(self):
        rng = np.random.default_rng(107)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            p = int(rng.integers(2, 5))
            spec = random_consensus_system(rng, n)
            spec = SystemSpec(spec.lam, spec.laplacian, spec.appraisal,
                              mids=rng.uniform(-0.5, 0.5, (p, p)))
            K = multi_issue_matrix(spec)
            x0 = rng.uniform(-3, 3, n * p)
            traj = run_multi_issue(spec, x0, max_steps=30, tol_conv=0.0)
            x = x0.copy()
            for k in range(len(traj) - 1):
                x = K @ x
                np.testing.assert_allclose(traj.xi_series[k + 1], x, atol=1e-12)

    def test_stride_thinning(self, sec5_coop):
        spec = sec5_coop.with_mids()
        full = run_multi_issue(spec, fx.X0_MULTI, max_steps=60, tol_conv=0.0)
        thin = run_multi_issue(spec, fx.X0_MULTI, max_steps=60, tol_conv=0.0, stride=8)
        assert list(thin.ks) == sorted(set(range(0, 61, 8)) | {60})
        np.testing.assert_array_equal(thin.xi_series, full.xi_series[thin.ks])
        np.testing.assert_array_equal(thin.spread_series, full.spread_series[thin.ks])

    def test_dimension_validation(self, sec5_coop):
        with pytest.raises(ValidationError):
            run_multi_issue(sec5_coop.with_mids(), np.zeros(4))
        with pytest.raises(ValidationError):
            run_multi_issue(sec5_coop.system, np.zeros(8))
        for bad in (np.nan, -np.inf):
            x0 = fx.X0_MULTI.copy()
            x0[3] = bad
            with pytest.raises(ValidationError):
                run_multi_issue(sec5_coop.with_mids(), x0)
        with pytest.raises(ValidationError):
            run_multi_issue(sec5_coop.with_mids(), fx.X0_MULTI, stride=0)


class TestDisagreement:
    def test_limit_direction_start_stays_flat(self, example1):
        rep = classify_system(example1.system)
        traj = run(example1.system, rep.right_vec * 4.2, max_steps=30, tol_conv=0.0)
        series = disagreement_series(traj, rep)
        assert series.max() < 1e-10

    def test_decay_ratio_approaches_second_mode(self, example1):
        rep = classify_system(example1.system)
        traj = run(example1.system, example1.x0, max_steps=40, tol_conv=0.0)
        series = disagreement_series(traj, rep)
        ratios = series[11:25] / series[10:24]
        assert np.abs(ratios - rep.rho_rest).max() < 5e-2

    def test_diverged_run_is_flagged_not_asserted(self, example1):
        spec = diverging_system()
        traj = run(spec, [1.0, 2.0], max_steps=100)
        assert traj.stop_reason == DIVERGED
        rep = classify_system(example1.system)
        with pytest.raises(ValidationError):
            disagreement_series(traj, rep)  # dimension mismatch is refused

    def test_requires_eigenvectors(self, example1):
        shrunk = SystemSpec([1.0, 1.0], [[1.0, -0.5], [-0.5, 1.0]], np.eye(2) * 0.9)
        rep = classify_system(shrunk)
        traj = run(shrunk, [1.0, 2.0], max_steps=10)
        with pytest.raises(ValidationError):
            disagreement_series(traj, rep)

    def test_geometric_decay_envelope(self):
        rng = np.random.default_rng(109)
        for _ in range(5):
            spec = random_consensus_system(rng, int(rng.integers(2, 5)))
            rep = classify_system(spec)
            x0 = rng.uniform(-5, 5, spec.n_agents)
            phi = predict_limit(spec, x0, report=rep).phi
            traj = run(spec, x0, max_steps=200, tol_conv=0.0)
            err = np.abs(traj.xi_series - phi).max(axis=1)
            rate = rep.rho_rest + 1e-3
            k0 = len(err) // 2
            if err[k0:].max() <= 1e-13:
                continue  # already at the floor; nothing left to bound
            K = (err[:k0] / rate ** np.arange(k0)).max()
            for k in range(k0, len(err)):
                assert err[k] <= K * rate**k + 1e-12
