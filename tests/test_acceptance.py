"""Acceptance gate: pinned constants plus randomized property sweeps.

Run ``pytest tests/test_acceptance.py -v -s`` to see one verdict line per
criterion.  Timed criteria are measured after the jit kernels are warm.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from opiniondyn import fixtures as fx
from opiniondyn.cli import reproduce
from opiniondyn.estimate import (
    SampleBoundQuery,
    draw_scenarios,
    empirical_violation,
    gauge_distance,
    grow_sample_estimate,
    sample_bound,
    solve_estimation,
)
from opiniondyn.netcore import (
    SystemSpec,
    has_spanning_tree,
    laplacian_to_stochastic,
    same_topology,
    stochastic_to_laplacian,
)
from opiniondyn.simulate import CONVERGED, run, run_multi_issue
from opiniondyn.spectral import (
    CONSENSUS,
    NEITHER,
    antagonistic_consensus_structure,
    classify_multi_issue,
    classify_system,
    eigen,
    predict_limit,
)
from opiniondyn.stepsize import (
    bilinear_transform,
    cubic_coefficients,
    feasible_rho_cubic,
    feasible_rho_direct,
    hermite_biehler_hurwitz,
    imaginary_axis_parts,
)

from conftest import (
    match_eigenvalue_multisets,
    random_laplacian,
    random_spanning_tree_laplacian,
    random_stochastic,
)
from test_spectral import char_poly_roots_3x3
from test_stepsize import (
    _random_poly,
    is_hurwitz_direct,
    is_schur_direct,
    _roots,
    random_symmetric_laplacian,
)


@contextmanager
def criterion(tag: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {tag}: FAIL")
        raise
    print(f"\nACCEPTANCE {tag}: PASS")


def test_criterion_1_ring_spectrum_consensus_and_hull():
    with criterion("1 ring spectrum, consensus, hull membership"):
        t0 = time.perf_counter()
        f = fx.fixture("example1")
        M = f.system.iteration_matrix()
        oracle = sorted(char_poly_roots_3x3(M), reverse=True)
        np.testing.assert_allclose(oracle, [1.0, 0.5276, 0.0474], atol=1e-3)
        got = sorted(eigen(M).real, reverse=True)
        np.testing.assert_allclose(got, oracle, atol=1e-10)

        report = classify_system(f.system)
        assert report.classification == CONSENSUS

        traj = run(f.system, f.x0, max_steps=200)
        assert traj.stop_reason == CONVERGED
        assert int(traj.ks[-1]) <= 200
        assert traj.spread_series[-1] < 1e-6

        pred = predict_limit(f.system, f.x0, report=report)
        np.testing.assert_allclose(traj.final, pred.phi, atol=1e-6)
        limit = float(np.mean(pred.phi))
        assert not (f.x0.min() <= limit <= f.x0.max())  # outside the hull

        flat = SystemSpec(fx.EXAMPLE1_LAM_FLAT, f.system.laplacian, f.system.appraisal)
        pred_flat = predict_limit(flat, f.x0)
        inside = float(np.mean(pred_flat.phi))
        assert f.x0.min() <= inside <= f.x0.max()
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_cooperative_leader_aggregation():
    with criterion("2 cooperative run aggregates to the leader"):
        t0 = time.perf_counter()
        f = fx.fixture("sec5-coop")
        for issue, target in ((0, 75.0), (1, -50.0)):
            traj = run(f.system, fx.X0_MULTI[issue::2])
            assert traj.stop_reason == CONVERGED
            np.testing.assert_allclose(traj.final, np.full(4, target), atol=1e-6)

        coupled = run_multi_issue(f.with_mids(), f.x0_multi)
        assert coupled.stop_reason == CONVERGED
        final = coupled.final.reshape(4, 2)
        assert (final.max(axis=0) - final.min(axis=0)).max() < 1e-6
        leader = coupled.xi_series[:, 4:6]
        assert np.abs(leader - leader[0]).max() > 1.0  # leader moves over time
        assert time.perf_counter() - t0 < 1.0


def test_criterion_3_antagonistic_clusters():
    with criterion("3 antagonistic run clusters; coupled verdict convergent"):
        f = fx.fixture("sec5-antag")
        traj = run(f.system, f.x0)
        assert traj.stop_reason == CONVERGED
        assert traj.spread_series[-1] > 1.0
        assert antagonistic_consensus_structure(f.system.appraisal) == NEITHER
        w = np.abs(eigen(fx.ISSUE_COUPLING_ANTAG))
        np.testing.assert_allclose(sorted(w, reverse=True), [1.0, 0.3], atol=1e-10)
        assert classify_multi_issue(f.with_mids()) == "convergent"


def test_criterion_4_damped_coupling_stabilizes():
    with criterion("4 damped issue coupling drives opinions to zero"):
        for name in ("sec5-coop", "sec5-antag"):
            f = fx.fixture(name)
            spec = f.with_mids(damped=True)
            assert classify_multi_issue(spec) == "stable"
            traj = run_multi_issue(spec, f.x0_multi, max_steps=10_000)
            assert int(traj.ks[-1]) <= 10_000
            assert np.abs(traj.final).max() < 1e-6


def test_criterion_5_step_size_oracle_equivalence():
    with criterion("5 cubic region equals direct scan; alternate variant counterexample"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(20240)
        for _ in range(20):
            L = random_spanning_tree_laplacian(rng, int(rng.integers(2, 7)))
            a = feasible_rho_cubic(L, variant="corrected")
            b = feasible_rho_direct(L)
            assert len(a.intervals) == len(b.intervals) >= 1
            for (lo1, hi1), (lo2, hi2) in zip(a.intervals, b.intervals):
                assert abs(lo1 - lo2) <= 1e-5 and abs(hi1 - hi2) <= 1e-5

        for _ in range(5):
            L = random_symmetric_laplacian(rng, int(rng.integers(3, 7)))
            lam_max = float(np.abs(eigen(L)).max())
            for region in (feasible_rho_cubic(L), feasible_rho_direct(L)):
                assert len(region.intervals) == 1
                lo, hi = region.intervals[0]
                assert lo == 0.0 and abs(hi - 1.0 / lam_max) <= 1e-6

        # the alternate coefficient set rejects a step size the magnitude test admits
        rho = 0.25
        assert abs(1.0 - rho * 2.0 + rho * rho * 4.0) < 1.0
        c = cubic_coefficients(2.0 + 0j, "paper")
        assert c[3] * rho**3 + c[2] * rho**2 + c[1] * rho + c[0] > 0
        L2 = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert not feasible_rho_cubic(L2, variant="paper").contains(rho)
        assert feasible_rho_direct(L2).contains(rho)
        assert time.perf_counter() - t0 < 30.0


def test_criterion_6_polynomial_stability_suite():
    with criterion("6 interlacing test and bilinear map agree with root signs"):
        rng = np.random.default_rng(31337)
        hurwitz_checked = 0
        schur_checked = 0
        for _ in range(600):
            q = _random_poly(rng, complex_coeffs=bool(rng.integers(2)))
            r = _roots(q)
            if r.size and np.abs(r.real).min() > 1e-6 * max(1.0, np.abs(r).max()):
                got = hermite_biehler_hurwitz(imaginary_axis_parts(q))
                assert got == is_hurwitz_direct(q)
                hurwitz_checked += 1

            s = _random_poly(rng, complex_coeffs=bool(rng.integers(2)))
            rs = _roots(s)
            if rs.size == 0 or np.abs(np.abs(rs) - 1.0).min() <= 1e-6:
                continue
            if abs(np.polyval(s[::-1], 1.0)) < 1e-6:
                continue
            qq = bilinear_transform(s)
            rq = _roots(qq)
            if rq.size and np.abs(rq.real).min() <= 1e-6 * max(1.0, np.abs(rq).max()):
                continue
            schur = is_schur_direct(s)
            assert is_hurwitz_direct(qq) == schur
            assert hermite_biehler_hurwitz(imaginary_axis_parts(qq)) == schur
            schur_checked += 1
        assert hurwitz_checked >= 100 and schur_checked >= 100


def test_criterion_7_estimation_residual_growth_determinism():
    with criterion("7 estimation residual, growth loop, determinism"):
        t0 = time.perf_counter()
        truth = fx.fixture("sec5-coop").system
        scen = draw_scenarios(truth, 8, 20240)
        res = solve_estimation(scen, truth.lam, truth.laplacian)
        assert res.gamma_star < 1e-16

        m, grown = grow_sample_estimate(truth, 1e-12, m0=1, seed=20240)
        assert m <= truth.n_agents + 2
        assert grown.gamma_star <= 1e-12

        res2 = solve_estimation(
            draw_scenarios(truth, 8, 20240), truth.lam, truth.laplacian
        )
        assert res.zeta_hat.tobytes() == res2.zeta_hat.tobytes()
        assert res.gamma_star == res2.gamma_star
        assert time.perf_counter() - t0 < 1.0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the one-step data determine the appraisal matrix only up to adding a "
        "constant row vector (the Laplacian annihilates the all-ones direction), "
        "so no estimator can pin the entries themselves; recovery modulo that "
        "gauge is exact and asserted below"
    ),
)
def test_criterion_7_appraisal_entries_recovered_exactly():
    with criterion("7b entrywise appraisal recovery (known-blocked)"):
        truth = fx.fixture("sec5-coop").system
        scen = draw_scenarios(truth, 8, 20240)
        res = solve_estimation(scen, truth.lam, truth.laplacian)
        assert np.abs(res.d_hat - truth.appraisal).max() < 1e-6


def test_criterion_7_gauge_recovery_is_exact():
    with criterion("7c appraisal recovery modulo the constant-row gauge"):
        truth = fx.fixture("sec5-coop").system
        scen = draw_scenarios(truth, 8, 20240)
        res = solve_estimation(scen, truth.lam, truth.laplacian)
        assert gauge_distance(res.d_hat, truth.appraisal) < 1e-8
        K = truth.lam[:, None] * truth.laplacian
        assert np.abs(K @ (res.d_hat - truth.appraisal)).max() < 1e-8


def test_criterion_8_sample_bounds_and_violation_probability():
    with criterion("8 sample bounds exact, monotone; violation frequency within level"):
        t0 = time.perf_counter()
        assert sample_bound(SampleBoundQuery(d=1, epsilon=0.1, beta=0.01)) == 44

        eps_grid = [0.05, 0.1, 0.2, 0.3, 0.4]
        beta_grid = [0.001, 0.005, 0.01, 0.05, 0.1]
        d_grid = [1, 4, 16]
        table = {
            (d, e, b): sample_bound(SampleBoundQuery(d=d, epsilon=e, beta=b))
            for d in d_grid
            for e in eps_grid
            for b in beta_grid
        }
        for d in d_grid:
            for b in beta_grid:
                ms = [table[(d, e, b)] for e in eps_grid]
                assert ms == sorted(ms, reverse=True)  # non-increasing in eps
            for e in eps_grid:
                ms = [table[(d, e, bb)] for bb in beta_grid]
                assert ms == sorted(ms, reverse=True)  # non-increasing in beta
        for e in eps_grid:
            for b in beta_grid:
                ms = [table[(d, e, b)] for d in d_grid]
                assert ms == sorted(ms)  # non-decreasing in d

        truth = SystemSpec(
            [0.3, 0.3],
            [[1.0, -1.0], [-1.0, 1.0]],
            [[0.6, 0.4], [0.3, 0.7]],
        )
        m = sample_bound(SampleBoundQuery(d=4, epsilon=0.2, beta=0.1))
        exceed = 0
        for rep in range(50):
            scen = draw_scenarios(truth, m, 1000 + rep)
            res = solve_estimation(scen, truth.lam, truth.laplacian)
            v_hat = empirical_violation(res, truth, trials=100, seed=5000 + rep)
            if v_hat > 0.2:
                exceed += 1
        assert exceed / 50 <= 0.2
        assert time.perf_counter() - t0 < 60.0


def test_criterion_9_structural_sweeps():
    with criterion("9 five structural property sweeps, 1000 cases each"):
        rng = np.random.default_rng(424242)

        for _ in range(1000):  # stochastic/Laplacian round trip
            n = int(rng.integers(2, 8))
            P = random_stochastic(rng, n)
            eps = float(rng.uniform(0.05, 1.0))
            L = stochastic_to_laplacian(P, eps)
            assert np.abs(L.entries.sum(axis=1)).max() <= 1e-12
            back = laplacian_to_stochastic(L, eps)
            assert np.abs(back.entries - P).max() <= 1e-12

        for _ in range(1000):  # shared-topology equivalence relation
            n = int(rng.integers(2, 5))
            a, b, c = (
                np.where(rng.random((n, n)) < 0.5, rng.uniform(-1, 1, (n, n)), 0.0)
                for _ in range(3)
            )
            assert same_topology(a, a)
            assert same_topology(a, b) == same_topology(b, a)
            if same_topology(a, b) and same_topology(b, c):
                assert same_topology(a, c)

        for _ in range(1000):  # reachability vs rank
            n = int(rng.integers(2, 9))
            L = random_laplacian(rng, n, edge_prob=float(rng.uniform(0.1, 0.9)))
            assert has_spanning_tree(L) == (np.linalg.matrix_rank(L, tol=1e-9) == n - 1)

        for _ in range(1000):  # Kronecker spectrum pairing
            n = int(rng.integers(2, 5))
            p = int(rng.integers(2, 5))
            A = rng.standard_normal((n, n))
            C = rng.standard_normal((p, p))
            products = np.array([a * c for a in eigen(A) for c in eigen(C)])
            scale = max(1.0, float(np.abs(products).max()))
            match_eigenvalue_multisets(products, eigen(np.kron(A, C)), tol=1e-8 * scale)

        for _ in range(1000):  # trajectory linearity and replay
            n = int(rng.integers(2, 6))
            L = random_spanning_tree_laplacian(rng, n)
            D = random_stochastic(rng, n)
            mu = np.abs(np.linalg.eigvals(L @ D)).max()
            s = 0.3 / max(1.0, mu)
            spec = SystemSpec(np.full(n, s), L, D)
            x = rng.uniform(-5, 5, n)
            y = rng.uniform(-5, 5, n)
            a, b = rng.uniform(-2, 2, 2)
            kw = dict(max_steps=15, tol_conv=0.0)
            combo = run(spec, a * x + b * y, **kw)
            xs = run(spec, x, **kw)
            ys = run(spec, y, **kw)
            assert np.abs(combo.xi_series - (a * xs.xi_series + b * ys.xi_series)).max() <= 1e-9
            again = run(spec, a * x + b * y, **kw)
            assert again.xi_series.tobytes() == combo.xi_series.tobytes()
            M = spec.iteration_matrix()
            for k in range(len(combo) - 1):
                step = M @ combo.xi_series[k]
                tol = 1e-12 * max(1.0, float(np.abs(combo.xi_series[k]).max()))
                assert np.abs(combo.xi_series[k + 1] - step).max() <= tol


def test_reproduce_verdicts_cover_every_benchmark(tmp_path):
    with criterion("reproduce catalog emits the pinned verdicts"):
        expected = {
            "fig2a": "consensus-outside-hull",
            "fig2b": "consensus-inside-hull",
            "fig5": "consensus",
            "fig6": "clusters",
            "fig7a": "stability",
            "fig7b": "stability",
            "example-estimation": "zero-residual",
        }
        for name, verdict in expected.items():
            assert reproduce(name, tmp_path).verdict == verdict
