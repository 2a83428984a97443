"""Appraisal estimation: vectorization identities, least squares, sample bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opiniondyn import _streams, estimate
from opiniondyn.errors import NumericalError, ValidationError
from opiniondyn.estimate import (
    CAMPI_GARATTI,
    PAPER_LITERAL,
    SV_RCOND,
    SampleBoundQuery,
    ScenarioSet,
    binomial_tail,
    draw_scenarios,
    empirical_violation,
    gauge_distance,
    grow_sample_estimate,
    paper_tail,
    sample_bound,
    solve_estimation,
)
from opiniondyn.netcore import as_matrix, as_vector

from conftest import (
    random_consensus_system,
    random_laplacian,
    random_spanning_tree_laplacian,
)


def residual_level(scen, lam, L, D) -> float:
    """Mean squared residual of a candidate appraisal matrix on a scenario set."""
    return estimate._mean_sq_residual(scen, (lam[:, None] * L) @ D)


def vec(M) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(M).flatten(order="F")


def unvec(v, p: int, q: int) -> np.ndarray:
    """Inverse of ``vec`` for a p x q matrix."""
    return np.asarray(v).reshape((p, q), order="F")


def regressor(xi_prev, lam, L) -> np.ndarray:
    """Kronecker regressor mapping vec(D) to Lambda L D xi for one observation."""
    xi_prev = as_vector(xi_prev, "xi_prev")
    lam = as_vector(lam, "lambda")
    L = as_matrix(L, "laplacian")
    if not (xi_prev.size == lam.size == L.shape[0]):
        raise ValidationError("regressor inputs have inconsistent dimensions")
    return np.kron(xi_prev[None, :], lam[:, None] * L)


def kronecker_solve(scen, lam, L):
    """Oracle: least squares on the stacked (m*n) x n^2 regressor.

    Returns (d_hat, gamma_star, rank) of the minimum-norm solution.
    """
    n = scen.n_agents
    A = np.vstack([regressor(scen.prev[t], lam, L) for t in range(scen.m)])
    r = (scen.next - scen.prev).reshape(-1)
    zeta, _, rank, _ = np.linalg.lstsq(A, -r, rcond=SV_RCOND)
    resid = (r + A @ zeta).reshape(scen.m, n)
    return unvec(zeta, n, n), float(np.mean(np.sum(resid**2, axis=1))), int(rank)


class TestVectorization:
    def test_identity(self):
        np.testing.assert_array_equal(vec(np.eye(2)), [1.0, 0.0, 0.0, 1.0])

    def test_column_major_order(self):
        M = np.array([["a", "c"], ["b", "d"]], dtype=object)
        assert list(vec(M)) == ["a", "b", "c", "d"]

    def test_unvec_round_trip(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((3, 5))
        np.testing.assert_array_equal(unvec(vec(M), 3, 5), M)
        with pytest.raises(ValueError):
            unvec(np.zeros(5), 2, 3)

    def test_product_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            Q, W, R = (rng.standard_normal((3, 3)) for _ in range(3))
            lhs = vec(Q @ W @ R)
            rhs = np.kron(R.T, Q) @ vec(W)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestRegressor:
    def test_basis_vector_places_coupling_block(self):
        rng = np.random.default_rng(2)
        lam = rng.uniform(0.5, 1.5, 3)
        L = np.eye(3) - np.ones((3, 3)) / 3
        A = regressor(np.eye(3)[0], lam, L)
        np.testing.assert_allclose(A[:, :3], lam[:, None] * L, atol=0)
        assert not A[:, 3:].any()

    def test_reproduces_coupled_action(self, sec5_coop):
        rng = np.random.default_rng(3)
        for _ in range(50):
            xi = rng.uniform(-2, 2, 4)
            A = regressor(xi, sec5_coop.system.lam, sec5_coop.system.laplacian)
            K = np.diag(sec5_coop.system.lam) @ sec5_coop.system.laplacian
            direct = K @ sec5_coop.system.appraisal @ xi
            np.testing.assert_allclose(A @ vec(sec5_coop.system.appraisal), direct, atol=1e-12)

    def test_zero_input(self, sec5_coop):
        A = regressor(np.zeros(4), sec5_coop.system.lam, sec5_coop.system.laplacian)
        assert not A.any()


class TestScenarios:
    def test_seed_determinism(self, sec5_coop):
        a = draw_scenarios(sec5_coop.system, 6, 42)
        b = draw_scenarios(sec5_coop.system, 6, 42)
        assert a.prev.tobytes() == b.prev.tobytes()
        assert a.next.tobytes() == b.next.tobytes()

    def test_rejects_empty(self, sec5_coop):
        with pytest.raises(ValidationError):
            draw_scenarios(sec5_coop.system, 0, 1)

    def test_pairs_satisfy_truth_dynamics(self, sec5_coop):
        scen = draw_scenarios(sec5_coop.system, 20, 7)
        M = sec5_coop.system.iteration_matrix()
        for t in range(scen.m):
            assert scen.next[t].tobytes() == (M @ scen.prev[t]).tobytes()

    def test_growth_preserves_prefix(self, sec5_coop):
        small = draw_scenarios(sec5_coop.system, 4, 13)
        large = draw_scenarios(sec5_coop.system, 9, 13)
        np.testing.assert_array_equal(large.prev[:4], small.prev)
        np.testing.assert_array_equal(large.next[:4], small.next)

    def test_noise_harness(self, sec5_coop):
        clean = draw_scenarios(sec5_coop.system, 5, 3)
        noisy = draw_scenarios(sec5_coop.system, 5, 3, noise=1e-3)
        np.testing.assert_array_equal(noisy.prev, clean.prev)
        delta = np.abs(noisy.next - clean.next)
        assert 0 < delta.max() <= 1e-3

    @pytest.mark.parametrize("kwargs", [
        {"seed": -1},
        {"seed": 1.5},
        {"seed": True},
        {"m": 2.0},
        {"m": True},
        {"m": 2**32 + 1},
        {"box": float("nan")},
        {"box": float("inf")},
        {"box": 1e308},
        {"noise": -1e-3},
        {"noise": float("nan")},
        {"noise": float("inf")},
    ])
    def test_rejects_inputs_outside_the_stream_contract(self, sec5_coop, kwargs):
        args = {"m": 4, "seed": 1, "box": 1.0, "noise": 0.0, **kwargs}
        with pytest.raises(ValidationError):
            draw_scenarios(sec5_coop.system, **args)
        m = args.pop("m")
        with pytest.raises(ValidationError):
            grow_sample_estimate(sec5_coop.system, 1e-12, m0=1, m_cap=m, **args)


def _oracle_rows(M, seed, rows, box, noise):
    """The per-row reference: one SeedSequence and Generator per substream."""
    prev, nxt = [], []
    for t in rows:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,)))
        prev.append(rng.uniform(-box, box, M.shape[0]))
        nxt.append(M @ prev[-1])
        if noise:
            nxt[-1] += rng.uniform(-noise, noise, M.shape[0])
    return np.array(prev), np.array(nxt)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.one_of(
        st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1, 2**64]),
        st.integers(0, 2**64),
        st.integers(2**128 + 1, 2**200),
    ),
    t_end=st.one_of(st.just(2**32), st.integers(1, 2**32)),
    count=st.integers(1, 4),
    n=st.integers(1, 24),
    box=st.sampled_from([1.0, 0.5, 3.75, 1e-3, 1e300]),
    noise=st.sampled_from([0.0, 1e-3, 0.25, 2.0]),
)
def test_drawer_matches_the_per_row_generator_oracle(seed, t_end, count, n, box, noise):
    rows = range(max(0, t_end - count), t_end)
    M = np.random.default_rng(n).uniform(-1.0, 1.0, (n, n))
    prev, nxt = estimate._draw_rows(M, seed, rows, box, noise)
    ref_prev, ref_next = _oracle_rows(M, seed, rows, box, noise)
    assert prev.tobytes() == ref_prev.tobytes()
    assert nxt.tobytes() == ref_next.tobytes()


def test_drawer_is_seamless_across_blocks():
    # With noise, n = 24 takes 48 doubles per row: the drawer splits a draw
    # of 2 * step + 10 rows into three blocks.
    n = 24
    step = _streams._BLOCK // (2 * n)
    M = np.random.default_rng(5).uniform(-1.0, 1.0, (n, n))
    prev, nxt = estimate._draw_rows(M, 2**70 + 9, range(2 * step + 10), 2.0, 0.5)
    seams = [0, step - 1, step, 2 * step - 1, 2 * step, 2 * step + 9]
    ref_prev, ref_next = _oracle_rows(M, 2**70 + 9, seams, 2.0, 0.5)
    assert prev[seams].tobytes() == ref_prev.tobytes()
    assert nxt[seams].tobytes() == ref_next.tobytes()


class TestSolve:
    def test_zero_residual_and_gauge_recovery(self, sec5_coop):
        truth = sec5_coop.system
        scen = draw_scenarios(truth, 8, 20240)
        res = solve_estimation(scen, truth.lam, truth.laplacian)
        assert res.gamma_star < 1e-18
        assert gauge_distance(res.d_hat, truth.appraisal) < 1e-8
        K = truth.lam[:, None] * truth.laplacian
        assert np.abs(K @ (res.d_hat - truth.appraisal)).max() < 1e-8
        # the returned level really is the mean squared residual at the optimum
        recomputed = residual_level(scen, truth.lam, truth.laplacian, res.d_hat)
        assert abs(recomputed - res.gamma_star) < 1e-10

    def test_local_optimality_probe(self, sec5_coop):
        truth = sec5_coop.system
        scen = draw_scenarios(truth, 8, 5)
        res = solve_estimation(scen, truth.lam, truth.laplacian)
        rng = np.random.default_rng(6)
        for _ in range(20):
            other = res.d_hat + rng.standard_normal((4, 4)) * 0.01
            assert residual_level(scen, truth.lam, truth.laplacian, other) >= res.gamma_star

    def test_single_sample_is_flagged_rank_deficient(self, sec5_coop):
        truth = sec5_coop.system
        scen = draw_scenarios(truth, 1, 1)
        res = solve_estimation(scen, truth.lam, truth.laplacian)
        assert not res.unique
        assert res.rank < 16

    def test_structural_rank_report(self, sec5_coop):
        # The Laplacian kills the all-ones direction, so even many samples
        # top out at N^2 - N independent columns.
        truth = sec5_coop.system
        scen = draw_scenarios(truth, 12, 9)
        res = solve_estimation(scen, truth.lam, truth.laplacian)
        assert res.rank == 12
        assert not res.unique

    def test_perturbed_observations_leave_a_residual_floor(self, sec5_coop):
        truth = sec5_coop.system
        scen = draw_scenarios(truth, 8, 20240, noise=1e-3)
        res = solve_estimation(scen, truth.lam, truth.laplacian)
        assert 1e-8 <= res.gamma_star <= 1e-4

    def test_truth_recovery_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            truth = random_consensus_system(rng, int(rng.integers(2, 5)))
            n = truth.n_agents
            scen = draw_scenarios(truth, max(n, 3), int(rng.integers(1, 10_000)))
            res = solve_estimation(scen, truth.lam, truth.laplacian)
            assert res.gamma_star < 1e-16
            assert gauge_distance(res.d_hat, truth.appraisal) < 1e-6

    def test_residual_monotone_on_noiseless_nested_sets(self, sec5_coop):
        truth = sec5_coop.system
        gammas = []
        for m in range(2, 12):
            scen = draw_scenarios(truth, m, 77)
            gammas.append(solve_estimation(scen, truth.lam, truth.laplacian).gamma_star)
        for a, b in zip(gammas, gammas[1:]):
            assert b <= a + 1e-25

    def test_determinism(self, sec5_coop):
        truth = sec5_coop.system
        r1 = solve_estimation(draw_scenarios(truth, 8, 123), truth.lam, truth.laplacian)
        r2 = solve_estimation(draw_scenarios(truth, 8, 123), truth.lam, truth.laplacian)
        assert r1.d_hat.tobytes() == r2.d_hat.tobytes()
        assert r1.gamma_star == r2.gamma_star

    def test_dimension_mismatch_is_a_validation_error(self, sec5_coop):
        truth = sec5_coop.system
        scen = draw_scenarios(truth, 6, 2)
        short_lam = truth.lam[:3]
        big_L = np.eye(5) - np.ones((5, 5)) / 5
        for lam, L in ((short_lam, truth.laplacian), (truth.lam, big_L)):
            with pytest.raises(ValidationError):
                solve_estimation(scen, lam, L)
        res = solve_estimation(scen, truth.lam, truth.laplacian)
        other = random_consensus_system(np.random.default_rng(3), 3)
        with pytest.raises(ValidationError):
            empirical_violation(res, other, trials=2, seed=1)


def _two_block_laplacian(rng, n):
    """Laplacian of two disconnected blocks: no spanning tree, rank <= n - 2."""
    k = n // 2
    L = np.zeros((n, n))
    L[:k, :k] = random_laplacian(rng, k, 0.6)
    L[k:, k:] = random_laplacian(rng, n - k, 0.6)
    return L


@st.composite
def _estimation_cases(draw):
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, 3 * n))
    noise = draw(st.sampled_from([0.0, 1e-3]))
    treeless = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    L = _two_block_laplacian(rng, n) if treeless else random_laplacian(rng, n, 0.5)
    lam = rng.uniform(0.5, 1.5, n)
    D = rng.uniform(-1.0, 1.0, (n, n))
    M = np.eye(n) - lam[:, None] * L @ D
    prev = rng.uniform(-1.0, 1.0, (m, n))
    nxt = prev @ M.T + rng.uniform(-noise, noise, (m, n))
    return ScenarioSet(prev=prev, next=nxt), lam, L


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_estimation_cases())
def test_structured_solve_matches_kronecker_lstsq(case):
    scen, lam, L = case
    n = scen.n_agents
    res = solve_estimation(scen, lam, L)
    d_ref, gamma_ref, rank_ref = kronecker_solve(scen, lam, L)
    assert res.rank == rank_ref
    assert res.unique == (rank_ref == n * n)
    np.testing.assert_allclose(res.d_hat, d_ref, rtol=0, atol=1e-10)
    # Noiseless optima sit at rounding level (~1e-30), where a relative
    # comparison means nothing; the absolute floor is far below any noisy level.
    assert math.isclose(res.gamma_star, gamma_ref, rel_tol=1e-10, abs_tol=1e-20)


def test_rank_follows_the_singular_value_cut_on_nearly_collinear_samples():
    # One direction of the samples is shrunk so that its singular-value
    # products fall either side of SV_RCOND: kept at 1e-7, cut at 1e-13.
    rng = np.random.default_rng(8)
    n, m = 5, 9
    L = random_spanning_tree_laplacian(rng, n)
    lam = rng.uniform(0.5, 1.5, n)
    M = np.eye(n) - lam[:, None] * L @ rng.uniform(-1.0, 1.0, (n, n))
    U, s, Vt = np.linalg.svd(rng.uniform(-1.0, 1.0, (m, n)), full_matrices=False)
    ranks = {}
    for squash in (1.0, 1e-7, 1e-13):
        prev = (U * (s * np.r_[np.ones(n - 1), squash])) @ Vt
        scen = ScenarioSet(prev=prev, next=prev @ M.T)
        res = solve_estimation(scen, lam, L)
        assert res.rank == kronecker_solve(scen, lam, L)[2]
        ranks[squash] = res.rank
    assert ranks[1.0] == ranks[1e-7] == n * (n - 1)
    assert ranks[1e-13] == (n - 1) * (n - 1)


class TestGrowthLoop:
    def test_noiseless_truth_stops_immediately(self, sec5_coop):
        m, res = grow_sample_estimate(sec5_coop.system, 1e-12, m0=1, seed=4)
        assert m <= sec5_coop.system.n_agents + 2
        assert res.gamma_star <= 1e-12

    def test_generous_target_returns_start(self, sec5_coop):
        m, _ = grow_sample_estimate(sec5_coop.system, 1e6, m0=5, seed=4)
        assert m == 5

    def test_noisy_floor_exhausts_cap(self, sec5_coop):
        with pytest.raises(NumericalError):
            grow_sample_estimate(
                sec5_coop.system, 1e-12, m0=1, m_cap=12, seed=4, noise=1e-2
            )

    @pytest.mark.parametrize("noise, seed", [(0.0, 4), (1e-2, 7)])
    def test_matches_solving_one_draw_of_the_final_size(self, sec5_coop, noise, seed):
        truth = sec5_coop.system

        def solve(m):
            scen = draw_scenarios(truth, m, seed, noise=noise)
            return solve_estimation(scen, truth.lam, truth.laplacian)

        # A target first met past m0 = 1, so the loop must append samples.
        gammas = [solve(m).gamma_star for m in range(1, 13)]
        gamma0 = min(gammas[1:])
        expected = 1 + next(i for i, g in enumerate(gammas) if g <= gamma0)
        assert expected > 1
        m, grown = grow_sample_estimate(truth, gamma0, m0=1, m_cap=12, seed=seed, noise=noise)
        direct = solve(expected)
        assert (m, grown.m_used) == (expected, expected)
        assert grown.d_hat.tobytes() == direct.d_hat.tobytes()
        assert grown.gamma_star == direct.gamma_star

    def test_draws_ahead_in_doubling_blocks(self, sec5_coop, monkeypatch):
        blocks = []
        draw_rows = estimate._draw_rows

        def counted(M, seed, rows, box, noise):
            blocks.append(rows)
            return draw_rows(M, seed, rows, box, noise)

        monkeypatch.setattr(estimate, "_draw_rows", counted)
        with pytest.raises(NumericalError):
            grow_sample_estimate(sec5_coop.system, 1e-12, m0=1, m_cap=12, seed=4, noise=1e-2)
        assert blocks == [range(0, 2), range(2, 6), range(6, 12)]

    def test_parameter_validation(self, sec5_coop):
        with pytest.raises(ValidationError):
            grow_sample_estimate(sec5_coop.system, 0.0)
        with pytest.raises(ValidationError):
            grow_sample_estimate(sec5_coop.system, 1e-6, m0=7, m_cap=3)
        for cap in (0, 2.5, True):
            with pytest.raises(ValidationError, match="^m_cap must be an integer >= 1"):
                grow_sample_estimate(sec5_coop.system, 1e-6, m_cap=cap)


class TestSampleBound:
    def test_one_dimensional_closed_form(self):
        q = SampleBoundQuery(d=1, epsilon=0.1, beta=0.01)
        m = sample_bound(q)
        assert m == 44
        assert m == int(np.ceil(np.log(0.01) / np.log(0.9)))

    def test_dimension_must_be_a_positive_integer(self):
        for d in (2.5, 4.0, 0, -3):
            with pytest.raises(ValidationError):
                SampleBoundQuery(d=d, epsilon=0.1, beta=0.01)
        assert sample_bound(SampleBoundQuery(d=np.int64(4), epsilon=0.1, beta=0.01)) == 97

    def test_trivial_confidence(self):
        assert sample_bound(SampleBoundQuery(d=1, epsilon=0.1, beta=0.9999)) == 1

    def test_four_dimensional_regression_value(self):
        # frozen after first computation with the direct tail-sum oracle
        q = SampleBoundQuery(d=4, epsilon=0.1, beta=0.01)
        m = sample_bound(q)
        assert m == 97
        assert binomial_tail(m, 4, 0.1) <= 0.01 < binomial_tail(m - 1, 4, 0.1)

    def test_bisection_matches_linear_scan(self):
        def scan(d, eps, beta):
            # For m*eps <= d-1 every median of Bin(m, eps) is <= d-1, so the
            # tail is >= 1/2 > beta there and the scan may start past it.
            assert beta < 0.5
            m = max(1, math.ceil(math.log(beta) / math.log1p(-eps)), math.floor((d - 1) / eps))
            while binomial_tail(m, d, eps) > beta:
                m += 1
            return m

        cases = [
            (d, e, b)
            for d in (1, 4, 16)
            for e in (0.05, 0.1, 0.2, 0.3, 0.4)
            for b in (0.001, 0.005, 0.01, 0.05, 0.1)
        ]
        cases += [(144, 0.1, 0.01), (900, 0.05, 0.01)]
        for d, e, b in cases:
            assert sample_bound(SampleBoundQuery(d, e, b)) == scan(d, e, b), (d, e, b)

    def test_paper_variant_regression_values(self):
        assert sample_bound(SampleBoundQuery(4, 0.1, 0.01, PAPER_LITERAL)) == 48
        assert sample_bound(SampleBoundQuery(16, 0.1, 0.01, PAPER_LITERAL)) == 60
        m = sample_bound(SampleBoundQuery(4, 0.1, 0.01, PAPER_LITERAL))
        assert paper_tail(m, 4, 0.1) <= 0.01 < paper_tail(m - 1, 4, 0.1)

    def test_monotonicity(self):
        for d in (1, 4):
            for formula in (CAMPI_GARATTI, PAPER_LITERAL):
                m_loose = sample_bound(SampleBoundQuery(d, 0.3, 0.1, formula))
                m_tight_eps = sample_bound(SampleBoundQuery(d, 0.1, 0.1, formula))
                m_tight_beta = sample_bound(SampleBoundQuery(d, 0.3, 0.01, formula))
                assert m_tight_eps >= m_loose
                assert m_tight_beta >= m_loose
        assert sample_bound(SampleBoundQuery(8, 0.2, 0.05)) >= sample_bound(
            SampleBoundQuery(2, 0.2, 0.05)
        )

    def test_query_validation(self):
        with pytest.raises(ValidationError):
            SampleBoundQuery(d=0, epsilon=0.1, beta=0.1)
        with pytest.raises(ValidationError):
            SampleBoundQuery(d=True, epsilon=0.1, beta=0.1)
        with pytest.raises(ValidationError):
            SampleBoundQuery(d=1, epsilon=1.5, beta=0.1)
        with pytest.raises(ValidationError):
            SampleBoundQuery(d=1, epsilon=0.1, beta=0.0)
        with pytest.raises(ValidationError):
            SampleBoundQuery(d=1, epsilon=0.1, beta=0.1, formula="guess")


class TestViolation:
    def test_exact_recovery_never_violates(self, sec5_coop):
        truth = sec5_coop.system
        scen = draw_scenarios(truth, 8, 0)
        res = solve_estimation(scen, truth.lam, truth.laplacian)
        assert empirical_violation(res, truth, trials=50, seed=99) == 0.0

    def test_unoptimized_candidate_violates_almost_surely(self, sec5_coop):
        truth = sec5_coop.system
        scen = draw_scenarios(truth, 8, 0)
        res = solve_estimation(scen, truth.lam, truth.laplacian)
        rng = np.random.default_rng(10)
        bogus = res.__class__(
            d_hat=rng.standard_normal((4, 4)),
            gamma_star=res.gamma_star,
            m_used=res.m_used,
            rank=res.rank,
            unique=res.unique,
        )
        assert empirical_violation(bogus, truth, trials=50, seed=99) > 0.9

    def test_matches_the_per_trial_residual_loop(self, sec5_coop):
        # Estimates nudged off the truth give residuals near the 1e-12
        # margin, so the fractions fall strictly between 0 and 1.
        truth = sec5_coop.system
        rng = np.random.default_rng(5)
        fractions = []
        for rep in range(12):
            res = solve_estimation(draw_scenarios(truth, 8, rep), truth.lam, truth.laplacian)
            D = res.d_hat + rng.standard_normal((4, 4)) * 10 ** rng.uniform(-7.5, -5.5)
            nudged = res.__class__(d_hat=D, gamma_star=0.0, m_used=1 + rep % 3,
                                   rank=res.rank, unique=res.unique)
            children = np.random.SeedSequence(rep).spawn(40)
            hits = 0
            for child in children:
                batch_seed = int(np.random.default_rng(child).integers(0, 2**63 - 1))
                scen = draw_scenarios(truth, nudged.m_used, batch_seed)
                hits += residual_level(scen, truth.lam, truth.laplacian, D) > 1e-12
            fraction = empirical_violation(nudged, truth, trials=40, seed=rep)
            assert fraction == hits / 40
            fractions.append(fraction)
        assert any(0.0 < f < 1.0 for f in fractions)

    def test_trials_validation(self, sec5_coop):
        truth = sec5_coop.system
        res = solve_estimation(draw_scenarios(truth, 4, 0), truth.lam, truth.laplacian)
        with pytest.raises(ValidationError):
            empirical_violation(res, truth, trials=0, seed=1)
        for kwargs in ({"trials": 2.0, "seed": 1}, {"trials": True, "seed": 1},
                       {"trials": 2, "seed": -1},
                       {"trials": 2, "seed": 1, "box": float("nan")}):
            with pytest.raises(ValidationError):
                empirical_violation(res, truth, **kwargs)


class TestGaugeDistance:
    def test_zero_for_row_shifted_copies(self, sec5_coop):
        rng = np.random.default_rng(12)
        D = sec5_coop.system.appraisal
        shift = np.outer(np.ones(4), rng.standard_normal(4))
        assert gauge_distance(D + shift, D) < 1e-15

    def test_positive_for_genuine_differences(self, sec5_coop):
        D = sec5_coop.system.appraisal
        other = D.copy()
        other[0, 0] += 0.3
        assert gauge_distance(other, D) > 0.1
