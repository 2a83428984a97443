"""Eigenstructure, classification verdicts, and limit prediction."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opiniondyn import fixtures as fx
from opiniondyn.errors import AmbiguousSpectrumError, NumericalError, ValidationError
from opiniondyn.netcore import SystemSpec
from opiniondyn.simulate import run
from opiniondyn.spectral import (
    CONSENSUS,
    CONVERGENCE,
    DIVERGENT,
    NEITHER,
    ROW_SUMS_MINUS_ONE,
    ROW_SUMS_ZERO,
    STABILITY,
    antagonistic_consensus_structure,
    classify_multi_issue,
    classify_system,
    _unit_pair,
    eigen,
    powers_converge,
    predict_limit,
)

from conftest import (
    cubic_real_roots,
    match_eigenvalue_multisets,
    multi_issue_matrix,
    random_consensus_system,
    random_spanning_tree_laplacian,
    random_stochastic,
)


@pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, 1.0, 2.0])
def test_a_tol_eig_outside_the_unit_interval_is_rejected(sec5_coop, tol):
    spec = sec5_coop.with_mids()
    calls = [
        lambda: classify_system(spec, tol_eig=tol),
        lambda: predict_limit(spec, np.zeros(spec.n_agents), tol_eig=tol),
        lambda: classify_multi_issue(spec, tol_eig=tol),
        lambda: powers_converge(spec.mids, tol_eig=tol),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="^tol_eig must be"):
            call()


def char_poly_roots_3x3(M: np.ndarray) -> list[float]:
    """Independent oracle: characteristic polynomial by minors, closed-form roots."""
    tr = M.trace()
    m2 = sum(
        np.linalg.det(M[np.ix_([i, j], [i, j])])
        for i in range(3)
        for j in range(i + 1, 3)
    )
    det = np.linalg.det(M)
    # lambda^3 - tr*lambda^2 + m2*lambda - det = 0, ascending coefficients
    return cubic_real_roots(-det, m2, -tr, 1.0)


class TestEigen:
    def test_identity(self):
        np.testing.assert_allclose(eigen(np.eye(3)), [1.0, 1.0, 1.0], atol=1e-14)

    def test_ring_system_against_cubic_oracle(self, example1):
        M = example1.system.iteration_matrix()
        oracle = char_poly_roots_3x3(M)
        got = sorted(eigen(M).real, key=lambda v: -v)
        np.testing.assert_allclose(sorted(oracle, reverse=True), got, atol=1e-10)
        np.testing.assert_allclose(got, [1.0, 0.5276, 0.0474], atol=1e-3)

    def test_issue_coupling_spectrum(self):
        w = eigen(fx.ISSUE_COUPLING_ANTAG)
        np.testing.assert_allclose(sorted(np.abs(w), reverse=True), [1.0, 0.3], atol=1e-10)

    def test_trace_consistency(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            M = rng.standard_normal((n, n))
            w = eigen(M)
            assert abs(w.sum() - M.trace()) <= 1e-8 * max(1.0, abs(M.trace()))

    def test_coupling_product_has_zero_eigenvalue(self):
        # The update's generator always inherits the Laplacian's zero mode.
        rng = np.random.default_rng(37)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            L = random_spanning_tree_laplacian(rng, n)
            D = random_stochastic(rng, n)
            lam = rng.uniform(0.2, 2.0, n) * np.sign(rng.uniform(-1, 1, n))
            A = np.diag(lam) @ L @ D
            w = eigen(A)
            assert np.abs(w).min() <= 1e-8 * max(1.0, np.abs(A).max())

    def test_kronecker_spectrum_pairing(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            p = int(rng.integers(2, 5))
            A = rng.standard_normal((n, n))
            C = rng.standard_normal((p, p))
            products = np.array([a * c for a in eigen(A) for c in eigen(C)])
            direct = eigen(np.kron(A, C))
            scale = max(1.0, np.abs(products).max())
            match_eigenvalue_multisets(products, direct, tol=1e-8 * scale)


class TestClassify:
    def test_ring_consensus(self, example1):
        rep = classify_system(example1.system)
        assert rep.classification == CONSENSUS
        assert rep.unit_eigen_count == 1
        assert rep.rho_rest < 1
        np.testing.assert_allclose(rep.right_vec, np.ones(3), atol=1e-9)
        np.testing.assert_allclose(rep.left_vec, [1.25, -0.125, -0.125], atol=1e-9)
        assert abs(rep.left_vec @ rep.right_vec - 1.0) < 1e-12

    def test_antagonistic_clusters(self, sec5_antag):
        rep = classify_system(sec5_antag.system)
        assert rep.classification == CONVERGENCE
        assert rep.unit_eigen_count == 1

    def test_averaging_reduction(self):
        # Identity appraisal with a uniform small gain is plain Laplacian
        # averaging; scale so the direct eigenvalue check passes.
        rng = np.random.default_rng(43)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            L = random_spanning_tree_laplacian(rng, n)
            L = L * (4.9 / L.diagonal().max())
            spec = SystemSpec(np.full(n, 0.1), L, np.eye(n))
            rep = classify_system(spec)
            assert rep.classification == CONSENSUS
            direct = np.abs(eigen(np.eye(n) - 0.1 * L))
            assert sorted(direct)[-2] < 1

    def test_stability_verdict(self):
        spec = SystemSpec([1.0, 1.0], [[1.0, -1.0], [-1.0, 1.0]], 0.25 * np.eye(2))
        # eigenvalues of I - 0.25*L: {1 - 0, 1 - 0.5} -> unit eigenvalue stays
        rep = classify_system(spec)
        assert rep.classification == CONSENSUS
        shrunk = SystemSpec([1.0, 1.0], [[1.0, -0.5], [-0.5, 1.0]], np.eye(2) * 0.9)
        rep2 = classify_system(shrunk)
        assert rep2.classification == STABILITY
        assert rep2.left_vec is None and rep2.right_vec is None

    def test_ambiguous_unit_cluster_raises(self):
        # Block-triangular Laplacian with spectrum {0, 1.0, 6e-9}: two
        # eigenvalues of the update land within tol of one but apart from
        # each other.
        t = 6e-9
        L = np.array([[0.5, -0.5, 0.0], [-0.5, 0.5, 0.0], [-t, 0.0, t]])
        spec = SystemSpec(np.ones(3), L, np.eye(3))
        with pytest.raises(AmbiguousSpectrumError):
            classify_system(spec, tol_eig=1e-8)

    def test_exact_double_unit_is_divergent_or_marginal(self):
        L = np.array([[0.5, -0.5, 0.0], [-0.5, 0.5, 0.0], [0.0, 0.0, 0.0]])
        spec = SystemSpec(np.ones(3), L, np.eye(3))
        rep = classify_system(spec)
        assert rep.classification == DIVERGENT
        assert rep.unit_eigen_count == 2


def _complex_svd_pair(M: np.ndarray):
    """Reference unit pair: the smallest singular vectors of the complex
    ``M - I`` and of its conjugate transpose, rotated onto the real axis and
    normalized as the classifier normalizes its pair."""

    def null_vector(S):
        v = np.linalg.svd(S)[2][-1].conj()
        v = v * np.exp(-1j * np.angle(v[np.argmax(np.abs(v))]))
        assert np.abs(v.imag).max() <= 1e-9 * np.abs(v.real).max()
        return v.real

    S = M.astype(complex) - np.eye(M.shape[0])
    iota = null_vector(S)
    sigma = null_vector(S.conj().T)
    iota = iota / iota[np.argmax(np.abs(iota))]
    return sigma / (sigma @ iota), iota


def _dyadic_system(rng: np.random.Generator, n: int) -> SystemSpec:
    """A system whose update matrix is exact in floating point: integer
    Laplacian with a ring backbone, diagonally dominant row-stochastic
    appraisal in sixteenths and a power-of-two gain, so ones is exactly a
    unit right eigenvector."""
    W = rng.integers(0, 4, (n, n)) * (rng.random((n, n)) < 0.5)
    W[np.arange(n), np.roll(np.arange(n), 1)] = rng.integers(1, 4, n)
    np.fill_diagonal(W, 0)
    L = np.diag(W.sum(axis=1)) - W
    D = (8 * np.eye(n) + rng.multinomial(8, np.full(n, 1.0 / n), size=n)) / 16.0
    gain = 2.0 ** -int(np.ceil(np.log2(2 * W.sum(axis=1).max())))
    return SystemSpec(np.full(n, gain), L.astype(float), D)


def _exact_alpha(M: np.ndarray, x0: np.ndarray) -> Fraction:
    """``sigma @ x0`` for the exact left unit vector of the float matrix ``M``
    normalized to ``sigma @ ones == 1``, by Gaussian elimination on the
    bordered system in rational arithmetic."""
    n = M.shape[0]
    A = [
        [Fraction(float(M[j, i])) - (i == j) for j in range(n)] + [Fraction(1), Fraction(0)]
        for i in range(n)
    ]
    A.append([Fraction(1)] * n + [Fraction(0), Fraction(1)])
    for c in range(n + 1):
        p = next(r for r in range(c, n + 1) if A[r][c] != 0)
        A[c], A[p] = A[p], A[c]
        for r in range(n + 1):
            if r != c and A[r][c] != 0:
                f = A[r][c] / A[c][c]
                A[r] = [a - f * b for a, b in zip(A[r], A[c])]
    sigma = [A[i][n + 1] / A[i][i] for i in range(n)]
    return sum(s * Fraction(float(x)) for s, x in zip(sigma, x0))


class TestUnitPair:
    def test_unit_pair_residual_contract(self, example1, sec5_coop, sec5_antag):
        rng = np.random.default_rng(71)
        systems = [example1.system, sec5_coop.system, sec5_antag.system]
        systems += [random_consensus_system(rng, int(rng.integers(2, 8))) for _ in range(20)]
        for spec in systems:
            rep = classify_system(spec)
            M = spec.iteration_matrix()
            S = M - np.eye(spec.n_agents)
            iota, sigma = rep.right_vec, rep.left_vec
            right = np.abs(S @ iota).max() / np.abs(iota).max()
            left = np.abs(sigma @ S).max() / np.abs(sigma).max()
            assert max(right, left) <= rep.eigvec_residual <= 1e-8 * np.abs(M).max()

    def test_alpha_matches_exact_rational_limit(self):
        rng = np.random.default_rng(59)
        checked = 0
        for _ in range(60):
            spec = _dyadic_system(rng, int(rng.integers(2, 7)))
            try:
                rep = classify_system(spec)
            except AmbiguousSpectrumError:  # a singular appraisal can crowd the unit point
                continue
            if rep.classification != CONSENSUS:
                continue
            M = spec.iteration_matrix()
            assert np.array_equal(M @ np.ones(spec.n_agents), np.ones(spec.n_agents))
            x0 = rng.uniform(0.0, 10.0, spec.n_agents)
            alpha = predict_limit(spec, x0, report=rep).alpha
            exact = float(_exact_alpha(M, x0))
            # Rounding sigma and summing sigma @ x0 in floating point can
            # each cost an ulp or two.
            assert abs(alpha - exact) <= 4 * np.spacing(exact)
            checked += 1
        assert checked >= 40

    def test_consensus_limit_entries_are_bitwise_equal(self, example1):
        rng = np.random.default_rng(61)
        systems = [(example1.system, example1.x0)]
        for _ in range(30):
            spec = random_consensus_system(rng, int(rng.integers(2, 8)))
            systems.append((spec, rng.uniform(-10, 10, spec.n_agents)))
        for spec, x0 in systems:
            rep = classify_system(spec)
            np.testing.assert_array_equal(rep.right_vec, np.ones(spec.n_agents))
            phi = predict_limit(spec, x0, report=rep).phi
            assert (phi == phi[0]).all()

    def test_cluster_pair_matches_complex_svd_oracle(self, sec5_antag):
        rng = np.random.default_rng(67)
        systems = [sec5_antag.system]
        while len(systems) < 40:
            n = int(rng.integers(2, 8))
            L = random_spanning_tree_laplacian(rng, n)
            D = random_stochastic(rng, n) * rng.uniform(0.6, 0.9, n)[:, None]
            spec = SystemSpec(np.full(n, 0.3 / L.diagonal().max()), L, D)
            if classify_system(spec).classification == CONVERGENCE:
                systems.append(spec)
        for spec in systems:
            rep = classify_system(spec)
            assert rep.classification == CONVERGENCE
            sigma, iota = _complex_svd_pair(spec.iteration_matrix())
            np.testing.assert_allclose(rep.right_vec, iota, rtol=0, atol=1e-10)
            np.testing.assert_allclose(rep.left_vec, sigma, rtol=0, atol=1e-10)

    def test_defective_unit_eigenvalue_raises(self):
        with pytest.raises(NumericalError, match="defective"):
            _unit_pair(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_health_figures_stay_out_of_the_json(self, example1, sec5_antag):
        shrunk = SystemSpec([1.0, 1.0], [[1.0, -0.5], [-0.5, 1.0]], np.eye(2) * 0.9)
        for spec in (example1.system, sec5_antag.system, shrunk):
            rep = classify_system(spec)
            w = rep.eigenvalues
            rest = w[np.abs(w - 1.0) > 1e-8]
            assert rep.unit_gap == np.abs(rest - 1.0).min()
            assert (rep.eigvec_residual is None) == (rep.left_vec is None)
            assert set(rep.to_json_dict()) == {"eigenvalues", "classification", "rho_rest"}


class TestPredictLimit:
    def test_leader_system(self, sec5_coop):
        pred = predict_limit(sec5_coop.system, sec5_coop.x0)
        np.testing.assert_allclose(pred.phi, np.full(4, 75.0), atol=1e-9)
        traj = run(sec5_coop.system, sec5_coop.x0, max_steps=500)
        np.testing.assert_allclose(traj.final, pred.phi, atol=1e-6)

    def test_zero_initial_condition(self, example1):
        pred = predict_limit(example1.system, np.zeros(3))
        np.testing.assert_array_equal(pred.phi, np.zeros(3))

    def test_ring_limit_matches_long_run(self, example1):
        pred = predict_limit(example1.system, example1.x0)
        assert pred.alpha is not None
        traj = run(example1.system, example1.x0, max_steps=200, tol_conv=1e-14)
        np.testing.assert_allclose(traj.final, pred.phi, atol=1e-6)

    @pytest.mark.parametrize("x0", [[np.nan, 1.0, 2.0], [1.0, np.inf, 2.0], [1.0, 2.0]])
    def test_rejects_bad_starts(self, example1, x0):
        with pytest.raises(ValidationError):
            predict_limit(example1.system, x0)

    def test_refuses_divergent_systems(self):
        spec = SystemSpec([5.0, 5.0], [[1.0, -1.0], [-1.0, 1.0]], np.eye(2))
        with pytest.raises(ValidationError):
            predict_limit(spec, [1.0, 2.0])

    def test_prediction_simulation_agreement(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            spec = random_consensus_system(rng, int(rng.integers(2, 6)))
            rep = classify_system(spec)
            x0 = rng.uniform(-10, 10, spec.n_agents)
            pred = predict_limit(spec, x0, report=rep)
            steps = int(np.ceil(np.log(1e-9) / np.log(max(rep.rho_rest, 1e-6)))) + 20
            traj = run(spec, x0, max_steps=max(steps, 50), tol_conv=1e-14, window=5)
            np.testing.assert_allclose(traj.final, pred.phi, atol=1e-6)


class TestAntagonisticStructure:
    def test_zero_row_sums(self):
        assert antagonistic_consensus_structure(fx.EXAMPLE1_APPRAISAL) == ROW_SUMS_ZERO

    def test_negated_identity(self):
        assert antagonistic_consensus_structure(-np.eye(3)) == ROW_SUMS_MINUS_ONE

    def test_mixed_rows(self):
        assert antagonistic_consensus_structure(fx.ANTAG_APPRAISAL) == NEITHER

    def test_rejects_cooperative(self):
        with pytest.raises(ValidationError):
            antagonistic_consensus_structure(fx.COOP_APPRAISAL)

    def test_consensus_implies_structure(self, example1):
        # Random antagonistic systems that classify as consensus must carry
        # one of the two admissible row-sum signatures.  The bundled ring is
        # a known positive case.
        rep = classify_system(example1.system)
        assert rep.classification == CONSENSUS
        assert antagonistic_consensus_structure(fx.EXAMPLE1_APPRAISAL) != NEITHER
        rng = np.random.default_rng(53)
        checked = 0
        for _ in range(300):
            n = int(rng.integers(2, 5))
            D = random_stochastic(rng, n) * np.sign(rng.uniform(-1, 1, (n, n)))
            if (D >= 0).all():
                continue
            L = random_spanning_tree_laplacian(rng, n)
            spec = SystemSpec(rng.uniform(0.05, 0.3, n), L, D)
            try:
                rep = classify_system(spec)
            except AmbiguousSpectrumError:
                continue
            if rep.classification == CONSENSUS:
                assert antagonistic_consensus_structure(D) != NEITHER
                checked += 1
        # Antagonistic consensus is rare under this generator; the anchored
        # case above guarantees the implication is exercised at least once.


class TestMultiIssue:
    def test_damped_cooperative_coupling_is_stable(self, sec5_coop):
        assert classify_multi_issue(sec5_coop.with_mids(damped=True)) == "stable"

    def test_antagonistic_coupling_is_convergent(self, sec5_antag):
        assert classify_multi_issue(sec5_antag.with_mids()) == "convergent"

    def test_amplifying_coupling_diverges(self, sec5_coop):
        spec = SystemSpec(
            sec5_coop.system.lam,
            sec5_coop.system.laplacian,
            sec5_coop.system.appraisal,
            mids=2.0 * np.eye(2),
        )
        assert classify_multi_issue(spec) == DIVERGENT
        # power-iteration oracle on the materialized matrix confirms growth
        K = multi_issue_matrix(spec)
        v = np.ones(K.shape[0]) / np.sqrt(K.shape[0])
        growth = []
        for _ in range(60):
            v = K @ v
            growth.append(np.linalg.norm(v))
            v = v / growth[-1]
        assert growth[-1] > 1.0 + 1e-6

    def test_requires_simple_unit_eigenvalue(self):
        spec = SystemSpec(
            [1.0, 1.0],
            [[1.0, -0.5], [-0.5, 1.0]],
            0.9 * np.eye(2),
            mids=np.eye(2),
        )
        with pytest.raises(ValidationError):
            classify_multi_issue(spec)


def _cycle_system(C) -> SystemSpec:
    """Consensus on a directed 3-cycle: L = 0.3 (I - P), D = I, lambda = 1."""
    P = np.roll(np.eye(3), 1, axis=1)
    return SystemSpec(np.ones(3), 0.3 * (np.eye(3) - P), np.eye(3), mids=C)


@pytest.mark.parametrize("C", [[[0.0, 1.0], [1.0, 0.0]], [[1.0, 1.0], [0.0, 1.0]]],
                         ids=["swap", "jordan"])
def test_marginal_coupling_without_a_limit_is_not_convergent(C):
    spec = _cycle_system(C)
    assert classify_system(spec).classification == CONSENSUS
    assert not powers_converge(C)
    assert classify_multi_issue(spec) == DIVERGENT


def _coupling(draw, kind: str, k: int, rng) -> np.ndarray:
    if kind == "permutation":
        return np.eye(k)[rng.permutation(k)]
    if kind == "rotation":
        t = draw(st.floats(0.1, 3.0))
        return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    if kind == "jordan":
        return np.array([[1.0, 1.0], [0.0, 1.0]]) * draw(st.sampled_from([1.0, -1.0, 0.5]))
    if kind == "stochastic":
        return random_stochastic(rng, k)
    inner = _coupling(draw, draw(st.sampled_from(["permutation", "rotation", "jordan",
                                                  "stochastic"])), k, rng)
    return draw(st.floats(0.2, 0.9)) * inner


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4),
       k=st.integers(2, 3),
       kind=st.sampled_from(["permutation", "rotation", "jordan", "stochastic", "damped"]))
def test_multi_issue_verdict_certifies_that_the_powers_converge(data, seed, n, k, kind):
    rng = np.random.default_rng(seed)
    base = random_consensus_system(rng, n)
    C = _coupling(data.draw, kind, k, rng)
    spec = SystemSpec(base.lam, base.laplacian, base.appraisal, mids=C)
    verdict = classify_multi_issue(spec)
    assert (verdict in ("convergent", "stable")) == powers_converge(multi_issue_matrix(spec))


class TestPowersConverge:
    def test_symmetric_coupling(self):
        assert powers_converge(np.array([[0.9, 0.1], [0.1, 0.9]]))

    def test_defective_unit_block(self):
        assert not powers_converge(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_damped_coupling(self):
        C = 0.95 * fx.ISSUE_COUPLING_ANTAG
        w = np.abs(eigen(C))
        np.testing.assert_allclose(sorted(w, reverse=True), [0.95, 0.285], atol=1e-12)
        assert powers_converge(C)

    def test_rotation_does_not_converge(self):
        theta = 0.3
        R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        assert not powers_converge(R)
