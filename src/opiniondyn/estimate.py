"""Scenario-based identification of the private appraisal matrix.

From i.i.d. one-step opinion pairs and the known susceptibility/Laplacian
pair, the appraisal weights enter linearly: the stacked residual is
``r + (prev ⊗ K) vec(D)`` with ``K = diag(lambda) L``, so the residual program
reduces to least squares.  Its minimum-norm solution has Penrose's closed
form ``D = -K⁺ Rᵀ (prevᵀ)⁺``, solved here from the SVDs of the two Kronecker
factors without building the ``(m·n)×n²`` regressor.  The module also
carries the try-once-grow sampling loop, exact binomial-tail sample-size
bounds, and a Monte-Carlo check of the violation probability.

The scenario stream contract: row t of a draw from ``seed`` comes from
substream t, ``np.random.default_rng(np.random.SeedSequence(seed,
spawn_key=(t,)))``.  On it the n uniforms on ``[-box, box]`` for ``prev``
come first, then (when ``noise`` is set) the n uniforms on
``[-noise, noise]`` added to ``next``.  A row therefore never depends on how
many rows are drawn; :mod:`._streams` draws all rows of a call in one
vectorized pass with exactly these values.

A structural caution that shapes the outputs here: the Laplacian annihilates
the all-ones vector, so the data can never distinguish the true appraisal
matrix from a copy with a constant row vector added (the regressor kernel is
exactly that gauge).  Estimates therefore recover the action ``L @ D``
uniquely, while ``D`` itself is pinned only up to the gauge;
:func:`gauge_distance` measures recovery modulo it.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass

import numpy as np

from ._streams import MAX_KEYS, substream_doubles
from .errors import NumericalError, ValidationError
from .netcore import SystemSpec, as_matrix, as_vector, check_count, check_number

logger = logging.getLogger(__name__)

SV_RCOND = 1e-10
# A fresh batch violates an estimate when its residual exceeds gamma_star by more.
VIOLATION_TOL = 1e-12
CAMPI_GARATTI = "campi_garatti"
PAPER_LITERAL = "paper_literal"
# A uniform draw on [-w, w] needs its width 2w finite, as numpy's uniform does.
_MAX_HALF_WIDTH = sys.float_info.max / 2


@dataclass(frozen=True)
class ScenarioSet:
    """m observed one-step opinion pairs."""

    prev: np.ndarray
    next: np.ndarray

    @property
    def m(self) -> int:
        return self.prev.shape[0]

    @property
    def n_agents(self) -> int:
        return self.prev.shape[1]


@dataclass(frozen=True)
class EstimationResult:
    """Least-squares appraisal estimate with its residual level and rank report."""

    d_hat: np.ndarray
    gamma_star: float
    m_used: int
    rank: int
    unique: bool

    def to_json_dict(self) -> dict:
        return {
            "d_hat": self.d_hat.tolist(),
            "gamma_star": float(self.gamma_star),
            "m_used": int(self.m_used),
            "rank": int(self.rank),
            "unique": bool(self.unique),
        }


@dataclass(frozen=True)
class SampleBoundQuery:
    """Inputs of the exact scenario sample-size bound."""

    d: int
    epsilon: float
    beta: float
    formula: str = CAMPI_GARATTI

    def __post_init__(self):
        check_count("decision dimension d", self.d)
        if not 0.0 < self.epsilon < 1.0:
            raise ValidationError("epsilon must lie in (0, 1)")
        if not 0.0 < self.beta < 1.0:
            raise ValidationError("beta must lie in (0, 1)")
        if self.formula not in (CAMPI_GARATTI, PAPER_LITERAL):
            raise ValidationError(f"unknown bound formula {self.formula!r}")


def _check_draw(seed, m, box, noise=0.0) -> None:
    """Reject draw inputs the scenario stream contract does not cover."""
    check_count("seed", seed, low=0)
    if check_count("scenario count", m) > MAX_KEYS:
        raise ValidationError(f"at most {MAX_KEYS} scenarios (one substream each)")
    if not 0 < box <= _MAX_HALF_WIDTH:
        raise ValidationError(f"box must be positive and finite, got {box!r}")
    if not 0 <= noise <= _MAX_HALF_WIDTH:
        raise ValidationError(f"noise must be non-negative and finite, got {noise!r}")


def _draw_rows(M: np.ndarray, seed: int, rows: range, box: float, noise: float):
    """Rows ``rows`` of the scenario draw, under the module's stream contract.

    Row t is substream t of ``seed``: n uniforms on ``[-box, box]`` for
    ``prev``, then n on ``[-noise, noise]`` when ``noise`` is set.  The
    next rows are ``np.matmul(M, prev[:, :, None])``, which multiplies row by
    row with the same kernel as ``M @ prev[t]``; a stacked ``prev @ M.T``
    would round rows differently as m grows and break the prefix property.
    """
    n = M.shape[0]
    u = substream_doubles(int(seed), rows.start, rows.stop, 2 * n if noise else n)
    prev = _uniform(u[:, :n], box)
    nxt = np.matmul(M, prev[:, :, None])[:, :, 0]
    if noise:
        nxt += _uniform(u[:, n:], noise)
    return prev, nxt


def _uniform(u: np.ndarray, half_width: float) -> np.ndarray:
    """``Generator.uniform(-half_width, half_width)`` from its doubles ``u``."""
    low, high = -float(half_width), float(half_width)
    return low + (high - low) * u


def draw_scenarios(
    truth: SystemSpec, m: int, seed: int, box: float = 1.0, noise: float = 0.0
) -> ScenarioSet:
    """Sample m i.i.d. pairs: uniform starts on [-box, box]^N, one exact true step.

    Each sample uses its own spawned substream, so a draw of m+1 scenarios
    extends a draw of m without disturbing the earlier samples.  ``noise``
    adds a uniform perturbation of that amplitude to the observed next
    opinions (a fixed measurement-error harness; the default is noiseless).
    """
    _check_draw(seed, m, box, noise)
    prev, nxt = _draw_rows(truth.iteration_matrix(), seed, range(m), box, noise)
    return ScenarioSet(prev=prev, next=nxt)


def _coupling(n: int, lam, L) -> np.ndarray:
    """``K = diag(lambda) L``, checked against the agent count ``n``."""
    lam = as_vector(lam, "lambda")
    L = as_matrix(L, "laplacian")
    if lam.size != n or L.shape[0] != n:
        raise ValidationError(
            f"dimension {n} does not match lambda ({lam.size}) / "
            f"laplacian ({L.shape[0]})"
        )
    return lam[:, None] * L


def _mean_sq_residual(scen: ScenarioSet, KD: np.ndarray) -> float:
    """Mean squared residual of the pairs under the coupling action ``KD = K @ D``."""
    E = scen.next - scen.prev + scen.prev @ KD.T
    return float(np.mean(np.sum(E * E, axis=1)))


def solve_estimation(scen: ScenarioSet, lam, L) -> EstimationResult:
    """Minimize the mean squared one-step residual over vec(D) by least squares.

    With ``K = U_K S_K V_Kᵀ`` and ``prev = U_P S_P V_Pᵀ``, the singular values
    of the stacked regressor ``prev ⊗ K`` are the products ``s_K[i]·s_P[j]``.
    Products at or below ``SV_RCOND`` times the largest are cut, which is the
    cut LAPACK's least-squares driver makes on the stacked matrix at that
    ``rcond``, and the rank is the number kept.  When it falls short of N²
    (it always does by at least N, see the module note) the minimum-norm
    candidate is returned and flagged non-unique.
    """
    n = scen.n_agents
    K = _coupling(n, lam, L)
    R = scen.next - scen.prev
    U_k, s_k, Vt_k = np.linalg.svd(K)
    U_p, s_p, Vt_p = np.linalg.svd(scen.prev, full_matrices=False)
    s = np.outer(s_k, s_p)
    keep = s > SV_RCOND * s.max()
    C = np.zeros_like(s)
    np.divide(-(U_k.T @ R.T @ U_p), s, out=C, where=keep)
    d_hat = Vt_k.T @ C @ Vt_p
    rank = int(np.count_nonzero(keep))
    unique = rank == n * n
    if not unique:
        logger.info(
            "estimation regressor rank %d < %d unknowns; returning the minimum-norm "
            "candidate (appraisal identified modulo a constant row vector)",
            rank,
            n * n,
        )
    return EstimationResult(
        d_hat=d_hat,
        gamma_star=_mean_sq_residual(scen, K @ d_hat),
        m_used=scen.m,
        rank=rank,
        unique=unique,
    )


def grow_sample_estimate(
    truth: SystemSpec,
    gamma0: float,
    m0: int = 1,
    m_cap: int = 200,
    seed: int = 0,
    box: float = 1.0,
    noise: float = 0.0,
) -> tuple[int, EstimationResult]:
    """Grow the scenario set one sample at a time until the residual target holds.

    Earlier samples are kept on every growth step and each is drawn once, so
    the set at size m equals ``draw_scenarios(truth, m, seed, box, noise)``;
    fails when the cap is reached with the residual still above ``gamma0``.
    Rows are drawn ahead, to twice the size needed (capped at ``m_cap``), so
    growth takes O(log m) draws; that changes nothing since rows are
    prefix-stable.
    """
    gamma0 = check_number("gamma0", gamma0)
    check_count("m_cap", m_cap)
    _check_draw(seed, m_cap, box, noise)
    if check_count("m0", m0) > m_cap:
        raise ValidationError(f"need m0 <= m_cap, got m0={m0} and m_cap={m_cap}")
    M = truth.iteration_matrix()
    prev = nxt = np.empty((0, M.shape[0]))
    m = m0
    while True:
        if m > len(prev):
            p, q = _draw_rows(M, seed, range(len(prev), min(m_cap, 2 * m)), box, noise)
            prev, nxt = np.vstack([prev, p]), np.vstack([nxt, q])
        scen = ScenarioSet(prev=prev[:m], next=nxt[:m])
        result = solve_estimation(scen, truth.lam, truth.laplacian)
        if result.gamma_star <= gamma0:
            return m, result
        if m >= m_cap:
            raise NumericalError(
                f"residual {result.gamma_star:.3e} still above {gamma0:.3e} at the "
                f"sample cap m={m_cap}"
            )
        logger.debug("residual %.3e > %.3e at m=%d; appending a scenario", result.gamma_star, gamma0, m)
        m += 1


def _log_binom(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def binomial_tail(m: int, d: int, epsilon: float) -> float:
    """P[Binomial(m, epsilon) <= d-1], evaluated in the log domain."""
    if m < d:
        return 1.0
    total = 0.0
    for k in range(d):
        total += math.exp(
            _log_binom(m, k) + k * math.log(epsilon) + (m - k) * math.log1p(-epsilon)
        )
    return min(total, 1.0)


def paper_tail(m: int, d: int, epsilon: float) -> float:
    """Alternate tail convention: sum_{l=0..m} C(d, l) eps^l (1-eps)^(m-l)."""
    total = 0.0
    for k in range(min(m, d) + 1):
        total += math.exp(
            _log_binom(d, k) + k * math.log(epsilon) + (m - k) * math.log1p(-epsilon)
        )
    return total


def sample_bound(query: SampleBoundQuery) -> int:
    """Smallest sample count whose tail value drops below the confidence level."""
    eps, beta = query.epsilon, query.beta
    if query.formula == CAMPI_GARATTI:
        # The tail is nonincreasing in m: bracket the answer by doubling from
        # the d = 1 closed form, then bisect with tail(lo) > beta >= tail(hi).
        def above(m: int) -> bool:
            return binomial_tail(m, query.d, eps) > beta

        lo = max(1, math.ceil(math.log(beta) / math.log1p(-eps)))
        if not above(lo):
            return lo
        hi = 2 * lo
        while above(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if above(mid):
                lo = mid
            else:
                hi = mid
        return hi
    # The paper's tail is not monotone for m < d, so it keeps the scan.
    m = 1
    while paper_tail(m, query.d, eps) > beta:
        m += 1
    return m


def empirical_violation(
    result: EstimationResult, truth: SystemSpec, trials: int, seed: int, box: float = 1.0
) -> float:
    """Fraction of fresh same-size scenario batches whose residual exceeds
    ``result.gamma_star`` by more than ``VIOLATION_TOL``."""
    trials = check_count("trials", trials)
    _check_draw(seed, result.m_used, box)
    KD = _coupling(len(result.d_hat), truth.lam, truth.laplacian) @ result.d_hat
    level = result.gamma_star + VIOLATION_TOL
    children = np.random.SeedSequence(seed).spawn(trials)
    hits = 0
    for child in children:
        batch_seed = int(np.random.default_rng(child).integers(0, 2**63 - 1))
        scen = draw_scenarios(truth, result.m_used, batch_seed, box=box)
        if _mean_sq_residual(scen, KD) > level:
            hits += 1
    return hits / trials


def gauge_distance(d_hat, d_ref) -> float:
    """Sup-norm distance between appraisal matrices modulo the constant-row gauge.

    Minimizes ``max |d_hat + 1c' - d_ref|`` over the shift vector c; zero
    means the two matrices generate identical dynamics through any row-sum-zero
    Laplacian.
    """
    A = as_matrix(d_hat, "d_hat")
    B = as_matrix(d_ref, "d_ref")
    if A.shape != B.shape:
        raise ValidationError(f"shape mismatch {A.shape} vs {B.shape}")
    delta = B - A
    half_ranges = (delta.max(axis=0) - delta.min(axis=0)) / 2.0
    return float(half_ranges.max())
