"""Eigenstructure of the opinion update matrix and the consensus classifiers.

All verdicts here are spectral: the issue-free update ``I - Lambda L D``
reaches consensus exactly when its unit eigenvalue is simple with the rest of
the spectrum strictly inside the unit disk and the unit right eigenvector is
the all-ones direction; it merely converges (to clusters) when that direction
condition fails; attaching an issue-coupling matrix turns the question into
one about eigenvalue products of the Kronecker map.

The unit eigenvector pair is real: the right vector is exactly the all-ones
vector under consensus (else one real SVD), and the left vector comes from
one bordered LU solve.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousSpectrumError, NumericalError, ValidationError
from .netcore import TOL_STRUCT, SystemSpec, appraisal_kind, as_matrix, as_vector, check_number

logger = logging.getLogger(__name__)

TOL_EIG = 1e-8
SV_NULL_THRESHOLD = 1e-10
# ``(M - I) @ ones`` within this many n*eps*|M - I| counts as exactly zero.
ONES_ROUNDING = 64

CONSENSUS = "consensus"
CONVERGENCE = "convergence"
STABILITY = "stability"
DIVERGENT = "divergent-or-marginal"

ROW_SUMS_ZERO = "row_sums_zero"
ROW_SUMS_MINUS_ONE = "row_sums_minus_one"
NEITHER = "neither"


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalues and verdict for one issue-free system.

    ``left_vec``/``right_vec`` are the unit-eigenvalue pair, normalized so
    that ``left_vec @ right_vec == 1``; they are None unless the system was
    classified consensus or convergence, and ``eigvec_residual`` is then
    their residual (else None).  ``unit_gap`` is the smallest ``|w - 1|``
    over the eigenvalues not counted as unit (inf when there are none).
    Neither health figure enters ``to_json_dict``.
    """

    eigenvalues: np.ndarray
    unit_eigen_count: int
    rho_rest: float
    left_vec: np.ndarray | None
    right_vec: np.ndarray | None
    classification: str
    unit_gap: float
    eigvec_residual: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "eigenvalues": [[float(z.real), float(z.imag)] for z in self.eigenvalues],
            "classification": self.classification,
            "rho_rest": float(self.rho_rest),
        }


@dataclass(frozen=True)
class LimitPrediction:
    """Predicted steady opinion vector; ``alpha`` is the common value under consensus."""

    phi: np.ndarray
    alpha: float | None


def eigen(M) -> np.ndarray:
    """Eigenvalues of a square real matrix, sorted by decreasing magnitude."""
    M = as_matrix(M)
    try:
        w = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver did not converge: {exc}")
    order = np.lexsort((-w.imag, -w.real, -np.abs(w)))
    return w[order]


def _unit_pair(M: np.ndarray):
    """Left/right eigenvectors for a simple eigenvalue 1, and their residual.

    The right vector ``iota`` is exactly the all-ones vector when that is an
    eigenvector up to rounding (``M - I`` times ones is at rounding level),
    and otherwise the smallest right singular vector of ``M - I``; it is
    scaled so that its largest entry is 1.  The left vector ``sigma`` then
    solves the bordered system ``[[(M - I)', iota], [iota', 0]] [sigma; mu]
    = [0; 1]``, which is non-singular exactly when the unit eigenvalue is
    simple, and so comes out normalized to ``sigma @ iota == 1``.  The
    residual is the larger of ``|(M - I) iota|`` and ``|sigma' (M - I)|``,
    each relative to its vector's largest entry.
    """
    n = M.shape[0]
    S = M - np.eye(n)
    size = max(1.0, float(np.abs(S).sum(axis=1).max()))
    iota = np.ones(n)
    if np.abs(S @ iota).max() > ONES_ROUNDING * n * np.finfo(float).eps * size:
        iota = np.linalg.svd(S)[2][-1]
        iota = iota / iota[np.argmax(np.abs(iota))]
    bordered = np.zeros((n + 1, n + 1))
    bordered[:n, :n] = S.T
    bordered[:n, n] = iota
    bordered[n, :n] = iota
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    try:
        sigma = np.linalg.solve(bordered, rhs)[:n]
    except np.linalg.LinAlgError:
        sigma = None
    # For unit-norm pairs this is |sigma @ iota| < 1e-12.
    if sigma is None or not np.linalg.norm(sigma) * np.linalg.norm(iota) < 1e12:
        raise NumericalError(
            "unit eigenvalue appears defective: left/right eigenvectors are orthogonal"
        )
    resid = max(
        float(np.abs(S @ iota).max()),
        float(np.abs(sigma @ S).max() / np.abs(sigma).max()),
    )
    if resid > 1e-8 * max(1.0, float(np.abs(M).max())):
        raise NumericalError(f"unit eigenvector residual {resid:.3e} exceeds 1e-8*|M|")
    return sigma, iota, resid


def _check_tol(tol_eig) -> float:
    """``tol_eig`` as a float in (0, 1); outside it the tolerance, not the
    spectrum, decides which eigenvalues count as unit."""
    tol = check_number("tol_eig", tol_eig)
    if tol >= 1.0:
        raise ValidationError(f"tol_eig must be below 1, got {tol_eig}")
    return tol


def classify_system(sys: SystemSpec, tol_eig: float = TOL_EIG) -> SpectralReport:
    """Classify the issue-free system: consensus, convergence, stability, or neither.

    Raises :class:`AmbiguousSpectrumError` when several distinct eigenvalues
    crowd the unit point too closely to call the multiplicity.
    """
    tol_eig = _check_tol(tol_eig)
    M = sys.iteration_matrix()
    w = eigen(M)
    unit = np.abs(w - 1.0) <= tol_eig
    count = int(unit.sum())
    gap = float(np.abs(w[~unit] - 1.0).min()) if count < w.size else np.inf

    if count == 0:
        rho = float(np.abs(w).max())
        if rho < 1.0 - tol_eig:
            cls = STABILITY
        else:
            cls = DIVERGENT
        return SpectralReport(w, 0, rho, None, None, cls, gap)

    if count > 1:
        cluster = w[unit]
        spread = max(
            abs(a - b) for i, a in enumerate(cluster) for b in cluster[i + 1 :]
        )
        if spread > tol_eig / 10.0:
            raise AmbiguousSpectrumError(
                f"{count} eigenvalues lie within {tol_eig} of 1 but are separated by "
                f"{spread:.3e}; refine tol_eig to resolve the multiplicity"
            )
        rest = np.abs(w[~unit])
        rho = float(rest.max()) if rest.size else 0.0
        logger.info("unit eigenvalue has multiplicity %d; not a simple-consensus system", count)
        return SpectralReport(w, count, rho, None, None, DIVERGENT, gap)

    rest = np.abs(w[~unit])
    rho = float(rest.max()) if rest.size else 0.0
    if rho >= 1.0 - tol_eig:
        return SpectralReport(w, 1, rho, None, None, DIVERGENT, gap)

    sigma, iota, resid = _unit_pair(M)
    mu = float(np.mean(iota))
    aligned = np.abs(iota - mu).max() <= tol_eig * max(1.0, float(np.abs(iota).max()))
    cls = CONSENSUS if aligned else CONVERGENCE
    return SpectralReport(w, 1, rho, sigma, iota, cls, gap, resid)


def predict_limit(
    sys: SystemSpec,
    xi0,
    tol_eig: float = TOL_EIG,
    report: SpectralReport | None = None,
) -> LimitPrediction:
    """Steady-state opinion vector from the unit-eigenvalue projector."""
    tol_eig = _check_tol(tol_eig)
    xi0 = as_vector(xi0, "initial opinions", sys.n_agents)
    if report is None:
        report = classify_system(sys, tol_eig=tol_eig)
    if report.classification not in (CONSENSUS, CONVERGENCE):
        raise ValidationError(
            f"cannot predict a limit for a {report.classification!r} system"
        )
    alpha = float(report.left_vec @ xi0)
    phi = alpha * report.right_vec
    return LimitPrediction(phi=phi, alpha=alpha if report.classification == CONSENSUS else None)


def antagonistic_consensus_structure(D) -> str:
    """Row-sum signature that decides whether an antagonistic appraisal can reach consensus."""
    D = np.asarray(D, dtype=float)
    if appraisal_kind(D) != "antagonistic":
        raise ValidationError("structure test applies to antagonistic appraisal matrices")
    sums = D.sum(axis=1)
    if np.abs(sums).max() <= TOL_STRUCT:
        return ROW_SUMS_ZERO
    if np.abs(sums + 1.0).max() <= TOL_STRUCT:
        return ROW_SUMS_MINUS_ONE
    return NEITHER


def classify_multi_issue(sys: SystemSpec, tol_eig: float = TOL_EIG) -> str:
    """Verdict for the issue-coupled Kronecker system.

    Requires the issue-free part to carry a simple unit eigenvalue; the
    coupled system is stable when the coupling spectrum sits strictly inside
    the unit disk, and convergent when the powers of the coupling have a
    limit (:func:`powers_converge`) and its dominant eigenvalue pairs with
    the issue-free second-largest mode to a product inside the disk.
    """
    if sys.mids is None:
        raise ValidationError("system has no issue-coupling matrix")
    base = classify_system(sys, tol_eig=tol_eig)
    if base.classification not in (CONSENSUS, CONVERGENCE):
        raise ValidationError(
            "issue-free system must have a simple unit eigenvalue with the rest "
            f"inside the unit disk; got {base.classification!r}"
        )
    w = eigen(sys.mids)
    mu_max = float(np.abs(w).max())
    if mu_max < 1.0 - tol_eig:
        return "stable"
    if mu_max > 1.0 + tol_eig:
        logger.info(
            "coupling spectral radius %.6g exceeds 1; unit mode of the issue-free "
            "system amplifies and the product test is moot",
            mu_max,
        )
    elif base.rho_rest * mu_max < 1.0 - tol_eig and _powers_converge(sys.mids, w, tol_eig):
        return "convergent"
    return DIVERGENT


def powers_converge(C, tol_eig: float = TOL_EIG) -> bool:
    """True when the powers of the coupling matrix have a limit.

    This needs every eigenvalue strictly inside the unit disk except possibly
    a semisimple eigenvalue 1.
    """
    C = as_matrix(C, "issue coupling")
    return _powers_converge(C, eigen(C), _check_tol(tol_eig))


def _powers_converge(C: np.ndarray, w: np.ndarray, tol_eig: float) -> bool:
    """:func:`powers_converge` for a checked matrix ``C`` with eigenvalues ``w``."""
    unit = np.abs(w - 1.0) <= tol_eig
    others = np.abs(w[~unit])
    if others.size and others.max() >= 1.0 - tol_eig:
        return False
    k = int(unit.sum())
    if k == 0:
        return True
    sv = np.linalg.svd(C - np.eye(C.shape[0]), compute_uv=False)
    rank = int((sv > SV_NULL_THRESHOLD * max(1.0, sv[0])).sum())
    geometric = C.shape[0] - rank
    return geometric == k
