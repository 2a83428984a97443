"""Feasible step-size regions for the self-weighted consensus iteration.

For the update ``x(k+1) = (I - rho*L + e*rho*L^2) x(k)``, consensus holds
exactly when ``|1 - rho*lam + e*rho*lam^2| < 1`` for every nonzero Laplacian
eigenvalue ``lam``.  The auxiliary step ``e`` is either a fixed constant or
``rho`` itself; the scan routes take it as ``eps``, and ``eps=None`` means
``e = rho``.  This module offers four routes to that region: a dense
magnitude scan (the ground-truth oracle), a closed-form eigenvalue bound for
fixed ``e``, cubic-inequality root isolation for ``e = rho``, and an exact
certificate for one step size.  The certificate writes each factor
``f = 1 - rho*lam + rho^2*lam^2`` as a root of the real quadratic
``z^2 - 2 Re(f) z + |f|^2`` and checks its bilinear image for Hurwitz
stability (Jury 1964); the general bilinear-transform and Hermite-Biehler
chain below handles polynomials of any degree and serves as its oracle.
Every route, ``magnitude_samples`` and ``nonzero_eigenvalues`` included,
reads the spectrum through one memo of the last few Laplacians, keyed by
their exact bytes: on a miss the matrix is checked and its tree verdict found
once, and its spectrum computed once when it has a rooted spanning tree; a
graph without one is rejected on every call.  The magnitude scans run over
the distinct ``(Re lam, |Im lam|)`` values, since a conjugate pair gives the
same magnitude bit for bit, in blocks of about ``SCAN_CELLS`` cells; the
cubic route solves every distinct cubic in one array pass.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import NumericalError, ValidationError
from .netcore import check_number, has_spanning_tree
from .spectral import eigen

logger = logging.getLogger(__name__)

ENDPOINT_TOL = 1e-9
RHO_MAX_CAP = 100.0
SCAN_CELLS = 2**15
MAX_GRID_POINTS = 10**6  # the default grid at RHO_MAX_CAP has 10**5


@dataclass(frozen=True)
class FeasibleRegion:
    """Union of open step-size intervals on which the iteration is consensus-stable."""

    intervals: tuple[tuple[float, float], ...]
    method: str
    rho_max: float

    def __post_init__(self):
        ivals = tuple((float(a), float(b)) for a, b in self.intervals)
        for a, b in ivals:
            if not (0.0 <= a < b <= self.rho_max + 1e-12):
                raise ValidationError(f"malformed interval ({a}, {b})")
        for (_, b1), (a2, _) in zip(ivals, ivals[1:]):
            if a2 < b1:
                raise ValidationError("intervals must be disjoint and sorted")
        object.__setattr__(self, "intervals", ivals)

    def contains(self, rho: float) -> bool:
        return any(a < rho < b for a, b in self.intervals)

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "rho_max": float(self.rho_max),
            "intervals": [[a, b] for a, b in self.intervals],
        }


@dataclass(frozen=True)
class PolynomialPair:
    """Real and imaginary parts of a complex polynomial evaluated on the imaginary axis."""

    s_coeffs: np.ndarray
    q_coeffs: np.ndarray


@dataclass(frozen=True)
class StepSizeDiagnostics:
    """Certificate and direct verdict for one step size, with the per-eigenvalue
    magnitudes ``|1 - rho*lam + rho^2*lam^2|``."""

    rho: float
    eigenvalues: np.ndarray
    magnitudes: np.ndarray
    hb_verdict: bool
    direct_verdict: bool


@functools.lru_cache(maxsize=4)
def _checked_entry(shape: tuple, data: bytes) -> np.ndarray | None:
    """The memo entry of one Laplacian, keyed by its shape and exact bytes:
    its read-only nonzero spectrum, or None when its graph has no rooted
    spanning tree.  The tree predicate checks the matrix first, and a call
    that raises is not stored, so a bad input raises on every call."""
    M = np.frombuffer(data).reshape(shape)
    if not has_spanning_tree(M):
        return None
    w = eigen(M)
    w = w[np.abs(w) > 1e-9 * max(1.0, float(np.abs(w).max()))]
    w.flags.writeable = False
    return w


def nonzero_eigenvalues(L) -> np.ndarray:
    """Eigenvalues of a Laplacian whose graph has a rooted spanning tree, with
    the structural zero removed, as a read-only array.

    Every route reads the spectrum here, so the routes that one Laplacian goes
    through share one check, one tree verdict and one eigendecomposition; the
    last four matrices are kept.
    """
    M = np.asarray(L, dtype=float)
    lams = _checked_entry(M.shape, M.tobytes())
    if lams is None:
        raise ValidationError("the interacting graph has no rooted spanning tree")
    return lams


def _distinct(a: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """One element of ``a`` for each distinct row of ``keys`` (a row per
    element), in the lexicographic order of the rows.

    ``np.unique`` would do, but on a plain float or complex array its first
    call in a process imports ``numpy.ma`` (about 10 ms and 2 MB).
    """
    order = np.lexsort(keys.T[::-1])
    k = keys[order]
    keep = np.ones(len(k), dtype=bool)
    keep[1:] = (k[1:] != k[:-1]).any(axis=1)
    return a[order[keep]]


def _scan_spectrum(lams: np.ndarray) -> np.ndarray:
    """The distinct values of ``Re lam + i|Im lam|``.

    Conjugating ``lam`` only flips signs in ``1 - rho*lam + e*rho*lam^2``, so
    every magnitude scan over this set gives the same worst magnitude, bit
    for bit, as over the whole spectrum.
    """
    folded = np.where(lams.imag < 0, lams.conj(), lams)
    return _distinct(folded, np.column_stack([folded.real, folded.imag]))


def default_rho_max(lams: np.ndarray) -> float:
    pos = lams.real[lams.real > 0]
    if pos.size == 0:
        return RHO_MAX_CAP
    return float(min(2.0 / pos.min(), RHO_MAX_CAP))


def scan_magnitude(rhos, lams, eps):
    """Worst ``|1 - rho*lam + e*rho*lam^2|`` over ``lams`` for each ``rho``,
    where ``e`` is ``eps``, or ``rho`` itself when ``eps`` is None.

    The rhos are taken in blocks of about ``SCAN_CELLS`` (rho, lam) cells,
    so the complex temporaries stay near 1 MB whatever the grid and the
    spectrum; each rho's maximum is the same as over one full block.
    """
    rhos = np.asarray(rhos, dtype=float)
    lam = np.asarray(lams, dtype=complex)[None, :]
    out = np.zeros(rhos.shape[0])
    if lam.shape[1] == 0:
        return out
    rows = max(1, SCAN_CELLS // lam.shape[1])
    for start in range(0, rhos.shape[0], rows):
        r = rhos[start : start + rows, None]
        e = r if eps is None else eps
        # In place, so that at most two (rhos x lams) temporaries are alive.
        z = r * lam
        np.subtract(1.0, z, out=z)
        quad = e * r * lam
        quad *= lam
        z += quad
        del quad
        out[start : start + rows] = np.abs(z).max(axis=1)
    return out


def magnitude_samples(
    L,
    eps: float | None = None,
    grid_step: float = 1e-3,
    rho_max: float | None = None,
):
    """Sampled (rho, worst eigenvalue magnitude) pairs for plotting or scanning,
    for the fixed-``eps`` iteration, or for ``e = rho`` when ``eps`` is None.

    Returns ``(rhos, mags, lams, eps, rho_max)``: the grid
    ``grid_step, 2*grid_step, ...`` up to ``rho_max`` (one point, ``rho_max``
    itself, when ``rho_max < grid_step``), the worst magnitude at each point,
    the distinct spectrum values that were scanned (see
    :func:`_scan_spectrum`), and the checked ``eps``.  A grid of more than
    ``MAX_GRID_POINTS`` points is rejected before it is built.
    """
    grid_step = check_number("grid_step", grid_step)
    if rho_max is not None:
        rho_max = check_number("rho_max", rho_max)
    if eps is not None:
        eps = check_number("eps", eps, positive=False)
    lams = _scan_spectrum(nonzero_eigenvalues(L))
    if rho_max is None:
        # The fixed-eps iteration is affine in rho through the shifted
        # spectrum, so the cap must come from that spectrum.
        rho_max = default_rho_max(lams if eps is None else lams - eps * lams * lams)
    points = np.floor(rho_max / grid_step + 1e-9)
    if points > MAX_GRID_POINTS:
        raise ValidationError(
            f"grid_step {grid_step} puts {points:.4g} points up to rho_max {rho_max}; "
            f"at most {MAX_GRID_POINTS} are scanned"
        )
    count = max(1, int(points))
    rhos = np.minimum(grid_step * np.arange(1, count + 1), rho_max)
    mags = scan_magnitude(rhos, lams, eps)
    return rhos, mags, lams, eps, float(rho_max)


def _refine_boundary(feasible_pt, infeasible_pt, lams, eps) -> float:
    lo, hi = feasible_pt, infeasible_pt
    while abs(hi - lo) > ENDPOINT_TOL:
        mid = 0.5 * (lo + hi)
        if scan_magnitude(np.array([mid]), lams, eps)[0] < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def feasible_rho_direct(
    L,
    eps: float | None = None,
    grid_step: float = 1e-3,
    rho_max: float | None = None,
) -> FeasibleRegion:
    """Ground-truth region from a dense magnitude scan with bisected endpoints."""
    return direct_scan(L, eps=eps, grid_step=grid_step, rho_max=rho_max)[0]


def direct_scan(
    L,
    eps: float | None = None,
    grid_step: float = 1e-3,
    rho_max: float | None = None,
):
    """The direct region together with the ``magnitude_samples`` it came from.

    Each run of feasible grid points gives one interval, its ends bisected
    against the infeasible neighbours.  When the grid stops short of
    ``rho_max``, ``rho_max`` is probed too, so the tail past the last grid
    point is neither assumed feasible nor skipped.
    """
    samples = magnitude_samples(L, eps=eps, grid_step=grid_step, rho_max=rho_max)
    rhos, mags, lams, eps, rho_max = samples
    if lams.size == 0:
        return FeasibleRegion(((0.0, rho_max),), "direct_scan", rho_max), samples
    pts = rhos
    if rhos[-1] < rho_max:
        pts = np.append(rhos, rho_max)
        mags = np.append(mags, scan_magnitude(pts[-1:], lams, eps))
    step = np.diff((mags < 1.0).astype(np.int8), prepend=0, append=0)
    intervals = []
    for i, j in zip(np.flatnonzero(step == 1), np.flatnonzero(step == -1) - 1):
        if i > 0:
            left = _refine_boundary(pts[i], pts[i - 1], lams, eps)
        else:
            probe = pts[0] * 1e-6
            if scan_magnitude(np.array([probe]), lams, eps)[0] < 1.0:
                left = 0.0
            else:
                left = _refine_boundary(pts[0], probe, lams, eps)
        if j < len(pts) - 1:
            right = _refine_boundary(pts[j], pts[j + 1], lams, eps)
        else:
            right = rho_max
        if right > left:
            intervals.append((left, right))
    return FeasibleRegion(tuple(intervals), "direct_scan", rho_max), samples


# ---------------------------------------------------------------------------
# admissible auxiliary step size and the fixed-eps closed-form bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpsilonRange:
    """Open interval of auxiliary step sizes keeping Re(lam - eps*lam^2) > 0."""

    lower: float
    upper: float

    def contains(self, eps: float) -> bool:
        return self.lower < eps < self.upper


def epsilon_bounds(lams) -> EpsilonRange:
    """Per-eigenvalue admissibility conditions, applied to a given spectrum.

    Eigenvalues with |Re| = |Im| impose nothing; |Re| > |Im| caps eps above,
    |Re| < |Im| bounds it below (by a negative number, so the positive part
    is always an interval anchored at 0).
    """
    lam = np.atleast_1d(np.asarray(lams, dtype=complex))
    x, y = lam.real, lam.imag
    ax, ay = np.abs(x), np.abs(y)
    live = np.abs(ax - ay) > 1e-12 * np.maximum(1.0, ax + ay)
    c, f = live & (ax > ay), live & (ax < ay)
    hi = np.min(x[c] / (x[c] * x[c] - y[c] * y[c]), initial=np.inf)
    lo = np.max(-x[f] / (y[f] * y[f] - x[f] * x[f]), initial=-np.inf)
    return EpsilonRange(lower=float(lo), upper=float(hi))


def epsilon_range(L) -> EpsilonRange:
    """Admissible auxiliary step sizes for a spanning-tree Laplacian."""
    return epsilon_bounds(nonzero_eigenvalues(L))


def feasible_rho_bound(L, eps: float) -> FeasibleRegion:
    """Closed-form consensus range for the fixed-eps iteration.

    The update matrix is affine in rho there, so the region is a single
    interval (0, min over eigenvalues of 2*Re / |.|^2) of the shifted
    spectrum lam - eps*lam^2.
    """
    lams = nonzero_eigenvalues(L)
    rng = epsilon_bounds(lams)
    if not rng.contains(eps):
        raise ValidationError(
            f"eps={eps} is outside the admissible range ({rng.lower}, {rng.upper})"
        )
    star = lams - eps * lams * lams
    if star.size == 0:
        return FeasibleRegion(((0.0, RHO_MAX_CAP),), "corollary1", RHO_MAX_CAP)
    if star.real.min() <= 0:
        raise NumericalError(
            "shifted spectrum lost its positive real part despite admissible eps"
        )
    bound = float((2.0 * star.real / np.abs(star) ** 2).min())
    return FeasibleRegion(((0.0, bound),), "corollary1", bound)


# ---------------------------------------------------------------------------
# cubic route for eps = rho
# ---------------------------------------------------------------------------


def _cube(v: np.ndarray) -> np.ndarray:
    # x**3 element by element through the C library's pow, which is correctly
    # rounded; numpy's vectorized power can differ from it in the last bit,
    # and the Newton-polished roots would carry that difference.
    return np.array([x**3 for x in v.tolist()])


def _cubic_roots(C: np.ndarray) -> np.ndarray:
    """Ascending real roots of each row's cubic ``C[:, 3] x^3 + ... + C[:, 0]``,
    padded with NaN to three columns.

    Closed form (trigonometric for three real roots, Cardano otherwise), each
    branch selected by mask, then three Newton steps; roots within 1e-10
    (relative) of the previous kept one are dropped.  Degenerate leading
    coefficients fall back to the quadratic and linear formulas.
    """
    c0, c1, c2, c3 = (C[:, k] for k in range(4))
    small = np.abs(C) <= 1e-14 * np.abs(C).max(axis=1, initial=1.0)[:, None]
    nan = np.full(C.shape[0], np.nan)
    with np.errstate(all="ignore"):
        a, b, c = c2 / c3, c1 / c3, c0 / c3
        p = b - a * a / 3.0
        p3 = _cube(p)
        q = 2.0 * _cube(a) / 27.0 - a * b / 3.0 + c
        disc = -4.0 * p3 - 27.0 * q * q
        m = 2.0 * np.sqrt(-p / 3.0)
        phi = np.arccos(np.clip(3.0 * q / (2.0 * p) * np.sqrt(-3.0 / p), -1.0, 1.0)) / 3.0
        d = np.sqrt(q * q / 4.0 + p3 / 27.0)
        t = np.where(
            (disc > 0)[:, None],
            m[:, None] * np.cos(phi[:, None] - 2.0 * np.pi * np.arange(3) / 3.0),
            np.column_stack([
                np.where(disc < 0, np.cbrt(-q / 2.0 + d) + np.cbrt(-q / 2.0 - d),
                         np.where(p == 0, 0.0, 3.0 * q / p)),
                np.where(~(disc < 0) & (p != 0), -3.0 * q / (2.0 * p), nan),
                nan,
            ]),
        )
        x = t - (a / 3.0)[:, None]
        k0, k1, k2, k3 = (v[:, None] for v in (c0, c1, c2, c3))
        d2, d1 = 3.0 * k3, 2.0 * k2
        for _ in range(3):  # Newton polish to ~1e-12 relative
            f = ((k3 * x + k2) * x + k1) * x + k0
            df = (d2 * x + d1) * x + k1
            # A root whose slope vanishes stays put, and so on every later step.
            x = np.where(np.abs(df) < 1e-300, x, x - f / df)
        x = np.sort(x, axis=1)
        tol = 1e-10 * np.maximum(1.0, np.abs(x))
        keep1 = np.abs(x[:, 1] - x[:, 0]) > tol[:, 1]
        keep2 = np.abs(x[:, 2] - np.where(keep1, x[:, 1], x[:, 0])) > tol[:, 2]
        cubic = np.column_stack([x[:, 0], np.where(keep1, x[:, 1], nan), np.where(keep2, x[:, 2], nan)])
        sq = np.sqrt(c1 * c1 - 4.0 * c2 * c0)
        quad = np.column_stack([(-c1 - sq) / (2 * c2), (-c1 + sq) / (2 * c2), nan])
        line = np.column_stack([-c0 / c1, nan, nan])
    out = np.where(
        ~small[:, 3:],
        cubic,
        np.where(~small[:, 2:3], quad, np.where(~small[:, 1:2], line, np.nan)),
    )
    return np.sort(out, axis=1)


def cubic_coefficients(lam, variant: str) -> tuple:
    """Ascending coefficients of the per-eigenvalue feasibility cubic in rho,
    elementwise when ``lam`` is an array.

    The ``corrected`` variant expands |1 - rho*lam + rho^2*lam^2|^2 - 1 and
    divides by rho > 0; ``paper`` is an alternate coefficient set whose
    leading terms drop the Im^2 cross factors. It fails the real-eigenvalue
    sanity case (lam = 2 rejects rho = 0.25 although the magnitude there is
    0.75), so it is kept behind this flag for comparison only.
    """
    x, y = lam.real, lam.imag
    if variant == "corrected":
        mag2 = x * x + y * y
        return (-2.0 * x, 3.0 * x * x - y * y, -2.0 * x * mag2, mag2 * mag2)
    if variant == "paper":
        a = 4.0 * x * x + (x * x - y * y) ** 2
        b = 2.0 * x * (x * x - y * y) - 4.0 * x * y
        return (-2.0 * x, 3.0 * x * x - y * y, b, a)
    raise ValidationError(f"unknown cubic variant {variant!r}")


def _negative_gaps(C: np.ndarray, hi: float) -> tuple[tuple[float, float], ...]:
    """Open subintervals of (0, hi) on which every cubic (one ascending
    coefficient row of ``C`` each) is negative.

    Each cubic's roots in (0, hi) cut (0, hi) into segments, and a segment is
    negative when it is wider than 1e-14 and its cubic is negative at its
    midpoint.  One sweep over the sorted roots of all the cubics keeps each
    gap between neighbouring roots that lies in a negative segment of every
    cubic; each kept gap is one interval, as intersecting the cubics' sets
    one at a time would give.
    """
    roots = _cubic_roots(C)
    roots = np.sort(np.where((roots > 0.0) & (roots < hi), roots, np.nan), axis=1)
    cuts = np.column_stack([np.zeros(len(C)), np.where(np.isnan(roots), hi, roots), np.full(len(C), hi)])
    lo, up = cuts[:, :-1], cuts[:, 1:]
    mid = 0.5 * (lo + up)
    k0, k1, k2, k3 = (C[:, k : k + 1] for k in range(4))
    bad = ~((up - lo > 1e-14) & (((k3 * mid + k2) * mid + k1) * mid + k0 < 0.0))
    pts = np.concatenate([[0.0, hi], cuts.ravel()])
    pts = _distinct(pts, pts[:, None])
    cover = np.bincount(np.searchsorted(pts, lo[bad]), minlength=pts.size)
    cover -= np.bincount(np.searchsorted(pts, up[bad]), minlength=pts.size)
    keep = np.cumsum(cover)[:-1] == 0
    return tuple(zip(pts[:-1][keep].tolist(), pts[1:][keep].tolist()))


def feasible_rho_cubic(
    L, variant: str = "corrected", rho_max: float | None = None
) -> FeasibleRegion:
    """Region for the eps = rho iteration: the step sizes where every
    eigenvalue's feasibility cubic is negative, each distinct cubic solved once."""
    if rho_max is not None:
        rho_max = check_number("rho_max", rho_max)
    lams = nonzero_eigenvalues(L)
    if rho_max is None:
        rho_max = default_rho_max(lams)
    # Identical rows (conjugate pairs, repeated eigenvalues) are solved once.
    rows = np.column_stack(cubic_coefficients(lams, variant))
    rows = _distinct(rows, rows)
    return FeasibleRegion(_negative_gaps(rows, float(rho_max)), f"cubic_{variant}", float(rho_max))


# ---------------------------------------------------------------------------
# exact certificate for eps = rho
# ---------------------------------------------------------------------------


def _bilinear_quadratics(f: np.ndarray) -> np.ndarray:
    """Ascending coefficients, one row per factor ``f``, of the bilinear image of
    ``S(z) = z^2 + a1 z + a0`` with ``a1 = -2 Re f`` and ``a0 = |f|^2``.

    ``S`` has the roots ``f`` and its conjugate, and
    ``(z-1)^2 S((z+1)/(z-1)) = (1 - a1 + a0) + 2(1 - a0) z + (1 + a1 + a0) z^2``
    is :func:`bilinear_transform` at degree 2 in closed form.
    """
    a1 = -2.0 * f.real
    a0 = f.real * f.real + f.imag * f.imag
    return np.stack([1.0 - a1 + a0, 2.0 * (1.0 - a0), 1.0 + a1 + a0], axis=-1)


def hb_step_check(L, rho: float) -> StepSizeDiagnostics:
    """Exact consensus certificate for one step size of the eps = rho iteration.

    A real quadratic is Hurwitz exactly when its three coefficients share a
    strict sign, so rho is certified when the bilinear image for every
    eigenvalue passes that test, that is when every factor
    ``f = 1 - rho*lam + rho^2*lam^2`` lies strictly inside the unit disk.
    The direct verdict, max |f| < 1, is reported alongside.
    """
    rho = check_number("rho", rho)
    lams = nonzero_eigenvalues(L)
    f = 1.0 - rho * lams + rho * rho * lams * lams
    q = _bilinear_quadratics(f)
    hb_ok = bool(((q > 0.0).all(axis=1) | (q < 0.0).all(axis=1)).all())
    mags = np.abs(f)
    direct = bool((mags < 1.0).all())
    if hb_ok != direct:
        logger.info(
            "certificate and direct magnitude test disagree at rho=%.6g "
            "(certificate=%s, direct=%s)",
            rho,
            hb_ok,
            direct,
        )
    return StepSizeDiagnostics(rho, lams, mags, hb_ok, direct)


# ---------------------------------------------------------------------------
# bilinear transform and the Hermite-Biehler Hurwitz test
# ---------------------------------------------------------------------------


def bilinear_transform(s_coeffs) -> np.ndarray:
    """Map a degree-d polynomial S through z -> (z+1)/(z-1), clearing denominators.

    Returns the ascending coefficients of Q(z) = (z-1)^d * S((z+1)/(z-1));
    roots inside the unit disk map to roots in the open left half-plane, so
    Schur stability of S is equivalent to Hurwitz stability of Q.
    """
    c = np.atleast_1d(np.asarray(s_coeffs, dtype=complex))
    if c.ndim != 1 or c.size == 0:
        raise ValidationError("expected a nonempty 1-D coefficient array")
    d = c.size - 1
    if abs(c[-1]) == 0.0:
        raise ValidationError("zero leading coefficient")
    plus = [np.array([1.0 + 0j])]
    minus = [np.array([1.0 + 0j])]
    for _ in range(d):
        plus.append(npoly.polymul(plus[-1], np.array([1.0, 1.0])))
        minus.append(npoly.polymul(minus[-1], np.array([-1.0, 1.0])))
    out = np.zeros(d + 1, dtype=complex)
    for k, a_k in enumerate(c):
        term = a_k * npoly.polymul(plus[k], minus[d - k])
        out[: term.size] += term
    return out


def imaginary_axis_parts(q_coeffs) -> PolynomialPair:
    """Split Q(i*w) into its real and imaginary polynomial parts in w."""
    c = np.atleast_1d(np.asarray(q_coeffs, dtype=complex))
    rot = np.array([1.0 + 0j, 1j, -1.0 + 0j, -1j])[np.arange(c.size) % 4]
    scaled = c * rot
    return PolynomialPair(s_coeffs=scaled.real.copy(), q_coeffs=scaled.imag.copy())


def _trim(c: np.ndarray) -> np.ndarray:
    tol = 1e-12 * max(1.0, float(np.abs(c).max())) if c.size else 0.0
    n = c.size
    while n > 0 and abs(c[n - 1]) <= tol:
        n -= 1
    return c[:n]


def _real_simple_roots(c: np.ndarray) -> list[float] | None:
    # Returns sorted real roots, or None when any root is non-real or repeated.
    if c.size <= 1:
        return []
    r = np.roots(c[::-1])
    if np.any(np.abs(r.imag) > 1e-8 * np.maximum(1.0, np.abs(r))):
        return None
    vals = np.sort(r.real)
    for u, v in zip(vals, vals[1:]):
        if v - u <= 1e-10 * max(1.0, abs(u), abs(v)):
            return None
    return [float(v) for v in vals]


def hermite_biehler_hurwitz(pair: PolynomialPair) -> bool:
    """Hurwitz test from interlacing of the imaginary-axis parts.

    True exactly when every root of both parts is real and simple, the two
    root sequences strictly interlace, and the origin Wronskian
    S(0)Q'(0) - S'(0)Q(0) is positive.
    """
    s = _trim(np.asarray(pair.s_coeffs, dtype=float))
    q = _trim(np.asarray(pair.q_coeffs, dtype=float))
    if s.size == 0 or q.size == 0:
        return False
    rs = _real_simple_roots(s)
    rq = _real_simple_roots(q)
    if rs is None or rq is None:
        return False
    if abs(len(rs) - len(rq)) > 1:
        return False
    merged = sorted([(v, 0) for v in rs] + [(v, 1) for v in rq])
    for (v1, t1), (v2, t2) in zip(merged, merged[1:]):
        if t1 == t2:
            return False
        if v2 - v1 <= 1e-12 * max(1.0, abs(v1), abs(v2)):
            return False
    s0 = s[0]
    s1 = s[1] if s.size > 1 else 0.0
    q0 = q[0]
    q1 = q[1] if q.size > 1 else 0.0
    return s0 * q1 - s1 * q0 > 0.0
