"""Feasible step-size regions for the self-weighted consensus iteration.

For the update ``x(k+1) = (I - rho*L + e*rho*L^2) x(k)`` (with ``e`` either a
fixed constant or equal to ``rho``), consensus holds exactly when
``|1 - rho*lam + e*rho*lam^2| < 1`` for every nonzero Laplacian eigenvalue
``lam``.  This module offers four routes to that region: a dense magnitude
scan (the ground-truth oracle), a closed-form eigenvalue bound for fixed
``e``, cubic-inequality root isolation for ``e = rho``, and a polynomial
stability certificate built on the bilinear transform and the
Hermite-Biehler interlacing test.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from ._kernels import scan_magnitude
from .errors import NumericalError, ValidationError
from .netcore import InteractingLaplacian, has_spanning_tree
from .spectral import eigen

logger = logging.getLogger(__name__)

MODE_EPS_FIXED = "eps_fixed"
MODE_EPS_EQUALS_RHO = "eps_equals_rho"

ENDPOINT_TOL = 1e-9
RHO_MAX_CAP = 100.0
EXCLUDED_ROOT_MARGIN = 1e-6


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

    def contains(self, rho: float, margin: float = 0.0) -> bool:
        return any(a + margin < rho < b - margin for a, b in self.intervals)

    def right_endpoint(self) -> float | None:
        return self.intervals[-1][1] if self.intervals else None

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
class EigenStepRecord:
    """Per-eigenvalue diagnostics for one candidate step size."""

    eigenvalue: complex
    magnitude: float
    f_value: float | None
    excluded_roots: np.ndarray


@dataclass(frozen=True)
class StepSizeDiagnostics:
    rho: float
    records: tuple[EigenStepRecord, ...]
    hb_verdict: bool
    direct_verdict: bool


def _laplacian(L) -> np.ndarray:
    return L.entries if isinstance(L, InteractingLaplacian) else InteractingLaplacian(L).entries


def _require_tree(M: np.ndarray) -> None:
    if not has_spanning_tree(M):
        raise ValidationError("the interacting graph has no rooted spanning tree")


def nonzero_eigenvalues(L) -> np.ndarray:
    """Laplacian eigenvalues with the structural zero removed."""
    w = eigen(L if isinstance(L, np.ndarray) else _laplacian(L))
    cut = 1e-9 * max(1.0, float(np.abs(w).max()))
    return w[np.abs(w) > cut]


def default_rho_max(lams: np.ndarray) -> float:
    pos = lams.real[lams.real > 0]
    if pos.size == 0:
        return RHO_MAX_CAP
    return float(min(2.0 / pos.min(), RHO_MAX_CAP))


def magnitude_samples(
    L,
    mode: str = MODE_EPS_EQUALS_RHO,
    eps: float | None = None,
    grid_step: float = 1e-3,
    rho_max: float | None = None,
):
    """Sampled (rho, worst eigenvalue magnitude) pairs for plotting or scanning."""
    M = _laplacian(L)
    if grid_step <= 0:
        raise ValidationError("grid_step must be positive")
    if mode == MODE_EPS_FIXED:
        if eps is None:
            raise ValidationError("eps_fixed mode needs an eps value")
        eps_val, eps_is_rho = float(eps), False
    elif mode == MODE_EPS_EQUALS_RHO:
        eps_val, eps_is_rho = 0.0, True
    else:
        raise ValidationError(f"unknown mode {mode!r}")
    lams = nonzero_eigenvalues(M)
    if rho_max is None:
        # The fixed-eps iteration is affine in rho through the shifted
        # spectrum, so the cap must come from that spectrum.
        capping = lams - eps_val * lams * lams if mode == MODE_EPS_FIXED else lams
        rho_max = default_rho_max(capping)
    count = max(1, int(np.floor(rho_max / grid_step + 1e-9)))
    rhos = grid_step * np.arange(1, count + 1)
    mags = scan_magnitude(rhos, lams, eps_val, eps_is_rho)
    return rhos, mags, lams, eps_val, eps_is_rho, float(rho_max)


def _refine_boundary(feasible_pt, infeasible_pt, lams, eps, eps_is_rho) -> float:
    lo, hi = feasible_pt, infeasible_pt
    while abs(hi - lo) > ENDPOINT_TOL:
        mid = 0.5 * (lo + hi)
        if scan_magnitude(np.array([mid]), lams, eps, eps_is_rho)[0] < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def feasible_rho_direct(
    L,
    mode: str = MODE_EPS_EQUALS_RHO,
    eps: float | None = None,
    grid_step: float = 1e-3,
    rho_max: float | None = None,
) -> FeasibleRegion:
    """Ground-truth region from a dense magnitude scan with bisected endpoints."""
    M = _laplacian(L)
    _require_tree(M)
    rhos, mags, lams, eps_val, eps_is_rho, rho_max = magnitude_samples(
        M, mode=mode, eps=eps, grid_step=grid_step, rho_max=rho_max
    )
    if lams.size == 0:
        return FeasibleRegion(((0.0, rho_max),), "direct_scan", rho_max)
    feas = mags < 1.0
    intervals = []
    i = 0
    n = len(rhos)
    while i < n:
        if not feas[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and feas[j + 1]:
            j += 1
        # left endpoint
        if i == 0:
            probe = rhos[0] * 1e-6
            if scan_magnitude(np.array([probe]), lams, eps_val, eps_is_rho)[0] < 1.0:
                left = 0.0
            else:
                left = _refine_boundary(rhos[0], probe, lams, eps_val, eps_is_rho)
        else:
            left = _refine_boundary(rhos[i], rhos[i - 1], lams, eps_val, eps_is_rho)
        # right endpoint
        if j == n - 1:
            right = rho_max
        else:
            right = _refine_boundary(rhos[j], rhos[j + 1], lams, eps_val, eps_is_rho)
        if right > left:
            intervals.append((left, right))
        i = j + 1
    return FeasibleRegion(tuple(intervals), "direct_scan", rho_max)


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

    @property
    def positive(self) -> tuple[float, float]:
        return (0.0, self.upper)


def epsilon_bounds(lams) -> EpsilonRange:
    """Per-eigenvalue admissibility conditions, applied to a given spectrum.

    Eigenvalues with |Re| = |Im| impose nothing; |Re| > |Im| caps eps above,
    |Re| < |Im| bounds it below (by a negative number, so the positive part
    is always an interval anchored at 0).
    """
    lo, hi = -np.inf, np.inf
    for lam in np.atleast_1d(np.asarray(lams, dtype=complex)):
        x, y = lam.real, lam.imag
        ax, ay = abs(x), abs(y)
        if abs(ax - ay) <= 1e-12 * max(1.0, ax + ay):
            continue
        if ax > ay:
            hi = min(hi, x / (x * x - y * y))
        else:
            lo = max(lo, -x / (y * y - x * x))
    return EpsilonRange(lower=lo, upper=hi)


def epsilon_range(L) -> EpsilonRange:
    """Admissible auxiliary step sizes for a spanning-tree Laplacian."""
    M = _laplacian(L)
    _require_tree(M)
    return epsilon_bounds(nonzero_eigenvalues(M))


def feasible_rho_bound(L, eps: float) -> FeasibleRegion:
    """Closed-form consensus range for the fixed-eps iteration.

    The update matrix is affine in rho there, so the region is a single
    interval (0, min over eigenvalues of 2*Re / |.|^2) of the shifted
    spectrum lam - eps*lam^2.
    """
    M = _laplacian(L)
    _require_tree(M)
    rng = epsilon_range(M)
    if not rng.contains(eps):
        raise ValidationError(
            f"eps={eps} is outside the admissible range ({rng.lower}, {rng.upper})"
        )
    lams = nonzero_eigenvalues(M)
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


def cubic_real_roots(c0: float, c1: float, c2: float, c3: float) -> list[float]:
    """Ascending real roots of c3*x^3 + c2*x^2 + c1*x + c0.

    Closed-form (trigonometric for three real roots, Cardano otherwise) with
    a Newton polish; degenerate leading coefficients fall back to the
    quadratic/linear formulas.
    """
    scale = max(abs(c0), abs(c1), abs(c2), abs(c3), 1.0)
    if abs(c3) <= 1e-14 * scale:
        if abs(c2) <= 1e-14 * scale:
            if abs(c1) <= 1e-14 * scale:
                return []
            return [-c0 / c1]
        disc = c1 * c1 - 4.0 * c2 * c0
        if disc < 0:
            return []
        sq = np.sqrt(disc)
        return sorted([(-c1 - sq) / (2 * c2), (-c1 + sq) / (2 * c2)])

    a, b, c = c2 / c3, c1 / c3, c0 / c3
    p = b - a * a / 3.0
    q = 2.0 * a**3 / 27.0 - a * b / 3.0 + c
    disc = -4.0 * p**3 - 27.0 * q * q
    shift = -a / 3.0
    if disc > 0:
        m = 2.0 * np.sqrt(-p / 3.0)
        arg = np.clip(3.0 * q / (2.0 * p) * np.sqrt(-3.0 / p), -1.0, 1.0)
        phi = np.arccos(arg) / 3.0
        ts = [m * np.cos(phi - 2.0 * np.pi * k / 3.0) for k in range(3)]
    elif disc < 0:
        d = np.sqrt(q * q / 4.0 + p**3 / 27.0)
        ts = [np.cbrt(-q / 2.0 + d) + np.cbrt(-q / 2.0 - d)]
    else:
        ts = [0.0] if p == 0 else [3.0 * q / p, -3.0 * q / (2.0 * p)]

    roots = []
    for t in ts:
        x = t + shift
        for _ in range(3):  # Newton polish to ~1e-12 relative
            f = ((c3 * x + c2) * x + c1) * x + c0
            df = (3.0 * c3 * x + 2.0 * c2) * x + c1
            if abs(df) < 1e-300:
                break
            x -= f / df
        roots.append(float(x))
    roots.sort()
    out = []
    for r in roots:
        if not out or abs(r - out[-1]) > 1e-10 * max(1.0, abs(r)):
            out.append(r)
    return out


def cubic_coefficients(lam: complex, variant: str) -> tuple[float, float, float, float]:
    """Ascending coefficients of the per-eigenvalue feasibility cubic in rho.

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


def _negative_set(coeffs, hi: float) -> list[tuple[float, float]]:
    # Open subintervals of (0, hi) where the ascending-coefficient cubic is < 0.
    pts = [0.0] + [r for r in cubic_real_roots(*coeffs) if 0.0 < r < hi] + [hi]
    out = []
    for lo, up in zip(pts, pts[1:]):
        if up - lo <= 1e-14:
            continue
        mid = 0.5 * (lo + up)
        if npoly.polyval(mid, coeffs) < 0.0:
            out.append((lo, up))
    return out


def _intersect(a: list[tuple[float, float]], b: list[tuple[float, float]]):
    out = []
    for lo1, hi1 in a:
        for lo2, hi2 in b:
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if hi > lo:
                out.append((lo, hi))
    out.sort()
    return out


def feasible_rho_cubic(
    L, variant: str = "corrected", rho_max: float | None = None
) -> FeasibleRegion:
    """Region for the eps = rho iteration via per-eigenvalue cubic root isolation."""
    M = _laplacian(L)
    _require_tree(M)
    lams = nonzero_eigenvalues(M)
    if rho_max is None:
        rho_max = default_rho_max(lams)
    region = [(0.0, float(rho_max))]
    for lam in lams:
        region = _intersect(region, _negative_set(cubic_coefficients(lam, variant), rho_max))
        if not region:
            break
    return FeasibleRegion(tuple(region), f"cubic_{variant}", float(rho_max))


# ---------------------------------------------------------------------------
# Hermite-Biehler certificate for eps = rho
# ---------------------------------------------------------------------------


def origin_condition_value(rho: float, lam: complex) -> float:
    """Sign-determining factor of the interlacing origin condition for one eigenvalue."""
    a = abs(lam)
    phi = np.angle(lam)
    return float(
        -(rho**3) * a**3
        + rho**2 * a**2 * np.cos(phi) ** 2
        - 2.0 * rho * a * np.sin(2.0 * phi)
        - rho * a
        + 2.0 * np.cos(phi)
    )


def excluded_root_curves(lam: complex, theta_points: int = 720) -> np.ndarray:
    """Sampled step sizes at which the interlacing roots collide, over the phase grid.

    The collision curves are quadratic in rho; only parameter values with a
    nonnegative discriminant (a real square root) contribute samples.
    """
    a = abs(lam)
    phi = np.angle(lam)
    theta = np.linspace(0.0, 2.0 * np.pi, theta_points, endpoint=False)
    chunks = []
    disc_x = a * a * (np.cos(phi) ** 2 * (8.0 * np.cos(theta) - 7.0) + 4.0 * (1.0 - np.cos(theta)))
    den_x = 2.0 * a * a * np.cos(2.0 * phi)
    if abs(den_x) > 1e-12:
        good = disc_x >= 0.0
        sq = np.sqrt(disc_x[good])
        chunks.append((a * np.cos(phi) + sq) / den_x)
        chunks.append((a * np.cos(phi) - sq) / den_x)
    disc_y = a * a * (np.sin(phi) ** 2 - 4.0 * np.sin(2.0 * phi) * np.sin(theta))
    den_y = 2.0 * a * a * np.sin(2.0 * phi)
    if abs(den_y) > 1e-12:
        good = disc_y >= 0.0
        sq = np.sqrt(disc_y[good])
        chunks.append((a * np.sin(phi) + sq) / den_y)
        chunks.append((a * np.sin(phi) - sq) / den_y)
    return np.concatenate(chunks) if chunks else np.empty(0)


def hb_step_check(L, rho: float, theta_points: int = 720) -> StepSizeDiagnostics:
    """Interlacing-based consensus certificate for one step size, with diagnostics.

    Real eigenvalues contribute the plain bound rho < 1/lam; complex ones
    need a positive origin value and a step size clear of every sampled root
    collision.  The direct magnitude verdict is reported alongside as the
    authoritative cross-check.
    """
    M = _laplacian(L)
    _require_tree(M)
    if rho <= 0:
        raise ValidationError("rho must be positive")
    lams = nonzero_eigenvalues(M)
    records = []
    hb_ok = True
    for lam in lams:
        mag = abs(1.0 - rho * lam + rho * rho * lam * lam)
        if abs(lam.imag) <= 1e-12 * abs(lam):
            records.append(EigenStepRecord(lam, float(mag), None, np.empty(0)))
            hb_ok = hb_ok and (lam.real > 0) and (rho < 1.0 / lam.real)
            continue
        f_val = origin_condition_value(rho, lam)
        excluded = excluded_root_curves(lam, theta_points=theta_points)
        clear = excluded.size == 0 or np.abs(excluded - rho).min() > EXCLUDED_ROOT_MARGIN
        hb_ok = hb_ok and (f_val > 0.0) and clear
        records.append(EigenStepRecord(lam, float(mag), f_val, excluded))
    hb_ok = bool(hb_ok)
    direct = bool(scan_magnitude(np.array([rho]), lams, 0.0, True)[0] < 1.0)
    if hb_ok != direct:
        logger.info(
            "certificate and direct magnitude test disagree at rho=%.6g "
            "(certificate=%s, direct=%s)",
            rho,
            hb_ok,
            direct,
        )
    return StepSizeDiagnostics(float(rho), tuple(records), hb_ok, direct)


# ---------------------------------------------------------------------------
# bilinear transform and the Hermite-Biehler Hurwitz test
# ---------------------------------------------------------------------------


def bilinear_transform(s_coeffs, degree: int | None = None) -> np.ndarray:
    """Map a degree-d polynomial S through z -> (z+1)/(z-1), clearing denominators.

    Returns the ascending coefficients of Q(z) = (z-1)^d * S((z+1)/(z-1));
    roots inside the unit disk map to roots in the open left half-plane, so
    Schur stability of S is equivalent to Hurwitz stability of Q.
    """
    c = np.atleast_1d(np.asarray(s_coeffs, dtype=complex))
    if c.ndim != 1 or c.size == 0:
        raise ValidationError("expected a nonempty 1-D coefficient array")
    d = c.size - 1
    if degree is not None and int(degree) != d:
        raise ValidationError(f"declared degree {degree} != coefficient degree {d}")
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
