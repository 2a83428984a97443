"""Step-size regions, cubic variants, and the polynomial stability toolkit."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opiniondyn import netcore, stepsize
from opiniondyn.errors import ValidationError
from opiniondyn.netcore import SystemSpec
from opiniondyn.spectral import CONSENSUS, classify_system, eigen
from opiniondyn.stepsize import (
    ENDPOINT_TOL,
    FeasibleRegion,
    PolynomialPair,
    bilinear_transform,
    cubic_coefficients,
    direct_scan,
    epsilon_bounds,
    epsilon_range,
    feasible_rho_bound,
    feasible_rho_cubic,
    feasible_rho_direct,
    hb_step_check,
    hermite_biehler_hurwitz,
    imaginary_axis_parts,
    magnitude_samples,
    nonzero_eigenvalues,
    scan_magnitude,
    _bilinear_quadratics,
)

from conftest import cubic_real_roots, random_spanning_tree_laplacian

L2 = np.array([[1.0, -1.0], [-1.0, 1.0]])
L3_CYCLE = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [-1.0, 0.0, 1.0]])


def random_symmetric_laplacian(rng, n):
    L = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.7:
                w = rng.uniform(0.5, 1.5)
                L[i, j] = L[j, i] = -w
                L[i, i] += w
                L[j, j] += w
    if not (L.diagonal() > 0).all():  # keep it connected enough
        return random_symmetric_laplacian(rng, n)
    return L


class TestDirectScan:
    def test_two_cycle(self):
        # scalar oracle: with u = rho*lam, |1 - u + u^2| < 1 iff u in (0, 1)
        region = feasible_rho_direct(L2)
        assert len(region.intervals) == 1
        lo, hi = region.intervals[0]
        assert lo == 0.0
        assert abs(hi - 0.5) < 1e-6

    def test_symmetric_matches_inverse_spectral_radius(self):
        rng = np.random.default_rng(61)
        for _ in range(5):
            L = random_symmetric_laplacian(rng, int(rng.integers(3, 6)))
            lam_max = float(np.abs(eigen(L)).max())
            region = feasible_rho_direct(L)
            assert len(region.intervals) == 1
            assert abs(region.intervals[0][1] - 1.0 / lam_max) < 1e-6
            assert region.intervals[0][0] == 0.0

    def test_single_agent_unconstrained(self):
        region = feasible_rho_direct(np.zeros((1, 1)), rho_max=10.0)
        assert region.intervals == ((0.0, 10.0),)

    def test_requires_spanning_tree(self):
        with pytest.raises(ValidationError):
            feasible_rho_direct(np.zeros((2, 2)))

    def test_rho_max_past_the_last_grid_point_is_probed(self):
        # lam = 0.9996: feasible exactly for rho < 1.0004, which lies between
        # the last grid point (1.000) and rho_max.
        L = np.array([[0.5, -0.5], [-0.5, 0.5]]) / 1.0004
        assert magnitude_samples(L, rho_max=1.0009)[0].size == 1000
        direct = feasible_rho_direct(L, rho_max=1.0009)
        cubic = feasible_rho_cubic(L, rho_max=1.0009)
        assert abs(cubic.intervals[0][1] - 1.0004) < 1e-12
        assert len(direct.intervals) == 1 and direct.intervals[0][0] == 0.0
        assert abs(direct.intervals[0][1] - cubic.intervals[0][1]) <= ENDPOINT_TOL

    def test_no_grid_point_lies_past_rho_max(self):
        # lam = 3000: |f| = 7 at the default first grid point 1e-3, but the
        # whole of (0, 1e-4) is feasible.
        L = 1500.0 * L2
        rhos = magnitude_samples(L, rho_max=1e-4)[0]
        assert rhos.tolist() == [1e-4]
        assert feasible_rho_direct(L, rho_max=1e-4).intervals == ((0.0, 1e-4),)
        assert feasible_rho_cubic(L, rho_max=1e-4).intervals == ((0.0, 1e-4),)

    def test_fixed_eps_mode_is_linear_circle_condition(self):
        region = feasible_rho_direct(L2, eps=0.1)
        # lam* = 2 - 0.4 = 1.6 so the circle condition caps rho at 2/1.6
        assert abs(region.intervals[0][1] - 1.25) < 1e-6

    def test_a_given_eps_is_fixed_and_none_tracks_rho(self):
        # lam = 2: |1 - 2 rho + 4 e rho|, with e = rho when eps is None.
        rhos, tracked, _, eps, _ = magnitude_samples(L2, rho_max=0.5)
        assert eps is None
        np.testing.assert_allclose(tracked, np.abs(1 - 2 * rhos + 4 * rhos**2), atol=1e-15)
        rhos, fixed, _, eps, _ = magnitude_samples(L2, eps=0.3, rho_max=0.5)
        assert eps == 0.3
        np.testing.assert_allclose(fixed, np.abs(1 - 0.8 * rhos), atol=1e-15)


class TestClosedFormBound:
    def test_two_cycle_shifted_spectrum(self):
        region = feasible_rho_bound(L2, 0.1)
        assert abs(region.intervals[0][1] - 1.25) < 1e-12

    def test_undirected_small_eps_formula(self):
        rng = np.random.default_rng(67)
        L = random_symmetric_laplacian(rng, 4)
        eps = 0.05
        lams = nonzero_eigenvalues(L).real
        expected = (2.0 / (lams - eps * lams**2)).min()
        got = feasible_rho_bound(L, eps).intervals[0][1]
        assert abs(got - expected) < 1e-10

    def test_contained_in_direct_scan(self):
        for eps in (0.05, 0.2):
            bound = feasible_rho_bound(L3_CYCLE, eps).intervals[0][1]
            direct = feasible_rho_direct(L3_CYCLE, eps=eps)
            assert abs(direct.intervals[0][1] - bound) < 1e-6

    def test_rejects_inadmissible_eps(self):
        rng_upper = epsilon_range(L2).upper
        with pytest.raises(ValidationError):
            feasible_rho_bound(L2, rng_upper + 0.1)


class TestEpsilonRange:
    def test_real_spectrum_caps_at_inverse_eigenvalue(self):
        r = epsilon_range(L2)
        assert r.lower == -np.inf
        assert abs(r.upper - 0.5) < 1e-12  # 1/lam for lam = 2

    def test_diagonal_phase_eigenvalues_are_unconstrained(self):
        r = epsilon_bounds([1.0 + 1.0j, 1.0 - 1.0j])
        assert r.lower == -np.inf and r.upper == np.inf

    def test_mixed_spectrum_oracle(self):
        r = epsilon_range(L3_CYCLE)
        lams = nonzero_eigenvalues(L3_CYCLE)
        for eps in np.linspace(r.lower if np.isfinite(r.lower) else -5.0, r.upper, 100):
            if not r.contains(eps):
                continue
            star = lams - eps * lams**2
            assert star.real.min() > 0
        beyond = lams - (r.upper + 1e-3) * lams**2
        assert beyond.real.min() <= 0


def _epsilon_bounds_loop(lams):
    # Reference: one eigenvalue at a time, skipping |Re| = |Im| up to rounding.
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
    return lo, hi


def _eigenvalue_strategy():
    part = st.floats(-50.0, 50.0).map(lambda v: v + 0.0)  # no -0.0
    return st.one_of(
        st.builds(complex, part, part),
        st.builds(complex, part),  # real
        st.builds(lambda x, sign: complex(x, sign * x), part, st.sampled_from([1.0, -1.0])),
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lams=st.lists(_eigenvalue_strategy(), max_size=12))
def test_epsilon_bounds_match_the_per_eigenvalue_loop(lams):
    got = epsilon_bounds(lams)
    lo, hi = _epsilon_bounds_loop(lams)
    assert np.float64(got.lower).tobytes() == np.float64(lo).tobytes()
    assert np.float64(got.upper).tobytes() == np.float64(hi).tobytes()


class TestCubic:
    def test_real_eigenvalue_coefficients(self):
        coeffs = cubic_coefficients(2.0 + 0j, "corrected")
        assert coeffs == (-4.0, 12.0, -16.0, 16.0)
        # boundary: 16*r^3 - 16*r^2 + 12*r - 4 vanishes exactly at r = 0.5
        assert 16 * 0.5**3 - 16 * 0.5**2 + 12 * 0.5 - 4 == 0.0
        roots = cubic_real_roots(*coeffs)
        assert len(roots) == 1 and abs(roots[0] - 0.5) < 1e-12

    def test_alternate_variant_disagrees_at_harmless_point(self):
        # |1 - 0.5 + 0.25| = 0.75 < 1, yet the alternate cubic rejects rho = 0.25.
        assert abs(1 - 0.5 + 0.25) < 1.0
        coeffs = cubic_coefficients(2.0 + 0j, "paper")
        assert coeffs == (-4.0, 12.0, 16.0, 32.0)
        val = 32 * 0.25**3 + 16 * 0.25**2 + 12 * 0.25 - 4
        assert val > 0  # alternate inequality fails
        region_paper = feasible_rho_cubic(L2, variant="paper")
        region_direct = feasible_rho_direct(L2)
        assert not region_paper.contains(0.25)
        assert region_direct.contains(0.25)

    def test_undirected_matches_inverse_spectral_radius(self):
        rng = np.random.default_rng(71)
        L = random_symmetric_laplacian(rng, 5)
        lam_max = float(np.abs(eigen(L)).max())
        region = feasible_rho_cubic(L)
        assert len(region.intervals) == 1
        assert abs(region.intervals[0][1] - 1.0 / lam_max) < 1e-10

    def test_matches_direct_scan_on_random_graphs(self):
        rng = np.random.default_rng(73)
        for _ in range(5):
            L = random_spanning_tree_laplacian(rng, int(rng.integers(2, 6)))
            a = feasible_rho_cubic(L)
            b = feasible_rho_direct(L)
            assert len(a.intervals) == len(b.intervals)
            for (lo1, hi1), (lo2, hi2) in zip(a.intervals, b.intervals):
                assert abs(lo1 - lo2) < 1e-5 and abs(hi1 - hi2) < 1e-5

    def test_cubic_solver_against_numpy(self):
        rng = np.random.default_rng(79)
        for _ in range(300):
            coeffs = rng.uniform(-3, 3, 4)
            if abs(coeffs[3]) < 0.1:
                coeffs[3] = 0.5
            mine = cubic_real_roots(*coeffs)
            ref = np.roots(coeffs[::-1])
            ref_real = np.sort(ref[np.abs(ref.imag) < 1e-9].real)
            assert len(mine) == len(ref_real)
            if len(mine):
                np.testing.assert_allclose(mine, ref_real, atol=1e-8)


def _scalar_cubic_roots(c0, c1, c2, c3) -> list[float]:
    """Reference for ``cubic_real_roots``: the same closed forms and Newton
    polish on one cubic at a time, through numpy's scalar calls."""
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
        for _ in range(3):
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


def _coefficient_rows(rng, count: int) -> np.ndarray:
    """Random cubics over six decades, some with vanishing leading terms, plus
    both feasibility variants of random eigenvalues."""
    C = rng.uniform(-3, 3, (count, 4)) * rng.choice([1e-6, 1e-3, 1.0, 1e3], (count, 4))
    C[::7, 3] = 0.0
    C[::11, 2] = 0.0
    C[::13, 1] = 0.0
    lam = rng.uniform(0.01, 30, count) + 1j * rng.uniform(-20, 20, count) * (rng.random(count) < 0.7)
    rows = [np.column_stack(cubic_coefficients(lam, v)) for v in ("corrected", "paper")]
    fixed = [[1.0, -3.0, 3.0, -1.0], [0.0, 0.0, 0.0, 1.0], [1.0, 2.0, 1.0, 0.0], [0.0] * 4]
    return np.vstack([C, *rows, fixed])


def test_batch_roots_are_bitwise_the_scalar_formulas():
    for row in _coefficient_rows(np.random.default_rng(2), 600):
        want = _scalar_cubic_roots(*row)
        assert np.array(cubic_real_roots(*row)).tobytes() == np.array(want).tobytes()


def _negative_set(coeffs, hi: float) -> list[tuple[float, float]]:
    # Open subintervals of (0, hi) where the ascending-coefficient cubic is < 0.
    pts = [0.0] + [r for r in _scalar_cubic_roots(*coeffs) if 0.0 < r < hi] + [hi]
    out = []
    for lo, up in zip(pts, pts[1:]):
        if up - lo <= 1e-14:
            continue
        mid = 0.5 * (lo + up)
        if np.polynomial.polynomial.polyval(mid, coeffs) < 0.0:
            out.append((lo, up))
    return out


def _intersect(a, b):
    out = []
    for lo1, hi1 in a:
        for lo2, hi2 in b:
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if hi > lo:
                out.append((lo, hi))
    out.sort()
    return out


def _cubic_region_loop(L, variant: str, rho_max=None):
    """Reference cubic route: one eigenvalue at a time through the scalar
    root formulas, intersecting as it goes."""
    lams = nonzero_eigenvalues(L)
    if rho_max is None:
        rho_max = stepsize.default_rho_max(lams)
    region = [(0.0, float(rho_max))]
    for lam in lams:
        region = _intersect(region, _negative_set(cubic_coefficients(lam, variant), rho_max))
        if not region:
            break
    return tuple(region)


def _directed_cycle(n: int) -> np.ndarray:
    return np.eye(n) - np.roll(np.eye(n), 1, axis=1)


def _broadcast(L: np.ndarray, copies: int, w: float) -> np.ndarray:
    """``copies`` disjoint copies of ``L`` plus one leader that every node
    hears with weight ``w``: a spanning tree with each eigenvalue of
    ``L + w I`` repeated ``copies`` times."""
    n = L.shape[0] * copies
    out = np.zeros((n + 1, n + 1))
    out[1:, 1:] = np.kron(np.eye(copies), L) + w * np.eye(n)
    out[1:, 0] = -w
    return out


@st.composite
def _laplacians_with_trees(draw, max_n: int = 40):
    """Random digraphs, weighted directed cycles, Cartesian products (sums of
    eigenvalues, so repeats and conjugates) and broadcast copies, n <= max_n."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "cycle", "product", "broadcast"]))
    if kind == "random":
        return random_spanning_tree_laplacian(rng, draw(st.integers(2, max_n)), rng.uniform(0.02, 0.6))
    if kind == "cycle":
        return rng.uniform(0.2, 5.0) * _directed_cycle(draw(st.integers(2, max_n)))
    if kind == "product":
        a, b = draw(st.integers(2, 6)), draw(st.integers(2, 6))
        La, Lb = _directed_cycle(a), draw(st.sampled_from([_directed_cycle(b), _directed_cycle(a)]))
        return np.kron(La, np.eye(Lb.shape[0])) + np.kron(np.eye(a), Lb)
    small = draw(st.sampled_from([L2, L3_CYCLE, _directed_cycle(4)]))
    copies = draw(st.integers(1, (max_n - 1) // small.shape[0]))
    return _broadcast(small, copies, rng.uniform(0.1, 3.0))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(L=_laplacians_with_trees(), variant=st.sampled_from(["corrected", "paper"]),
       rho_max=st.one_of(st.none(), st.floats(1e-3, 3.0)))
def test_cubic_sweep_matches_the_per_eigenvalue_loop(L, variant, rho_max):
    got = feasible_rho_cubic(L, variant=variant, rho_max=rho_max)
    want = _cubic_region_loop(L, variant, rho_max)
    assert len(got.intervals) == len(want)
    for pair_got, pair_want in zip(got.intervals, want):
        assert np.array(pair_got).tobytes() == np.array(pair_want).tobytes()


def test_cubic_rows_are_solved_once(monkeypatch):
    # A 6-cycle has the conjugate pairs 1 - e^(+-i pi/3), 1 - e^(+-2i pi/3)
    # and the real 2: three distinct corrected cubics for five eigenvalues.
    solved = []
    roots = stepsize._cubic_roots
    monkeypatch.setattr(stepsize, "_cubic_roots", lambda C: solved.append(len(C)) or roots(C))
    region = feasible_rho_cubic(_directed_cycle(6))
    assert solved == [3]
    assert region.intervals == _cubic_region_loop(_directed_cycle(6), "corrected")


class TestStepCertificate:
    def test_real_spectrum_defers_to_inverse_eigenvalue(self):
        inside = hb_step_check(L2, 0.3)
        assert inside.hb_verdict and inside.direct_verdict
        # lam = 2: f = 1 - 0.6 + 0.36
        np.testing.assert_allclose(inside.eigenvalues, [2.0])
        np.testing.assert_allclose(inside.magnitudes, [0.76])
        outside = hb_step_check(L2, 0.6)
        assert not outside.hb_verdict and not outside.direct_verdict

    def test_complex_spectrum_inside(self):
        region = feasible_rho_direct(L3_CYCLE)
        rho = region.intervals[0][1] * 0.5
        diag = hb_step_check(L3_CYCLE, rho)
        assert diag.hb_verdict and diag.direct_verdict
        assert np.abs(diag.eigenvalues.imag).min() > 0.5
        assert diag.magnitudes.shape == (2,) and diag.magnitudes.max() < 1.0

    def test_complex_spectrum_outside(self):
        region = feasible_rho_direct(L3_CYCLE)
        rho = region.intervals[0][1] * 1.5
        diag = hb_step_check(L3_CYCLE, rho)
        assert not diag.hb_verdict and not diag.direct_verdict
        assert diag.magnitudes.max() > 1.0

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(ValidationError):
            hb_step_check(L2, 0.0)


@pytest.mark.parametrize("call", [
    lambda: hb_step_check(L2, np.nan),
    lambda: hb_step_check(L2, np.inf),
    lambda: hb_step_check(L2, -0.1),
    lambda: magnitude_samples(L2, grid_step=np.inf),
    lambda: magnitude_samples(L2, grid_step=np.nan),
    lambda: magnitude_samples(L2, grid_step=0.0),
    lambda: magnitude_samples(L2, rho_max=np.nan),
    lambda: magnitude_samples(L2, rho_max=-1.0),
    lambda: magnitude_samples(L2, eps=np.nan),
    lambda: magnitude_samples(L2, grid_step=1e-7, rho_max=1.0),
    lambda: magnitude_samples(L2, grid_step=1e-300, rho_max=1e300),
    lambda: feasible_rho_direct(L2, rho_max=0.0),
    lambda: feasible_rho_direct(L2, rho_max=np.inf),
    lambda: feasible_rho_direct(L2, grid_step=-1e-3),
    lambda: feasible_rho_direct(L2, eps=np.inf),
    lambda: feasible_rho_cubic(L2, rho_max=np.nan),
    lambda: feasible_rho_cubic(L2, rho_max=-1.0),
    lambda: hb_step_check(np.zeros((2, 2)), 0.1),
    lambda: feasible_rho_cubic(np.zeros((2, 2))),
    lambda: epsilon_range(np.zeros((2, 2))),
    lambda: feasible_rho_bound(np.zeros((2, 2)), 0.1),
    lambda: magnitude_samples(np.zeros((2, 2))),
    lambda: nonzero_eigenvalues(np.zeros((2, 2))),
])
def test_step_size_routes_reject_bad_input(call):
    with pytest.raises(ValidationError):
        call()


def test_grid_point_count_is_capped(monkeypatch):
    # lam = 0.01 puts the default rho_max at RHO_MAX_CAP: the default grid
    # there has 10**5 points.
    assert magnitude_samples(0.005 * L2)[0].size == 10**5
    monkeypatch.setattr(stepsize, "MAX_GRID_POINTS", 10)
    assert magnitude_samples(L2, grid_step=0.1, rho_max=1.0)[0].size == 10
    with pytest.raises(ValidationError, match="at most 10"):
        magnitude_samples(L2, grid_step=0.1, rho_max=1.1)


@pytest.mark.parametrize("as_input", [np.array, list], ids=["ndarray", "list"])
def test_nonzero_eigenvalues_checks_any_input_type(as_input):
    with pytest.raises(ValidationError, match="^laplacian rows must sum to 0"):
        nonzero_eigenvalues(as_input([[1.0, -0.5], [-1.0, 1.0]]))


@pytest.mark.parametrize("call", [
    lambda L: magnitude_samples(L),
    lambda L: direct_scan(L),
    lambda L: feasible_rho_cubic(L),
    lambda L: hb_step_check(L, 0.1),
    lambda L: epsilon_range(L),
    lambda L: feasible_rho_bound(L, 0.1),
])
def test_each_route_checks_the_laplacian_once(call, monkeypatch):
    # A new Laplacian is checked once and a stored one zero times, whatever
    # its input type: the tree predicate makes the one check on a memo miss.
    # Every call makes one memo lookup.
    calls, lookups = [], []
    check = netcore.check_laplacian
    monkeypatch.setattr(netcore, "check_laplacian", lambda L: calls.append(1) or check(L))
    entry = stepsize._checked_entry
    monkeypatch.setattr(stepsize, "_checked_entry", lambda *key: lookups.append(1) or entry(*key))
    call(L2.tolist())
    assert len(calls) == 1
    call(L2.tolist())
    call(L2)
    assert len(calls) == 1 and len(lookups) == 3


def _factors(rho, lams):
    return 1.0 - rho * lams + rho * rho * lams * lams


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 9),
    frac=st.floats(0.01, 2.0),
)
def test_certificate_matches_direct_verdict_and_general_chain(seed, n, frac):
    L = random_spanning_tree_laplacian(np.random.default_rng(seed), n)
    lams = nonzero_eigenvalues(L)
    rho = frac / np.abs(lams).max()
    diag = hb_step_check(L, rho)
    np.testing.assert_array_equal(diag.eigenvalues, lams)
    f = _factors(rho, lams)
    np.testing.assert_array_equal(diag.magnitudes, np.abs(f))
    if np.abs(diag.magnitudes - 1.0).min() > 1e-9:
        assert diag.hb_verdict == diag.direct_verdict
    for fi, qi, mag in zip(f, _bilinear_quadratics(f), diag.magnitudes):
        # S(z) = z^2 - 2 Re(f) z + |f|^2 through the general chain.
        q = bilinear_transform([abs(fi) ** 2, -2.0 * fi.real, 1.0])
        np.testing.assert_allclose(q.imag, 0.0, atol=0.0)
        np.testing.assert_allclose(q.real, qi, rtol=1e-12, atol=1e-12)
        if abs(mag - 1.0) > 1e-9:
            closed = bool((qi > 0).all() or (qi < 0).all())
            assert closed == hermite_biehler_hurwitz(imaginary_axis_parts(q))
            assert closed == (mag < 1.0)
            # Jury's conditions for the monic z^2 + a1 z + a0, in exact
            # rationals: 1 + a0 - |a1| is |1 -+ f|^2 and would cancel in
            # floats when f is near +-1.
            re, im = Fraction(fi.real), Fraction(fi.imag)
            a0, a1 = re * re + im * im, -2 * re
            assert closed == (abs(a0) < 1 and abs(a1) < 1 + a0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
def test_direct_and_cubic_endpoints_agree(seed, n):
    L = random_spanning_tree_laplacian(np.random.default_rng(seed), n)
    direct = feasible_rho_direct(L).intervals
    cubic = feasible_rho_cubic(L).intervals
    assert len(direct) == len(cubic)
    for pair_d, pair_c in zip(direct, cubic):
        for a, b in zip(pair_d, pair_c):
            assert abs(a - b) <= ENDPOINT_TOL


def chain_backbone_laplacian(rng, n, extra_edge_prob=0.3):
    """Digraph Laplacian on the path 0 -> 1 -> ... -> n-1 plus random extra edges."""
    L = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if j == i - 1 or (i != j and rng.random() < extra_edge_prob):
                w = rng.uniform(0.5, 1.5)
                L[i, j] -= w
                L[i, i] += w
    return L


def test_certificate_sweep_on_chain_backbone_digraphs():
    # 120 graphs (n = 3-11) x 10 step sizes up to 1.3x the direct region's right end.
    rng = np.random.default_rng(3)
    checked = disagree = feasible = 0
    for g in range(120):
        L = chain_backbone_laplacian(rng, 3 + g % 9)
        right = feasible_rho_direct(L).intervals[-1][1]
        for rho in right * rng.uniform(1e-3, 1.3, 10):
            diag = hb_step_check(L, rho)
            if np.abs(diag.magnitudes - 1.0).min() <= 1e-9:
                continue
            checked += 1
            feasible += diag.direct_verdict
            disagree += diag.hb_verdict != diag.direct_verdict
    assert disagree == 0
    assert checked >= 1190 and 0 < feasible < checked


class TestBilinear:
    def test_unit_root_maps_to_minus_one(self):
        np.testing.assert_allclose(bilinear_transform([0.0, 1.0]), [1.0, 1.0], atol=1e-15)

    def test_outside_root_maps_to_right_half_plane(self):
        # (z-1) * ((z+1)/(z-1) - 2) = -z + 3 by direct expansion
        np.testing.assert_allclose(bilinear_transform([-2.0, 1.0]), [3.0, -1.0], atol=1e-15)

    def test_consensus_factor_expansion(self):
        # S(z) = z - 1 + u - u^2 with u = rho*lam maps to
        # Q(z) = (2 + u*(u-1)) + u*(1-u)*z
        for rho, lam in [(0.3, 2.0 + 0.0j), (0.2, 1.5 + 0.8j), (0.7, 0.4 - 1.1j)]:
            u = rho * lam
            got = bilinear_transform([u - u * u - 1.0, 1.0])
            np.testing.assert_allclose(got, [2.0 + u * (u - 1.0), u * (1.0 - u)], atol=1e-14)

    def test_rejects_zero_leading_coefficient(self):
        with pytest.raises(ValidationError):
            bilinear_transform([1.0, 0.0])


def _roots(coeffs):
    c = np.asarray(coeffs, dtype=complex)
    n = c.size
    while n > 0 and abs(c[n - 1]) == 0.0:
        n -= 1
    if n <= 1:
        return np.empty(0, dtype=complex)
    return np.roots(c[:n][::-1])


def is_hurwitz_direct(coeffs, margin=0.0) -> bool:
    r = _roots(coeffs)
    return bool(r.size and (r.real < -margin).all())


def is_schur_direct(coeffs, margin=0.0) -> bool:
    r = _roots(coeffs)
    return bool(r.size and (np.abs(r) < 1.0 - margin).all())


def _random_poly(rng, complex_coeffs: bool):
    deg = int(rng.integers(1, 5))
    c = rng.standard_normal(deg + 1)
    if complex_coeffs:
        c = c + 1j * rng.standard_normal(deg + 1)
    while abs(c[-1]) < 0.1:
        c[-1] = rng.standard_normal() + (1j * rng.standard_normal() if complex_coeffs else 0.0)
    return c


class TestHermiteBiehler:
    def test_first_order(self):
        pair = imaginary_axis_parts([1.0, 1.0])  # z + 1
        np.testing.assert_array_equal(pair.s_coeffs, [1.0, 0.0])
        np.testing.assert_array_equal(pair.q_coeffs, [0.0, 1.0])
        assert hermite_biehler_hurwitz(pair)

    def test_second_order_stable(self):
        pair = imaginary_axis_parts([2.0, 3.0, 1.0])  # roots -1, -2
        np.testing.assert_allclose(pair.s_coeffs, [2.0, 0.0, -1.0])
        np.testing.assert_allclose(pair.q_coeffs, [0.0, 3.0, 0.0])
        assert hermite_biehler_hurwitz(pair)

    def test_second_order_unstable(self):
        assert not hermite_biehler_hurwitz(imaginary_axis_parts([1.0, -1.0, 1.0]))

    def test_agrees_with_direct_root_test(self):
        rng = np.random.default_rng(83)
        checked = 0
        for _ in range(400):
            q = _random_poly(rng, complex_coeffs=bool(rng.integers(2)))
            r = _roots(q)
            if r.size == 0 or np.abs(r.real).min() < 1e-6 * max(1.0, np.abs(r).max()):
                continue  # borderline
            got = hermite_biehler_hurwitz(imaginary_axis_parts(q))
            assert got == is_hurwitz_direct(q)
            checked += 1
        assert checked >= 100

    def test_bilinear_preserves_stability_class(self):
        rng = np.random.default_rng(89)
        checked = 0
        for _ in range(400):
            s = _random_poly(rng, complex_coeffs=bool(rng.integers(2)))
            r = _roots(s)
            if r.size == 0 or np.abs(np.abs(r) - 1.0).min() < 1e-6:
                continue  # borderline for the disk
            if abs(np.polyval(s[::-1], 1.0)) < 1e-6:
                continue  # root at the map's pole
            q = bilinear_transform(s)
            rq = _roots(q)
            if rq.size and np.abs(rq.real).min() < 1e-6 * max(1.0, np.abs(rq).max()):
                continue
            schur = is_schur_direct(s)
            assert is_hurwitz_direct(q) == schur
            assert hermite_biehler_hurwitz(imaginary_axis_parts(q)) == schur
            checked += 1
        assert checked >= 100


class TestRegionRealization:
    def test_membership_matches_consensus_classification(self):
        # D = I - rho*L with uniform gain rho realizes the eps = rho iteration.
        rng = np.random.default_rng(97)
        for _ in range(6):
            n = int(rng.integers(2, 6))
            L = random_spanning_tree_laplacian(rng, n)
            region = feasible_rho_direct(L)
            assert region.intervals
            for lo, hi in region.intervals:
                for frac in (0.25, 0.5, 0.9):
                    rho = lo + frac * (hi - lo)
                    spec = SystemSpec(np.full(n, rho), L, np.eye(n) - rho * L)
                    assert classify_system(spec).classification == CONSENSUS
            lo, hi = region.intervals[-1]
            for rho in (hi + 2e-3, hi * 1.2 + 1e-2):
                spec = SystemSpec(np.full(n, rho), L, np.eye(n) - rho * L)
                assert classify_system(spec).classification != CONSENSUS


class TestFeasibleRegionType:
    def test_rejects_overlapping_intervals(self):
        with pytest.raises(ValidationError):
            FeasibleRegion(((0.0, 0.5), (0.4, 0.7)), "direct_scan", 1.0)
        with pytest.raises(ValidationError):
            FeasibleRegion(((0.5, 0.4),), "direct_scan", 1.0)

    def test_contains_and_serialization(self):
        r = FeasibleRegion(((0.0, 0.25), (0.5, 0.75)), "cubic_corrected", 1.0)
        assert r.contains(0.1) and r.contains(0.6)
        assert not r.contains(0.3) and not r.contains(0.25)
        doc = r.to_json_dict()
        assert doc["intervals"] == [[0.0, 0.25], [0.5, 0.75]]
        assert r.intervals[-1][1] == 0.75

    def test_pair_type_holds_split_parts(self):
        pair = PolynomialPair(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert pair.s_coeffs[0] == 1.0 and pair.q_coeffs[1] == 1.0


class TestSpectrumMemo:
    """One eigendecomposition per Laplacian, shared read-only by every route."""

    def test_the_routes_on_one_laplacian_make_one_eigendecomposition(self, monkeypatch):
        L = random_spanning_tree_laplacian(np.random.default_rng(5), 12)
        calls = []
        eigen_ = stepsize.eigen
        monkeypatch.setattr(stepsize, "eigen", lambda M: calls.append(1) or eigen_(M))
        feasible_rho_direct(L, rho_max=2.0)
        cubic = feasible_rho_cubic(L, rho_max=2.0)
        hb_step_check(L, 0.5 * cubic.intervals[0][1])
        eps = 0.5 * min(1.0, epsilon_range(L).upper)
        feasible_rho_bound(L, eps)
        assert len(calls) == 1

    def test_memoized_spectrum_is_bitwise_a_fresh_one(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            L = random_spanning_tree_laplacian(rng, int(rng.integers(2, 41)))
            w = eigen(L)
            fresh = w[np.abs(w) > 1e-9 * max(1.0, float(np.abs(w).max()))]
            for _ in range(2):  # a miss, then a hit
                got = nonzero_eigenvalues(L)
                assert got.dtype == fresh.dtype and got.tobytes() == fresh.tobytes()

    def test_a_returned_spectrum_cannot_be_written(self):
        want = nonzero_eigenvalues(L3_CYCLE).copy()
        with pytest.raises(ValueError):
            nonzero_eigenvalues(L3_CYCLE)[0] = 0.0
        with pytest.raises(ValueError):
            hb_step_check(L3_CYCLE, 0.1).eigenvalues[:] = 0.0
        np.testing.assert_array_equal(nonzero_eigenvalues(L3_CYCLE), want)
        np.testing.assert_array_equal(hb_step_check(L3_CYCLE, 0.1).eigenvalues, want)

    @pytest.mark.parametrize("call", [
        lambda L: direct_scan(L),
        lambda L: feasible_rho_direct(L),
        lambda L: feasible_rho_cubic(L),
        lambda L: hb_step_check(L, 0.1),
        lambda L: epsilon_range(L),
        lambda L: feasible_rho_bound(L, 0.1),
        lambda L: magnitude_samples(L),
        lambda L: nonzero_eigenvalues(L),
    ])
    def test_a_treeless_graph_is_rejected_on_every_call(self, call, monkeypatch):
        split = np.kron(np.eye(2), L2)
        verdicts = []
        tree = stepsize.has_spanning_tree
        monkeypatch.setattr(stepsize, "has_spanning_tree", lambda L: verdicts.append(1) or tree(L))
        for _ in range(2):
            with pytest.raises(ValidationError, match="no rooted spanning tree"):
                call(split)
        assert len(verdicts) == 1

    def test_every_route_on_one_laplacian_finds_the_tree_once(self, monkeypatch):
        L = random_spanning_tree_laplacian(np.random.default_rng(9), 10)
        verdicts, checks = [], []
        tree = stepsize.has_spanning_tree
        monkeypatch.setattr(stepsize, "has_spanning_tree", lambda L: verdicts.append(1) or tree(L))
        check = netcore.check_laplacian
        monkeypatch.setattr(netcore, "check_laplacian", lambda L: checks.append(1) or check(L))
        direct_scan(L)
        feasible_rho_cubic(L.tolist())
        hb_step_check(L, 0.1)
        feasible_rho_bound(L, 0.5 * epsilon_range(L).upper)
        assert len(verdicts) == 1 and len(checks) == 1

    def test_list_and_ndarray_input_share_one_entry(self, monkeypatch):
        calls = []
        eigen_ = stepsize.eigen
        monkeypatch.setattr(stepsize, "eigen", lambda M: calls.append(1) or eigen_(M))
        a = nonzero_eigenvalues(L3_CYCLE.tolist())
        b = nonzero_eigenvalues(L3_CYCLE)
        assert a is b and stepsize._checked_entry.cache_info().currsize == 1 and len(calls) == 1

    @pytest.mark.parametrize("as_input", [np.array, list], ids=["ndarray", "list"])
    def test_an_invalid_laplacian_raises_alike_on_every_call(self, as_input):
        bad = as_input([[1.0, -0.5], [-1.0, 1.0]])
        messages = []
        for _ in range(2):
            with pytest.raises(ValidationError) as err:
                feasible_rho_cubic(bad)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("laplacian rows must sum to 0")
        assert stepsize._checked_entry.cache_info().currsize == 0

    def test_the_memo_keeps_the_last_few_laplacians(self, monkeypatch):
        calls = []
        eigen_ = stepsize.eigen
        monkeypatch.setattr(stepsize, "eigen", lambda M: calls.append(1) or eigen_(M))
        size = stepsize._checked_entry.cache_info().maxsize
        mats = [k * L3_CYCLE for k in range(1, size + 2)]
        for M in mats:
            nonzero_eigenvalues(M)
        assert stepsize._checked_entry.cache_info().currsize == size and len(calls) == len(mats)
        nonzero_eigenvalues(mats[-1])  # stored
        nonzero_eigenvalues(mats[0])  # the oldest, dropped
        assert len(calls) == len(mats) + 1


class TestMemoIsolation:
    """The autouse fixture in conftest.py empties the memo before each test."""

    def test_a_fills_the_memo(self):
        nonzero_eigenvalues(L2)
        assert stepsize._checked_entry.cache_info().currsize == 1

    def test_b_starts_with_an_empty_memo(self):
        assert stepsize._checked_entry.cache_info().currsize == 0


def _repeated_and_conjugate_laplacians():
    rng = np.random.default_rng(13)
    yield from (random_spanning_tree_laplacian(rng, n) for n in (2, 7, 23, 40))
    yield from (_directed_cycle(n) for n in (3, 8, 31))
    yield _broadcast(L3_CYCLE, 5, 0.7)
    yield np.kron(_directed_cycle(4), np.eye(4)) + np.kron(np.eye(4), _directed_cycle(4))


@pytest.mark.parametrize("eps", [None, 0.05])
def test_scan_of_the_distinct_spectrum_is_bitwise_the_full_scan(eps):
    for L in _repeated_and_conjugate_laplacians():
        rhos, mags, lams, eps_val, _ = magnitude_samples(L, eps=eps)
        full = nonzero_eigenvalues(L)
        assert mags.tobytes() == scan_magnitude(rhos, full, eps_val).tobytes()
        assert lams.size <= full.size and (lams.imag >= 0).all()
