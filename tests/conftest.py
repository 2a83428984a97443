"""Shared generators and fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from opiniondyn import fixtures as fx
from opiniondyn import stepsize
from opiniondyn.netcore import SystemSpec
from opiniondyn.spectral import CONSENSUS, classify_system


def random_spanning_tree_laplacian(
    rng: np.random.Generator,
    n: int,
    extra_edge_prob: float = 0.4,
    wmin: float = 0.5,
    wmax: float = 1.5,
) -> np.ndarray:
    """Random weighted digraph Laplacian guaranteed to contain a rooted spanning tree."""
    order = rng.permutation(n)
    L = np.zeros((n, n))
    reachable = [int(order[0])]
    for node in order[1:]:
        parent = reachable[int(rng.integers(len(reachable)))]
        w = rng.uniform(wmin, wmax)
        L[node, parent] -= w
        L[node, node] += w
        reachable.append(int(node))
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < extra_edge_prob:
                w = rng.uniform(wmin, wmax)
                L[i, j] -= w
                L[i, i] += w
    return L


def random_laplacian(rng: np.random.Generator, n: int, edge_prob: float) -> np.ndarray:
    """Random digraph Laplacian with no connectivity guarantee (weights >= 0.5)."""
    L = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < edge_prob:
                w = rng.uniform(0.5, 1.5)
                L[i, j] -= w
                L[i, i] += w
    return L


def random_stochastic(rng: np.random.Generator, n: int) -> np.ndarray:
    M = rng.uniform(0.05, 1.0, (n, n))
    return M / M.sum(axis=1, keepdims=True)


def random_consensus_system(
    rng: np.random.Generator, n: int, max_tries: int = 40
) -> SystemSpec:
    """Random cooperative system verified to classify as consensus.

    A uniform gain below min 2*Re(mu)/|mu|^2 over the nonzero product spectrum
    keeps every non-unit eigenvalue inside the disk; draws whose product
    spectrum leaves the right half plane are rejected, with a tied
    appraisal D = I - eps*L as a guaranteed fallback.
    """
    for attempt in range(max_tries + 1):
        L = random_spanning_tree_laplacian(rng, n)
        if attempt == max_tries:
            eps = 0.5 / L.diagonal().max()
            D = np.eye(n) - eps * L
        else:
            D = random_stochastic(rng, n)
        mu = np.linalg.eigvals(L @ D)
        nz = mu[np.abs(mu) > 1e-9 * max(1.0, np.abs(mu).max())]
        if nz.size == 0 or nz.real.min() <= 1e-6:
            continue
        s = 0.9 * float((2.0 * nz.real / np.abs(nz) ** 2).min())
        spec = SystemSpec(np.full(n, s), L, D)
        if classify_system(spec).classification == CONSENSUS:
            return spec
    raise AssertionError("could not draw a consensus system; generator parameters off")


def cubic_real_roots(c0: float, c1: float, c2: float, c3: float) -> list[float]:
    """Ascending real roots of c3*x^3 + c2*x^2 + c1*x + c0, through the step-size
    module's batch cubic solver."""
    r = stepsize._cubic_roots(np.array([[c0, c1, c2, c3]], dtype=float))[0]
    return r[~np.isnan(r)].tolist()


def multi_issue_matrix(spec: SystemSpec) -> np.ndarray:
    """Materialized Kronecker update matrix of an issue-coupled system, the
    oracle for the block update and the coupled verdicts (small systems only)."""
    return np.kron(spec.iteration_matrix(), spec.mids)


def match_eigenvalue_multisets(a, b, tol: float) -> float:
    """Greedy nearest-neighbor pairing; returns the worst pairing distance."""
    a = list(np.asarray(a, dtype=complex))
    b = list(np.asarray(b, dtype=complex))
    assert len(a) == len(b)
    worst = 0.0
    for z in a:
        k = int(np.argmin([abs(z - w) for w in b]))
        worst = max(worst, abs(z - b[k]))
        b.pop(k)
    assert worst <= tol, f"eigenvalue multisets differ by {worst:.3e}"
    return worst


@pytest.fixture(autouse=True)
def _fresh_laplacian_memo():
    """Each test starts with no stored Laplacian (check, tree verdict or
    spectrum), so that what it counts or checks does not depend on which
    tests ran before it."""
    stepsize._checked_entry.cache_clear()


@pytest.fixture(scope="session")
def example1():
    return fx.fixture("example1")


@pytest.fixture(scope="session")
def sec5_coop():
    return fx.fixture("sec5-coop")


@pytest.fixture(scope="session")
def sec5_antag():
    return fx.fixture("sec5-antag")
