"""Seeded, vectorized input generator for the benchmark workloads.

Everything here uses numpy only; nothing calls into opiniondyn, so the
program under test receives nothing but the arrays drawn here.  Each draw
takes an explicit ``numpy.random.Generator`` so the same seed always gives
the same inputs.
"""

from __future__ import annotations

import numpy as np

def strong_weights(rng: np.random.Generator, n: int, degree: int = 4) -> np.ndarray:
    """Nonnegative influence weights of a strongly connected digraph.

    A directed ring through a random permutation guarantees strong
    connectivity; ``degree * n`` further random edges thicken it.
    ``W[i, j] > 0`` means agent j influences agent i.
    """
    W = np.zeros((n, n))
    perm = rng.permutation(n)
    W[perm, np.roll(perm, 1)] = rng.uniform(0.5, 1.5, n)
    k = degree * n
    W[rng.integers(0, n, k), rng.integers(0, n, k)] = rng.uniform(0.5, 1.5, k)
    np.fill_diagonal(W, 0.0)
    return W


def laplacian(W: np.ndarray) -> np.ndarray:
    """Row-sum-zero Laplacian of ``W``, scaled to unit mean degree."""
    L = np.diag(W.sum(axis=1)) - W
    return L / (np.trace(L) / L.shape[0])


def silence(W: np.ndarray, agents) -> np.ndarray:
    """Copy of ``W`` in which the given agents listen to nobody.

    One silenced agent of a strongly connected graph is the root of a
    spanning tree (a leader-follower graph); two silenced agents leave the
    graph without any rooted spanning tree.
    """
    W = W.copy()
    W[np.asarray(agents), :] = 0.0
    return W


def appraisal(rng: np.random.Generator, n: int, row_scale: bool = False) -> np.ndarray:
    """Diagonally dominant cooperative appraisal ``0.6 I + 0.4 R``.

    ``R`` is row-stochastic, so rows sum to one and the unit eigenvector is
    the all-ones direction (consensus).  With ``row_scale`` every row is
    shrunk by a factor in [0.6, 0.9], which tilts that eigenvector off the
    all-ones direction (convergence to clusters).
    """
    R = rng.random((n, n))
    R /= R.sum(axis=1, keepdims=True)
    D = 0.6 * np.eye(n) + 0.4 * R
    if row_scale:
        D *= rng.uniform(0.6, 0.9, n)[:, None]
    return D


def coupling(rng: np.random.Generator, m: int, damp: float = 1.0) -> np.ndarray:
    """Row-stochastic issue coupling ``0.5 I + 0.5 R``, scaled by ``damp``."""
    R = rng.random((m, m))
    R /= R.sum(axis=1, keepdims=True)
    return damp * (0.5 * np.eye(m) + 0.5 * R)


def gain_for_rho(mu: np.ndarray, target: float) -> float | None:
    """Smallest scalar gain g with ``max |1 - g mu| == target`` over nonzero ``mu``.

    ``|1 - g mu|^2 <= r^2`` is a quadratic inequality in g, so each
    eigenvalue admits a closed interval of gains; the answer is the left end
    of their intersection, or None when the intersection is empty.
    """
    mu = mu[np.abs(mu) > 1e-9 * np.abs(mu).max()]
    a = np.abs(mu) ** 2
    b = mu.real
    disc = b * b - a * (1.0 - target * target)
    if (b <= 0).any() or (disc < 0).any():
        return None
    root = np.sqrt(disc)
    lo = ((b - root) / a).max()
    hi = ((b + root) / a).min()
    return float(lo) if lo <= hi else None

