"""Matrix and graph primitives for the two-network opinion model.

The model couples a public interacting network (a directed-graph Laplacian
``L``), a private appraisal network (a signed, row-normalized matrix ``D``),
per-agent susceptibility gains (a nonsingular diagonal ``Lambda``), and an
optional issue-coupling matrix ``C``.  This module owns the structural
checks (each returns the checked input as a plain array, or the appraisal
kind), CSV/JSON ingestion, conversions between stochastic and Laplacian
forms, and the graph-topology predicates the analysis layers rely on.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError

TOL_STRUCT = 1e-12

COOPERATIVE = "cooperative"
ANTAGONISTIC = "antagonistic"


def _as_array(values, name: str) -> np.ndarray:
    try:
        return np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} must be a rectangular array of numbers") from None


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite, square, float64 2-D array."""
    M = _as_array(values, name)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {M.shape}")
    if M.shape[0] == 0:
        raise ValidationError(f"{name} is empty")
    if not np.isfinite(M).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return M


def as_vector(values, name: str = "vector", size: int | None = None) -> np.ndarray:
    """Coerce to a finite, nonempty, flat float64 array, of length ``size``
    when it is given."""
    v = _as_array(values, name).reshape(-1)
    if size is not None and v.size != size:
        raise ValidationError(f"{name} have length {v.size}, expected {size}")
    if v.size == 0:
        raise ValidationError(f"{name} is empty")
    if not np.isfinite(v).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return v


def check_count(name: str, value, low: int = 1) -> int:
    """``value`` as an int, checked to be an integer (not a bool) of at least
    ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def check_number(name: str, value, positive: bool = True) -> float:
    """``value`` as a float, checked to be finite and, unless ``positive`` is
    False, above zero."""
    v = float(value)
    if not np.isfinite(v) or (positive and v <= 0):
        need = "positive and finite" if positive else "finite"
        raise ValidationError(f"{name} must be {need}, got {value}")
    return v


def check_laplacian(L) -> np.ndarray:
    """``L`` as a float array, checked to be the influence Laplacian of the
    public network.

    Off-diagonal entries are nonpositive (edge weights enter negated), the
    diagonal is nonnegative, and every row sums to zero, each within
    ``TOL_STRUCT`` relative to the largest entry.
    """
    M = as_matrix(L, "laplacian")
    scale = max(1.0, float(np.abs(M).max()))
    rows = M.sum(axis=1)
    if np.abs(rows).max() > TOL_STRUCT * scale:
        raise ValidationError(
            f"laplacian rows must sum to 0, worst residual {np.abs(rows).max():.3e}"
        )
    off = M - np.diag(np.diag(M))
    if off.max() > TOL_STRUCT * scale:
        raise ValidationError("laplacian off-diagonal entries must be <= 0")
    if np.diag(M).min() < -TOL_STRUCT * scale:
        raise ValidationError("laplacian diagonal entries must be >= 0")
    return M


def check_stochastic(P) -> np.ndarray:
    """``P`` as a float array, checked to be nonnegative with unit row sums."""
    M = as_matrix(P, "stochastic matrix")
    if M.min() < -TOL_STRUCT:
        raise ValidationError("stochastic matrix entries must be >= 0")
    rows = M.sum(axis=1)
    if np.abs(rows - 1.0).max() > TOL_STRUCT * max(1.0, float(np.abs(M).max())):
        raise ValidationError(
            f"stochastic matrix rows must sum to 1, worst residual "
            f"{np.abs(rows - 1.0).max():.3e}"
        )
    return M


def check_appraisal(D) -> str:
    """The kind of the signed private-appraisal matrix ``D``, after its checks.

    Every row's absolute sum lies in (0, 1]; an antagonistic matrix (one with
    any negative weight) must have absolute row sums exactly 1.
    """
    M = as_matrix(D, "appraisal matrix")
    kind = appraisal_kind(M)
    if kind == ANTAGONISTIC and np.abs(np.abs(M).sum(axis=1) - 1.0).max() > TOL_STRUCT:
        raise ValidationError("antagonistic appraisal rows must have absolute sum exactly 1")
    return kind


# ---------------------------------------------------------------------------
# conversions and predicates
# ---------------------------------------------------------------------------


def stochastic_to_laplacian(P, eps) -> np.ndarray:
    """Return the Laplacian L with I - eps*L = P."""
    M = check_stochastic(P)
    return check_laplacian((np.eye(M.shape[0]) - M) / check_number("eps", eps))


def laplacian_to_stochastic(L, eps) -> np.ndarray:
    """Invert :func:`stochastic_to_laplacian`; eps must keep I - eps*L nonnegative."""
    M = check_laplacian(L)
    eps = check_number("eps", eps)
    P = np.eye(M.shape[0]) - eps * M
    if P.min() < -TOL_STRUCT:
        raise ValidationError(
            f"eps={eps} produces a negative entry ({P.min():.3e}); "
            f"need eps*max(diag) <= 1"
        )
    return check_stochastic(np.clip(P, 0.0, None))


def abs_matrix(D) -> np.ndarray:
    """Entrywise absolute value of a unit-row-normalized appraisal matrix, a
    stochastic matrix."""
    A = np.abs(as_matrix(D, "appraisal matrix"))
    if np.abs(A.sum(axis=1) - 1.0).max() > TOL_STRUCT:
        raise ValidationError(
            "absolute row sums must equal 1 to form the unsigned companion matrix"
        )
    return A


def appraisal_kind(D) -> str:
    """Classify an appraisal matrix as cooperative (all weights >= 0) or antagonistic."""
    M = as_matrix(D, "appraisal matrix")
    sums = np.abs(M).sum(axis=1)
    if sums.min() <= TOL_STRUCT:
        raise ValidationError("every appraisal row needs at least one nonzero weight")
    if sums.max() > 1.0 + TOL_STRUCT:
        raise ValidationError(
            f"appraisal row absolute sums must be <= 1, worst {sums.max():.12g}"
        )
    return COOPERATIVE if M.min() >= -TOL_STRUCT else ANTAGONISTIC


def same_topology(A, B) -> bool:
    """True when the two matrices carry edges (nonzero entries) at the same positions."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ValidationError(f"shape mismatch {A.shape} vs {B.shape}")
    return bool(np.array_equal(np.abs(A) > TOL_STRUCT, np.abs(B) > TOL_STRUCT))


def _adjacency(L: np.ndarray) -> np.ndarray:
    # Edge j -> i whenever l_ij is a genuine negative weight.
    A = np.zeros_like(L, dtype=bool)
    np.copyto(A, L < -TOL_STRUCT)
    np.fill_diagonal(A, False)
    return A.T  # A[j, i]: j influences i


def _search(offsets: list[int], targets: list[int], start: int, seen: list[bool]) -> None:
    """Mark in ``seen`` every node that ``start`` reaches, where node u's
    successors are ``targets[offsets[u]:offsets[u + 1]]``; an explicit stack,
    so path length is not bounded by the recursion limit."""
    seen[start] = True
    stack = [start]
    while stack:
        u = stack.pop()
        for v in targets[offsets[u]:offsets[u + 1]]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)


def spanning_tree_root(L) -> int | None:
    """Smallest index of a node that reaches every other node, or None if there is none.

    One mother-vertex pass (Tarjan 1972) finds the only candidate: a search
    starts at each node not yet reached, in increasing index order, and the
    node that starts the last search is the candidate.  A node that reaches a
    root is itself a root, so the searches started below the smallest root r
    reach no root; r then starts a search that reaches every node left, and
    so is the last start.  One more search from the candidate decides whether
    it reaches everyone.  Both cost O(n + E), after the O(n^2) build of the
    dense adjacency.
    """
    M = check_laplacian(L)
    n = M.shape[0]
    sources, targets = np.nonzero(_adjacency(M))
    offsets = np.searchsorted(sources, np.arange(n + 1)).tolist()
    targets = targets.tolist()
    seen = [False] * n
    for u in range(n):
        if not seen[u]:
            candidate = u
            _search(offsets, targets, u, seen)
    seen = [False] * n
    _search(offsets, targets, candidate, seen)
    return candidate if all(seen) else None


def has_spanning_tree(L) -> bool:
    return spanning_tree_root(L) is not None


# ---------------------------------------------------------------------------
# system bundle and file formats
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemSpec:
    """One analyzable system: susceptibility, Laplacian, appraisal, optional coupling.

    The constructor only checks shapes and finiteness so that synthetic
    systems (for example the induced appraisal ``I - rho*L``) can be built
    freely; :meth:`from_json` applies the full structural validation.
    """

    lam: np.ndarray
    laplacian: np.ndarray
    appraisal: np.ndarray
    mids: np.ndarray | None = None

    def __post_init__(self):
        lam = as_vector(self.lam, "lambda")
        if np.ndim(self.lam) > 1:
            raise ValidationError(
                f"lambda must be one-dimensional, got shape {np.shape(self.lam)}"
            )
        L = as_matrix(self.laplacian, "laplacian")
        D = as_matrix(self.appraisal, "appraisal")
        n = lam.shape[0]
        if L.shape[0] != n or D.shape[0] != n:
            raise ValidationError(
                f"inconsistent dimensions: lambda {n}, laplacian {L.shape[0]}, "
                f"appraisal {D.shape[0]}"
            )
        C = None if self.mids is None else as_matrix(self.mids, "issue coupling")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "laplacian", L)
        object.__setattr__(self, "appraisal", D)
        object.__setattr__(self, "mids", C)

    @property
    def n_agents(self) -> int:
        return self.lam.shape[0]

    @property
    def n_issues(self) -> int:
        return 1 if self.mids is None else self.mids.shape[0]

    def iteration_matrix(self) -> np.ndarray:
        """The one-step issue-free update matrix I - Lambda L D."""
        n = self.n_agents
        return np.eye(n) - (self.lam[:, None] * self.laplacian) @ self.appraisal

    def validate_structure(self) -> str:
        """Run the full structural checks; returns the appraisal kind."""
        check_laplacian(self.laplacian)
        if np.abs(self.lam).min() <= TOL_STRUCT:
            raise ValidationError("susceptibility factors must be nonzero")
        return check_appraisal(self.appraisal)

    def to_json_dict(self) -> dict:
        doc = {
            "lambda": self.lam.tolist(),
            "laplacian": self.laplacian.tolist(),
            "appraisal": self.appraisal.tolist(),
        }
        if self.mids is not None:
            doc["mids"] = self.mids.tolist()
            doc["n_issues"] = int(self.mids.shape[0])
        return doc

    def save_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n")

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SystemSpec":
        for key in ("lambda", "laplacian", "appraisal"):
            if key not in doc:
                raise ValidationError(f"system document is missing field {key!r}")
        spec = cls(
            lam=doc["lambda"],
            laplacian=doc["laplacian"],
            appraisal=doc["appraisal"],
            mids=doc.get("mids"),
        )
        if "n_issues" in doc and check_count("n_issues", doc["n_issues"]) != spec.n_issues:
            raise ValidationError(
                f"n_issues={doc['n_issues']} does not match the system's {spec.n_issues} issue(s)"
            )
        spec.validate_structure()
        return spec

    @classmethod
    def from_json(cls, path) -> "SystemSpec":
        p = Path(path)
        if not p.exists():
            raise ValidationError(f"system file not found: {p}")
        try:
            doc = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{p}: invalid JSON at line {exc.lineno}: {exc.msg}")
        if not isinstance(doc, dict):
            raise ValidationError(f"{p}: expected a JSON object")
        return cls.from_json_dict(doc)


def load_matrix_csv(path) -> np.ndarray:
    """Read a comma-separated matrix; '#' starts a comment, blank lines skipped."""
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"matrix file not found: {p}")
    rows = []
    width = None
    for lineno, raw in enumerate(p.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise ValidationError(f"{p}:{lineno}: {exc}")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValidationError(
                f"{p}:{lineno}: expected {width} columns, found {len(row)}"
            )
        rows.append(row)
    if not rows:
        raise ValidationError(f"{p}: no data rows")
    return np.array(rows, dtype=float)


def write_csv(path, rows, header: str | None = None) -> None:
    """Write ``rows`` of Python numbers, one line each, under a verbatim header.

    A cell is the number's ``repr``: an int's digits, or a float's shortest
    string that reads back as the same float (``inf``, ``nan`` and ``-0.0``
    included).  Take rows from ``ndarray.tolist()``, since a numpy scalar's
    ``repr`` is not a number.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [] if header is None else [header]
    lines += [",".join(map(repr, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def save_matrix_csv(path, M, header: str | None = None) -> None:
    """Write a matrix that ``load_matrix_csv`` reads back exactly; ``header``
    becomes a '#' comment line."""
    rows = np.atleast_2d(np.asarray(M, dtype=float)).tolist()
    write_csv(path, rows, None if header is None else f"# {header}")


def parse_vector_arg(text: str) -> np.ndarray:
    """Parse an initial-opinion argument: inline comma list or a CSV file path."""
    try:
        return as_vector([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except (ValueError, ValidationError):
        pass
    if Path(text).exists():
        return as_vector(load_matrix_csv(text).reshape(-1))
    raise ValidationError(f"cannot parse vector {text!r} (not numbers, not a file)")
