"""Structural primitives: conversions, topology predicates, file formats."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opiniondyn import fixtures as fx
from opiniondyn import stepsize
from opiniondyn.errors import ValidationError
from opiniondyn.netcore import (
    SystemSpec,
    abs_matrix,
    appraisal_kind,
    as_vector,
    check_appraisal,
    check_count,
    check_laplacian,
    check_stochastic,
    has_spanning_tree,
    laplacian_to_stochastic,
    load_matrix_csv,
    parse_vector_arg,
    same_topology,
    save_matrix_csv,
    spanning_tree_root,
    stochastic_to_laplacian,
)

from conftest import random_laplacian, random_spanning_tree_laplacian, random_stochastic


class TestConversions:
    def test_measured_influence_matrix(self):
        L = stochastic_to_laplacian(fx.INFLUENCE_P, 1.0)
        np.testing.assert_allclose(L[0], [0.78, -0.12, -0.36, -0.3], atol=1e-15)
        np.testing.assert_allclose(L, fx.INFLUENCE_LAPLACIAN, atol=1e-15)

    def test_identity_maps_to_zero(self):
        L = stochastic_to_laplacian(np.eye(3), 0.7)
        np.testing.assert_array_equal(L, np.zeros((3, 3)))

    def test_swap_matrix(self):
        L = stochastic_to_laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0)
        np.testing.assert_allclose(L, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            stochastic_to_laplacian(np.array([[0.5, 0.6], [0.5, 0.5]]), 1.0)
        with pytest.raises(ValidationError):
            stochastic_to_laplacian(np.eye(2), 0.0)
        with pytest.raises(ValidationError):
            stochastic_to_laplacian(np.eye(2), -1.0)

    def test_inverse_zero_laplacian(self):
        P = laplacian_to_stochastic(np.zeros((3, 3)), 1.0)
        np.testing.assert_array_equal(P, np.eye(3))

    def test_inverse_half_step(self):
        P = laplacian_to_stochastic(np.array([[1.0, -1.0], [-1.0, 1.0]]), 0.5)
        np.testing.assert_allclose(P, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_round_trip_measured_matrix(self):
        L = stochastic_to_laplacian(fx.INFLUENCE_P, 1.0)
        P = laplacian_to_stochastic(L, 1.0)
        np.testing.assert_allclose(P, fx.INFLUENCE_P, atol=1e-14)

    def test_inverse_rejects_large_eps(self):
        with pytest.raises(ValidationError):
            laplacian_to_stochastic(np.array([[2.0, -2.0], [-2.0, 2.0]]), 1.0)

    def test_round_trip_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            P = random_stochastic(rng, n)
            eps = float(rng.uniform(0.05, 1.0))
            L = stochastic_to_laplacian(P, eps)
            assert np.abs(L.sum(axis=1)).max() <= 1e-12
            back = laplacian_to_stochastic(L, eps)
            np.testing.assert_allclose(back, P, atol=1e-12)


class TestAbsMatrix:
    def test_identity(self):
        np.testing.assert_array_equal(abs_matrix(np.eye(3)), np.eye(3))

    def test_antagonistic_row(self):
        got = abs_matrix(fx.ANTAG_APPRAISAL)
        np.testing.assert_allclose(got[0], [0.2, 0.2, 0.3, 0.3], atol=1e-15)

    def test_negated_identity(self):
        np.testing.assert_array_equal(abs_matrix(-np.eye(3)), np.eye(3))

    def test_rejects_non_unit_rows(self):
        with pytest.raises(ValidationError):
            abs_matrix(0.5 * np.eye(2))

    def test_idempotent_and_sign_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            D = random_stochastic(rng, n) * np.sign(rng.uniform(-1, 1, (n, n)))
            A = abs_matrix(D)
            np.testing.assert_array_equal(abs_matrix(A), A)
            np.testing.assert_array_equal(abs_matrix(-D), A)


class TestSameTopology:
    def test_matches_unsigned_companion(self):
        D = fx.ANTAG_APPRAISAL
        assert same_topology(D, abs_matrix(D))

    def test_identity_vs_zero(self):
        assert not same_topology(np.eye(3), np.zeros((3, 3)))

    def test_bundled_appraisals_share_pattern(self):
        # Entrywise pattern oracle: the cooperative and antagonistic bundles
        # differ only in signs, never in which entries vanish.
        oracle = np.array_equal(
            np.abs(fx.COOP_APPRAISAL) > 1e-12, np.abs(fx.ANTAG_APPRAISAL) > 1e-12
        )
        assert oracle is True
        assert same_topology(fx.COOP_APPRAISAL, fx.ANTAG_APPRAISAL) == oracle

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            same_topology(np.eye(2), np.eye(3))

    def test_equivalence_relation(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(2, 5))
            mats = [
                np.where(rng.random((n, n)) < 0.5, rng.uniform(-1, 1, (n, n)), 0.0)
                for _ in range(3)
            ]
            a, b, c = mats
            assert same_topology(a, a)
            assert same_topology(a, b) == same_topology(b, a)
            if same_topology(a, b) and same_topology(b, c):
                assert same_topology(a, c)


def _roots_oracle(L, tol: float = 1e-12) -> list[int]:
    """Every node that reaches all others: one breadth-first search per node."""
    n = L.shape[0]
    adj = (L < -tol).T  # adj[j, i]: j influences i
    np.fill_diagonal(adj, False)
    roots = []
    for root in range(n):
        seen = np.zeros(n, dtype=bool)
        seen[root] = True
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for v in np.nonzero(adj[u] & ~seen)[0]:
                    seen[v] = True
                    nxt.append(int(v))
            frontier = nxt
        if seen.all():
            roots.append(root)
    return roots


def _laplacian(W: np.ndarray) -> np.ndarray:
    """Laplacian of influence weights ``W[i, j]``: agent j influences agent i."""
    W = W.copy()
    np.fill_diagonal(W, 0.0)
    return np.diag(W.sum(axis=1)) - W


def _planted_digraph(rng, n: int, roots: str) -> np.ndarray:
    """Random digraph Laplacian with no root, one root, or a root block of 2-4 nodes.

    A root block is strongly connected (a ring) and nobody outside it
    influences it, so its members are exactly the roots; a single root is a
    block of one.  With no roots, two nodes listen to nobody.
    """
    W = (rng.random((n, n)) < rng.uniform(0.0, 0.3)) * rng.uniform(0.5, 1.5, (n, n))
    order = rng.permutation(n)
    if roots == "none":
        W[order[:2]] = 0.0
        return _laplacian(W)
    k = 1 if roots == "one" else int(rng.integers(2, min(4, n) + 1))
    block, rest = order[:k], order[k:]
    W[block] = 0.0
    W[block, np.roll(block, 1)] = rng.uniform(0.5, 1.5, k)
    for i, node in enumerate(rest):  # every other node hears someone already placed
        W[node, order[rng.integers(0, k + i)]] = rng.uniform(0.5, 1.5)
    return _laplacian(W)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    roots=st.sampled_from(["none", "one", "several"]),
)
def test_root_is_the_smallest_of_all_roots(seed, n, roots):
    if n == 1:
        roots = "one"  # a lone node is its own root
    L = _planted_digraph(np.random.default_rng(seed), n, roots)
    expected = _roots_oracle(L)
    assert len(expected) == {"none": 0, "one": 1}.get(roots, len(expected))
    assert roots != "several" or len(expected) >= 2
    assert spanning_tree_root(L) == (min(expected) if expected else None)
    # A rooted spanning tree exists iff the zero eigenvalue of L is simple.
    assert has_spanning_tree(L) == (np.linalg.matrix_rank(L, tol=1e-9) == n - 1)


class TestSpanningTree:
    def test_single_node(self):
        assert spanning_tree_root(np.zeros((1, 1))) == 0

    def test_smallest_of_two_roots(self):
        n = 9
        W = np.zeros((n, n))
        W[3, n - 1] = W[n - 1, 3] = 1.0  # 3 and n-1 hear only each other
        W[[i for i in range(n) if i not in (3, n - 1)], 3] = 1.0
        L = _laplacian(W)
        assert _roots_oracle(L) == [3, n - 1]
        assert spanning_tree_root(L) == 3

    def test_long_path_rooted_at_last_index(self):
        # Agent i listens to i + 1 only: the search must not recurse, and a
        # search from every candidate would be quadratic here.
        n = 2000
        W = np.zeros((n, n))
        W[np.arange(n - 1), np.arange(1, n)] = 1.0
        assert spanning_tree_root(_laplacian(W)) == n - 1

    def test_complete_ring(self):
        assert has_spanning_tree(fx.EXAMPLE1_LAPLACIAN)

    def test_zero_laplacian(self):
        assert not has_spanning_tree(np.zeros((3, 3)))

    def test_leader_network_rooted_at_absorbing_agent(self):
        # Row 3 of the influence Laplacian is zero: only that agent (index 2)
        # reaches everyone.
        assert spanning_tree_root(fx.INFLUENCE_LAPLACIAN) == 2

    def test_agrees_with_rank(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            L = random_laplacian(rng, n, edge_prob=float(rng.uniform(0.1, 0.9)))
            by_rank = np.linalg.matrix_rank(L, tol=1e-9) == n - 1
            assert has_spanning_tree(L) == by_rank


class TestAppraisalKind:
    def test_cooperative_fixture(self):
        assert appraisal_kind(fx.COOP_APPRAISAL) == "cooperative"

    def test_antagonistic_fixture(self):
        assert appraisal_kind(fx.ANTAG_APPRAISAL) == "antagonistic"

    def test_identity(self):
        assert appraisal_kind(np.eye(4)) == "cooperative"

    def test_rejects_bad_rows(self):
        with pytest.raises(ValidationError):
            appraisal_kind(np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            appraisal_kind(np.array([[0.9, 0.3], [0.5, 0.5]]))


class TestValidators:
    def test_laplacian_invariants(self):
        with pytest.raises(ValidationError):
            check_laplacian(np.array([[1.0, -0.5], [-1.0, 1.0]]))  # rows
        with pytest.raises(ValidationError):
            check_laplacian(np.array([[-1.0, 1.0], [1.0, -1.0]]))  # signs

    def test_stochastic_invariants(self):
        with pytest.raises(ValidationError):
            check_stochastic(np.array([[1.2, -0.2], [0.5, 0.5]]))

    def test_antagonistic_rows_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            check_appraisal(np.array([[0.4, -0.4], [0.3, 0.3]]))
        # cooperative rows may stay below one
        assert check_appraisal(np.array([[0.4, 0.4], [0.3, 0.3]])) == "cooperative"

    def test_susceptibility_nonzero(self):
        L = fx.INFLUENCE_LAPLACIAN
        with pytest.raises(ValidationError):
            SystemSpec(np.array([1.0, 0.0, 1.0, 1.0]), L, np.eye(4)).validate_structure()
        SystemSpec(np.array([-1.5, 2.0, 1.0, -0.5]), L, np.eye(4)).validate_structure()

    def test_counts_are_integers_at_or_above_the_floor(self):
        assert check_count("c", np.int64(3)) == 3 and type(check_count("c", np.int64(3))) is int
        assert check_count("c", 0, low=0) == 0
        for bad in (0, -1, 2.0, 2.5, True, np.float64(2.0), "2", None):
            with pytest.raises(ValidationError, match="^c must be an integer >= 1"):
                check_count("c", bad)

    def test_vector_length_and_finiteness(self):
        assert as_vector([[1.0], [2.0]], "v", size=2).tolist() == [1.0, 2.0]
        with pytest.raises(ValidationError, match="^v have length 3, expected 2$"):
            as_vector([1.0, 2.0, 3.0], "v", size=2)
        for bad in ([], [1.0, np.nan], [np.inf]):
            with pytest.raises(ValidationError):
                as_vector(bad, "v")
        for bad in (["x"], [[1.0], [2.0, 3.0]], {"a": 1}, [10**400]):
            with pytest.raises(ValidationError, match="^v must be a rectangular array of numbers$"):
                as_vector(bad, "v")


def _system_doc(**fields) -> dict:
    doc = {
        "lambda": [1.0, 1.0],
        "laplacian": [[1.0, -1.0], [-1.0, 1.0]],
        "appraisal": [[0.5, 0.5], [0.5, 0.5]],
    }
    doc.update(fields)
    return doc


# Row 0 sums to 3e-13 and its off-diagonal entries sit within tolerance of 0,
# so only the diagonal sign is out of bounds.
_NEGATIVE_DIAGONAL = [[-1.5e-12, 9e-13, 9e-13], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]

STRUCTURAL_ERRORS = [
    pytest.param(
        lambda: SystemSpec.from_json_dict(_system_doc(laplacian=[[1.0, -0.5], [-1.0, 1.0]])),
        "laplacian rows must sum to 0, worst residual 5.000e-01",
        id="laplacian-row-sum",
    ),
    pytest.param(
        lambda: stepsize.feasible_rho_cubic([[-1.0, 1.0], [1.0, -1.0]]),
        "laplacian off-diagonal entries must be <= 0",
        id="laplacian-off-diagonal",
    ),
    pytest.param(
        lambda: laplacian_to_stochastic(_NEGATIVE_DIAGONAL, 1.0),
        "laplacian diagonal entries must be >= 0",
        id="laplacian-diagonal",
    ),
    pytest.param(
        lambda: stochastic_to_laplacian([[1.2, -0.2], [0.5, 0.5]], 1.0),
        "stochastic matrix entries must be >= 0",
        id="stochastic-sign",
    ),
    pytest.param(
        lambda: stochastic_to_laplacian([[0.5, 0.6], [0.5, 0.5]], 1.0),
        "stochastic matrix rows must sum to 1, worst residual 1.000e-01",
        id="stochastic-row-sum",
    ),
    pytest.param(
        lambda: SystemSpec.from_json_dict(_system_doc(appraisal=[[0.0, 0.0], [0.5, 0.5]])),
        "every appraisal row needs at least one nonzero weight",
        id="appraisal-empty-row",
    ),
    pytest.param(
        lambda: SystemSpec.from_json_dict(_system_doc(appraisal=[[0.9, 0.3], [0.5, 0.5]])),
        "appraisal row absolute sums must be <= 1, worst 1.2",
        id="appraisal-absolute-sum",
    ),
    pytest.param(
        lambda: SystemSpec.from_json_dict(_system_doc(appraisal=[[0.4, -0.4], [0.3, 0.3]])),
        "antagonistic appraisal rows must have absolute sum exactly 1",
        id="appraisal-antagonistic-sum",
    ),
    pytest.param(
        lambda: SystemSpec.from_json_dict(_system_doc(**{"lambda": [1.0, 0.0]})),
        "susceptibility factors must be nonzero",
        id="susceptibility-nonzero",
    ),
    pytest.param(
        lambda: stochastic_to_laplacian(np.eye(2), 0.0),
        "eps must be positive and finite, got 0.0",
        id="epsilon-zero",
    ),
    pytest.param(
        lambda: laplacian_to_stochastic(np.zeros((2, 2)), -1.0),
        "eps must be positive and finite, got -1.0",
        id="epsilon-negative",
    ),
    pytest.param(
        lambda: abs_matrix(0.5 * np.eye(2)),
        "absolute row sums must equal 1 to form the unsigned companion matrix",
        id="abs-matrix-unit-sum",
    ),
]


@pytest.mark.parametrize("call, message", STRUCTURAL_ERRORS)
def test_structural_error_messages(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


class TestSystemSpecAndFiles:
    def test_json_round_trip(self, tmp_path, sec5_coop):
        path = tmp_path / "sys.json"
        spec = sec5_coop.with_mids()
        spec.save_json(path)
        back = SystemSpec.from_json(path)
        np.testing.assert_array_equal(back.laplacian, spec.laplacian)
        np.testing.assert_array_equal(back.appraisal, spec.appraisal)
        np.testing.assert_array_equal(back.mids, spec.mids)

    def test_json_validation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"lambda": [1, 1], "laplacian": [[1, -1], [-1, 1]]}')
        with pytest.raises(ValidationError, match="appraisal"):
            SystemSpec.from_json(path)
        path.write_text("{broken")
        with pytest.raises(ValidationError, match="line 1"):
            SystemSpec.from_json(path)

    def test_n_issues_consistency(self):
        doc = {
            "lambda": [1.0, 1.0],
            "laplacian": [[1.0, -1.0], [-1.0, 1.0]],
            "appraisal": [[0.5, 0.5], [0.5, 0.5]],
            "mids": [[1.0, 0.0], [0.0, 1.0]],
            "n_issues": 3,
        }
        with pytest.raises(ValidationError, match="n_issues"):
            SystemSpec.from_json_dict(doc)
        for bad in ("x", 2.7, True):
            with pytest.raises(ValidationError, match="^n_issues must be an integer >= 1"):
                SystemSpec.from_json_dict({**doc, "n_issues": bad})
        with pytest.raises(ValidationError, match="n_issues=2 does not match"):
            SystemSpec.from_json_dict({**doc, "mids": None, "n_issues": 2})

    def test_iteration_matrix(self, example1):
        M = example1.system.iteration_matrix()
        expected = np.eye(3) - np.diag(fx.EXAMPLE1_LAM) @ fx.EXAMPLE1_LAPLACIAN @ fx.EXAMPLE1_APPRAISAL
        np.testing.assert_allclose(M, expected, atol=1e-15)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        M = np.array([[0.5, -0.25], [1e-17, 3.0]])
        save_matrix_csv(path, M, header="test matrix")
        np.testing.assert_array_equal(load_matrix_csv(path), M)

    def test_csv_comments_and_errors(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# comment\n1.0,2.0\n\n3.0,4.0 # trailing\n")
        np.testing.assert_array_equal(load_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]])
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValidationError, match=":2"):
            load_matrix_csv(path)
        path.write_text("1.0,oops\n")
        with pytest.raises(ValidationError, match=":1"):
            load_matrix_csv(path)

    def test_parse_vector_arg(self, tmp_path):
        np.testing.assert_array_equal(parse_vector_arg("25,75,85"), [25.0, 75.0, 85.0])
        path = tmp_path / "v.csv"
        save_matrix_csv(path, np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_array_equal(parse_vector_arg(str(path)), [1.0, 2.0, 3.0])
        with pytest.raises(ValidationError):
            parse_vector_arg("not-a-vector")


def test_spanning_tree_generator_is_rooted():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        L = random_spanning_tree_laplacian(rng, n)
        check_laplacian(L)
        assert has_spanning_tree(L)
