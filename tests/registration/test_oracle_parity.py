"""Differential tests: every exact search backend against cKDTree.

``scipy.spatial.cKDTree`` is an independent implementation of exact
nearest-neighbor and radius search.  Each exact backend — the canonical
KD-tree, the two-stage KD-tree, brute force and the voxel-hash grid
(radius only up to its cell size, with no candidate cap) — must agree
with it on clouds built to stress the tie rules: random clouds with
duplicated points, collinear and planar sets, and integer lattices
whose points sit exactly on the radius boundary.

The contract checked, per query row:

* nn/knn distances agree with the oracle to 1e-12 relative;
* where the oracle's distances are distinct, the indices are the
  oracle's; where distances tie, the backend returns the lowest index
  among the rows with the smallest squared distance under the repo's
  per-coordinate formula (the ``(distance, index)`` rule) — except
  the two-stage tree, see ``ULP_TIE_BACKENDS``;
* radius results come back in ascending index order and hold exactly
  the oracle's ball, except that points within 1 ULP of ``r`` are
  compared against :func:`repro.kdtree.bruteforce.radius`, which
  applies the repo's own ``<= r * r`` predicate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from repro.core.gridhash import GridHashConfig
from repro.kdtree import bruteforce
from repro.registration.search import SearchConfig, build_index

EXACT_BACKENDS = ("canonical", "twostage", "bruteforce", "gridhash")
CLOUD_KINDS = ("random", "duplicates", "collinear", "planar", "lattice")
RADII = (0.0, 0.5, 1.0, 1.5)
# The two-stage tree sums squared coordinates in three orders: per
# coordinate at top-tree nodes for nn/radius, a BLAS dot product at
# top-tree nodes for kNN, and ``np.einsum`` in leaf scans; they differ
# in the last ulp for about a fifth of all pairs.  A tie between two
# duplicate points then resolves by that ulp instead of by index.  Its
# tie rows are held to the rule up to 1 ulp of squared distance, and
# ``test_twostage_tie_rule_known_defect`` pins the defect.  Summing in
# the per-coordinate order everywhere changes the pinned golden search
# counters, so the fix waits for a change that may re-pin them.
ULP_TIE_BACKENDS = {"twostage"}


def make_cloud(kind: str, seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "lattice":
        # Integer coordinates: squared distances are exact integers, so
        # radii 1.0 and 1.5 put many points exactly on the boundary.
        return rng.integers(-3, 4, size=(n, 3)).astype(np.float64)
    if kind == "collinear":
        t = rng.uniform(-4, 4, size=(n, 1))
        return np.array([0.3, -1.2, 2.0]) + t * np.array([1.0, 0.5, -0.25])
    if kind == "planar":
        uv = rng.uniform(-4, 4, size=(n, 2))
        return np.column_stack([uv, np.full(n, 0.7)])
    points = rng.normal(size=(n, 3)) * 2.0
    if kind == "duplicates":
        points = np.vstack([points, points[rng.integers(0, n, size=n // 2 + 1)]])
    return points


def make_queries(points: np.ndarray, seed: int) -> np.ndarray:
    """Data points themselves, points nudged off them, and far points."""
    rng = np.random.default_rng(seed + 1)
    on = points[rng.integers(0, len(points), size=6)]
    near = on + rng.normal(size=on.shape) * 0.05
    far = rng.normal(size=(4, 3)) * 6.0
    return np.vstack([on, near, far])


def repo_sq(points: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Squared distances accumulated per coordinate, left to right."""
    diff = points - query
    sq = diff[:, 0] * diff[:, 0]
    for c in range(1, diff.shape[1]):
        sq += diff[:, c] * diff[:, c]
    return sq


def lexicographic_topk(sq: np.ndarray, k: int) -> np.ndarray:
    """The k smallest ``(squared distance, index)`` pairs' indices."""
    return np.lexsort((np.arange(len(sq)), sq))[:k]


def assert_tie_rule(backend, got, sq, k):
    """``got`` holds the lexicographic top-k under the repo formula."""
    expected = lexicographic_topk(sq, k)
    if backend in ULP_TIE_BACKENDS:
        assert len(np.unique(got)) == k
        assert np.all(np.abs(sq[got] - sq[expected]) <= np.spacing(sq[expected]))
    else:
        assert np.array_equal(got, expected)


def index_for(backend: str, points: np.ndarray, cell_size: float = 1.5):
    config = SearchConfig(
        backend=backend,
        leaf_size=8,
        gridhash=GridHashConfig(cell_size=cell_size, max_candidates=None),
    )
    return build_index(points, config)[0]


clouds = st.tuples(
    st.sampled_from(CLOUD_KINDS), st.integers(0, 2**32 - 1), st.integers(1, 70)
)


@pytest.mark.parametrize("backend", EXACT_BACKENDS)
@given(cloud=clouds, k=st.integers(1, 12))
@settings(max_examples=25, deadline=None)
def test_nn_and_knn_match_ckdtree(backend, cloud, k):
    kind, seed, n = cloud
    points = make_cloud(kind, seed, n)
    queries = make_queries(points, seed)
    index = index_for(backend, points)
    oracle = cKDTree(points)
    n_points = len(points)

    indices, dists = index.nn_batch(queries)
    o_dists, o_indices = oracle.query(queries, k=min(2, n_points))
    o_dists = o_dists.reshape(len(queries), -1)
    o_indices = o_indices.reshape(len(queries), -1)
    np.testing.assert_allclose(dists, o_dists[:, 0], rtol=1e-12, atol=0)
    for row, query in enumerate(queries):
        unique = o_dists.shape[1] == 1 or o_dists[row, 0] < o_dists[row, 1]
        if unique:
            assert indices[row] == o_indices[row, 0]
        else:
            assert_tie_rule(backend, indices[row : row + 1], repo_sq(points, query), 1)

    k_eff = min(k, n_points)
    indices, dists = index.knn_batch(queries, k)
    assert indices.shape == dists.shape == (len(queries), k_eff)
    o_dists, o_indices = oracle.query(queries, k=min(k_eff + 1, n_points))
    o_dists = o_dists.reshape(len(queries), -1)
    o_indices = o_indices.reshape(len(queries), -1)
    np.testing.assert_allclose(dists, o_dists[:, :k_eff], rtol=1e-12, atol=0)
    for row, query in enumerate(queries):
        if np.all(np.diff(o_dists[row]) > 0):
            assert np.array_equal(indices[row], o_indices[row, :k_eff])
        else:
            assert_tie_rule(backend, indices[row], repo_sq(points, query), k_eff)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="two-stage distances mix three summation orders",
)
def test_twostage_tie_rule_known_defect():
    """Two duplicate ties the two-stage tree resolves by the last ulp.

    Cloud ("duplicates", 0, 12), query 12, k=5: duplicates 0 (a
    top-tree node; kNN's dot product puts it one ulp high) and 16 (a
    leaf member) tie at the 5th neighbor, and the tree returns 16.
    Cloud ("duplicates", 1, 8), query 13, nn: duplicates 7 (a leaf
    member; einsum puts it one ulp high) and 9 (a top-tree node) tie
    as nearest neighbors, and the tree returns 9.
    """
    for seed, n, k in ((0, 12, 5), (1, 8, None)):
        points = make_cloud("duplicates", seed, n)
        queries = make_queries(points, seed)
        index = index_for("twostage", points)
        if k is None:
            indices = index.nn_batch(queries)[0][:, None]
        else:
            indices = index.knn_batch(queries, k)[0]
        for row, query in enumerate(queries):
            expected = lexicographic_topk(repo_sq(points, query), k or 1)
            assert np.array_equal(indices[row], expected)


@pytest.mark.parametrize("backend", EXACT_BACKENDS)
@given(cloud=clouds, r=st.sampled_from(RADII), sort=st.booleans())
@settings(max_examples=25, deadline=None)
def test_radius_matches_ckdtree(backend, cloud, r, sort):
    kind, seed, n = cloud
    points = make_cloud(kind, seed, n)
    queries = make_queries(points, seed)
    # The voxel-hash grid is exact for r <= its cell size.
    index = index_for(backend, points, cell_size=max(r, 0.25))
    balls = cKDTree(points).query_ball_point(queries, r)

    result = index.radius_batch_csr(queries, r, sort=sort)
    assert result.n_segments == len(queries)
    for row, (got_idx, got_dist) in enumerate(zip(*result.to_list_pair())):
        query = queries[row]
        sq = repo_sq(points, query)
        boundary = np.abs(np.sqrt(sq) - r) <= np.spacing(r)
        oracle = np.zeros(len(points), dtype=bool)
        oracle[balls[row]] = True
        bf_idx, _ = bruteforce.radius(points, query, r)
        repo_rule = np.zeros(len(points), dtype=bool)
        repo_rule[bf_idx] = True
        expected = np.where(boundary, repo_rule, oracle)

        got = np.zeros(len(points), dtype=bool)
        got[got_idx] = True
        assert len(np.unique(got_idx)) == len(got_idx)
        assert np.array_equal(got, expected)
        np.testing.assert_allclose(got_dist, np.sqrt(sq[got_idx]), rtol=1e-12, atol=0)
        if sort:
            # Ascending distance, ties in ascending index order.
            order = np.lexsort((got_idx, got_dist))
            assert np.array_equal(order, np.arange(len(got_dist)))
        else:
            assert np.all(np.diff(got_idx) > 0)
