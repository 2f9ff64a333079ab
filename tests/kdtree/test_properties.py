"""Property-based tests: the KD-tree must agree with brute force on
arbitrary inputs, for every query type, split rule, and dimension."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.kdtree import KDTree, SearchStats, bruteforce
from tests.single_query import knn, nn, radius

# Clouds: 1-60 points in 1-5 dimensions, moderate magnitudes, possibly
# with duplicate coordinates (floats from a coarse grid encourage ties).
dims = st.integers(1, 5)


@st.composite
def cloud_and_queries(draw):
    ndim = draw(dims)
    n = draw(st.integers(1, 60))
    coarse = st.floats(-50, 50, allow_nan=False).map(lambda x: round(x, 1))
    points = draw(
        hnp.arrays(np.float64, (n, ndim), elements=coarse)
    )
    n_queries = draw(st.integers(1, 5))
    queries = draw(hnp.arrays(np.float64, (n_queries, ndim), elements=coarse))
    split_rule = draw(st.sampled_from(["widest", "cyclic"]))
    return points, queries, split_rule


@given(data=cloud_and_queries())
def test_nn_matches_bruteforce(data):
    points, queries, split_rule = data
    tree = KDTree(points, split_rule=split_rule)
    for query in queries:
        idx, dist = nn(tree, query)
        _, bf_dist = bruteforce.nn(points, query)
        # Ties on distance may legitimately return different indices.
        assert np.isclose(dist, bf_dist, atol=1e-9)
        assert np.isclose(np.linalg.norm(points[idx] - query), dist, atol=1e-9)


@given(data=cloud_and_queries(), k=st.integers(1, 10))
def test_knn_matches_bruteforce(data, k):
    points, queries, split_rule = data
    tree = KDTree(points, split_rule=split_rule)
    for query in queries:
        _, dists = knn(tree, query, k)
        _, bf_dists = bruteforce.knn(points, query, k)
        assert np.allclose(dists, bf_dists, atol=1e-9)


@given(data=cloud_and_queries(), r=st.floats(0.0, 30.0, allow_nan=False))
def test_radius_matches_bruteforce(data, r):
    points, queries, split_rule = data
    tree = KDTree(points, split_rule=split_rule)
    for query in queries:
        indices, dists = radius(tree, query, r)
        bf_indices, _ = bruteforce.radius(points, query, r)
        assert set(indices.tolist()) == set(bf_indices.tolist())
        assert np.all(dists <= r + 1e-12)


@given(data=cloud_and_queries())
def test_knn_is_prefix_consistent(data):
    """The k-NN list must be a prefix of the (k+1)-NN list by distance."""
    points, queries, split_rule = data
    tree = KDTree(points, split_rule=split_rule)
    for query in queries:
        _, d3 = knn(tree, query, 3)
        _, d5 = knn(tree, query, 5)
        assert np.allclose(d5[: len(d3)], d3, atol=1e-12)


@given(data=cloud_and_queries())
def test_stats_conservation(data):
    """Visited + pruned traversal work is bounded by tree size per query."""
    points, queries, split_rule = data
    tree = KDTree(points, split_rule=split_rule)
    stats = SearchStats()
    for query in queries:
        nn(tree, query, stats)
    assert stats.queries == len(queries)
    assert stats.nodes_visited <= len(queries) * tree.n
    assert stats.traversal_steps >= stats.nodes_visited


@given(data=cloud_and_queries())
@settings(max_examples=15)
def test_radius_of_nn_dist_includes_nn(data):
    """Radius search at the NN distance must contain the NN itself."""
    points, queries, split_rule = data
    tree = KDTree(points, split_rule=split_rule)
    for query in queries:
        idx, dist = nn(tree, query)
        indices, _ = radius(tree, query, dist + 1e-9)
        assert idx in indices
