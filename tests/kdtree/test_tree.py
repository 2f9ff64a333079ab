"""Unit tests for the canonical KD-tree: construction and queries."""

import numpy as np
import pytest

from repro.kdtree import KDTree, SearchStats, bruteforce
from tests.single_query import knn, nn, radius, radius_lists


@pytest.fixture
def points(rng):
    return rng.normal(size=(300, 3))


@pytest.fixture
def tree(points):
    return KDTree(points)


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            KDTree(np.empty((0, 3)))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            KDTree(np.arange(10.0))

    def test_rejects_nan(self):
        points = np.zeros((4, 3))
        points[2, 1] = np.nan
        with pytest.raises(ValueError):
            KDTree(points)

    def test_rejects_bad_split_rule(self, points):
        with pytest.raises(ValueError):
            KDTree(points, split_rule="bogus")

    def test_single_point(self):
        tree = KDTree(np.array([[1.0, 2.0, 3.0]]))
        assert tree.n == 1
        assert tree.height == 1
        idx, dist = nn(tree, [1.0, 2.0, 3.0])
        assert idx == 0
        assert dist == pytest.approx(0.0)

    def test_balanced_height(self, points):
        tree = KDTree(points)
        # A median-split tree over n points has height ~log2(n).
        assert tree.height <= int(np.ceil(np.log2(len(points)))) + 2

    def test_copies_input(self, points):
        tree = KDTree(points)
        points[0, 0] = 1e9
        assert tree.points[0, 0] != 1e9

    def test_duplicate_points_handled(self):
        points = np.tile([1.0, 2.0, 3.0], (20, 1))
        tree = KDTree(points)
        idx, dist = nn(tree, [1.0, 2.0, 3.0])
        assert dist == pytest.approx(0.0)
        indices, _ = radius(tree, [1.0, 2.0, 3.0], 0.1)
        assert len(indices) == 20

    def test_cyclic_split_rule(self, points):
        tree = KDTree(points, split_rule="cyclic")
        query = points[0] + 0.01
        assert nn(tree, query)[0] == bruteforce.nn(points, query)[0]

    def test_high_dimensional(self, rng):
        features = rng.normal(size=(100, 33))
        tree = KDTree(features)
        query = rng.normal(size=33)
        assert nn(tree, query)[0] == bruteforce.nn(features, query)[0]

    def test_subtree_indices_cover_all(self, tree):
        indices = tree.subtree_point_indices(0)
        assert np.array_equal(indices, np.arange(tree.n))

    def test_repr(self, tree):
        text = repr(tree)
        assert "n=300" in text
        assert "widest" in text


class TestNN:
    def test_matches_bruteforce(self, tree, points, rng):
        for query in rng.normal(size=(40, 3)):
            idx, dist = nn(tree, query)
            bf_idx, bf_dist = bruteforce.nn(points, query)
            assert idx == bf_idx
            assert dist == pytest.approx(bf_dist)

    def test_query_on_data_point(self, tree, points):
        idx, dist = nn(tree, points[17])
        assert dist == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(points[idx], points[17])

    def test_rejects_dim_mismatch(self, tree):
        with pytest.raises(ValueError):
            nn(tree, [1.0, 2.0])

    def test_rejects_nan_query(self, tree):
        with pytest.raises(ValueError):
            nn(tree, [np.nan, 0.0, 0.0])

    def test_far_query(self, tree, points):
        query = np.array([1e4, 1e4, 1e4])
        idx, _ = nn(tree, query)
        assert idx == bruteforce.nn(points, query)[0]

    def test_batch_matches_single(self, tree, rng):
        queries = rng.normal(size=(10, 3))
        batch_idx, batch_dist = tree.nn_batch(queries)
        for i, query in enumerate(queries):
            idx, dist = nn(tree, query)
            assert batch_idx[i] == idx
            assert batch_dist[i] == pytest.approx(dist)


class TestKNN:
    def test_matches_bruteforce(self, tree, points, rng):
        for query in rng.normal(size=(15, 3)):
            indices, dists = knn(tree, query, 8)
            bf_indices, bf_dists = bruteforce.knn(points, query, 8)
            assert np.allclose(dists, bf_dists)
            assert set(indices) == set(bf_indices)

    def test_sorted_ascending(self, tree, rng):
        _, dists = knn(tree, rng.normal(size=3), 10)
        assert np.all(np.diff(dists) >= 0)

    def test_k_larger_than_n(self, tree):
        indices, dists = knn(tree, np.zeros(3), tree.n + 50)
        assert len(indices) == tree.n
        assert len(set(indices.tolist())) == tree.n

    def test_k_one_equals_nn(self, tree, rng):
        query = rng.normal(size=3)
        indices, dists = knn(tree, query, 1)
        nn_idx, nn_dist = nn(tree, query)
        assert indices[0] == nn_idx
        assert dists[0] == pytest.approx(nn_dist)

    def test_rejects_nonpositive_k(self, tree):
        with pytest.raises(ValueError):
            knn(tree, np.zeros(3), 0)


class TestRadius:
    def test_matches_bruteforce(self, tree, points, rng):
        for query in rng.normal(size=(15, 3)):
            indices, dists = radius(tree, query, 0.8)
            bf_indices, bf_dists = bruteforce.radius(points, query, 0.8)
            assert set(indices) == set(bf_indices)
            assert np.all(dists <= 0.8)

    def test_zero_radius(self, tree, points):
        indices, _ = radius(tree, points[5], 0.0)
        assert 5 in indices

    def test_huge_radius_returns_all(self, tree):
        indices, _ = radius(tree, np.zeros(3), 1e6)
        assert len(indices) == tree.n

    def test_sorted_option(self, tree, rng):
        _, dists = radius(tree, rng.normal(size=3), 1.0, sort=True)
        assert np.all(np.diff(dists) >= 0)

    def test_no_results(self, tree):
        indices, dists = radius(tree, np.array([1e5, 1e5, 1e5]), 0.5)
        assert len(indices) == 0
        assert len(dists) == 0

    def test_rejects_negative_radius(self, tree):
        with pytest.raises(ValueError):
            radius(tree, np.zeros(3), -1.0)

    def test_batch(self, tree, rng):
        queries = rng.normal(size=(5, 3))
        all_indices, all_dists = radius_lists(tree, queries, 0.7)
        assert len(all_indices) == 5
        for i, query in enumerate(queries):
            single, _ = radius(tree, query, 0.7)
            assert set(all_indices[i]) == set(single)


class TestStatsAccounting:
    def test_nn_charges_stats(self, tree, rng):
        stats = SearchStats()
        nn(tree, rng.normal(size=3), stats)
        assert stats.queries == 1
        assert stats.results_returned == 1
        assert 0 < stats.nodes_visited <= tree.n
        assert stats.traversal_steps >= stats.nodes_visited

    def test_pruning_happens(self, tree, rng):
        stats = SearchStats()
        for query in rng.normal(size=(10, 3)):
            nn(tree, query, stats)
        # NN search on 300 points should visit far fewer than all nodes.
        assert stats.nodes_visited < 10 * tree.n / 2
        assert stats.pruned_subtrees > 0

    def test_radius_results_counted(self, tree, rng):
        stats = SearchStats()
        indices, _ = radius(tree, rng.normal(size=3), 1.0, stats)
        assert stats.results_returned == len(indices)

    def test_knn_visits_bounded(self, tree, rng):
        stats = SearchStats()
        knn(tree, rng.normal(size=3), 5, stats)
        assert stats.nodes_visited <= tree.n
