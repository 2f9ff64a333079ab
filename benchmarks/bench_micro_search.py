"""Micro-benchmarks of the search structures themselves.

Not a paper figure — these are the library-health benchmarks an
open-source KD-tree package ships: build and query throughput of the
canonical tree, the two-stage tree, and the approximate search, on a
realistic LiDAR frame.  Regressions here would silently inflate every
workload-tracing bench above.
"""

import pytest

from repro.core import ApproximateSearch, TwoStageKDTree
from repro.kdtree import KDTree


@pytest.fixture(scope="module")
def frame_points(frame_pair):
    source, _, _ = frame_pair
    return source.points


@pytest.fixture(scope="module")
def queries(frame_pair):
    _, target, _ = frame_pair
    return target.points[:200]


def test_build_canonical(benchmark, frame_points):
    benchmark(lambda: KDTree(frame_points))


def test_build_twostage(benchmark, frame_points):
    benchmark(lambda: TwoStageKDTree.from_leaf_size(frame_points, 64))


def test_nn_canonical(benchmark, frame_points, queries):
    tree = KDTree(frame_points)
    benchmark(lambda: tree.nn_batch(queries))


def test_nn_twostage(benchmark, frame_points, queries):
    tree = TwoStageKDTree.from_leaf_size(frame_points, 64)
    benchmark(lambda: tree.nn_batch(queries))


def test_nn_approximate(benchmark, frame_points, queries):
    tree = TwoStageKDTree.from_leaf_size(frame_points, 64)

    def run():
        ApproximateSearch(tree).nn_batch(queries)

    benchmark(run)


def test_radius_twostage(benchmark, frame_points, queries):
    tree = TwoStageKDTree.from_leaf_size(frame_points, 64)
    benchmark(lambda: tree.radius_batch(queries, 0.75))


def test_knn_twostage(benchmark, frame_points, queries):
    tree = TwoStageKDTree.from_leaf_size(frame_points, 64)
    benchmark(lambda: tree.knn_batch(queries[:50], 8))
