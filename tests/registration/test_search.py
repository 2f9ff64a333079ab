"""Unit tests for the neighbor-search backends and wrapper."""

import numpy as np
import pytest

from repro.core import ApproximateSearch, TwoStageKDTree
from repro.kdtree import KDTree, SearchStats
from repro.registration import SearchConfig, build_searcher
from repro.telemetry import StageTiming, Tracer


@pytest.fixture
def points(rng):
    return rng.normal(size=(150, 3))


class TestBackends:
    def test_canonical_backend(self, points):
        searcher = build_searcher(points, SearchConfig(backend="canonical"))
        assert isinstance(searcher.index, KDTree)

    def test_twostage_backend(self, points):
        searcher = build_searcher(points, SearchConfig(backend="twostage"))
        assert isinstance(searcher.index, TwoStageKDTree)

    def test_approximate_backend(self, points):
        searcher = build_searcher(points, SearchConfig(backend="approximate"))
        assert isinstance(searcher.index, ApproximateSearch)

    def test_bruteforce_backend(self, points):
        searcher = build_searcher(points, SearchConfig(backend="bruteforce"))
        idx, dist = searcher.nn(points[3] + 0.001)
        assert idx == 3

    def test_all_backends_agree_on_nn(self, points, rng):
        queries = rng.normal(size=(10, 3))
        answers = {}
        for backend in ("canonical", "twostage", "bruteforce"):
            searcher = build_searcher(points, SearchConfig(backend=backend))
            answers[backend] = [searcher.nn(q)[1] for q in queries]
        assert np.allclose(answers["canonical"], answers["bruteforce"])
        assert np.allclose(answers["twostage"], answers["bruteforce"])

    def test_all_backends_agree_on_radius(self, points, rng):
        query = rng.normal(size=3)
        sets = {}
        for backend in ("canonical", "twostage", "bruteforce"):
            searcher = build_searcher(points, SearchConfig(backend=backend))
            indices, _ = searcher.radius(query, 0.9)
            sets[backend] = set(indices.tolist())
        assert sets["canonical"] == sets["bruteforce"] == sets["twostage"]

    def test_knn_wrapper(self, points, rng):
        searcher = build_searcher(points, SearchConfig())
        indices, dists = searcher.knn(rng.normal(size=3), 5)
        assert len(indices) == 5
        assert np.all(np.diff(dists) >= 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(backend="gpu")
        with pytest.raises(ValueError):
            SearchConfig(leaf_size=0)


class TestInstrumentation:
    def test_stats_accumulate(self, points, rng):
        stats = SearchStats()
        searcher = build_searcher(points, SearchConfig(), stats=stats)
        searcher.nn(rng.normal(size=3))
        searcher.radius(rng.normal(size=3), 0.5)
        assert stats.queries == 2
        assert stats.nodes_visited > 0

    def test_profiler_charged(self, points, rng):
        tracer = Tracer()
        with tracer.stage("Normal Estimation"):
            searcher = build_searcher(points, SearchConfig(), tracer=tracer)
            searcher.nn(rng.normal(size=3))
        timing = StageTiming.of(tracer.roots).stages["Normal Estimation"]
        assert timing.kdtree_construction > 0
        assert timing.kdtree_search > 0
        assert timing.total >= timing.kdtree_search

    def test_build_time_recorded(self, points):
        searcher = build_searcher(points, SearchConfig())
        assert searcher.build_time > 0

    def test_points_property(self, points):
        for backend in ("canonical", "twostage", "approximate", "bruteforce"):
            searcher = build_searcher(points, SearchConfig(backend=backend))
            assert np.array_equal(searcher.points, points)
