"""Batch composition: a batch must be bit-identical to the same queries
issued one row at a time, on every backend, with and without error
injectors.

Every search is a batch, and ``NeighborSearcher.nn``/``knn``/``radius``
are batches of one row, so these tests pin that a result does not
depend on which other queries share its batch — including for the
approximate backend, whose leader state carries from query to query.
No tolerance comparisons: indices and distances must match exactly,
including tie cases manufactured through duplicated points.
Correctness against an independent oracle is checked in
``test_oracle_parity.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kdtree.stats import SearchStats
from repro.registration.error_injection import (
    IdentityInjector,
    KthNeighborInjector,
    ShellRadiusInjector,
)
from repro.registration.search import SearchConfig, build_searcher

BACKENDS = ("canonical", "twostage", "approximate", "bruteforce", "gridhash")


def make_cloud(seed: int, n: int, duplicates: bool = False) -> np.ndarray:
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, 3)) * 3.0
    if duplicates:
        # Exact duplicates manufacture distance ties; the deterministic
        # tie rules must agree however the queries are batched.
        points = np.vstack([points, points[:: max(1, n // 7)]])
    return points


def make_queries(seed: int, points: np.ndarray, n_queries: int) -> np.ndarray:
    rng = np.random.default_rng(seed + 1)
    near = points[rng.integers(0, len(points), size=n_queries // 2)]
    near = near + rng.normal(size=near.shape) * 0.05
    far = rng.normal(size=(n_queries - len(near), 3)) * 4.0
    return np.vstack([near, far])


def pair_of_searchers(points, backend, injector=None):
    """Two independently built searchers (fresh approximate leader state
    each) so the one-row loop and the batch see identical start states."""
    config = SearchConfig(backend=backend, leaf_size=16)
    one_row = build_searcher(points, config, injector=injector)
    batched = build_searcher(points, config, injector=injector)
    return one_row, batched


@pytest.mark.parametrize("backend", BACKENDS)
@given(seed=st.integers(0, 2**32 - 1), duplicates=st.booleans())
@settings(max_examples=10, deadline=None)
def test_nn_batch_parity(backend, seed, duplicates):
    points = make_cloud(seed, 60, duplicates)
    queries = make_queries(seed, points, 20)
    one_row, batched = pair_of_searchers(points, backend)
    expected = [one_row.nn(q) for q in queries]
    indices, dists = batched.nn_batch(queries)
    assert np.array_equal(indices, np.array([e[0] for e in expected]))
    assert np.array_equal(dists, np.array([e[1] for e in expected]))


@pytest.mark.parametrize("backend", BACKENDS)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 100),
    duplicates=st.booleans(),
)
@settings(max_examples=10, deadline=None)
def test_knn_batch_parity(backend, seed, k, duplicates):
    """Includes k > n: results are rectangular (Q, min(k, n))."""
    points = make_cloud(seed, 50, duplicates)
    queries = make_queries(seed, points, 12)
    one_row, batched = pair_of_searchers(points, backend)
    indices, dists = batched.knn_batch(queries, k)
    assert indices.shape == dists.shape == (len(queries), min(k, len(points)))
    for i, q in enumerate(queries):
        row_idx, row_dist = one_row.knn(q, k)
        # The approximate backend pads short rows with (-1, inf).
        assert np.array_equal(indices[i, : len(row_idx)], row_idx)
        assert np.array_equal(dists[i, : len(row_dist)], row_dist)
        assert np.all(indices[i, len(row_idx) :] == -1)
        assert np.all(np.isinf(dists[i, len(row_dist) :]))


@pytest.mark.parametrize("backend", BACKENDS)
@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.sampled_from([0.0, 1e-6, 0.4, 1.5, 50.0]),
    sort=st.booleans(),
    duplicates=st.booleans(),
)
@settings(max_examples=10, deadline=None)
def test_radius_batch_parity(backend, seed, r, sort, duplicates):
    """Includes r=0 and tiny r (empty result sets) and huge r (all)."""
    points = make_cloud(seed, 60, duplicates)
    queries = make_queries(seed, points, 15)
    one_row, batched = pair_of_searchers(points, backend)
    all_indices, all_dists = batched.radius_batch(queries, r, sort=sort)
    assert len(all_indices) == len(all_dists) == len(queries)
    for i, q in enumerate(queries):
        row_idx, row_dist = one_row.radius(q, r, sort=sort)
        assert np.array_equal(all_indices[i], row_idx)
        assert np.array_equal(all_dists[i], row_dist)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "injector",
    [
        IdentityInjector(),
        KthNeighborInjector(k=3),
        ShellRadiusInjector(r1=0.2, r2=1.2),
    ],
    ids=["identity", "kth", "shell"],
)
def test_injected_batch_parity(backend, injector):
    points = make_cloud(7, 70)
    queries = make_queries(7, points, 18)
    one_row, batched = pair_of_searchers(points, backend, injector=injector)

    expected = [one_row.nn(q) for q in queries]
    indices, dists = batched.nn_batch(queries)
    assert np.array_equal(indices, np.array([e[0] for e in expected]))
    assert np.array_equal(dists, np.array([e[1] for e in expected]))

    one_row, batched = pair_of_searchers(points, backend, injector=injector)
    all_indices, all_dists = batched.radius_batch(queries, 0.9)
    for i, q in enumerate(queries):
        row_idx, row_dist = one_row.radius(q, 0.9)
        assert np.array_equal(all_indices[i], row_idx)
        assert np.array_equal(all_dists[i], row_dist)

    one_row, batched = pair_of_searchers(points, backend, injector=injector)
    indices, dists = batched.knn_batch(queries, 4)
    for i, q in enumerate(queries):
        row_idx, row_dist = one_row.knn(q, 4)
        assert np.array_equal(indices[i, : len(row_idx)], row_idx)
        assert np.array_equal(dists[i, : len(row_dist)], row_dist)


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_stats_per_query_counters(backend):
    """One batch charges one ``batches`` tick but exact per-query counts."""
    points = make_cloud(11, 80)
    queries = make_queries(11, points, 25)
    stats = SearchStats()
    searcher = build_searcher(
        points, SearchConfig(backend=backend, leaf_size=16), stats=stats
    )
    searcher.nn_batch(queries)
    assert stats.batches == 1
    assert stats.queries == len(queries)
    assert stats.results_returned == len(queries)
    searcher.radius_batch(queries, 0.8)
    assert stats.batches == 2
    assert stats.queries == 2 * len(queries)


@pytest.mark.parametrize("backend", BACKENDS)
def test_radius_stats_match_scalar(backend):
    """Radius batch work counters equal those of one-row batches exactly
    (the pruning decisions do not depend on what a query has found)."""
    if backend == "approximate":
        pytest.skip("leader state makes one-row-loop stats the definition")
    points = make_cloud(13, 90)
    queries = make_queries(13, points, 20)
    config = SearchConfig(backend=backend, leaf_size=16)
    s1, s2 = SearchStats(), SearchStats()
    one_row = build_searcher(points, config, stats=s1)
    batched = build_searcher(points, config, stats=s2)
    for q in queries:
        one_row.radius(q, 0.7)
    batched.radius_batch(queries, 0.7)
    assert (s1.nodes_visited, s1.traversal_steps, s1.pruned_subtrees) == (
        s2.nodes_visited,
        s2.traversal_steps,
        s2.pruned_subtrees,
    )


class TestCanonicalFrontierParity:
    """The canonical KD-tree's level-synchronous frontier sweep over a
    whole batch must be bit-identical to the same queries issued
    sequentially, one row per batch.  Radius sweeps also charge
    identical work counters (radius pruning is bound-independent);
    nn/knn frontiers tighten their bounds in an order that depends on
    the batch, so only their results — not their node visit counts —
    are pinned."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        duplicates=st.booleans(),
        k=st.integers(1, 80),
        r=st.sampled_from([0.0, 1e-6, 0.4, 1.5, 50.0]),
    )
    @settings(max_examples=15, deadline=None)
    def test_frontier_equals_sequential(self, seed, duplicates, k, r):
        from repro.kdtree.tree import KDTree

        points = make_cloud(seed, 70, duplicates)
        queries = make_queries(seed, points, 18)
        tree = KDTree(points)

        def one_row_batches(search, stats):
            return [search(query[None, :], stats) for query in queries]

        s_seq, s_fast = SearchStats(), SearchStats()
        rows = one_row_batches(tree.nn_batch, s_seq)
        fi, fd = tree.nn_batch(queries, s_fast)
        assert np.array_equal(np.concatenate([i for i, _ in rows]), fi)
        assert np.array_equal(np.concatenate([d for _, d in rows]), fd)
        assert (s_seq.queries, s_seq.results_returned) == (
            s_fast.queries,
            s_fast.results_returned,
        )

        s_seq, s_fast = SearchStats(), SearchStats()
        rows = one_row_batches(lambda q, st_: tree.knn_batch(q, k, st_), s_seq)
        fi, fd = tree.knn_batch(queries, k, s_fast)
        assert np.array_equal(np.vstack([i for i, _ in rows]), fi)
        assert np.array_equal(np.vstack([d for _, d in rows]), fd)
        assert (s_seq.queries, s_seq.results_returned) == (
            s_fast.queries,
            s_fast.results_returned,
        )

        for sort in (False, True):
            s_seq, s_fast = SearchStats(), SearchStats()
            rows = one_row_batches(
                lambda q, st_: tree.radius_batch_csr(q, r, st_, sort=sort), s_seq
            )
            fast = tree.radius_batch_csr(queries, r, s_fast, sort=sort)
            for row, (a, c) in zip(rows, zip(*fast.to_list_pair())):
                assert np.array_equal(row.indices, a)
                assert np.array_equal(row.distances, c)
            assert s_seq == s_fast


def test_uniform_points_property():
    points = make_cloud(17, 30)
    for backend in BACKENDS:
        searcher = build_searcher(points, SearchConfig(backend=backend))
        assert np.array_equal(searcher.points, points)
        assert np.array_equal(searcher.index.points, points)
