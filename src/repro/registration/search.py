"""Neighbor-search backends for the registration pipeline.

Every shaded stage in paper Fig. 2 (Normal Estimation, Descriptor
Calculation, KPCE, RPCE) funnels its neighbor queries through this
module.  A :class:`NeighborSearcher` wraps one of five backends —
canonical KD-tree, two-stage KD-tree, the approximate
leaders/followers search, an exhaustive brute-force scan, or the flat
voxel-hash grid — behind one interface, and transparently:

* accumulates :class:`~repro.kdtree.stats.SearchStats` (work counts for
  the accelerator model and Fig. 6);
* charges wall time to the tracer's innermost open span — the open
  stage span (the Fig. 4b KD-tree vs. other split);
* optionally applies an error injector (Fig. 7's k-th NN and shell
  radius studies).

Batch query layer
-----------------
Pipeline stages issue **one batched call per stage** — ``nn_batch``,
``knn_batch`` (rectangular ``(Q, min(k, n))`` results), and
``radius_batch_csr`` (one flat
:class:`~repro.core.ragged.RaggedNeighborhoods` in CSR form) — the
software analogue of the accelerator's data-parallel PE array.  Each
backend implements the batch entry points natively: fully vectorized
chunked scans for brute-force, grouped-by-leaf scans behind a
vectorized top-tree frontier for the two-stage tree, a tight loop for
the canonical KD-tree (whose pruned traversal is inherently sequential
— the very bottleneck the paper targets), and sequential leader-state
updates for the approximate search.  Radius results travel CSR
end-to-end: every backend *produces* flat ``indices``/``offsets``/
``distances`` (with any requested per-segment distance sort done once
by a global lexsort), the reuse cache and injectors pass the CSR form
through unchanged, and the front-end consumers gather from it directly
— no per-query Python lists anywhere on the hot path.  The legacy
``radius_batch`` survives as a thin wrapper that slices the CSR result
into per-query lists at the delivery edge.  The wrapper charges the
tracer once per batch and counts one ``SearchStats.batches``
increment per call; ``queries``/``results_returned`` stay exact per
query (CSR-delivered queries additionally tick ``csr_results``), while
the work counters (node visits, pruning) reflect the schedule actually
executed — identical to the scalar loop for radius batches, within a
percent or so for the two-stage NN frontier (see
:mod:`repro.core.twostage`).  Batched *results* are bit-identical to
issuing the scalar methods row by row.

Nested-radius reuse
-------------------
Preprocess stages query the *same* per-frame index at nested radii
over the frame's own points: normal estimation at ``normals.radius``,
Harris/SIFT keypoint support, and the descriptor supports are all row
subsets of one conceptual all-points radius search at the largest
planned radius.  A :class:`RadiusReuseCache` (installed by
``Pipeline.preprocess``; plain searchers carry none and behave exactly
as before) runs that search once — the first eligible full-cloud
``radius_batch`` is transparently inflated to the planned maximum
radius and its CSR result retained — and serves every later nested
request by row-select plus exact squared-distance re-filter
(:func:`repro.core.ragged.csr_radius_select`), bit-identical to a
fresh query.  Accounting stays honest: the filling stage is charged
the full inflated search it executed (its ``results_returned`` counts
the retained larger-radius results), while served calls charge
``queries``/``reused_queries``/``cache_hits`` and their filtered
result counts but no traversal work.  Callers opt in per call by
passing ``self_indices`` — the index rows their query points are —
and the cache is bypassed whenever an injector is active, the
effective index is not the cache's own (e.g. the stateful approximate
wrapper), or the radius exceeds the cached one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.approx import ApproximateSearch, ApproximateSearchConfig
from repro.core.gridhash import GridHashConfig, GridHashIndex
from repro.core.ragged import (
    RaggedNeighborhoods,
    csr_radius_select,
    csr_radius_select_csr,
)
from repro.core.twostage import TwoStageKDTree
from repro.kdtree import bruteforce
from repro.kdtree.stats import SearchStats
from repro.kdtree.tree import KDTree

__all__ = [
    "SearchConfig",
    "NeighborSearcher",
    "RadiusReuseCache",
    "build_searcher",
    "build_index",
    "exact_index",
]

_BACKENDS = ("canonical", "twostage", "approximate", "bruteforce", "gridhash")


@dataclass(frozen=True)
class SearchConfig:
    """How a pipeline stage performs its neighbor searches.

    ``backend``
        ``"canonical"`` — classic KD-tree (the paper's baseline);
        ``"twostage"`` — exact search on the two-stage structure (the
        accelerator's data layout; also the fastest exact option here
        because leaf scans vectorize);
        ``"approximate"`` — two-stage with leaders/followers;
        ``"bruteforce"`` — exhaustive scan (used for high-dimensional
        feature spaces where KD-trees degrade);
        ``"gridhash"`` — flat voxel-hash grid (no tree at all; exact
        for radii up to its cell size, approximate beyond — see
        :mod:`repro.core.gridhash`).
    ``leaf_size``
        Target leaf-set size for the two-stage backends (the paper's
        sweep parameter in Fig. 6; ~128 at the design point).
    ``approx``
        Thresholds for the approximate backend.
    ``gridhash``
        Cell size and candidate cap for the voxel-hash backend.
    """

    backend: str = "twostage"
    leaf_size: int = 64
    split_rule: str = "widest"
    approx: ApproximateSearchConfig = field(default_factory=ApproximateSearchConfig)
    gridhash: GridHashConfig = field(default_factory=GridHashConfig)

    def __post_init__(self):
        if self.backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}")
        if self.leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")


class _BruteForceIndex:
    """Adapter giving the brute-force scan the tree-search interface.

    Scalar queries delegate to the batched kernels with a single row, so
    batched and per-query results are bit-identical by construction.
    """

    def __init__(self, points: np.ndarray):
        self._points = np.array(points, dtype=np.float64)
        if len(self._points) == 0:
            raise ValueError("cannot search an empty point set")
        self._points_t = np.ascontiguousarray(self._points.T)

    @property
    def points(self) -> np.ndarray:
        return self._points

    def _charge(self, stats: SearchStats | None, queries: int, results: int) -> None:
        if stats is not None:
            stats.nodes_visited += len(self._points) * queries
            stats.queries += queries
            stats.results_returned += results

    def nn(self, query, stats=None):
        indices, dists = self.nn_batch(np.atleast_2d(query), stats)
        return int(indices[0]), float(dists[0])

    def knn(self, query, k, stats=None):
        indices, dists = self.knn_batch(np.atleast_2d(query), k, stats)
        return indices[0], dists[0]

    def radius(self, query, r, stats=None, sort=False):
        indices, dists = self.radius_batch(np.atleast_2d(query), r, stats, sort=sort)
        return indices[0], dists[0]

    def nn_batch(self, queries, stats=None):
        indices, dists = bruteforce.nn_batch(self._points, queries, self._points_t)
        self._charge(stats, len(indices), len(indices))
        return indices, dists

    def knn_batch(self, queries, k, stats=None):
        indices, dists = bruteforce.knn_batch(self._points, queries, k, self._points_t)
        self._charge(stats, len(indices), indices.size)
        return indices, dists

    def radius_batch(self, queries, r, stats=None, sort=False):
        return self.radius_batch_csr(queries, r, stats, sort=sort).to_list_pair()

    def radius_batch_csr(self, queries, r, stats=None, sort=False):
        result = bruteforce.radius_batch_csr(
            self._points, queries, r, sort=sort, points_t=self._points_t
        )
        self._charge(stats, result.n_segments, result.n_entries)
        return result


# Flat neighbor pairs per chunk when recomputing squared distances at
# cache-fill time; bounds the transient (chunk, dim) diff buffer.
_REUSE_BLOCK = 1 << 20


class RadiusReuseCache:
    """One inflated radius search serving a frame's nested-radius stages.

    Holds the CSR result (flat indices, offsets, distances, and the
    backend's per-coordinate *squared* distances) of a single all-points
    radius search at ``max_radius`` over ``index``.  ``fill`` runs that
    search; ``serve`` derives any nested request — a row subset at any
    radius ``r <= max_radius`` — via :func:`repro.core.ragged.csr_radius_select`,
    bit-identical to a fresh query of the same rows.  Once filled the
    cache is immutable, so repeated preprocessing of the same frame
    reuses identically and charges identical stats.

    The cache is valid for exactly one index object (compared by
    identity): :class:`NeighborSearcher` bypasses it whenever its
    effective index differs — notably the per-stage fresh
    :class:`~repro.core.approx.ApproximateSearch` views, whose stateful
    leader results must never be reused across stages.
    """

    def __init__(self, index, max_radius: float):
        self.index = index
        self.max_radius = float(max_radius)
        self.filled = False
        self._indices: np.ndarray | None = None
        self._offsets: np.ndarray | None = None
        self._dists: np.ndarray | None = None
        self._sq_dists: np.ndarray | None = None

    def covers_all_rows(self, self_indices: np.ndarray) -> bool:
        """Whether ``self_indices`` is every index row in natural order
        (the only query set whose result can serve arbitrary subsets)."""
        n = len(self.index.points)
        return len(self_indices) == n and bool(
            np.array_equal(self_indices, np.arange(n, dtype=np.int64))
        )

    def fill(self, stats: SearchStats) -> None:
        """Run the inflated all-points search and retain its CSR result.

        Charged to ``stats`` exactly as the backend reports it — the
        filling stage owns the work it executed, including the results
        beyond its own requested radius that later stages will reuse.
        """
        points = self.index.points
        result = self.index.radius_batch_csr(points, self.max_radius, stats)
        indices, offsets, dists = result.indices, result.offsets, result.distances
        total = result.n_entries
        # Recompute the backends' squared distances (per-coordinate
        # accumulation — every exact backend's acceptance operand) for
        # the exact-filter predicate, chunked to bound transient memory.
        owner = result.segment_ids
        sq = np.empty(total, dtype=np.float64)
        for lo in range(0, total, _REUSE_BLOCK):
            hi = min(lo + _REUSE_BLOCK, total)
            diff = points[indices[lo:hi]] - points[owner[lo:hi]]
            block = diff[:, 0] * diff[:, 0]
            for c in range(1, diff.shape[1]):
                block += diff[:, c] * diff[:, c]
            sq[lo:hi] = block
        self._indices, self._offsets = indices, offsets
        self._dists, self._sq_dists = dists, sq
        self.filled = True

    def serve(
        self, rows: np.ndarray, r: float, sort: bool = False
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Radius-``r`` result for index ``rows``, filtered from the cache."""
        return csr_radius_select(
            self._indices,
            self._offsets,
            self._sq_dists,
            self._dists,
            rows,
            r,
            sort=sort,
        )

    def serve_csr(
        self, rows: np.ndarray, r: float, sort: bool = False
    ) -> RaggedNeighborhoods:
        """Like :meth:`serve` but CSR in, CSR out — no list materialization."""
        return csr_radius_select_csr(
            self._indices,
            self._offsets,
            self._sq_dists,
            self._dists,
            rows,
            r,
            sort=sort,
        )


class NeighborSearcher:
    """Uniform, instrumented query interface over any backend.

    All pipeline stages call the batched entry points :meth:`nn_batch`,
    :meth:`knn_batch`, and :meth:`radius_batch` — one call per stage,
    one timer read and one ``batches`` increment per call; query and
    result counters stay exact per query, and work counters reflect
    the batch schedule actually executed.  The scalar methods
    :meth:`nn`, :meth:`knn`, and :meth:`radius` remain for one-off
    queries and produce bit-identical results.  An injector (see
    :mod:`repro.registration.error_injection`) may post-process results
    on either path.
    """

    def __init__(
        self,
        index,
        stats: SearchStats,
        build_time: float,
        tracer=None,
        injector=None,
        reuse: RadiusReuseCache | None = None,
    ):
        self._index = index
        self.stats = stats
        self.build_time = build_time
        self._tracer = tracer
        self._injector = injector
        self._reuse = reuse if reuse is not None and reuse.index is index else None

    @property
    def index(self):
        """The underlying search structure."""
        return self._index

    @property
    def points(self) -> np.ndarray:
        return self._index.points

    def nn(self, query: np.ndarray) -> tuple[int, float]:
        start = time.perf_counter()
        if self._injector is not None:
            result = self._injector.nn(self._index, query, self.stats)
        else:
            result = self._index.nn(query, self.stats)
        if self._tracer is not None:
            self._tracer.charge_search(time.perf_counter() - start)
        return result

    def knn(self, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        start = time.perf_counter()
        if self._injector is not None:
            result = self._injector.knn(self._index, query, k, self.stats)
        else:
            result = self._index.knn(query, k, self.stats)
        if self._tracer is not None:
            self._tracer.charge_search(time.perf_counter() - start)
        return result

    def radius(
        self, query: np.ndarray, r: float, sort: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        start = time.perf_counter()
        if self._injector is not None:
            result = self._injector.radius(self._index, query, r, self.stats, sort)
        else:
            result = self._index.radius(query, r, self.stats, sort=sort)
        if self._tracer is not None:
            self._tracer.charge_search(time.perf_counter() - start)
        return result

    # ------------------------------------------------------------------
    # Batched queries: one timer read / injector dispatch per stage-sized
    # batch instead of per point.  Results are bit-identical to issuing
    # the scalar methods per row.
    # ------------------------------------------------------------------

    def nn_batch(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest neighbor for every row of ``queries``: ((Q,), (Q,))."""
        start = time.perf_counter()
        if self._injector is not None:
            if hasattr(self._injector, "nn_batch"):
                result = self._injector.nn_batch(self._index, queries, self.stats)
            else:
                result = self._loop_injected_nn(queries)
        else:
            result = self._index.nn_batch(queries, self.stats)
        self.stats.batches += 1
        if self._tracer is not None:
            self._tracer.charge_search(time.perf_counter() - start)
        return result

    def knn_batch(
        self, queries: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """kNN for every row of ``queries``: ((Q, min(k, n)), same)."""
        start = time.perf_counter()
        if self._injector is not None:
            if hasattr(self._injector, "knn_batch"):
                result = self._injector.knn_batch(self._index, queries, k, self.stats)
            else:
                result = self._loop_injected_knn(queries, k)
        else:
            result = self._index.knn_batch(queries, k, self.stats)
        self.stats.batches += 1
        if self._tracer is not None:
            self._tracer.charge_search(time.perf_counter() - start)
        return result

    def radius_batch(
        self,
        queries: np.ndarray,
        r: float,
        sort: bool = False,
        self_indices: np.ndarray | None = None,
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Radius search for every row of ``queries``: ragged lists.

        Thin compatibility wrapper: runs the CSR-native path of
        :meth:`radius_batch_csr` and slices the flat result into
        per-query lists.  Because the slicing happens *here*, on the
        delivery edge, the queries are not counted as CSR-delivered
        (``stats.csr_results`` stays untouched); all other counters are
        charged identically to the CSR entry point.
        """
        start = time.perf_counter()
        result, _ = self._radius_batch_impl(queries, r, sort, self_indices)
        self.stats.batches += 1
        if self._tracer is not None:
            self._tracer.charge_search(time.perf_counter() - start)
        return result.to_list_pair()

    def radius_batch_csr(
        self,
        queries: np.ndarray,
        r: float,
        sort: bool = False,
        self_indices: np.ndarray | None = None,
    ) -> RaggedNeighborhoods:
        """Radius search for every row of ``queries``, CSR end-to-end.

        Returns the backend's :class:`RaggedNeighborhoods` directly —
        flat indices/offsets/distances, never materialized as per-query
        lists anywhere between the index and the consumer.  Entries per
        segment follow the backend's radius order (ascending index), or
        ascending distance when ``sort=True``; bit-identical to slicing
        :meth:`radius_batch`'s lists.

        ``self_indices``, when given, asserts that row ``i`` of
        ``queries`` is index point ``self_indices[i]`` — the hint that
        lets an installed :class:`RadiusReuseCache` serve the call by
        filtering its cached larger-radius result (bit-identical to the
        fresh search).  Searchers without a cache ignore it.

        Queries answered without any list round-trip are counted in
        ``stats.csr_results``; an injector that lacks a
        ``radius_batch_csr`` hook forces a list fallback, which is
        repacked but not counted.
        """
        start = time.perf_counter()
        result, csr_native = self._radius_batch_impl(
            queries, r, sort, self_indices
        )
        if csr_native:
            self.stats.csr_results += result.n_segments
        self.stats.batches += 1
        if self._tracer is not None:
            self._tracer.charge_search(time.perf_counter() - start)
        return result

    def _radius_batch_impl(
        self, queries, r, sort, self_indices
    ) -> tuple[RaggedNeighborhoods, bool]:
        """Shared dispatch for both radius entry points.

        Returns ``(result, csr_native)`` where ``csr_native`` is False
        only when a legacy injector forced a per-query list fallback.
        """
        if self._injector is not None:
            if hasattr(self._injector, "radius_batch_csr"):
                return (
                    self._injector.radius_batch_csr(
                        self._index, queries, r, self.stats, sort
                    ),
                    True,
                )
            if hasattr(self._injector, "radius_batch"):
                lists = self._injector.radius_batch(
                    self._index, queries, r, self.stats, sort
                )
            else:
                lists = self._loop_injected_radius(queries, r, sort)
            return RaggedNeighborhoods.from_lists(*lists), False
        result = self._reused_radius_csr(r, sort, self_indices)
        if result is None:
            result = self._index.radius_batch_csr(
                queries, r, self.stats, sort=sort
            )
        return result, True

    def _reused_radius_csr(self, r, sort, self_indices):
        """Serve a radius batch from the reuse cache, or None for fresh.

        The first eligible full-cloud call fills the cache (inflated to
        the planned maximum radius, charged to this searcher's stats as
        the backend reports it); later calls — any row subset at any
        nested radius — charge ``reused_queries``/``cache_hits`` and
        their filtered result counts, but no traversal work.
        """
        cache = self._reuse
        if cache is None or self_indices is None or r > cache.max_radius:
            return None
        self_indices = np.asarray(self_indices, dtype=np.int64)
        filled_now = False
        if not cache.filled:
            if not cache.covers_all_rows(self_indices):
                return None
            cache.fill(self.stats)
            filled_now = True
        result = cache.serve_csr(self_indices, r, sort=sort)
        if not filled_now:
            self.stats.queries += len(self_indices)
            self.stats.reused_queries += len(self_indices)
            self.stats.cache_hits += 1
            self.stats.results_returned += result.n_entries
        return result

    # Fallbacks for third-party injectors that only define scalar hooks.

    def _loop_injected_nn(self, queries):
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        indices = np.empty(len(queries), dtype=np.int64)
        dists = np.empty(len(queries))
        for i, query in enumerate(queries):
            indices[i], dists[i] = self._injector.nn(self._index, query, self.stats)
        return indices, dists

    def _loop_injected_knn(self, queries, k):
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        rows = [
            self._injector.knn(self._index, query, k, self.stats)
            for query in queries
        ]
        # Rows can be ragged (approximate backend); pad to a rectangle
        # with (-1, inf) misses like the backends' own knn_batch.
        width = max((len(r[0]) for r in rows), default=0)
        indices = np.full((len(rows), width), -1, dtype=np.int64)
        dists = np.full((len(rows), width), np.inf)
        for i, (row_idx, row_dist) in enumerate(rows):
            indices[i, : len(row_idx)] = row_idx
            dists[i, : len(row_dist)] = row_dist
        return indices, dists

    def _loop_injected_radius(self, queries, r, sort):
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        all_indices, all_dists = [], []
        for query in queries:
            indices, dists = self._injector.radius(
                self._index, query, r, self.stats, sort
            )
            all_indices.append(indices)
            all_dists.append(dists)
        return all_indices, all_dists


def build_index(
    points: np.ndarray,
    config: SearchConfig | None = None,
    tracer=None,
) -> tuple[object, float]:
    """Construct the raw search structure over ``points``.

    Returns ``(index, build_time)``.  This is the per-frame artifact the
    pipeline's :class:`~repro.registration.pipeline.FrameState` owns and
    reuses across registrations; :class:`NeighborSearcher` instances are
    cheap per-stage views derived from it.  Build time is charged to the
    tracer's open stage as KD-tree construction (the middle band of
    Fig. 4b).
    """
    config = config or SearchConfig()
    start = time.perf_counter()
    if config.backend == "canonical":
        index = KDTree(points, split_rule=config.split_rule)
    elif config.backend == "twostage":
        index = TwoStageKDTree.from_leaf_size(
            points, config.leaf_size, split_rule=config.split_rule
        )
    elif config.backend == "approximate":
        tree = TwoStageKDTree.from_leaf_size(
            points, config.leaf_size, split_rule=config.split_rule
        )
        index = ApproximateSearch(tree, config.approx)
    elif config.backend == "gridhash":
        index = GridHashIndex(points, config.gridhash)
    else:
        index = _BruteForceIndex(points)
    build_time = time.perf_counter() - start
    if tracer is not None:
        tracer.charge_construction(build_time)
    return index, build_time


def exact_index(index):
    """Strip the stateful approximation layer, if any, off an index.

    The sparse, error-sensitive stages (keypoints, descriptors) always
    search the exact two-stage tree even when the pipeline runs the
    approximate backend (paper Sec. 4.2).
    """
    return index.tree if isinstance(index, ApproximateSearch) else index


def build_searcher(
    points: np.ndarray,
    config: SearchConfig | None = None,
    tracer=None,
    stats: SearchStats | None = None,
    injector=None,
) -> NeighborSearcher:
    """Construct the configured search structure over ``points``.

    Build time is charged to the tracer's open stage as KD-tree
    construction (the middle band of Fig. 4b).
    """
    stats = stats if stats is not None else SearchStats()
    index, build_time = build_index(points, config, tracer)
    return NeighborSearcher(
        index, stats, build_time, tracer=tracer, injector=injector
    )
