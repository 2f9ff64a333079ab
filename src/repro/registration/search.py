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
Every search is a batch.  A backend, and an error injector, implements
exactly three calls: ``nn_batch``, ``knn_batch`` (rectangular
``(Q, min(k, n))`` results) and ``radius_batch_csr`` (one flat
:class:`~repro.core.ragged.RaggedNeighborhoods` in CSR form).  Pipeline
stages issue one such call per stage — the software analogue of the
accelerator's data-parallel PE array.  The backends implement them
natively: chunked vectorized scans for brute force, grouped-by-leaf
scans behind a vectorized top-tree frontier for the two-stage tree, a
level-synchronous frontier sweep for the canonical KD-tree, probed
cells and rings for the voxel-hash grid, and sequential leader-state
updates for the approximate search.  Radius results travel CSR
end-to-end: the backends produce flat ``indices``/``offsets``/
``distances``, the reuse cache and injectors pass that form through,
and the front-end consumers gather from it directly.

:class:`NeighborSearcher` keeps ``nn``, ``knn`` and ``radius`` as
batches of one row, and ``radius_batch`` as the CSR result sliced into
per-query lists at the delivery edge.  Each call reads the timer once
and counts one ``SearchStats.batches`` tick; ``queries`` and
``results_returned`` stay exact per query (queries delivered as CSR
also tick ``csr_results``), while the work counters (node visits,
pruning) reflect the schedule actually executed.

Nested-radius reuse
-------------------
Preprocess stages query the *same* per-frame index at nested radii
over the frame's own points: normal estimation at ``normals.radius``,
Harris/SIFT keypoint support, and the descriptor supports are all row
subsets of one conceptual all-points radius search at the largest
planned radius.  A :class:`RadiusReuseCache` (installed by
``Pipeline.preprocess``; plain searchers carry none and behave exactly
as before) runs that search once — the first eligible full-cloud
radius search is transparently inflated to the planned maximum radius
and its CSR result retained — and serves every later nested request by
row-select plus exact squared-distance re-filter
(:func:`repro.core.ragged.csr_radius_select_csr`), bit-identical to a
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
from repro.core.ragged import RaggedNeighborhoods, csr_radius_select_csr
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
    """Adapter giving the brute-force scan the batch search interface."""

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

    def nn_batch(self, queries, stats=None):
        indices, dists = bruteforce.nn_batch(self._points, queries, self._points_t)
        self._charge(stats, len(indices), len(indices))
        return indices, dists

    def knn_batch(self, queries, k, stats=None):
        indices, dists = bruteforce.knn_batch(self._points, queries, k, self._points_t)
        self._charge(stats, len(indices), indices.size)
        return indices, dists

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
    search; ``serve_csr`` derives any nested request — a row subset at
    any radius ``r <= max_radius`` — via
    :func:`repro.core.ragged.csr_radius_select_csr`, bit-identical to a
    fresh query of the same rows.  Once filled the
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

    def serve_csr(
        self, rows: np.ndarray, r: float, sort: bool = False
    ) -> RaggedNeighborhoods:
        """Radius-``r`` result for index ``rows``, filtered from the cache."""
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

    Every search is a batch: :meth:`nn_batch`, :meth:`knn_batch` and
    :meth:`radius_batch_csr` are the three calls a backend or an
    injector implements.  Each call reads the timer once and charges one
    ``batches`` tick; query and result counters stay exact per query,
    and work counters reflect the batch schedule actually executed.
    :meth:`nn`, :meth:`knn` and :meth:`radius` run a batch of one row,
    and :meth:`radius_batch` slices the CSR result into lists.  An
    injector (see :mod:`repro.registration.error_injection`) may
    post-process every result.
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
        indices, dists = self.nn_batch(np.atleast_2d(query))
        return int(indices[0]), float(dists[0])

    def knn(self, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        indices, dists = self.knn_batch(np.atleast_2d(query), k)
        return indices[0], dists[0]

    def radius(
        self, query: np.ndarray, r: float, sort: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        indices, dists = self.radius_batch(np.atleast_2d(query), r, sort=sort)
        return indices[0], dists[0]

    def nn_batch(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest neighbor for every row of ``queries``: ((Q,), (Q,))."""
        start = time.perf_counter()
        if self._injector is not None:
            result = self._injector.nn_batch(self._index, queries, self.stats)
        else:
            result = self._index.nn_batch(queries, self.stats)
        self._charge(start)
        return result

    def knn_batch(
        self, queries: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """kNN for every row of ``queries``: ((Q, min(k, n)), same)."""
        start = time.perf_counter()
        if self._injector is not None:
            result = self._injector.knn_batch(self._index, queries, k, self.stats)
        else:
            result = self._index.knn_batch(queries, k, self.stats)
        self._charge(start)
        return result

    def radius_batch(
        self,
        queries: np.ndarray,
        r: float,
        sort: bool = False,
        self_indices: np.ndarray | None = None,
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Radius search for every row of ``queries``: ragged lists.

        Slices the CSR result of :meth:`radius_batch_csr` into per-query
        lists.  The slicing happens on the delivery edge, so these
        queries are not counted in ``stats.csr_results``; every other
        counter is charged as by the CSR entry point.
        """
        return self._radius(queries, r, sort, self_indices).to_list_pair()

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
        ascending distance when ``sort=True``.  The queries are counted
        in ``stats.csr_results``.

        ``self_indices``, when given, asserts that row ``i`` of
        ``queries`` is index point ``self_indices[i]`` — the hint that
        lets an installed :class:`RadiusReuseCache` serve the call by
        filtering its cached larger-radius result (bit-identical to the
        fresh search).  Searchers without a cache ignore it.
        """
        result = self._radius(queries, r, sort, self_indices)
        self.stats.csr_results += result.n_segments
        return result

    def _radius(self, queries, r, sort, self_indices) -> RaggedNeighborhoods:
        start = time.perf_counter()
        if self._injector is not None:
            result = self._injector.radius_batch_csr(
                self._index, queries, r, self.stats, sort
            )
        else:
            result = self._reused_radius_csr(r, sort, self_indices)
            if result is None:
                result = self._index.radius_batch_csr(
                    queries, r, self.stats, sort=sort
                )
        self._charge(start)
        return result

    def _charge(self, start: float) -> None:
        """One ``batches`` tick, and the batch's wall time to the tracer."""
        self.stats.batches += 1
        if self._tracer is not None:
            self._tracer.charge_search(time.perf_counter() - start)

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
