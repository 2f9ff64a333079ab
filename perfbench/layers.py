"""Which public calls of ``repro`` form each layer, and what they report.

:func:`instrument` wraps the layer entry points listed in ``LAYERS``
for one traced pass; nothing in ``src/`` changes.  :func:`layer_metrics`
reduces the pass's spans to the per-layer metrics, and
:func:`coverage_errors` compares the wrappers' call counts with the
program's own counters, so an entry point the wrappers miss shows up
as a mismatch instead of as silent self time in its caller.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from repro.accel.baselines import GPUModel
from repro.accel.simulator import TigrisSimulator
from repro.accel.workload import build_workload
from repro.core.approx import ApproximateSearch
from repro.core.twostage import TwoStageKDTree
from repro.mapping.loop_closure import LoopCloser
from repro.mapping.mapper import StreamingMapper
from repro.mapping.pose_graph import PoseGraph
from repro.mapping.voxel_map import VoxelMap
from repro.registration.health import assess_registration
from repro.registration.icp import icp
from repro.registration.odometry import StreamingOdometry
from repro.registration.pipeline import Pipeline
from repro.registration.search import NeighborSearcher, build_index, exact_index

from tracing import Patches, attributed_seconds, layer_totals, traced

SEARCH_KINDS = {
    "nn": ("nn", "nn_batch"),
    "knn": ("knn", "knn_batch"),
    "radius": ("radius", "radius_batch", "radius_batch_csr"),
}
TREE_SEARCH = ("nn_batch", "knn_batch", "radius_batch", "radius_batch_csr")

# Every layer the benchmark attributes time to, in report order.
LAYERS = (
    "registration.search.nn",
    "registration.search.knn",
    "registration.search.radius",
    "registration.search.build",
    "core.twostage.build",
    "core.twostage.search",
    "core.approx.search",
    "registration.preprocess",
    "registration.features",
    "registration.match",
    "registration.icp",
    "registration.odometry",
    "registration.health",
    "registration.recovery",
    "mapping.mapper",
    "mapping.loop_closure",
    "mapping.pose_graph",
    "mapping.voxel_map",
    "accel.capture",
    "accel.simulate",
    "accel.baselines",
)
QUERY_LAYERS = (
    "registration.search.nn",
    "registration.search.knn",
    "registration.search.radius",
    "core.twostage.search",
    "core.approx.search",
)
# name -> unit for the quantities beyond calls/self_s, in report order.
EXTRAS = {
    **{f"{layer}.queries": "count" for layer in QUERY_LAYERS},
    "registration.icp.iterations": "count",
    "registration.icp.converged_ratio": "ratio",
    "registration.odometry.ate_m": "m",
    "registration.health.unhealthy_ratio": "ratio",
    "registration.recovery.retries": "count",
    "registration.recovery.bridges": "count",
    "registration.recovery.retry_ratio": "ratio",
    "mapping.mapper.ate_m": "m",
    "mapping.loop_closure.accept_ratio": "ratio",
    "mapping.pose_graph.gn_iterations": "count",
    "mapping.voxel_map.reanchored_voxels": "count",
    "accel.simulate.sim_cycles": "cycles",
    "accel.simulate.host_us_per_sim_query": "us",
    "accel.simulate.speedup_vs_gpu": "x",
    "search.work.nodes_visited": "count",
    "search.work.results_returned": "count",
    "unattributed.self_s": "s",
    "unattributed.attributed_share": "ratio",
    "trace.overhead_ratio": "ratio",
}
MIN_ATTRIBUTED_SHARE = 0.95


def metric_units() -> dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(EXTRAS)
    return units


def _n_rows(queries) -> int:
    return np.atleast_2d(np.asarray(queries)).shape[0]


class NNOracle:
    """Keeps a sample of exact nearest-neighbour answers for cKDTree.

    Every ``EVERY``-th answered batch contributes its first ``ROWS``
    queries.  :meth:`mismatches` re-answers them with
    ``scipy.spatial.cKDTree`` and counts answers whose distance, or
    whose returned point's distance, differs from the oracle's.
    """

    EVERY = 8
    ROWS = 16

    def __init__(self):
        self.samples: list[tuple[np.ndarray, ...]] = []
        self._offered = 0

    def offer(self, points, queries, indices, dists) -> None:
        self._offered += 1
        if (self._offered - 1) % self.EVERY:
            return
        rows = slice(0, self.ROWS)
        self.samples.append(
            (
                points,
                np.array(np.atleast_2d(queries)[rows], dtype=np.float64),
                np.array(indices[rows]),
                np.array(dists[rows]),
            )
        )

    def mismatches(self) -> tuple[int, int]:
        """(answers checked, answers that disagree with cKDTree)."""
        checked = wrong = 0
        for points, queries, indices, dists in self.samples:
            oracle, _ = cKDTree(points).query(queries, k=1)
            returned = np.linalg.norm(points[indices] - queries, axis=1)
            bad = ~(
                np.isclose(dists, oracle, rtol=1e-9, atol=1e-12)
                & np.isclose(returned, oracle, rtol=1e-9, atol=1e-12)
            )
            checked += len(queries)
            wrong += int(bad.sum())
        return checked, wrong


class Observer:
    """What every pass records, traced or not: the neighbour-search
    queries answered, and a sample of exact NN answers for the oracle."""

    def __init__(self, oracle: NNOracle):
        self.oracle = oracle
        self.queries = 0
        self._depth = 0


def observe(observer: Observer) -> Patches:
    """Count queries at ``NeighborSearcher`` and feed exact nearest
    neighbours (from the searcher, or from a tree called directly) to
    the oracle.  Costs a counter update per search batch."""
    patches = Patches()

    def searcher_wrapper(name, fn):
        def wrapper(searcher, queries, *args, **kwargs):
            observer._depth += 1
            try:
                result = fn(searcher, queries, *args, **kwargs)
            finally:
                observer._depth -= 1
            if observer._depth == 0:
                observer.queries += _n_rows(queries)
                if name == "nn_batch" and exact_index(searcher.index) is searcher.index:
                    observer.oracle.offer(searcher.points, queries, *result)
            return result

        return wrapper

    for names in SEARCH_KINDS.values():
        for name in names:
            patches.method(
                NeighborSearcher, name, lambda fn, name=name: searcher_wrapper(name, fn)
            )

    def tree_wrapper(fn):
        def wrapper(tree, queries, *args, **kwargs):
            result = fn(tree, queries, *args, **kwargs)
            if observer._depth == 0:
                observer.oracle.offer(tree.points, queries, *result)
            return result

        return wrapper

    patches.method(TwoStageKDTree, "nn_batch", tree_wrapper)
    return patches


class SearchLedger:
    """The program's own search counters over a whole pass.

    Every ``SearchStats`` a ``NeighborSearcher`` is built with is noted
    with its counters at that moment; :meth:`totals` reads how far each
    has moved since.  The counters are charged by the search structures
    themselves, so a search that reaches them by a path the wrappers
    miss still moves these totals.
    """

    FIELDS = ("queries", "nodes_visited", "results_returned")

    def __init__(self):
        self._start: dict[int, tuple] = {}

    def add(self, stats) -> None:
        if id(stats) not in self._start:
            self._start[id(stats)] = (stats, [getattr(stats, f) for f in self.FIELDS])

    def totals(self) -> dict[str, int]:
        totals = dict.fromkeys(self.FIELDS, 0)
        for stats, start in self._start.values():
            for field, before in zip(self.FIELDS, start):
                totals[field] += getattr(stats, field) - before
        return totals


def instrument(recorder, ledger: SearchLedger) -> Patches:
    """Wrap every layer entry point for one traced pass; undo when done.

    ``ledger`` collects the search counters of every ``NeighborSearcher``
    built during the pass.
    """
    patches = Patches()

    def wrap(cls, name, layer, after=None):
        patches.method(cls, name, lambda fn: traced(recorder, layer, fn, after))

    def count_queries(span, args, kwargs, result):
        span.extra["queries"] = _n_rows(args[1])

    for kind, names in SEARCH_KINDS.items():
        for name in names:
            wrap(NeighborSearcher, name, f"registration.search.{kind}", after=count_queries)

    def searcher_init(fn):
        def wrapper(searcher, index, stats, *args, **kwargs):
            ledger.add(stats)
            return fn(searcher, index, stats, *args, **kwargs)

        return wrapper

    patches.method(NeighborSearcher, "__init__", searcher_init)

    for name in TREE_SEARCH:
        wrap(TwoStageKDTree, name, "core.twostage.search", after=count_queries)
        wrap(ApproximateSearch, name, "core.approx.search", after=count_queries)
    wrap(TwoStageKDTree, "__init__", "core.twostage.build")
    patches.function(
        build_index, traced(recorder, "registration.search.build", build_index)
    )

    wrap(Pipeline, "preprocess", "registration.preprocess")
    wrap(Pipeline, "ensure_features", "registration.features")
    wrap(Pipeline, "match", "registration.match")

    def icp_after(span, args, kwargs, result):
        span.extra.update(iterations=result.iterations, converged=result.converged)

    patches.function(icp, traced(recorder, "registration.icp", icp, after=icp_after))

    def push_after(span, args, kwargs, result):
        span.extra["pair"] = result is not None

    wrap(StreamingOdometry, "push", "registration.odometry", after=push_after)
    wrap(StreamingOdometry, "_recover", "registration.recovery")

    def health_after(span, args, kwargs, result):
        span.extra["healthy"] = result.healthy

    patches.function(
        assess_registration,
        traced(recorder, "registration.health", assess_registration, after=health_after),
    )

    wrap(StreamingMapper, "push", "mapping.mapper")

    def verify_after(span, args, kwargs, result):
        span.extra.update(verify=True, accepted=result is not None)

    wrap(LoopCloser, "candidates", "mapping.loop_closure")
    wrap(LoopCloser, "verify", "mapping.loop_closure", after=verify_after)

    def optimize_after(span, args, kwargs, result):
        span.extra["gn_iterations"] = result.iterations

    wrap(PoseGraph, "optimize", "mapping.pose_graph", after=optimize_after)
    wrap(VoxelMap, "insert", "mapping.voxel_map")

    def reanchor_after(span, args, kwargs, result):
        span.extra["reanchored_voxels"] = result

    wrap(VoxelMap, "re_anchor", "mapping.voxel_map", after=reanchor_after)

    def capture_after(span, args, kwargs, result):
        span.extra.update(
            captured_queries=result.n_queries,
            nodes_visited=result.total_nodes_visited,
            results_returned=result.total_results,
        )

    patches.function(
        build_workload,
        traced(recorder, "accel.capture", build_workload, after=capture_after),
    )

    def simulate_after(span, args, kwargs, result):
        span.extra.update(sim_cycles=result.cycles, sim_queries=args[1].n_queries)

    wrap(TigrisSimulator, "simulate", "accel.simulate", after=simulate_after)
    wrap(GPUModel, "run", "accel.baselines")
    return patches


def _sum(spans, name, key) -> float:
    return sum(span.extra.get(key, 0) for span in spans if span.name == name)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans, pass_wall_s: float, outputs: dict, search_totals: dict
) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except the tracing overhead.

    ``outputs`` carries what the workload read from the program after
    the pass: the ``OdometryStats`` recovery counters, the trajectory
    errors and the simulated speed-up.  ``search_totals`` is the pass's
    :meth:`SearchLedger.totals`.
    """
    totals = layer_totals(spans)
    values: dict[str, float] = {}
    for layer in LAYERS:
        entry = totals.get(layer, {"calls": 0, "self_s": 0.0})
        values[f"{layer}.calls"] = entry["calls"]
        values[f"{layer}.self_s"] = entry["self_s"]
    for layer in QUERY_LAYERS:
        values[f"{layer}.queries"] = _sum(spans, layer, "queries")

    icp_calls = values["registration.icp.calls"]
    values["registration.icp.iterations"] = _sum(spans, "registration.icp", "iterations")
    values["registration.icp.converged_ratio"] = _ratio(
        _sum(spans, "registration.icp", "converged"), icp_calls
    )
    values["registration.odometry.ate_m"] = outputs.get("odometry_ate_m", 0.0)
    health_calls = values["registration.health.calls"]
    values["registration.health.unhealthy_ratio"] = _ratio(
        health_calls - _sum(spans, "registration.health", "healthy"), health_calls
    )
    retries = outputs.get("n_reseeded", 0) + outputs.get("n_widened", 0)
    values["registration.recovery.retries"] = retries
    values["registration.recovery.bridges"] = outputs.get("n_bridged", 0)
    values["registration.recovery.retry_ratio"] = _ratio(retries, outputs.get("n_pairs", 0))
    values["mapping.mapper.ate_m"] = outputs.get("mapper_ate_m", 0.0)
    values["mapping.loop_closure.accept_ratio"] = _ratio(
        _sum(spans, "mapping.loop_closure", "accepted"),
        _sum(spans, "mapping.loop_closure", "verify"),
    )
    values["mapping.pose_graph.gn_iterations"] = _sum(
        spans, "mapping.pose_graph", "gn_iterations"
    )
    values["mapping.voxel_map.reanchored_voxels"] = _sum(
        spans, "mapping.voxel_map", "reanchored_voxels"
    )
    sim_queries = _sum(spans, "accel.simulate", "sim_queries")
    values["accel.simulate.sim_cycles"] = _sum(spans, "accel.simulate", "sim_cycles")
    values["accel.simulate.host_us_per_sim_query"] = 1e6 * _ratio(
        values["accel.simulate.self_s"], sim_queries
    )
    values["accel.simulate.speedup_vs_gpu"] = outputs.get("speedup_vs_gpu", 0.0)
    for key in ("nodes_visited", "results_returned"):
        values[f"search.work.{key}"] = search_totals[key] + _sum(
            spans, "accel.capture", key
        )
    attributed = attributed_seconds(spans)
    values["unattributed.self_s"] = pass_wall_s - attributed
    values["unattributed.attributed_share"] = attributed / pass_wall_s
    return values


def coverage_errors(
    spans, pass_wall_s: float, counters: dict, search_totals: dict
) -> list[str]:
    """Disagreements between wrapper call counts and program counters.

    ``counters`` holds the program's own totals for the pass:
    ``OdometryStats`` (``n_pairs``, ``n_reseeded``, ``n_widened``,
    ``n_unhealthy``, ``n_health``), ``MappingStats``
    (``n_loop_verifications``, ``n_optimizations``) and the captured
    ``SearchWorkload`` query total (``captured_queries``).
    ``search_totals`` is the pass's :meth:`SearchLedger.totals`.
    """
    totals = layer_totals(spans)

    def calls(layer):
        return totals.get(layer, {"calls": 0})["calls"]

    matches = (
        counters.get("n_pairs", 0)
        + counters.get("n_reseeded", 0)
        + counters.get("n_widened", 0)
        + counters.get("n_loop_verifications", 0)
    )
    expected = {
        "registration.odometry pairs": (
            _sum(spans, "registration.odometry", "pair"),
            counters.get("n_pairs", 0),
        ),
        "registration.match calls": (calls("registration.match"), matches),
        "registration.icp calls": (calls("registration.icp"), matches),
        "registration.health calls": (
            calls("registration.health"),
            counters.get("n_health", 0),
        ),
        "registration.recovery calls": (
            calls("registration.recovery"),
            counters.get("n_unhealthy", 0),
        ),
        "mapping.loop_closure verifications": (
            _sum(spans, "mapping.loop_closure", "verify"),
            counters.get("n_loop_verifications", 0),
        ),
        "mapping.pose_graph calls": (
            calls("mapping.pose_graph"),
            counters.get("n_optimizations", 0),
        ),
        "registration.search queries vs summed SearchStats.queries": (
            sum(_sum(spans, f"registration.search.{k}", "queries") for k in SEARCH_KINDS),
            search_totals["queries"],
        ),
        "accel.capture queries vs core search queries": (
            _sum(spans, "accel.capture", "captured_queries"),
            sum(
                span.extra.get("queries", 0)
                for span in spans
                if span.name in ("core.twostage.search", "core.approx.search")
                and span.parent is not None
                and spans[span.parent].name == "accel.capture"
            ),
        ),
        "accel.capture queries vs SearchWorkload.n_queries": (
            _sum(spans, "accel.capture", "captured_queries"),
            counters.get("captured_queries", 0),
        ),
    }
    errors = [
        f"{what}: wrappers saw {seen}, program counted {want}"
        for what, (seen, want) in expected.items()
        if seen != want
    ]
    share = attributed_seconds(spans) / pass_wall_s
    if share < MIN_ATTRIBUTED_SHARE:
        errors.append(
            f"attributed share {share:.3f} is below {MIN_ATTRIBUTED_SHARE}"
        )
    return errors
