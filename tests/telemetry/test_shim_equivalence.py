"""A registration's stage table is a view of the caller's trace.

There is one measurement: stage spans in the tracer.  The table a
traced ``register`` or streaming push returns must be exactly the
rollup of the spans that step recorded — bit for bit, not
approximately — and attaching a tracer must never perturb the
numerical results.  Untraced steps keep the table, never the spans.
"""

import gc
import types

import numpy as np
import pytest

from repro.registration import (
    ICPConfig,
    KeypointConfig,
    Pipeline,
    PipelineConfig,
    RPCEConfig,
    StreamingOdometry,
)
from repro.telemetry import Span, StageTiming, Tracer


def quick_pipeline() -> Pipeline:
    return Pipeline(
        PipelineConfig(
            keypoints=KeypointConfig(
                method="uniform", params={"voxel_size": 3.0}, min_keypoints=10
            ),
            icp=ICPConfig(rpce=RPCEConfig(max_distance=1.5), max_iterations=8),
            voxel_downsample=1.0,
        )
    )


@pytest.fixture(scope="module")
def traced_run(lidar_pair):
    source, target, _ = lidar_pair
    tracer = Tracer()
    result = quick_pipeline().register(source, target, tracer=tracer)
    return tracer, result.profiler, result


class TestShimEquivalence:
    def test_stage_rollup_matches_table_exactly(self, traced_run):
        tracer, timing, _ = traced_run
        assert timing == StageTiming.of(tracer.roots)
        assert timing.total > 0
        assert timing.total_kdtree_search > 0

    def test_fractions_recoverable_from_rollup(self, traced_run):
        tracer, timing, _ = traced_run
        stage_spans = [
            span
            for root in tracer.roots
            for span in root.walk()
            if span.category == "stage"
        ]
        total = sum(span.duration for span in stage_spans)
        assert timing.total == pytest.approx(total, rel=1e-12)
        for name, fraction in timing.stage_fractions().items():
            seconds = sum(s.duration for s in stage_spans if s.name == name)
            assert fraction == pytest.approx(seconds / total, rel=1e-12)

    def test_stage_spans_nest_under_structural_spans(self, lidar_pair):
        source, target, _ = lidar_pair
        tracer = Tracer()
        result = quick_pipeline().register(source, target, tracer=tracer)
        # register() = preprocess x2 + match; stage spans live inside.
        root_names = [root.name for root in tracer.roots]
        assert root_names == ["preprocess", "preprocess", "match"]
        match = tracer.roots[2]
        assert "icp" in [child.name for child in match.children]
        stage_names = {
            span.name
            for root in tracer.roots
            for span in root.walk()
            if span.category == "stage"
        }
        assert stage_names == set(result.profiler.stages)

    def test_tracing_does_not_perturb_results(self, lidar_pair):
        source, target, _ = lidar_pair
        bare = quick_pipeline().register(source, target)
        traced = quick_pipeline().register(source, target, tracer=Tracer())
        assert np.array_equal(bare.transformation, traced.transformation)
        assert bare.icp.iterations == traced.icp.iterations
        assert bare.icp.rmse == traced.icp.rmse
        assert set(bare.profiler.stages) == set(traced.profiler.stages)
        for name, timing in bare.profiler.stages.items():
            assert timing.calls == traced.profiler.stages[name].calls

    def test_search_counters_reach_the_registry(self, traced_run):
        tracer, _, _ = traced_run
        assert tracer.counters.get("queries") > 0
        assert tracer.counters.get("nodes_visited") > 0


def reachable_spans(*roots) -> list:
    """Every :class:`Span` reachable from ``roots`` through references."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen, pending, found = set(), list(roots), []
    while pending:
        obj = pending.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if isinstance(obj, Span):
            found.append(obj)
        pending.extend(gc.get_referents(obj))
    return found


class TestStreamingStepTables:
    def run(self, sequence, tracer=None) -> StreamingOdometry:
        engine = StreamingOdometry(quick_pipeline(), tracer=tracer)
        for frame in sequence.frames:
            engine.push(frame)
        return engine

    def test_each_pair_table_is_its_own_span(self, lidar_sequence):
        tracer = Tracer()
        engine = self.run(lidar_sequence, tracer)
        roots = tracer.roots
        assert [root.name for root in roots] == ["bootstrap", "pair", "pair", "pair"]
        for result, span in zip(engine.pair_results, roots[1:], strict=True):
            assert result.profiler == StageTiming.of([span])
            # No leakage across pairs: one RPCE stage per ICP iteration
            # of this pair, and this pair's preprocess only.
            assert result.profiler.stages["RPCE"].calls == result.icp.iterations
            assert result.profiler.stages["Normal Estimation"].calls == 1
        run = StageTiming.of(roots)
        assert set(engine.profiler.stages) == set(run.stages)
        for name, timing in run.stages.items():
            assert engine.profiler.stages[name].calls == timing.calls
            assert engine.profiler.stages[name].total == pytest.approx(timing.total)

    def test_untraced_results_hold_no_spans(self, lidar_sequence):
        traced = self.run(lidar_sequence, Tracer())
        assert reachable_spans(traced)  # the walk does find spans
        engine = self.run(lidar_sequence)
        result = engine.result(lidar_sequence.poses)
        assert reachable_spans(engine, result) == []
        assert result.profiler.stages["RPCE"].calls == sum(
            pair.icp.iterations for pair in result.pair_results
        )
