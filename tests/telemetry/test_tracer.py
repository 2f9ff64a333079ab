"""Unit tests for the hierarchical span tracer and counter registry."""

import time

import pytest

from repro.kdtree import SearchStats
from repro.telemetry import CounterRegistry, NullTracer, StageTiming, Tracer
from repro.telemetry.tracer import FREEZE_SCHEMA, STAGE_CATEGORY


class TestSpanLifecycle:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("sibling"):
                pass
        assert [root.name for root in tracer.roots] == ["outer"]
        outer = tracer.roots[0]
        assert [child.name for child in outer.children] == ["inner", "sibling"]
        assert all(span.end is not None for span in outer.walk())

    def test_sequential_roots(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [root.name for root in tracer.roots] == ["a", "b"]

    def test_current_tracks_innermost(self):
        tracer = Tracer()
        assert tracer.current is None
        with tracer.span("outer") as outer:
            assert tracer.current is outer
            with tracer.span("inner") as inner:
                assert tracer.current is inner
            assert tracer.current is outer
        assert tracer.current is None

    def test_out_of_order_close_raises(self):
        tracer = Tracer()
        outer = tracer.begin("outer")
        tracer.begin("inner")
        with pytest.raises(RuntimeError, match="out of order"):
            tracer.end(outer)

    def test_duration_override(self):
        tracer = Tracer()
        span = tracer.begin("stage")
        tracer.end(span, duration=1.25)
        assert span.duration == pytest.approx(1.25)

    def test_measured_duration_is_wall_time(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            time.sleep(0.002)
        assert span.duration >= 0.002

    def test_span_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError("boom")
        assert tracer.current is None
        assert tracer.roots[0].end is not None

    def test_begin_args_are_coerced(self):
        import numpy as np

        tracer = Tracer()
        with tracer.span("s", count=np.int64(3), label="x") as span:
            pass
        assert span.args == {"count": 3, "label": "x"}
        assert type(span.args["count"]) is int


class TestAnnotationsAndCounters:
    def test_annotate_hits_innermost(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner") as inner:
                tracer.annotate(iterations=4)
        assert inner.args == {"iterations": 4}
        assert tracer.roots[0].args == {}

    def test_annotate_outside_span_is_noop(self):
        Tracer().annotate(ignored=1)  # must not raise

    def test_count_charges_span_and_registry(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            tracer.count("queries", 5)
            tracer.count("queries")
        assert span.counters == {"queries": 6}
        assert tracer.counters.get("queries") == 6

    def test_total_counters_roll_up(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            tracer.count("visits", 1)
            with tracer.span("inner"):
                tracer.count("visits", 10)
        assert outer.total_counters() == {"visits": 11}
        assert outer.counters == {"visits": 1}

    def test_count_stats_attaches_nonzero_fields(self):
        tracer = Tracer()
        stats = SearchStats(nodes_visited=7, queries=2)
        with tracer.span("s") as span:
            tracer.count_stats(stats)
        assert span.counters == {"nodes_visited": 7, "queries": 2}
        assert tracer.counters.get("nodes_visited") == 7

    def test_count_stats_rejects_non_dataclass(self):
        with pytest.raises(TypeError):
            Tracer().count_stats({"not": "a dataclass"})

    def test_charges_hit_innermost_span(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            tracer.charge_search(0.5)
            with tracer.span("inner") as inner:
                tracer.charge_search(0.2)
                tracer.charge_construction(0.1)
        assert outer.charges == {"kdtree_search": 0.5}
        assert inner.charges == {
            "kdtree_search": 0.2,
            "kdtree_construction": 0.1,
        }
        assert outer.total_charges() == pytest.approx(
            {"kdtree_search": 0.7, "kdtree_construction": 0.1}
        )


class TestFreezeAdopt:
    def make_worker_trace(self) -> Tracer:
        worker = Tracer()
        with worker.span("group", scene="urban"):
            span = worker.begin("config")
            worker.count("pairs", 3)
            worker.end(span, duration=0.25)
        return worker

    def test_freeze_schema_and_shape(self):
        worker = self.make_worker_trace()
        payload = worker.freeze()
        assert payload["schema"] == FREEZE_SCHEMA
        assert payload["pid"] == worker.pid
        assert [span["name"] for span in payload["spans"]] == ["group"]
        assert payload["counters"] == {"pairs": 3}

    def test_adopt_rebases_and_preserves_durations(self):
        worker = self.make_worker_trace()
        payload = worker.freeze()
        payload["pid"] = worker.pid + 1  # simulate a child process
        parent = Tracer()
        with parent.span("explore"):
            adopted = parent.adopt(payload)
        group = adopted[0]
        assert group.name == "group"
        assert parent.roots[0].children == [group]
        # Durations survive the clock rebase exactly.
        assert group.children[0].duration == pytest.approx(0.25)
        # Foreign-pid subtrees carry their origin pid as the track.
        assert all(span.track == worker.pid + 1 for span in group.walk())
        assert parent.counters.get("pairs") == 3

    def test_adopt_same_pid_stays_on_main_track(self):
        worker = self.make_worker_trace()
        parent = Tracer()
        parent.adopt(worker.freeze())
        assert all(span.track is None for span in parent.roots[0].walk())

    def test_adopt_without_open_span_extends_roots(self):
        parent = Tracer()
        parent.adopt(self.make_worker_trace().freeze())
        assert [root.name for root in parent.roots] == ["group"]

    def test_adopt_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="schema"):
            Tracer().adopt({"schema": "something/else", "spans": []})

    def test_adopted_absolute_times_agree(self):
        worker = self.make_worker_trace()
        original = worker.roots[0]
        parent = Tracer()
        adopted = parent.adopt(worker.freeze())[0]
        assert parent.epoch + adopted.start == pytest.approx(
            worker.epoch + original.start, abs=1e-6
        )


class TestStageRollup:
    def test_rollup_sums_stage_spans_only(self):
        tracer = Tracer()
        with tracer.span("pair"):  # structural: excluded
            span = tracer.begin("RPCE", category=STAGE_CATEGORY)
            tracer.charge_search(0.3)
            tracer.end(span, duration=1.0)
            span = tracer.begin("RPCE", category=STAGE_CATEGORY)
            tracer.charge_construction(0.1)
            tracer.end(span, duration=0.5)
        rollup = StageTiming.of(tracer.roots).stages
        assert set(rollup) == {"RPCE"}
        assert rollup["RPCE"].total == pytest.approx(1.5)
        assert rollup["RPCE"].kdtree_search == pytest.approx(0.3)
        assert rollup["RPCE"].kdtree_construction == pytest.approx(0.1)
        assert rollup["RPCE"].calls == 2


class TestCounterRegistry:
    def test_add_get_totals(self):
        registry = CounterRegistry()
        registry.add("visits", 5)
        registry.add("visits", 2)
        registry.add("queries")
        assert registry.get("visits") == 7
        assert registry.get("missing") == 0
        assert registry.totals() == {"visits": 7, "queries": 1}

    def test_merge_folds_totals(self):
        a = CounterRegistry()
        a.add("visits", 5)
        b = CounterRegistry()
        b.add("visits", 2)
        b.add("queries", 1)
        a.merge(b.totals())
        assert a.totals() == {"visits": 7, "queries": 1}
        assert len(a) == 2
        assert "visits" in a


class TestNullTracer:
    def test_all_methods_are_noops(self):
        null = NullTracer()
        with null.span("anything", key=1) as span, null.stage("RPCE"):
            null.annotate(x=1)
            null.count("n", 5)
            null.count_stats(SearchStats(queries=1))
            null.charge_search(1.0)
            null.charge_construction(1.0)
        assert span.total_counters() == {}
        assert span.total_charges() == {}
        assert null.roots == ()
        assert not null.enabled

    def test_span_context_is_preallocated(self):
        null = NullTracer()
        assert null.span("a") is null.span("b")
