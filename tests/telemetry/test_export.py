"""Tests for the Chrome-trace and JSONL exporters (and their validator)."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.telemetry import (
    JSONL_SCHEMA,
    Tracer,
    chrome_trace_events,
    write_chrome_trace,
    write_jsonl,
    write_trace,
)
from repro.telemetry.tracer import STAGE_CATEGORY

_CHECK_TRACE = Path(__file__).resolve().parents[2] / "tools" / "check_trace.py"


def load_check_trace():
    """Import ``tools/check_trace.py`` (not a package) by file path."""
    spec = importlib.util.spec_from_file_location("check_trace", _CHECK_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sample_tracer() -> Tracer:
    tracer = Tracer()
    pair = tracer.begin("pair", index=0)
    span = tracer.begin("RPCE", category=STAGE_CATEGORY)
    tracer.count("nodes_visited", 42)
    tracer.charge_search(0.01)
    tracer.end(span, duration=0.05)
    tracer.end(pair, duration=0.1)
    return tracer


class TestChromeEvents:
    def test_balanced_tree_order(self):
        events = chrome_trace_events(sample_tracer())
        durational = [e for e in events if e["ph"] in "BE"]
        assert [(e["ph"], e["name"]) for e in durational] == [
            ("B", "pair"),
            ("B", "RPCE"),
            ("E", "RPCE"),
            ("E", "pair"),
        ]

    def test_timestamps_relative_and_ordered(self):
        events = [e for e in chrome_trace_events(sample_tracer()) if e["ph"] in "BE"]
        timestamps = [e["ts"] for e in events]
        assert timestamps[0] == 0.0
        assert timestamps == sorted(timestamps)
        # The stage closed with duration=0.05 -> 50,000 us later.
        assert timestamps[2] - timestamps[1] == pytest.approx(50_000, abs=1)

    def test_stage_category_and_args(self):
        events = chrome_trace_events(sample_tracer())
        begin = next(e for e in events if e["ph"] == "B" and e["name"] == "RPCE")
        assert begin["cat"] == STAGE_CATEGORY
        assert begin["args"]["nodes_visited"] == 42
        assert begin["args"]["kdtree_search_s"] == pytest.approx(0.01)

    def test_thread_name_metadata(self):
        events = chrome_trace_events(sample_tracer())
        meta = [e for e in events if e["ph"] == "M"]
        assert len(meta) == 1
        assert meta[0]["name"] == "thread_name"
        assert meta[0]["args"]["name"] == "main"

    def test_adopted_subtree_gets_worker_track(self):
        worker = Tracer()
        with worker.span("group"):
            pass
        payload = worker.freeze()
        payload["pid"] = worker.pid + 1
        parent = Tracer()
        with parent.span("explore"):
            parent.adopt(payload)
        events = chrome_trace_events(parent)
        group_begin = next(
            e for e in events if e["ph"] == "B" and e["name"] == "group"
        )
        assert group_begin["tid"] == worker.pid + 1
        names = {
            e["args"]["name"] for e in events if e["ph"] == "M"
        }
        assert names == {"main", f"worker-{worker.pid + 1}"}


class TestWriteChromeTrace:
    def test_payload_and_validator(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(
            sample_tracer(),
            str(path),
            meta={"bench": "unit"},
        )
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert payload["otherData"] == {"bench": "unit"}
        assert payload["counterTotals"] == {"nodes_visited": 42}
        assert load_check_trace().check_trace(payload) == []

    def test_validator_flags_imbalance(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(sample_tracer(), str(path))
        payload = json.loads(path.read_text())
        payload["traceEvents"] = [
            e
            for e in payload["traceEvents"]
            if not (e["ph"] == "E" and e["name"] == "RPCE")
        ]
        failures = load_check_trace().check_trace(payload)
        assert failures  # unclosed span must be reported
        assert any("RPCE" in failure for failure in failures)

    def test_validator_flags_nested_stage(self, tmp_path):
        tracer = sample_tracer()
        with tracer.span("pair"):
            outer = tracer.begin("KPCE", category=STAGE_CATEGORY)
            inner = tracer.begin("RPCE", category=STAGE_CATEGORY)
            tracer.end(inner, duration=0.01)
            tracer.end(outer, duration=0.02)
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, str(path))
        failures = load_check_trace().check_trace(json.loads(path.read_text()))
        assert len(failures) == 1
        assert "'RPCE' opens inside stage 'KPCE'" in failures[0]

    def test_validator_allows_stages_on_separate_tracks(self):
        # Worker subtrees land on their own tracks: a stage open in the
        # parent does not make a worker's stage nested.
        parent = Tracer()
        worker = Tracer()
        worker.pid = parent.pid + 1
        with worker.span("group"):
            with worker.stage("RPCE"):
                pass
        with parent.stage("KPCE"):
            parent.adopt(worker.freeze())
        events = chrome_trace_events(parent)
        assert load_check_trace().check_trace({"traceEvents": events}) == []


class TestWriteJsonl:
    def test_records_and_schema(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_jsonl(sample_tracer(), str(path), meta={"bench": "unit"})
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        header, *spans, counters = records
        assert header["record"] == "header"
        assert header["schema"] == JSONL_SCHEMA
        assert header["meta"] == {"bench": "unit"}
        assert [s["record"] for s in spans] == ["span", "span"]
        assert [s["path"] for s in spans] == ["pair", "pair/RPCE"]
        assert [s["depth"] for s in spans] == [0, 1]
        stage = spans[1]
        assert stage["category"] == STAGE_CATEGORY
        assert stage["dur_s"] == pytest.approx(0.05)
        assert stage["counters"] == {"nodes_visited": 42}
        assert stage["charges"]["kdtree_search"] == pytest.approx(0.01)
        assert counters["record"] == "counters"
        assert counters["totals"] == {"nodes_visited": 42}


class TestWriteTraceDispatch:
    def test_jsonl_extension_gets_run_record(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_trace(sample_tracer(), str(path))
        first = json.loads(path.read_text().splitlines()[0])
        assert first["schema"] == JSONL_SCHEMA

    def test_json_extension_gets_chrome_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        write_trace(sample_tracer(), str(path))
        payload = json.loads(path.read_text())
        assert "traceEvents" in payload
