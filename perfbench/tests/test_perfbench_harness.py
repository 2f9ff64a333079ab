"""The arithmetic behind the benchmark's reported numbers."""

import math

import pytest

from gauge import NULL_GAUGE
from tracing import (
    FAILED,
    OK,
    REJECTED,
    Recorder,
    Span,
    attributed_seconds,
    layer_totals,
    median,
    percentile,
    request_summary,
    scaled_median,
    self_times,
    tail_mean,
    traced,
)

NOMINAL = 0.002


def test_self_time_subtracts_the_intervals_children_cover():
    spans = [
        Span(0, "mapping.mapper", 0.0, 10.0),
        Span(1, "registration.icp", 1.0, 4.0, parent=0),
        Span(2, "core.twostage.search", 2.0, 3.0, parent=1),
        Span(3, "registration.icp", 5.0, 9.0, parent=0),
        Span(4, "mapping.mapper", 12.0, 13.0),
    ]
    assert self_times(spans) == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 1.0})
    totals = layer_totals(spans)
    assert totals["registration.icp"] == {"calls": 2, "self_s": pytest.approx(6.0)}
    assert totals["mapping.mapper"] == {"calls": 2, "self_s": pytest.approx(4.0)}
    # Self times of a tree add up to its root's duration.
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(attributed_seconds(spans))
    assert attributed_seconds(spans) == pytest.approx(11.0)


def test_recorded_nesting_and_same_layer_reentry():
    ticks = iter(range(100))
    recorder = Recorder(clock=lambda: float(next(ticks)))

    def search(n):
        return n if n == 0 else wrapped_search(n - 1)

    wrapped_search = traced(recorder, "core.twostage.search", search)
    outer = traced(recorder, "registration.icp", lambda: wrapped_search(3))
    recorder.request = "frame7"
    assert outer() == 0
    # The recursive calls into the same layer are one entry, not four.
    assert [(s.name, s.parent, s.request) for s in recorder.spans] == [
        ("registration.icp", None, "frame7"),
        ("core.twostage.search", 0, "frame7"),
    ]
    assert self_times(recorder.spans) == {0: 2.0, 1: 1.0}


def test_span_closes_when_the_call_raises():
    recorder = Recorder()

    def boom():
        raise ValueError("cannot register empty point clouds")

    with pytest.raises(ValueError):
        traced(recorder, "registration.odometry", boom)()
    assert recorder.current is None
    assert recorder.spans[0].end is not None


def test_percentile_refused_with_fewer_than_ten_samples_beyond():
    samples = [float(i) for i in range(1, 100)]
    with pytest.raises(ValueError, match="9 beyond"):
        percentile(samples, 90)
    with pytest.raises(ValueError, match="9 beyond"):
        tail_mean(samples, 90)
    assert percentile(samples + [100.0], 90) == 90.0
    assert tail_mean(samples + [100.0], 90) == 95.5
    assert percentile(samples + [100.0], 50) == 50.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_failure_ratio_and_goodput_when_pushes_raise_mid_stream():
    from workloads import _stream

    def push(frame):
        if frame == "empty":
            raise ValueError("cannot register empty point clouds")
        if frame == "bad":
            raise IndexError("index 3 is out of bounds")

    frames = ["a", "b", "empty", "c", "bad"] + ["d"] * 96
    may_reject = [frame == "empty" for frame in frames]
    latencies, outcomes, errors = _stream(push, frames, may_reject, None, "f", NULL_GAUGE)
    assert outcomes[:5] == [OK, OK, REJECTED, OK, FAILED]
    assert outcomes[5:] == [OK] * 96
    assert errors == ["f4: IndexError: index 3 is out of bounds"]

    latencies = [0.01 * (i + 1) for i in range(len(frames))]
    # The gauge read its nominal time after every request: no scaling.
    reference = [NOMINAL] * len(frames)
    summary = request_summary([(latencies, outcomes, 52.0, reference)], NOMINAL)
    assert summary["host_slowness"] == pytest.approx(1.0)
    assert summary["accept_ratio"] == pytest.approx(99 / 101)
    # Between the requests the pass spent 52 s - 51.51 s.
    assert summary["pass_s"] == pytest.approx(52.0)
    assert summary["goodput_per_s"] == pytest.approx(99 / 52.0)
    # 100 timed requests: the rejection (0.03 s) is left out and the
    # failure (0.05 s) misses every limit.
    assert math.isinf(summary["p50_s"])
    assert math.isinf(summary["tail_s"])
    # Without the failure the middle of the 100 lies between 0.51 s and
    # 0.52 s, and the tail is the 34 requests beyond p66, 0.68 s to
    # 1.01 s.
    outcomes[4] = OK
    summary = request_summary([(latencies, outcomes, 52.0, reference)], NOMINAL)
    assert 0.51 < summary["p50_s"] < 0.52
    assert summary["tail_s"] == pytest.approx(0.845)
    # 29 timed requests: p66 has 9 beyond it and the tail is refused.
    outcomes = [REJECTED] * 72 + [OK] * 29
    with pytest.raises(ValueError, match="9 beyond"):
        request_summary([(latencies, outcomes, 52.0, reference)], NOMINAL)


def test_each_request_and_reference_slot_counts_its_fastest_pass():
    outcomes = [OK] * 29 + [REJECTED, OK]
    steady = [0.1] * 31
    # A host slowdown that hits a few requests of one pass, and a
    # failure in another.
    slowed = [0.1] * 10 + [0.3] * 5 + [0.1] * 16
    # The host ran at half the nominal speed, except after the last
    # request of the slowed pass.
    reference = [2 * NOMINAL] * 31
    quick_last = [3 * NOMINAL] * 30 + [NOMINAL]
    summary = request_summary(
        [
            (steady, outcomes, 3.6, reference),
            (slowed, outcomes, 4.5, quick_last),
            (steady, outcomes[:1] + [FAILED] + outcomes[2:], 3.3, reference),
        ],
        NOMINAL,
    )
    slowness = (30 * 2 + 1) / 31
    assert summary["host_slowness"] == pytest.approx(slowness)
    # 31 requests at 0.1 s, plus the fastest 0.2 s between requests.
    assert summary["pass_s"] == pytest.approx(3.3 / slowness)
    assert math.isinf(summary["p50_s"])
    # The request that failed once counts as failed: 29 of 31 are
    # accepted.
    assert summary["accept_ratio"] == pytest.approx(29 / 31)
    assert summary["goodput_per_s"] == pytest.approx(29 * slowness / 3.3)
    summary = request_summary(
        [(steady, outcomes, 3.6, reference), (slowed, outcomes, 4.5, quick_last)], NOMINAL
    )
    assert summary["p50_s"] == pytest.approx(0.1 / slowness)
    assert summary["tail_s"] == pytest.approx(0.1 / slowness)
    with pytest.raises(ValueError, match="rejected different"):
        request_summary(
            [(steady, outcomes, 3.6, reference), (steady, [OK] * 31, 3.6, reference)],
            NOMINAL,
        )
    with pytest.raises(ValueError, match="one outcome and one reference"):
        request_summary(
            [(steady, outcomes, 3.6, reference), (steady, outcomes, 3.6, reference[1:])],
            NOMINAL,
        )


def test_median_moves_by_the_weight_of_the_sample_that_moved():
    samples = [float(i) for i in range(1, 22)]
    assert median(samples) == pytest.approx(11.0)
    # The middle sample jumps to its neighbour's value: the middle
    # rank moves by the whole gap, the estimate by a fraction of it.
    moved = samples[:10] + [12.0] + samples[11:]
    assert percentile(moved, 50) == 12.0
    assert 11.0 < median(moved) < 11.3
    with pytest.raises(ValueError, match="beyond"):
        median(samples[:19])


def test_setup_times_are_scaled_by_the_reference_after_each():
    # The second build ran while the host was at half speed.
    times = [0.4, 0.8, 0.4, 0.5]
    references = [NOMINAL, 2 * NOMINAL, NOMINAL, NOMINAL]
    assert scaled_median(times, references, NOMINAL) == pytest.approx(0.4)
    with pytest.raises(ValueError):
        scaled_median(times, references[1:], NOMINAL)


def test_a_rejection_outside_the_crash_frames_is_a_failure():
    from workloads import _stream

    def push(frame):
        raise ValueError("points contain NaN or infinity")

    _, outcomes, errors = _stream(push, ["x"], [False], None, "f", NULL_GAUGE)
    assert outcomes == [FAILED] and errors


def test_search_ledger_sums_what_each_accumulator_moved_after_it_was_noted():
    from layers import SearchLedger
    from repro.kdtree.stats import SearchStats

    first = SearchStats(queries=5, nodes_visited=50)
    second = SearchStats()
    ledger = SearchLedger()
    for stats in (first, second, first):  # noted once, however many searchers share it
        ledger.add(stats)
    first.queries += 3
    first.nodes_visited += 7
    second.queries += 2
    second.results_returned += 4
    assert ledger.totals() == {"queries": 5, "nodes_visited": 7, "results_returned": 4}
