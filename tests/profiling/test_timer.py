"""Unit tests for the stage table rolled up from a trace's stage spans."""

import time

import pytest

from repro.telemetry import StageTiming, Tracer


def table(tracer: Tracer) -> StageTiming:
    return StageTiming.of(tracer.roots)


class TestStages:
    def test_stage_accumulates_time(self):
        tracer = Tracer()
        with tracer.stage("work"):
            time.sleep(0.002)
        timing = table(tracer)
        assert timing.stages["work"].total >= 0.002
        assert timing.stages["work"].calls == 1

    def test_repeated_stages_accumulate(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.stage("loop"):
                time.sleep(0.001)
        loop = table(tracer).stages["loop"]
        assert loop.calls == 3
        assert loop.total >= 0.003

    def test_nested_stages_rejected(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError, match="'inner' opened while 'outer'"):
            with tracer.stage("outer"):
                # A structural span between them does not make it legal.
                with tracer.span("structural"):
                    with tracer.stage("inner"):
                        pass

    def test_stage_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.stage("failing"):
                raise ValueError("boom")
        # The stage must have closed; a new one can open.
        with tracer.stage("next"):
            pass
        assert tracer.current is None
        assert set(table(tracer).stages) == {"failing", "next"}


class TestCharges:
    def test_search_charged_to_active_stage(self):
        tracer = Tracer()
        with tracer.stage("RPCE"):
            tracer.charge_search(0.5)
            tracer.charge_construction(0.1)
        timing = table(tracer).stages["RPCE"]
        assert timing.kdtree_search == pytest.approx(0.5)
        assert timing.kdtree_construction == pytest.approx(0.1)

    def test_charge_without_stage_is_noop(self):
        tracer = Tracer()
        tracer.charge_search(1.0)  # no span open: dropped
        with tracer.span("pair"):
            tracer.charge_search(1.0)  # structural span only: not a stage
            with tracer.stage("RPCE"):
                pass
        timing = table(tracer)
        assert timing.total_kdtree_search == 0.0
        assert timing.stages["RPCE"].calls == 1

    def test_other_time_never_negative(self):
        tracer = Tracer()
        with tracer.stage("s"):
            tracer.charge_search(100.0)  # charge exceeds wall time
        assert table(tracer).stages["s"].other == 0.0


class TestAggregation:
    def test_fractions_sum_to_one(self):
        tracer = Tracer()
        with tracer.stage("a"):
            time.sleep(0.001)
        with tracer.stage("b"):
            time.sleep(0.002)
        assert sum(table(tracer).stage_fractions().values()) == pytest.approx(1.0)

    def test_kdtree_fractions_partition(self):
        tracer = Tracer()
        with tracer.stage("a"):
            time.sleep(0.002)
            tracer.charge_search(0.001)
        fractions = table(tracer).kdtree_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert fractions["search"] > 0

    def test_empty_profiler(self):
        timing = table(Tracer())
        assert timing.total == 0.0
        assert timing.stage_fractions() == {}
        assert timing.kdtree_fractions()["search"] == 0.0

    def test_merge(self):
        a = Tracer()
        with a.stage("x"):
            a.charge_search(0.2)
        b = Tracer()
        with b.stage("x"):
            b.charge_search(0.3)
        with b.stage("y"):
            pass
        merged = table(a)
        merged.merge(table(b))
        assert merged.stages["x"].kdtree_search == pytest.approx(0.5)
        assert "y" in merged.stages

    def test_merge_restricted_to_named_stages(self):
        b = Tracer()
        with b.stage("x"):
            b.charge_search(0.3)
        with b.stage("y"):
            pass
        with b.stage("z"):
            pass
        merged = StageTiming()
        merged.merge(table(b), stages=("x", "z"))
        assert set(merged.stages) == {"x", "z"}
        assert merged.stages["x"].kdtree_search == pytest.approx(0.3)
        assert merged.stages["x"].calls == 1

    def test_merge_accumulates_calls(self):
        a = Tracer()
        with a.stage("x"):
            pass
        b = Tracer()
        for _ in range(2):
            with b.stage("x"):
                pass
        merged = table(a)
        merged.merge(table(b))
        assert merged.stages["x"].calls == 3

    def test_report_format(self):
        tracer = Tracer()
        with tracer.stage("Normal Estimation"):
            pass
        text = table(tracer).report()
        assert "Normal Estimation" in text
        assert "TOTAL" in text


class TestReportFormatting:
    def make_table(self) -> StageTiming:
        tracer = Tracer()
        with tracer.stage("RPCE"):
            tracer.charge_search(0.0)
        return table(tracer)

    def test_basic_report_has_no_extended_columns(self):
        text = self.make_table().report()
        header = text.splitlines()[0]
        assert "kd-search" in header
        assert "other" not in header
        assert "share" not in header

    def test_extended_report_columns_and_shares(self):
        text = self.make_table().report(extended=True)
        lines = text.splitlines()
        assert "other" in lines[0] and "share" in lines[0]
        # One stage -> its share and the TOTAL share are both 100%.
        assert lines[1].startswith("RPCE")
        assert lines[1].rstrip().endswith("100.0%")
        assert lines[-1].startswith("TOTAL")
        assert lines[-1].rstrip().endswith("100.0%")

    def test_extended_report_on_empty_profiler(self):
        # No stages recorded: the footer must print 0.0%, not divide
        # by the zero total.
        text = StageTiming().report(extended=True)
        lines = text.splitlines()
        assert len(lines) == 2  # header + TOTAL only
        assert lines[-1].startswith("TOTAL")
        assert lines[-1].rstrip().endswith("0.0%")

    def test_extended_report_search_stats_line(self):
        from repro.kdtree import SearchStats

        stats = SearchStats(
            queries=10, csr_results=4, reused_queries=3, cache_hits=2
        )
        text = self.make_table().report(extended=True, search_stats=stats)
        last = text.splitlines()[-1]
        assert last == "queries: 10 (csr 4, reused 3, cache hits 2)"

    def test_search_stats_ignored_without_extended(self):
        from repro.kdtree import SearchStats

        text = self.make_table().report(
            search_stats=SearchStats(queries=10)
        )
        assert "queries:" not in text

    def test_rows_sorted_by_descending_total(self):
        tracer = Tracer()
        with tracer.stage("quick"):
            pass
        with tracer.stage("slow"):
            time.sleep(0.002)
        lines = table(tracer).report().splitlines()
        assert lines[1].startswith("slow")
        assert lines[2].startswith("quick")

    def test_exact_text_of_all_three_formats(self):
        from repro.kdtree import SearchStats
        from repro.registration.odometry import OdometryStats

        tracer = Tracer()
        for name, seconds, search, build in (
            ("RPCE", 0.75, 0.5, 0.0),
            ("Normal Estimation", 0.25, 0.125, 0.0625),
        ):
            span = tracer.begin(name, category="stage")
            tracer.charge_search(search)
            tracer.charge_construction(build)
            tracer.end(span, duration=seconds)
        timing = table(tracer)
        assert timing.report() == (
            "stage                         total(s)  kd-search  kd-build\n"
            "RPCE                            0.7500     0.5000    0.0000\n"
            "Normal Estimation               0.2500     0.1250    0.0625\n"
            "TOTAL                           1.0000     0.6250    0.0625"
        )
        extended = timing.report(
            extended=True,
            search_stats=SearchStats(queries=7, csr_results=5),
            odometry_stats=OdometryStats(n_pairs=2, n_nonconverged=1),
        )
        assert extended == (
            "stage                         total(s)  kd-search  kd-build"
            "     other   share\n"
            "RPCE                            0.7500     0.5000    0.0000"
            "    0.2500   75.0%\n"
            "Normal Estimation               0.2500     0.1250    0.0625"
            "    0.0625   25.0%\n"
            "TOTAL                           1.0000     0.6250    0.0625"
            "    0.3125  100.0%\n"
            "queries: 7 (csr 5, reused 0, cache hits 0)\n"
            "health: 2 pairs: 1 non-converged ICP"
        )
