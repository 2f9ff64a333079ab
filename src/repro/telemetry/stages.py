"""The Fig. 4 stage table, rolled up from a trace's stage spans.

The bottleneck analysis of paper Sec. 3.2 (Fig. 4) needs two views of
one run: wall time per pipeline *stage* (Normal Estimation, KPCE,
RPCE, ...) and, cutting across stages, time spent in KD-tree *search*
versus KD-tree *construction* versus everything else.  Both come from
the tracer: each stage is a :meth:`~repro.telemetry.Tracer.stage` span,
and the neighbor-search wrapper charges its time to the innermost open
span.  :class:`StageTiming` is the table those spans roll up to — a
small picklable value that holds no span references, so results can
carry it across steps and process boundaries.

:func:`record_stages` is how a step (one registration, one streaming
push) gets its table: traced steps roll up their own subtree of the
caller's tracer; untraced steps record into a short-lived
:class:`~repro.telemetry.Tracer` whose spans die with the step.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.telemetry.tracer import STAGE_CATEGORY, Tracer

__all__ = ["StageTotals", "StageTiming", "record_stages"]


@dataclass
class StageTotals:
    """Accumulated timing for one named stage."""

    total: float = 0.0
    kdtree_search: float = 0.0
    kdtree_construction: float = 0.0
    calls: int = 0

    @property
    def other(self) -> float:
        """Time not attributable to KD-tree work."""
        return max(0.0, self.total - self.kdtree_search - self.kdtree_construction)


@dataclass
class StageTiming:
    """Per-stage and cross-cutting KD-tree timings of some stage spans."""

    stages: dict[str, StageTotals] = field(default_factory=dict)

    @classmethod
    def of(cls, spans) -> "StageTiming":
        """Roll up every stage span in the subtrees rooted at ``spans``.

        A stage's KD-tree time is the charges of its whole subtree;
        charges outside every stage span stay out of the table.
        """
        timing = cls()
        pending = list(reversed(spans))
        while pending:
            span = pending.pop()
            if span.category != STAGE_CATEGORY:
                pending.extend(reversed(span.children))
                continue
            charges = span.total_charges()
            totals = timing.stages.setdefault(span.name, StageTotals())
            totals.total += span.duration
            totals.kdtree_search += charges.get("kdtree_search", 0.0)
            totals.kdtree_construction += charges.get("kdtree_construction", 0.0)
            totals.calls += 1
        return timing

    # ------------------------------------------------------------------
    # Aggregations used by the Fig. 4 benches
    # ------------------------------------------------------------------

    @property
    def total(self) -> float:
        return sum(t.total for t in self.stages.values())

    @property
    def total_kdtree_search(self) -> float:
        return sum(t.kdtree_search for t in self.stages.values())

    @property
    def total_kdtree_construction(self) -> float:
        return sum(t.kdtree_construction for t in self.stages.values())

    def stage_fractions(self) -> dict[str, float]:
        """Fraction of total time per stage (Fig. 4a rows)."""
        total = self.total
        if total == 0:
            return {name: 0.0 for name in self.stages}
        return {name: t.total / total for name, t in self.stages.items()}

    def kdtree_fractions(self) -> dict[str, float]:
        """Fractions for Fig. 4b: search / construction / other."""
        total = self.total
        if total == 0:
            return {"search": 0.0, "construction": 0.0, "other": 0.0}
        search = self.total_kdtree_search
        construction = self.total_kdtree_construction
        return {
            "search": search / total,
            "construction": construction / total,
            "other": max(0.0, total - search - construction) / total,
        }

    def merge(self, other: "StageTiming", stages: tuple | None = None) -> None:
        """Fold another table's stages into this one.

        ``stages`` restricts the fold to the named stages — used when a
        consumer only accounts part of a shared profile (e.g. the DSE
        explorer attributing cached preprocess work to configurations
        that skipped the feature stages).
        """
        for name, timing in other.stages.items():
            if stages is not None and name not in stages:
                continue
            mine = self.stages.setdefault(name, StageTotals())
            mine.total += timing.total
            mine.kdtree_search += timing.kdtree_search
            mine.kdtree_construction += timing.kdtree_construction
            mine.calls += timing.calls

    def report(
        self, extended: bool = False, search_stats=None, odometry_stats=None
    ) -> str:
        """Human-readable table of stage timings.

        With ``extended``, adds the non-KD-tree remainder (``other`` —
        the stage's aggregation kernels) and each stage's share of the
        total, the view ``examples/quickstart.py --profile`` prints.
        Passing a :class:`~repro.kdtree.stats.SearchStats` as
        ``search_stats`` (extended mode only) appends a counters line
        showing how the run's radius queries were delivered:
        CSR-natively (``csr``), from the nested-radius reuse cache
        (``reused``/``cache hits``), or total.  Passing an
        :class:`~repro.registration.odometry.OdometryStats` as
        ``odometry_stats`` (extended mode only) appends the run's
        health line — non-converged ICP pairs and any recovery-ladder
        activity.
        """
        header = f"{'stage':<28}{'total(s)':>10}{'kd-search':>11}{'kd-build':>10}"
        if extended:
            header += f"{'other':>10}{'share':>8}"
        lines = [header]
        total = self.total
        for name, timing in sorted(
            self.stages.items(), key=lambda kv: -kv[1].total
        ):
            row = (
                f"{name:<28}{timing.total:>10.4f}"
                f"{timing.kdtree_search:>11.4f}{timing.kdtree_construction:>10.4f}"
            )
            if extended:
                share = timing.total / total if total > 0 else 0.0
                row += f"{timing.other:>10.4f}{100 * share:>7.1f}%"
            lines.append(row)
        footer = (
            f"{'TOTAL':<28}{self.total:>10.4f}"
            f"{self.total_kdtree_search:>11.4f}{self.total_kdtree_construction:>10.4f}"
        )
        if extended:
            other = max(
                0.0,
                total - self.total_kdtree_search - self.total_kdtree_construction,
            )
            footer += f"{other:>10.4f}{(100.0 if total > 0 else 0.0):>7.1f}%"
        lines.append(footer)
        if extended and search_stats is not None:
            lines.append(
                f"queries: {search_stats.queries} "
                f"(csr {search_stats.csr_results}, "
                f"reused {search_stats.reused_queries}, "
                f"cache hits {search_stats.cache_hits})"
            )
        if extended and odometry_stats is not None:
            lines.append(f"health: {odometry_stats.summary()}")
        return "\n".join(lines)


@contextmanager
def record_stages(tracer=None):
    """Record one step and roll up its stage table: yields ``(tracer, timing)``.

    The step records into ``tracer`` when it is an enabled
    :class:`~repro.telemetry.Tracer`, and into a short-lived
    ``Tracer()`` otherwise (``None`` or the null tracer), so only the
    table outlives an untraced step.  On exit ``timing`` holds the
    rollup of exactly the spans the step opened, never its caller's.
    """
    if tracer is None or not tracer.enabled:
        tracer = Tracer()
    parent = tracer.current
    siblings = parent.children if parent is not None else tracer.roots
    first = len(siblings)
    timing = StageTiming()
    yield tracer, timing
    timing.merge(StageTiming.of(siblings[first:]))
