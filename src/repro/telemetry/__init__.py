"""Unified telemetry: hierarchical spans, counters, trace exporters.

The observability layer behind the paper's measurement story (Fig. 4
stage breakdown, Fig. 6 search-work counts): a :class:`Tracer` records
nested :class:`Span` trees with attached counter deltas and
cross-cutting KD-tree time charges, a :class:`CounterRegistry` keeps
run totals, and :mod:`repro.telemetry.export` serializes the result as
Chrome trace-event JSON (Perfetto-loadable) or a flat JSONL run
record.

The stage table of the Fig. 4 analysis is a view of the same trace:
pipeline stages open ``category="stage"`` spans via
:meth:`Tracer.stage`, KD-tree search and build time is charged to the
innermost open span, and :class:`StageTiming` rolls those spans up
(``total``, ``stage_fractions()``, ``kdtree_fractions()``,
``report()``).  The surrounding layers (pipeline, streaming odometry,
SLAM mapper, DSE explorer) contribute the structural spans above and
below.  Layers handed no tracer hit :data:`NULL_TRACER` no-ops; steps
that report a stage table record into a short-lived tracer
(:func:`record_stages`) and keep only the table.
"""

from repro.telemetry.counters import CounterRegistry
from repro.telemetry.export import (
    JSONL_SCHEMA,
    chrome_trace_events,
    write_chrome_trace,
    write_jsonl,
    write_trace,
)
from repro.telemetry.stages import StageTiming, StageTotals, record_stages
from repro.telemetry.tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "CounterRegistry",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "StageTiming",
    "StageTotals",
    "record_stages",
    "JSONL_SCHEMA",
    "chrome_trace_events",
    "write_chrome_trace",
    "write_jsonl",
    "write_trace",
]
