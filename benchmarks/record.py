"""Shared result/trace writing for the benchmark scripts.

Every standalone bench records its headline numbers as a
``benchmarks/BENCH_*.json`` file — a payload of measured quantities
plus an ``acceptance`` block with the criterion and whether this run
met it.  :func:`write_bench` is the single writer for those files, so
the on-disk format (two-space indent, trailing newline) is defined in
exactly one place and a future schema change touches one function, not
seven scripts.

Benches that support ``--trace out.json`` share the flag definition
(:func:`add_trace_argument`) and the export call
(:func:`write_trace_file`), which dispatches through
:func:`repro.telemetry.write_trace`: a ``.jsonl`` path gets the flat
run record, anything else the Chrome trace-event JSON (Perfetto /
``chrome://tracing`` loadable).  See ``benchmarks/README.md`` for both
schemas.

The benches run as scripts (``PYTHONPATH=src python
benchmarks/bench_x.py``), so they import this module as plain
``import record`` via the script directory.
"""

from __future__ import annotations

import json

__all__ = ["write_bench", "add_trace_argument", "write_trace_file"]


def write_bench(path: str, payload: dict) -> str:
    """Write a BENCH_*.json payload in the canonical on-disk format."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    return path


def add_trace_argument(parser) -> None:
    """Add the shared ``--trace PATH`` option to a bench's CLI."""
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "write a telemetry trace of the run: Chrome trace-event "
            "JSON (Perfetto-loadable), or the flat JSONL run record "
            "if PATH ends in .jsonl"
        ),
    )


def write_trace_file(tracer, path: str, meta: dict | None = None) -> None:
    """Export a tracer through the extension-dispatching trace writer."""
    from repro.telemetry import write_trace

    write_trace(tracer, path, meta=meta)
    print(f"wrote trace {path}")
