"""Run one perfbench workload and print its metrics.

    python3 perfbench/run.py --workload mapping_loop --seed 0 --seconds 35 --trace 0

From the repository root.  One run sets the workload up several
times, makes closed-loop passes with tracing off for about ``--seconds``
and at least ``MIN_PASSES`` of them, then reports the end-to-end
metrics from each request's fastest latency over the passes, scaled to
the gauge's nominal host speed.  With ``--trace 1`` it instead makes
``TRACE_ROUNDS`` rounds of one untraced and one traced pass and reports
the per-layer metrics of the last traced pass, whose spans go to
``perfbench/out/<workload>-seed<n>.jsonl``.  Every pass's outputs are
checked; the last line printed is one JSON object, and a failed check
prints ``"correct": false`` with no metrics and exits 1.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools must be sized before NumPy loads: OpenBLAS here is
# built for 64 threads, more than the CPUs a run can count on.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np
import scipy

import layers
from gauge import NOMINAL_S, Gauge
from tracing import FAILED, OK, REJECTED, Recorder, request_summary, scaled_median
from workloads import WORKLOADS

SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
SETUP_REFERENCES = 3
MIN_PASSES = 3
TRACE_ROUNDS = 3
END_TO_END_UNITS = {
    "setup_s": "s",
    "frames_per_s": "1/s",
    "frame_latency_p50_ms": "ms",
    "frame_latency_tail_ms": "ms",
    "frame_accept_ratio": "ratio",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(setup_s, summary, queries_per_pass, rss) -> dict:
    """The end-to-end metrics from the untraced passes' ``summary``, with
    every time scaled to the gauge's nominal host speed."""
    return {
        "setup_s": setup_s,
        "frames_per_s": summary["goodput_per_s"],
        "frame_latency_p50_ms": 1e3 * summary["p50_s"],
        "frame_latency_tail_ms": 1e3 * summary["tail_s"],
        "frame_accept_ratio": summary["accept_ratio"],
        "queries_per_s": queries_per_pass / summary["pass_s"],
        "peak_rss_mb": rss,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    workload = WORKLOADS[workload_name]
    errors: list[str] = []

    # The first build pays for imports and lazy set-up inside the
    # program, which no later build repeats; it is not timed.
    # Each timed build is followed by the gauge's reference, fastest of
    # SETUP_REFERENCES, to scale it to the nominal host speed.
    inputs = workload.setup(seed)
    setup_times, setup_references = [], []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        start = time.perf_counter()
        inputs = workload.setup(seed)
        setup_times.append(time.perf_counter() - start)
        gauge = Gauge()
        for _ in range(SETUP_REFERENCES):
            gauge.sample()
        setup_references.append(min(gauge.samples))

    oracle = layers.NNOracle()
    observer = layers.Observer(oracle)
    observing = layers.observe(observer)
    passes, gauges, queries, traced_passes = [], [], [], []
    try:
        started = time.perf_counter()

        def measured_enough() -> bool:
            if trace:
                return len(passes) >= TRACE_ROUNDS
            # Start another pass only if it is likely to end in time.
            expected_end = time.perf_counter() - started + 0.5 * passes[-1].wall_s
            return len(passes) >= MIN_PASSES and expected_end >= seconds

        while not passes or not measured_enough():
            observer.queries = 0
            gauges.append(Gauge())
            result = workload.run(inputs, gauge=gauges[-1])
            passes.append(result)
            queries.append(result.host_queries or observer.queries)
            if trace:
                # Untraced and traced passes alternate, so host drift
                # reaches both sides of the tracing overhead alike.
                recorder, ledger = Recorder(), layers.SearchLedger()
                patches = layers.instrument(recorder, ledger)
                try:
                    traced_passes.append((workload.run(inputs, recorder), recorder, ledger))
                finally:
                    patches.undo()
        rss = peak_rss_mb()
    finally:
        observing.undo()

    checked_passes = [(f"pass {i}", p) for i, p in enumerate(passes)] + [
        (f"traced pass {i}", p) for i, (p, _, _) in enumerate(traced_passes)
    ]
    for label, result in checked_passes:
        errors += [f"{label}: {e}" for e in result.errors]
        if result.fingerprint != passes[0].fingerprint:
            errors.append(f"{label}: output differs from pass 0")
    for index, result in enumerate(passes):
        if result.outcomes != passes[0].outcomes:
            errors.append(f"pass {index}: request outcomes differ from pass 0")
    if len(set(queries)) > 1:
        errors.append(f"searcher queries per pass differ: {queries}")
    checked, wrong = oracle.mismatches()
    if checked == 0 or wrong:
        errors.append(f"nearest-neighbour oracle: {wrong} of {checked} answers differ")

    outcomes = [x for p in passes for x in p.outcomes]
    walls = [p.wall_s for p in passes]
    if trace:
        for index, (result, recorder, ledger) in enumerate(traced_passes):
            errors += [
                f"traced pass {index}: {e}"
                for e in layers.coverage_errors(
                    recorder.spans, result.wall_s, result.counters, ledger.totals()
                )
            ]
        traced, recorder, ledger = traced_passes[-1]
        units = layers.metric_units()
        values = layers.layer_metrics(
            recorder.spans, traced.wall_s, traced.outputs, ledger.totals()
        )
        values["trace.overhead_ratio"] = statistics.median(
            p.wall_s for p, _, _ in traced_passes
        ) / statistics.median(walls)
    else:
        units = END_TO_END_UNITS
        if not errors:
            summary = request_summary(
                [(p.latencies, p.outcomes, p.wall_s, g.samples) for p, g in zip(passes, gauges)],
                NOMINAL_S,
            )
            setup_s = scaled_median(setup_times, setup_references, NOMINAL_S)
            values = end_to_end_metrics(setup_s, summary, queries[0], rss)

    env = environment()
    if trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        recorder.write_jsonl(
            str(out / f"{workload_name}-seed{seed}.jsonl"),
            {"workload": workload_name, "seed": seed, "env": env, "wall_s": traced.wall_s},
        )
    print(json.dumps({"env": env, "inputs": workload.inputs(seed)}))
    print(
        f"{workload_name} seed {seed}: {len(passes)} untraced passes, "
        f"{len(outcomes)} requests ({outcomes.count(OK)} accepted, "
        f"{outcomes.count(REJECTED)} rejected, {outcomes.count(FAILED)} failed), "
        f"timed requests per pass {sum(o != REJECTED for o in passes[0].outcomes)}; pass walls "
        + ", ".join(f"{w:.3f}" for w in walls)
        + (
            "; traced " + ", ".join(f"{p.wall_s:.3f}" for p, _, _ in traced_passes)
            if trace
            else ""
        )
        + f" s; oracle checked {checked} NN answers; "
        + (
            f"host slowness {summary['host_slowness']:.4f} (raw time = reported x slowness); "
            if not trace and not errors
            else ""
        )
        + "outputs "
        + json.dumps({k: v for k, v in passes[0].outputs.items() if not k.startswith("n_")})
    )
    result = {
        "correct": not errors,
        "attempted": len(outcomes),
        "failed": outcomes.count(FAILED),
        "metrics": {},
    }
    if not errors:
        result["metrics"] = {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        }
    return result, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    result, errors = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
