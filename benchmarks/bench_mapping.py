"""Open-loop vs loop-closed mapping on the urban_loop circuit.

Runs the same registration pipeline over the ``urban_loop`` suite
sequence (two laps around a synthetic intersection) through three
drivers:

``open-loop``
    :func:`~repro.registration.run_streaming_odometry` — chained
    pairwise registrations, drift accumulates unbounded.
``mapper (no loop closure)``
    :class:`~repro.mapping.StreamingMapper` with closure disabled —
    measures the subsystem's bookkeeping overhead (keyframes + voxel
    map) over bare streaming odometry; its trajectory must be
    bit-identical to the open-loop driver's.
``mapper``
    The full SLAM engine: keyframes, pose-proximity loop closure,
    SE(3) pose-graph optimization, re-anchored voxel map.

The headline numbers are the absolute trajectory errors (ATE) and the
drift-reduction ratio; the acceptance bar is a mapped ATE at most 0.5x
the open-loop ATE with at least one verified closure.

Run standalone to (re)record the baseline:

    PYTHONPATH=src python benchmarks/bench_mapping.py \
        [--frames 48] [--out benchmarks/BENCH_mapping.json]

``--smoke`` runs the assertions without writing the JSON (the fast CI
sanity pass).  ``--check-floors PATH`` additionally guards against
perf/accuracy regressions relative to the recorded baseline: loop
closures and mapped ATE must match the stored run (the scenario is
deterministic), and the re-anchor / optimizer shares of mapper wall
time — within-run ratios, so portable across machines — may not
exceed their recorded shares by more than 50%.  Future PRs cannot
silently give back the PR-7 solver or PR-8 re-anchor wins.

``--trace PATH`` additionally records the full-mapper run through the
telemetry layer (frame -> pair -> stage spans, loop closure, pose-graph
solves) and writes a Chrome trace (or JSONL run record for ``.jsonl``
paths) for ``tools/check_trace.py`` to validate.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np
from record import add_trace_argument, write_bench, write_trace_file

from repro.geometry import metrics
from repro.io import SceneSuite, default_test_model
from repro.mapping import (
    StreamingMapper,
    urban_loop_mapper_config,
    urban_loop_pipeline,
)
from repro.registration import run_streaming_odometry
from repro.telemetry import Tracer

# The reference configuration lives in repro.mapping.presets so the
# example, the golden regression scenario, the acceptance tests, and
# this bench measure the same system.
ACCEPTANCE_RATIO = 0.5
# Regression-guard slack: a guarded timing ratio may drift 50% off its
# recorded baseline before the guard fails.  The protected wins carry
# 3-10x margins (re-anchor 1.29s -> 0.44s, solver 5.83s -> 0.6s), so a
# 1.5x ceiling still catches any real regression, while the share
# ratios' run-to-run noise (~1.3x observed on a loaded host) cannot
# flake CI.
FLOOR_SLACK = 1.5


def run_mapper(sequence, enable_loop_closure: bool, tracer=None):
    mapper = StreamingMapper(
        urban_loop_pipeline(),
        urban_loop_mapper_config(enable_loop_closure=enable_loop_closure),
        tracer=tracer,
    )
    start = time.perf_counter()
    for frame in sequence.frames:
        mapper.push(frame)
    return mapper, time.perf_counter() - start


def bench(frames: int, tracer=None) -> dict:
    suite = SceneSuite.default(n_frames=frames, model=default_test_model())
    sequence = suite.sequence("urban_loop")

    start = time.perf_counter()
    open_loop = run_streaming_odometry(sequence, urban_loop_pipeline())
    open_seconds = time.perf_counter() - start
    ate_open = metrics.absolute_trajectory_error(
        open_loop.trajectory, sequence.poses
    )

    mapper, mapper_seconds = run_mapper(
        sequence, enable_loop_closure=True, tracer=tracer
    )
    ate_mapped = metrics.absolute_trajectory_error(
        mapper.trajectory(), sequence.poses
    )

    passthrough, passthrough_seconds = run_mapper(
        sequence, enable_loop_closure=False
    )
    identical = all(
        np.array_equal(ours, reference)
        for ours, reference in zip(
            passthrough.trajectory(), open_loop.trajectory
        )
    )
    if not identical:
        raise AssertionError(
            "mapper without loop closure diverged from streaming odometry"
        )

    stats = mapper.stats
    ratio = ate_mapped / ate_open
    result = {
        "scene": "urban_loop (2 laps, radius 5 m, intersection seed 11)",
        "n_frames": len(sequence),
        "points_per_frame": int(
            np.mean([len(frame) for frame in sequence.frames])
        ),
        "ate_open_loop_m": round(ate_open, 4),
        "ate_mapped_m": round(ate_mapped, 4),
        "ate_ratio": round(ratio, 4),
        "n_keyframes": stats.n_keyframes,
        "n_loop_closures": stats.n_loop_closures,
        "n_optimizations": stats.n_optimizations,
        "map_voxels": stats.n_map_voxels,
        "map_points": stats.n_map_points,
        "open_loop_s": round(open_seconds, 2),
        "mapper_s": round(mapper_seconds, 2),
        "mapper_no_closure_s": round(passthrough_seconds, 2),
        # How much the mapping layers cost on top of bare odometry.
        "bookkeeping_overhead": round(passthrough_seconds / open_seconds, 3),
        "full_mapper_overhead": round(mapper_seconds / open_seconds, 3),
        "loop_closure_s": round(stats.loop_seconds, 2),
        # Solver time only; map re-binning after each solve is its own
        # line so back-end speedups are attributed honestly.
        "optimize_s": round(stats.optimize_seconds, 2),
        "reanchor_s": round(stats.reanchor_seconds, 2),
        "no_closure_trajectory_bit_identical": identical,
        "acceptance": {
            "criterion": (
                f"mapped ATE <= {ACCEPTANCE_RATIO}x open-loop ATE with >= 1 "
                "verified loop closure; closure-disabled trajectory "
                "bit-identical to streaming odometry"
            ),
            "met": bool(
                ratio <= ACCEPTANCE_RATIO
                and stats.n_loop_closures >= 1
                and identical
            ),
        },
    }
    print(
        f"urban_loop x {len(sequence)} frames: open ATE {ate_open:.3f} m "
        f"({open_seconds:.1f}s) -> mapped {ate_mapped:.3f} m "
        f"({mapper_seconds:.1f}s), ratio {ratio:.2f}x, "
        f"{stats.n_loop_closures} closures over {stats.n_keyframes} keyframes"
    )
    return result


def check_floors(result: dict, stored_path: str) -> list[str]:
    """Regression guard against the recorded baseline run.

    Accuracy quantities are deterministic (fixed seeds), so they must
    *match* the baseline; timing quantities are guarded as shares of
    the same run's mapper wall time — within-run ratios transfer
    across machines where absolute seconds do not.
    """
    with open(stored_path, encoding="utf-8") as f:
        stored = json.load(f)
    failures = []
    if result["n_loop_closures"] != stored["n_loop_closures"]:
        failures.append(
            f"loop closures changed: {result['n_loop_closures']} "
            f"vs recorded {stored['n_loop_closures']}"
        )
    if not np.isclose(result["ate_mapped_m"], stored["ate_mapped_m"], rtol=0.01):
        failures.append(
            f"mapped ATE drifted: {result['ate_mapped_m']} m "
            f"vs recorded {stored['ate_mapped_m']} m"
        )
    for key in ("reanchor_s", "optimize_s"):
        share = result[key] / result["mapper_s"]
        recorded = stored[key] / stored["mapper_s"]
        if share > recorded * FLOOR_SLACK:
            failures.append(
                f"{key} share of mapper time regressed: {share:.3f} "
                f"vs recorded {recorded:.3f} (+50% ceiling "
                f"{recorded * FLOOR_SLACK:.3f})"
            )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=48,
                        help="circuit length (2 laps; keep ~24 frames/lap)")
    parser.add_argument("--out", default="benchmarks/BENCH_mapping.json")
    parser.add_argument("--smoke", action="store_true",
                        help="assert acceptance without rewriting the JSON")
    parser.add_argument(
        "--check-floors",
        metavar="PATH",
        help="fail on >50%% regression against this recorded BENCH JSON",
    )
    add_trace_argument(parser)
    args = parser.parse_args()

    tracer = Tracer() if args.trace else None
    result = bench(args.frames, tracer=tracer)
    met = result["acceptance"]["met"]
    if args.trace:
        write_trace_file(
            tracer,
            args.trace,
            meta={"bench": "mapping", "frames": args.frames},
        )
    if args.check_floors:
        failures = check_floors(result, args.check_floors)
        for failure in failures:
            print(f"FLOOR REGRESSION: {failure}")
        if failures:
            return 1
        print(f"floors OK against {args.check_floors}")
    if args.smoke:
        print(f"smoke OK: acceptance met: {met}")
        return 0 if met else 1

    write_bench(args.out, result)
    print(f"wrote {args.out}; acceptance met: {met}")
    return 0 if met else 1


if __name__ == "__main__":
    raise SystemExit(main())
