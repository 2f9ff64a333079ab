"""Quickstart: register two synthetic LiDAR frames.

Generates a short synthetic drive (the library's stand-in for a KITTI
sequence), registers consecutive frames with the default pipeline, and
prints the estimated transform against ground truth — the minimal
end-to-end use of the public API.

Run:  python examples/quickstart.py [--profile] [--search-backend gridhash]
                                    [--trace out.json]

``--profile`` prints the extended per-stage timing breakdown (total /
KD-tree search / KD-tree build / aggregation / share), so you can see
where registration time goes without running the figure benches.
``--search-backend`` swaps the neighbor-search backend (see README
"Neighbor-search backends") so the same table shows search vs kernel
time per backend — e.g. ``gridhash`` trades tree traversal for flat
27-cell voxel probes.
``--trace out.json`` records the run through the telemetry layer and
writes a Chrome trace (load it in Perfetto / ``chrome://tracing``;
use a ``.jsonl`` path for the flat run record instead) — see README
"Observability & tracing".
"""

import argparse

from repro.core.gridhash import GridHashConfig
from repro.geometry import metrics
from repro.io import make_sequence
from repro.registration import (
    ICPConfig,
    KeypointConfig,
    Pipeline,
    PipelineConfig,
    RPCEConfig,
    SearchConfig,
)
from repro.registration.search import _BACKENDS
from repro.telemetry import Tracer, write_trace


def main(
    profile: bool = False,
    search_backend: str = "twostage",
    gridhash_cell: float = 1.0,
    trace: str | None = None,
):
    # 1. Data: two consecutive frames of a synthetic urban drive, with
    # exact ground truth for the relative motion.
    sequence = make_sequence(n_frames=2, seed=42, step=1.0)
    source, target, ground_truth = sequence.pair(0)
    print(f"source frame: {source}")
    print(f"target frame: {target}")
    print(f"ground-truth translation: {ground_truth[:3, 3].round(3)}")

    # 2. Pipeline: initial estimation from uniform keypoints + FPFH, then
    # point-to-plane ICP fine-tuning (paper Fig. 2's two phases).
    config = PipelineConfig(
        keypoints=KeypointConfig(method="uniform", params={"voxel_size": 3.0}),
        icp=ICPConfig(
            rpce=RPCEConfig(max_distance=2.0),
            error_metric="point_to_plane",
            max_iterations=25,
        ),
        search=SearchConfig(
            backend=search_backend,
            gridhash=GridHashConfig(cell_size=gridhash_cell),
        ),
    )
    pipeline = Pipeline(config)
    print(f"search backend: {search_backend}")

    # 3. Register, with per-stage timing (paper Fig. 4's view).
    # ``register`` runs two phases: ``preprocess`` runs the per-frame
    # stages once per frame into an immutable FrameState, and ``match``
    # runs the pairwise stages.  Sequence drivers reuse a FrameState
    # across consecutive pairs (see examples/odometry.py).  The tracer
    # records every stage as a span; ``result.profiler`` is the stage
    # table rolled up from them.
    tracer = Tracer() if trace else None
    result = pipeline.register(source, target, tracer=tracer)
    timing = result.profiler

    print(f"\nestimated translation:    {result.transformation[:3, 3].round(3)}")
    rot_err, trans_err = metrics.pair_errors(result.transformation, ground_truth)
    print(f"rotation error:  {rot_err:.3f} deg")
    print(f"translation error: {trans_err:.3f} m")
    print(f"ICP: {result.icp}")

    print("\nper-stage timing (KD-tree search dominates — paper Fig. 4):")
    print(
        timing.report(
            extended=profile,
            search_stats=result.total_search_stats if profile else None,
        )
    )
    fractions = timing.kdtree_fractions()
    print(
        f"\nKD-tree search share of runtime: {100 * fractions['search']:.1f}% "
        f"(construction {100 * fractions['construction']:.1f}%)"
    )

    print()
    print(result.summary())
    if trace:
        write_trace(tracer, trace)
        print(f"wrote trace {trace}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the extended per-stage breakdown (adds aggregation + share)",
    )
    parser.add_argument(
        "--search-backend",
        choices=_BACKENDS,
        default="twostage",
        help="neighbor-search backend for every pipeline stage",
    )
    parser.add_argument(
        "--gridhash-cell",
        type=float,
        default=1.0,
        help="gridhash voxel cell size (exact for radii <= cell size)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a Chrome trace (or .jsonl run record) of the run",
    )
    args = parser.parse_args()
    raise SystemExit(
        main(
            profile=args.profile,
            search_backend=args.search_backend,
            gridhash_cell=args.gridhash_cell,
            trace=args.trace,
        )
    )
