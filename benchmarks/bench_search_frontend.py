"""The neighbor-search front end: per-backend timings and reuse wins.

PR 5 left batched neighbor *search* as the front end's critical path
(ROADMAP item 1, BENCH_frontend.json).  This bench records what the
search-layer rebuild buys, in three views:

* **search_only** — build + batched radius/nn throughput of every
  backend on the 53k-point bench frame's front-end cloud, including
  the canonical tree's pre-rebuild sequential (per-query Python loop)
  batch path next to its level-synchronous frontier sweep.  Radius at
  the feature radius is timed twice: the legacy list delivery
  (``radius_batch`` — fill plus per-query slicing) and the CSR-native
  delivery (``radius_batch_csr`` — fill only), with the CSR result
  asserted bit-identical to the list path before timing.
* **frontend** — the live ``Pipeline.preprocess`` front end (voxel
  downsample + normals + Harris + FPFH, the search-heavy stage set)
  per backend, with nested-radius reuse on versus forced off (the
  post-PR-5 behavior: every stage searches fresh).  The headline
  acceptance compares the canonical tree — the paper's baseline
  structure and ROADMAP's named bottleneck — before the rebuild
  (sequential batch traversal, fresh per-stage searches) and after
  (frontier sweep, one inflated search serving the nested stages).
* **streaming** — steady-state per-pair odometry cost with reuse on
  vs off: BENCH_frontend.json's small-frame workload (uniform and
  Harris keypoints; per-pair cost there is RPCE/ICP-bound, so the
  reuse saving sits inside the noise floor — recorded for
  continuity) and a dense-frame Harris workload where preprocess
  dominates and the saving is measurable.  Baselines are
  re-measured in the same run: stored absolute numbers (e.g.
  BENCH_frontend's 0.19 s/pair) do not transfer across machine
  states.

All "before" paths are produced by pinning the still-shipping code
paths (``sequential=True`` batch traversal, reuse plan forced off), so
both sides run in one process on identical inputs, and every exact
variant is asserted bit-identical before timing.

Acceptance: canonical-tree front end (search+aggregation) >= 3x over
its post-PR-5 path on the 53k-point bench frame; twostage CSR-native
radius@1.0 >= 1.2x over the recorded pre-CSR fill+convert baseline
and twostage front end <= 1.25 s (both against this bench's PR-6
numbers on the same frame); dense-frame streaming per-pair cost with
reuse within 5% of fresh or better (the reuse margin there sits
inside run noise now that fresh searches are CSR-delivered too — the
preprocess rows carry the measurable reuse win).

Run standalone to (re)record the baseline:

    PYTHONPATH=src python benchmarks/bench_search_frontend.py \
        [--out benchmarks/BENCH_search.json]

``--smoke`` runs a small-cloud parity + timing pass (the fast CI job
wires this in next to the DSE/mapping/frontend smokes).
``--check-floors PATH`` additionally guards the structural speedups —
the canonical frontier-sweep win and the twostage CSR-delivery win,
both within-run ratios and therefore machine-portable — against the
recorded ``BENCH_search.json``, failing on a >50% regression so
future PRs cannot silently give the wins back (the guarded wins carry
1.5-19x margins, so the wide slack still catches any real regression
while staying above run-to-run ratio noise).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import time

import numpy as np
from record import add_trace_argument, write_bench, write_trace_file

from repro.core.gridhash import GridHashConfig
from repro.core.ragged import RaggedNeighborhoods
from repro.io import make_sequence
from repro.io.dataset import default_test_model
from repro.io.synthetic import LidarModel
from repro.kdtree import KDTree
from repro.registration import (
    DescriptorConfig,
    ICPConfig,
    KeypointConfig,
    Pipeline,
    PipelineConfig,
    RPCEConfig,
    SearchConfig,
    build_searcher,
)
from repro.registration.odometry import run_streaming_odometry
from repro.telemetry import Tracer

ACCEPT_CANONICAL_SPEEDUP = 3.0
ACCEPT_CSR_SPEEDUP = 1.2
ACCEPT_TWOSTAGE_FRONTEND_S = 1.25
# Recorded pre-CSR (PR 6) twostage baselines from this bench's own
# JSON on the reference machine.  The CSR acceptance is measured
# against them: the paths they timed — per-leaf-hit Python list
# appends inside the traversal and a per-query concatenate/argsort/
# sqrt delivery loop — were removed by the CSR-native rebuild, so
# they cannot be re-measured in-process the way the canonical
# sequential loop can.
PR6_TWOSTAGE_RADIUS10_S = 0.7607
PR6_TWOSTAGE_FRONTEND_S = 1.481
# Regression-guard slack: a guarded speedup may lose 50% relative to
# its recorded baseline before the guard fails — above observed
# run-to-run ratio noise (~1.3x on a loaded host), far below the
# wins' margins.
FLOOR_SLACK = 1.5
NORMAL_RADIUS = 0.5
FEATURE_RADIUS = 1.0
# Same operating point as BENCH_frontend.json: dense frames enter the
# front end through a 0.2 m voxel downsample (~20k of the 53k points).
FRONTEND_VOXEL = 0.2
BACKENDS = ("canonical", "twostage", "approximate", "bruteforce", "gridhash")
RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def timed(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


@contextlib.contextmanager
def reuse_disabled():
    """Pin the post-PR-5 plan: every stage searches fresh."""
    import repro.registration.pipeline as pipeline_mod

    saved = pipeline_mod._planned_reuse_radius
    pipeline_mod._planned_reuse_radius = lambda config: None
    try:
        yield
    finally:
        pipeline_mod._planned_reuse_radius = saved


@contextlib.contextmanager
def canonical_sequential_patched():
    """Pin the canonical tree's pre-rebuild batch path (per-query loop).

    The CSR entry point is pinned too — to the sequential list loop
    plus a ``from_lists`` repack, the exact shape of the pre-rebuild
    data path — so the consumers' ``radius_batch_csr`` calls also hit
    the baseline schedule.
    """
    saved = (
        KDTree.nn_batch,
        KDTree.knn_batch,
        KDTree.radius_batch,
        KDTree.radius_batch_csr,
    )

    def nn_batch(self, queries, stats=None, sequential=False):
        return saved[0](self, queries, stats, sequential=True)

    def knn_batch(self, queries, k, stats=None, sequential=False):
        return saved[1](self, queries, k, stats, sequential=True)

    def radius_batch(self, queries, r, stats=None, sort=False, sequential=False):
        return saved[2](self, queries, r, stats, sort=sort, sequential=True)

    def radius_batch_csr(self, queries, r, stats=None, sort=False):
        return RaggedNeighborhoods.from_lists(
            *saved[2](self, queries, r, stats, sort=sort, sequential=True)
        )

    KDTree.nn_batch = nn_batch
    KDTree.knn_batch = knn_batch
    KDTree.radius_batch = radius_batch
    KDTree.radius_batch_csr = radius_batch_csr
    try:
        yield
    finally:
        (
            KDTree.nn_batch,
            KDTree.knn_batch,
            KDTree.radius_batch,
            KDTree.radius_batch_csr,
        ) = saved


# ----------------------------------------------------------------------
# Search-only per-backend table.
# ----------------------------------------------------------------------


def bench_search_only(points: np.ndarray, repeats: int) -> dict:
    rng = np.random.default_rng(0)
    nn_queries = points + rng.normal(scale=0.05, size=points.shape)
    rows: dict[str, dict] = {}

    def record(name, build_fn, searcher_of, seq_repeats=None, csr=True, exact=True):
        start = time.perf_counter()
        index = build_fn()
        build_s = time.perf_counter() - start
        searcher = searcher_of(index)
        reps = seq_repeats or repeats
        row = {
            "build_s": round(build_s, 4),
            "radius05_s": round(
                timed(lambda: searcher.radius_batch(points, NORMAL_RADIUS), reps), 4
            ),
            "radius10_s": round(
                timed(lambda: searcher.radius_batch(points, FEATURE_RADIUS), reps), 4
            ),
            "nn_s": round(timed(lambda: searcher.nn_batch(nn_queries), reps), 4),
        }
        if csr:
            if exact:
                # The zero-copy contract: CSR delivery must be
                # bit-identical to the list delivery it replaces.
                ref = RaggedNeighborhoods.from_lists(
                    *searcher.radius_batch(points, FEATURE_RADIUS)
                )
                got = searcher.radius_batch_csr(points, FEATURE_RADIUS)
                assert np.array_equal(got.indices, ref.indices), name
                assert np.array_equal(got.offsets, ref.offsets), name
                assert np.array_equal(got.distances, ref.distances), name
            row["radius10_csr_s"] = round(
                timed(
                    lambda: searcher.radius_batch_csr(points, FEATURE_RADIUS), reps
                ),
                4,
            )
            row["csr_speedup"] = round(row["radius10_s"] / row["radius10_csr_s"], 2)
        rows[name] = row

    class _Sequential:
        """The canonical tree's pre-rebuild batch entry points."""

        def __init__(self, tree):
            self._tree = tree

        def radius_batch(self, queries, r):
            return self._tree.radius_batch(queries, r, sequential=True)

        def nn_batch(self, queries):
            return self._tree.nn_batch(queries, sequential=True)

    for backend in BACKENDS:
        record(
            backend,
            lambda b=backend: build_searcher(points, SearchConfig(backend=b)),
            lambda s: s,
            # The approximate backend's leader state is order-dependent,
            # so cross-path bit-parity is not part of its contract.
            exact=(backend != "approximate"),
        )
    # The pre-rebuild canonical batch path, one repeat (it is the slow
    # baseline this PR removes; minutes-scale at higher repeat counts).
    record(
        "canonical-sequential",
        lambda: KDTree(points),
        _Sequential,
        seq_repeats=1,
        csr=False,
    )
    return rows


# ----------------------------------------------------------------------
# Front end: Pipeline.preprocess per backend, reuse on vs off.
# ----------------------------------------------------------------------


def frontend_pipeline(backend: str) -> Pipeline:
    return Pipeline(
        PipelineConfig(
            keypoints=KeypointConfig(
                method="harris", params={"radius": FEATURE_RADIUS}, min_keypoints=8
            ),
            descriptor=DescriptorConfig(method="fpfh", radius=FEATURE_RADIUS),
            icp=ICPConfig(rpce=RPCEConfig(max_distance=2.0), max_iterations=15),
            voxel_downsample=FRONTEND_VOXEL,
            search=SearchConfig(
                backend=backend, gridhash=GridHashConfig(cell_size=FEATURE_RADIUS)
            ),
        )
    )


def bench_frontend(cloud, repeats: int, include_sequential: bool) -> dict:
    def preprocess(backend):
        return frontend_pipeline(backend).preprocess(cloud, with_features=True)

    def check(state, reference, label):
        assert np.array_equal(
            state.cloud.get_attribute("normals"),
            reference.cloud.get_attribute("normals"),
        ), f"{label}: normals diverged"
        assert np.array_equal(state.keypoints, reference.keypoints), (
            f"{label}: keypoints diverged"
        )
        assert np.array_equal(state.descriptors, reference.descriptors), (
            f"{label}: descriptors diverged"
        )

    variants: dict[str, float] = {}
    canonical_fresh_state = None
    # Bit-identity is a per-backend contract (backends agree on index
    # order, but distances — hence FPFH bins — only to the last ulp):
    # each backend's reuse path is checked against its own fresh path
    # before anything is timed.  With the fill radius equal to the
    # gridhash cell size, that holds for gridhash too.
    for backend in ("canonical", "twostage", "gridhash"):
        with_reuse = preprocess(backend)
        with reuse_disabled():
            fresh = preprocess(backend)
            check(with_reuse, fresh, f"{backend}+reuse")
            variants[f"{backend}_fresh"] = round(
                timed(lambda b=backend: preprocess(b), repeats), 3
            )
        variants[f"{backend}_reuse"] = round(
            timed(lambda b=backend: preprocess(b), repeats), 3
        )
        if backend == "canonical":
            canonical_fresh_state = fresh
    if include_sequential:
        # The post-PR-5 canonical front end: per-query batch loop and
        # fresh per-stage searches.  One repeat — this is the slow
        # baseline the acceptance criterion is measured against.
        with canonical_sequential_patched(), reuse_disabled():
            check(
                preprocess("canonical"),
                canonical_fresh_state,
                "canonical sequential",
            )
            variants["canonical_sequential_fresh"] = round(
                timed(lambda: preprocess("canonical"), 1), 3
            )
    return variants


# ----------------------------------------------------------------------
# Streaming odometry: per-pair steady state, reuse on vs off.
# ----------------------------------------------------------------------


def streaming_config(keypoints: str) -> PipelineConfig:
    if keypoints == "uniform":
        keypoint_cfg = KeypointConfig(
            method="uniform", params={"voxel_size": 3.0}, min_keypoints=8
        )
    else:
        keypoint_cfg = KeypointConfig(
            method="harris", params={"radius": FEATURE_RADIUS}, min_keypoints=8
        )
    return PipelineConfig(
        keypoints=keypoint_cfg,
        descriptor=DescriptorConfig(method="fpfh", radius=FEATURE_RADIUS),
        icp=ICPConfig(
            rpce=RPCEConfig(max_distance=2.0),
            error_metric="point_to_plane",
            max_iterations=15,
        ),
    )


def bench_streaming(repeats: int, n_frames: int = 5, dense: bool = True) -> dict:
    sequence = make_sequence(n_frames=n_frames, seed=7, step=1.0, yaw_rate=0.01)
    pairs = len(sequence) - 1
    out: dict[str, dict] = {"pairs": pairs}
    for keypoints in ("uniform", "harris"):
        def stream():
            run_streaming_odometry(sequence, Pipeline(streaming_config(keypoints)))

        reuse_s = timed(stream, repeats)
        with reuse_disabled():
            fresh_s = timed(stream, repeats)
        out[keypoints] = {
            "fresh_s_per_pair": round(fresh_s / pairs, 3),
            "reuse_s_per_pair": round(reuse_s / pairs, 3),
            "speedup": round(fresh_s / reuse_s, 2),
        }
    if dense:
        # Dense frames are the regime this PR targets: preprocess is the
        # dominant per-pair share, so the reuse saving survives the
        # RPCE/ICP noise floor that masks it on the small-frame rows.
        # Twostage only — gridhash is a radius-search specialist whose
        # nn ring fallback is pathological on ICP's far queries.
        dense_seq = make_sequence(
            n_frames=3, seed=7, model=LidarModel(), step=1.0, yaw_rate=0.01
        )
        dense_pairs = len(dense_seq) - 1
        config = streaming_config("harris")
        config.voxel_downsample = FRONTEND_VOXEL

        def stream_dense():
            run_streaming_odometry(dense_seq, Pipeline(config))

        reuse_s = timed(stream_dense, max(1, repeats - 1))
        with reuse_disabled():
            fresh_s = timed(stream_dense, max(1, repeats - 1))
        out["dense_harris"] = {
            "frame_points": len(dense_seq.frames[0]),
            "pairs": dense_pairs,
            "fresh_s_per_pair": round(fresh_s / dense_pairs, 3),
            "reuse_s_per_pair": round(reuse_s / dense_pairs, 3),
            "speedup": round(fresh_s / reuse_s, 2),
        }
    return out


# ----------------------------------------------------------------------
# Reporting.
# ----------------------------------------------------------------------


def format_table(search_only: dict, frontend: dict, streaming: dict) -> str:
    lines = [
        "Per-backend batched search on the front-end cloud",
        "",
        f"{'backend':<22}{'build':>9}{'r=0.5':>9}{'r=1.0':>9}{'r=1 csr':>9}{'nn':>9}",
    ]
    for name, row in search_only.items():
        csr = (
            f"{row['radius10_csr_s']:>8.3f}s" if "radius10_csr_s" in row else f"{'—':>9}"
        )
        lines.append(
            f"{name:<22}{row['build_s']:>8.3f}s{row['radius05_s']:>8.3f}s"
            f"{row['radius10_s']:>8.3f}s{csr}{row['nn_s']:>8.3f}s"
        )
    lines += ["", "Front end (preprocess: normals + Harris + FPFH), seconds"]
    for name, t in frontend.items():
        lines.append(f"  {name:<28}{t:>8.3f}s")
    if "canonical_sequential_fresh" in frontend:
        speedup = frontend["canonical_sequential_fresh"] / frontend["canonical_reuse"]
        lines.append(f"  canonical before/after: {speedup:.1f}x")
    lines += ["", "Streaming odometry, seconds per pair (fresh -> reuse)"]
    for name in ("uniform", "harris", "dense_harris"):
        if name not in streaming:
            continue
        row = streaming[name]
        lines.append(
            f"  {name:<14}{row['fresh_s_per_pair']:>8.3f}s ->"
            f"{row['reuse_s_per_pair']:>8.3f}s ({row['speedup']:.2f}x)"
        )
    return "\n".join(lines)


def write_results_table(text: str) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "search_frontend.txt")
    with open(path, "w", encoding="utf-8") as f:
        f.write(text + "\n")
    print(f"\nwrote {path}")


def check_floors(search_only: dict, stored_path: str) -> list[str]:
    """Regression guard: the structural speedups this module records are
    within-run ratios (both sides measured on the same cloud in the
    same process), so they transfer across machines and cloud sizes
    where absolute seconds do not.  Each guarded ratio may lose 50%
    relative to the recorded baseline before the guard fails."""
    with open(stored_path, encoding="utf-8") as f:
        stored = json.load(f)["search_only"]

    def frontier_speedup(rows):
        return rows["canonical-sequential"]["radius10_s"] / rows["canonical"][
            "radius10_s"
        ]

    checks = {
        "canonical frontier sweep (sequential/frontier radius@1.0)": (
            frontier_speedup(search_only),
            frontier_speedup(stored),
        ),
        "twostage CSR delivery (list/CSR radius@1.0)": (
            search_only["twostage"]["csr_speedup"],
            stored["twostage"]["csr_speedup"],
        ),
    }
    failures = []
    for name, (measured, recorded) in checks.items():
        floor = recorded / FLOOR_SLACK
        if measured < floor:
            failures.append(
                f"{name}: measured {measured:.2f}x < floor {floor:.2f}x "
                f"(recorded {recorded:.2f}x with 50% slack)"
            )
    return failures


def trace_frontend(cloud, path: str) -> None:
    """Record one traced front-end preprocess and export it.

    A separate, untimed pass — the timed legs above always run
    untraced so the recorded numbers carry no tracing cost.
    """
    tracer = Tracer()
    frontend_pipeline("twostage").preprocess(cloud, tracer=tracer)
    write_trace_file(
        tracer,
        path,
        meta={"bench": "search_frontend", "cloud_points": len(cloud)},
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="benchmarks/BENCH_search.json")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small-cloud parity + timing pass for CI (always asserts parity)",
    )
    parser.add_argument(
        "--check-floors",
        metavar="PATH",
        help="fail on >50%% regression against this recorded BENCH JSON",
    )
    add_trace_argument(parser)
    args = parser.parse_args()

    if args.smoke:
        sequence = make_sequence(
            n_frames=1, seed=7, model=default_test_model(azimuth_steps=160, channels=16)
        )
        cloud = sequence.frames[0]
        # 3 repeats (min-of): the guarded ratios divide ~20 ms timings,
        # which need the min-filter to be stable enough for the floors.
        search_only = bench_search_only(cloud.points, repeats=3)
        frontend = bench_frontend(cloud, repeats=1, include_sequential=True)
        streaming = bench_streaming(repeats=1, n_frames=3, dense=False)
        table = format_table(search_only, frontend, streaming)
        print(table)
        write_results_table(
            table + f"\n(smoke run: {len(cloud)}-point cloud, 3 repeats)"
        )
        if args.trace:
            trace_frontend(cloud, args.trace)
        if args.check_floors:
            failures = check_floors(search_only, args.check_floors)
            for failure in failures:
                print(f"FLOOR REGRESSION: {failure}")
            if failures:
                return 1
            print(f"floors OK against {args.check_floors}")
        print(f"\nsmoke OK: every exact variant bit-identical on {len(cloud)} points")
        return 0

    sequence = make_sequence(n_frames=1, seed=42, model=LidarModel())
    cloud = sequence.frames[0]
    frontend_points = cloud.voxel_downsample(FRONTEND_VOXEL).points
    print(
        f"benchmarking on a {len(cloud)}-point urban cloud "
        f"({len(frontend_points)} front-end points)"
    )
    if args.trace:
        trace_frontend(cloud, args.trace)
    search_only = bench_search_only(frontend_points, repeats=args.repeats)
    frontend = bench_frontend(cloud, repeats=args.repeats, include_sequential=True)
    streaming = bench_streaming(repeats=args.repeats)
    table = format_table(search_only, frontend, streaming)
    print(table)
    write_results_table(table)

    canonical_speedup = round(
        frontend["canonical_sequential_fresh"] / frontend["canonical_reuse"], 2
    )
    dense_stream = streaming["dense_harris"]
    payload = {
        "cloud_points": len(cloud),
        "frontend_points": len(frontend_points),
        "frontend_voxel": FRONTEND_VOXEL,
        "normal_radius": NORMAL_RADIUS,
        "feature_radius": FEATURE_RADIUS,
        "repeats": args.repeats,
        "note": (
            "search_only: batched search on the front-end cloud; "
            "canonical-sequential is the pre-rebuild per-query batch "
            "loop (1 repeat). frontend: live preprocess (voxel + "
            "normals + Harris + FPFH) per backend, nested-radius reuse "
            "on vs forced off; canonical_sequential_fresh is the "
            "post-PR-5 canonical path the acceptance compares against. "
            "streaming: per-pair odometry, reuse on vs off, baselines "
            "re-measured in this run (stored absolute numbers such as "
            "BENCH_frontend.json's 0.19 s/pair do not transfer across "
            "machine states). All exact variants asserted bit-identical "
            "before timing."
        ),
        "search_only": search_only,
        "frontend": frontend,
        "streaming": streaming,
    }
    csr_fill_convert_speedup = round(
        PR6_TWOSTAGE_RADIUS10_S / search_only["twostage"]["radius10_csr_s"], 2
    )
    payload["acceptance"] = {
        "criterion": (
            "canonical-tree front end (search+aggregation) >= "
            f"{ACCEPT_CANONICAL_SPEEDUP}x over its post-PR-5 sequential "
            "path on the 53k-point bench frame; twostage CSR-native "
            f"radius@1.0 >= {ACCEPT_CSR_SPEEDUP}x over the recorded "
            f"pre-CSR fill+convert baseline ({PR6_TWOSTAGE_RADIUS10_S}s) "
            "with bit-identity to the list path asserted before timing; "
            f"twostage front end <= {ACCEPT_TWOSTAGE_FRONTEND_S}s "
            f"(recorded pre-CSR: {PR6_TWOSTAGE_FRONTEND_S}s); dense-frame "
            "streaming per-pair cost with reuse within 5% of fresh or "
            "better (the reuse margin there sits inside run noise now "
            "that fresh searches are CSR-delivered too)"
        ),
        "canonical_frontend_speedup": canonical_speedup,
        "default_frontend_speedup": round(
            frontend["twostage_fresh"] / frontend["twostage_reuse"], 2
        ),
        "best_frontend_speedup": round(
            frontend["twostage_fresh"]
            / min(v for k, v in frontend.items() if k.endswith("_reuse")),
            2,
        ),
        "dense_streaming_speedup": dense_stream["speedup"],
        "csr_fill_convert_speedup": csr_fill_convert_speedup,
        "twostage_csr_delivery_speedup": search_only["twostage"]["csr_speedup"],
        "twostage_frontend_s": frontend["twostage_reuse"],
        "met": (
            canonical_speedup >= ACCEPT_CANONICAL_SPEEDUP
            and dense_stream["reuse_s_per_pair"]
            <= dense_stream["fresh_s_per_pair"] * 1.05
            and csr_fill_convert_speedup >= ACCEPT_CSR_SPEEDUP
            and frontend["twostage_reuse"] <= ACCEPT_TWOSTAGE_FRONTEND_S
        ),
    }
    write_bench(args.out, payload)
    print(f"wrote {args.out}; acceptance met: {payload['acceptance']['met']}")
    return 0 if payload["acceptance"]["met"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
