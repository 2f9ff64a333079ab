"""Scalar vs batched stage times per backend (the batch-layer bench).

Measures, on a 50k-point synthetic cloud, the wall time of one
stage-sized query set issued three ways through
:class:`~repro.registration.search.NeighborSearcher`:

``seed_scalar``
    The per-query implementation the repository shipped before the batch
    query layer, for brute force (reimplemented here as a pinned
    reference: einsum scans with fresh allocations per call).  The
    per-query tree traversals it used for the tree backends are
    deleted, so for those backends this column times the same loop as
    ``scalar``; ``BENCH_batch.json`` holds the per-query traversal
    times recorded before the deletion.
``scalar``
    One-query calls in a Python loop.  Every search is a batch, so
    ``NeighborSearcher.nn``/``radius``/``knn`` each run a batch of one
    row: this column measures per-call overhead, not a second kernel.
``batched``
    One ``nn_batch`` / ``radius_batch`` / ``knn_batch`` call.

The headline ``speedup`` is ``seed_scalar / batched`` — the stage-level
gain this refactor delivers — with ``speedup_vs_scalar`` (same-kernel
comparison, pure batching benefit) recorded alongside.

Run standalone to (re)record the baseline:

    PYTHONPATH=src python benchmarks/bench_batch_speedup.py \
        [--points 50000] [--queries 1000] [--out benchmarks/BENCH_batch.json]
"""

from __future__ import annotations

import argparse
import time

import numpy as np
from record import write_bench

from repro.registration.search import SearchConfig, build_searcher

BACKENDS = ("bruteforce", "twostage", "canonical", "approximate")
RADIUS = 1.0
K = 8


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


def _seed_scalar_ops(points: np.ndarray):
    """The pre-batch-layer per-query brute-force implementation, pinned
    so the bench keeps measuring against the same reference."""

    def nn(query):
        diff = points - query
        sq = np.einsum("ij,ij->i", diff, diff)
        best = int(np.argmin(sq))
        return best, float(np.sqrt(sq[best]))

    def radius(query, r):
        diff = points - query
        sq = np.einsum("ij,ij->i", diff, diff)
        mask = sq <= r * r
        return np.nonzero(mask)[0].astype(np.int64), np.sqrt(sq[mask])

    def knn(query, k):
        diff = points - query
        sq = np.einsum("ij,ij->i", diff, diff)
        k = min(k, len(sq))
        top = np.argpartition(sq, k - 1)[:k] if k < len(sq) else np.arange(len(sq))
        order = top[np.argsort(sq[top], kind="stable")]
        return order.astype(np.int64), np.sqrt(sq[order])

    return nn, radius, knn


def bench_backend(backend: str, points: np.ndarray, queries: np.ndarray, repeats: int):
    searcher = build_searcher(points, SearchConfig(backend=backend))
    results = {}

    if backend == "bruteforce":
        seed_nn, seed_radius, seed_knn = _seed_scalar_ops(points)
        seed_ops = {
            "nn": lambda: [seed_nn(q) for q in queries],
            "radius": lambda: [seed_radius(q, RADIUS) for q in queries],
            "knn": lambda: [seed_knn(q, K) for q in queries],
        }
    else:
        # The per-query tree traversals are deleted; one-row batches
        # stand in for them.
        seed_ops = {
            "nn": lambda: [searcher.nn(q) for q in queries],
            "radius": lambda: [searcher.radius(q, RADIUS) for q in queries],
            "knn": lambda: [searcher.knn(q, K) for q in queries],
        }

    scalar_ops = {
        "nn": lambda: [searcher.nn(q) for q in queries],
        "radius": lambda: [searcher.radius(q, RADIUS) for q in queries],
        "knn": lambda: [searcher.knn(q, K) for q in queries],
    }
    batch_ops = {
        "nn": lambda: searcher.nn_batch(queries),
        "radius": lambda: searcher.radius_batch(queries, RADIUS),
        "knn": lambda: searcher.knn_batch(queries, K),
    }

    for op in ("nn", "radius", "knn"):
        seed_s = _median_time(seed_ops[op], repeats)
        scalar_s = _median_time(scalar_ops[op], repeats)
        batch_s = _median_time(batch_ops[op], repeats)
        results[op] = {
            "seed_scalar_s": round(seed_s, 4),
            "scalar_s": round(scalar_s, 4),
            "batched_s": round(batch_s, 4),
            "speedup": round(seed_s / batch_s, 2),
            "speedup_vs_scalar": round(scalar_s / batch_s, 2),
        }
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=50_000)
    parser.add_argument("--queries", type=int, default=2000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    # A box roughly matching LiDAR frame extents at ~50k returns.
    points = rng.uniform(-60.0, 60.0, size=(args.points, 3))
    points[:, 2] = np.abs(points[:, 2]) * 0.05  # mostly-planar ground
    queries = points[rng.integers(0, len(points), size=args.queries)]
    queries = queries + rng.normal(size=queries.shape) * 0.2

    report = {
        "n_points": args.points,
        "n_queries": args.queries,
        "radius": RADIUS,
        "k": K,
        "backends": {},
    }
    for backend in BACKENDS:
        report["backends"][backend] = bench_backend(
            backend, points, queries, args.repeats
        )
        for op, row in report["backends"][backend].items():
            print(
                f"{backend:<12} {op:<7} seed {row['seed_scalar_s']:>8.3f}s  "
                f"scalar {row['scalar_s']:>8.3f}s  batched {row['batched_s']:>8.3f}s"
                f"  speedup {row['speedup']:>5.2f}x"
                f"  (vs scalar {row['speedup_vs_scalar']:>5.2f}x)"
            )

    if args.out:
        write_bench(args.out, report)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
