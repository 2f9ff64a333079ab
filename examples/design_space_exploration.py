"""Design-space exploration across the DP1-DP8 design points
(paper Sec. 3.2, Fig. 3/4, scaled to laptop runtimes).

Evaluates a subset of the Pareto design points over one or more
synthetic scenes through the shared-artifact explorer (configurations
with equal front-end fingerprints reuse each frame's preprocessing;
``--workers`` shards (scene, fingerprint-group) tasks over processes).
Prints the accuracy/time scatter with the Pareto frontier annotated
(Fig. 3), the per-scene frontier table when several scenes run, the
per-stage time distribution (Fig. 4a), and the KD-tree vs
everything-else split (Fig. 4b).

Run:  python examples/design_space_exploration.py \
          [--points DP1,DP2,DP4,DP7] [--scene urban|...|all] \
          [--workers N] [--max-pairs 1]
"""

import argparse

from repro.dse import explore
from repro.io import SceneSuite, default_test_model
from repro.registration import DESIGN_POINT_NAMES, design_point


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--points",
        default="DP1,DP2,DP4,DP7",
        help="comma-separated design point names (default: a fast subset)",
    )
    parser.add_argument(
        "--scene",
        default="urban",
        help="scene name(s), comma-separated, or 'all' for the full suite "
        "(urban, highway, intersection, room, urban_loop)",
    )
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool width for the exploration")
    parser.add_argument("--max-pairs", type=int, default=1,
                        help="frame pairs evaluated per scene")
    args = parser.parse_args()

    names = [name.strip() for name in args.points.split(",")]
    for name in names:
        if name not in DESIGN_POINT_NAMES:
            raise SystemExit(f"unknown design point {name!r}")

    suite = SceneSuite.default(
        n_frames=args.max_pairs + 1,
        model=default_test_model(),
        scenes=None if args.scene == "all" else tuple(
            scene.strip() for scene in args.scene.split(",")
        ),
    )
    print(
        f"evaluating {names} over {args.max_pairs} pair(s) of "
        f"{', '.join(suite.names)} (workers={args.workers})\n"
    )

    configs = {name: design_point(name) for name in names}
    report = explore(
        configs, suite, max_pairs=args.max_pairs, workers=args.workers
    )

    print("Fig. 3 — accuracy vs time (T/R mark the Pareto frontiers):")
    print(report.summary())

    if len(report.scenes) > 1:
        print("\nPer-scene frontier table (time/trans err, T/R per scene):")
        print(report.scene_summary())

    # Stage breakdowns come from per-scene points (aggregates carry no
    # stage table); use the first scene as the Fig. 4 exhibit.
    exhibit_scene = report.scenes[0]
    exhibit = {r.name: r for r in report.scene_results[exhibit_scene]}
    print(f"\nFig. 4a — per-stage time distribution ({exhibit_scene}):")
    header = f"{'stage':<26}" + "".join(f"{name:>8}" for name in names)
    print(header)
    stage_names = list(exhibit[names[0]].detail["stage_fractions"].keys())
    for stage in stage_names:
        row = f"{stage:<26}"
        for name in names:
            fraction = exhibit[name].detail["stage_fractions"].get(stage, 0.0)
            row += f"{100 * fraction:>7.1f}%"
        print(row)

    print(f"\nFig. 4b — KD-tree search vs construction vs other ({exhibit_scene}):")
    print(f"{'design point':<14}{'search':>9}{'constr':>9}{'other':>9}")
    for name in names:
        fractions = exhibit[name].detail["kdtree_fractions"]
        print(
            f"{name:<14}{100 * fractions['search']:>8.1f}%"
            f"{100 * fractions['construction']:>8.1f}%"
            f"{100 * fractions['other']:>8.1f}%"
        )
    print(
        "\n(The paper's observation: KD-tree search stays the dominant "
        "kernel across very different design points.)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
