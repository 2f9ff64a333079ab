"""Unit tests for the ICP fine-tuning loop."""

import numpy as np
import pytest

from repro.geometry import se3
from repro.io import PointCloud
from repro.registration import (
    ICPConfig,
    NormalEstimationConfig,
    RPCEConfig,
    SearchConfig,
    build_searcher,
    estimate_normals,
    icp,
)
from repro.telemetry import StageTiming, Tracer


@pytest.fixture(scope="module")
def structured_target():
    """Ground + two perpendicular walls: fully constrains all 6 DoF."""
    rng = np.random.default_rng(8)
    n = 500
    parts = [
        np.column_stack([rng.uniform(-8, 8, n), rng.uniform(-8, 8, n), np.zeros(n)]),
        np.column_stack(
            [rng.uniform(-3, 3, n // 3), np.full(n // 3, 4.0), rng.uniform(0, 3, n // 3)]
        ),
        np.column_stack(
            [np.full(n // 3, 3.0), rng.uniform(-4, 4, n // 3), rng.uniform(0, 3, n // 3)]
        ),
    ]
    cloud = PointCloud(np.vstack(parts))
    searcher = build_searcher(cloud.points, SearchConfig())
    cloud = estimate_normals(
        cloud, searcher, NormalEstimationConfig(radius=1.0, orient_towards=(0, 0, 6))
    )
    return cloud, searcher


def displaced_source(target, rng, angle=0.04, translation=0.3):
    gt = se3.make_transform(
        se3.axis_angle_to_rotation(rng.normal(size=3), angle),
        rng.uniform(-translation, translation, size=3),
    )
    return target.transformed(se3.invert(gt)), gt


class TestConvergence:
    def test_point_to_point_recovers(self, structured_target, rng):
        target, searcher = structured_target
        source, gt = displaced_source(target, rng)
        result = icp(
            source, target, searcher,
            ICPConfig(rpce=RPCEConfig(max_distance=1.5), max_iterations=50),
        )
        rot, trans = se3.transform_distance(gt, result.transformation)
        assert result.converged
        assert rot < 1e-4
        assert trans < 1e-4
        assert result.rmse < 1e-6

    def test_point_to_plane_recovers(self, structured_target, rng):
        target, searcher = structured_target
        source, gt = displaced_source(target, rng)
        result = icp(
            source, target, searcher,
            ICPConfig(
                rpce=RPCEConfig(max_distance=1.5),
                error_metric="point_to_plane",
                max_iterations=50,
            ),
        )
        rot, trans = se3.transform_distance(gt, result.transformation)
        assert rot < 1e-4
        assert trans < 1e-4

    def test_lm_solver(self, structured_target, rng):
        target, searcher = structured_target
        source, gt = displaced_source(target, rng)
        result = icp(
            source, target, searcher,
            ICPConfig(rpce=RPCEConfig(max_distance=1.5), solver="lm",
                      max_iterations=30),
        )
        _, trans = se3.transform_distance(gt, result.transformation)
        assert trans < 1e-3

    def test_initial_guess_speeds_convergence(self, structured_target, rng):
        target, searcher = structured_target
        source, gt = displaced_source(target, rng, angle=0.15, translation=1.0)
        config = ICPConfig(rpce=RPCEConfig(max_distance=2.0), max_iterations=50)
        seeded = icp(source, target, searcher, config, initial=gt)
        cold = icp(source, target, searcher, config)
        assert seeded.iterations <= cold.iterations

    def test_max_iterations_respected(self, structured_target, rng):
        target, searcher = structured_target
        source, _ = displaced_source(target, rng)
        result = icp(
            source, target, searcher,
            ICPConfig(rpce=RPCEConfig(max_distance=1.5), max_iterations=2),
        )
        assert result.iterations <= 2

    def test_rmse_history_monotonic_tail(self, structured_target, rng):
        target, searcher = structured_target
        source, _ = displaced_source(target, rng)
        result = icp(
            source, target, searcher,
            ICPConfig(rpce=RPCEConfig(max_distance=1.5), max_iterations=30),
        )
        history = result.rmse_history
        assert len(history) >= 2
        assert history[-1] <= history[0] + 1e-12


class TestConfiguration:
    def test_point_to_plane_requires_target_normals(self, rng):
        bare = PointCloud(rng.normal(size=(50, 3)))
        searcher = build_searcher(bare.points, SearchConfig())
        with pytest.raises(ValueError, match="normals"):
            icp(bare, bare, searcher, ICPConfig(error_metric="point_to_plane"))

    def test_validation(self):
        with pytest.raises(ValueError):
            ICPConfig(error_metric="bogus")
        with pytest.raises(ValueError):
            ICPConfig(solver="bogus")
        with pytest.raises(ValueError):
            ICPConfig(max_iterations=0)

    def test_profiler_stages_charged(self, structured_target, rng):
        target, _ = structured_target
        source, _ = displaced_source(target, rng)
        tracer = Tracer()
        # The searcher must carry the tracer for its query timing to be
        # charged to the open stage (the pipeline wires this the same way).
        searcher = build_searcher(target.points, SearchConfig(), tracer=tracer)
        icp(
            source, target, searcher,
            ICPConfig(rpce=RPCEConfig(max_distance=1.5), max_iterations=5),
            tracer=tracer,
        )
        stages = StageTiming.of(tracer.roots).stages
        assert "RPCE" in stages
        assert "Error Minimization" in stages
        assert stages["RPCE"].kdtree_search > 0

    def test_searcher_factory_called_per_iteration(self, structured_target, rng):
        target, _ = structured_target
        source, _ = displaced_source(target, rng)
        calls = []

        def factory():
            calls.append(1)
            return build_searcher(target.points, SearchConfig())

        result = icp(
            source, target, factory(),
            ICPConfig(rpce=RPCEConfig(max_distance=1.5), max_iterations=4,
                      transformation_epsilon=0.0, fitness_epsilon=0.0),
            searcher_factory=factory,
        )
        assert len(calls) == 1 + result.iterations

    def test_no_correspondences_stops_early(self, rng):
        # Source far outside the gate: no pairs, graceful stop.
        target = PointCloud(rng.normal(size=(50, 3)))
        source = PointCloud(rng.normal(size=(50, 3)) + 1000.0)
        searcher = build_searcher(target.points, SearchConfig())
        result = icp(
            source, target, searcher,
            ICPConfig(rpce=RPCEConfig(max_distance=0.5), max_iterations=10),
        )
        assert not result.converged
        assert result.n_correspondences < 6
