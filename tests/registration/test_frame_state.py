"""Invariants of the per-frame/pairwise pipeline split.

``Pipeline.preprocess`` must be a pure function of ``(frame, config)``:
side-effect-free on its input, reproducible, and with its search work
attributed to the right stage so a later ``match`` can account it to
each consuming pair exactly as the monolithic ``register`` did.
"""

import numpy as np
import pytest

from repro.kdtree import SearchStats
from repro.registration import (
    ICPConfig,
    KeypointConfig,
    Pipeline,
    PipelineConfig,
    RPCEConfig,
    SearchConfig,
)

PREPROCESS_STAGES = (
    "Normal Estimation",
    "Key-point Detection",
    "Descriptor Calculation",
)


def quick_pipeline(**overrides) -> Pipeline:
    config = PipelineConfig(
        keypoints=KeypointConfig(
            method="harris", params={"radius": 1.0}, min_keypoints=8
        ),
        icp=ICPConfig(rpce=RPCEConfig(max_distance=1.5), max_iterations=8),
        voxel_downsample=1.0,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return Pipeline(config)


def snapshot(cloud):
    return (
        cloud.points.tobytes(),
        cloud.attribute_names,
        tuple(cloud.get_attribute(n).tobytes() for n in cloud.attribute_names),
    )


class TestPreprocessPurity:
    def test_input_cloud_unmodified(self, lidar_pair):
        source, _, _ = lidar_pair
        before = snapshot(source)
        quick_pipeline().preprocess(source)
        assert snapshot(source) == before
        # Normals are attached to the state's copy, never the input.
        assert not source.has_attribute("normals")

    def test_repeated_preprocess_identical(self, lidar_pair):
        source, _, _ = lidar_pair
        pipeline = quick_pipeline()
        a = pipeline.preprocess(source)
        b = pipeline.preprocess(source)
        assert np.array_equal(a.cloud.points, b.cloud.points)
        assert np.array_equal(
            a.cloud.get_attribute("normals"), b.cloud.get_attribute("normals")
        )
        assert np.array_equal(a.keypoints, b.keypoints)
        assert np.array_equal(a.descriptors, b.descriptors)
        assert a.stats == b.stats

    def test_with_features_flag(self, lidar_pair):
        source, _, _ = lidar_pair
        pipeline = quick_pipeline()
        bare = pipeline.preprocess(source, with_features=False)
        full = pipeline.preprocess(source, with_features=True)
        assert not bare.has_features
        assert bare.keypoints is None and bare.descriptors is None
        assert full.has_features
        assert len(full.keypoints) >= 8

    def test_skip_initial_estimation_defaults_featureless(self, lidar_pair):
        source, _, _ = lidar_pair
        state = quick_pipeline(skip_initial_estimation=True).preprocess(source)
        assert not state.has_features

    def test_empty_cloud_rejected(self):
        from repro.io import PointCloud

        with pytest.raises(ValueError):
            quick_pipeline().preprocess(PointCloud(np.empty((0, 3))))


class TestEnsureFeatures:
    def test_returns_new_state_without_mutating(self, lidar_pair):
        source, _, _ = lidar_pair
        pipeline = quick_pipeline()
        bare = pipeline.preprocess(source, with_features=False)
        bare_stats_before = {k: SearchStats(**vars(v)) for k, v in bare.stats.items()}
        full = pipeline.ensure_features(bare)
        assert full is not bare
        assert full.has_features
        assert bare.keypoints is None
        assert bare.stats == bare_stats_before
        # The expensive artifacts are shared, not recomputed.
        assert full.index is bare.index
        assert full.cloud is bare.cloud

    def test_idempotent_on_featured_state(self, lidar_pair):
        source, _, _ = lidar_pair
        pipeline = quick_pipeline()
        full = pipeline.preprocess(source, with_features=True)
        assert pipeline.ensure_features(full) is full

    def test_matches_eager_preprocess(self, lidar_pair):
        source, _, _ = lidar_pair
        pipeline = quick_pipeline()
        eager = pipeline.preprocess(source, with_features=True)
        lazy = pipeline.ensure_features(
            pipeline.preprocess(source, with_features=False)
        )
        assert np.array_equal(eager.keypoints, lazy.keypoints)
        assert np.array_equal(eager.descriptors, lazy.descriptors)
        assert eager.stats == lazy.stats


class TestStatsAttribution:
    def test_preprocess_charges_only_frame_stages(self, lidar_pair):
        source, _, _ = lidar_pair
        state = quick_pipeline().preprocess(source)
        assert set(state.stats) == set(PREPROCESS_STAGES)
        assert state.stats["Normal Estimation"].queries == len(state.cloud)
        assert state.stats["Key-point Detection"].queries > 0
        assert state.stats["Descriptor Calculation"].queries > 0

    def test_match_folds_both_frames_preprocess_work(self, lidar_pair):
        source, target, _ = lidar_pair
        pipeline = quick_pipeline()
        source_state = pipeline.preprocess(source)
        target_state = pipeline.preprocess(target)
        result = pipeline.match(source_state, target_state)
        for stage in PREPROCESS_STAGES:
            expected = SearchStats()
            expected.merge(source_state.stats[stage])
            expected.merge(target_state.stats[stage])
            assert result.stage_stats[stage] == expected
        assert result.stage_stats["RPCE"].queries > 0
        assert result.stage_stats["KPCE"].queries > 0

    def test_split_equals_monolithic_register(self, lidar_pair):
        source, target, _ = lidar_pair
        pipeline = quick_pipeline()
        split = pipeline.match(
            pipeline.preprocess(source), pipeline.preprocess(target)
        )
        monolithic = pipeline.register(source, target)
        assert split.stage_stats == monolithic.stage_stats
        assert np.array_equal(split.transformation, monolithic.transformation)
        assert split.icp.iterations == monolithic.icp.iterations

    def test_match_does_not_mutate_cached_states(self, lidar_pair):
        """Reusing a state across pairs must not double-charge stats."""
        source, target, _ = lidar_pair
        pipeline = quick_pipeline()
        source_state = pipeline.preprocess(source)
        target_state = pipeline.preprocess(target)
        frozen = {
            k: SearchStats(**vars(v)) for k, v in target_state.stats.items()
        }
        first = pipeline.match(source_state, target_state)
        second = pipeline.match(source_state, target_state)
        assert target_state.stats == frozen
        assert first.stage_stats == second.stage_stats

    def test_match_runs_no_per_frame_stages(self, lidar_pair):
        """After preprocessing, match must only touch pairwise stages."""
        source, target, _ = lidar_pair
        pipeline = quick_pipeline()
        source_state = pipeline.preprocess(source)
        target_state = pipeline.preprocess(target)
        result = pipeline.match(source_state, target_state)
        for stage in PREPROCESS_STAGES:
            assert stage not in result.profiler.stages

    def test_seeded_match_excludes_feature_work(self, lidar_pair):
        """A seeded pair never ran keypoints/descriptors in the
        monolithic pipeline; the folded account must agree even when
        the cached states happen to carry features."""
        source, target, gt = lidar_pair
        pipeline = quick_pipeline()
        source_state = pipeline.preprocess(source, with_features=True)
        target_state = pipeline.preprocess(target, with_features=True)
        split = pipeline.match(source_state, target_state, initial=gt)
        monolithic = pipeline.register(source, target, initial=gt)
        assert split.stage_stats == monolithic.stage_stats
        assert split.stage_stats["Key-point Detection"] == SearchStats()


class TestProjectionRangeImage:
    def projection_pipeline(self) -> Pipeline:
        # No voxel downsample: projection RPCE needs the scan's
        # ring/azimuth channels at full resolution.
        return Pipeline(
            PipelineConfig(
                icp=ICPConfig(
                    rpce=RPCEConfig(method="projection", max_distance=2.0),
                    max_iterations=5,
                ),
                skip_initial_estimation=True,
            )
        )

    def test_preprocess_leaves_range_image_lazy(self, lidar_pair):
        source, _, _ = lidar_pair
        state = self.projection_pipeline().preprocess(source)
        assert state.range_image is None

    def test_split_matches_monolithic(self, lidar_pair):
        source, target, _ = lidar_pair
        pipeline = self.projection_pipeline()
        split = pipeline.match(
            pipeline.preprocess(source), pipeline.preprocess(target)
        )
        monolithic = pipeline.register(source, target)
        assert np.array_equal(split.transformation, monolithic.transformation)
        assert split.stage_stats == monolithic.stage_stats

    def test_prebuilt_range_image_honored(self, lidar_pair):
        from dataclasses import replace

        from repro.registration.keypoints.narf import build_range_image

        source, target, _ = lidar_pair
        pipeline = self.projection_pipeline()
        source_state = pipeline.preprocess(source)
        target_state = pipeline.preprocess(target)
        prebuilt = replace(
            target_state, range_image=build_range_image(target_state.cloud)
        )
        lazy = pipeline.match(source_state, target_state)
        eager = pipeline.match(source_state, prebuilt)
        assert np.array_equal(lazy.transformation, eager.transformation)
        assert lazy.stage_stats == eager.stage_stats


class TestFrameStateSearcher:
    @pytest.mark.parametrize("backend", ["twostage", "approximate"])
    def test_exact_view_strips_approximation(self, lidar_pair, backend):
        from repro.core.approx import ApproximateSearch

        source, _, _ = lidar_pair
        pipeline = quick_pipeline(search=SearchConfig(backend=backend))
        state = pipeline.preprocess(source, with_features=False)
        exact = state.searcher(SearchStats(), exact=True)
        assert not isinstance(exact.index, ApproximateSearch)
        if backend == "approximate":
            assert isinstance(state.index, ApproximateSearch)
            fresh = state.searcher(SearchStats(), fresh_approx=True)
            assert isinstance(fresh.index, ApproximateSearch)
            assert fresh.index is not state.index
