"""Unit tests for the PointCloud container."""

import numpy as np
import pytest

from repro.geometry import se3
from repro.io import PointCloud


@pytest.fixture
def cloud(rng):
    points = rng.normal(size=(30, 3))
    return PointCloud(
        points,
        normals=rng.normal(size=(30, 3)),
        curvature=rng.uniform(size=30),
    )


class TestConstruction:
    def test_len_and_points(self, rng):
        points = rng.normal(size=(5, 3))
        cloud = PointCloud(points)
        assert len(cloud) == 5
        assert np.array_equal(cloud.points, points)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            PointCloud(np.zeros(9))

    def test_empty_cloud_allowed(self):
        assert len(PointCloud(np.empty((0, 3)))) == 0

    def test_attribute_length_checked(self, rng):
        with pytest.raises(ValueError):
            PointCloud(rng.normal(size=(4, 3)), normals=np.zeros((3, 3)))

    def test_repr_mentions_attributes(self, cloud):
        assert "curvature" in repr(cloud)
        assert "normals" in repr(cloud)


class TestAttributes:
    def test_get_missing_raises_keyerror(self, cloud):
        with pytest.raises(KeyError):
            cloud.get_attribute("does_not_exist")

    def test_has_normals(self, cloud, rng):
        assert cloud.has_normals
        assert not PointCloud(rng.normal(size=(3, 3))).has_normals

    def test_set_attribute_after_construction(self, rng):
        cloud = PointCloud(rng.normal(size=(6, 3)))
        cloud.set_attribute("ring", np.arange(6))
        assert np.array_equal(cloud.get_attribute("ring"), np.arange(6))

    def test_attribute_names_sorted(self, cloud):
        assert cloud.attribute_names == ("curvature", "normals")


class TestDerivedClouds:
    def test_copy_is_deep(self, cloud):
        clone = cloud.copy()
        clone.points[0, 0] = 999.0
        clone.normals[0, 0] = 999.0
        assert cloud.points[0, 0] != 999.0
        assert cloud.normals[0, 0] != 999.0

    def test_select_keeps_attributes(self, cloud):
        subset = cloud.select(np.array([1, 3, 5]))
        assert len(subset) == 3
        assert np.array_equal(subset.points, cloud.points[[1, 3, 5]])
        assert np.array_equal(subset.normals, cloud.normals[[1, 3, 5]])

    def test_transform_moves_points_and_rotates_normals(self, cloud, rng):
        transform = se3.random_transform(rng)
        moved = cloud.transformed(transform)
        assert np.allclose(
            moved.points, se3.apply_transform(transform, cloud.points)
        )
        rotation = se3.rotation_part(transform)
        assert np.allclose(moved.normals, cloud.normals @ rotation.T)
        # Curvature is rotation-invariant and must be copied untouched.
        assert np.array_equal(
            moved.get_attribute("curvature"), cloud.get_attribute("curvature")
        )

    def test_transform_roundtrip(self, cloud, rng):
        transform = se3.random_transform(rng)
        back = cloud.transformed(transform).transformed(se3.invert(transform))
        assert np.allclose(back.points, cloud.points, atol=1e-12)

    def test_concatenate_counts(self, cloud):
        both = cloud.concatenate(cloud)
        assert len(both) == 2 * len(cloud)
        assert both.has_normals

    def test_concatenate_drops_unshared_attributes(self, rng):
        a = PointCloud(rng.normal(size=(3, 3)), ring=np.arange(3))
        b = PointCloud(rng.normal(size=(3, 3)))
        assert not a.concatenate(b).has_attribute("ring")

    def test_centroid_and_extent(self):
        cloud = PointCloud(np.array([[0, 0, 0], [2, 4, 6]], dtype=float))
        assert np.allclose(cloud.centroid(), [1, 2, 3])
        assert np.allclose(cloud.extent(), [2, 4, 6])

    def test_centroid_of_empty_raises(self):
        with pytest.raises(ValueError):
            PointCloud(np.empty((0, 3))).centroid()


class TestDownsampling:
    def test_voxel_downsample_returns_subset(self, rng):
        cloud = PointCloud(rng.uniform(0, 10, size=(200, 3)))
        smaller = cloud.voxel_downsample(2.0)
        assert 0 < len(smaller) < len(cloud)
        # Every surviving point must exist in the original cloud.
        original = {tuple(p) for p in cloud.points}
        assert all(tuple(p) in original for p in smaller.points)

    def test_voxel_downsample_one_per_voxel(self):
        points = np.array(
            [[0.1, 0.1, 0.1], [0.2, 0.2, 0.2], [5.1, 5.1, 5.1]], dtype=float
        )
        smaller = PointCloud(points).voxel_downsample(1.0)
        assert len(smaller) == 2

    def test_voxel_downsample_keeps_attributes(self, cloud):
        smaller = cloud.voxel_downsample(1.0)
        assert smaller.has_normals
        assert len(smaller.normals) == len(smaller)

    def test_voxel_downsample_rejects_nonpositive(self, cloud):
        with pytest.raises(ValueError):
            cloud.voxel_downsample(0.0)

    def test_voxel_downsample_empty(self):
        empty = PointCloud(np.empty((0, 3)))
        assert len(empty.voxel_downsample(1.0)) == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_voxel_downsample_rejects_non_finite_rows(self, bad):
        # Every 20th row of a real scan: once crashed with IndexError
        # inside the voxel grouping instead of a named rejection.
        from repro.io import make_sequence

        points = make_sequence(n_frames=2, seed=1).frames[0].points.copy()
        points[::20] = bad
        with pytest.raises(ValueError, match="points contain NaN or infinity"):
            PointCloud(points).voxel_downsample(0.5)

    def test_random_downsample_fraction(self, cloud, rng):
        half = cloud.random_downsample(0.5, rng)
        assert len(half) == 15

    def test_random_downsample_bounds(self, cloud, rng):
        with pytest.raises(ValueError):
            cloud.random_downsample(0.0, rng)
        with pytest.raises(ValueError):
            cloud.random_downsample(1.5, rng)
