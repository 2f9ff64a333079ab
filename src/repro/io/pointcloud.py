"""The ``PointCloud`` container.

A point cloud is a collection of points in a 3D Cartesian coordinate
system (paper Sec. 2.1).  This class is a thin, numpy-backed container: an
``(N, 3)`` float64 coordinate array plus optional per-point attribute
channels (normals, curvature, range-image indices) that downstream
pipeline stages attach and consume.
"""

from __future__ import annotations

import numpy as np

from repro.core import ragged
from repro.geometry import se3

__all__ = ["PointCloud"]


class PointCloud:
    """An immutable-by-convention set of 3D points with named attributes.

    Attributes are arbitrary per-point arrays (first dimension == number of
    points).  The registration pipeline uses ``normals`` (N, 3) and
    ``curvature`` (N,); the synthetic LiDAR attaches ``ring`` and ``azimuth``
    channels that the range-image keypoint detector consumes.
    """

    def __init__(self, points: np.ndarray, **attributes: np.ndarray):
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got {points.shape}")
        self._points = points
        self._attributes: dict[str, np.ndarray] = {}
        for name, value in attributes.items():
            self.set_attribute(name, value)

    # -- basic container protocol ------------------------------------------

    def __len__(self) -> int:
        return len(self._points)

    def __repr__(self) -> str:
        attrs = ", ".join(sorted(self._attributes)) or "none"
        return f"PointCloud({len(self)} points, attributes: {attrs})"

    @property
    def points(self) -> np.ndarray:
        """The (N, 3) coordinate array."""
        return self._points

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._attributes))

    def has_attribute(self, name: str) -> bool:
        return name in self._attributes

    def get_attribute(self, name: str) -> np.ndarray:
        if name not in self._attributes:
            raise KeyError(
                f"point cloud has no attribute {name!r}; "
                f"available: {self.attribute_names}"
            )
        return self._attributes[name]

    def set_attribute(self, name: str, value: np.ndarray) -> None:
        value = np.asarray(value)
        if len(value) != len(self._points):
            raise ValueError(
                f"attribute {name!r} has {len(value)} entries for "
                f"{len(self._points)} points"
            )
        self._attributes[name] = value

    # -- convenience accessors ----------------------------------------------

    @property
    def normals(self) -> np.ndarray:
        """The (N, 3) unit normal array (raises if not yet estimated)."""
        return self.get_attribute("normals")

    @property
    def has_normals(self) -> bool:
        return self.has_attribute("normals")

    # -- derived clouds -------------------------------------------------------

    def copy(self) -> "PointCloud":
        """Deep copy of points and all attributes."""
        return PointCloud(
            self._points.copy(),
            **{name: value.copy() for name, value in self._attributes.items()},
        )

    def select(self, indices: np.ndarray) -> "PointCloud":
        """New cloud containing the points at ``indices`` (attributes too)."""
        indices = np.asarray(indices)
        return PointCloud(
            self._points[indices],
            **{name: value[indices] for name, value in self._attributes.items()},
        )

    def transformed(self, transform: np.ndarray) -> "PointCloud":
        """Apply a rigid transform; normals are rotated, other attrs copied."""
        points = se3.apply_transform(transform, self._points)
        attributes = {}
        rotation = se3.rotation_part(transform)
        for name, value in self._attributes.items():
            if name == "normals":
                attributes[name] = value @ rotation.T
            else:
                attributes[name] = value.copy()
        return PointCloud(points, **attributes)

    def voxel_downsample(self, voxel_size: float) -> "PointCloud":
        """Keep one representative point per voxel of side ``voxel_size``.

        The representative is the point closest to the voxel centroid, so
        the output is a subset of the input (attribute channels survive).
        Non-finite points have no voxel and are rejected.
        """
        if voxel_size <= 0:
            raise ValueError("voxel_size must be positive")
        if len(self) == 0:
            return self.copy()
        if not np.isfinite(self._points).all():
            raise ValueError("points contain NaN or infinity")
        keys = np.floor(self._points / voxel_size).astype(np.int64)
        # Group points by voxel via lexicographic sort of integer keys,
        # then pick every group's representative with segment kernels:
        # per-voxel centroids from one reduceat sum, then the first
        # member attaining the per-voxel minimum squared distance (the
        # same first-of-ties rule as a per-group argmin).
        order, _, group_starts, group_counts = ragged.lexsort_voxel_groups(keys)
        sorted_points = self._points[order]
        group_ids = np.repeat(np.arange(len(group_starts)), group_counts)
        centroids = (
            np.add.reduceat(sorted_points, group_starts, axis=0)
            / group_counts[:, None]
        )
        offsets = sorted_points - centroids[group_ids]
        d_sq = np.sum(offsets * offsets, axis=1)
        min_d_sq = np.minimum.reduceat(d_sq, group_starts)
        position = np.where(
            d_sq == min_d_sq[group_ids], np.arange(len(order)), len(order)
        )
        representatives = order[np.minimum.reduceat(position, group_starts)]
        return self.select(np.sort(representatives))

    def random_downsample(
        self, fraction: float, rng: np.random.Generator
    ) -> "PointCloud":
        """Keep a uniformly random ``fraction`` of points."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        count = max(1, int(round(fraction * len(self))))
        indices = rng.choice(len(self), size=count, replace=False)
        return self.select(np.sort(indices))

    def centroid(self) -> np.ndarray:
        """Mean of the points."""
        if len(self) == 0:
            raise ValueError("empty point cloud has no centroid")
        return self._points.mean(axis=0)

    def extent(self) -> np.ndarray:
        """Per-axis bounding-box size."""
        if len(self) == 0:
            return np.zeros(3)
        return self._points.max(axis=0) - self._points.min(axis=0)

    def concatenate(self, other: "PointCloud") -> "PointCloud":
        """Stack two clouds; only attributes present in both survive."""
        shared = set(self._attributes) & set(other._attributes)
        attributes = {
            name: np.concatenate([self._attributes[name], other._attributes[name]])
            for name in shared
        }
        return PointCloud(
            np.vstack([self._points, other._points]), **attributes
        )
