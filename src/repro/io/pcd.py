"""Minimal ASCII PCD (Point Cloud Data) reader/writer.

The PCD format is the native format of the Point Cloud Library the paper
builds its pipeline on.  We support the ASCII subset sufficient for
interchange: ``x y z`` plus optional ``normal_x normal_y normal_z
curvature`` fields, version 0.7 headers.
"""

from __future__ import annotations

import os

import numpy as np

from repro.io.pointcloud import PointCloud

__all__ = ["read_pcd", "write_pcd"]

_HEADER_KEYS = (
    "VERSION",
    "FIELDS",
    "SIZE",
    "TYPE",
    "COUNT",
    "WIDTH",
    "HEIGHT",
    "VIEWPOINT",
    "POINTS",
    "DATA",
)


def write_pcd(path: str | os.PathLike, cloud: PointCloud) -> None:
    """Write a point cloud as ASCII PCD 0.7.

    Normals and curvature are emitted when present; other attributes are
    not serialized (the format has no standard encoding for them).
    """
    fields = ["x", "y", "z"]
    columns = [cloud.points]
    if cloud.has_normals:
        fields += ["normal_x", "normal_y", "normal_z"]
        columns.append(np.asarray(cloud.normals, dtype=np.float64))
    if cloud.has_attribute("curvature"):
        fields.append("curvature")
        columns.append(
            np.asarray(cloud.get_attribute("curvature"), dtype=np.float64).reshape(
                -1, 1
            )
        )
    data = np.hstack(columns) if columns else cloud.points
    n = len(cloud)
    header = "\n".join(
        [
            "# .PCD v0.7 - Point Cloud Data file format",
            "VERSION 0.7",
            "FIELDS " + " ".join(fields),
            "SIZE " + " ".join(["4"] * len(fields)),
            "TYPE " + " ".join(["F"] * len(fields)),
            "COUNT " + " ".join(["1"] * len(fields)),
            f"WIDTH {n}",
            "HEIGHT 1",
            "VIEWPOINT 0 0 0 1 0 0 0",
            f"POINTS {n}",
            "DATA ascii",
        ]
    )
    with open(path, "w", encoding="ascii") as f:
        f.write(header + "\n")
        np.savetxt(f, data, fmt="%.8g")


def read_pcd(path: str | os.PathLike) -> PointCloud:
    """Read an ASCII PCD file written by :func:`write_pcd` (or PCL)."""
    header: dict[str, list[str]] = {}
    data_lines: list[str] = []
    with open(path, "r", encoding="ascii") as f:
        in_header = True
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if in_header:
                key, *values = line.split()
                if key in _HEADER_KEYS:
                    header[key] = values
                    if key == "DATA":
                        if values and values[0] != "ascii":
                            raise ValueError(
                                f"only ASCII PCD is supported, got {values[0]!r}"
                            )
                        in_header = False
                    continue
                raise ValueError(f"malformed PCD header line: {line!r}")
            data_lines.append(line)

    if "FIELDS" not in header or "POINTS" not in header:
        raise ValueError("missing FIELDS or POINTS in PCD header")
    fields = header["FIELDS"]
    expected = int(header["POINTS"][0])
    if expected == 0:
        return PointCloud(np.empty((0, 3)))
    raw = np.empty((len(data_lines), len(fields)), dtype=np.float64)
    for row, line in enumerate(data_lines):
        values = line.split()
        if len(values) != len(fields):
            raise ValueError(
                f"PCD data line {row + 1}: expected {len(fields)} fields "
                f"({' '.join(fields)}), got {len(values)}"
            )
        try:
            raw[row] = [float(v) for v in values]
        except ValueError:
            raise ValueError(
                f"PCD data line {row + 1}: expected {len(fields)} numeric "
                f"fields, got {line!r}"
            ) from None
    if raw.shape != (expected, len(fields)):
        raise ValueError(
            f"PCD data shape {raw.shape} does not match header "
            f"({expected} points x {len(fields)} fields)"
        )
    column = {name: raw[:, i] for i, name in enumerate(fields)}
    for axis in ("x", "y", "z"):
        if axis not in column:
            raise ValueError(f"PCD file lacks required field {axis!r}")
    cloud = PointCloud(np.column_stack([column["x"], column["y"], column["z"]]))
    if all(f"normal_{axis}" in column for axis in ("x", "y", "z")):
        cloud.set_attribute(
            "normals",
            np.column_stack(
                [column["normal_x"], column["normal_y"], column["normal_z"]]
            ),
        )
    if "curvature" in column:
        cloud.set_attribute("curvature", column["curvature"])
    return cloud
