"""Round-trip and robustness tests for the ASCII PCD reader/writer."""

import numpy as np
import pytest

from repro.io import PointCloud, read_pcd, write_pcd


class TestRoundTrip:
    def test_points_only(self, tmp_path, rng):
        cloud = PointCloud(rng.normal(size=(25, 3)))
        path = tmp_path / "plain.pcd"
        write_pcd(path, cloud)
        loaded = read_pcd(path)
        assert len(loaded) == 25
        assert np.allclose(loaded.points, cloud.points, atol=1e-6)

    def test_with_normals_and_curvature(self, tmp_path, rng):
        normals = rng.normal(size=(10, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        cloud = PointCloud(
            rng.normal(size=(10, 3)),
            normals=normals,
            curvature=rng.uniform(size=10),
        )
        path = tmp_path / "full.pcd"
        write_pcd(path, cloud)
        loaded = read_pcd(path)
        assert loaded.has_normals
        assert loaded.has_attribute("curvature")
        assert np.allclose(loaded.normals, normals, atol=1e-6)
        assert np.allclose(
            loaded.get_attribute("curvature"),
            cloud.get_attribute("curvature"),
            atol=1e-6,
        )

    def test_empty_cloud(self, tmp_path):
        path = tmp_path / "empty.pcd"
        write_pcd(path, PointCloud(np.empty((0, 3))))
        assert len(read_pcd(path)) == 0

    def test_header_fields(self, tmp_path, rng):
        path = tmp_path / "header.pcd"
        write_pcd(path, PointCloud(rng.normal(size=(3, 3))))
        text = path.read_text()
        assert "VERSION 0.7" in text
        assert "FIELDS x y z" in text
        assert "POINTS 3" in text
        assert "DATA ascii" in text


class TestRobustness:
    def test_rejects_binary_data(self, tmp_path):
        path = tmp_path / "binary.pcd"
        path.write_text(
            "VERSION 0.7\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\n"
            "COUNT 1 1 1\nWIDTH 1\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\n"
            "POINTS 1\nDATA binary\n"
        )
        with pytest.raises(ValueError, match="ASCII"):
            read_pcd(path)

    def test_rejects_missing_xyz(self, tmp_path):
        path = tmp_path / "nz.pcd"
        path.write_text(
            "VERSION 0.7\nFIELDS x y\nSIZE 4 4\nTYPE F F\nCOUNT 1 1\n"
            "WIDTH 1\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\nPOINTS 1\n"
            "DATA ascii\n1 2\n"
        )
        with pytest.raises(ValueError, match="required field"):
            read_pcd(path)

    def test_rejects_count_mismatch(self, tmp_path):
        path = tmp_path / "short.pcd"
        path.write_text(
            "VERSION 0.7\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\nCOUNT 1 1 1\n"
            "WIDTH 5\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\nPOINTS 5\n"
            "DATA ascii\n1 2 3\n"
        )
        with pytest.raises(ValueError, match="does not match"):
            read_pcd(path)

    def test_rejects_short_data_row(self, tmp_path):
        path = tmp_path / "ragged.pcd"
        path.write_text(
            "VERSION 0.7\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\nCOUNT 1 1 1\n"
            "WIDTH 2\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\nPOINTS 2\n"
            "DATA ascii\n1 2 3\n4 5\n"
        )
        with pytest.raises(ValueError, match="data line 2: expected 3 fields"):
            read_pcd(path)

    def test_rejects_non_numeric_data(self, tmp_path):
        path = tmp_path / "text.pcd"
        path.write_text(
            "VERSION 0.7\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\nCOUNT 1 1 1\n"
            "WIDTH 2\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\nPOINTS 2\n"
            "DATA ascii\n1 2 3\n4 five 6\n"
        )
        with pytest.raises(ValueError, match="data line 2: expected 3 numeric"):
            read_pcd(path)

    def test_rejects_malformed_header(self, tmp_path):
        path = tmp_path / "bad.pcd"
        path.write_text("VERSION 0.7\nNOT_A_KEY something\n")
        with pytest.raises(ValueError, match="malformed"):
            read_pcd(path)

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "comments.pcd"
        path.write_text(
            "# leading comment\nVERSION 0.7\nFIELDS x y z\nSIZE 4 4 4\n"
            "TYPE F F F\nCOUNT 1 1 1\nWIDTH 1\nHEIGHT 1\n"
            "VIEWPOINT 0 0 0 1 0 0 0\nPOINTS 1\nDATA ascii\n1.5 2.5 3.5\n"
        )
        loaded = read_pcd(path)
        assert np.allclose(loaded.points, [[1.5, 2.5, 3.5]])
