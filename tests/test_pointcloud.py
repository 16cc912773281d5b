import struct

import numpy as np
import pytest

from pillarkit import (
    FileFormatError,
    NonFiniteError,
    PointCloud,
    ValidationError,
    load_kitti_bin,
    write_kitti_bin,
)


def test_load_decodes_hand_built_bytes(tmp_path):
    raw = struct.pack("<8f", 1, 2, 3, 0.5, 4, 5, 6, 0.25)
    path = tmp_path / "two_points.bin"
    path.write_bytes(raw)
    cloud = load_kitti_bin(path)
    assert cloud.num_points == 2
    assert cloud.channel_names == ("x", "y", "z", "reflectance")
    np.testing.assert_array_equal(cloud.points, [[1, 2, 3, 0.5], [4, 5, 6, 0.25]])


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    cloud = load_kitti_bin(path)
    assert cloud.num_points == 0


def test_load_rejects_bad_length(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x00" * 17)
    with pytest.raises(FileFormatError):
        load_kitti_bin(path)


def test_load_rejects_nonfinite_and_reports_index(tmp_path):
    raw = struct.pack("<8f", 1, 2, 3, 0.5, 4, float("nan"), 6, 0.25)
    path = tmp_path / "nan.bin"
    path.write_bytes(raw)
    with pytest.raises(NonFiniteError) as excinfo:
        load_kitti_bin(path)
    assert excinfo.value.index == 1


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_kitti_bin(tmp_path / "nope.bin")


def test_write_empty_cloud_is_zero_bytes(tmp_path):
    cloud = PointCloud(np.empty((0, 4)))
    path = tmp_path / "empty.bin"
    write_kitti_bin(cloud, path)
    assert path.read_bytes() == b""


def test_write_single_point_known_bytes(tmp_path):
    cloud = PointCloud(np.array([[1.0, 2.0, 3.0, 0.5]]))
    path = tmp_path / "one.bin"
    write_kitti_bin(cloud, path)
    assert path.read_bytes() == struct.pack("<4f", 1, 2, 3, 0.5)


def test_write_requires_four_channels(tmp_path):
    cloud = PointCloud(np.zeros((2, 3)), ("x", "y", "z"))
    with pytest.raises(ValidationError):
        write_kitti_bin(cloud, tmp_path / "three.bin")


def test_write_rejects_single_precision_overflow(tmp_path):
    cloud = PointCloud(np.array([[1e300, 0.0, 0.0, 0.0]]))
    with pytest.raises(ValidationError):
        write_kitti_bin(cloud, tmp_path / "huge.bin")


def test_roundtrip_random_clouds(tmp_path):
    rng = np.random.default_rng(0)
    for trial in range(25):
        m = 1000 if trial == 0 else int(rng.integers(0, 500))
        # values already representable in single precision round-trip exactly
        pts = rng.uniform(-100, 100, size=(m, 4)).astype(np.float32).astype(np.float64)
        cloud = PointCloud(pts)
        path = tmp_path / f"cloud_{trial}.bin"
        write_kitti_bin(cloud, path)
        back = load_kitti_bin(path)
        np.testing.assert_array_equal(back.points, pts)


def test_cloud_validation():
    with pytest.raises(ValidationError):
        PointCloud(np.zeros((2, 2)), ("x", "y"))  # fewer than 3 channels
    with pytest.raises(ValidationError):
        PointCloud(np.zeros((2, 3)), ("a", "b", "c"))  # wrong leading names
    with pytest.raises(NonFiniteError):
        PointCloud(np.array([[0.0, 0.0, np.inf]]), ("x", "y", "z"))
