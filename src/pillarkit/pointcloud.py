"""Point cloud containers and KITTI-style binary I/O."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FileFormatError, NonFiniteError, ValidationError

SPATIAL_CHANNELS = ("x", "y", "z")
DEFAULT_CHANNELS = ("x", "y", "z", "reflectance")

KITTI_RECORD_BYTES = 16  # 4 channels, little-endian float32 each


def _require_finite(values: np.ndarray, what: str) -> None:
    finite = np.isfinite(values)
    if not finite.all():
        idx = int(np.flatnonzero(~finite.reshape(values.shape[0], -1).all(axis=1))[0])
        raise NonFiniteError(f"{what} contains a non-finite value at point index {idx}", index=idx)


@dataclass
class PointCloud:
    """A flat collection of points, one row per point.

    ``points`` is an (M, C) float64 array. The first three channels are always
    the spatial coordinates x, y, z in meters; further channels (reflectance
    by default) ride along untouched.
    """

    points: np.ndarray
    channel_names: tuple[str, ...] = DEFAULT_CHANNELS
    source: str = ""

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValidationError(f"points must be 2-D (M, C), got shape {pts.shape}")
        self.points = pts
        self.channel_names = tuple(self.channel_names)
        if len(self.channel_names) != pts.shape[1]:
            raise ValidationError(
                f"{len(self.channel_names)} channel names for {pts.shape[1]} channels"
            )
        if pts.shape[1] < 3 or self.channel_names[:3] != SPATIAL_CHANNELS:
            raise ValidationError("first three channels must be x, y, z")
        _require_finite(pts, "point cloud")

    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    @property
    def num_channels(self) -> int:
        return self.points.shape[1]

    @property
    def xyz(self) -> np.ndarray:
        return self.points[:, :3]


def load_kitti_bin(path: str | Path) -> PointCloud:
    """Decode a KITTI velodyne ``.bin`` file.

    The format is headerless: consecutive records of four little-endian
    float32 values (x, y, z, reflectance). Values are widened to float64.

    Raises:
        FileNotFoundError: missing file.
        FileFormatError: byte length not a multiple of 16.
        NonFiniteError: a NaN/Inf record (reported by point index).
    """
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) % KITTI_RECORD_BYTES != 0:
        raise FileFormatError(
            f"{path}: {len(raw)} bytes is not a multiple of {KITTI_RECORD_BYTES}"
        )
    pts = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(-1, 4)
    return PointCloud(pts, DEFAULT_CHANNELS, source=str(path))


def write_kitti_bin(cloud: PointCloud, path: str | Path) -> None:
    """Encode a 4-channel cloud as a KITTI ``.bin`` file.

    Inverse of :func:`load_kitti_bin` up to the float64 -> float32 narrowing;
    a cloud whose values are already float32-representable round-trips exactly.
    """
    if cloud.num_channels != 4:
        raise ValidationError(f"KITTI .bin requires 4 channels, cloud has {cloud.num_channels}")
    with np.errstate(over="ignore"):
        narrowed = cloud.points.astype("<f4")
    if not np.isfinite(narrowed).all():
        raise ValidationError("cloud contains values that overflow single precision")
    Path(path).write_bytes(narrowed.tobytes(order="C"))
