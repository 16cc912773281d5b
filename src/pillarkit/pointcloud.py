"""Point cloud containers, KITTI-style binary I/O, and synthetic cloud generators."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .documents import Document, Seed
from .errors import FileFormatError, NonFiniteError, ValidationError

SPATIAL_CHANNELS = ("x", "y", "z")
DEFAULT_CHANNELS = ("x", "y", "z", "reflectance")

KITTI_RECORD_BYTES = 16  # 4 channels, little-endian float32 each

GENERATOR_KINDS = ("uniform-box", "gaussian-clusters", "equal-extremes-pair")


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


@dataclass
class SyntheticCloudSpec(Document):
    """Recipe for a deterministic synthetic point cloud.

    ``extent_min``/``extent_max`` bound the spatial box in meters. The
    ``label`` selects the class for the equal-extremes-pair generator and is
    carried through unused otherwise. ``clusters``/``sigma``/``centers`` only
    apply to the gaussian-clusters kind.
    """

    kind: str
    extent_min: tuple[float, float, float]
    extent_max: tuple[float, float, float]
    count: int
    seed: Seed
    label: int | None = None
    clusters: int = 3
    sigma: float = 0.1
    centers: list[tuple[float, float, float]] | None = None
    edge_band: float = 0.1  # equal-extremes interior band, fraction of extent

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValidationError(f"unknown generator kind {self.kind!r}")
        self.extent_min = tuple(float(v) for v in self.extent_min)
        self.extent_max = tuple(float(v) for v in self.extent_max)
        if len(self.extent_min) != 3 or len(self.extent_max) != 3:
            raise ValidationError("extent must have 3 spatial axes")
        if not all(hi > lo for lo, hi in zip(self.extent_min, self.extent_max)):
            raise ValidationError("extent box must have strictly positive edge lengths")
        if self.count < 1:
            raise ValidationError("point count must be >= 1")
        if not 0.0 <= self.edge_band <= 1.0:  # NaN fails too
            raise ValidationError(f"edge_band must be in [0, 1], got {self.edge_band}")
        if self.kind == "gaussian-clusters":
            if self.clusters < 1:
                raise ValidationError("clusters must be >= 1")
            if self.sigma < 0:
                raise ValidationError("sigma must be >= 0")
        if self.kind == "equal-extremes-pair":
            if self.count < 2:
                raise ValidationError("equal-extremes-pair needs count >= 2 for the anchors")
            if self.label not in (None, 0, 1):
                raise ValidationError("equal-extremes-pair label must be 0 or 1")


def generate_synthetic(spec: SyntheticCloudSpec) -> PointCloud:
    """Generate a 3-channel (x, y, z) cloud deterministically from ``spec``.

    All points lie inside the extent box. The equal-extremes-pair kind places
    two anchor points exactly at the box corners so that per-channel min and
    max are identical for label 0 and label 1 under the same seed, while the
    interior points are uniform (label 0) or piled near the extremes (label 1).
    """
    lo = np.asarray(spec.extent_min)
    hi = np.asarray(spec.extent_max)

    if spec.kind == "uniform-box":
        rng = np.random.default_rng(spec.seed)
        pts = rng.uniform(lo, hi, size=(spec.count, 3))
    elif spec.kind == "gaussian-clusters":
        rng = np.random.default_rng(spec.seed)
        if spec.centers is not None:
            centers = np.asarray(spec.centers, dtype=np.float64)
            if centers.shape != (spec.clusters, 3):
                raise ValidationError(
                    f"expected {spec.clusters} cluster centers with 3 coords, got {centers.shape}"
                )
        else:
            centers = rng.uniform(lo, hi, size=(spec.clusters, 3))
        which = rng.integers(spec.clusters, size=spec.count)
        pts = centers[which] + spec.sigma * rng.standard_normal((spec.count, 3))
        np.clip(pts, lo, hi, out=pts)
    else:  # equal-extremes-pair
        label = spec.label or 0
        rng = np.random.default_rng([spec.seed, label])
        interior = _equal_extremes_interior(rng, spec.count - 2, lo, hi, label, spec.edge_band)
        pts = np.vstack([lo[None, :], hi[None, :], interior])

    return PointCloud(pts, SPATIAL_CHANNELS, source=f"synthetic:{spec.kind}:seed={spec.seed}")


def _equal_extremes_interior(
    rng: np.random.Generator,
    count: int,
    lo: np.ndarray,
    hi: np.ndarray,
    label: int,
    edge_band: float,
) -> np.ndarray:
    """Interior points for the equal-extremes construction.

    Label 0 draws uniformly over the box; label 1 draws each coordinate inside
    a narrow band next to either extreme, so the extremes match label 0 but
    the interior order statistics do not.
    """
    dims = lo.shape[0]
    if count == 0:
        return np.empty((0, dims))
    if label == 0:
        return rng.uniform(lo, hi, size=(count, dims))
    width = hi - lo
    side = rng.integers(2, size=(count, dims))
    offset = rng.uniform(0.0, edge_band, size=(count, dims)) * width
    return np.where(side == 0, lo + offset, hi - offset)
