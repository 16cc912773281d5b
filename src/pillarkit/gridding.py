"""Pillar/voxel binning of point clouds and dense feature-map scatter/gather.

Binning uses half-open per-axis intervals ``[range_min, range_min + dims * cell)``
with floor indexing, so every kept point maps to exactly one cell. Cell
coordinates are ordered map-style: (iy, ix) for pillars, (iz, iy, ix) for
voxels, matching the dense feature-map axes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FileFormatError, ValidationError
from .pointcloud import PointCloud

DECORATION_CHANNELS = ("x_c", "y_c", "z_c", "x_p", "y_p")

OVERFLOW_POLICIES = ("keep-first", "seeded-subsample")


@dataclass(frozen=True)
class GridSpec:
    """Geometry and capacity of a pillar or voxel grid.

    In pillar mode the z axis is a single cell spanning the full z extent;
    ``cell_size[2]`` is ignored. ``capacity`` caps points per cell and
    ``max_cells`` caps the number of occupied cells kept per batch.
    """

    mode: str  # "pillar" | "voxel"
    range_min: tuple[float, float, float]
    range_max: tuple[float, float, float]
    cell_size: tuple[float, float, float]
    capacity: int
    max_cells: int = 12000
    overflow: str = "keep-first"
    overflow_seed: int = 0
    decorate: bool = True

    def __post_init__(self):
        object.__setattr__(self, "range_min", tuple(float(v) for v in self.range_min))
        object.__setattr__(self, "range_max", tuple(float(v) for v in self.range_max))
        object.__setattr__(self, "cell_size", tuple(float(v) for v in self.cell_size))
        if self.mode not in ("pillar", "voxel"):
            raise ValidationError(f"mode must be 'pillar' or 'voxel', got {self.mode!r}")
        if len(self.range_min) != 3 or len(self.range_max) != 3 or len(self.cell_size) != 3:
            raise ValidationError("range_min, range_max, cell_size must each have 3 entries")
        if not all(hi > lo for lo, hi in zip(self.range_min, self.range_max)):
            raise ValidationError("range_max must exceed range_min on every axis")
        if not all(s > 0 for s in self.cell_size):
            raise ValidationError("cell sizes must be positive")
        if self.capacity < 1:
            raise ValidationError("capacity must be >= 1")
        if self.max_cells < 1:
            raise ValidationError("max_cells must be >= 1")
        if self.overflow not in OVERFLOW_POLICIES:
            raise ValidationError(f"overflow must be one of {OVERFLOW_POLICIES}")
        if any(d < 1 for d in self.grid_shape):
            raise ValidationError("derived grid dimensions must all be >= 1")

    @property
    def gridded_axes(self) -> tuple[int, ...]:
        """Spatial axis indices that are discretized, in map order."""
        return (2, 1, 0) if self.mode == "voxel" else (1, 0)

    @property
    def grid_shape(self) -> tuple[int, ...]:
        """(ny, nx) for pillars, (nz, ny, nx) for voxels."""
        dims = []
        for axis in self.gridded_axes:
            extent = self.range_max[axis] - self.range_min[axis]
            dims.append(int(np.floor(extent / self.cell_size[axis])))
        return tuple(dims)

    def cell_centers_xy(self, coords: np.ndarray) -> np.ndarray:
        """Geometric x/y centers of the cells at ``coords`` (map order)."""
        ix = coords[:, -1]
        iy = coords[:, -2]
        cx = self.range_min[0] + (ix + 0.5) * self.cell_size[0]
        cy = self.range_min[1] + (iy + 0.5) * self.cell_size[1]
        return np.stack([cx, cy], axis=1)

    def decorated_channels(self, c_raw: int) -> int:
        return c_raw + len(DECORATION_CHANNELS) if self.decorate else c_raw

    def to_json(self) -> str:
        return json.dumps(
            {
                "mode": self.mode,
                "range_min": list(self.range_min),
                "range_max": list(self.range_max),
                "cell_size": list(self.cell_size),
                "capacity": self.capacity,
                "max_cells": self.max_cells,
                "overflow": self.overflow,
                "overflow_seed": self.overflow_seed,
                "decorate": self.decorate,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "GridSpec":
        try:
            doc = json.loads(text)
            return cls(
                mode=doc["mode"],
                range_min=tuple(doc["range_min"]),
                range_max=tuple(doc["range_max"]),
                cell_size=tuple(doc["cell_size"]),
                capacity=int(doc["capacity"]),
                max_cells=int(doc.get("max_cells", 12000)),
                overflow=doc.get("overflow", "keep-first"),
                overflow_seed=int(doc.get("overflow_seed", 0)),
                decorate=bool(doc.get("decorate", True)),
            )
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise FileFormatError(f"bad GridSpec document: {exc}") from exc

    @classmethod
    def kitti_pillar_defaults(cls, **overrides) -> "GridSpec":
        """0.16 m x 0.16 m pillars over a 4 m z extent, 32 points per pillar."""
        base = dict(
            mode="pillar",
            range_min=(0.0, -39.68, -3.0),
            range_max=(69.12, 39.68, 1.0),
            cell_size=(0.16, 0.16, 4.0),
            capacity=32,
        )
        base.update(overrides)
        return cls(**base)

    @classmethod
    def kitti_voxel_defaults(cls, **overrides) -> "GridSpec":
        """0.05 m x 0.05 m x 0.1 m voxels, 5 points per voxel."""
        base = dict(
            mode="voxel",
            range_min=(0.0, -40.0, -3.0),
            range_max=(70.4, 40.0, 1.0),
            cell_size=(0.05, 0.05, 0.1),
            capacity=5,
        )
        base.update(overrides)
        return cls(**base)


@dataclass
class CellBatch:
    """Fixed-capacity slot buffers for the occupied cells of one cloud.

    ``data`` is (K, capacity, C); slots at index >= ``valid_count[k]`` are
    exactly zero in every channel. ``cell_coords`` are unique map-order
    integer coordinates, sorted row-major.
    """

    data: np.ndarray
    valid_count: np.ndarray
    cell_coords: np.ndarray
    spec: GridSpec
    channel_names: tuple[str, ...] = ()

    @property
    def num_cells(self) -> int:
        return self.data.shape[0]

    @property
    def capacity(self) -> int:
        return self.data.shape[1]

    @property
    def num_channels(self) -> int:
        return self.data.shape[2]


def cell_batch_from_arrays(
    data: np.ndarray, valid_count: np.ndarray | None = None
) -> CellBatch:
    """Wrap a raw (K, N, C) slot array as a CellBatch with dummy coordinates.

    Convenience for feeding descriptors with cells that did not come from a
    grid (toy tasks, benchmarks). Slots past ``valid_count`` are zeroed.
    """
    data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
    if data.ndim != 3:
        raise ValidationError(f"cell data must be (K, N, C), got shape {data.shape}")
    k, n, _ = data.shape
    if valid_count is None:
        valid_count = np.full(k, n, dtype=np.int64)
    else:
        valid_count = np.asarray(valid_count, dtype=np.int64)
        if valid_count.shape != (k,) or (valid_count < 1).any() or (valid_count > n).any():
            raise ValidationError("valid_count must be (K,) with entries in [1, N]")
        slot = np.arange(n)
        data = np.where(slot[None, :, None] < valid_count[:, None, None], data, 0.0)
    spec = GridSpec(
        mode="pillar",
        range_min=(0.0, 0.0, 0.0),
        range_max=(float(max(k, 1)), 1.0, 1.0),
        cell_size=(1.0, 1.0, 1.0),
        capacity=n,
        max_cells=max(k, 1),
        decorate=False,
    )
    coords = np.stack([np.zeros(k, dtype=np.int64), np.arange(k, dtype=np.int64)], axis=1)
    return CellBatch(data, valid_count, coords, spec)


def assign_cells(cloud: PointCloud, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Bin in-range points to cells.

    Returns ``(point_indices, coords)``: the indices of kept points in cloud
    order and their integer cell coordinates in map order. A point is kept iff
    every spatial coordinate falls in the half-open interval covered by the
    derived grid; a point exactly at ``range_max`` is excluded.
    """
    xyz = cloud.xyz
    rmin = np.asarray(spec.range_min)
    rmax = np.asarray(spec.range_max)
    size = np.asarray(spec.cell_size)
    dims = spec.grid_shape

    in_range = np.all((xyz >= rmin) & (xyz < rmax), axis=1)
    idx_per_axis = np.floor((xyz - rmin) / size).astype(np.int64)

    coords_cols = []
    for map_axis, spatial_axis in enumerate(spec.gridded_axes):
        col = idx_per_axis[:, spatial_axis]
        # extent need not be an exact multiple of the cell size; drop points in
        # the truncated tail past the last full cell
        in_range &= (col >= 0) & (col < dims[map_axis])
        coords_cols.append(col)

    keep = np.flatnonzero(in_range)
    coords = np.stack(coords_cols, axis=1)[keep] if keep.size else np.empty(
        (0, len(dims)), dtype=np.int64
    )
    return keep, coords


def build_cell_batch(cloud: PointCloud, spec: GridSpec) -> CellBatch:
    """Group a cloud into a CellBatch: bin, cap, truncate, decorate.

    Cells are kept up to ``spec.max_cells`` by descending point count (ties by
    row-major order) and emitted in row-major order. Per cell, at most
    ``spec.capacity`` points survive per the overflow policy. Decoration
    appends offsets from the kept points' centroid (x_c, y_c, z_c) and from
    the cell's geometric x/y center (x_p, y_p).
    """
    n = spec.capacity
    dims = spec.grid_shape
    c_raw = cloud.num_channels
    c_dec = spec.decorated_channels(c_raw)

    point_idx, coords = assign_cells(cloud, spec)
    if point_idx.size == 0:
        return CellBatch(
            data=np.zeros((0, n, c_dec)),
            valid_count=np.zeros(0, dtype=np.int64),
            cell_coords=np.empty((0, len(dims)), dtype=np.int64),
            spec=spec,
            channel_names=_decorated_names(cloud.channel_names, spec),
        )

    flat = np.ravel_multi_index(tuple(coords.T), dims)
    order = np.argsort(flat, kind="stable")  # grouped by cell, cloud order within
    flat_sorted = flat[order]
    points_sorted = point_idx[order]
    uniq, start, counts = np.unique(flat_sorted, return_index=True, return_counts=True)

    if uniq.size > spec.max_cells:
        rank = np.lexsort((uniq, -counts))[: spec.max_cells]
        rank = np.sort(rank)  # back to row-major order
        uniq, start, counts = uniq[rank], start[rank], counts[rank]

    k = uniq.size
    kept = np.minimum(counts, n)
    slot_rows = np.zeros((k, n), dtype=np.int64)
    if spec.overflow == "keep-first" or not (counts > n).any():
        offsets = start[:, None] + np.arange(n)[None, :]
        offsets = np.minimum(offsets, (start + counts - 1)[:, None])
        slot_rows = points_sorted[offsets]
    else:
        for i in range(k):
            grp = points_sorted[start[i] : start[i] + counts[i]]
            if counts[i] > n:
                rng = np.random.default_rng([spec.overflow_seed, int(uniq[i])])
                grp = np.sort(rng.choice(grp, size=n, replace=False))
            slot_rows[i, : kept[i]] = grp[: kept[i]]
            slot_rows[i, kept[i] :] = grp[0]  # placeholder, masked below

    data = np.zeros((k, n, c_dec))
    slot_valid = np.arange(n)[None, :] < kept[:, None]
    raw = cloud.points[slot_rows]  # (k, n, c_raw), garbage in masked slots
    data[:, :, :c_raw] = np.where(slot_valid[:, :, None], raw, 0.0)

    cell_coords = np.stack(np.unravel_index(uniq, dims), axis=1).astype(np.int64)

    if spec.decorate:
        xyz = data[:, :, :3]
        centroid = xyz.sum(axis=1) / kept[:, None]  # masked slots are zero
        data[:, :, c_raw : c_raw + 3] = np.where(
            slot_valid[:, :, None], xyz - centroid[:, None, :], 0.0
        )
        centers = spec.cell_centers_xy(cell_coords)
        data[:, :, c_raw + 3 : c_raw + 5] = np.where(
            slot_valid[:, :, None], data[:, :, :2] - centers[:, None, :], 0.0
        )

    return CellBatch(
        data=data,
        valid_count=kept.astype(np.int64),
        cell_coords=cell_coords,
        spec=spec,
        channel_names=_decorated_names(cloud.channel_names, spec),
    )


def _decorated_names(raw_names: tuple[str, ...], spec: GridSpec) -> tuple[str, ...]:
    return raw_names + DECORATION_CHANNELS if spec.decorate else raw_names


@dataclass
class FeatureMap:
    """Dense per-cell feature grid: (ny, nx, C) or (nz, ny, nx, C), float64."""

    values: np.ndarray

    @property
    def num_channels(self) -> int:
        return self.values.shape[-1]

    def gather(self, coords: np.ndarray) -> np.ndarray:
        """Read back the per-cell features at integer map coordinates."""
        return self.values[tuple(np.asarray(coords, dtype=np.int64).T)]

    def save(self, stem: str | Path) -> tuple[Path, Path]:
        """Write ``<stem>.bin`` (row-major float64 blob) plus ``<stem>.json`` header."""
        stem = Path(stem)
        blob = stem.with_suffix(".bin")
        header = stem.with_suffix(".json")
        np.ascontiguousarray(self.values).tofile(blob)  # the array's own buffer, no copy
        header.write_text(
            json.dumps(
                {"shape": list(self.values.shape), "dtype": "f64", "order": "row-major"},
                indent=2,
            )
        )
        return blob, header

    @classmethod
    def load(cls, stem: str | Path) -> "FeatureMap":
        stem = Path(stem)
        try:
            meta = json.loads(stem.with_suffix(".json").read_text())
            shape = tuple(int(v) for v in meta["shape"])
            if meta.get("dtype") != "f64":
                raise FileFormatError(f"unsupported dtype {meta.get('dtype')!r}")
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise FileFormatError(f"bad feature map header: {exc}") from exc
        if any(d < 0 for d in shape):
            raise FileFormatError(f"bad feature map header: negative dimension in {shape}")
        raw = stem.with_suffix(".bin").read_bytes()
        expected = 8 * math.prod(shape)
        if len(raw) != expected:
            raise FileFormatError(
                f"feature map blob holds {len(raw)} bytes, header shape {shape} needs {expected}"
            )
        values = np.frombuffer(raw, dtype=np.float64).reshape(shape).copy()
        return cls(values)


def physical_memory_bytes() -> int:
    """Physical memory of the machine, the ceiling for a dense feature grid."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def scatter_to_grid(features: np.ndarray, coords: np.ndarray, spec: GridSpec) -> FeatureMap:
    """Place per-cell feature vectors onto a dense zero-initialized grid.

    ``coords`` must be unique, in-range map coordinates aligned with
    ``features`` rows; every untouched cell stays zero. A grid larger than
    physical memory raises ValidationError before anything is allocated.
    """
    features = np.asarray(features, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.int64)
    dims = spec.grid_shape
    if features.ndim != 2 or coords.ndim != 2 or features.shape[0] != coords.shape[0]:
        raise ValidationError("features must be (K, C) aligned with (K, D) coords")
    if coords.shape[1] != len(dims):
        raise ValidationError(f"coords must have {len(dims)} columns for {spec.mode} mode")
    if coords.size:
        if (coords < 0).any() or (coords >= np.asarray(dims)).any():
            raise ValidationError("coords out of grid range")
        flat = np.ravel_multi_index(tuple(coords.T), dims)
        if np.unique(flat).size != flat.size:
            raise ValidationError("duplicate cell coords")
    shape = dims + (features.shape[1],)
    nbytes = 8 * math.prod(shape)
    limit = physical_memory_bytes()
    if nbytes > limit:
        raise ValidationError(
            f"dense {spec.mode} grid {shape} needs {nbytes / 2**30:.1f} GiB, more than the "
            f"{limit / 2**30:.1f} GiB of physical memory; shrink the ranges"
        )
    grid = np.zeros(shape)
    grid[tuple(coords.T)] = features
    return FeatureMap(grid)
