"""Pillar/voxel binning of point clouds and feature-map scatter/gather.

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

from .documents import Document, Seed
from .errors import FileFormatError, ValidationError
from .pointcloud import PointCloud

DECORATION_CHANNELS = ("x_c", "y_c", "z_c", "x_p", "y_p")

OVERFLOW_POLICIES = ("keep-first", "seeded-subsample")

# why build_cell_batch did not keep a point: outside the grid, past its cell's
# capacity, or in a cell cut by max_cells
DROP_REASONS = ("points_out_of_range", "points_over_capacity", "points_in_dropped_cells")


@dataclass(frozen=True)
class GridSpec(Document):
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
    overflow_seed: Seed = 0
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
        if not all(
            math.isfinite(s) and math.isfinite((hi - lo) / s)
            for lo, hi, s in zip(self.range_min, self.range_max, self.cell_size)
        ):
            raise ValidationError("ranges, cell sizes and cells per axis must be finite")
        if not 1 <= self.capacity <= np.iinfo(np.int64).max:  # slot counts are int64
            raise ValidationError(f"capacity must be in [1, 2**63 - 1], got {self.capacity}")
        if self.max_cells < 1:
            raise ValidationError("max_cells must be >= 1")
        if self.overflow not in OVERFLOW_POLICIES:
            raise ValidationError(f"overflow must be one of {OVERFLOW_POLICIES}")
        dims = self.grid_shape
        if any(d < 1 for d in dims):
            raise ValidationError("derived grid dimensions must all be >= 1")
        if math.prod(dims) > np.iinfo(np.int64).max:  # cell indices are int64
            raise ValidationError(f"grid {dims} has too many cells to index")

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
        """0.05 m x 0.05 m x 0.1 m voxels, 5 points per voxel, at most 40,000 voxels."""
        base = dict(
            mode="voxel",
            range_min=(0.0, -40.0, -3.0),
            range_max=(70.4, 40.0, 1.0),
            cell_size=(0.05, 0.05, 0.1),
            capacity=5,
            max_cells=40000,
        )
        base.update(overrides)
        return cls(**base)


def _as_index(values, what: str) -> np.ndarray:
    """``values`` as int64, refusing a fraction, NaN or infinity with ValidationError."""
    values = np.asarray(values)
    if values.dtype.kind == "f" and not (
        np.isfinite(values) & (values == np.trunc(values)) & (np.abs(values) < 2.0**63)
    ).all():
        raise ValidationError(f"{what} must be integers")
    return values.astype(np.int64, copy=False)


def _occupied(counts: np.ndarray, n: int) -> np.ndarray:
    """(K, N) mask of the occupied slots."""
    return np.arange(n)[None, :] < counts[:, None]


def _to_slots(rows: np.ndarray, counts: np.ndarray, n: int) -> np.ndarray:
    """Scatter cell-major occupied rows (P, C) into zero-padded (K, N, C) slots."""
    out = np.zeros((counts.shape[0], n, rows.shape[1]))
    out[_occupied(counts, n)] = rows
    return out


class CellBatch:
    """The occupied cells of one cloud, their points stored grouped by cell.

    ``rows`` (P, C) holds the kept points cell by cell, each cell's in slot
    order, and ``valid_count`` (K,) how many rows each cell owns, at most
    ``capacity``. ``cell_coords`` are unique map-order integer coordinates,
    sorted row-major, and ``spec`` the grid they index; both are None for
    cells that did not come from a grid.

    ``build_cell_batch`` forms the rows directly and wraps them with
    :meth:`from_rows`, recording in ``dropped`` how many of the cloud's
    points it did not keep, by reason (all zero for a batch built otherwise).
    The constructor takes the dense slot layout instead, (K, capacity, C)
    ``data`` whose slots at index >= ``valid_count[k]`` are ignored, and
    gathers its occupied rows (a reshape when every cell is full); it raises
    ValidationError unless ``data`` is 3-D and ``valid_count`` (K,) with
    entries in [1, capacity]. ``data``
    reads the dense layout back: a read-only array, built on each access,
    with every padding slot exactly zero.
    """

    def __init__(self, data, valid_count, cell_coords=None, spec=None, channel_names=()):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 3:
            raise ValidationError(f"cell data must be (K, N, C), got shape {data.shape}")
        k, n, c = data.shape
        valid_count = _as_index(valid_count, "valid_count")
        if valid_count.shape != (k,) or (valid_count < 1).any() or (valid_count > n).any():
            raise ValidationError("valid_count must be (K,) with entries in [1, N]")
        rows = data.reshape(k * n, c)
        if not (valid_count == n).all():
            rows = np.take(rows, np.flatnonzero(_occupied(valid_count, n)), axis=0)
        self._assign(rows, valid_count, n, cell_coords, spec, channel_names)

    @classmethod
    def from_rows(cls, rows, valid_count, capacity, cell_coords=None, spec=None, channel_names=()):
        """A batch of cell-major occupied rows (P, C), ``valid_count`` (K,) rows per cell.

        Only the shapes are checked here; the descriptor checks the counts' range.
        """
        rows, valid_count = np.asarray(rows), np.asarray(valid_count)
        if rows.ndim != 2 or valid_count.ndim != 1 or rows.shape[0] != valid_count.sum():
            raise ValidationError(f"rows {rows.shape} must be (P, C), P the sum of the (K,) "
                                  f"valid_count {valid_count.shape}: {valid_count.sum()}")
        batch = cls.__new__(cls)
        batch._assign(rows, valid_count, capacity, cell_coords, spec, channel_names)
        return batch

    def _assign(self, rows, valid_count, capacity, cell_coords, spec, channel_names) -> None:
        self.dropped: dict[str, int] = dict.fromkeys(DROP_REASONS, 0)
        self.rows: np.ndarray = rows
        self.valid_count: np.ndarray = valid_count
        self.capacity: int = capacity
        self.cell_coords: np.ndarray | None = cell_coords
        self.spec: GridSpec | None = spec
        self.channel_names: tuple[str, ...] = channel_names

    @property
    def data(self) -> np.ndarray:
        """The dense (K, capacity, C) slots, padding zero; built on each access."""
        out = _to_slots(self.rows, self.valid_count, self.capacity)
        out.flags.writeable = False
        return out

    @property
    def num_cells(self) -> int:
        return self.valid_count.shape[0]

    @property
    def num_channels(self) -> int:
        return self.rows.shape[1]


def cell_batch_from_arrays(
    data: np.ndarray, valid_count: np.ndarray | None = None
) -> CellBatch:
    """Wrap a raw (K, N, C) slot array as a CellBatch with no grid.

    Convenience for feeding descriptors with cells that did not come from a
    grid (toy tasks, benchmarks). Slots past ``valid_count`` are ignored.
    Without ``valid_count`` every cell is full, and its rows are a reshape
    of ``data``, with no per-cell checks.
    """
    data = np.asarray(data, dtype=np.float64)
    if valid_count is not None or data.ndim != 3:  # CellBatch refuses a shape not (K, N, C)
        return CellBatch(data, valid_count)
    k, n, c = data.shape
    if n < 1:
        raise ValidationError(f"cells must hold at least one slot, got shape {data.shape}")
    return CellBatch.from_rows(data.reshape(k * n, c), np.full(k, n, dtype=np.int64), n)


def assign_cells(cloud: PointCloud, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Bin in-range points to cells.

    Returns ``(point_indices, coords)``: the indices of kept points in cloud
    order and their integer cell coordinates in map order. A point is kept iff
    every spatial coordinate falls in the half-open interval covered by the
    derived grid; a point exactly at ``range_max`` is excluded.
    """
    xyz = cloud.xyz
    rmin, rmax, size = spec.range_min, spec.range_max, spec.cell_size
    dims = spec.grid_shape

    # one axis's column at a time against scalar bounds, with no (N, 3) temporaries
    in_range = np.ones(xyz.shape[0], dtype=bool)
    for axis, col in enumerate(xyz.T):
        in_range &= col >= rmin[axis]
        in_range &= col < rmax[axis]

    coords_cols = []
    for dim, axis in zip(dims, spec.gridded_axes):  # pillars never floor z
        col = np.floor((xyz[:, axis] - rmin[axis]) / size[axis]).astype(np.int64)
        # extent need not be an exact multiple of the cell size; drop points in
        # the truncated tail past the last full cell (and the garbage integer
        # an overflowing quotient casts to)
        in_range &= (col >= 0) & (col < dim)
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
    the cell's geometric x/y center (x_p, y_p). The batch's ``dropped``
    counts every point not kept, by reason in ``DROP_REASONS``.
    """
    n = spec.capacity
    dims = spec.grid_shape

    point_idx, coords = assign_cells(cloud, spec)
    flat = np.ravel_multi_index(tuple(coords.T), dims)
    order = np.argsort(flat, kind="stable")  # grouped by cell, cloud order within
    flat_sorted = flat[order]
    points_sorted = point_idx[order]
    start = np.flatnonzero(np.diff(flat_sorted, prepend=-1))
    counts = np.diff(start, append=flat_sorted.size)
    uniq = flat_sorted[start]

    if uniq.size > spec.max_cells:
        rank = np.lexsort((uniq, -counts))[: spec.max_cells]
        rank = np.sort(rank)  # back to row-major order
        uniq, start, counts = uniq[rank], start[rank], counts[rank]

    kept = np.minimum(counts, n)
    num_kept = int(kept.sum())
    in_kept_cells = int(counts.sum())
    first = np.cumsum(kept) - kept  # each cell's first row
    picked = points_sorted[np.arange(num_kept) + np.repeat(start - first, kept)]
    if spec.overflow == "seeded-subsample":
        for i in np.flatnonzero(counts > n):
            rng = np.random.default_rng([spec.overflow_seed, int(uniq[i])])
            group = points_sorted[start[i] : start[i] + counts[i]]
            picked[first[i] : first[i] + n] = np.sort(rng.choice(group, size=n, replace=False))
    rows = cloud.points[picked]

    cell_coords = np.stack(np.unravel_index(uniq, dims), axis=1).astype(np.int64)

    if spec.decorate:
        cell = np.repeat(np.arange(uniq.size), kept)
        xyz = rows[:, :3]
        # bincount folds each cell's points in slot order starting from +0.0,
        # rounding exactly as a sum over the cell's zero-padded slots does
        sums = [np.bincount(cell, xyz[:, axis], minlength=uniq.size) for axis in range(3)]
        centroid = np.stack(sums, axis=1) / kept[:, None]
        centers = spec.cell_centers_xy(cell_coords)
        # the decorated rows, each column written once, are made after the
        # temporaries above, so that they sit above them in the heap as a
        # concatenation would: made first, they left a training step on the
        # batch about 1,000 more page faults
        c = rows.shape[1]
        raw, rows = rows, np.empty((num_kept, c + 5))
        rows[:, :c] = raw
        np.subtract(xyz, centroid[cell], out=rows[:, c : c + 3])
        np.subtract(xyz[:, :2], centers[cell], out=rows[:, c + 3 :])

    batch = CellBatch.from_rows(
        rows, kept, n, cell_coords, spec, _decorated_names(cloud.channel_names, spec)
    )
    batch.dropped = dict(zip(DROP_REASONS, (
        cloud.num_points - point_idx.size,
        in_kept_cells - num_kept,
        point_idx.size - in_kept_cells,
    )))
    return batch


def _decorated_names(raw_names: tuple[str, ...], spec: GridSpec) -> tuple[str, ...]:
    return raw_names + DECORATION_CHANNELS if spec.decorate else raw_names


class FeatureMap:
    """Per-cell feature grid, (ny, nx, C) or (nz, ny, nx, C) float64, stored cell-major.

    ``features`` (K, C) holds the stored cells' rows sorted by ``cells`` (K,),
    their unique row-major flat indices into the grid; every other cell reads
    as zero. The constructor takes a dense grid and stores all of its cells
    (a reshape, so zero and -0.0 cells keep their bits); ``from_cells`` wraps
    sorted rows directly. ``values`` reads the dense grid back: a read-only
    array, built on each access, refused with ValidationError if it would
    outgrow physical memory.
    """

    def __init__(self, values):
        values = np.asarray(values, dtype=np.float64)
        *grid, c = values.shape
        size = math.prod(grid)
        self._assign(values.reshape(size, c), np.arange(size, dtype=np.int64), values.shape)

    @classmethod
    def from_cells(cls, features, cells, shape) -> "FeatureMap":
        """A map of rows ``features`` (K, C) at sorted, unique flat ``cells`` (K,)."""
        fmap = cls.__new__(cls)
        fmap._assign(features, cells, tuple(shape))
        return fmap

    def _assign(self, features, cells, shape) -> None:
        self.features: np.ndarray = features
        self.cells: np.ndarray = cells
        self.shape: tuple[int, ...] = shape

    @property
    def num_channels(self) -> int:
        return self.shape[-1]

    @property
    def values(self) -> np.ndarray:
        """The dense grid, zero where no cell is stored; built on each access."""
        require_memory(8 * math.prod(self.shape), f"dense feature grid {self.shape}",
                       "shrink the ranges or keep the map sparse")
        out = np.zeros(self.shape)
        out.reshape(math.prod(self.shape[:-1]), self.num_channels)[self.cells] = self.features
        out.flags.writeable = False
        return out

    def gather(self, coords: np.ndarray) -> np.ndarray:
        """Read back the per-cell features at integer map coordinates, zero where none is stored.

        ``coords`` is one (D,) coordinate or an (M, D) array of them; another
        shape or a coordinate outside the grid raises ValidationError.
        """
        coords = _as_index(coords, "coords")
        grid = self.shape[:-1]
        if coords.ndim not in (1, 2) or coords.shape[-1] != len(grid):
            raise ValidationError(f"coords must be (D,) or (M, D) with D = {len(grid)}, got shape "
                                  f"{coords.shape}")
        if ((coords < 0) | (coords >= np.asarray(grid, dtype=np.int64))).any():
            raise ValidationError(f"coords outside the grid {grid}")
        flat = np.ravel_multi_index(tuple(coords.T), grid)
        wanted = np.ravel(flat)
        pos = np.searchsorted(self.cells, wanted)
        hit = pos < self.cells.size
        hit[hit] = self.cells[pos[hit]] == wanted[hit]
        out = np.zeros((wanted.size, self.num_channels))
        out[hit] = self.features[pos[hit]]
        return out.reshape(np.shape(flat) + (self.num_channels,))

    def save(self, stem: str | Path, dense: bool = False) -> tuple[Path, Path]:
        """Write ``<stem>.bin`` plus its ``<stem>.json`` header.

        The sparse blob holds the stored cells' int64 map coordinates (K, D)
        followed by their float64 features (K, C), both in ``cells`` order.
        With ``dense`` it is the row-major bytes of :attr:`values`, so the
        whole grid is held in memory while it is written; a grid that would
        outgrow physical memory is refused with ValidationError before any
        file is touched.
        """
        stem = Path(stem)
        blob = stem.with_suffix(".bin")
        header = stem.with_suffix(".json")
        if dense:
            arrays = [self.values]
            meta = {"shape": list(self.shape), "dtype": "f64", "order": "row-major"}
        else:
            coords = np.stack(np.unravel_index(self.cells, self.shape[:-1]), axis=1)
            arrays = [np.ascontiguousarray(coords, dtype=np.int64),
                      np.ascontiguousarray(self.features, dtype=np.float64)]
            meta = {"shape": list(self.shape), "dtype": "f64", "layout": "sparse",
                    "num_cells": int(self.cells.size)}
        # an existing blob is overwritten in place and cut to length after:
        # truncating it to zero at open made each save wait for the previous
        # one's pages to be flushed (about 75 ms for a 110 MB map on ext4).
        # The header goes last, so a save that fails midway leaves none.
        header.unlink(missing_ok=True)
        with open(os.open(blob, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as handle:
            for array in arrays:
                handle.write(array)
            handle.truncate()
        header.write_text(json.dumps(meta, indent=2))
        return blob, header

    @classmethod
    def load(cls, stem: str | Path) -> "FeatureMap":
        """Read a map written by :meth:`save`, sparse or dense.

        A header without ``layout`` is dense. Every size is checked against
        the blob's length before anything is read, and a sparse map's
        coordinates must be in range and strictly ascending in row-major
        order; any violation raises FileFormatError.
        """
        stem = Path(stem)
        try:
            meta = json.loads(stem.with_suffix(".json").read_text())
            shape = tuple(int(v) for v in meta["shape"])
            if meta.get("dtype") != "f64":
                raise FileFormatError(f"unsupported dtype {meta.get('dtype')!r}")
            layout = meta.get("layout", "dense")
            num_cells = meta["num_cells"] if layout == "sparse" else None
        except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise FileFormatError(f"bad feature map header: {exc}") from exc
        if layout not in ("sparse", "dense"):
            raise FileFormatError(f"bad feature map header: unknown layout {layout!r}")
        if len(shape) < 2 or any(d < 0 for d in shape):
            raise FileFormatError(f"bad feature map header: shape {shape} is not (*grid, C)")
        *grid, channels = shape
        if math.prod(grid) > np.iinfo(np.int64).max:
            raise FileFormatError(f"bad feature map header: grid {tuple(grid)} is too large")
        if layout == "sparse" and (type(num_cells) is not int or num_cells < 0):
            raise FileFormatError(f"bad feature map header: num_cells {num_cells!r}")
        blob = stem.with_suffix(".bin")
        size = blob.stat().st_size
        row = len(grid) + channels  # int64 coords, then float64 features
        expected = 8 * (math.prod(shape) if layout == "dense" else num_cells * row)
        if size != expected:
            raise FileFormatError(f"feature map blob holds {size} bytes, its header {meta} needs "
                                  f"{expected}")
        if layout == "dense":
            return cls(np.fromfile(blob, dtype=np.float64).reshape(shape))
        data = np.fromfile(blob, dtype=np.int64)
        coords = data[: num_cells * len(grid)].reshape(num_cells, len(grid))
        features = data[num_cells * len(grid):].view(np.float64).reshape(num_cells, channels)
        if ((coords < 0) | (coords >= np.asarray(grid, dtype=np.int64))).any():
            raise FileFormatError("sparse feature map holds coords outside the grid")
        cells = np.ravel_multi_index(tuple(coords.T), grid)
        if (cells[1:] <= cells[:-1]).any():
            raise FileFormatError("sparse feature map coords are not strictly ascending")
        return cls.from_cells(features, cells, shape)


def physical_memory_bytes() -> int:
    """Physical memory of the machine, the ceiling for a dense feature grid."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def require_memory(nbytes: int, what: str, advice: str) -> None:
    """Raise ValidationError, before anything is allocated, if ``what`` outgrows physical memory."""
    limit = physical_memory_bytes()
    if nbytes > limit:
        raise ValidationError(
            f"{what} needs {_gib(nbytes)} GiB, more than the {_gib(limit)} GiB of physical "
            f"memory; {advice}"
        )


def _gib(nbytes: int) -> str:
    """``nbytes`` in GiB to one decimal, in integers, since a size from a config can
    exceed any float."""
    tenths = (10 * int(nbytes) + 2**29) // 2**30
    return f"{tenths // 10}.{tenths % 10}"


def scatter_to_grid(features: np.ndarray, coords: np.ndarray, spec: GridSpec) -> FeatureMap:
    """Place per-cell feature vectors onto a zero-initialized grid.

    ``coords`` must be unique, in-range map coordinates aligned with
    ``features`` rows; every untouched cell stays zero. The map is stored
    cell-major, so no grid is allocated here, whatever its size.
    """
    features = np.asarray(features, dtype=np.float64)
    coords = _as_index(coords, "coords")
    dims = spec.grid_shape
    if features.ndim != 2 or coords.ndim != 2 or features.shape[0] != coords.shape[0]:
        raise ValidationError("features must be (K, C) aligned with (K, D) coords")
    if coords.shape[1] != len(dims):
        raise ValidationError(f"coords must have {len(dims)} columns for {spec.mode} mode")
    if (coords < 0).any() or (coords >= np.asarray(dims)).any():
        raise ValidationError("coords out of grid range")
    flat = np.ravel_multi_index(tuple(coords.T), dims)
    order = np.argsort(flat, kind="stable")
    cells = flat[order]
    if (cells[1:] == cells[:-1]).any():
        raise ValidationError("duplicate cell coords")
    return FeatureMap.from_cells(features[order], cells, dims + (features.shape[1],))
