import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pillarkit import (
    CellBatch,
    FeatureMap,
    FileFormatError,
    GridSpec,
    PointCloud,
    ValidationError,
    assign_cells,
    build_cell_batch,
    cell_batch_from_arrays,
    gridding,
    scatter_to_grid,
)


def small_pillar_spec(**overrides):
    base = dict(
        mode="pillar",
        range_min=(0.0, 0.0, -1.0),
        range_max=(10.0, 10.0, 1.0),
        cell_size=(1.0, 1.0, 2.0),
        capacity=32,
        max_cells=1000,
        decorate=False,
    )
    base.update(overrides)
    return GridSpec(**base)


def cloud_from_xyz(xyz, reflectance=None):
    xyz = np.asarray(xyz, dtype=np.float64)
    if reflectance is None:
        reflectance = np.zeros(len(xyz))
    pts = np.column_stack([xyz, reflectance])
    return PointCloud(pts)


def test_point_at_range_min_gets_cell_zero():
    spec = small_pillar_spec()
    idx, coords = assign_cells(cloud_from_xyz([[0.0, 0.0, 0.0]]), spec)
    np.testing.assert_array_equal(idx, [0])
    np.testing.assert_array_equal(coords, [[0, 0]])


def test_point_at_range_max_excluded():
    spec = small_pillar_spec()
    idx, _ = assign_cells(cloud_from_xyz([[10.0, 5.0, 0.0]]), spec)
    assert idx.size == 0
    idx, _ = assign_cells(cloud_from_xyz([[5.0, 5.0, 1.0]]), spec)  # z at max
    assert idx.size == 0


def test_binning_matches_bruteforce_oracle():
    spec = small_pillar_spec()
    rng = np.random.default_rng(0)
    pts = rng.uniform([0, 0, -1], [10, 10, 1], size=(1000, 3))
    cloud = cloud_from_xyz(pts)
    _, coords = assign_cells(cloud, spec)

    counts = np.zeros((10, 10), dtype=int)
    for iy, ix in coords:
        counts[iy, ix] += 1

    # brute force: loop every cell box, count points inside it
    oracle = np.zeros((10, 10), dtype=int)
    for iy in range(10):
        for ix in range(10):
            inside = (
                (pts[:, 0] >= ix) & (pts[:, 0] < ix + 1)
                & (pts[:, 1] >= iy) & (pts[:, 1] < iy + 1)
            )
            oracle[iy, ix] = int(inside.sum())
    np.testing.assert_array_equal(counts, oracle)
    assert counts.sum() == 1000


def test_two_points_one_pillar():
    spec = small_pillar_spec()
    batch = build_cell_batch(cloud_from_xyz([[0.5, 0.5, 0.0], [0.6, 0.4, 0.1]]), spec)
    assert batch.num_cells == 1
    assert batch.valid_count.tolist() == [2]
    assert not batch.data[0, 2:].any()
    np.testing.assert_array_equal(batch.cell_coords, [[0, 0]])


def test_keep_first_overflow_keeps_cloud_order():
    spec = small_pillar_spec(capacity=4)
    xyz = [[0.5, 0.5, 0.0]] * 7  # same pillar, 7 points
    reflect = np.arange(7) / 10.0  # identify each point by reflectance
    batch = build_cell_batch(cloud_from_xyz(xyz, reflect), spec)
    assert batch.valid_count.tolist() == [4]
    np.testing.assert_array_equal(batch.data[0, :, 3], [0.0, 0.1, 0.2, 0.3])


def test_seeded_subsample_deterministic_and_membership():
    spec = small_pillar_spec(capacity=4, overflow="seeded-subsample", overflow_seed=9)
    rng = np.random.default_rng(1)
    xyz = np.column_stack(
        [rng.uniform(0.0, 1.0, 20), rng.uniform(0.0, 1.0, 20), np.zeros(20)]
    )
    reflect = np.arange(20) / 100.0
    cloud = cloud_from_xyz(xyz, reflect)
    a = build_cell_batch(cloud, spec)
    b = build_cell_batch(cloud, spec)
    assert a.data.tobytes() == b.data.tobytes()
    assert a.valid_count.tolist() == [4]
    assert set(a.data[0, :, 3]).issubset(set(reflect))
    # kept points stay in cloud order
    assert list(a.data[0, :, 3]) == sorted(a.data[0, :, 3])


def test_decorated_point_at_cell_center_has_zero_offsets():
    spec = small_pillar_spec(decorate=True)
    batch = build_cell_batch(cloud_from_xyz([[2.5, 7.5, 0.25]], reflectance=[0.9]), spec)
    assert batch.num_channels == 9
    assert batch.channel_names[-5:] == ("x_c", "y_c", "z_c", "x_p", "y_p")
    np.testing.assert_array_equal(batch.data[0, 0, 4:], np.zeros(5))
    np.testing.assert_array_equal(batch.data[0, 0, :4], [2.5, 7.5, 0.25, 0.9])


def test_decoration_offsets_match_direct_computation():
    spec = small_pillar_spec(decorate=True)
    xyz = np.array([[2.1, 7.2, 0.5], [2.9, 7.9, -0.5], [2.4, 7.6, 0.0]])
    batch = build_cell_batch(cloud_from_xyz(xyz), spec)
    assert batch.num_cells == 1
    centroid = xyz.mean(axis=0)
    np.testing.assert_allclose(batch.data[0, :3, 4:7], xyz - centroid, atol=1e-15)
    np.testing.assert_allclose(
        batch.data[0, :3, 7:9], xyz[:, :2] - np.array([2.5, 7.5]), atol=1e-15
    )


def test_kept_points_lie_inside_their_cell_box():
    spec = small_pillar_spec(capacity=8)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        pts = rng.uniform([-2, -2, -2], [12, 12, 2], size=(400, 3))
        cloud = cloud_from_xyz(pts)
        batch = build_cell_batch(cloud, spec)
        for k in range(batch.num_cells):
            iy, ix = batch.cell_coords[k]
            cell_pts = batch.data[k, : batch.valid_count[k], :3]
            assert (cell_pts[:, 0] >= ix).all() and (cell_pts[:, 0] < ix + 1).all()
            assert (cell_pts[:, 1] >= iy).all() and (cell_pts[:, 1] < iy + 1).all()
            assert (cell_pts[:, 2] >= -1).all() and (cell_pts[:, 2] < 1).all()


def test_valid_count_sum_is_in_range_count_without_overflow():
    spec = small_pillar_spec(capacity=64)
    rng = np.random.default_rng(2)
    pts = rng.uniform([-2, -2, -2], [12, 12, 2], size=(500, 3))
    cloud = cloud_from_xyz(pts)
    in_range, _ = assign_cells(cloud, spec)
    batch = build_cell_batch(cloud, spec)
    assert batch.valid_count.sum() == in_range.size


def test_max_cells_cap_prefers_dense_cells_row_major_ties():
    spec = small_pillar_spec(max_cells=2)
    xyz = (
        [[0.5, 0.5, 0.0]] * 3  # cell (0, 0): 3 points
        + [[5.5, 2.5, 0.0]] * 2  # cell (2, 5): 2 points
        + [[1.5, 8.5, 0.0]] * 2  # cell (8, 1): 2 points, row-major later
    )
    batch = build_cell_batch(cloud_from_xyz(xyz), spec)
    assert batch.num_cells == 2
    np.testing.assert_array_equal(batch.cell_coords, [[0, 0], [2, 5]])


def test_batch_cells_sorted_row_major():
    spec = small_pillar_spec()
    rng = np.random.default_rng(3)
    pts = rng.uniform([0, 0, -1], [10, 10, 1], size=(200, 3))
    batch = build_cell_batch(cloud_from_xyz(pts), spec)
    flat = batch.cell_coords[:, 0] * 10 + batch.cell_coords[:, 1]
    assert (np.diff(flat) > 0).all()


def test_empty_cloud_gives_empty_batch_and_zero_map():
    spec = small_pillar_spec()
    batch = build_cell_batch(cloud_from_xyz(np.empty((0, 3))), spec)
    assert batch.num_cells == 0
    fmap = scatter_to_grid(np.empty((0, 2)), batch.cell_coords, spec)
    assert fmap.values.shape == (10, 10, 2)
    assert not fmap.values.any()


def test_scatter_known_cell():
    spec = small_pillar_spec()
    fmap = scatter_to_grid(np.array([[1.0, 2.0]]), np.array([[0, 0]]), spec)
    np.testing.assert_array_equal(fmap.values[0, 0], [1.0, 2.0])
    assert fmap.values.sum() == 3.0


def test_scatter_then_gather_is_identity():
    spec = small_pillar_spec()
    rng = np.random.default_rng(4)
    coords = np.array([[iy, ix] for iy in range(10) for ix in range(0, 10, 3)])
    features = rng.standard_normal((len(coords), 5))
    fmap = scatter_to_grid(features, coords, spec)
    assert fmap.gather(coords).tobytes() == features.tobytes()


def test_scatter_rejects_duplicates_and_out_of_range():
    spec = small_pillar_spec()
    with pytest.raises(ValidationError):
        scatter_to_grid(np.zeros((2, 1)), np.array([[0, 0], [0, 0]]), spec)
    with pytest.raises(ValidationError):
        scatter_to_grid(np.zeros((1, 1)), np.array([[0, 10]]), spec)
    with pytest.raises(ValidationError):
        scatter_to_grid(np.zeros((1, 1)), np.array([[-1, 0]]), spec)
    with pytest.raises(ValidationError, match="coords must be integers"):
        scatter_to_grid(np.zeros((1, 1)), np.array([[0.5, 0.0]]), spec)  # would truncate to (0, 0)


def test_scatter_of_sorted_and_shuffled_coords_gives_the_same_map(tmp_path):
    spec = small_pillar_spec()
    rng = np.random.default_rng(6)
    flat = np.sort(rng.choice(100, size=30, replace=False))
    coords = np.stack(np.unravel_index(flat, spec.grid_shape), axis=1)
    features = rng.standard_normal((30, 4))
    features[::7] = -0.0
    shuffle = rng.permutation(30)
    ascending = scatter_to_grid(features, coords, spec)
    shuffled = scatter_to_grid(features[shuffle], coords[shuffle], spec)
    assert ascending.features is features  # ascending coords are not sorted again
    blobs = [fmap.save(tmp_path / name)[0].read_bytes()
             for fmap, name in ((ascending, "ascending"), (shuffled, "shuffled"))]
    assert blobs[0] == blobs[1]
    assert ascending.values.tobytes() == shuffled.values.tobytes()
    for dup in (coords[[0, 0, 1]], coords[[0, 1, 0]], coords[[1, 2, 2]]):
        with pytest.raises(ValidationError, match="duplicate cell coords"):
            scatter_to_grid(np.zeros((3, 4)), dup, spec)


def test_feature_map_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    fmap = FeatureMap(rng.standard_normal((4, 6, 3)))
    fmap.save(tmp_path / "map")
    back = FeatureMap.load(tmp_path / "map")
    assert back.values.tobytes() == fmap.values.tobytes()
    header = json.loads((tmp_path / "map.json").read_text())
    assert header == {"shape": [4, 6, 3], "dtype": "f64", "layout": "sparse", "num_cells": 24}
    fmap.save(tmp_path / "map", dense=True)
    assert FeatureMap.load(tmp_path / "map").values.tobytes() == fmap.values.tobytes()
    header = json.loads((tmp_path / "map.json").read_text())
    assert header == {"shape": [4, 6, 3], "dtype": "f64", "order": "row-major"}


def test_feature_map_sparse_blob_is_coords_then_features(tmp_path):
    spec = small_pillar_spec()
    coords = np.array([[7, 2], [0, 9], [3, 3]])
    features = np.array([[1.5, -0.0], [2.0, 3.0], [-4.0, 0.25]])
    blob, _ = scatter_to_grid(features, coords, spec).save(tmp_path / "map")
    order = [1, 2, 0]  # ascending flat cell index
    assert blob.read_bytes() == coords[order].astype(np.int64).tobytes() + features[order].tobytes()


def test_feature_map_save_writes_row_major_bytes_of_any_layout(tmp_path):
    values = np.asfortranarray(np.random.default_rng(6).standard_normal((3, 5, 2)))
    blob, _ = FeatureMap(values).save(tmp_path / "map", dense=True)
    assert blob.read_bytes() == values.tobytes(order="C")


def test_dense_grid_larger_than_physical_memory_is_refused_before_allocating(
    tmp_path, monkeypatch
):
    # the limit is patched, so the check is tested without allocating
    spec = small_pillar_spec()
    needed = 8 * 10 * 10 * 3
    monkeypatch.setattr(gridding, "physical_memory_bytes", lambda: needed)
    assert scatter_to_grid(np.ones((1, 3)), np.array([[0, 0]]), spec).values.nbytes == needed
    monkeypatch.setattr(gridding, "physical_memory_bytes", lambda: needed - 1)
    fmap = scatter_to_grid(np.ones((1, 3)), np.array([[0, 0]]), spec)  # sparse: no grid
    with pytest.raises(ValidationError, match="physical memory"):
        fmap.values
    with pytest.raises(ValidationError, match="physical memory"):
        fmap.save(tmp_path / "map", dense=True)
    assert not list(tmp_path.iterdir())  # refused before any file is touched
    fmap.save(tmp_path / "map")
    assert FeatureMap.load(tmp_path / "map").gather([[0, 0]]).tolist() == [[1.0, 1.0, 1.0]]
    voxel = GridSpec.kitti_voxel_defaults()
    monkeypatch.setattr(gridding, "physical_memory_bytes", lambda: 40 * 2**30)
    fmap = scatter_to_grid(np.zeros((0, 64)), np.zeros((0, 3), dtype=np.int64), voxel)
    with pytest.raises(ValidationError, match=r"\(40, 1600, 1408, 64\) needs 43.0 GiB"):
        fmap.values


def test_a_size_past_any_float_is_refused_with_its_size():
    # a config integer such as toy.cells_per_class 10**400 has no float value
    with pytest.raises(ValidationError, match=r"a huge array needs 9313225746\d+\.\d GiB"):
        gridding.require_memory(10**400, "a huge array", "lower it")


@pytest.mark.parametrize(
    "coords, match",
    [([[0, 0, 0]], "coords"), ([[0]], "coords"), ([[3, 0]], "coords"), ([[0, 4]], "coords"),
     ([[-1, 0]], "coords"), ([[[0, 0]]], "coords"), ([[1.9, 2.7]], "coords must be integers"),
     ([[1.0, np.nan]], "coords must be integers"), ([np.inf, 0.0], "coords must be integers"),
     ([[0.0, -np.inf]], "coords must be integers")],
    ids=["too-wide", "too-narrow", "past-y", "past-x", "negative", "3-D", "fraction", "nan",
         "inf", "-inf"],
)
def test_feature_map_gather_refuses_bad_coords(coords, match):
    fmap = FeatureMap(np.ones((3, 4, 2)))
    with pytest.raises(ValidationError, match=match):
        fmap.gather(coords)


def test_feature_map_load_rejects_blob_not_matching_header(tmp_path):
    FeatureMap(np.zeros((2, 3, 4))).save(tmp_path / "map", dense=True)
    blob = tmp_path / "map.bin"
    blob.write_bytes(blob.read_bytes()[:23])  # truncated mid-value
    with pytest.raises(FileFormatError, match="23 bytes"):
        FeatureMap.load(tmp_path / "map")
    blob.write_bytes(bytes(8 * 25))  # one value too many
    with pytest.raises(FileFormatError):
        FeatureMap.load(tmp_path / "map")
    (tmp_path / "map.json").write_text(json.dumps({"shape": [-2, -3, 4], "dtype": "f64"}))
    blob.write_bytes(bytes(8 * 24))
    with pytest.raises(FileFormatError):
        FeatureMap.load(tmp_path / "map")


def test_voxel_mode_grid_shape_and_coords():
    spec = GridSpec(
        mode="voxel",
        range_min=(0.0, 0.0, 0.0),
        range_max=(2.0, 2.0, 1.0),
        cell_size=(0.5, 0.5, 0.25),
        capacity=5,
    )
    assert spec.grid_shape == (4, 4, 4)
    _, coords = assign_cells(cloud_from_xyz([[0.6, 1.6, 0.3]]), spec)
    np.testing.assert_array_equal(coords, [[1, 3, 1]])  # (iz, iy, ix)


def test_grid_spec_json_roundtrip_and_validation():
    spec = GridSpec.kitti_pillar_defaults()
    back = GridSpec.from_doc(json.loads(json.dumps(spec.to_doc())))
    assert back == spec
    assert spec.grid_shape == (496, 432)
    assert GridSpec.kitti_voxel_defaults().capacity == 5
    with pytest.raises(ValidationError):
        GridSpec(
            mode="pillar",
            range_min=(0, 0, 0),
            range_max=(1, 1, 1),
            cell_size=(-1.0, 1.0, 1.0),
            capacity=4,
        )
    with pytest.raises(ValidationError):
        GridSpec(
            mode="pillar",
            range_min=(0, 0, 0),
            range_max=(1, 1, 1),
            cell_size=(2.0, 1.0, 1.0),  # derived x dimension would be 0
            capacity=4,
        )


def test_cell_batch_from_arrays_masks_and_validates():
    data = np.ones((2, 3, 2))
    batch = cell_batch_from_arrays(data, np.array([1, 3]))
    assert not batch.data[0, 1:].any()
    np.testing.assert_array_equal(batch.data[1], np.ones((3, 2)))
    with pytest.raises(ValidationError):
        cell_batch_from_arrays(data, np.array([0, 3]))  # below 1
    with pytest.raises(ValidationError):
        cell_batch_from_arrays(np.ones((2, 3)))  # not 3-D


@pytest.mark.parametrize("shape", [(5, 7, 3), (1, 1, 4), (0, 3, 2)])
def test_full_cells_without_counts_match_the_dense_constructor(shape):
    k, n, c = shape
    data = np.random.default_rng(0).standard_normal(shape)
    data[..., 0] = -0.0  # signed zeros keep their bits
    fast, dense = cell_batch_from_arrays(data), CellBatch(data, np.full(k, n))
    assert fast.rows.tobytes() == dense.rows.tobytes() and fast.rows.shape == dense.rows.shape
    assert fast.valid_count.tobytes() == dense.valid_count.tobytes()
    assert fast.valid_count.dtype == dense.valid_count.dtype and fast.capacity == n
    with pytest.raises(ValidationError):
        cell_batch_from_arrays(data.reshape(k * n, c))  # 2-D
    with pytest.raises(ValidationError):
        cell_batch_from_arrays(np.ones((k + 1, 0, 2)))  # no slots


def test_cell_batch_constructor_refuses_bad_slots_or_counts():
    with pytest.raises(ValidationError, match="cell data must be"):
        CellBatch(np.zeros((2, 3)), [1, 1])  # not 3-D
    with pytest.raises(ValidationError, match="valid_count"):
        CellBatch(np.ones((2, 3, 4)), [5, 1])  # 5 rows claimed of a 3-slot cell
    with pytest.raises(ValidationError, match="valid_count"):
        CellBatch(np.ones((2, 3, 4)), [3])  # one count for two cells
    for counts in ([2.9, 1.5], [2.0, np.nan], [np.inf, 1.0], [1.0, -np.inf]):
        with pytest.raises(ValidationError, match="valid_count must be integers"):
            CellBatch(np.ones((2, 3, 1)), counts)
    assert CellBatch(np.ones((2, 3, 1)), [3.0, 1.0]).valid_count.tolist() == [3, 1]


@pytest.mark.parametrize(
    "rows, counts",
    [
        pytest.param(np.ones((5, 2)), np.array([2, 2]), id="a-row-too-many"),
        pytest.param(np.ones((3, 2)), np.array([2, 2]), id="a-row-too-few"),
        pytest.param(np.ones(4), np.array([2, 2]), id="rows-1-D"),
        pytest.param(np.ones((4, 2)), np.array([[2, 2]]), id="counts-2-D"),
    ],
)
def test_cell_batch_from_rows_refuses_mismatched_shapes(rows, counts):
    with pytest.raises(ValidationError, match="must be \\(P, C\\)"):
        CellBatch.from_rows(rows, counts, 3)
    assert CellBatch.from_rows(np.ones((4, 2)), np.array([2, 2]), 3).num_cells == 2


def _dense_reference_batch(cloud, spec):
    """The zero-padded slot builder: (data, valid_count, cell_coords).

    It fills (K, capacity, C) slot buffers, masks the unused slots to zero
    and takes each centroid as a sum over all of a cell's slots, padding
    included. ``build_cell_batch`` must match it bitwise.
    """
    n = spec.capacity
    dims = spec.grid_shape
    c_raw = cloud.num_channels
    c_dec = c_raw + 5 if spec.decorate else c_raw
    point_idx, coords = assign_cells(cloud, spec)
    if point_idx.size == 0:
        return np.zeros((0, n, c_dec)), np.zeros(0, np.int64), np.empty((0, len(dims)), np.int64)
    flat = np.ravel_multi_index(tuple(coords.T), dims)
    order = np.argsort(flat, kind="stable")
    flat_sorted = flat[order]
    points_sorted = point_idx[order]
    uniq, start, counts = np.unique(flat_sorted, return_index=True, return_counts=True)
    if uniq.size > spec.max_cells:
        rank = np.sort(np.lexsort((uniq, -counts))[: spec.max_cells])
        uniq, start, counts = uniq[rank], start[rank], counts[rank]
    k = uniq.size
    kept = np.minimum(counts, n)
    slot_rows = np.zeros((k, n), dtype=np.int64)
    for i in range(k):
        grp = points_sorted[start[i] : start[i] + counts[i]]
        if counts[i] > n and spec.overflow == "seeded-subsample":
            rng = np.random.default_rng([spec.overflow_seed, int(uniq[i])])
            grp = np.sort(rng.choice(grp, size=n, replace=False))
        slot_rows[i, : kept[i]] = grp[: kept[i]]
    data = np.zeros((k, n, c_dec))
    slot_valid = (np.arange(n)[None, :] < kept[:, None])[:, :, None]
    data[:, :, :c_raw] = np.where(slot_valid, cloud.points[slot_rows], 0.0)
    cell_coords = np.stack(np.unravel_index(uniq, dims), axis=1).astype(np.int64)
    if spec.decorate:
        xyz = data[:, :, :3]
        centroid = xyz.sum(axis=1) / kept[:, None]  # padding slots add zeros
        data[:, :, c_raw : c_raw + 3] = np.where(slot_valid, xyz - centroid[:, None, :], 0.0)
        centers = spec.cell_centers_xy(cell_coords)
        data[:, :, c_raw + 3 :] = np.where(slot_valid, data[:, :, :2] - centers[:, None, :], 0.0)
    return data, kept, cell_coords


# signed zeros sit on a cell boundary, where a padded centroid sum and a
# per-cell sum can disagree on the sign of a zero
_COORD = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.5, 1e-300]),
    st.floats(-2.5, 2.5, allow_nan=False, width=32),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_build_cell_batch_matches_dense_reference(data):
    base = data.draw(st.lists(st.tuples(_COORD, _COORD, _COORD, _COORD), min_size=1, max_size=12))
    picks = data.draw(st.lists(st.integers(0, len(base) - 1), max_size=60))  # duplicates
    cloud = PointCloud(np.array([base[i] for i in picks]).reshape(-1, 4))
    spec = GridSpec(
        mode=data.draw(st.sampled_from(["pillar", "voxel"])),
        range_min=(-2.0, -2.0, -2.0),
        range_max=(2.0, 2.0, 2.0),
        cell_size=(1.0, 1.0, 2.0),
        capacity=data.draw(st.sampled_from([1, 2, 3, 9])),
        max_cells=data.draw(st.integers(1, 20)),
        overflow=data.draw(st.sampled_from(["keep-first", "seeded-subsample"])),
        overflow_seed=data.draw(st.integers(0, 3)),
        decorate=data.draw(st.booleans()),
    )
    dense, valid_count, cell_coords = _dense_reference_batch(cloud, spec)
    batch = build_cell_batch(cloud, spec)
    occupied = np.arange(spec.capacity)[None, :] < valid_count[:, None]
    assert batch.rows.tobytes() == dense[occupied].tobytes()
    assert batch.data.tobytes() == dense.tobytes()
    assert batch.valid_count.tolist() == valid_count.tolist()
    assert batch.cell_coords.tobytes() == cell_coords.tobytes()
    assert batch.capacity == spec.capacity
    assert batch.num_channels == dense.shape[2]
    assert valid_count.sum() + sum(batch.dropped.values()) == cloud.num_points


def test_dense_constructor_gathers_rows_and_ignores_padding():
    spec = small_pillar_spec(capacity=4, decorate=True)
    rng = np.random.default_rng(3)
    xyz = rng.uniform([0, 0, -1], [3, 3, 1], size=(40, 3))
    batch = build_cell_batch(cloud_from_xyz(xyz), spec)
    assert (batch.valid_count < 4).any() and (batch.valid_count == 4).any()
    assert CellBatch(batch.data, batch.valid_count).rows.tobytes() == batch.rows.tobytes()

    noisy = batch.data.copy()
    noisy[np.arange(4)[None, :] >= batch.valid_count[:, None]] = 7.0
    dense = CellBatch(noisy, batch.valid_count, batch.cell_coords, spec, batch.channel_names)
    assert dense.rows.tobytes() == batch.rows.tobytes()
    assert dense.data.tobytes() == batch.data.tobytes()  # padding reads back as zero
    assert not dense.data.flags.writeable


def _dense_reference_map(features, coords, shape):
    """The dense writer's grid: zeros, then each cell's row assigned in place.

    ``FeatureMap.save`` must write exactly ``grid.tofile`` of it.
    """
    grid = np.zeros(shape)
    grid[tuple(coords.T)] = features
    return grid


# zero and -0.0 rows must be written as stored, not skipped as empty cells
_ROW_KINDS = st.sampled_from(["random", "zero", "negative-zero"])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_feature_map_save_matches_dense_writer(data, tmp_path_factory):
    mode = data.draw(st.sampled_from(["pillar", "voxel"]))
    dims = data.draw(st.lists(st.integers(1, 7), min_size=3, max_size=3))  # nx, ny, nz
    spec = GridSpec(
        mode=mode,
        range_min=(0.0, 0.0, 0.0),
        range_max=tuple(float(d) for d in dims),
        cell_size=(1.0, 1.0, 1.0),
        capacity=1,
    )
    grid = spec.grid_shape
    channels = data.draw(st.integers(1, 4))
    total = int(np.prod(grid))
    flat = data.draw(st.lists(st.integers(0, total - 1), unique=True, max_size=total))
    coords = np.stack(np.unravel_index(np.array(flat, dtype=np.int64), grid), axis=1)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    features = rng.standard_normal((len(flat), channels))
    for row, kind in enumerate(data.draw(st.lists(_ROW_KINDS, min_size=len(flat),
                                                  max_size=len(flat)))):
        if kind != "random":
            features[row] = -0.0 if kind == "negative-zero" else 0.0

    reference = _dense_reference_map(features, coords, grid + (channels,))
    out = tmp_path_factory.mktemp("map")
    reference.tofile(out / "reference.bin")
    fmap = scatter_to_grid(features, coords, spec)
    blob, header = fmap.save(out / "map", dense=True)
    assert blob.read_bytes() == (out / "reference.bin").read_bytes()
    assert json.loads(header.read_text())["shape"] == list(reference.shape)
    assert fmap.shape == reference.shape
    assert fmap.values.tobytes() == reference.tobytes()
    probe = np.stack(np.unravel_index(np.arange(total), grid), axis=1)  # stored and empty cells
    assert fmap.gather(probe).tobytes() == reference.reshape(total, channels).tobytes()
    assert fmap.gather(coords).tobytes() == features.tobytes()


@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
def test_feature_map_dense_constructor_keeps_zero_cells_bitwise(tmp_path, dense):
    values = np.zeros((3, 4, 2))
    values[1, 2] = -0.0
    values[2, 3] = [1.5, -0.0]
    fmap = FeatureMap(values)
    assert fmap.cells.size == 12  # no cell is dropped for being zero
    FeatureMap(np.ones((5, 4, 2))).save(tmp_path / "map", dense)  # a longer blob to overwrite
    fmap.save(tmp_path / "map", dense)
    back = FeatureMap.load(tmp_path / "map")
    assert back.values.tobytes() == values.tobytes()
    assert not back.values.flags.writeable


@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
def test_feature_map_save_that_fails_leaves_no_header(tmp_path, dense):
    FeatureMap(np.ones((2, 3, 4))).save(tmp_path / "map", dense)
    (tmp_path / "map.bin").unlink()
    (tmp_path / "map.bin").mkdir()  # the blob cannot be written
    with pytest.raises(OSError):
        FeatureMap(np.zeros((2, 3, 4))).save(tmp_path / "map", dense)
    assert not (tmp_path / "map.json").exists()  # so no stale header vouches for the blob


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_feature_map_sparse_roundtrip_is_bitwise(data, tmp_path_factory):
    grid = tuple(data.draw(st.lists(st.integers(1, 6), min_size=2, max_size=3)))  # pillar, voxel
    channels = data.draw(st.integers(1, 4))
    total = int(np.prod(grid))
    flat = np.array(data.draw(st.lists(st.integers(0, total - 1), unique=True, max_size=total)),
                    dtype=np.int64)  # K = 0 included
    cells = np.sort(flat)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    features = rng.standard_normal((cells.size, channels))
    for row, kind in enumerate(data.draw(st.lists(_ROW_KINDS, min_size=cells.size,
                                                  max_size=cells.size))):
        if kind != "random":
            features[row] = -0.0 if kind == "negative-zero" else 0.0
    fmap = FeatureMap.from_cells(features, cells, grid + (channels,))
    out = tmp_path_factory.mktemp("map")
    blob, header = fmap.save(out / "map")
    assert json.loads(header.read_text())["num_cells"] == cells.size
    assert blob.stat().st_size == 8 * cells.size * (len(grid) + channels)
    back = FeatureMap.load(out / "map")
    assert back.shape == fmap.shape
    assert back.cells.dtype == np.int64 and back.cells.tobytes() == cells.tobytes()
    assert back.features.dtype == np.float64 and back.features.tobytes() == features.tobytes()
    # the same map read from the dense file reads back the same everywhere
    fmap.save(out / "dense", dense=True)
    dense = FeatureMap.load(out / "dense")
    assert dense.values.tobytes() == back.values.tobytes()
    probe = np.stack(np.unravel_index(np.arange(total), grid), axis=1)
    assert dense.gather(probe).tobytes() == back.gather(probe).tobytes()


def test_feature_map_loads_a_dense_file_from_before_the_layout_key(tmp_path):
    grid = np.zeros((3, 4, 2))
    grid[1, 2] = [2.5, -0.0]
    grid.tofile(tmp_path / "old.bin")
    (tmp_path / "old.json").write_text(
        json.dumps({"shape": [3, 4, 2], "dtype": "f64", "order": "row-major"}, indent=2)
    )
    fmap = FeatureMap.load(tmp_path / "old")
    assert fmap.values.tobytes() == grid.tobytes()
    assert fmap.gather([[1, 2], [0, 0]]).tobytes() == grid[[1, 0], [2, 0]].tobytes()


def _sparse_file(tmp_path):
    """A 3-cell sparse map on a (4, 5) grid with 2 channels; returns its stem."""
    coords = np.array([[0, 1], [2, 0], [3, 4]])
    fmap = FeatureMap.from_cells(np.arange(6.0).reshape(3, 2),
                                 np.ravel_multi_index(tuple(coords.T), (4, 5)), (4, 5, 2))
    fmap.save(tmp_path / "map")
    return tmp_path / "map"


def _rewrite_coords(coords):
    def corrupt(stem):
        blob = stem.with_suffix(".bin")
        data = np.fromfile(blob, dtype=np.int64)
        data[:6] = np.asarray(coords).ravel()
        data.tofile(blob)

    return corrupt


def _rewrite_header(**changes):
    def corrupt(stem):
        header = stem.with_suffix(".json")
        header.write_text(json.dumps({**json.loads(header.read_text()), **changes}))

    return corrupt


def _resize_blob(delta):
    def corrupt(stem):
        blob = stem.with_suffix(".bin")
        raw = blob.read_bytes()
        blob.write_bytes(raw[:delta] if delta < 0 else raw + bytes(delta))

    return corrupt


# faults caught from the header and the blob's size alone; the rest need the coords
_SIZE_FAULTS = [
    pytest.param(_resize_blob(-1), id="truncated"),
    pytest.param(_resize_blob(-8), id="truncated-whole-value"),
    pytest.param(_resize_blob(48), id="over-long"),
    pytest.param(_rewrite_header(num_cells=-3), id="num-cells-negative"),
    pytest.param(_rewrite_header(num_cells=4), id="num-cells-mismatch"),
    pytest.param(_rewrite_header(num_cells=2**62), id="num-cells-huge"),
    pytest.param(_rewrite_header(num_cells="3"), id="num-cells-string"),
    pytest.param(_rewrite_header(num_cells=True), id="num-cells-bool"),
    pytest.param(_rewrite_header(num_cells=None), id="num-cells-null"),
    pytest.param(_rewrite_header(layout="csr"), id="unknown-layout"),
    pytest.param(_rewrite_header(shape=[4, 5]), id="shape-one-channel-short"),
    pytest.param(_rewrite_header(shape=[2]), id="shape-without-grid"),
    pytest.param(_rewrite_header(shape=[2**40, 2**40, 2]), id="grid-too-large"),
]


@pytest.mark.parametrize("corrupt", _SIZE_FAULTS)
def test_malformed_sparse_header_or_size_is_refused_before_reading(tmp_path, monkeypatch,
                                                                   corrupt):
    stem = _sparse_file(tmp_path)
    corrupt(stem)

    def read(*args, **kwargs):
        raise AssertionError("the blob was read")

    monkeypatch.setattr(np, "fromfile", read)
    with pytest.raises(FileFormatError):
        FeatureMap.load(stem)


@pytest.mark.parametrize(
    "coords",
    [
        pytest.param([[0, 1], [2, 0], [4, 4]], id="row-out-of-range"),
        pytest.param([[0, 1], [2, 5], [3, 4]], id="column-out-of-range"),
        pytest.param([[-1, 1], [2, 0], [3, 4]], id="negative"),
        pytest.param([[2, 0], [0, 1], [3, 4]], id="unsorted"),
        pytest.param([[0, 1], [0, 1], [3, 4]], id="duplicated"),
    ],
)
def test_malformed_sparse_coords_are_refused(tmp_path, coords):
    stem = _sparse_file(tmp_path)
    _rewrite_coords(coords)(stem)
    with pytest.raises(FileFormatError):
        FeatureMap.load(stem)
    _rewrite_coords([[0, 1], [2, 0], [3, 4]])(stem)  # the intact file loads
    assert FeatureMap.load(stem).gather([[2, 0]]).tolist() == [[2.0, 3.0]]

