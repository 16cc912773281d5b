import json

import numpy as np
import pytest

from pillarkit import (
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


def test_feature_map_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    fmap = FeatureMap(rng.standard_normal((4, 6, 3)))
    fmap.save(tmp_path / "map")
    back = FeatureMap.load(tmp_path / "map")
    assert back.values.tobytes() == fmap.values.tobytes()
    header = json.loads((tmp_path / "map.json").read_text())
    assert header == {"shape": [4, 6, 3], "dtype": "f64", "order": "row-major"}


def test_feature_map_save_writes_row_major_bytes_of_any_layout(tmp_path):
    values = np.asfortranarray(np.random.default_rng(6).standard_normal((3, 5, 2)))
    blob, _ = FeatureMap(values).save(tmp_path / "map")
    assert blob.read_bytes() == values.tobytes(order="C")


def test_scatter_rejects_a_grid_larger_than_physical_memory(monkeypatch):
    # the limit is patched, so the check is tested without allocating
    spec = small_pillar_spec()
    needed = 8 * 10 * 10 * 3
    monkeypatch.setattr(gridding, "physical_memory_bytes", lambda: needed)
    assert scatter_to_grid(np.ones((1, 3)), np.array([[0, 0]]), spec).values.nbytes == needed
    monkeypatch.setattr(gridding, "physical_memory_bytes", lambda: needed - 1)
    with pytest.raises(ValidationError, match="physical memory"):
        scatter_to_grid(np.ones((1, 3)), np.array([[0, 0]]), spec)
    voxel = GridSpec.kitti_voxel_defaults()
    monkeypatch.setattr(gridding, "physical_memory_bytes", lambda: 40 * 2**30)
    with pytest.raises(ValidationError, match=r"\(40, 1600, 1408, 64\) needs 43.0 GiB"):
        scatter_to_grid(np.zeros((0, 64)), np.zeros((0, 3), dtype=np.int64), voxel)


def test_feature_map_load_rejects_blob_not_matching_header(tmp_path):
    FeatureMap(np.zeros((2, 3, 4))).save(tmp_path / "map")
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
    back = GridSpec.from_json(spec.to_json())
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
