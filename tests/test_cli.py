import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from pillarkit import (
    AggregationWeights,
    FeatureMap,
    GridSpec,
    MlpParams,
    PointCloud,
    cell_batch_from_arrays,
    descriptor_backward,
    descriptor_forward,
    gridding,
    load_kitti_bin,
    write_kitti_bin,
)
from pillarkit import cli
from pillarkit.cli import main
from pillarkit.descriptor import _group_workers


@pytest.fixture()
def small_grid_config(tmp_path):
    """Config with a small grid and light check/bench settings for fast runs."""
    doc = {
        "seed": 0,
        "grid": {
            "mode": "pillar",
            "range_min": [0.0, 0.0, -1.0],
            "range_max": [8.0, 8.0, 1.0],
            "cell_size": [1.0, 1.0, 2.0],
            "capacity": 8,
            "max_cells": 64,
            "decorate": True,
        },
        "descriptor": {"kind": "weighted", "mlp_widths": [16]},
        "toy": {"cells_per_class": 32, "n_points": 8, "channels": 3},
        "train": {"steps": 40, "batch_size": 8, "eval_every": 20},
        "check": {"cells": 60, "shuffles": 2, "grad_configs": 3},
        "bench": {
            "num_cells": 32,
            "n_points": 8,
            "channels": 8,
            "repetitions": 2,
            "mlp_widths": [8],
            "scaling_n": [4, 8],
            "scaling_points": 256,
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture()
def scan_file(tmp_path):
    rng = np.random.default_rng(0)
    pts = np.column_stack(
        [
            rng.uniform(0, 8, 300),
            rng.uniform(0, 8, 300),
            rng.uniform(-1, 1, 300),
            rng.uniform(0, 1, 300),
        ]
    ).astype(np.float32).astype(np.float64)
    path = tmp_path / "scan.bin"
    write_kitti_bin(PointCloud(pts), path)
    return path


DROP_KEYS = ("points_out_of_range", "points_over_capacity", "points_in_dropped_cells")


def assert_drops_add_up(summary):
    """Every input point is either kept or counted under exactly one drop reason."""
    assert all(summary[key] >= 0 for key in DROP_KEYS)
    assert summary["points_kept"] + sum(summary[key] for key in DROP_KEYS) == summary["num_points"]


@pytest.mark.parametrize(
    "points",
    [
        np.empty((0, 4)),  # an empty .bin
        np.array([[20.0, 4.0, 0.0, 0.5], [4.0, -3.0, 0.0, 0.5], [4.0, 4.0, 5.0, 0.5]]),
        np.array([[8.0, 4.0, 0.0, 0.5]]),  # exactly at range_max, which is excluded
    ],
    ids=["empty", "all-out-of-range", "at-range-max"],
)
def test_featurize_empty_cloud(tmp_path, small_grid_config, points, capsys):
    cloud_path = tmp_path / "cloud.bin"
    write_kitti_bin(PointCloud(points), cloud_path)
    out = tmp_path / "out"
    code = main(
        ["featurize", "--input", str(cloud_path), "--config", str(small_grid_config),
         "--out", str(out)]
    )
    assert code == 0
    assert "kept none" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["num_points"] == len(points)
    assert summary["num_cells"] == 0
    assert summary["points_kept"] == 0
    assert summary["points_out_of_range"] == len(points)
    assert_drops_add_up(summary)
    assert summary["fill_histogram"] == []
    assert summary["map_bytes"] == 0
    fmap = FeatureMap.load(out / "featuremap")
    assert fmap.cells.size == 0 and fmap.features.shape == (0, 16)
    header = json.loads((out / "featuremap.json").read_text())
    assert header["shape"] == [8, 8, 16]
    assert header["num_cells"] == 0


def test_featurize_summary_counts_kept_points(tmp_path, small_grid_config, scan_file, capsys):
    config = json.loads(small_grid_config.read_text())
    config["grid"]["capacity"] = 1
    path = tmp_path / "capacity-1.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main(["featurize", "--input", str(scan_file), "--config", str(path), "--out", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    assert "kept none" not in err
    assert "warning: capacity and max_cells dropped" in err  # most points are over capacity
    summary = json.loads((out / "summary.json").read_text())
    # 300 points over 64 cells: every occupied cell is full at one point
    assert summary["num_cells"] > 50
    assert summary["fill_histogram"] == [summary["num_cells"]]
    assert summary["group_workers"] == _group_workers() >= 1
    assert summary["points_kept"] == summary["num_cells"]


@pytest.mark.parametrize(
    "grid, reason",
    [({"capacity": 300}, None), ({"capacity": 1}, "points_over_capacity"),
     ({"capacity": 300, "max_cells": 1}, "points_in_dropped_cells")],
    ids=["capacity-300", "capacity-1", "max-cells-1"],
)
def test_featurize_summary_accounts_for_every_point(
    tmp_path, small_grid_config, scan_file, grid, reason
):
    config = json.loads(small_grid_config.read_text())
    config["grid"].update(grid)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    outside = np.array([[20.0, 4.0, 0.0, 0.5], [4.0, -3.0, 0.0, 0.5], [4.0, 4.0, 5.0, 0.5]])
    cloud = PointCloud(np.vstack([load_kitti_bin(scan_file).points, outside]))
    cloud_path = tmp_path / "cloud.bin"
    write_kitti_bin(cloud, cloud_path)
    out = tmp_path / "out"
    assert main(["featurize", "--input", str(cloud_path), "--config", str(path),
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["points_out_of_range"] == len(outside)
    for key in DROP_KEYS[1:]:
        assert (summary[key] > 0) == (key == reason)
    assert_drops_add_up(summary)
    stages = summary["stage_s"]
    assert set(stages) == {"load", "batch", "forward", "scatter", "save"}
    assert all(seconds >= 0 for seconds in stages.values())
    assert sum(stages.values()) <= summary["elapsed_s"]


def test_featurize_fill_histogram_ends_at_the_fullest_cell(
    tmp_path, small_grid_config, scan_file
):
    config = json.loads(small_grid_config.read_text())
    config["grid"]["capacity"] = 1_000_000
    path = tmp_path / "huge-capacity.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["featurize", "--input", str(scan_file), "--config", str(path),
                 "--out", str(out)]) == 0
    batch = gridding.build_cell_batch(
        load_kitti_bin(scan_file), gridding.GridSpec.from_doc(config["grid"])
    )
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["fill_histogram"]) == batch.valid_count.max()
    assert sum(summary["fill_histogram"]) == summary["num_cells"]


@pytest.mark.parametrize("over_capacity, warns", [(10, False), (11, True)])
def test_featurize_warns_when_caps_drop_over_a_tenth_of_in_range_points(
    tmp_path, small_grid_config, capsys, over_capacity, warns
):
    # 100 points in range, in cells of the small grid's capacity 8, one cell
    # overflowing by ``over_capacity``; 20 more points lie out of range and
    # do not count toward the share
    cells = [(0, 0)] * (8 + over_capacity)
    for i in range(1, 20):
        cells += [(i % 8, i // 8)] * min(8, 100 - len(cells))
    centers = np.array(cells, dtype=np.float64) + 0.5
    points = np.column_stack([centers, np.zeros(len(cells)), np.full(len(cells), 0.5)])
    outside = np.tile([[20.0, 4.0, 0.0, 0.5]], (20, 1))
    path = tmp_path / "scan.bin"
    write_kitti_bin(PointCloud(np.vstack([points, outside])), path)
    out = tmp_path / "out"
    capsys.readouterr()
    code = main(["featurize", "--input", str(path), "--config", str(small_grid_config),
                 "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["num_points"] - summary["points_out_of_range"] == 100
    assert summary["points_over_capacity"] == over_capacity
    assert_drops_add_up(summary)
    err = capsys.readouterr().err
    assert ("warning: capacity and max_cells dropped" in err) == warns


def test_featurize_truncated_bin_is_io_error(tmp_path, small_grid_config, scan_file):
    truncated = tmp_path / "truncated.bin"
    truncated.write_bytes(scan_file.read_bytes()[:-5])
    code = main(
        ["featurize", "--input", str(truncated), "--config", str(small_grid_config),
         "--out", str(tmp_path / "out")]
    )
    assert code == 3


def test_featurize_and_train_toy_never_build_dense_slots(tmp_path, small_grid_config, scan_file,
                                                        monkeypatch):
    def dense_read(batch):
        raise AssertionError("the dense (K, N, C) slot buffer was built")

    def dense_map_read(fmap):
        raise AssertionError("the dense feature grid was built")

    monkeypatch.setattr(gridding.CellBatch, "data", property(dense_read))
    monkeypatch.setattr(gridding.FeatureMap, "values", property(dense_map_read))
    code = main(["featurize", "--input", str(scan_file), "--config", str(small_grid_config),
                 "--out", str(tmp_path / "featurize")])
    assert code == 0
    code = main(["train-toy", "--config", str(small_grid_config),
                 "--out", str(tmp_path / "train")])
    assert code == 0


def test_featurize_and_training_step_never_gather_groups_or_route_along_axis(
    tmp_path, small_grid_config, scan_file, monkeypatch
):
    # the fill-major layout makes every fill group a view of the embedding, and
    # up to 12 points training counts ranks and routes gradients through them:
    # no per-group np.take row gather, no take_along_axis read of the sorted
    # values, no put_along_axis scatter
    rng = np.random.default_rng(5)
    counts = rng.integers(1, 9, size=40)
    batch = cell_batch_from_arrays(rng.standard_normal((counts.size, 8, 3)), counts)
    params = MlpParams.create(3, (6, 4), seed=5)
    weights = AggregationWeights(rng.standard_normal(8))

    def gather(*args, **kwargs):
        raise AssertionError("a per-group gather or along-axis scatter ran")

    for name in ("take", "take_along_axis", "put_along_axis"):
        monkeypatch.setattr(np, name, gather)
    code = main(["featurize", "--input", str(scan_file), "--config", str(small_grid_config),
                 "--out", str(tmp_path / "featurize")])
    assert code == 0
    assert len(np.unique(counts)) > 1
    for kind, w in (("weighted", weights), ("max", None)):
        features, cache = descriptor_forward(params, w, batch, kind)
        descriptor_backward(cache, np.ones_like(features))


@pytest.mark.parametrize("layout", [[], ["--dense"]], ids=["sparse", "dense"])
def test_featurize_deterministic_output_files(tmp_path, small_grid_config, scan_file, layout):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(
            ["featurize", "--input", str(scan_file), "--config", str(small_grid_config),
             "--seed", "5", "--out", str(out), *layout]
        )
        assert code == 0
        outs.append(out)
    assert (outs[0] / "featuremap.bin").read_bytes() == (outs[1] / "featuremap.bin").read_bytes()
    assert (outs[0] / "featuremap.json").read_text() == (outs[1] / "featuremap.json").read_text()


def test_featurize_weighted_unit_equals_max_end_to_end(tmp_path, small_grid_config, scan_file):
    out_w = tmp_path / "weighted"
    out_m = tmp_path / "maxed"
    for kind, out in (("weighted", out_w), ("max", out_m)):
        code = main(
            ["featurize", "--input", str(scan_file), "--config", str(small_grid_config),
             "--seed", "5", "--descriptor", kind, "--out", str(out)]
        )
        assert code == 0
    assert (out_w / "featuremap.bin").read_bytes() == (out_m / "featuremap.bin").read_bytes()


def test_featurize_missing_input_is_io_error(tmp_path, small_grid_config):
    code = main(
        ["featurize", "--input", str(tmp_path / "missing.bin"),
         "--config", str(small_grid_config), "--out", str(tmp_path / "out")]
    )
    assert code == 3


def test_featurize_voxel_defaults_exit_config_error_before_allocating(
    tmp_path, scan_file, monkeypatch
):
    # the dense default voxel grid is 43 GiB; the limit is patched so that no
    # machine would try to allocate it
    monkeypatch.setattr(gridding, "physical_memory_bytes", lambda: 2**30)
    code = main(["featurize", "--input", str(scan_file), "--mode", "voxel",
                 "--out", str(tmp_path / "out"), "--dense"])
    assert code == 2
    assert not (tmp_path / "out" / "featuremap.bin").exists()


def test_featurize_voxel_defaults_write_a_sparse_map(tmp_path, scan_file, monkeypatch):
    # the sparse map never needs the 43 GiB dense grid, whatever the memory
    monkeypatch.setattr(gridding, "physical_memory_bytes", lambda: 2**30)
    out = tmp_path / "out"
    code = main(["featurize", "--input", str(scan_file), "--mode", "voxel", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    header = json.loads((out / "featuremap.json").read_text())
    assert header["layout"] == "sparse"
    assert header["shape"] == [40, 1600, 1408, 64]
    assert header["num_cells"] == summary["num_cells"] > 0
    assert summary["map_bytes"] == 8 * summary["num_cells"] * (3 + 64)
    fmap = FeatureMap.load(out / "featuremap")
    assert fmap.features.shape == (summary["num_cells"], 64)


def test_featurize_voxel_defaults_keep_more_than_12000_occupied_voxels(tmp_path):
    # one point at the centre of each of 13,000 distinct default voxels: more
    # than the pillar default max_cells, fewer than the voxel default's 40,000
    spec = GridSpec.kitti_voxel_defaults()
    rng = np.random.default_rng(11)
    flat = rng.choice(int(np.prod(spec.grid_shape)), size=13000, replace=False)
    iz, iy, ix = np.unravel_index(flat, spec.grid_shape)
    xyz = np.column_stack([ix, iy, iz]) + 0.5
    xyz = np.asarray(spec.range_min) + xyz * np.asarray(spec.cell_size)
    scan = tmp_path / "scan.bin"
    write_kitti_bin(PointCloud(np.column_stack([xyz, np.zeros(len(xyz))])), scan)
    out = tmp_path / "out"
    assert main(["featurize", "--input", str(scan), "--mode", "voxel", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["num_cells"] == summary["points_kept"] == 13000
    assert summary["points_in_dropped_cells"] == 0


def test_featurize_sparse_and_dense_maps_hold_the_same_grid(tmp_path, small_grid_config,
                                                           scan_file):
    summaries = {}
    for layout in ("sparse", "dense"):
        code = main(["featurize", "--input", str(scan_file), "--config", str(small_grid_config),
                     "--out", str(tmp_path / layout), *(["--dense"] if layout == "dense" else [])])
        assert code == 0
        summaries[layout] = json.loads((tmp_path / layout / "summary.json").read_text())
    for layout, summary in summaries.items():
        assert summary["map_layout"] == layout
        assert summary["map_bytes"] == (tmp_path / layout / "featuremap.bin").stat().st_size
    cells = summaries["sparse"]["num_cells"]
    assert summaries["sparse"]["map_bytes"] == 8 * cells * (2 + 16)
    assert summaries["dense"]["map_bytes"] == 8 * 8 * 8 * 16
    dense_header = json.loads((tmp_path / "dense" / "featuremap.json").read_text())
    assert dense_header == {"shape": [8, 8, 16], "dtype": "f64", "order": "row-major"}
    sparse = FeatureMap.load(tmp_path / "sparse" / "featuremap")
    assert sparse.cells.size == cells
    assert (tmp_path / "dense" / "featuremap.bin").read_bytes() == sparse.values.tobytes()


def test_bad_config_is_config_error(tmp_path, scan_file):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(
        ["featurize", "--input", str(scan_file), "--config", str(bad),
         "--out", str(tmp_path / "out")]
    )
    assert code == 2


@pytest.mark.parametrize(
    ("command", "config", "message"),
    [
        ("train-toy", {"trian": {"steps": 5}}, "'trian'; did you mean 'train'?"),
        ("train-toy", {"train": {"step": 5}}, "'train.step'; did you mean 'train.steps'?"),
        ("train-toy", {"task": {"cells_per_class": 4}}, "'task'"),
        ("bench", {"bench": {"input_channels": 9}}, "'bench.input_channels'"),
        ("bench", {"bench": {"scaling_channels": 8}}, "'bench.scaling_channels'"),
    ],
)
def test_unknown_config_key_is_config_error(tmp_path, capsys, command, config, message):
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps(config))
    argv = [command, "--config", str(cfg)]
    if command == "train-toy":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert f"unknown config key {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("command", "config"),
    [
        ("featurize", {"descriptor": {"knd": "max"}}),
        ("train-toy", {"train": {"step": 5}}),
        ("train-toy", {"toy": {"cells_per_class": 0}}),
    ],
)
def test_a_config_error_leaves_no_output_directory(tmp_path, scan_file, command, config):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if command == "featurize":
        argv += ["--input", str(scan_file)]
    assert main(argv) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    ("command", "config", "what"),
    [
        # 2 MiB of cells, against the patched 1 MiB
        ("train-toy", {"toy": {"cells_per_class": 1024}}, "a toy dataset of 2048 cells"),
        # a first layer of 1.6 MB
        ("train-toy", {"toy": {"cells_per_class": 4}, "train": {"mlp_widths": [50000]}},
         "a (4, 50000) MLP layer"),
        ("featurize", {"descriptor": {"mlp_widths": [50000]}}, "MLP layer"),
        # a 640 KB first layer, but 6 cells of 32 points make 31 MB of its outputs
        ("train-toy", {"toy": {"cells_per_class": 4},
                       "train": {"mlp_widths": [20000], "steps": 1, "eval_every": 1}},
         "train.mlp_widths"),
        # a 72 KB first layer, but the scan's 1-point cells make over 1.6 MB of its outputs
        ("featurize", {"descriptor": {"mlp_widths": [1000]}}, "descriptor.mlp_widths"),
    ],
)
def test_sizes_beyond_physical_memory_exit_2_before_any_output(
    tmp_path, scan_file, monkeypatch, capsys, command, config, what
):
    # the limit is patched, so the check is tested without allocating
    monkeypatch.setattr(gridding, "physical_memory_bytes", lambda: 2**20)
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if command == "featurize":
        argv += ["--input", str(scan_file)]
    assert main(argv) == 2
    assert what in capsys.readouterr().err
    assert not out.exists()


class ConfigRead(Exception):
    """Raised in place of a command's work, once its config has been read."""


@pytest.mark.parametrize(
    ("command", "owner", "work"),
    [
        ("featurize", cli, "descriptor_forward"),
        ("train-toy", cli, "train_descriptor"),
        ("check-grad", cli, "run_gradient_check_suite"),
        ("prop-test", cli.checks_mod, "run_property_suites"),
        ("bench", cli.bench_mod, "bench_descriptor"),
    ],
)
def test_readme_config_example_is_accepted(
    tmp_path, scan_file, monkeypatch, command, owner, work
):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"### Config file.*?```json\n(.*?)```", readme, re.S).group(1)
    cfg = tmp_path / "readme.json"
    cfg.write_text(example)

    def reached(*args, **kwargs):
        raise ConfigRead

    monkeypatch.setattr(owner, work, reached)
    argv = [command, "--config", str(cfg)]
    if command == "featurize":
        argv += ["--input", str(scan_file)]
    if command in ("featurize", "train-toy"):
        argv += ["--out", str(tmp_path / "out")]
    with pytest.raises(ConfigRead):
        main(argv)


@pytest.mark.parametrize(
    "command, key, value, expected",
    [
        ("featurize", "grid", "abc", 2),
        ("featurize", "seed", "x", 2),
        ("prop-test", "check.cells", "x", 2),
        ("prop-test", "check.cells", 20.5, 2),
        ("featurize", "descriptor.mlp_widths", "ab", 2),
        ("train-toy", "train.steps", "x", 2),
        ("train-toy", "train.steps", 2.5, 2),
        ("train-toy", "toy.cells_per_class", 2.5, 2),
        ("bench", "bench.repetitions", 2.5, 2),
        ("featurize", "grid.capacity", "abc", 2),
        ("featurize", "grid.capacity", None, 2),
        ("featurize", "grid.capacity", 3.5, 2),
        ("featurize", "grid.capacity", "32", 2),
        pytest.param(  # JSON reads 1e400 as inf
            "featurize", "grid.range_max", ["1e400", 8.0, 1.0], 2,
            id="featurize-grid.range_max-1e400-2",
        ),
        ("featurize", "grid.decorate", "false", 2),
        ("featurize", "grid.cell_size", [1e-300, 1.0, 2.0], 2),  # too many cells for int64
        ("featurize", "seed", -1, 2),
        ("train-toy", "train.seed", -1, 2),
        ("prop-test", "check.shuffles", 0, 2),
        ("check-grad", "check.grad_configs", 0, 2),
        ("bench", "bench.scaling_n", [0], 2),
        ("featurize", "grid.capacity", 10**30, 2),  # beyond int64
        ("featurize", "grid.capacity", 100_000_000_000, 2),  # a 745 GiB weight vector
        ("featurize", "descriptor.mlp_widths", [-3], 2),
        ("featurize", "descriptor.mlp_widths", [0], 2),
        ("train-toy", "train.mlp_widths", [0], 2),
        ("train-toy", "toy.cells_per_class", 1, 2),  # its one pair goes to validation
        ("train-toy", "toy.edge_band", 2.0, 2),  # label-1 interior would leave the box
        ("train-toy", "toy.edge_band", -0.1, 2),
        ("train-toy", "toy.edge_band", float("nan"), 2),
        ("train-toy", "toy.n_points", 8.0, 0),  # an integral float is an integer
    ],
)
def test_malformed_config_value_is_config_error(
    tmp_path, small_grid_config, scan_file, capsys, monkeypatch, command, key, value, expected
):
    # a size check must refuse before allocating, whatever the machine's memory
    monkeypatch.setattr(gridding, "physical_memory_bytes", lambda: 2**30)
    config = json.loads(small_grid_config.read_text())
    *sections, name = key.split(".")
    target = config
    for section in sections:
        target = target[section]
    target[name] = value
    cfg = tmp_path / "malformed.json"
    cfg.write_text(json.dumps(config).replace('"1e400"', "1e400"))
    argv = [command, "--config", str(cfg)]
    if command == "featurize":
        argv += ["--input", str(scan_file)]
    if command in ("featurize", "train-toy"):
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == expected
    if expected:
        assert "error: invalid configuration" in capsys.readouterr().err


def test_featurize_checkpoint_with_short_weight_is_io_error(tmp_path, small_grid_config, scan_file):
    # pillar points decorate to 9 channels; 10 values cannot fill a (9, 4) weight
    layer = {"shape": [9, 4], "weight": [0.1] * 10, "bias": [0.0] * 4, "activation": "relu"}
    ckpt = tmp_path / "descriptor.json"
    ckpt.write_text(json.dumps({"layers": [layer], "aggregation": None}))
    code = main(["featurize", "--input", str(scan_file), "--config", str(small_grid_config),
                 "--descriptor", "max", "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "out")])
    assert code == 3


def test_featurize_config_checkpoint_is_a_path_or_null(
    tmp_path, small_grid_config, scan_file, capsys
):
    def featurize(out: str, **descriptor) -> int:
        config = json.loads(small_grid_config.read_text())
        config["descriptor"].update(descriptor)
        cfg = tmp_path / f"{out}.json"
        cfg.write_text(json.dumps(config))
        return main(["featurize", "--input", str(scan_file), "--config", str(cfg),
                     "--out", str(tmp_path / out)])

    assert featurize("number", checkpoint=5) == 2
    assert "descriptor.checkpoint" in capsys.readouterr().err
    # a null checkpoint builds the same fresh descriptor as no checkpoint key
    assert featurize("null", checkpoint=None) == 0
    assert featurize("unset") == 0
    assert (tmp_path / "null" / "featuremap.bin").read_bytes() == (
        tmp_path / "unset" / "featuremap.bin"
    ).read_bytes()


def test_train_toy_writes_outputs_for_both_kinds(tmp_path, small_grid_config):
    for kind in ("weighted", "max"):
        out = tmp_path / kind
        code = main(
            ["train-toy", "--config", str(small_grid_config), "--descriptor", kind,
             "--out", str(out)]
        )
        assert code == 0
        lines = (out / "metrics.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2  # eval at steps 20 and 40
        record = json.loads(lines[-1])
        assert record["step"] == 40
        if kind == "weighted":  # the readout of the aggregation weights
            assert 0.0 < record["agg_last_row_mass"] < 1.0
            assert record["agg_distance_from_max_pool"] > 0.0
        else:
            assert record["agg_last_row_mass"] is record["agg_distance_from_max_pool"] is None
        final = json.loads((out / "final.json").read_text())
        previous_s = 0.0
        for line in lines:
            record = json.loads(line)
            assert np.isfinite(record["step_s"]) and record["step_s"] > 0.0
            assert set(record["grad_norm"]) == ({"agg", "head"} if kind == "weighted"
                                                else {"head"})
            assert all(np.isfinite(v) for v in record["grad_norm"].values())
            # the laps since the previous record, its own evaluation included;
            # they tile the interval up to the rounding of their differences
            assert list(record["stage_s"]) == list(final["stage_s"])
            assert min(record["stage_s"].values()) >= 0.0 and record["stage_s"]["eval"] > 0.0
            interval = record["elapsed_s"] - previous_s
            assert 0.0 < sum(record["stage_s"].values()) <= interval + 1e-9
            previous_s = record["elapsed_s"]
        for stage, total in final["stage_s"].items():  # every lap lands in one record
            assert sum(json.loads(line)["stage_s"][stage] for line in lines) == pytest.approx(total)
        assert final["kind"] == kind
        assert list(final["stage_s"]) == ["batch", "forward", "backward", "optimizer", "eval"]
        assert 0.0 < sum(final["stage_s"].values()) <= final["wall_clock_s"]
        for key in ("agg_last_row_mass", "agg_distance_from_max_pool"):
            assert final[key] == record[key]
        assert (out / "checkpoint.json").exists()


def test_train_toy_resume_matches_uninterrupted(tmp_path, small_grid_config):
    config = json.loads(small_grid_config.read_text())

    full_cfg = tmp_path / "full.json"
    config["train"]["steps"] = 40
    full_cfg.write_text(json.dumps(config))
    out_full = tmp_path / "full"
    assert main(["train-toy", "--config", str(full_cfg), "--out", str(out_full)]) == 0

    half_cfg = tmp_path / "half.json"
    config["train"]["steps"] = 20
    half_cfg.write_text(json.dumps(config))
    out_half = tmp_path / "half"
    assert main(["train-toy", "--config", str(half_cfg), "--out", str(out_half)]) == 0

    out_resumed = tmp_path / "resumed"
    code = main(
        ["train-toy", "--config", str(full_cfg),
         "--resume", str(out_half / "checkpoint.json"), "--out", str(out_resumed)]
    )
    assert code == 0
    full_ckpt = json.loads((out_full / "checkpoint.json").read_text())
    resumed_ckpt = json.loads((out_resumed / "checkpoint.json").read_text())
    assert resumed_ckpt["step"] == 40
    assert resumed_ckpt["descriptor"] == full_ckpt["descriptor"]
    assert resumed_ckpt["head"] == full_ckpt["head"]
    assert resumed_ckpt["optimizer"]["moments"] == full_ckpt["optimizer"]["moments"]
    final_full = json.loads((out_full / "final.json").read_text())
    final_resumed = json.loads((out_resumed / "final.json").read_text())
    assert final_resumed["val_accuracy"] == final_full["val_accuracy"]


@pytest.fixture()
def toy_checkpoint(tmp_path, small_grid_config):
    """A two-step train-toy checkpoint document and the config that made it."""
    config = json.loads(small_grid_config.read_text())
    config["train"].update({"steps": 2, "eval_every": 2})
    cfg = tmp_path / "short.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "short"
    assert main(["train-toy", "--config", str(cfg), "--out", str(out)]) == 0
    return json.loads((out / "checkpoint.json").read_text()), cfg


def _resume(tmp_path, cfg, doc):
    ckpt = tmp_path / "corrupt.json"
    ckpt.write_text(json.dumps(doc))
    return main(["train-toy", "--config", str(cfg), "--resume", str(ckpt),
                 "--out", str(tmp_path / "resumed")])


def _set(*path_and_value):
    *path, key, value = path_and_value

    def corrupt(doc):
        for part in path:
            doc = doc[part]
        doc[key] = value

    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda doc: doc["optimizer"]["moments"]["head.weight"]["m"].pop(),
                     id="short-optimizer-moment"),
        pytest.param(lambda doc: doc["head"]["weight"].pop(), id="short-head-weight"),
        pytest.param(_set("optimizer", "lr", "x"), id="optimizer-lr-string"),
        pytest.param(_set("optimizer", "step", "x"), id="optimizer-step-string"),
        pytest.param(_set("optimizer", "algorithm", "zzz"), id="optimizer-algorithm"),
        pytest.param(_set("step", "x"), id="step-string"),
        pytest.param(_set("task_spec", "task", "zzz"), id="task"),
        pytest.param(_set("descriptor", "aggregation", "mode", "zzz"), id="aggregation-mode"),
        pytest.param(_set("train_config", [1]), id="train-config-not-object"),
        pytest.param(_set("kind", "max"), id="kind-mismatch"),
    ],
)
def test_train_toy_resume_from_corrupt_checkpoint_is_io_error(
    tmp_path, toy_checkpoint, capsys, corrupt
):
    doc, cfg = toy_checkpoint
    corrupt(doc)
    assert _resume(tmp_path, cfg, doc) == 3
    assert "error: I/O failure" in capsys.readouterr().err


def _moment(shape):
    size = int(np.prod(shape))
    return {"shape": list(shape), "m": [0.0] * size, "v": [0.0] * size}


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(_set("optimizer", "moments", "agg", _moment([1])), id="agg-moment-of-one"),
        pytest.param(_set("optimizer", "moments", "agg", _moment([3])), id="agg-moment-of-three"),
        pytest.param(_set("optimizer", "moments", "mlp.7.weight", _moment([4, 8])),
                     id="moment-of-no-array"),
        pytest.param(_set("descriptor", "layers", 0,
                          {"shape": [5, 8], "weight": [0.1] * 40, "bias": [0.0] * 8,
                           "activation": "relu"}),
                     id="first-layer-of-five-channels"),
        pytest.param(_set("descriptor", "aggregation",
                          {"mode": "shared", "shape": [16], "values": [0.0] * 15 + [1.0]}),
                     id="aggregation-of-16-rows"),
        pytest.param(_set("descriptor", "aggregation", None), id="weighted-without-aggregation"),
    ],
)
def test_train_toy_resume_refuses_a_checkpoint_that_contradicts_itself(
    tmp_path, capsys, corrupt
):
    config = {
        "toy": {"cells_per_class": 8, "n_points": 32, "channels": 4},
        "train": {"steps": 2, "eval_every": 2, "batch_size": 8, "mlp_widths": [8]},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main(["train-toy", "--config", str(cfg), "--out", str(tmp_path / "short")]) == 0
    doc = json.loads((tmp_path / "short" / "checkpoint.json").read_text())
    corrupt(doc)
    config["train"]["steps"] = 4  # so that the resumed run takes steps
    cfg.write_text(json.dumps(config))
    assert _resume(tmp_path, cfg, doc) == 3
    assert "error: I/O failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("kind", "max"), ("mlp_widths", [16]), ("activation", "identity"), ("optimizer", "sgd"),
     ("kind", "--descriptor")],
    ids=["kind", "mlp-widths", "activation", "optimizer", "descriptor-flag"],
)
def test_train_toy_resume_refuses_to_change_the_model(tmp_path, capsys, key, value):
    config = {
        "toy": {"cells_per_class": 8, "n_points": 32, "channels": 4},
        "train": {"steps": 2, "eval_every": 2, "batch_size": 8, "mlp_widths": [8]},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main(["train-toy", "--config", str(cfg), "--out", str(tmp_path / "short")]) == 0
    config["train"]["steps"] = 4
    flags = []
    if value == "--descriptor":
        flags = ["--descriptor", "mean"]
    else:
        config["train"][key] = value
    cfg.write_text(json.dumps(config))
    resumed = tmp_path / "resumed"
    code = main(["train-toy", "--config", str(cfg), *flags, "--out", str(resumed),
                 "--resume", str(tmp_path / "short" / "checkpoint.json")])
    assert code == 2
    assert f"train.{key} cannot change on resume" in capsys.readouterr().err
    assert not (resumed / "checkpoint.json").exists()


def test_train_toy_seed_flag_overrides_config_sections(tmp_path, small_grid_config):
    config = json.loads(small_grid_config.read_text())
    config["toy"]["seed"] = 3
    config["train"]["seed"] = 3
    cfg = tmp_path / "seeded.json"
    cfg.write_text(json.dumps(config))
    finals = []
    for seed, name in (("3", "a"), ("9", "b")):
        out = tmp_path / name
        assert main(["train-toy", "--config", str(cfg), "--seed", seed, "--out", str(out)]) == 0
        finals.append(json.loads((out / "checkpoint.json").read_text())["head"])
    assert finals[0] != finals[1]  # the flag actually changed the run


def test_train_toy_divergence_exit_code(tmp_path, small_grid_config):
    config = json.loads(small_grid_config.read_text())
    config["toy"]["task"] = "quantile-regression"
    config["train"].update({"optimizer": "sgd", "lr": 1e12, "steps": 50})
    cfg = tmp_path / "diverge.json"
    cfg.write_text(json.dumps(config))
    code = main(["train-toy", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 5


def test_prop_test_passes_and_writes_report(tmp_path, small_grid_config):
    out = tmp_path / "report"
    code = main(["prop-test", "--config", str(small_grid_config), "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "propcheck.json").read_text())
    assert doc["passed"] is True
    names = {entry["suite"] for entry in doc["suites"]}
    assert names == {
        "permutation-invariance",
        "sorted-matrix-contract",
        "max-pool-special-case",
        "mean-consistency",
        "gradient-check",
    }
    for entry in doc["suites"]:
        assert entry["cases"] > 0


def test_prop_test_alias_check(small_grid_config):
    assert main(["check", "--config", str(small_grid_config)]) == 0


def test_prop_test_fault_injection_fails(small_grid_config):
    code = main(
        ["prop-test", "--config", str(small_grid_config), "--inject-fault", "skip-sort"]
    )
    assert code == 4
    # the hook must not leak into later runs
    assert main(["prop-test", "--config", str(small_grid_config)]) == 0


def test_check_grad_passes(small_grid_config, tmp_path):
    out = tmp_path / "grad"
    code = main(["check-grad", "--config", str(small_grid_config), "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "gradcheck.json").read_text())
    assert doc["passed"] is True
    assert doc["configs"] == 3


def test_bench_writes_report(small_grid_config, tmp_path, capsys):
    out = tmp_path / "bench"
    code = main(["bench", "--config", str(small_grid_config), "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "bench.json").read_text())
    assert "full_overhead_ratio" in doc
    assert doc["outputs_stable"] is True
    # without --out the same report follows the summary line on stdout
    summary_lines = capsys.readouterr().out.count("\n")
    assert main(["bench", "--config", str(small_grid_config)]) == 0
    printed = capsys.readouterr().out.split("\n", summary_lines)[-1]
    assert json.loads(printed).keys() == doc.keys()


@pytest.mark.parametrize("command, report", [("check-grad", "gradcheck.json"),
                                             ("prop-test", "propcheck.json")])
def test_report_on_stdout_equals_report_file(small_grid_config, tmp_path, capsys, command,
                                             report):
    out = tmp_path / "report"
    assert main([command, "--config", str(small_grid_config), "--out", str(out)]) == 0
    summary = capsys.readouterr().out
    assert main([command, "--config", str(small_grid_config)]) == 0
    printed = capsys.readouterr().out
    assert printed == summary + (out / report).read_text() + "\n"

