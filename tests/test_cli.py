import json
import struct

import numpy as np
import pytest

from pillarkit import PointCloud, gridding, write_kitti_bin
from pillarkit.cli import main


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
            "pin_single_thread": False,
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


def test_featurize_empty_cloud(tmp_path, small_grid_config):
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    out = tmp_path / "out"
    code = main(
        ["featurize", "--input", str(empty), "--config", str(small_grid_config),
         "--out", str(out)]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["num_cells"] == 0
    blob = np.frombuffer((out / "featuremap.bin").read_bytes(), dtype=np.float64)
    assert not blob.any()
    header = json.loads((out / "featuremap.json").read_text())
    assert header["shape"] == [8, 8, 16]


def test_featurize_deterministic_output_files(tmp_path, small_grid_config, scan_file):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(
            ["featurize", "--input", str(scan_file), "--config", str(small_grid_config),
             "--seed", "5", "--out", str(out)]
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
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert not (tmp_path / "out" / "featuremap.bin").exists()


def test_bad_config_is_config_error(tmp_path, scan_file):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(
        ["featurize", "--input", str(scan_file), "--config", str(bad),
         "--out", str(tmp_path / "out")]
    )
    assert code == 2


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
        final = json.loads((out / "final.json").read_text())
        assert final["kind"] == kind
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


def test_bench_writes_report(small_grid_config, tmp_path):
    out = tmp_path / "bench"
    code = main(["bench", "--config", str(small_grid_config), "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "bench.json").read_text())
    assert "full_overhead_ratio" in doc
    assert doc["outputs_stable"] is True
