"""Generated configs and arguments never reach a traceback.

Each example writes a config (bad types, out-of-range sizes, unknown keys)
and a tiny or empty cloud, then runs ``featurize`` or ``train-toy`` in
process through ``cli.main`` with physical memory patched to 64 MiB, so a
size the run cannot hold is refused before it is allocated. The exit code
must be one of the documented codes and stderr must hold no traceback.
Training steps are always drawn small, so no example trains for long.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pillarkit import cli, gridding
from pillarkit.gridding import OVERFLOW_POLICIES
from pillarkit.toy import TOY_TASKS

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_IO, cli.EXIT_CHECK_FAILED, cli.EXIT_DIVERGED}
MEMORY_BYTES = 64 << 20

# values that are wrong for most keys: other types, signs, sizes and non-finite numbers
_WRONG = st.sampled_from(
    [None, True, "x", [], {}, [1, 2], -1, 0, 1.5, 10**12, 2**63, 1e300, float("nan"), float("inf")]
)


def _value(*good):
    """One of ``good`` four times in five, else a wrong value."""
    return st.integers(0, 4).flatmap(lambda i: _WRONG if i == 0 else st.sampled_from(good))


def _rarely(strategy, other):
    """``strategy`` nine times in ten, else ``other``."""
    return st.integers(0, 9).flatmap(lambda i: other if i == 0 else strategy)


_CHECKPOINTS = ("missing.json", "not-json.json", "wrong-shape.json")
_WIDTHS = _value([4], [], [2, 3], [0], [-1], [10**9], ["x"])
_SECTIONS = {
    "grid": {
        "mode": _value("pillar", "voxel"),
        "range_min": _value([0.0, 0.0, -1.0], [0.0, 0.0], [-1e308, 0.0, -1.0]),
        "range_max": _value([4.0, 4.0, 1.0], [4.0, 4.0, 1.0, 1.0], [1e308, 4.0, 1.0]),
        "cell_size": _value([1.0, 1.0, 2.0], [1e-4, 1e-4, 1.0], [1e-9, 1e-9, 1.0], [0.0, 1.0, 1.0]),
        "capacity": _value(1, 4, 8),
        "max_cells": _value(1, 16),
        "overflow": _value(*OVERFLOW_POLICIES),
        "overflow_seed": _value(0, 5),
        "decorate": _value(True, False),
    },
    "descriptor": {
        "kind": _value("weighted", "max", "mean"),
        "mlp_widths": _WIDTHS,
        "activation": _value("relu", "identity"),
        "checkpoint": _rarely(st.none(), st.sampled_from(_CHECKPOINTS)),
    },
    "toy": {
        "task": _value(*TOY_TASKS),
        "cells_per_class": _value(1, 2, 4),
        "n_points": _value(3, 4, 8),
        "channels": _value(1, 3),
        "seed": _value(0, 9),
        "val_fraction": _value(0.25, 0.5, 0.99),
        "edge_band": _value(0.1, 1.0),
        "quantile": _value(0.5, 1.0),
    },
    "train": {
        "kind": _value("weighted", "max", "mean"),
        "mlp_widths": _WIDTHS,
        "activation": _value("relu", "identity"),
        "optimizer": _value("adam", "sgd"),
        "lr": _value(0.02, 1e30),
        "batch_size": _value(1, 4, 64),
        "eval_every": _value(1, 2),
        "seed": _value(0, 9),
        "freeze_agg": _value(True, False),
        "agg_noise": _value(0.0, 0.1),
        "head_init_scale": _value(0.05, 1e300),
    },
}
# never absent and never large, so a run trains for at most a few steps
_STEPS = st.sampled_from([-1, 0, 1, 2, 3, 2.0, 1.5, "x", None, True])


@st.composite
def _sections(draw, name):
    keys = draw(st.lists(st.sampled_from(sorted(_SECTIONS[name])), unique=True, max_size=4))
    section = {key: draw(_SECTIONS[name][key]) for key in keys}
    if name == "train":
        section["steps"] = draw(_STEPS)
    if draw(st.integers(0, 9)) == 0:
        section["bogus"] = 1  # an unknown key
    return section


@st.composite
def _configs(draw, command):
    config = {}
    names = ("grid", "descriptor") if command == "featurize" else ("toy", "train")
    for name in names:
        if command == "train-toy" and name == "train" or draw(st.booleans()):
            config[name] = draw(_sections(name))
    if draw(st.integers(0, 9)) == 0:
        config["seed"] = draw(_value(0, 3))
    if draw(st.integers(0, 14)) == 0:
        config["bogus"] = {}
    if draw(st.integers(0, 14)) == 0:
        return draw(st.sampled_from([[], "config", 3, None]))  # not a JSON object
    return config


_CLOUDS = _rarely(
    st.tuples(st.integers(0, 40), st.integers(0, 9).map(lambda i: i == 0)),  # points, one NaN
    st.sampled_from(["missing", "ragged"]),  # no file; a length not a multiple of 16
)


def _write_cloud(path: Path, cloud) -> None:
    if cloud == "missing":
        return
    if cloud == "ragged":
        path.write_bytes(b"\0" * 7)
        return
    count, nan = cloud
    points = np.random.default_rng(count).uniform(-1.0, 5.0, size=(count, 4)).astype("<f4")
    if nan and count:
        points[count // 2, 0] = np.nan
    path.write_bytes(points.tobytes())


def _write_checkpoints(root: Path) -> None:
    (root / "not-json.json").write_text("{not json")
    (root / "wrong-shape.json").write_text(json.dumps({"layers": 5, "kind": [], "step": "x"}))


@st.composite
def _argvs(draw, root):
    command = draw(st.sampled_from(["featurize", "train-toy"]))
    argv = [command, "--out", str(root / "out")]
    config = draw(_configs(command))
    # train-toy without a config would train its default 2,000 steps
    if command == "train-toy" or draw(st.booleans()):
        argv += ["--config", str(root / draw(_rarely(st.just("config.json"),
                                                     st.just("missing.json"))))]
    if draw(st.booleans()):
        argv += ["--seed", draw(_rarely(st.sampled_from(["0", "7", str(2**64)]),
                                        st.sampled_from(["-1", "x", "1e3"])))]
    if draw(st.booleans()):
        argv += ["--descriptor", draw(_rarely(st.sampled_from(["weighted", "max", "mean"]),
                                              st.just("bogus")))]
    cloud = None
    if command == "featurize":
        cloud = draw(_CLOUDS)
        argv += ["--input", str(root / "cloud.bin")]
        if draw(st.booleans()):
            argv += ["--mode", draw(_rarely(st.sampled_from(["pillar", "voxel"]), st.just("cube")))]
        if draw(st.integers(0, 9)) == 0:
            argv += ["--checkpoint", str(root / draw(st.sampled_from(_CHECKPOINTS)))]
        if draw(st.integers(0, 9)) == 0:
            argv.append("--dense")
    elif draw(st.integers(0, 9)) == 0:
        argv += ["--resume", str(root / draw(st.sampled_from(_CHECKPOINTS)))]
    return argv, config, cloud


def _run(argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)``'s exit code and stderr; argparse's refusal exits 2 itself."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_generated_configs_and_arguments_exit_with_a_documented_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        argv, config, cloud = data.draw(_argvs(root))
        (root / "config.json").write_text(json.dumps(config))
        _write_checkpoints(root)
        if cloud is not None:
            _write_cloud(root / "cloud.bin", cloud)
        with mock.patch.object(gridding, "physical_memory_bytes", lambda: MEMORY_BYTES):
            code, err = _run(argv)
    assert code in EXIT_CODES, (code, err)
    assert "Traceback" not in err
