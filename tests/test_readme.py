"""The README's library sketch runs as written, and every exported name resolves."""

import re
from pathlib import Path

import numpy as np

import pillarkit as pk

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_sketch_runs(tmp_path, monkeypatch):
    section = README.read_text().split("## Library sketch", 1)[1]
    sketch = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    rng = np.random.default_rng(0)
    m = 3000
    points = np.column_stack([rng.uniform(0.0, 30.0, m), rng.uniform(-15.0, 15.0, m),
                              rng.uniform(-3.0, 1.0, m), rng.uniform(0.0, 1.0, m)])
    pk.write_kitti_bin(pk.PointCloud(points), tmp_path / "scan.bin")
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(compile(sketch, str(README), "exec"), scope)
    assert scope["batch"].num_cells > 0
    assert scope["report"].passed


def test_every_exported_name_resolves():
    missing = [name for name in pk.__all__ if not hasattr(pk, name)]
    assert missing == []


def _instances() -> dict:
    """One small instance of each class whose attributes the README names."""
    batch = pk.cell_batch_from_arrays(np.ones((1, 2, 3)))
    _, cache = pk.descriptor_forward(pk.MlpParams([]), None, batch, "max")
    return {
        "AggregationWeights": pk.AggregationWeights(np.ones(2)),
        "CellBatch": batch,
        "FeatureMap": pk.FeatureMap(np.zeros((1, 1, 1))),
        "FillGroup": cache.groups[0],
        "ForwardCache": cache,
    }


def test_every_class_attribute_the_readme_names_resolves():
    # fenced code is left out: its backticks would pair with the prose's
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    instances = _instances()
    named = {
        match.groups()
        for span in re.findall(r"`([^`]+)`", prose)
        if (match := re.match(r"(\w+)\.(\w+)", span)) and match.group(1) in instances
    }
    assert named
    missing = sorted(f"{cls}.{attr}" for cls, attr in named if not hasattr(instances[cls], attr))
    assert missing == []
