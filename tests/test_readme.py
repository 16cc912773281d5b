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
