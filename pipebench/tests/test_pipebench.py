"""Smoke and sensitivity tests for the pipeline benchmark.

Run from the root of a checkout: ``python3 -m pytest -q pipebench/tests``.
Each test runs the benchmark command on tiny inputs for about a second.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(workload: str, trace: int = 0, *extra: str) -> tuple[int, dict, dict]:
    """Exit code, full report and result line of one tiny run."""
    done = subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    body, _, last = done.stdout.rstrip().rpartition("\n")
    return done.returncode, json.loads(body), json.loads(last)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    code, report, result = run_bench(workload)
    assert code == 0, report["checks"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["checks"]["failed_op_ratio"] == 0.0
    env = report["environment"]
    assert env["blas_thread_vars"]["OPENBLAS_NUM_THREADS"] == "1"
    assert "threadpoolctl_importable" in env and "os_threads_after_blas_call" in env


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    code, report, result = run_bench(workload, 1)
    assert code == 0, report["checks"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    detail = report["trace_detail"]
    assert all(detail["span_counts"].get(name) for name in detail["spans_expected"])
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_scan_inputs_state_their_padding_share():
    _, report, result = run_bench("scan-featurize")
    for scan in report["inputs"]["scans"]:
        assert sum(scan["fill_histogram"]) == scan["gridding.cells_kept"]
        assert scan["gridding.points_kept"] <= scan["gridding.points_in_range"]
        assert 0.0 < scan["useful_slot_ratio"] < 1.0
    assert report["digests"]["featuremap_sha256"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_skip_sort_fault_fails_the_checks(workload):
    code, report, result = run_bench(workload, 0, "--fault", "skip-sort")
    assert code != 0
    assert result["correct"] is False
    assert report["checks"]["failed_op_ratio"] > 0


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    bench = tmp_path / "pipebench"
    bench.mkdir()
    for path in (ROOT / "pipebench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
