import json
import os

import numpy as np
import pytest

from pillarkit import BenchConfig, ValidationError, bench, bench_descriptor


@pytest.fixture(scope="module")
def tiny_report():
    config = BenchConfig(
        num_cells=64,
        n_points=8,
        channels=8,
        repetitions=3,
        mlp_widths=(8,),
        scaling_n=(4, 16),
        scaling_points=1 << 10,
    )
    return bench_descriptor(config)


def test_report_structure(tiny_report):
    assert set(tiny_report["full_descriptor"]) == {"weighted", "max"}
    for entry in tiny_report["full_descriptor"].values():
        assert entry["median_s"] > 0
        assert entry["p90_s"] >= entry["median_s"]
    assert tiny_report["full_overhead_ratio"] > 0
    assert [e["n_points"] for e in tiny_report["aggregation_scaling"]] == [4, 16]
    assert "aggregation_ratio_monotone" in tiny_report
    assert tiny_report["thread_pinning_applied"] == (bench._openblas_thread_calls() is not None)


def test_report_names_its_environment(tiny_report):
    env = tiny_report["environment"]
    assert env.keys() == {"numpy", "blas", "blas_version", "blas_threads", "group_workers"}
    assert env["numpy"] == np.__version__
    assert all(env[key] is None or isinstance(env[key], str) for key in ("blas", "blas_version"))
    # read back inside the pin, so one thread exactly where the pin took
    assert (env["blas_threads"] == 1) == tiny_report["thread_pinning_applied"]
    assert (env["blas_threads"] is None) == (bench._openblas_thread_calls() is None)
    assert env["group_workers"] == len(os.sched_getaffinity(0))


def test_single_blas_thread_pins_and_restores_the_thread_count():
    calls = bench._openblas_thread_calls()
    if calls is None:
        pytest.skip("numpy did not load an OpenBLAS")
    set_threads, get_threads = calls
    before = get_threads()
    set_threads(2)
    try:
        with bench._single_blas_thread() as threads:
            assert threads == 1 and get_threads() == 1
        assert get_threads() == 2
    finally:
        set_threads(before)


def test_benchmark_never_perturbs_results(tiny_report):
    assert tiny_report["outputs_stable"] is True


def test_report_round_trips_through_json(tiny_report):
    doc = json.loads(json.dumps(tiny_report))
    assert doc["config"]["num_cells"] == 64


def test_bench_config_doc_roundtrip():
    config = BenchConfig(num_cells=10, repetitions=2, scaling_n=(8, 32))
    back = BenchConfig.from_doc(config.to_doc())
    assert back == config
    with pytest.raises(ValidationError):
        BenchConfig(repetitions=0)


def test_mean_kind_measurable():
    config = BenchConfig(
        kinds=("weighted", "max", "mean"),
        num_cells=32,
        n_points=8,
        channels=4,
        repetitions=2,
        mlp_widths=(4,),
        scaling_n=(4,),
        scaling_points=1 << 8,
    )
    report = bench_descriptor(config)
    assert set(report["full_descriptor"]) == {"weighted", "max", "mean"}
