"""Module-level throughput benchmarks for the descriptor variants.

Two stages are measured separately: the full descriptor forward (MLP plus
aggregation, the realistic swap cost) and the aggregation stage alone, where
the sort-and-combine path scales O(N log N) against the O(N) max scan. The
full-stage default uses a two-layer 64-wide MLP so the shared embedding cost
dominates, which is the regime the overhead comparison is about.
"""

from __future__ import annotations

import contextlib
import ctypes
import time
from dataclasses import dataclass

import numpy as np

from .descriptor import AggregationWeights, MlpParams, _group_workers, descriptor_forward
from .documents import Document, Seed
from .errors import ValidationError
from .gridding import cell_batch_from_arrays

# (setter, getter) of the BLAS thread count: the symbols of numpy's bundled
# scipy-openblas build, then those of a plain OpenBLAS
_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

INPUT_CHANNELS = 9  # of a decorated pillar point, the full descriptor's input
SCALING_CHANNELS = 8  # of the embedded cells the aggregation stage alone runs on


@dataclass
class BenchConfig(Document):
    kinds: tuple[str, ...] = ("weighted", "max")
    n_points: int = 32
    channels: int = 64
    num_cells: int = 10000
    repetitions: int = 10
    mlp_widths: tuple[int, ...] = (64, 64)
    scaling_n: tuple[int, ...] = (8, 32, 128, 256)
    scaling_points: int = 1 << 18  # total slots per scaling measurement
    seed: Seed = 0

    def __post_init__(self):
        if self.repetitions < 1 or self.num_cells < 1 or min(self.scaling_n, default=1) < 1:
            raise ValidationError("repetitions, num_cells and scaling_n entries must be >= 1")
        self.kinds = tuple(self.kinds)
        self.mlp_widths = tuple(int(w) for w in self.mlp_widths)
        self.scaling_n = tuple(int(n) for n in self.scaling_n)


def _measure_interleaved(
    fns: dict[str, "callable"], repetitions: int
) -> dict[str, tuple[float, float, bool]]:
    """Time several functions with their repetitions interleaved.

    Alternating the candidates within each repetition round spreads slow
    machine phases (cache pressure, frequency drift) evenly across them, which
    keeps ratios of their medians honest.
    """
    references = {name: fn() for name, fn in fns.items()}  # warmup, untimed
    times: dict[str, list[float]] = {name: [] for name in fns}
    stable = {name: True for name in fns}
    for _ in range(repetitions):
        for name, fn in fns.items():
            t0 = time.perf_counter()
            out = fn()
            times[name].append(time.perf_counter() - t0)
            stable[name] = stable[name] and np.array_equal(out, references[name])
    return {
        name: (
            float(np.median(times[name])),
            float(np.percentile(times[name], 90)),
            stable[name],
        )
        for name in fns
    }


def _openblas_thread_calls():
    """(set, get) of the thread count of the OpenBLAS numpy loaded, or None.

    The library is found among the files mapped into this process, so no
    package beyond numpy is needed; with another BLAS, or no ``/proc``, there
    is none.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for setter, getter in _OPENBLAS_THREAD_CALLS:
            if hasattr(lib, setter) and hasattr(lib, getter):
                set_threads, get_threads = getattr(lib, setter), getattr(lib, getter)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return set_threads, get_threads
    return None


@contextlib.contextmanager
def _single_blas_thread():
    """Pin OpenBLAS to one thread, restoring its count after.

    Yields the thread count read back inside the pin, or None without an
    OpenBLAS to pin.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield None
        return
    set_threads, get_threads = calls
    previous = get_threads()
    set_threads(1)
    try:
        yield get_threads()
    finally:
        set_threads(previous)


def _environment(blas_threads: int | None) -> dict:
    """What the timings ran on: numpy, its BLAS, and the thread counts.

    ``group_workers`` is how many threads a forward or backward pass over
    more than one fill group shares its groups across; a full-cell batch is
    one group.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dicts mode
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads,
        "group_workers": _group_workers(),
    }


def bench_descriptor(config: BenchConfig | None = None) -> dict:
    """Run the full-stage and aggregation-stage benchmarks; returns the report.

    The report carries per-kind median/p90 latencies, the weighted/max
    overhead ratio of the full descriptor, and the aggregation-stage ratio per
    N together with a monotone-growth verdict. Its ``environment`` names the
    numpy version, the BLAS name and version (None where numpy cannot report
    them) and the BLAS thread count read back inside the pin (None without an
    OpenBLAS).
    """
    config = config or BenchConfig()
    with _single_blas_thread() as threads:
        return _bench_inner(config, threads)


def _bench_inner(config: BenchConfig, threads: int | None) -> dict:
    rng = np.random.default_rng(config.seed)
    report: dict = {
        "config": config.to_doc(),
        "environment": _environment(threads),
        # without an OpenBLAS to pin, the BLAS thread count is left as is
        "thread_pinning_applied": threads == 1,
        "outputs_stable": True,
    }

    # full descriptor: shared MLP + aggregation
    data = rng.uniform(-1.0, 1.0, size=(config.num_cells, config.n_points, INPUT_CHANNELS))
    batch = cell_batch_from_arrays(data)
    widths = config.mlp_widths[:-1] + (config.channels,) if config.mlp_widths else ()
    params = MlpParams.create(INPUT_CHANNELS, widths, seed=config.seed)
    weights = AggregationWeights(rng.standard_normal(config.n_points))

    def make_runner(kind: str):
        w = weights if kind == "weighted" else None

        def run():
            features, _ = descriptor_forward(params, w, batch, kind=kind, need_cache=False)
            return features

        return run

    measured = _measure_interleaved(
        {kind: make_runner(kind) for kind in config.kinds}, config.repetitions
    )
    full: dict[str, dict] = {}
    for kind, (median, p90, stable) in measured.items():
        full[kind] = {"median_s": median, "p90_s": p90}
        report["outputs_stable"] &= stable
    report["full_descriptor"] = full
    if "weighted" in full and "max" in full:
        report["full_overhead_ratio"] = full["weighted"]["median_s"] / full["max"]["median_s"]

    # aggregation stage alone: stable sort+combine vs max scan
    scaling = []
    for n in config.scaling_n:
        k = max(1, config.scaling_points // n)
        embedded = rng.standard_normal((k, n, SCALING_CHANNELS))
        w_n = rng.standard_normal(n)

        def run_weighted():
            # the stable comparison sort is the kernel the gradient path relies
            # on and carries the textbook N log N cost; the inference path's
            # vectorized quicksort hides that asymptote at small N
            return np.einsum("n,knc->kc", w_n, np.sort(embedded, axis=1, kind="stable"))

        def run_max():
            return embedded.max(axis=1)

        pair = _measure_interleaved(
            {"weighted": run_weighted, "max": run_max}, config.repetitions
        )
        t_weighted, p90_weighted, stable_w = pair["weighted"]
        t_max, p90_max, stable_m = pair["max"]
        report["outputs_stable"] &= stable_w and stable_m
        scaling.append(
            {
                "n_points": n,
                "num_cells": k,
                "weighted_median_s": t_weighted,
                "weighted_p90_s": p90_weighted,
                "max_median_s": t_max,
                "max_p90_s": p90_max,
                "ratio": t_weighted / t_max,
            }
        )
    report["aggregation_scaling"] = scaling
    ratios = [entry["ratio"] for entry in scaling]
    report["aggregation_ratio_monotone"] = all(a < b for a, b in zip(ratios, ratios[1:]))
    return report
