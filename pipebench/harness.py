"""Run one workload, check every op, and report its metrics.

An untraced run (``--trace 0``) measures the end-to-end metrics. A traced run
(``--trace 1``) measures half its time untraced and half traced, reports the
per-layer metrics and the tracing overhead, then makes one more op under
``tracemalloc`` for each layer's peak allocation.

The report is printed as JSON; its last line is the one-line result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import pillarkit
from pillarkit import descriptor as pillarkit_descriptor

from .tracing import OVERHEAD_METRIC, Tracer
from .workloads import SIZES, WORKLOADS, Size, Workload

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = Path(__file__).resolve().parent / "run.py"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_PERCENTILE = 90
MAX_FAILURES_SHOWN = 5
IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
    "import pillarkit; print(time.perf_counter() - t)"
)


@dataclass
class Loop:
    """Outcome of a run of ops: times of the ops that passed, and failures."""

    op_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def run_ops(wl: Workload, first: int, seconds: float, tracer: Tracer | None = None) -> Loop:
    """Closed loop: run and check ops ``first, first + 1, ...`` for ``seconds``.

    Only the op itself is timed; its check runs between ops. Always runs at
    least one op.
    """
    loop = Loop()
    deadline = perf_counter() + seconds
    while True:
        i = first + loop.attempted
        if tracer is not None:
            tracer.begin_op(loop.attempted, wl.input_key(i))
        start = perf_counter()
        try:
            result = wl.op(i)
            elapsed = perf_counter() - start
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.end_op()
        if error is None:
            error = wl.check(i, result)
        del result
        loop.attempted += 1
        if error is None:
            loop.op_s.append(elapsed)
        else:
            loop.failures.append(f"op {i}: {error}")
        if perf_counter() >= deadline:
            return loop


def tail(op_s: list[float]) -> tuple[float, int]:
    """The 90th percentile of the op times, and how many samples lie beyond it.

    A run of the default length holds too few ops for a percentile with ten
    samples beyond it, so the percentile is fixed and the count is reported
    beside it.
    """
    p90 = statistics.quantiles(op_s, n=10, method="inclusive")[-1] if len(op_s) > 1 else op_s[0]
    return p90, sum(t > p90 for t in op_s)


def import_seconds(repeats: int) -> list[float]:
    """Time ``import pillarkit`` in fresh interpreters."""
    code = IMPORT_SNIPPET.format(src=str(ROOT / "src"))
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=120, cwd=ROOT)
        times.append(float(done.stdout.split()[-1]))
    return times


def environment(pinned: dict) -> dict:
    build = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = build.get("blas", {})
    a = np.ones((256, 256))
    a @ a  # a warm BLAS call, so any BLAS worker threads exist before counting
    status = Path("/proc/self/status")
    match = re.search(r"^Threads:\s+(\d+)", status.read_text(), re.M) if status.exists() else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_thread_vars": {v: os.environ[v] for v in BLAS_THREAD_VARS if v in os.environ},
        # without threadpoolctl, BenchConfig.pin_single_thread does nothing
        "threadpoolctl_importable": importlib.util.find_spec("threadpoolctl") is not None,
        "os_threads_after_blas_call": int(match.group(1)) if match else None,
        **pinned,
        "pillarkit_version": pillarkit.__version__,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args: argparse.Namespace, pinned: dict) -> int:
    size: Size = SIZES[args.size]
    work = ROOT / ".pipebench" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](work, args.seed, size)
        if args.fault:
            pillarkit_descriptor.set_fault_mode(args.fault)
        return _run(wl, args, size, work, pinned)
    finally:
        pillarkit_descriptor.set_fault_mode(None)
        shutil.rmtree(work, ignore_errors=True)


def _run(wl: Workload, args, size: Size, work: Path, pinned: dict) -> int:
    env = environment(pinned)
    wl.generate()

    imports = import_seconds(size.import_repeats)
    prepares = []
    for _ in range(size.prepare_repeats):
        start = perf_counter()
        wl.prepare()
        prepares.append(perf_counter() - start)
    setup_s = statistics.median(imports) + statistics.median(prepares)
    inputs, count_metrics = wl.describe()

    warmup = run_ops(wl, 0, 0.0)  # one op: lazy set-up and caches, checked, not timed
    loops = [warmup]
    report: dict = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "fault": args.fault,
        "environment": env,
        "inputs": inputs,
        "setup": {"import_s": imports, "prepare_s": prepares},
    }
    problems: list[str] = []

    if args.trace:
        untraced = run_ops(wl, 1, args.seconds / 2)
        tracer = Tracer()
        wl.instrument(tracer)
        try:
            wl.prepare()  # traced once, for layers that only run in set-up
            traced = run_ops(wl, 1 + untraced.attempted, args.seconds / 2, tracer)
        finally:
            tracer.unpatch()
        tracer.write(work.parent / f"spans-{wl.name}.jsonl")
        loops += [untraced, traced]

        memory = Tracer(memory=True)
        wl.instrument(memory)
        tracemalloc.start()
        try:
            wl.prepare()
            loops.append(run_ops(wl, 1 + untraced.attempted + traced.attempted, 0.0, memory))
        finally:
            tracemalloc.stop()
            memory.unpatch()

        counts = tracer.span_counts()
        missing = [name for name in wl.spans if not counts.get(name)]
        problems += [f"traced run recorded no {name} span" for name in missing]
        metrics = tracer.layer_metrics(traced.attempted, setup_passes=1)
        for name in ("pointcloud.points", "gridding.points_in_range", "gridding.points_kept",
                     "gridding.cells_occupied", "gridding.cells_kept"):
            metrics[name] = count_metrics.get(name, _metric(0.0, "count"))
        metrics.update(memory.peak_alloc_metrics())
        p50_untraced = statistics.median(untraced.op_s) if untraced.op_s else 0.0
        p50_traced = statistics.median(traced.op_s) if traced.op_s else 0.0
        metrics[OVERHEAD_METRIC] = _metric(
            p50_traced / p50_untraced if p50_untraced else 0.0, "ratio"
        )
        report["trace_detail"] = {
            "span_counts": counts,
            "spans_expected": list(wl.spans),
            "op_p50_s_untraced": p50_untraced,
            "op_p50_s_traced": p50_traced,
        }
        run_checks = wl.run_checks()
    else:
        timed = run_ops(wl, 1, args.seconds)
        loops.append(timed)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run_checks = wl.run_checks()  # after reading peak RSS: checks are not the workload
        op_s = timed.op_s
        if op_s:
            tail_s, beyond = tail(op_s)
            metrics = {
                "ops_per_s": _metric(len(op_s) / sum(op_s), "1/s"),
                "op_p50_s": _metric(statistics.median(op_s), "s"),
                "op_tail_s": _metric(tail_s, "s"),
                "setup_s": _metric(setup_s, "s"),
                "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            }
            report["timing"] = {
                "samples": len(op_s),
                "tail_percentile": TAIL_PERCENTILE,
                "tail_samples_beyond": beyond,
                "op_s": op_s,
            }
        else:
            metrics = {}
            problems.append("no op passed, so nothing was timed")

    attempted = sum(loop.attempted for loop in loops) + len(run_checks)
    failures = [f for loop in loops for f in loop.failures]
    failures += [f"{name}: {err}" for name, err in run_checks.items() if err is not None]
    report["checks"] = {
        "attempted": attempted,
        "failed": len(failures),
        "failed_op_ratio": len(failures) / attempted,
        "failures": failures[:MAX_FAILURES_SHOWN],
        "run_checks": {name: err or "ok" for name, err in run_checks.items()},
        "problems": problems,
    }
    report["digests"] = wl.digests()
    report["metrics"] = metrics
    correct = not failures and not problems
    print(json.dumps(report, indent=2))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: _metric(m["value"], m["unit"]) for name, m in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, then one table of every metric."""
    status = 0
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(RUN_PY), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        if args.fault:
            cmd += ["--fault", args.fault]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=1800, cwd=ROOT)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            status = 1
            sys.stderr.write(done.stderr)
        if not lines:
            continue
        result = json.loads(lines[-1])
        ratio = result["failed"] / result["attempted"]
        rows.append((name, "failed_op_ratio", ratio, "ratio"))
        rows += [(name, m, v["value"], v["unit"]) for m, v in result["metrics"].items()]
    for name, metric, value, unit in rows:
        print(f"{name:15s} {metric:32s} {value:14.6g} {unit}")
    print(json.dumps({"correct": status == 0, "rows": [list(r) for r in rows]}))
    return status


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="pipebench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload; all of them, each in its own process, when omitted")
    parser.add_argument("--seed", type=int, default=0, help="seed the inputs are made from")
    parser.add_argument("--seconds", type=float, default=25.0, help="how long the ops run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="tiny: small inputs for smoke tests")
    parser.add_argument("--fault", choices=["skip-sort"], default=None,
                        help="sabotage the sort stage; the checks must then fail")
    return parser.parse_args(argv)


def main(argv: list[str] | None, pinned: dict) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args, pinned)
