"""Command-line entry point wiring all stages together.

Subcommands: featurize, train-toy, check-grad, prop-test (alias: check),
bench. Every run is configured by an optional JSON file plus flag overrides
(flags win) and is deterministic given (config, seed). Exit codes: 0 success,
2 config error, 3 I/O error, 4 check failure, 5 training divergence.
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import checks as checks_mod
from .autograd import run_gradient_check_suite
from .descriptor import (
    AggregationWeights,
    MlpParams,
    _group_workers,
    descriptor_forward,
    load_descriptor,
    set_fault_mode,
)
from .documents import Seed, typed
from .errors import DivergenceError, FileFormatError, PillarkitError, ValidationError
from .gridding import CellBatch, GridSpec, build_cell_batch, require_memory, scatter_to_grid
from .pointcloud import load_kitti_bin
from .toy import (
    RESUME_FIXED_KEYS,
    ToyTaskSpec,
    TrainConfig,
    build_toy_dataset,
    load_checkpoint,
    save_checkpoint,
    train_descriptor,
    weight_readout,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_CHECK_FAILED = 4
EXIT_DIVERGED = 5

# the keys each config section takes; a typo would otherwise fall back to a default
SECTION_KEYS = {
    "grid": tuple(f.name for f in fields(GridSpec)),
    "descriptor": ("kind", "checkpoint", "mlp_widths", "activation"),
    "train": tuple(f.name for f in fields(TrainConfig)),
    "toy": tuple(f.name for f in fields(ToyTaskSpec)),
    "check": ("cells", "shuffles", "grad_configs", "grad_tolerance"),
    "bench": tuple(f.name for f in fields(bench_mod.BenchConfig)),
}

# featurize warns when the capacity cap and max_cells together drop more than
# this share of the points inside the grid range
DROP_WARNING_SHARE = 0.10


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("config root must be a JSON object")
    _check_keys(doc, ("seed", *SECTION_KEYS))
    return doc


def _check_keys(doc: dict, known: tuple[str, ...], prefix: str = "") -> None:
    """Refuse a key not in ``known``, naming it and the nearest known key if one is close."""
    for key in doc:
        if key not in known:
            close = difflib.get_close_matches(key, known, n=1)
            hint = f"; did you mean {prefix + close[0]!r}?" if close else ""
            raise ValidationError(f"unknown config key {prefix + key!r}{hint}")


def _section(config: dict, name: str) -> dict:
    """The config's ``name`` object, refusing unknown keys; an absent section reads as empty."""
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise ValidationError(f"config section {name!r} must be a JSON object")
    _check_keys(section, SECTION_KEYS[name], f"{name}.")
    return section


def _seed(args, config: dict) -> int:
    return typed(Seed, config.get("seed", 0) if args.seed is None else args.seed, "seed")


def _grid_spec(config: dict, args) -> GridSpec:
    section = _section(config, "grid")
    mode = args.mode or section.get("mode", "pillar")
    base = (
        GridSpec.kitti_voxel_defaults() if mode == "voxel" else GridSpec.kitti_pillar_defaults()
    )
    return GridSpec.from_doc({**base.to_doc(), **section, "mode": mode})


def _descriptor_setup(
    config: dict, args, batch: CellBatch, seed: int
) -> tuple[MlpParams, AggregationWeights | None, str]:
    section = _section(config, "descriptor")
    kind = args.descriptor or section.get("kind", "weighted")
    checkpoint = getattr(args, "checkpoint", None) or typed(
        str | None, section.get("checkpoint"), "descriptor.checkpoint"
    )
    if checkpoint:
        params, weights = load_descriptor(checkpoint)
    else:
        widths = typed(tuple[int, ...], section.get("mlp_widths", [64]), "descriptor.mlp_widths")
        activation = section.get("activation", "relu")
        params = (
            MlpParams.create(batch.num_channels, widths, activation=activation, seed=seed)
            if widths
            else MlpParams([])
        )
        weights = None
        if kind == "weighted":
            what = f"a ({batch.capacity},) aggregation weight vector"
            require_memory(8 * batch.capacity, what, "lower the capacity")
            weights = AggregationWeights.max_pool_init(batch.capacity)
    # the forward embeds a fill group at a time, so the largest group's rows pass every layer
    fills = np.bincount(batch.valid_count)
    params.require_output_memory(int((fills * np.arange(fills.size)).max(initial=0)),
                                 "narrow descriptor.mlp_widths")
    return params, weights, kind


def _write_report(out: str | None, name: str, doc: dict) -> None:
    """Write ``doc`` as indented JSON to ``<out>/<name>``, or to stdout without ``--out``."""
    text = json.dumps(doc, indent=2)
    if out:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / name).write_text(text)
    else:
        print(text)


def cmd_featurize(args) -> int:
    config = _load_config(args.config)
    seed = _seed(args, config)
    spec = _grid_spec(config, args)

    stage_s: dict[str, float] = {}

    def timed(stage: str, fn, *fn_args, **fn_kwargs):
        start = time.perf_counter()
        result = fn(*fn_args, **fn_kwargs)
        stage_s[stage] = time.perf_counter() - start
        return result

    t0 = time.perf_counter()
    cloud = timed("load", load_kitti_bin, args.input)
    batch = timed("batch", build_cell_batch, cloud, spec)
    params, weights, kind = _descriptor_setup(config, args, batch, seed)
    out_dir = Path(args.out)  # made once the config has been read in full
    out_dir.mkdir(parents=True, exist_ok=True)

    features, _ = timed(
        "forward", descriptor_forward, params, weights, batch, kind, need_cache=False
    )
    fmap = timed("scatter", scatter_to_grid, features, batch.cell_coords, spec)
    blob, header = timed("save", fmap.save, out_dir / "featuremap", dense=args.dense)

    total_cells = int(np.prod(spec.grid_shape))
    points_kept = int(batch.valid_count.sum())
    summary = {
        "input": str(args.input),
        "mode": spec.mode,
        "descriptor": kind,
        "seed": seed,
        "num_points": cloud.num_points,
        "points_kept": points_kept,
        **batch.dropped,
        "num_cells": batch.num_cells,
        # cells holding 1, 2, ... points, up to the fullest cell
        "fill_histogram": np.bincount(batch.valid_count)[1:].tolist(),
        "occupancy": batch.num_cells / total_cells,
        "feature_channels": fmap.num_channels,
        "map_layout": "dense" if args.dense else "sparse",
        "map_bytes": blob.stat().st_size,
        # the usable CPUs the forward may share its fill groups across
        "group_workers": _group_workers(),
        "stage_s": stage_s,
        "elapsed_s": time.perf_counter() - t0,
    }
    _write_report(args.out, "summary.json", summary)
    in_range = cloud.num_points - batch.dropped["points_out_of_range"]
    capped = batch.dropped["points_over_capacity"] + batch.dropped["points_in_dropped_cells"]
    if points_kept == 0:
        print(
            f"warning: featurize kept none of the {cloud.num_points} points inside the grid "
            f"range; the feature map holds no cells",
            file=sys.stderr,
        )
    elif capped > DROP_WARNING_SHARE * in_range:
        print(
            f"warning: capacity and max_cells dropped {capped} of the {in_range} points "
            f"inside the grid range ({capped / in_range:.1%}, more than "
            f"{DROP_WARNING_SHARE:.0%}); raise grid.capacity or grid.max_cells to keep them",
            file=sys.stderr,
        )
    print(
        f"featurize: {cloud.num_points} points -> {batch.num_cells} cells "
        f"({spec.mode}, {kind}), map {fmap.shape} -> {blob}"
    )
    return EXIT_OK


def cmd_train_toy(args) -> int:
    config = _load_config(args.config)
    seed = _seed(args, config)

    model = state = None
    if args.resume:
        model, state, saved, task_spec = load_checkpoint(args.resume)
        # the checkpoint owns the run configuration; the train section may
        # still extend it (typically a larger step budget), but not change the
        # model or the optimizer whose state it holds
        overrides = dict(_section(config, "train"))
        if args.descriptor:
            overrides["kind"] = args.descriptor
        train_config = TrainConfig.from_doc({**saved.to_doc(), **overrides})
        for key in RESUME_FIXED_KEYS:
            if getattr(train_config, key) != getattr(saved, key):
                raise ValidationError(
                    f"train.{key} cannot change on resume: the checkpoint has "
                    f"{getattr(saved, key)!r}, this run asks for {getattr(train_config, key)!r}"
                )
    else:
        task_doc = dict(_section(config, "toy"))
        train_doc = dict(_section(config, "train"))
        if args.seed is not None:  # explicit flag beats per-section seeds
            task_doc["seed"] = args.seed
            train_doc["seed"] = args.seed
        else:
            task_doc.setdefault("seed", seed)
            train_doc.setdefault("seed", seed)
        if args.descriptor:
            train_doc["kind"] = args.descriptor
        task_spec = ToyTaskSpec.from_doc(task_doc)
        train_config = TrainConfig.from_doc(train_doc)
    dataset = build_toy_dataset(task_spec)
    metrics, model, state = train_descriptor(
        dataset, train_config, resume_from=model, resume_state=state
    )
    out_dir = Path(args.out)  # made once the run has trained, so a failed one leaves none
    out_dir.mkdir(parents=True, exist_ok=True)

    with open(out_dir / "metrics.jsonl", "w") as handle:
        for record in metrics.records:
            handle.write(record.to_json() + "\n")
    mass, distance = weight_readout(model.weights)  # the last record's, if there is one
    final = {
        "kind": metrics.kind,
        metrics.final_metric_name: metrics.final_metric_value,
        "steps": model.step,
        "wall_clock_s": metrics.wall_clock_s,
        "stage_s": metrics.stage_s,
        "agg_last_row_mass": mass,
        "agg_distance_from_max_pool": distance,
    }
    _write_report(args.out, "final.json", final)
    save_checkpoint(out_dir / "checkpoint.json", model, state, train_config, task_spec)
    print(
        f"train-toy: kind={metrics.kind} steps={model.step} "
        f"{metrics.final_metric_name}={metrics.final_metric_value:.4f}"
    )
    return EXIT_OK


def cmd_check_grad(args) -> int:
    config = _load_config(args.config)
    seed = _seed(args, config)
    section = _section(config, "check")
    num_configs = typed(int, section.get("grad_configs", 100), "check.grad_configs")
    tolerance = typed(float, section.get("grad_tolerance", 1e-5), "check.grad_tolerance")

    reports = run_gradient_check_suite(num_configs=num_configs, seed=seed, tolerance=tolerance)
    worst = max(max(r.groups.values()) for r in reports)
    passed = all(r.passed for r in reports)
    doc = {
        "configs": num_configs,
        "tolerance": tolerance,
        "worst_rel_error": worst,
        "passed": passed,
    }
    print(f"check-grad: {num_configs} configs, worst rel error {worst:.3e}, "
          f"{'PASS' if passed else 'FAIL'}")
    _write_report(args.out, "gradcheck.json", doc)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_prop_test(args) -> int:
    config = _load_config(args.config)
    seed = _seed(args, config)
    section = _section(config, "check")
    num_cells = typed(int, section.get("cells", 300), "check.cells")
    shuffles = typed(int, section.get("shuffles", 5), "check.shuffles")
    grad_configs = typed(int, section.get("grad_configs", 10), "check.grad_configs")

    if args.inject_fault:
        set_fault_mode(args.inject_fault)
    try:
        results = checks_mod.run_property_suites(
            num_cells=num_cells, shuffles=shuffles, seed=seed
        )
        grad_reports = run_gradient_check_suite(num_configs=grad_configs, seed=seed)
    finally:
        set_fault_mode(None)

    grad_failures = sum(0 if r.passed else 1 for r in grad_reports)
    results.append(
        checks_mod.SuiteResult("gradient-check", cases=len(grad_reports), failures=grad_failures)
    )
    passed = all(result.passed for result in results)
    for result in results:
        print(
            f"prop-test: {result.name}: {result.cases - result.failures}/{result.cases} "
            f"{'PASS' if result.passed else 'FAIL'}"
        )
    _write_report(
        args.out, "propcheck.json", {"passed": passed, "suites": [r.to_doc() for r in results]}
    )
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_bench(args) -> int:
    config = _load_config(args.config)
    section = dict(_section(config, "bench"))
    if args.seed is not None:
        section["seed"] = args.seed
    bench_config = bench_mod.BenchConfig.from_doc(section)
    report = bench_mod.bench_descriptor(bench_config)
    ratio = report.get("full_overhead_ratio")
    print(
        "bench: full-descriptor overhead ratio "
        + (f"{ratio:.3f}" if ratio is not None else "n/a")
        + f", aggregation ratios "
        + ", ".join(f"N={e['n_points']}:{e['ratio']:.2f}" for e in report["aggregation_scaling"])
    )
    _write_report(args.out, "bench.json", report)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pillarkit",
        description="Point-cloud grid featurization with sorted weighted set descriptors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--seed", type=int, default=None, help="global RNG seed")

    p_feat = sub.add_parser("featurize", help="grid-featurize a KITTI-style .bin point cloud")
    common(p_feat)
    p_feat.add_argument("--input", required=True, help="input .bin file")
    p_feat.add_argument("--mode", choices=["pillar", "voxel"], default=None)
    p_feat.add_argument("--descriptor", choices=["weighted", "max", "mean"], default=None)
    p_feat.add_argument("--checkpoint", help="descriptor checkpoint JSON to load")
    p_feat.add_argument("--out", required=True, help="output directory")
    p_feat.add_argument("--dense", action="store_true",
                        help="write the dense grid, not the occupied cells' coords and features")
    p_feat.set_defaults(func=cmd_featurize)

    p_train = sub.add_parser("train-toy", help="train the descriptor on a toy task")
    common(p_train)
    p_train.add_argument("--descriptor", choices=["weighted", "max", "mean"], default=None)
    p_train.add_argument("--resume", help="checkpoint to resume from")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.set_defaults(func=cmd_train_toy)

    p_grad = sub.add_parser("check-grad", help="finite-difference gradient checks")
    common(p_grad)
    p_grad.add_argument("--out", default=None, help="optional report directory")
    p_grad.set_defaults(func=cmd_check_grad)

    p_prop = sub.add_parser(
        "prop-test", aliases=["check"], help="run the property and gradient suites"
    )
    common(p_prop)
    p_prop.add_argument("--out", default=None, help="optional report directory")
    p_prop.add_argument(
        "--inject-fault",
        choices=["skip-sort"],
        default=None,
        help="test hook: sabotage the sort stage to confirm the suites catch it",
    )
    p_prop.set_defaults(func=cmd_prop_test)

    p_bench = sub.add_parser("bench", help="descriptor throughput benchmarks")
    common(p_bench)
    p_bench.add_argument("--out", default=None, help="optional report directory")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ValidationError,) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileFormatError, FileNotFoundError, OSError) as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except PillarkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
