"""The three benchmark workloads and the correctness check each op must pass.

Each workload is a closed loop with one caller: the next op starts when the
previous one returns. A workload makes its inputs from the seed
(``generate``), does the program-side preparation that ``setup_s`` times
(``prepare``), runs one op (``op``) and checks its output (``check``). Checks
that are too slow for every op run once per run (``run_checks``).

Ops reach pillarkit only through its public entry points: ``cli.main`` for
the commands users run, and the public library functions for the scan
training step. Every function an op calls is looked up through a name the
tracer can wrap (see :meth:`Workload.instrument`).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import types
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import pillarkit as pk
from pillarkit import autograd, cli, gridding, toy

from .scans import generate_scan
from .tracing import Tracer


@dataclass(frozen=True)
class Size:
    pool: int  # scans (or toy seeds) the ops cycle through
    beams: int
    azimuth_steps: int
    import_repeats: int  # set-up is measured this many times; the median is reported
    prepare_repeats: int
    toy_config: dict | None  # config file for train-toy; None keeps the defaults


SIZES = {
    "full": Size(pool=3, beams=64, azimuth_steps=2048, import_repeats=11, prepare_repeats=5,
                 toy_config=None),
    "tiny": Size(pool=2, beams=16, azimuth_steps=256, import_repeats=1, prepare_repeats=1,
                 toy_config={"toy": {"cells_per_class": 32},
                             "train": {"steps": 100, "eval_every": 50}}),
}

TOY_MIN_ACCURACY = 0.95  # criterion 5: the learned weighted descriptor separates the classes
TOY_MAX_POOL_CEILING = 0.60  # criterion 5: identity max pooling stays near chance
TRAIN_LR = 1e-3


def digest_file(path: Path) -> str:
    with open(path, "rb") as handle:
        return hashlib.file_digest(handle, "sha256").hexdigest()


def digest_arrays(named: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(named):
        h.update(name.encode())
        h.update(np.ascontiguousarray(named[name]).tobytes())
    return h.hexdigest()


def run_cli(argv: list[str]) -> int:
    """``pillarkit.cli.main`` with its progress line kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _forward_span(args: tuple, kwargs: dict) -> str:
    need_cache = kwargs.get("need_cache", args[4] if len(args) > 4 else True)
    return "descriptor.forward_train" if need_cache else "descriptor.forward"


def _note_slots(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    batch = kwargs.get("batch", args[2] if len(args) > 2 else None)
    tracer.note("descriptor.useful_slots", float(batch.valid_count.sum()))
    tracer.note("descriptor.slots", float(batch.num_cells * batch.capacity))


def _note_save(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    tracer.note("gridding.save_bytes", float(sum(Path(p).stat().st_size for p in result)))


def _fill_histogram(valid_count: np.ndarray, capacity: int) -> list[int]:
    """Cells holding 1, 2, ..., capacity points."""
    return np.bincount(valid_count, minlength=capacity + 1)[1:].tolist()


def _sub_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


class Workload:
    name = ""
    spans: tuple[str, ...] = ()  # spans a traced run must record at least once

    def __init__(self, work: Path, seed: int, size: Size):
        self.work = work
        self.seed = seed
        self.size = size
        self.fn = types.SimpleNamespace()  # the calls ops make that are not via the CLI

    def generate(self) -> None:
        """Benchmark-side inputs; excluded from ``setup_s``."""

    def prepare(self) -> None:
        """Program-side preparation done once before the first op."""

    def describe(self) -> tuple[dict, dict]:
        """Input descriptors from public outputs, and the count metrics among them."""
        return {}, {}

    def input_key(self, i: int) -> int:
        return i % self.size.pool

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> str | None:
        """None if op ``i`` produced a correct result, else what was wrong."""
        raise NotImplementedError

    def run_checks(self) -> dict[str, str | None]:
        return {}

    def digests(self) -> dict:
        return {}

    def instrument(self, tracer: Tracer) -> None:
        raise NotImplementedError


class _ScanWorkload(Workload):
    def generate(self) -> None:
        self.scan_paths = []
        for j, scan_seed in enumerate(_sub_seeds(self.seed, self.size.pool)):
            points = generate_scan(scan_seed, self.size.beams, self.size.azimuth_steps)
            path = self.work / f"scan-{j}.bin"
            pk.write_kitti_bin(pk.PointCloud(points), path)
            self.scan_paths.append(path)
        self.spec = pk.GridSpec.kitti_pillar_defaults()

    def _batches_for_describe(self) -> list[pk.CellBatch]:
        return [pk.build_cell_batch(pk.load_kitti_bin(p), self.spec) for p in self.scan_paths]

    def describe(self) -> tuple[dict, dict]:
        scans = []
        for path, batch in zip(self.scan_paths, self._batches_for_describe()):
            cloud = pk.load_kitti_bin(path)
            point_idx, coords = pk.assign_cells(cloud, self.spec)
            flat = np.ravel_multi_index(tuple(coords.T), self.spec.grid_shape)
            scans.append({
                "pointcloud.points": cloud.num_points,
                "gridding.points_in_range": int(point_idx.size),
                "gridding.points_kept": int(batch.valid_count.sum()),
                "gridding.cells_occupied": int(np.unique(flat).size),
                "gridding.cells_kept": batch.num_cells,
                "useful_slot_ratio": float(batch.valid_count.sum())
                / (batch.num_cells * batch.capacity),
                "cells_full": int((batch.valid_count == batch.capacity).sum()),
                "fill_histogram": _fill_histogram(batch.valid_count, batch.capacity),
            })
        counts = {
            name: {"value": float(np.mean([s[name] for s in scans])), "unit": "count"}
            for name in scans[0]
            if name.startswith(("pointcloud.", "gridding."))
        }
        return {"scans": scans}, counts


class ScanFeaturize(_ScanWorkload):
    name = "scan-featurize"
    spans = ("cli.main", "pointcloud.load", "gridding.batch", "descriptor.forward",
             "gridding.scatter", "gridding.save")

    def generate(self) -> None:
        super().generate()
        self.out = self.work / "out"
        self.fn.cli_main = run_cli
        self.reference: dict[int, str] = {}
        self.seen: dict[int, str] = {}

    def _max_reference(self, j: int) -> str:
        """Criterion 2 at scan scale: the max kind gives scan ``j``'s reference map.

        The default weighted descriptor starts at max pooling, so every op must
        reproduce this map bitwise; each op is checked against an independent
        code path, not only against itself.
        """
        out = self.work / "reference"
        code = run_cli(["featurize", "--input", str(self.scan_paths[j]), "--out", str(out),
                        "--descriptor", "max"])
        return digest_file(out / "featuremap.bin") if code == 0 else f"max exited {code}"

    def op(self, i: int) -> int:
        path = self.scan_paths[self.input_key(i)]
        return self.fn.cli_main(["featurize", "--input", str(path), "--out", str(self.out)])

    def check(self, i: int, result: int) -> str | None:
        if result != 0:
            return f"featurize exited {result}"
        j = self.input_key(i)
        digest = digest_file(self.out / "featuremap.bin")
        if digest != self.seen.setdefault(j, digest):
            return f"scan {j}: feature map differs from the first op on the same scan"
        if j not in self.reference:
            self.reference[j] = self._max_reference(j)
        if digest != self.reference[j]:
            return f"scan {j}: weighted (max-pool init) map differs from --descriptor max"
        return None

    def digests(self) -> dict:
        return {"featuremap_sha256": {f"scan-{j}": d for j, d in sorted(self.seen.items())}}

    def instrument(self, tracer: Tracer) -> None:
        tracer.patch(self.fn, "cli_main", "cli.main")
        tracer.patch(cli, "load_kitti_bin", "pointcloud.load")
        tracer.patch(cli, "build_cell_batch", "gridding.batch")
        tracer.patch(cli, "descriptor_forward", _forward_span, note=_note_slots)
        tracer.patch(cli, "scatter_to_grid", "gridding.scatter")
        tracer.patch(gridding.FeatureMap, "save", "gridding.save", note=_note_save)


class ScanTrain(_ScanWorkload):
    name = "scan-train"
    spans = ("gridding.batch", "descriptor.forward_train", "autograd.backward",
             "autograd.optimizer")

    def generate(self) -> None:
        super().generate()
        self.fn.build_cell_batch = pk.build_cell_batch
        self.fn.descriptor_forward = pk.descriptor_forward
        self.fn.descriptor_backward = pk.descriptor_backward
        self.fn.optimizer_step = pk.optimizer_step
        self.param_seed, self.target_seed, self.shuffle_seed = _sub_seeds(self.seed + 1, 3)
        self.losses = None
        self.step_1_digest: str | None = None

    def prepare(self) -> None:
        self.batches = [
            self.fn.build_cell_batch(pk.load_kitti_bin(p), self.spec)
            for p in self.scan_paths
        ]
        self.params = pk.MlpParams.create(self.batches[0].num_channels, (64,),
                                          seed=self.param_seed)
        self.weights = pk.AggregationWeights.max_pool_init(self.spec.capacity)
        self.state = pk.OptimizerState(algorithm="adam", lr=TRAIN_LR)
        self.initial = autograd.param_dict(self.params, self.weights)
        self.values = dict(self.initial)
        if self.losses is None:  # seeded targets are benchmark inputs, made once
            rng = np.random.default_rng(self.target_seed)
            c_out = self.params.output_channels(self.batches[0].num_channels)
            self.losses = [
                autograd.squared_error_loss(rng.standard_normal((b.num_cells, c_out)))
                for b in self.batches
            ]

    def _batches_for_describe(self) -> list[pk.CellBatch]:
        return self.batches

    def _step(self, values: dict, batch: pk.CellBatch, loss_fn):
        params, weights = autograd.rebuild_from_dict(values, self.params, self.weights)
        features, cache = self.fn.descriptor_forward(params, weights, batch, kind="weighted",
                                                     need_cache=True)
        loss, upstream = loss_fn(features)
        grads = autograd.grad_dict(self.fn.descriptor_backward(cache, upstream))
        return loss, grads, cache

    def op(self, i: int):
        j = self.input_key(i)
        loss, grads, cache = self._step(self.values, self.batches[j], self.losses[j])
        self.values = self.fn.optimizer_step(self.state, self.values, grads)
        return loss, grads, cache

    def check(self, i: int, result) -> str | None:
        loss, grads, cache = result
        if not np.isfinite(loss):
            return f"non-finite loss {loss}"
        if not all(np.isfinite(g).all() for g in grads.values()):
            return "non-finite gradient"
        # criterion 3: per channel, the padding rows come first and hold zeros,
        # and the occupied rows below them are ascending
        values = cache.sorted_values
        first = values.shape[1] - cache.valid_count  # first occupied row of each cell
        row = np.arange(values.shape[1])[None, :]
        if np.abs(values).max(axis=2)[row < first[:, None]].any():
            return "padding rows of the sorted matrix are not zero"
        falls = (np.diff(values, axis=1) < 0.0).any(axis=2)  # row r + 1 below row r
        if falls[row[:, :-1] >= first[:, None]].any():
            return "occupied rows of the sorted matrix are not ascending"
        if i == 0:
            self.step_1_digest = digest_arrays(grads)
        return None

    def run_checks(self) -> dict[str, str | None]:
        """Replay step 1, and repeat it on a slot-shuffled copy of its batch."""
        results = {}
        _, grads, _ = self._step(self.initial, self.batches[0], self.losses[0])
        replay = digest_arrays(grads)
        results["replay-step-1"] = (
            None if replay == self.step_1_digest
            else "replaying step 1 gave different gradients"
        )
        shuffled = _shuffle_slots(self.batches[0], np.random.default_rng(self.shuffle_seed))
        _, grads, _ = self._step(self.initial, shuffled, self.losses[0])
        results["slot-shuffle-step-1"] = (
            None if digest_arrays(grads) == replay
            else "a slot-shuffled batch gave different gradients"
        )
        return results

    def digests(self) -> dict:
        return {"step_1_gradients_sha256": self.step_1_digest}

    def instrument(self, tracer: Tracer) -> None:
        tracer.patch(self.fn, "build_cell_batch", "gridding.batch")
        tracer.patch(self.fn, "descriptor_forward", _forward_span, note=_note_slots)
        tracer.patch(self.fn, "descriptor_backward", "autograd.backward")
        tracer.patch(self.fn, "optimizer_step", "autograd.optimizer")


def _shuffle_slots(batch: pk.CellBatch, rng: np.random.Generator) -> pk.CellBatch:
    """The same cells with each cell's occupied slots in a random order."""
    keys = rng.random(batch.data.shape[:2])
    keys[np.arange(batch.capacity)[None, :] >= batch.valid_count[:, None]] = np.inf
    order = np.argsort(keys, axis=1)
    data = np.take_along_axis(batch.data, order[:, :, None], axis=1)
    return pk.CellBatch(data, batch.valid_count, batch.cell_coords, batch.spec,
                        batch.channel_names)


class ToyTrain(Workload):
    name = "toy-train"
    spans = ("cli.main", "toy.train", "toy.batch", "descriptor.forward_train",
             "autograd.backward", "autograd.optimizer", "toy.eval", "descriptor.forward",
             "toy.checkpoint")

    def generate(self) -> None:
        self.op_seeds = [s % 2**31 for s in _sub_seeds(self.seed, self.size.pool)]
        self.out = self.work / "out"
        self.config_args: list[str] = []
        if self.size.toy_config is not None:
            path = self.work / "toy-config.json"
            path.write_text(json.dumps(self.size.toy_config))
            self.config_args = ["--config", str(path)]
        self.fn.cli_main = run_cli
        self.checkpoints: dict[int, str] = {}
        self.accuracy: dict[int, float] = {}

    def _train(self, seed: int, out: Path, *extra: str) -> int:
        return self.fn.cli_main(["train-toy", "--out", str(out), "--seed", str(seed),
                                 *self.config_args, *extra])

    def describe(self) -> tuple[dict, dict]:
        doc = dict((self.size.toy_config or {}).get("toy", {}))
        datasets = []
        for seed in self.op_seeds:
            dataset = pk.build_toy_dataset(pk.ToyTaskSpec.from_doc({**doc, "seed": seed}))
            capacity = dataset.cells.shape[1]
            datasets.append({
                "seed": seed,
                "cells": int(dataset.num_cells),
                "useful_slot_ratio": float(dataset.valid_count.sum())
                / (dataset.num_cells * capacity),
                "fill_histogram": _fill_histogram(dataset.valid_count, capacity),
            })
        return {"datasets": datasets}, {}

    def op(self, i: int) -> int:
        return self._train(self.op_seeds[self.input_key(i)], self.out)

    def check(self, i: int, result: int) -> str | None:
        if result != 0:
            return f"train-toy exited {result}"
        seed = self.op_seeds[self.input_key(i)]
        accuracy = json.loads((self.out / "final.json").read_text())["val_accuracy"]
        self.accuracy.setdefault(seed, accuracy)
        digest = digest_file(self.out / "checkpoint.json")
        if digest != self.checkpoints.setdefault(seed, digest):
            return f"seed {seed}: checkpoint differs from the first run with the same seed"
        if not accuracy >= TOY_MIN_ACCURACY:
            return f"seed {seed}: val_accuracy {accuracy} < {TOY_MIN_ACCURACY}"
        return None

    def run_checks(self) -> dict[str, str | None]:
        seed = self.op_seeds[0]
        out = self.work / "max"
        code = self._train(seed, out, "--descriptor", "max")
        if code != 0:
            return {"max-pool-at-chance": f"train-toy --descriptor max exited {code}"}
        accuracy = json.loads((out / "final.json").read_text())["val_accuracy"]
        return {
            "max-pool-at-chance": None if accuracy <= TOY_MAX_POOL_CEILING
            else f"seed {seed}: max kind reached val_accuracy {accuracy} > "
                 f"{TOY_MAX_POOL_CEILING}"
        }

    def digests(self) -> dict:
        return {
            "checkpoint_sha256": {str(s): d for s, d in self.checkpoints.items()},
            "val_accuracy": {str(s): a for s, a in self.accuracy.items()},
        }

    def instrument(self, tracer: Tracer) -> None:
        tracer.patch(self.fn, "cli_main", "cli.main")
        tracer.patch(cli, "train_descriptor", "toy.train")
        tracer.patch(cli, "save_checkpoint", "toy.checkpoint")
        tracer.patch(toy, "cell_batch_from_arrays", "toy.batch")
        tracer.patch(toy, "evaluate", "toy.eval")
        tracer.patch(toy, "descriptor_forward", _forward_span, note=_note_slots)
        tracer.patch(toy, "descriptor_backward", "autograd.backward")
        tracer.patch(toy, "optimizer_step", "autograd.optimizer")


WORKLOADS = {w.name: w for w in (ScanFeaturize, ScanTrain, ToyTrain)}
