"""Desk-scale tasks that expose what each aggregator can and cannot see.

The equal-extremes task builds pairs of cells whose per-channel min and max
are exactly equal across the two classes, while the interior order statistics
differ (uniform vs piled near the extremes). Any pipeline that only looks at
per-channel maxima is blind to the label by construction; the sorted weighted
descriptor separates the classes because the interior rows carry the signal.

The quantile-regression task asks the descriptor to output a per-cell order
statistic of one raw channel, which the weighted form can represent exactly.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autograd import (
    OptimizerState,
    descriptor_backward,
    grad_dict,
    optimizer_step,
    param_dict,
)
from .descriptor import (
    DESCRIPTOR_KINDS,
    AggregationWeights,
    MlpParams,
    _array_from_doc,
    _check_agg_shapes,
    descriptor_forward,
    descriptor_from_doc,
    descriptor_to_doc,
)
from .documents import Document, Seed, typed
from .errors import DivergenceError, FileFormatError, NonFiniteError, ValidationError
from .gridding import cell_batch_from_arrays, require_memory

TOY_TASKS = ("equal-extremes", "quantile-regression")


@dataclass
class ToyTaskSpec(Document):
    task: str = "equal-extremes"
    cells_per_class: int = 256
    n_points: int = 32
    channels: int = 4
    seed: Seed = 0
    val_fraction: float = 0.25
    edge_band: float = 0.1
    quantile: float = 0.5  # quantile-regression target

    def __post_init__(self):
        if self.task not in TOY_TASKS:
            raise ValidationError(f"task must be one of {TOY_TASKS}")
        if self.cells_per_class < 1 or self.n_points < 3 or self.channels < 1:
            raise ValidationError("cells_per_class >= 1, n_points >= 3, channels >= 1 required")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValidationError("val_fraction must be in (0, 1)")
        if not 0.0 <= self.quantile <= 1.0:
            raise ValidationError("quantile must be in [0, 1]")
        if not 0.0 <= self.edge_band <= 1.0:  # NaN fails too
            raise ValidationError(f"edge_band must be in [0, 1], got {self.edge_band}")
        cells = 2 * self.cells_per_class
        require_memory(8 * cells * self.n_points * self.channels,
                       f"a toy dataset of {cells} cells", "lower toy.cells_per_class")


@dataclass
class ToyDataset:
    """Full cells (K, N, C) with either class labels or regression targets."""

    cells: np.ndarray
    valid_count: np.ndarray
    labels: np.ndarray  # class id (classification) unused for regression
    targets: np.ndarray  # regression target, zeros for classification
    train_idx: np.ndarray
    val_idx: np.ndarray
    spec: ToyTaskSpec

    @property
    def num_cells(self) -> int:
        return self.cells.shape[0]


def build_toy_dataset(spec: ToyTaskSpec) -> ToyDataset:
    """Deterministically generate the task's labeled cells and a pair-safe split.

    For equal-extremes, both members of a pair (one cell per class, sharing
    anchor extremes) always land on the same side of the train/val split, so a
    classifier on class-independent features scores exactly chance on the
    validation pairs.
    """
    if spec.task == "equal-extremes":
        cells, labels = _build_equal_extremes_cells(spec)
        targets = np.zeros(cells.shape[0])
        pairs = spec.cells_per_class
        rng = np.random.default_rng([spec.seed, 5])
        perm = rng.permutation(pairs)
        num_val = max(1, int(round(spec.val_fraction * pairs)))
        val_pairs = perm[:num_val]
        train_pairs = perm[num_val:]
        train_idx = np.sort(np.concatenate([2 * train_pairs, 2 * train_pairs + 1]))
        val_idx = np.sort(np.concatenate([2 * val_pairs, 2 * val_pairs + 1]))
    else:
        rng = np.random.default_rng([spec.seed, 6])
        k = 2 * spec.cells_per_class
        cells = rng.uniform(0.0, 1.0, size=(k, spec.n_points, spec.channels))
        labels = np.zeros(k, dtype=np.int64)
        targets = np.quantile(cells[:, :, 0], spec.quantile, axis=1)
        perm = rng.permutation(k)
        num_val = max(1, int(round(spec.val_fraction * k)))
        val_idx = np.sort(perm[:num_val])
        train_idx = np.sort(perm[num_val:])

    if train_idx.size == 0:
        raise ValidationError(
            f"val_fraction {spec.val_fraction} of {spec.cells_per_class} cells per class "
            f"leaves no training cells"
        )
    valid = np.full(cells.shape[0], spec.n_points, dtype=np.int64)
    return ToyDataset(cells, valid, labels, targets, train_idx, val_idx, spec)


def _build_equal_extremes_cells(spec: ToyTaskSpec) -> tuple[np.ndarray, np.ndarray]:
    """Cells in pair order: (pair0 class0, pair0 class1, pair1 class0, ...)."""
    pairs = spec.cells_per_class
    n, c = spec.n_points, spec.channels
    rng = np.random.default_rng([spec.seed, 0])
    lo = rng.uniform(-1.0, 0.0, size=(pairs, c))
    hi = lo + rng.uniform(0.5, 1.5, size=(pairs, c))

    cells = np.empty((2 * pairs, n, c))
    labels = np.empty(2 * pairs, dtype=np.int64)
    for p in range(pairs):
        for label in (0, 1):
            cell_rng = np.random.default_rng([spec.seed, 1, p, label])
            interior = _equal_extremes_interior(
                cell_rng, n - 2, lo[p], hi[p], label, spec.edge_band
            )
            cells[2 * p + label] = np.vstack([lo[p][None, :], hi[p][None, :], interior])
            labels[2 * p + label] = label
    return cells, labels


def _equal_extremes_interior(
    rng: np.random.Generator,
    count: int,
    lo: np.ndarray,
    hi: np.ndarray,
    label: int,
    edge_band: float,
) -> np.ndarray:
    """Interior points for the equal-extremes construction.

    Label 0 draws uniformly over the box; label 1 draws each coordinate inside
    a narrow band next to either extreme, so the extremes match label 0 but
    the interior order statistics do not.
    """
    dims = lo.shape[0]
    if label == 0:
        return rng.uniform(lo, hi, size=(count, dims))
    width = hi - lo
    side = rng.integers(2, size=(count, dims))
    offset = rng.uniform(0.0, edge_band, size=(count, dims)) * width
    return np.where(side == 0, lo + offset, hi - offset)


# the TrainConfig fields that define the model and the optimizer whose state a
# checkpoint holds: a resumed run keeps them
RESUME_FIXED_KEYS = ("kind", "mlp_widths", "activation", "optimizer")


@dataclass
class TrainConfig(Document):
    kind: str = "weighted"
    mlp_widths: tuple[int, ...] = ()  # () = identity embedding
    activation: str = "relu"
    optimizer: str = "adam"
    lr: float = 0.02
    steps: int = 2000
    batch_size: int = 64
    eval_every: int = 100
    seed: Seed = 0
    freeze_agg: bool = False
    agg_noise: float = 0.0
    head_init_scale: float = 0.05

    def __post_init__(self):
        if self.kind not in DESCRIPTOR_KINDS:
            raise ValidationError(f"kind must be one of {DESCRIPTOR_KINDS}")
        if self.steps < 1 or self.batch_size < 1 or self.eval_every < 1:
            raise ValidationError("steps, batch_size, eval_every must be >= 1")
        self.mlp_widths = tuple(int(w) for w in self.mlp_widths)


@dataclass
class EvalRecord:
    step: int
    train_loss: float
    metric_name: str
    metric_value: float
    elapsed_s: float
    agg_last_row_mass: float | None = None  # see weight_readout; None without weights
    agg_distance_from_max_pool: float | None = None
    step_s: float | None = None  # mean wall time per step since the previous record
    grad_norm: dict[str, float] | None = None  # see grad_norms

    def to_json(self) -> str:
        return json.dumps(
            {
                "step": self.step,
                "train_loss": self.train_loss,
                self.metric_name: self.metric_value,
                "elapsed_s": self.elapsed_s,
                "agg_last_row_mass": self.agg_last_row_mass,
                "agg_distance_from_max_pool": self.agg_distance_from_max_pool,
                "step_s": self.step_s,
                "grad_norm": self.grad_norm,
            }
        )


def weight_readout(weights: AggregationWeights | None) -> tuple[float | None, float | None]:
    """(absolute weight on the last, max-pool row over the total absolute weight,
    L2 distance from ``max_pool_init``): (1.0, 0.0) at max pooling, Nones without weights."""
    if weights is None:
        return None, None
    w = weights.values
    channels = None if weights.mode == "shared" else w.shape[1]
    start = AggregationWeights.max_pool_init(w.shape[0], channels).values
    total = np.abs(w).sum()
    mass = float(np.abs(w[-1]).sum() / total) if total else 0.0
    return mass, float(np.linalg.norm(w - start))


def grad_norms(grads: dict[str, np.ndarray]) -> dict[str, float]:
    """L2 norm of the gradients of each trainable group: ``mlp``, ``agg`` and ``head``."""
    squares: dict[str, float] = {}
    for name, grad in grads.items():
        group = name.split(".")[0]
        squares[group] = squares.get(group, 0.0) + float(np.vdot(grad, grad))
    return {group: float(np.sqrt(total)) for group, total in squares.items()}


# where a training step's time goes: drawing and gathering the minibatch, the
# descriptor forward with the head and the loss, the backward with the head's
# gradients, the update with its checks, and the evaluation records
TRAIN_STAGES = ("batch", "forward", "backward", "optimizer", "eval")


@dataclass
class Metrics:
    kind: str
    records: list[EvalRecord]
    losses: list[float]  # per optimizer step
    final_metric_name: str
    final_metric_value: float
    wall_clock_s: float
    stage_s: dict[str, float]  # seconds summed over the run per TRAIN_STAGES entry


@dataclass
class TrainedModel:
    params: MlpParams
    weights: AggregationWeights | None
    head_weight: np.ndarray
    head_bias: np.ndarray  # shape (1,)
    kind: str
    step: int


def _init_model(dataset: ToyDataset, config: TrainConfig) -> TrainedModel:
    c_in = dataset.cells.shape[2]
    n = dataset.cells.shape[1]
    params = MlpParams.create(
        c_in, config.mlp_widths, activation=config.activation, seed=_subseed(config.seed, 1)
    ) if config.mlp_widths else MlpParams([])
    weights = None
    if config.kind == "weighted":
        weights = AggregationWeights.max_pool_init(
            n, noise=config.agg_noise, seed=_subseed(config.seed, 4)
        )
    c_out = params.output_channels(c_in)
    head_rng = np.random.default_rng([config.seed, 2])
    head_weight = config.head_init_scale * head_rng.standard_normal(c_out)
    head_bias = np.zeros(1)
    return TrainedModel(params, weights, head_weight, head_bias, config.kind, step=0)


def _subseed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def _trainable(model: TrainedModel, freeze_agg: bool) -> dict[str, np.ndarray]:
    """The arrays the optimizer updates, named ``mlp.*``, ``agg``, ``head.*`` in that order."""
    out = param_dict(model.params, None if freeze_agg else model.weights)
    out["head.weight"] = model.head_weight
    out["head.bias"] = model.head_bias
    return out


def _views(flat: np.ndarray, like: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Consecutive views of ``flat``, one per array of ``like``, in its order and shapes."""
    out, start = {}, 0
    for name, array in like.items():
        out[name] = flat[start : start + array.size].reshape(array.shape)
        start += array.size
    return out


def _rebind(model: TrainedModel, arrays: dict[str, np.ndarray]) -> None:
    """Make ``arrays``, named as by ``_trainable``, the model's trainable arrays."""
    for i, layer in enumerate(model.params.layers):
        layer.weight, layer.bias = arrays[f"mlp.{i}.weight"], arrays[f"mlp.{i}.bias"]
    if "agg" in arrays:
        model.weights.values = arrays["agg"]
    model.head_weight, model.head_bias = arrays["head.weight"], arrays["head.bias"]


def _bce_with_logits(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy in the numerically stable softplus form."""
    y = labels.astype(np.float64)
    softplus = np.maximum(logits, 0.0) + np.log1p(np.exp(-np.abs(logits)))
    # the bits of np.mean, which is a sum and then a true divide, with less overhead
    loss = float((softplus - y * logits).sum() / logits.shape[0])
    sigmoid = 1.0 / (1.0 + np.exp(-logits))
    return loss, (sigmoid - y) / logits.shape[0]


def _forward_head(model: TrainedModel, features: np.ndarray) -> np.ndarray:
    return features @ model.head_weight + model.head_bias[0]


def evaluate(model: TrainedModel, dataset: ToyDataset, idx: np.ndarray) -> float:
    """Validation accuracy (classification) or MSE (regression)."""
    batch = cell_batch_from_arrays(dataset.cells[idx])
    features, _ = descriptor_forward(
        model.params, model.weights, batch, kind=model.kind, need_cache=False
    )
    outputs = _forward_head(model, features)
    if dataset.spec.task == "equal-extremes":
        predicted = (outputs > 0.0).astype(np.int64)
        return float(np.mean(predicted == dataset.labels[idx]))
    err = outputs - dataset.targets[idx]
    return float(np.mean(err * err))


def train_descriptor(
    dataset: ToyDataset,
    config: TrainConfig,
    resume_from: "TrainedModel | None" = None,
    resume_state: OptimizerState | None = None,
) -> tuple[Metrics, TrainedModel, OptimizerState]:
    """Train descriptor plus a linear head end-to-end, deterministically.

    Minibatch selection is a pure function of (seed, step), so training can be
    resumed from a checkpoint and reproduce the uninterrupted run exactly.
    The run updates its own model and optimizer state in place, copies of
    ``resume_from`` and ``resume_state`` when given, so the caller's are
    never written.

    The trainable arrays are views of one float64 vector, and each step's
    gradients are written into views of another, so a step is one
    ``optimizer_step`` call over a single entry. Adam and SGD have no
    reductions, so this gives the bits of an update name by name. The
    state's per-name moments are joined into that entry's once before the
    loop and split back once after it.
    """
    classification = dataset.spec.task == "equal-extremes"
    metric_name = "val_accuracy" if classification else "val_mse"

    model = copy.deepcopy(resume_from) if resume_from is not None else _init_model(dataset, config)
    take = min(config.batch_size, dataset.train_idx.size)
    model.params.require_output_memory(dataset.cells.shape[1] * max(take, dataset.val_idx.size),
                                       "narrow train.mlp_widths or lower train.batch_size")

    trainable = _trainable(model, config.freeze_agg)
    theta = np.concatenate([array.ravel() for array in trainable.values()])
    _rebind(model, _views(theta, trainable))
    g = np.empty_like(theta)
    grads = _views(g, trainable)

    state = copy.deepcopy(resume_state) if resume_state is not None else OptimizerState(
        algorithm=config.optimizer, lr=config.lr
    )
    flat = dataclasses.replace(state, moments={})
    if state.algorithm == "adam":  # a name not stepped yet starts at zero, as in optimizer_step
        flat.moments["theta"] = tuple(
            np.concatenate([state.moments[name][i].ravel() if name in state.moments
                            else np.zeros(array.size) for name, array in trainable.items()])
            for i in (0, 1)
        )

    records: list[EvalRecord] = []
    losses: list[float] = []
    stage_s = dict.fromkeys(TRAIN_STAGES, 0.0)
    t_start = t_record = clock = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        stage_s[stage] += now - clock
        clock = now

    step_record = model.step
    # overflow shows up as a non-finite loss, gradient or parameter and aborts below
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(model.step, config.steps):
            batch_rng = np.random.default_rng([config.seed, 3, step])
            idx = batch_rng.choice(dataset.train_idx, size=take, replace=False)
            batch = cell_batch_from_arrays(dataset.cells[idx])
            lap("batch")

            features, cache = descriptor_forward(
                model.params, model.weights, batch, kind=config.kind, need_cache=True
            )
            outputs = _forward_head(model, features)
            if classification:
                loss, d_out = _bce_with_logits(outputs, dataset.labels[idx])
            else:
                err = outputs - dataset.targets[idx]
                loss = float(np.mean(err * err))
                d_out = 2.0 * err / err.shape[0]
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss at step {step}", step=step)
            losses.append(loss)
            lap("forward")

            upstream = d_out[:, None] * model.head_weight[None, :]
            named = grad_dict(descriptor_backward(cache, upstream))
            named["head.weight"] = features.T @ d_out
            named["head.bias"] = d_out.sum()
            for name, view in grads.items():
                view[...] = named[name]
            lap("backward")

            try:
                new = optimizer_step(flat, {"theta": theta}, {"theta": g})["theta"]
            except NonFiniteError as exc:
                name = next(name for name, view in grads.items() if not np.isfinite(view).all())
                raise DivergenceError(
                    f"non-finite gradient at step {step} in parameter group {name!r}", step=step
                ) from exc
            if not np.isfinite(new).all():
                raise DivergenceError(f"non-finite parameter after step {step}", step=step)
            theta[...] = new
            model.step = step + 1
            lap("optimizer")

            if (step + 1) % config.eval_every == 0 or step + 1 == config.steps:
                step_s = (clock - t_record) / (step + 1 - step_record)
                records.append(
                    EvalRecord(
                        step + 1,
                        loss,
                        metric_name,
                        evaluate(model, dataset, dataset.val_idx),
                        time.perf_counter() - t_start,
                        *weight_readout(model.weights),
                        step_s,
                        grad_norms(grads),
                    )
                )
                lap("eval")
                t_record, step_record = clock, step + 1

    if "theta" in flat.moments and flat.step > state.step:  # Adam ran: split its moments by name
        m, v = (_views(moment, trainable) for moment in flat.moments["theta"])
        state.moments.update((name, (m[name], v[name])) for name in trainable)
    state.step = flat.step

    final_value = records[-1].metric_value if records else evaluate(model, dataset, dataset.val_idx)
    metrics = Metrics(
        kind=config.kind,
        records=records,
        losses=losses,
        final_metric_name=metric_name,
        final_metric_value=final_value,
        wall_clock_s=time.perf_counter() - t_start,
        stage_s=stage_s,
    )
    return metrics, model, state


def save_checkpoint(
    path: str | Path,
    model: TrainedModel,
    state: OptimizerState,
    config: TrainConfig,
    task_spec: ToyTaskSpec,
) -> None:
    doc = {
        "descriptor": descriptor_to_doc(model.params, model.weights),
        "head": {
            "weight": model.head_weight.tolist(),
            "bias": model.head_bias.tolist(),
        },
        "kind": model.kind,
        "step": model.step,
        "optimizer": state.to_doc(),
        "train_config": config.to_doc(),
        "task_spec": task_spec.to_doc(),
    }
    Path(path).write_text(json.dumps(doc, indent=2))


def load_checkpoint(
    path: str | Path,
) -> tuple[TrainedModel, OptimizerState, TrainConfig, ToyTaskSpec]:
    """Read a :func:`save_checkpoint` document; any malformed part is a FileFormatError.

    So is a part that contradicts another: a model that does not fit the
    task's cells or the kind, or a moment not shaped like the array it names.
    """
    try:
        doc = json.loads(Path(path).read_text())
        params, weights = descriptor_from_doc(doc["descriptor"])
        state = OptimizerState.from_doc(doc["optimizer"])
        config = TrainConfig.from_doc(doc["train_config"], FileFormatError)
        task_spec = ToyTaskSpec.from_doc(doc["task_spec"], FileFormatError)
        if doc["kind"] != config.kind:
            raise FileFormatError(
                f"kind {doc['kind']!r} differs from the train_config kind {config.kind!r}"
            )
        if params.layers and params.in_dim != task_spec.channels:
            raise FileFormatError(f"the first layer takes {params.in_dim} channels, the task "
                                  f"has {task_spec.channels}")
        if (weights is not None) != (config.kind == "weighted"):
            raise FileFormatError(f"aggregation weights do not fit the {config.kind!r} kind")
        c_out = params.output_channels(task_spec.channels)
        if weights is not None:
            _check_agg_shapes(weights, task_spec.n_points, c_out)
        model = TrainedModel(
            params=params,
            weights=weights,
            head_weight=_array_from_doc(doc["head"]["weight"], (c_out,)),
            head_bias=_array_from_doc(doc["head"]["bias"], (1,)),
            kind=config.kind,
            step=typed(int, doc["step"], "step", FileFormatError),
        )
        arrays = _trainable(model, freeze_agg=False)
        for name, (m, _) in state.moments.items():
            if name not in arrays or m.shape != arrays[name].shape:
                raise FileFormatError(f"optimizer moment {name!r} {m.shape} fits no model array")
        return model, state, config, task_spec
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError and ValidationError too
        raise FileFormatError(f"bad training checkpoint: {exc}") from exc
