"""Reverse-mode gradients for the descriptor, FD checking, and optimizers.

The sort stage is locally a fixed permutation (ties pinned by the stable
tie-break), so its backward pass just routes each sorted-row gradient to the
slot it came from: for the weighted kind, each slot reads the weight of the
row its stable rank names. Like the forward pass it runs on the occupied
slots only, fill-level group by fill-level group, the groups shared across
the usable CPUs; padding slots get zero gradient.

All reductions over a cell's slots run in a canonical order (by embedded row
values), not input order, so parameter gradients are bitwise identical under
any shuffle of a cell's valid slots and accumulation across cells is a fixed
sequential fold.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields

import numpy as np

from .descriptor import (
    AggregationWeights,
    FillGroup,
    ForwardCache,
    MlpLayer,
    MlpParams,
    _array_from_doc,
    _for_each_group,
    _rows_matmul,
    descriptor_forward,
)
from .documents import Document
from .errors import FileFormatError, NonFiniteError, TieError, ValidationError
from .gridding import CellBatch, cell_batch_from_arrays


@dataclass
class Gradients:
    """Loss gradients mirroring the descriptor's parameters.

    ``layers`` pairs (d_weight, d_bias) per MLP layer; ``agg`` matches the
    aggregation weights (None for the max/mean kinds, which have none).
    """

    layers: list[tuple[np.ndarray, np.ndarray]]
    agg: np.ndarray | None


def _canonical_rows(embedded: np.ndarray, group: FillGroup) -> np.ndarray:
    """The group's fill-major rows, cell by cell, each cell's rows in value order.

    Rows are keyed by their channel sum, a fixed per-row reduction whose bits
    do not depend on how many rows one call covers, so equal rows get equal
    keys; only cells where distinct rows tie on that key are ranked
    lexicographically by row values instead. Slots with identical embedded
    rows contribute identically (or not at all, for ReLU-dead rows), so their
    relative order cannot change the sums.
    """
    c = group.count
    key = embedded[group.span].sum(axis=1)
    order = np.argsort(key.reshape(-1, c), axis=1, kind="stable")
    order += np.arange(0, key.size, c)[:, None]
    keys = key[order]
    rows = order + group.start
    cell, pos = np.nonzero(keys[:, 1:] == keys[:, :-1])
    differ = (embedded[rows[cell, pos]] != embedded[rows[cell, pos + 1]]).any(axis=1)
    for i in np.unique(cell[differ]):
        first = group.start + i * c
        rows[i] = first + np.lexsort(embedded[first : first + c].T[::-1])
    return rows.ravel()


def _route(cache: ForwardCache, group: FillGroup, up: np.ndarray, rows: np.ndarray,
           d_rows: np.ndarray) -> np.ndarray:
    """The group's sorted-row gradients at the rows they came from, in the order of ``rows``.

    ``up`` is the group's (k_c, C) feature gradient. The weighted kind gives
    slot s of channel ch ``up[ch] * w[rank[s, ch]]`` and the mean ``up[ch] /
    count``, both formed straight into the group's rows of ``d_rows`` and
    returned as that view. The max kind writes one row per cell and channel,
    whose other rows must already be zero, and returns them gathered.
    """
    block = group.block(d_rows)
    if cache.kind == "max":
        np.put(d_rows, group.src, up)
        return d_rows[rows]
    if cache.kind == "mean":
        np.divide(up[:, None, :], group.count, out=block)
    else:
        w_rows = cache.weights.values[cache.capacity - group.count :]
        rank = group.rank.reshape(rows.size, -1)[rows - group.start]
        w_at = w_rows.take(rank) if w_rows.ndim == 1 else w_rows[rank, np.arange(rank.shape[1])]
        np.multiply(up[:, None, :], w_at.reshape(block.shape), out=block)
    return d_rows[group.span]


def descriptor_backward(cache: ForwardCache, upstream: np.ndarray) -> Gradients:
    """Backpropagate per-cell feature gradients through one forward pass.

    ``upstream`` is (K, C): dLoss/dFeatures. Returns parameter gradients
    accumulated over all cells. Sorted-row gradients are routed to their
    slots only to feed MLP layers; no input gradient is formed, since the
    descriptor's inputs are raw points with no parameters upstream.

    Each fill group's share of the aggregation gradient, its routing, its
    canonical row order and the last layer's gradient rows are formed on
    their own (see ``_for_each_group``); the sums over groups and the layer
    products over all rows then run on the calling thread, in group order.
    """
    if cache is None:
        raise ValidationError("forward cache is missing; rerun forward with need_cache=True")
    upstream = np.asarray(upstream, dtype=np.float64)
    n = cache.capacity
    k = cache.valid_count.shape[0]
    c = cache.embedded.shape[1]
    if upstream.shape != (k, c):
        raise ValidationError(f"upstream must be ({k}, {c}), got {upstream.shape}")

    w = cache.weights.values if cache.kind == "weighted" else None
    spec = "kc,knc->n" if w is None or w.ndim == 1 else "kc,knc->nc"
    layers = cache.params.layers
    embedded = cache.embedded
    if layers:
        last = layers[-1]
        # the max kind routes to one row per cell and channel; the rest stay zero
        dz = (np.zeros_like if cache.kind == "max" else np.empty_like)(embedded)

    def backward_group(group: FillGroup) -> tuple[np.ndarray | None, np.ndarray | None]:
        up = upstream[group.cells]
        agg_part = None if w is None else np.einsum(spec, up, group.values)
        if not layers:  # no MLP parameters: nothing to route or order
            return agg_part, None
        # the canonical order permutes rows only within a group, so dz's rows
        # of this group take the group's gradients in that order
        rows = _canonical_rows(embedded, group)
        routed, span = _route(cache, group, up, rows, dz), dz[group.span]
        if last.activation == "relu":
            # a ReLU output is positive exactly where its input is, ±0.0 and NaN included
            np.multiply(routed, embedded[rows] > 0.0, out=span)
        elif cache.kind == "max":
            span[...] = routed
        return agg_part, rows

    parts = _for_each_group(backward_group, cache.groups)
    agg_grad = None
    if w is not None:
        agg_grad = np.zeros_like(w)
        for group, (agg_part, _) in zip(cache.groups, parts):
            agg_grad[n - group.count :] += agg_part
    if not layers:
        return Gradients([], agg_grad)

    # a batch of no cells has no parts, and its gradients are zero
    order = np.concatenate([np.empty(0, dtype=np.intp)] + [rows for _, rows in parts])
    layer_grads: list[tuple[np.ndarray, np.ndarray]] = []
    for i in reversed(range(len(layers))):
        layer, x, y = layers[i], cache.activations[i], cache.activations[i + 1]
        if i < len(layers) - 1:  # the last layer's dz was formed group by group
            dz = dy * (y[order] > 0.0) if layer.activation == "relu" else dy
        layer_grads.append((x[order].T @ dz, dz.sum(axis=0)))
        if i:
            dy = dz @ layer.weight.T
    layer_grads.reverse()
    return Gradients(layer_grads, agg_grad)


# ---------------------------------------------------------------------------
# Named parameter dictionaries (optimizer- and checker-facing flat views)
# ---------------------------------------------------------------------------


def param_dict(
    params: MlpParams, weights: AggregationWeights | None = None
) -> dict[str, np.ndarray]:
    out = {}
    for i, layer in enumerate(params.layers):
        out[f"mlp.{i}.weight"] = layer.weight
        out[f"mlp.{i}.bias"] = layer.bias
    if weights is not None:
        out["agg"] = weights.values
    return out


def grad_dict(grads: Gradients) -> dict[str, np.ndarray]:
    out = {}
    for i, (d_weight, d_bias) in enumerate(grads.layers):
        out[f"mlp.{i}.weight"] = d_weight
        out[f"mlp.{i}.bias"] = d_bias
    if grads.agg is not None:
        out["agg"] = grads.agg
    return out


def rebuild_from_dict(
    values: dict[str, np.ndarray],
    template_params: MlpParams,
    template_weights: AggregationWeights | None,
) -> tuple[MlpParams, AggregationWeights | None]:
    layers = [
        MlpLayer(
            weight=values[f"mlp.{i}.weight"],
            bias=values[f"mlp.{i}.bias"],
            activation=layer.activation,
        )
        for i, layer in enumerate(template_params.layers)
    ]
    weights = None
    if template_weights is not None:
        weights = AggregationWeights(values["agg"], template_weights.mode)
    return MlpParams(layers), weights


# ---------------------------------------------------------------------------
# Finite-difference checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    """Max relative FD error per parameter group, plus the pass verdict."""

    groups: dict[str, float]
    tolerance: float
    passed: bool
    checked: dict[str, int] = field(default_factory=dict)


def squared_error_loss(target: np.ndarray):
    """0.5 * sum((features - target)^2) with its feature gradient."""
    target = np.asarray(target, dtype=np.float64)

    def loss_fn(features: np.ndarray) -> tuple[float, np.ndarray]:
        diff = features - target
        return 0.5 * float(np.sum(diff * diff)), diff

    return loss_fn


FD_STEP = 1e-5  # the central-difference step, relative to max(1, |theta|)
# the gap, in finite-difference steps, that keeps sorted values and ReLU
# pre-activations from crossing under a +-step nudge
TIE_MARGIN = 10.0


def is_tie_free(params: MlpParams, batch: CellBatch, step: float) -> bool:
    """True if the sort permutation is locally constant under +-step nudges.

    Requires every pair of valid embedded values within a channel to differ by
    at least ``TIE_MARGIN * step``, and keeps ReLU pre-activations away from
    their kink by the same margin (recomputed from each layer's cached input)
    so central differences never straddle one. Exact zero-zero ties are
    allowed under a final ReLU: the pre-activation margin pins those slots
    dead, so they stay at zero under the nudge and carry no gradient either way.
    """
    _, cache = descriptor_forward(params, None, batch, kind="max")
    slack = TIE_MARGIN * step
    final_relu = bool(params.layers) and params.layers[-1].activation == "relu"
    for group in cache.groups:
        vals = np.sort(group.block(cache.embedded), axis=1)
        tied = np.diff(vals, axis=1) < slack
        if final_relu:
            tied &= ~((vals[:, :-1] == 0.0) & (vals[:, 1:] == 0.0))
        if tied.any():
            return False
    for layer, x in zip(params.layers, cache.activations):
        z = _rows_matmul(x, layer.weight) + layer.bias
        if layer.activation == "relu" and (np.abs(z) < slack).any():
            return False
    return True


def compare_gradients(
    analytic: dict[str, np.ndarray],
    params: MlpParams,
    weights: AggregationWeights | None,
    batch: CellBatch,
    loss_fn,
    kind: str = "weighted",
    step: float = FD_STEP,
    tolerance: float = 1e-5,
    max_per_group: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Central-difference sweep of every (or a sampled subset of) scalar.

    The step for scalar theta is ``step * max(1, |theta|)`` and the relative
    error denominator is ``max(|analytic|, |numeric|, 1e-12)``. The inputs
    must be tie-free at ``step`` (see :func:`is_tie_free`); the caller checks.
    The sweep nudges a private copy of the parameters in place, one scalar at
    a time, so ``params`` and ``weights`` are never written.
    """
    params, weights = copy.deepcopy((params, weights))
    base = param_dict(params, weights)
    for name in analytic:
        if name not in base or analytic[name].shape != base[name].shape:
            raise ValidationError(f"analytic gradient group {name!r} does not match parameters")

    def loss() -> float:
        features, _ = descriptor_forward(params, weights, batch, kind=kind, need_cache=False)
        return loss_fn(features)[0]

    groups: dict[str, float] = {}
    checked: dict[str, int] = {}
    for name, theta in base.items():
        flat_indices = np.arange(theta.size)
        if max_per_group is not None and theta.size > max_per_group:
            if rng is None:
                rng = np.random.default_rng(0)
            flat_indices = np.sort(rng.choice(theta.size, size=max_per_group, replace=False))
        worst = 0.0
        for idx in flat_indices:
            value = theta.flat[idx]
            h = step * max(1.0, abs(value))
            theta.flat[idx] = value + h
            loss_plus = loss()
            theta.flat[idx] = value - h
            loss_minus = loss()
            theta.flat[idx] = value
            numeric = (loss_plus - loss_minus) / (2.0 * h)
            a = float(analytic[name].flat[idx])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-12)
            worst = max(worst, rel)
        groups[name] = worst
        checked[name] = int(flat_indices.size)

    passed = all(err <= tolerance for err in groups.values())
    return GradCheckReport(groups=groups, tolerance=tolerance, passed=passed, checked=checked)


def finite_difference_check(
    params: MlpParams,
    weights: AggregationWeights | None,
    batch: CellBatch,
    loss_fn,
    kind: str = "weighted",
    step: float = FD_STEP,
    tolerance: float = 1e-5,
    max_per_group: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Check descriptor_backward against central finite differences."""
    if not is_tie_free(params, batch, step):
        raise TieError("inputs are not tie-free at the requested step size")
    features, cache = descriptor_forward(params, weights, batch, kind=kind, need_cache=True)
    _, upstream = loss_fn(features)
    analytic = grad_dict(descriptor_backward(cache, upstream))
    return compare_gradients(
        analytic, params, weights, batch, loss_fn, kind=kind, step=step, tolerance=tolerance,
        max_per_group=max_per_group, rng=rng,
    )


# central differences resolve gradients down to roughly 1e-10 absolute; below
# this magnitude (but above exact zero) the relative-error metric is noise
FD_RESOLUTION_FLOOR = 1e-4
EXACT_ZERO_FLOOR = 1e-12
MAX_ATTEMPTS = 40  # draws per configuration before the suite gives up on ties


def run_gradient_check_suite(
    num_configs: int = 100,
    seed: int = 0,
    tolerance: float = 1e-5,
) -> list[GradCheckReport]:
    """FD-check ``num_configs`` random small descriptors on tie-free inputs.

    Each configuration draws its own sizes (N in 3..8, C in 2..8, depth 1-2),
    parameters, and cells, and checks the weighted kind at ``FD_STEP``.
    Configurations are redrawn, like ties, when inputs tie at the sort or when
    a gradient entry falls between exact zero and the finite-difference
    resolution floor, where central differences cannot support a relative
    comparison at double precision.
    """
    if num_configs < 1:
        raise ValidationError("num_configs must be >= 1")
    reports = []
    for i in range(num_configs):
        for attempt in range(MAX_ATTEMPTS):
            rng = np.random.default_rng([seed, i, attempt])
            n = int(rng.integers(3, 9))
            c_in = int(rng.integers(2, 9))
            c_out = int(rng.integers(2, 9))
            depth = int(rng.integers(1, 3))
            widths = (c_out,) if depth == 1 else (int(rng.integers(3, 9)), c_out)
            params = MlpParams.create(
                c_in, widths, activation="relu", seed=int(rng.integers(2**31))
            )
            for layer in params.layers:
                # random biases keep collapsed rows away from exact-zero preacts
                layer.bias = 0.1 * rng.standard_normal(layer.bias.shape)
            weights = AggregationWeights(rng.standard_normal(n))
            k = int(rng.integers(1, 4))
            data = rng.uniform(-1.0, 1.0, size=(k, n, c_in))
            counts = rng.integers(1, n + 1, size=k)
            batch = cell_batch_from_arrays(data, counts)
            if not is_tie_free(params, batch, FD_STEP):
                continue
            target = rng.standard_normal((k, params.output_channels(c_in)))
            loss_fn = squared_error_loss(target)

            features, cache = descriptor_forward(params, weights, batch)
            _, upstream = loss_fn(features)
            analytic = grad_dict(descriptor_backward(cache, upstream))
            if any(
                ((np.abs(g) > EXACT_ZERO_FLOOR) & (np.abs(g) < FD_RESOLUTION_FLOOR)).any()
                for g in analytic.values()
            ):
                continue

            reports.append(
                compare_gradients(analytic, params, weights, batch, loss_fn, tolerance=tolerance)
            )
            break
        else:
            raise TieError(f"config {i}: tie detected after {MAX_ATTEMPTS} resample attempts")
    return reports


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


@dataclass
class OptimizerState(Document):
    """SGD or Adam state over a named parameter dictionary."""

    algorithm: str = "adam"
    lr: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    moments: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def __post_init__(self):
        if self.algorithm not in ("sgd", "adam"):
            raise ValidationError(f"algorithm must be 'sgd' or 'adam', got {self.algorithm!r}")
        if self.step < 0:
            raise ValidationError("step must be >= 0")

    def to_doc(self) -> dict:
        doc = super().to_doc()
        doc["moments"] = {
            name: {"shape": list(m.shape), "m": m.ravel().tolist(), "v": v.ravel().tolist()}
            for name, (m, v) in self.moments.items()
        }
        return doc

    @classmethod
    def from_doc(cls, doc, error: type[Exception] = FileFormatError) -> "OptimizerState":
        """Every scalar is required, unlike in configs; moments default to none."""
        scalars = [f.name for f in fields(cls) if f.name != "moments"]
        if not isinstance(doc, dict) or not all(name in doc for name in scalars):
            raise error(f"optimizer state must be an object holding {scalars}")
        state = super().from_doc({name: doc[name] for name in scalars}, error)
        try:
            for name, entry in doc.get("moments", {}).items():
                shape = tuple(entry["shape"])
                state.moments[name] = (
                    _array_from_doc(entry["m"], shape),
                    _array_from_doc(entry["v"], shape),
                )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise error(f"bad optimizer moments: {exc}") from exc
        return state


def optimizer_step(
    state: OptimizerState,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """One deterministic update. Mutates ``state``; returns new parameter arrays."""
    for name, grad in grads.items():
        if name not in params:
            raise ValidationError(f"gradient for unknown parameter {name!r}")
        if grad.shape != params[name].shape:
            raise ValidationError(
                f"{name}: gradient shape {grad.shape} != parameter shape {params[name].shape}"
            )
        if not np.isfinite(grad).all():
            raise NonFiniteError(f"non-finite gradient in parameter group {name!r}")

    state.step += 1
    out = {}
    for name, theta in params.items():
        grad = grads.get(name)
        if grad is None:
            out[name] = theta
            continue
        if state.algorithm == "sgd":
            out[name] = theta - state.lr * grad
        else:
            if name not in state.moments:
                state.moments[name] = (np.zeros_like(theta), np.zeros_like(theta))
            m, v = state.moments[name]
            m = state.beta1 * m + (1.0 - state.beta1) * grad
            v = state.beta2 * v + (1.0 - state.beta2) * (grad * grad)
            state.moments[name] = (m, v)
            m_hat = m / (1.0 - state.beta1**state.step)
            v_hat = v / (1.0 - state.beta2**state.step)
            out[name] = theta - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return out
