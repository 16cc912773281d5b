"""Reverse-mode gradients for the descriptor, FD checking, and optimizers.

The sort stage is locally a fixed permutation (ties pinned by the stable
tie-break), so its backward pass just routes each sorted-row gradient to the
slot it came from. Like the forward pass it runs on the occupied slots only,
one fill-level group at a time; padding slots get zero gradient.

All reductions over a cell's slots run in a canonical order (by embedded row
values), not input order, so parameter gradients are bitwise identical under
any shuffle of a cell's valid slots and accumulation across cells is a fixed
sequential fold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .descriptor import (
    AggregationWeights,
    FillGroup,
    ForwardCache,
    MlpLayer,
    MlpParams,
    _embed,
    _fill_groups,
    _group_perm,
    _occupied_rows,
    _to_slots,
    descriptor_forward,
)
from .errors import NonFiniteError, TieError, ValidationError
from .gridding import CellBatch, cell_batch_from_arrays


class Gradients:
    """Loss gradients mirroring the descriptor's parameters.

    ``layers`` pairs (d_weight, d_bias) per MLP layer; ``agg`` matches the
    aggregation weights (None for the max/mean kinds, which have none).
    ``embedded`` and ``inputs`` are the dense (K, N, C) per-slot gradients in
    original slot order. Training reads neither, so each is built on its
    first read, computing any sort permutation it routes through; until the
    object is dropped it keeps the forward cache alive for that.
    """

    def __init__(
        self,
        layers: list[tuple[np.ndarray, np.ndarray]],
        agg: np.ndarray | None,
        cache: ForwardCache,
        upstream: np.ndarray,
        weights: np.ndarray | None,
        d_rows: np.ndarray | None = None,
        first_layer: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ):
        self.layers = layers
        self.agg = agg
        # lazy state: the forward cache plus private copies of the caller's arrays
        self._cache = cache
        self._upstream = upstream
        self._weights = weights
        self._d_rows = d_rows  # (P, C) routed gradients, when the backward needed them
        self._first_layer = first_layer  # (canonical order, dz, weight) of layer 0
        self._embedded: np.ndarray | None = None
        self._inputs: np.ndarray | None = None

    @property
    def embedded(self) -> np.ndarray:
        if self._embedded is None:
            if self._d_rows is None:
                self._d_rows = _route(self._cache, self._upstream, self._weights)
            self._embedded = _to_slots(self._d_rows, self._cache.valid_count, self._cache.capacity)
        return self._embedded

    @property
    def inputs(self) -> np.ndarray:
        if self._inputs is None:
            if self._first_layer is None:  # identity embedding: inputs are the embedding
                self._inputs = self.embedded
            else:
                order, dz, weight = self._first_layer
                d_input = np.empty((dz.shape[0], weight.shape[0]))
                d_input[order] = dz @ weight.T
                self._inputs = _to_slots(d_input, self._cache.valid_count, self._cache.capacity)
        return self._inputs


def _canonical_row_order(embedded: np.ndarray, groups: list[FillGroup]) -> np.ndarray:
    """Occupied rows, fill group by group, each cell's rows in value order.

    Rows are ranked by their channel sum, a fixed per-row reduction, so equal
    rows get equal keys; only cells where distinct rows tie on that key are
    ranked lexicographically by row values instead. Slots with identical
    embedded rows contribute identically (or not at all, for ReLU-dead rows),
    so their relative order cannot change the sums.
    """
    key = embedded.sum(axis=1)
    parts = []
    for group in groups:
        keys = key[group.rows]
        rank = np.argsort(keys, axis=1, kind="stable")
        rows = np.take_along_axis(group.rows, rank, axis=1)
        keys = np.take_along_axis(keys, rank, axis=1)
        cell, pos = np.nonzero(keys[:, 1:] == keys[:, :-1])
        differ = (embedded[rows[cell, pos]] != embedded[rows[cell, pos + 1]]).any(axis=1)
        for i in np.unique(cell[differ]):
            cell_rows = group.rows[i]
            rows[i] = cell_rows[np.lexsort(embedded[cell_rows].T[::-1])]
        parts.append(rows.ravel())
    return np.concatenate(parts)


def _route(cache: ForwardCache, upstream: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """Sorted-row gradients routed back to the occupied rows they came from, (P, C)."""
    n = cache.capacity
    c = cache.embedded.shape[1]
    d_rows = np.empty_like(cache.embedded)
    for group in cache.groups:
        up = upstream[group.cells][:, None, :]
        if cache.kind == "mean":
            d_rows[group.rows] = up / group.count
            continue
        if cache.kind == "max":
            d_sorted = up
        elif w.ndim == 1:
            d_sorted = up * w[n - group.count :][None, :, None]
        else:
            d_sorted = up * w[n - group.count :][None]
        perm = _group_perm(group, cache.embedded, cache.kind)
        d_block = np.zeros((group.cells.size, group.count, c))
        np.put_along_axis(d_block, perm, d_sorted, axis=1)
        d_rows[group.rows] = d_block
    return d_rows


def descriptor_backward(cache: ForwardCache, upstream: np.ndarray) -> Gradients:
    """Backpropagate per-cell feature gradients through one forward pass.

    ``upstream`` is (K, C): dLoss/dFeatures. Returns parameter gradients
    accumulated over all cells; the per-slot gradients are built on first
    read. Sorted-row gradients are routed to their slots only to feed MLP
    layers, and the first layer's input gradient is left to ``inputs``.
    """
    if cache is None:
        raise ValidationError("forward cache is missing; rerun forward with need_cache=True")
    # a copy, so later changes by the caller cannot reach the lazy per-slot gradients
    upstream = np.array(upstream, dtype=np.float64)
    n = cache.capacity
    k = cache.valid_count.shape[0]
    c = cache.embedded.shape[1]
    if upstream.shape != (k, c):
        raise ValidationError(f"upstream must be ({k}, {c}), got {upstream.shape}")

    w = agg_grad = None
    if cache.kind == "weighted":
        w = cache.weights.values.copy()
        agg_grad = np.zeros_like(w)
        spec = "kc,knc->n" if w.ndim == 1 else "kc,knc->nc"
        for group in cache.groups:
            agg_grad[n - group.count :] += np.einsum(spec, upstream[group.cells], group.values)

    layers = cache.params.layers
    if not layers:  # the canonical order cancels out: inputs are the embedding
        return Gradients([], agg_grad, cache, upstream, w)

    d_rows = _route(cache, upstream, w)
    order = _canonical_row_order(cache.embedded, cache.groups)
    dy = d_rows[order]
    layer_grads: list[tuple[np.ndarray, np.ndarray]] = []
    for i in reversed(range(len(layers))):
        layer = layers[i]
        z = cache.layer_preacts[i]
        dz = dy * (z[order] > 0.0) if layer.activation == "relu" else dy
        layer_grads.append((cache.layer_inputs[i][order].T @ dz, dz.sum(axis=0)))
        if i:
            dy = dz @ layer.weight.T
    layer_grads.reverse()
    return Gradients(
        layer_grads, agg_grad, cache, upstream, None, d_rows, (order, dz, layers[0].weight.copy())
    )


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

    def to_json(self) -> str:
        return json.dumps(
            {
                "tolerance": self.tolerance,
                "passed": self.passed,
                "groups": {
                    name: {"max_rel_error": err, "scalars_checked": self.checked.get(name, 0)}
                    for name, err in self.groups.items()
                },
            },
            indent=2,
        )


def squared_error_loss(target: np.ndarray):
    """0.5 * sum((features - target)^2) with its feature gradient."""
    target = np.asarray(target, dtype=np.float64)

    def loss_fn(features: np.ndarray) -> tuple[float, np.ndarray]:
        diff = features - target
        return 0.5 * float(np.sum(diff * diff)), diff

    return loss_fn


def linear_sum_loss():
    """sum(features): linear, so FD error is pure rounding."""

    def loss_fn(features: np.ndarray) -> tuple[float, np.ndarray]:
        return float(np.sum(features)), np.ones_like(features)

    return loss_fn


def is_tie_free(
    params: MlpParams,
    batch: CellBatch,
    step: float,
    margin: float = 10.0,
) -> bool:
    """True if the sort permutation is locally constant under +-step nudges.

    Requires every pair of valid embedded values within a channel to differ by
    at least ``margin * step``, and keeps ReLU pre-activations away from their
    kink by the same margin so central differences never straddle one. Exact
    zero-zero ties are allowed under a final ReLU: the pre-activation margin
    pins those slots dead, so they stay at zero under the nudge and carry no
    gradient either way.
    """
    counts = batch.valid_count
    embedded, _, preacts = _embed(params, _occupied_rows(batch.data, counts), need_cache=True)
    slack = margin * step
    final_relu = bool(params.layers) and params.layers[-1].activation == "relu"
    for group in _fill_groups(counts):
        vals = np.sort(embedded[group.rows], axis=1)
        tied = np.diff(vals, axis=1) < slack
        if final_relu:
            tied &= ~((vals[:, :-1] == 0.0) & (vals[:, 1:] == 0.0))
        if tied.any():
            return False
    for layer, z in zip(params.layers, preacts):
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
    step: float = 1e-5,
    tolerance: float = 1e-5,
    max_per_group: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Central-difference sweep of every (or a sampled subset of) scalar.

    The step for scalar theta is ``step * max(1, |theta|)`` and the relative
    error denominator is ``max(|analytic|, |numeric|, 1e-12)``.
    """
    if not is_tie_free(params, batch, step):
        raise TieError("inputs are not tie-free at the requested step size")

    base = param_dict(params, weights)
    for name in analytic:
        if name not in base or analytic[name].shape != base[name].shape:
            raise ValidationError(f"analytic gradient group {name!r} does not match parameters")

    def loss_at(values: dict[str, np.ndarray]) -> float:
        p, w = rebuild_from_dict(values, params, weights)
        features, _ = descriptor_forward(p, w, batch, kind=kind, need_cache=False)
        loss, _ = loss_fn(features)
        return loss

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
            h = step * max(1.0, abs(theta.flat[idx]))
            bumped = {k: (v.copy() if k == name else v) for k, v in base.items()}
            bumped[name].flat[idx] = theta.flat[idx] + h
            loss_plus = loss_at(bumped)
            bumped[name].flat[idx] = theta.flat[idx] - h
            loss_minus = loss_at(bumped)
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
    step: float = 1e-5,
    tolerance: float = 1e-5,
    max_per_group: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Check descriptor_backward against central finite differences."""
    features, cache = descriptor_forward(params, weights, batch, kind=kind, need_cache=True)
    _, upstream = loss_fn(features)
    analytic = grad_dict(descriptor_backward(cache, upstream))
    return compare_gradients(
        analytic,
        params,
        weights,
        batch,
        loss_fn,
        kind=kind,
        step=step,
        tolerance=tolerance,
        max_per_group=max_per_group,
        rng=rng,
    )


# central differences resolve gradients down to roughly 1e-10 absolute; below
# this magnitude (but above exact zero) the relative-error metric is noise
FD_RESOLUTION_FLOOR = 1e-4
EXACT_ZERO_FLOOR = 1e-12


def run_gradient_check_suite(
    num_configs: int = 100,
    seed: int = 0,
    kind: str = "weighted",
    step: float = 1e-5,
    tolerance: float = 1e-5,
    max_attempts: int = 40,
) -> list[GradCheckReport]:
    """FD-check ``num_configs`` random small descriptors on tie-free inputs.

    Each configuration draws its own sizes (N in 3..8, C in 2..8, depth 1-2),
    parameters, and cells. Configurations are redrawn, like ties, when inputs
    tie at the sort or when a gradient entry falls between exact zero and the
    finite-difference resolution floor, where central differences cannot
    support a relative comparison at double precision.
    """
    reports = []
    for i in range(num_configs):
        for attempt in range(max_attempts):
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
            if not is_tie_free(params, batch, step):
                continue
            target = rng.standard_normal((k, params.output_channels(c_in)))
            loss_fn = squared_error_loss(target)

            features, cache = descriptor_forward(params, weights, batch, kind=kind)
            _, upstream = loss_fn(features)
            analytic = grad_dict(descriptor_backward(cache, upstream))
            if any(
                ((np.abs(g) > EXACT_ZERO_FLOOR) & (np.abs(g) < FD_RESOLUTION_FLOOR)).any()
                for g in analytic.values()
            ):
                continue

            reports.append(
                compare_gradients(
                    analytic,
                    params,
                    weights,
                    batch,
                    loss_fn,
                    kind=kind,
                    step=step,
                    tolerance=tolerance,
                )
            )
            break
        else:
            raise TieError(f"config {i}: tie detected after {max_attempts} resample attempts")
    return reports


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


@dataclass
class OptimizerState:
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
        return {
            "algorithm": self.algorithm,
            "lr": self.lr,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
            "step": self.step,
            "moments": {
                name: {
                    "shape": list(m.shape),
                    "m": m.ravel().tolist(),
                    "v": v.ravel().tolist(),
                }
                for name, (m, v) in self.moments.items()
            },
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "OptimizerState":
        state = cls(
            algorithm=doc["algorithm"],
            lr=float(doc["lr"]),
            beta1=float(doc["beta1"]),
            beta2=float(doc["beta2"]),
            eps=float(doc["eps"]),
            step=int(doc["step"]),
        )
        for name, entry in doc.get("moments", {}).items():
            shape = tuple(entry["shape"])
            state.moments[name] = (
                np.asarray(entry["m"], dtype=np.float64).reshape(shape),
                np.asarray(entry["v"], dtype=np.float64).reshape(shape),
            )
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
            m, v = state.moments.get(name, (np.zeros_like(theta), np.zeros_like(theta)))
            m = state.beta1 * m + (1.0 - state.beta1) * grad
            v = state.beta2 * v + (1.0 - state.beta2) * (grad * grad)
            state.moments[name] = (m, v)
            m_hat = m / (1.0 - state.beta1**state.step)
            v_hat = v / (1.0 - state.beta2**state.step)
            out[name] = theta - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return out
