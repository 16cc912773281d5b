"""Per-cell set descriptors: shared MLP embedding plus an aggregation stage.

Three aggregators are provided. ``max`` and ``mean`` are the classic
symmetric poolings; ``weighted`` first projects each embedding channel on its
own axis and sorts it ascending (an order-canonical, permutation-invariant
matrix), then combines the sorted rows with a learnable weight vector. A
weight vector that is zero everywhere except 1.0 at the last row reproduces
max pooling exactly, and uniform weights over the occupied rows reproduce the
mean, so both baselines are special cases of the weighted form.

Layout convention: a cell holds ``capacity`` slots; slots at index >=
``valid_count`` are structural zeros. Sorted matrices place those padding
zeros at the LOW row indices, so the last row always carries the per-channel
maximum of the real points regardless of fill level.

Execution is ragged: the batched descriptor computes only the occupied slots.
It embeds the occupied rows, then sorts and combines the cells in groups of
equal fill level c, where the padding rows of the dense sorted matrix would
only add zero terms; a group of c-point cells uses the last c weight rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FileFormatError, ValidationError
from .gridding import CellBatch

ACTIVATIONS = ("relu", "identity")
DESCRIPTOR_KINDS = ("weighted", "max", "mean")

# Test hook for the CLI property-suite sensitivity check: "skip-sort" bypasses
# the sorting stage so the invariance suites must fail. Never set in library code.
_FAULT_MODE: str | None = None


def set_fault_mode(mode: str | None) -> None:
    global _FAULT_MODE
    if mode not in (None, "skip-sort"):
        raise ValidationError(f"unknown fault mode {mode!r}")
    _FAULT_MODE = mode


@dataclass
class MlpLayer:
    weight: np.ndarray  # (C_in, C_out)
    bias: np.ndarray  # (C_out,)
    activation: str = "relu"

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[1],):
            raise ValidationError(
                f"layer shapes inconsistent: weight {self.weight.shape}, bias {self.bias.shape}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValidationError(f"activation must be one of {ACTIVATIONS}")
        if not (np.isfinite(self.weight).all() and np.isfinite(self.bias).all()):
            raise ValidationError("layer parameters must be finite")


@dataclass
class MlpParams:
    """Shared per-point MLP. An empty layer list is the identity embedding."""

    layers: list[MlpLayer] = field(default_factory=list)

    def __post_init__(self):
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.weight.shape[1] != nxt.weight.shape[0]:
                raise ValidationError("adjacent layer dimensions do not chain")

    @property
    def in_dim(self) -> int | None:
        return self.layers[0].weight.shape[0] if self.layers else None

    @property
    def out_dim(self) -> int | None:
        return self.layers[-1].weight.shape[1] if self.layers else None

    def output_channels(self, c_in: int) -> int:
        return self.out_dim if self.layers else c_in

    @classmethod
    def create(
        cls,
        c_in: int,
        widths: tuple[int, ...] = (64,),
        activation: str = "relu",
        seed: int = 0,
    ) -> "MlpParams":
        """He-initialized MLP with the given hidden/output widths."""
        rng = np.random.default_rng(seed)
        layers = []
        prev = c_in
        for width in widths:
            scale = np.sqrt(2.0 / prev)
            layers.append(
                MlpLayer(
                    weight=scale * rng.standard_normal((prev, width)),
                    bias=np.zeros(width),
                    activation=activation,
                )
            )
            prev = width
        return cls(layers)


@dataclass
class AggregationWeights:
    """Learnable row-combination weights for the sorted matrix.

    ``shared`` mode holds one weight per slot row (length N, the usual form);
    ``per-channel`` holds an (N, C) matrix, one column per feature channel.
    No normalization is imposed.
    """

    values: np.ndarray
    mode: str = "shared"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.mode not in ("shared", "per-channel"):
            raise ValidationError(f"mode must be 'shared' or 'per-channel', got {self.mode!r}")
        expected_ndim = 1 if self.mode == "shared" else 2
        if self.values.ndim != expected_ndim:
            raise ValidationError(
                f"{self.mode} weights must be {expected_ndim}-D, got shape {self.values.shape}"
            )
        if not np.isfinite(self.values).all():
            raise ValidationError("aggregation weights must be finite")

    @property
    def num_rows(self) -> int:
        return self.values.shape[0]

    @classmethod
    def max_pool_init(
        cls,
        n: int,
        channels: int | None = None,
        noise: float = 0.0,
        seed: int = 0,
    ) -> "AggregationWeights":
        """Unit weight on the last row: starts exactly at max pooling.

        ``noise`` adds small uniform perturbations for symmetry breaking.
        """
        if channels is None:
            values = np.zeros(n)
            values[-1] = 1.0
        else:
            values = np.zeros((n, channels))
            values[-1, :] = 1.0
        if noise:
            rng = np.random.default_rng(seed)
            values = values + rng.uniform(-noise, noise, size=values.shape)
        return cls(values, "shared" if channels is None else "per-channel")


@dataclass
class SortedFeatureMatrix:
    """Per-channel ascending sort of one cell's embeddings.

    ``values`` is (N, C); rows ``N - valid_count .. N - 1`` hold the sorted
    real points per channel, rows above are padding zeros. ``perm[r, c]`` is
    the source slot of row r in channel c and is a bijection on slots (ties
    are broken by ascending slot index; padded rows map onto the unused slots
    in order).
    """

    values: np.ndarray
    perm: np.ndarray
    valid_count: int


def _as_slots(cell: np.ndarray) -> np.ndarray:
    cell = np.asarray(cell, dtype=np.float64)
    if cell.ndim != 2:
        raise ValidationError(f"cell must be (N, C), got shape {cell.shape}")
    return cell


def _check_padding(cell: np.ndarray, valid_count: int) -> None:
    if not 1 <= valid_count <= cell.shape[0]:
        raise ValidationError(f"valid_count {valid_count} outside [1, {cell.shape[0]}]")
    if cell[valid_count:].any():
        raise ValidationError("slots at index >= valid_count must be zero")


def _occupied(counts: np.ndarray, n: int) -> np.ndarray:
    """(K, N) mask of the occupied slots."""
    return np.arange(n)[None, :] < counts[:, None]


def _occupied_rows(data: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The occupied slots of (K, N, C) slot data as cell-major rows (P, C)."""
    k, n, c = data.shape
    return np.take(data.reshape(k * n, c), np.flatnonzero(_occupied(counts, n)), axis=0)


def _to_slots(rows: np.ndarray, counts: np.ndarray, n: int) -> np.ndarray:
    """Scatter cell-major occupied rows (P, C) into zero-padded (K, N, C) slots."""
    out = np.zeros((counts.shape[0], n, rows.shape[1]))
    out[_occupied(counts, n)] = rows
    return out


def mlp_forward(params: MlpParams, cell: np.ndarray, valid_count: int) -> np.ndarray:
    """Embed one cell's valid slots through the shared MLP.

    Invalid slots stay exactly zero in the output (masked, not computed).
    """
    cell = _as_slots(cell)
    _check_padding(cell, valid_count)
    out, _, _ = _embed(params, cell[:valid_count], need_cache=False)
    return _to_slots(out, np.asarray([valid_count]), cell.shape[0])[0]


def _rows_matmul(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``x @ weight`` with each row rounded as it is inside a larger batch.

    numpy hands a one-row product to BLAS gemv, which rounds differently from
    the gemm used for two or more rows, so a single row goes in twice.
    """
    if x.shape[0] == 1:
        return (np.concatenate([x, x]) @ weight)[:1]
    return x @ weight


def _embed(
    params: MlpParams, x: np.ndarray, need_cache: bool
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """The shared MLP over occupied rows (P, C_in). Returns (out, inputs, preacts)."""
    if params.layers and params.in_dim != x.shape[1]:
        raise ValidationError(
            f"MLP expects {params.in_dim} input channels, cell has {x.shape[1]}"
        )
    inputs: list[np.ndarray] = []
    preacts: list[np.ndarray] = []
    for layer in params.layers:
        z = _rows_matmul(x, layer.weight) + layer.bias
        if need_cache:
            inputs.append(x)
            preacts.append(z)
        x = np.maximum(z, 0.0) if layer.activation == "relu" else z
    return x, inputs, preacts


@dataclass
class FillGroup:
    """The cells holding exactly ``count`` points, processed as one block.

    ``rows`` (k_c, count) indexes each cell's occupied rows in slot order.
    ``values`` (k_c, count, C) is the per-channel ascending sort of those
    rows; the max kind keeps none. ``perm[i, r, ch]`` is the slot that
    sorted row r of channel ch came from; for the max kind only the last row,
    the slot of each channel's maximum (the last one when maxima tie, as the
    stable sort would place it). Only gradient routing reads ``perm``, so it
    stays None until ``_group_perm`` computes it.
    """

    count: int
    cells: np.ndarray
    rows: np.ndarray
    values: np.ndarray | None = None
    perm: np.ndarray | None = None


def _fill_groups(counts: np.ndarray) -> list[FillGroup]:
    """Group cells by fill level, levels ascending, cells in batch order."""
    by_fill = np.argsort(counts, kind="stable")
    levels, first = np.unique(counts[by_fill], return_index=True)
    starts = np.cumsum(counts) - counts
    return [
        FillGroup(int(c), cells, starts[cells][:, None] + np.arange(c))
        for c, cells in zip(levels, np.split(by_fill, first[1:]))
    ]


def _group_perm(
    group: FillGroup, embedded: np.ndarray, kind: str, block: np.ndarray | None = None
) -> np.ndarray:
    """The group's source-slot permutation, computed on its first request.

    ``embedded`` holds the (P, C) occupied rows the group indexes; ``block``
    is the group's (k_c, count, C) block when the caller has taken it already.
    """
    if group.perm is None:
        if block is None:
            block = np.take(embedded, group.rows, axis=0)
        if kind == "max":
            group.perm = (group.count - 1 - np.argmax(block[:, ::-1], axis=1))[:, None, :]
        elif _FAULT_MODE == "skip-sort":
            group.perm = np.broadcast_to(np.arange(group.count)[None, :, None], block.shape)
        else:
            group.perm = np.argsort(block, axis=1, kind="stable")
    return group.perm


def _sort_group(group: FillGroup, embedded: np.ndarray, need_perm: bool) -> None:
    """Sort each channel of the group's (k_c, count, C) block ascending."""
    block = np.take(embedded, group.rows, axis=0)
    if need_perm:
        perm = _group_perm(group, embedded, "weighted", block)
        group.values = np.take_along_axis(block, perm, axis=1)
    elif _FAULT_MODE == "skip-sort":
        group.values = block
    else:
        # ties carry identical bits after canonicalization, so plain quicksort
        # yields the same value sequence as the stable sort, cheaper
        group.values = np.sort(block, axis=1)


def _combine(w_rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Weighted sum over the sorted rows of (k, c, C) blocks of c-point cells.

    ``w_rows`` holds the weights of the last c rows of the dense sorted
    matrix, (c,) shared or (c, C) per channel; its padding rows are zero.
    """
    if w_rows.ndim == 1:
        return np.einsum("n,knc->kc", w_rows, values)
    return np.einsum("nc,knc->kc", w_rows, values)


def sort_project(embedded: np.ndarray, valid_count: int) -> SortedFeatureMatrix:
    """Project each channel on its own axis and sort the valid values ascending.

    Padding goes to the low rows so that row N-1 is the per-channel maximum of
    the valid points. Ties keep ascending slot order (stable).
    """
    embedded = _as_slots(embedded)
    _check_padding(embedded, valid_count)
    n = embedded.shape[0]
    pad = n - valid_count
    (group,) = _fill_groups(np.asarray([valid_count]))
    _sort_group(group, embedded + 0.0, need_perm=True)
    values = np.zeros_like(embedded)
    values[pad:] = group.values[0]
    perm = np.empty(embedded.shape, dtype=np.int64)
    perm[:pad] = np.arange(valid_count, n)[:, None]  # padding rows take the unused slots
    perm[pad:] = group.perm[0]
    return SortedFeatureMatrix(values, perm, valid_count)


def aggregate_weighted(weights: AggregationWeights, sfm: SortedFeatureMatrix) -> np.ndarray:
    """Combine sorted rows into a length-C cell feature.

    Shared mode computes ``sum_i w[i] * values[i, c]`` per channel; per-channel
    mode uses its own column of weights per channel.
    """
    values = sfm.values
    n = values.shape[0]
    _check_agg_shapes(weights, n, values.shape[1])
    pad = n - sfm.valid_count
    return _combine(weights.values[pad:], values[None, pad:])[0]


def _check_agg_shapes(weights: AggregationWeights, n: int, c: int) -> None:
    if weights.mode == "shared":
        if weights.values.shape != (n,):
            raise ValidationError(
                f"shared weights shape {weights.values.shape} does not match {n} rows"
            )
    elif weights.values.shape != (n, c):
        raise ValidationError(
            f"per-channel weights shape {weights.values.shape} does not match ({n}, {c})"
        )


def aggregate_max(embedded: np.ndarray, valid_count: int) -> np.ndarray:
    """Per-channel maximum over the valid slots (-0.0 read as +0.0, as in a batch)."""
    embedded = _as_slots(embedded)
    _check_padding(embedded, valid_count)
    return (embedded[:valid_count] + 0.0).max(axis=0)


def aggregate_mean(embedded: np.ndarray, valid_count: int) -> np.ndarray:
    """Per-channel mean over the valid slots.

    Computed as the weighted aggregation with uniform 1/n weights on the
    occupied sorted rows, so it is exactly equal to that special case and its
    rounding does not depend on the input slot order.
    """
    embedded = _as_slots(embedded)
    n = embedded.shape[0]
    sfm = sort_project(embedded, valid_count)
    w = np.zeros(n)
    w[n - valid_count :] = 1.0 / valid_count
    return aggregate_weighted(AggregationWeights(w), sfm)


@dataclass
class ForwardCache:
    """Everything descriptor_backward needs from a forward pass.

    Arrays with a leading P axis hold the P occupied slots of the batch,
    cell by cell in slot order. The groups carry their sorted blocks; their
    permutations are computed in the forward only when the backward routes
    through them (an MLP with layers, max or weighted kind), otherwise on
    request by ``_group_perm``.
    """

    kind: str
    params: MlpParams
    weights: AggregationWeights | None
    valid_count: np.ndarray  # (K,)
    capacity: int
    layer_inputs: list[np.ndarray]  # (P, C_in) per layer
    layer_preacts: list[np.ndarray]  # (P, C_out) per layer
    embedded: np.ndarray  # (P, C), -0.0 canonicalized to +0.0
    groups: list[FillGroup]

    @property
    def sorted_values(self) -> np.ndarray | None:
        """The dense (K, N, C) sorted matrices: padding rows first, as zeros.

        Built on each access from the per-group sorts; None for the max kind.
        """
        if self.kind == "max":
            return None
        n = self.capacity
        out = np.zeros((self.valid_count.shape[0], n, self.embedded.shape[1]))
        for group in self.groups:
            out[group.cells, n - group.count :] = group.values
        return out


def descriptor_forward(
    params: MlpParams,
    weights: AggregationWeights | None,
    batch: CellBatch,
    kind: str = "weighted",
    need_cache: bool = True,
) -> tuple[np.ndarray, ForwardCache | None]:
    """Run the full descriptor over every cell of a batch.

    Returns (features, cache) where features is (K, C). Only occupied slots
    are computed: the MLP runs on the P occupied rows, and cells are sorted
    and combined in groups of equal fill level c, each with the weights of
    the last c sorted rows. The cache carries the embeddings and sorted
    blocks needed for the backward pass, plus the sort permutations when the
    backward routes gradients through them; pass ``need_cache=False`` on
    inference-only paths to skip it.
    """
    if kind not in DESCRIPTOR_KINDS:
        raise ValidationError(f"kind must be one of {DESCRIPTOR_KINDS}")
    data = batch.data
    counts = batch.valid_count
    k, n, _ = data.shape
    c_out = params.output_channels(data.shape[2])
    if k == 0:
        return np.zeros((0, c_out)), None
    if (counts < 1).any() or (counts > n).any():
        raise ValidationError(f"every materialized cell must hold 1 to {n} points")
    if kind == "weighted":
        if weights is None:
            raise ValidationError("weighted aggregation requires AggregationWeights")
        _check_agg_shapes(weights, n, c_out)

    embedded, layer_inputs, layer_preacts = _embed(
        params, _occupied_rows(data, counts), need_cache=need_cache
    )
    embedded = embedded + 0.0  # turns -0.0 into +0.0 so ties are bit-identical

    # the backward routes sorted-row gradients to their slots only to feed MLP
    # layers, and the mean spreads them evenly without a permutation
    need_perm = need_cache and bool(params.layers) and kind != "mean"
    groups = _fill_groups(counts)
    features = np.empty((k, c_out))
    for group in groups:
        c = group.count
        if kind == "max":
            block = np.take(embedded, group.rows, axis=0)
            features[group.cells] = block.max(axis=1)
            if need_perm:
                _group_perm(group, embedded, kind, block)
            continue
        _sort_group(group, embedded, need_perm)
        w_rows = np.full(c, 1.0 / c) if kind == "mean" else weights.values[n - c :]
        features[group.cells] = _combine(w_rows, group.values)
        if not need_cache:
            group.values = None

    if not need_cache:
        return features, None
    cache = ForwardCache(
        kind=kind,
        params=params,
        weights=weights,
        valid_count=counts.copy(),
        capacity=n,
        layer_inputs=layer_inputs,
        layer_preacts=layer_preacts,
        embedded=embedded,
        groups=groups,
    )
    return features, cache


def descriptor_to_doc(params: MlpParams, weights: AggregationWeights | None) -> dict:
    """Checkpoint document: layer shapes, row-major arrays, activation tags."""
    return {
        "layers": [
            {
                "shape": list(layer.weight.shape),
                "weight": layer.weight.ravel(order="C").tolist(),
                "bias": layer.bias.tolist(),
                "activation": layer.activation,
            }
            for layer in params.layers
        ],
        "aggregation": None
        if weights is None
        else {
            "mode": weights.mode,
            "shape": list(weights.values.shape),
            "values": weights.values.ravel(order="C").tolist(),
        },
    }


def descriptor_from_doc(doc: dict) -> tuple[MlpParams, AggregationWeights | None]:
    try:
        layers = [
            MlpLayer(
                weight=np.asarray(entry["weight"], dtype=np.float64).reshape(entry["shape"]),
                bias=np.asarray(entry["bias"], dtype=np.float64),
                activation=entry["activation"],
            )
            for entry in doc["layers"]
        ]
        agg = doc.get("aggregation")
        weights = (
            AggregationWeights(
                np.asarray(agg["values"], dtype=np.float64).reshape(agg["shape"]),
                agg["mode"],
            )
            if agg
            else None
        )
        return MlpParams(layers), weights
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"bad descriptor checkpoint: {exc}") from exc


def save_descriptor(path: str | Path, params: MlpParams, weights: AggregationWeights | None) -> None:
    """Write descriptor parameters as a JSON checkpoint (row-major arrays)."""
    Path(path).write_text(json.dumps(descriptor_to_doc(params, weights), indent=2))


def load_descriptor(path: str | Path) -> tuple[MlpParams, AggregationWeights | None]:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"bad descriptor checkpoint: {exc}") from exc
    return descriptor_from_doc(doc)
