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
It lays the occupied rows out fill-major (cells ordered by fill level, batch
order kept within a level), so each group of c-point cells is one contiguous
block of rows, where the padding rows of the dense sorted matrix would only
add zero terms; a group of c-point cells uses the last c weight rows. Each
group is embedded, sorted and combined as one unit, while its embedding is
still in cache, which pays off when a batch has many fill levels, as a LiDAR
scan has (about 32). Every forward runs one group function, the groups
shared across the usable CPUs (``_for_each_group``); ``need_cache`` chooses
only where it writes. A training forward writes each layer's output into
the group's rows of the fill-major activations the backward reads. An
inference forward gives each share scratch arrays, allocated once and sized
for its largest group, and works every group in slices of them, so it holds
the fill-major input rows, the features and one scratch set per share, never
an embedding of every row.
"""

from __future__ import annotations

import contextvars
import functools
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FileFormatError, NonFiniteError, ValidationError
from .gridding import CellBatch, _to_slots, require_memory

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
        if any(width < 1 for width in widths):
            raise ValidationError(f"mlp widths must be >= 1, got {tuple(widths)}")
        rng = np.random.default_rng(seed)
        layers = []
        prev = c_in
        for width in widths:
            require_memory(8 * prev * width, f"a ({prev}, {width}) MLP layer", "narrow the MLP")
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


def mlp_forward(params: MlpParams, cell: np.ndarray, valid_count: int) -> np.ndarray:
    """Embed one cell's valid slots through the shared MLP.

    Invalid slots stay exactly zero in the output (masked, not computed).
    """
    cell = _as_slots(cell)
    _check_padding(cell, valid_count)
    out = _embed(params, cell[:valid_count])
    return _to_slots(out, np.asarray([valid_count]), cell.shape[0])[0]


def _rows_matmul(x: np.ndarray, weight: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x @ weight``, into ``out`` if given, each row rounded as inside a larger batch.

    OpenBLAS (0.3.31, as numpy 2.4 bundles it) computes a product's rows in
    blocks of four, and the rows past the last full block through other code,
    which can round differently when the product has fewer than four columns;
    numpy also hands a one-row product to gemv. Those last rows so go in as a
    zero-padded block of their own.
    """
    n = x.shape[0]
    full = n - n % 4
    if out is None:
        out = np.empty((n, weight.shape[1]))
    np.matmul(x[:full], weight, out=out[:full])
    if full < n:
        tail = np.zeros((4, x.shape[1]))
        tail[: n - full] = x[full:]
        out[full:] = (tail @ weight)[: n - full]
    return out


def _embed(params: MlpParams, x: np.ndarray, into: list[np.ndarray] | None = None) -> np.ndarray:
    """The shared MLP over rows ``x`` (n, C_in); with no layers, ``x`` itself.

    Each layer's product, bias and ReLU go in place into one (n, C_out)
    array: ``into[i]`` if given, which then keeps that layer's output.
    """
    if params.layers and params.in_dim != x.shape[1]:
        raise ValidationError(
            f"MLP expects {params.in_dim} input channels, cell has {x.shape[1]}"
        )
    for i, layer in enumerate(params.layers):
        x = _rows_matmul(x, layer.weight, out=None if into is None else into[i])
        x += layer.bias
        if layer.activation == "relu":
            np.maximum(x, 0.0, out=x)
    return x


@dataclass
class FillGroup:
    """The cells holding exactly ``count`` points, processed as one block.

    Their rows are the fill-major rows ``start`` on, cell after cell, each in
    slot order, so :meth:`block` is a (k_c, count, C) view. ``values`` is the
    per-channel ascending sort of that block; the max kind keeps none.
    ``rank[i, s, ch]`` is the sorted row that slot s of cell i holds in
    channel ch: its stable rank, ties in slot order, so ``rank`` is the
    inverse of the stable argsort. The max kind keeps only the top row:
    ``count - 1`` on each channel's last maximum, where the stable sort puts
    it, and 0 elsewhere. Only gradient routing reads ``rank``, so the forward
    sets it only when the backward will route through the sort.
    """

    count: int
    cells: np.ndarray
    start: int
    values: np.ndarray | None = None
    rank: np.ndarray | None = None

    @property
    def rows(self) -> int:
        """How many fill-major rows this group holds."""
        return self.cells.size * self.count

    @property
    def span(self) -> slice:
        """This group's fill-major rows."""
        return slice(self.start, self.start + self.rows)

    def block(self, rows: np.ndarray) -> np.ndarray:
        """This group's view of fill-major ``rows``: (k_c, count) plus the trailing axes."""
        return rows[self.span].reshape(self.cells.size, self.count, *rows.shape[1:])


def _group_workers() -> int:
    """How many threads a pass over more than one fill group shares its groups across."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _for_each_group(fn, groups: list[FillGroup], scratch=None) -> list:
    """``[fn(g) for g in groups]``, the groups shared across the usable CPUs.

    Each share gets about as many rows as the others (largest group first, to
    the share holding the fewest rows so far). Share 0 runs on the calling
    thread and the rest on threads of their own, each under a copy of the
    caller's context, so that an ``np.errstate`` in force still applies. Every
    thread is joined before this returns; if any share failed, the error of
    the lowest-numbered one is raised here. ``fn`` may write only to its own
    group's rows, so the results are bitwise those of the serial loop as long
    as the caller reduces them in group order. With ``scratch``, the calling
    thread makes ``scratch(share_groups)`` once per share before any share
    starts, so the workers allocate from no heap of their own, and each share
    passes its result to every ``fn(group, result)`` it makes.
    """
    if not groups:  # a batch of no cells
        return []
    workers = min(_group_workers(), len(groups)) if len(groups) > 1 else 1
    if workers < 2:
        state = () if scratch is None else (scratch(groups),)
        return [fn(group, *state) for group in groups]
    shares: list[list[int]] = [[] for _ in range(workers)]
    load = [0] * workers
    for i in sorted(range(len(groups)), key=lambda i: -groups[i].rows):
        share = load.index(min(load))
        shares[share].append(i)
        load[share] += groups[i].rows
    results: list = [None] * len(groups)
    errors: list[BaseException | None] = [None] * workers
    states = [() if scratch is None else (scratch([groups[i] for i in mine]),) for mine in shares]

    def run(share: int) -> None:
        try:
            for i in shares[share]:
                results[i] = fn(groups[i], *states[share])
        except BaseException as exc:  # raised again on the calling thread
            errors[share] = exc

    threads = [
        threading.Thread(target=contextvars.copy_context().run, args=(run, share))
        for share in range(1, workers)
    ]
    for thread in threads:
        thread.start()
    try:
        run(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def _fill_major(batch: CellBatch) -> tuple[list[FillGroup], np.ndarray]:
    """The batch's fill groups and its occupied rows in fill-major order.

    Levels ascend, and cells keep batch order within a level; a batch of one
    fill level, as of full cells, is already fill-major and is not gathered.
    """
    counts = batch.valid_count
    k = counts.shape[0]
    if k and (counts == counts[0]).all():
        return [FillGroup(int(counts[0]), np.arange(k), 0)], batch.rows
    by_fill = np.argsort(counts, kind="stable")
    filled = counts[by_fill]
    starts = np.cumsum(filled) - filled  # each cell's first fill-major row
    levels, first = np.unique(filled, return_index=True)
    groups = [
        FillGroup(int(c), cells, int(starts[i]))
        for c, i, cells in zip(levels, first, np.split(by_fill, first[1:]))
    ]
    cell_starts = np.cumsum(counts) - counts
    order = np.repeat(cell_starts[by_fill] - starts, filled) + np.arange(int(filled.sum()))
    return groups, batch.rows[order]


# Fill levels up to this many points sort through a compare-exchange network,
# larger ones through np.sort; measured on a KITTI-scale scan (see README.md)
_NETWORK_MAX_FILL = 12


@functools.cache
def _network(n: int) -> tuple[tuple[int, int], ...]:
    """The comparators of Batcher's odd-even merge sort on ``n`` inputs.

    Built for the next power of two; a comparator that touches a missing
    input is dropped, as that input, padded with +inf, would never move.
    """
    size = 1 << (n - 1).bit_length()
    pairs = []
    p = 1
    while p < size:
        k = p
        while k:
            for j in range(k % p, size - k, 2 * k):
                for i in range(j, j + min(k, size - j - k)):
                    if i // (2 * p) == (i + k) // (2 * p) and i + k < n:
                        pairs.append((i, i + k))
            k //= 2
        p *= 2
    return tuple(pairs)


def _network_sort(planes: np.ndarray, spare: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sort (c, k, C) ``planes`` across c by min/max and stack them into ``out``, (k, c, C).

    ``spare`` is one more (k, C) plane to write into; it and ``planes`` are
    left in no particular order. Each comparator emits its two inputs, so the
    values are the same bits as np.sort's wherever no -0.0 or NaN can tie
    with a different bit pattern.
    """
    planes = list(planes)
    for i, j in _network(len(planes)):
        lo, hi = planes[i], planes[j]
        np.minimum(lo, hi, out=spare)
        np.maximum(lo, hi, out=hi)
        planes[i], spare = spare, lo
    return np.stack(planes, axis=1, out=out)


def _sort_values(
    block: np.ndarray, planes: np.ndarray, spare: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Sort a (k, c, C) block per channel ascending, into ``out`` or else in place.

    Fills from 2 to ``_NETWORK_MAX_FILL`` go through the network, over a copy
    of the block in the first k * c rows of ``planes`` (an (n, C) buffer) and
    a (k, C) ``spare`` plane.
    """
    k, c, channels = block.shape
    sorts = c > 1 and _FAULT_MODE != "skip-sort"
    if sorts and c <= _NETWORK_MAX_FILL:
        planes = planes[: k * c].reshape(c, k, channels)
        np.copyto(planes, block.transpose(1, 0, 2))
        return _network_sort(planes, spare, block if out is None else out)
    if out is not None:
        np.copyto(out, block)
        block = out
    if sorts:
        # ties carry identical bits after canonicalization, so plain quicksort
        # yields the same value sequence as the stable sort, cheaper
        block.sort(axis=1)
    return block


def _sort_ranked(
    block: np.ndarray, planes: np.ndarray, spare: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A (k, c, C) block's per-channel ascending sort, into a new array, and its ranks.

    ``rank[i, s, ch]`` (see :class:`FillGroup`) counts the values that sort
    before slot s: ``#{j > s: v_j < v_s} + #{j < s: v_j <= v_s}``. Up to
    ``_NETWORK_MAX_FILL`` it is counted from the slot number s, one
    comparison per slot offset d over the whole block: where ``v_{s+d} <
    v_s``, slot s moves up a row and slot s + d down one. Larger fills
    invert the stable argsort. With ``skip-sort`` the ranks are the identity.
    """
    c = block.shape[1]
    sorts = _FAULT_MODE != "skip-sort"
    rank = np.empty(block.shape, dtype=np.min_scalar_type(c - 1))
    if sorts and c > _NETWORK_MAX_FILL:
        perm = np.argsort(block, axis=1, kind="stable")
        np.put_along_axis(rank, perm, np.arange(c)[:, None], axis=1)
        return np.take_along_axis(block, perm, axis=1), rank
    rank[...] = np.arange(c)[:, None]  # the identity, as skip-sort leaves it
    if sorts:
        for d in range(1, c):
            falls = block[:, d:] < block[:, :-d]
            rank[:, :-d] += falls
            rank[:, d:] -= falls
    return _sort_values(block, planes, spare, np.empty_like(block)), rank


def _max_rank(block: np.ndarray, maxima: np.ndarray) -> np.ndarray:
    """The max kind's ``rank`` of a (k, c, C) block whose per-channel maxima are ``maxima``.

    ``c - 1`` on each channel's last maximum and 0 elsewhere: a slot holding
    the maximum keeps it only if no later slot holds it too.
    """
    c = block.shape[1]
    top = block == maxima[:, None, :]
    later = np.logical_or.accumulate(top[:, :0:-1], axis=1)[:, ::-1]  # a maximum after slot s
    np.greater(top[:, :-1], later, out=top[:, :-1])
    rank = np.zeros(block.shape, dtype=np.min_scalar_type(c - 1))
    np.copyto(rank, c - 1, where=top)
    return rank


def _combine(w_rows: np.ndarray, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Weighted sum over the sorted rows of (k, c, C) blocks of c-point cells.

    ``w_rows`` holds the weights of the last c rows of the dense sorted
    matrix, (c,) shared or (c, C) per channel; its padding rows are zero.
    The (k, C) sums go into ``out`` if given.
    """
    if w_rows.ndim == 1:
        return np.einsum("n,knc->kc", w_rows, values, out=out)
    return np.einsum("nc,knc->kc", w_rows, values, out=out)


def sort_project(embedded: np.ndarray, valid_count: int) -> SortedFeatureMatrix:
    """Project each channel on its own axis and sort the valid values ascending.

    Padding goes to the low rows so that row N-1 is the per-channel maximum of
    the valid points. Ties keep ascending slot order (stable). The cell is
    sorted as a one-cell fill group, and ``perm`` inverts its ranks, so a
    NaN, which has no place in the order, is refused.
    """
    embedded = _as_slots(embedded)
    _check_padding(embedded, valid_count)
    if np.isnan(embedded).any():
        raise NonFiniteError("cannot sort a cell holding NaN")
    n, channels = embedded.shape
    pad = n - valid_count
    occupied = embedded[None, :valid_count] + 0.0
    sorted_block, rank = _sort_ranked(occupied, np.empty_like(occupied[0]), np.empty((1, channels)))
    perm = np.empty(embedded.shape, dtype=np.int64)
    perm[:pad] = np.arange(valid_count, n)[:, None]  # padding rows take the unused slots
    np.put_along_axis(perm[pad:], rank[0], np.arange(valid_count)[:, None], axis=0)
    values = np.zeros_like(embedded)
    values[pad:] = sorted_block[0]
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


def _pool_one(embedded: np.ndarray, valid_count: int, kind: str) -> np.ndarray:
    """The batched descriptor with the identity embedding on one cell's slots."""
    embedded = _as_slots(embedded)
    _check_padding(embedded, valid_count)
    batch = CellBatch.from_rows(embedded[:valid_count], np.array([valid_count]), embedded.shape[0])
    return descriptor_forward(MlpParams(), None, batch, kind, need_cache=False)[0][0]


def aggregate_max(embedded: np.ndarray, valid_count: int) -> np.ndarray:
    """Per-channel maximum over the valid slots (-0.0 read as +0.0, as in a batch)."""
    return _pool_one(embedded, valid_count, "max")


def aggregate_mean(embedded: np.ndarray, valid_count: int) -> np.ndarray:
    """Per-channel mean over the valid slots.

    Computed as the weighted aggregation with uniform 1/n weights on the
    occupied sorted rows, so it is exactly equal to that special case and its
    rounding does not depend on the input slot order.
    """
    return _pool_one(embedded, valid_count, "mean")


@dataclass
class ForwardCache:
    """Everything descriptor_backward needs from a forward pass.

    Arrays with a leading P axis hold the P occupied slots of the batch in
    fill-major order: fill group after fill group, each group's cells in
    batch order, each cell's rows in slot order. ``activations`` holds the
    rows entering each layer, then the embedding (-0.0 canonicalized to
    +0.0); with no layers only the embedding, and never a pre-activation.
    The groups carry their sorted blocks, and exactly when the backward
    routes through the sort (an MLP with layers, and the weighted or max
    kind) their per-slot ranks, one byte each up to 256 points.
    """

    kind: str
    params: MlpParams
    weights: AggregationWeights | None
    valid_count: np.ndarray  # (K,)
    capacity: int
    activations: list[np.ndarray]  # (P, C) per layer input, then the embedding
    groups: list[FillGroup]

    @property
    def embedded(self) -> np.ndarray:
        """The (P, C) embedding, the last activation."""
        return self.activations[-1]

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
    are computed: the P occupied rows are laid out fill-major, and each group
    of cells of equal fill level c is embedded, sorted and combined with the
    weights of the last c sorted rows as one unit, the groups shared across
    the usable CPUs. The cache carries the activations and sorted blocks
    needed for the backward pass, plus each group's ranks when the backward
    routes gradients through the sort; pass ``need_cache=False`` on
    inference-only paths to skip it, and with it every array of one row per
    point: each share then works its groups in place in scratch arrays
    allocated once per call, sized for its largest group.
    """
    if kind not in DESCRIPTOR_KINDS:
        raise ValidationError(f"kind must be one of {DESCRIPTOR_KINDS}")
    counts = batch.valid_count
    k, n = batch.num_cells, batch.capacity
    c_out = params.output_channels(batch.num_channels)
    if (counts < 1).any() or (counts > n).any():
        raise ValidationError(f"every materialized cell must hold 1 to {n} points")
    if kind == "weighted":
        if weights is None:
            raise ValidationError("weighted aggregation requires AggregationWeights")
        _check_agg_shapes(weights, n, c_out)

    groups, rows = _fill_major(batch)
    # each layer's output width, or the embedding's alone
    widths = [layer.bias.size for layer in params.layers] or [rows.shape[1]]
    # a training forward writes each layer's fill-major (P, C_out) output
    outputs = [np.empty((rows.shape[0], width)) for width in widths] if need_cache else []
    # the backward routes sorted-row gradients to their rows only to feed MLP
    # layers, and the mean spreads them evenly without a permutation
    routes = need_cache and bool(params.layers) and kind != "mean"
    features = np.empty((k, c_out))

    def w_rows(c: int) -> np.ndarray:
        return np.full(c, 1.0 / c) if kind == "mean" else weights.values[n - c :]

    def share_scratch(share: list[FillGroup]) -> tuple:
        """One share's buffers, sized for its largest group: each layer's
        output rows (in training, the cache's arrays), the sort network's
        planes, and one row per cell, the network's spare plane and then the
        combined features."""
        # the network sorts no block of the max kind
        sorts = kind != "max"
        networked = [g.rows for g in share if sorts and 1 < g.count <= _NETWORK_MAX_FILL]
        return (
            outputs if need_cache else [np.empty((max(g.rows for g in share), w)) for w in widths],
            np.empty((max(networked, default=0), c_out)),
            np.empty((max(g.cells.size for g in share), c_out)),
        )

    def run_group(group: FillGroup, scratch: tuple) -> None:
        layers, planes, out = scratch
        cells, c = group.cells.size, group.count
        # the group's rows of the cache, or the first rows of the scratch
        into = [y[group.span if need_cache else slice(group.rows)] for y in layers]
        # -0.0 becomes +0.0 so ties are bit-identical; with no layers this
        # copies the batch's own rows into the cache or the scratch
        x = np.add(_embed(params, rows[group.span], into), 0.0, out=into[-1])
        block, out = x.reshape(cells, c, c_out), out[:cells]
        if kind == "max":
            np.max(block, axis=1, out=out)
            if routes:
                group.rank = _max_rank(block, out)
        else:
            if routes:
                values, group.rank = _sort_ranked(block, planes, out)
            else:  # the cache keeps the embedding, so training sorts into a new array
                dest = np.empty_like(block) if need_cache else None
                values = _sort_values(block, planes, out, dest)
            _combine(w_rows(c), values, out)
            if need_cache:
                group.values = values
        features[group.cells] = out

    _for_each_group(run_group, groups, share_scratch)
    if not need_cache:
        return features, None
    cache = ForwardCache(
        kind=kind,
        params=params,
        weights=weights,
        valid_count=counts,
        capacity=n,
        activations=[rows] + outputs if params.layers else outputs,
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


def _array_from_doc(values, shape) -> np.ndarray:
    """A checkpoint's row-major float array in its recorded shape."""
    try:
        return np.asarray(values, dtype=np.float64).reshape(shape)
    except (TypeError, ValueError, OverflowError) as exc:  # not numbers, or the wrong count
        raise FileFormatError(f"bad checkpoint array: {exc}") from exc


def descriptor_from_doc(doc: dict) -> tuple[MlpParams, AggregationWeights | None]:
    try:
        layers = [
            MlpLayer(
                weight=_array_from_doc(entry["weight"], entry["shape"]),
                bias=np.asarray(entry["bias"], dtype=np.float64),
                activation=entry["activation"],
            )
            for entry in doc["layers"]
        ]
        agg = doc.get("aggregation")
        weights = (
            AggregationWeights(_array_from_doc(agg["values"], agg["shape"]), agg["mode"])
            if agg
            else None
        )
        return MlpParams(layers), weights
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # ValidationError too
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
