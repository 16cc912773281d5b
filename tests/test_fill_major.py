"""The fill-major descriptor against the cell-major one it replaced.

``_reference_forward`` and ``_reference_backward`` keep the previous
implementation, frozen: the occupied rows are embedded in cell-major order
(each product's rows rounded as inside a larger batch, as the library's are),
each fill group's rows are gathered out of the embedding, sorted with a
stable argsort and ``take_along_axis`` (or ``np.sort`` when no permutation is
needed), gradients are routed back with ``put_along_axis``, and a ReLU's
mask is read from its pre-activation. The library's layout, sorting network,
rank routing and masks read from layer outputs must reproduce its
features, sorted matrices and gradients bitwise, for ReLU and identity
layers alike, whether a training pass runs its fill groups on one thread or
shares them across two.
"""

import collections
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pillarkit import (
    AggregationWeights,
    MlpParams,
    cell_batch_from_arrays,
    descriptor_backward,
    descriptor_forward,
)
from pillarkit import descriptor
from pillarkit.autograd import grad_dict
from pillarkit.descriptor import (
    _NETWORK_MAX_FILL,
    FillGroup,
    _fill_major,
    _for_each_group,
    _network,
    _network_sort,
    _sort_ranked,
    set_fault_mode,
)


def _workers(count):
    """Training passes share their fill groups across ``count`` threads."""
    return mock.patch.object(descriptor, "_group_workers", lambda: count)


def _reference_matmul(x, weight):
    """``x @ weight`` with the rows past the last full block of four padded to one.

    BLAS rounds those rows differently when the product is narrow, so the
    library rounds every row as inside a larger batch, and so does this.
    """
    full = x.shape[0] - x.shape[0] % 4
    tail = np.zeros((4, x.shape[1]))
    tail[: x.shape[0] - full] = x[full:]
    return np.concatenate([x[:full] @ weight, (tail @ weight)[: x.shape[0] - full]])


def _reference_embed(params, x, need_cache):
    inputs, preacts = [], []
    for layer in params.layers:
        z = _reference_matmul(x, layer.weight) + layer.bias
        if need_cache:
            inputs.append(x)
            preacts.append(z)
        x = np.maximum(z, 0.0) if layer.activation == "relu" else z
    return x, inputs, preacts


def _reference_groups(counts):
    """(count, cells, rows) per fill level; rows index the cell-major rows."""
    by_fill = np.argsort(counts, kind="stable")
    levels, first = np.unique(counts[by_fill], return_index=True)
    starts = np.cumsum(counts) - counts
    return [
        (int(c), cells, starts[cells][:, None] + np.arange(c))
        for c, cells in zip(levels, np.split(by_fill, first[1:]))
    ]


def _combine(w_rows, values):
    if w_rows.ndim == 1:
        return np.einsum("n,knc->kc", w_rows, values)
    return np.einsum("nc,knc->kc", w_rows, values)


def _reference_forward(params, weights, batch, kind, need_cache):
    """Returns (features, dense sorted matrices or None, backward state or None)."""
    counts, n = batch.valid_count, batch.capacity
    embedded, inputs, preacts = _reference_embed(params, batch.rows, need_cache)
    embedded = embedded + 0.0
    need_perm = need_cache and bool(params.layers) and kind != "mean"
    features = np.empty((counts.size, embedded.shape[1]))
    sorted_values = np.zeros((counts.size, n, embedded.shape[1]))
    groups = []
    for c, cells, rows in _reference_groups(counts):
        block = np.take(embedded, rows, axis=0)
        values = perm = None
        if kind == "max":
            features[cells] = block.max(axis=1)
            if need_perm:
                perm = (c - 1 - np.argmax(block[:, ::-1], axis=1))[:, None, :]
        else:
            if need_perm:
                perm = np.argsort(block, axis=1, kind="stable")
                values = np.take_along_axis(block, perm, axis=1)
            else:
                values = np.sort(block, axis=1)
            w_rows = np.full(c, 1.0 / c) if kind == "mean" else weights.values[n - c :]
            features[cells] = _combine(w_rows, values)
            sorted_values[cells, n - c :] = values
        groups.append((c, cells, rows, values, perm))
    if not need_cache:
        return features, None, None
    state = (kind, params, weights, n, inputs, preacts, embedded, groups)
    return features, (None if kind == "max" else sorted_values), state


def _reference_row_order(embedded, groups):
    key = embedded.sum(axis=1)
    parts = []
    for _, _, group_rows, _, _ in groups:
        keys = key[group_rows]
        rank = np.argsort(keys, axis=1, kind="stable")
        rows = np.take_along_axis(group_rows, rank, axis=1)
        keys = np.take_along_axis(keys, rank, axis=1)
        cell, pos = np.nonzero(keys[:, 1:] == keys[:, :-1])
        differ = (embedded[rows[cell, pos]] != embedded[rows[cell, pos + 1]]).any(axis=1)
        for i in np.unique(cell[differ]):
            cell_rows = group_rows[i]
            rows[i] = cell_rows[np.lexsort(embedded[cell_rows].T[::-1])]
        parts.append(rows.ravel())
    return np.concatenate(parts)


def _reference_backward(state, upstream):
    kind, params, weights, n, inputs, preacts, embedded, groups = state
    grads = {}
    w = None
    if kind == "weighted":
        w = weights.values
        agg = np.zeros_like(w)
        spec = "kc,knc->n" if w.ndim == 1 else "kc,knc->nc"
        for c, cells, _, values, _ in groups:
            agg[n - c :] += np.einsum(spec, upstream[cells], values)
        grads["agg"] = agg
    if not params.layers:
        return grads
    d_rows = np.empty_like(embedded)
    for c, cells, rows, _, perm in groups:
        up = upstream[cells][:, None, :]
        if kind == "mean":
            d_rows[rows] = up / c
            continue
        if kind == "max":
            d_sorted = up
        elif w.ndim == 1:
            d_sorted = up * w[n - c :][None, :, None]
        else:
            d_sorted = up * w[n - c :][None]
        d_block = np.zeros((cells.size, c, embedded.shape[1]))
        np.put_along_axis(d_block, perm, d_sorted, axis=1)
        d_rows[rows] = d_block
    order = _reference_row_order(embedded, groups)
    dy = d_rows[order]
    for i in reversed(range(len(params.layers))):
        layer = params.layers[i]
        z = preacts[i]
        dz = dy * (z[order] > 0.0) if layer.activation == "relu" else dy
        grads[f"mlp.{i}.weight"] = inputs[i][order].T @ dz
        grads[f"mlp.{i}.bias"] = dz.sum(axis=0)
        if i:
            dy = dz @ layer.weight.T
    return grads


def _cells(rng, counts, n, c_in, duplicates):
    """(K, n, c_in) slots with signed zeros and repeated points."""
    data = rng.standard_normal((counts.size, n, c_in))
    data[rng.random(data.shape) < 0.1] = 0.0
    data[rng.random(data.shape) < 0.05] = -0.0
    if duplicates:
        for i, count in enumerate(counts):  # copy whole points within a cell
            src = rng.integers(0, count, size=count)
            keep = rng.random(count) < 0.5
            data[i, :count][keep] = data[i, src[keep]]
    return data


def _shuffled(data, counts, rng):
    out = data.copy()
    for i, count in enumerate(counts):
        out[i, :count] = data[i, rng.permutation(count)]
    return out


def _assert_matches_reference(params, weights, batch, kind, upstream):
    rows = batch.rows.tobytes()
    expected, expected_sorted, state = _reference_forward(params, weights, batch, kind, True)
    features, cache = descriptor_forward(params, weights, batch, kind, need_cache=True)
    assert batch.rows.tobytes() == rows  # the forward leaves its input alone
    assert features.tobytes() == expected.tobytes()
    if kind == "max":
        assert cache.sorted_values is None
    else:
        assert cache.sorted_values.tobytes() == expected_sorted.tobytes()
    inference, _ = descriptor_forward(params, weights, batch, kind, need_cache=False)
    reference_inference, _, _ = _reference_forward(params, weights, batch, kind, False)
    assert inference.tobytes() == reference_inference.tobytes() == expected.tobytes()

    grads = grad_dict(descriptor_backward(cache, upstream))
    expected_grads = _reference_backward(state, upstream)
    assert grads.keys() == expected_grads.keys()
    for name, grad in grads.items():
        assert grad.tobytes() == expected_grads[name].tobytes(), name
    return grads


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 2, 3, 5, 8, _NETWORK_MAX_FILL, _NETWORK_MAX_FILL + 1, 20]),
    k=st.integers(1, 24),
    fill=st.sampled_from(["random", "single-level", "one-point-cells", "full"]),
    duplicates=st.booleans(),
    depth=st.integers(0, 2),
    activations=st.tuples(*[st.sampled_from(["relu", "identity"])] * 2),
    kind_mode=st.sampled_from(
        [("weighted", "shared"), ("weighted", "per-channel"), ("max", None), ("mean", None)]
    ),
)
# fills 5, 4, 3, 2, 2, 1: the one-point level is one cell, a group that embeds a single row
@example(seed=0, n=5, k=6, fill="random", duplicates=False, depth=2,
         activations=("relu", "relu"), kind_mode=("weighted", "shared"))
# an identity layer feeding a ReLU one, and an identity layer last
@example(seed=1, n=5, k=6, fill="random", duplicates=True, depth=2,
         activations=("identity", "relu"), kind_mode=("max", None))
@example(seed=2, n=20, k=12, fill="random", duplicates=False, depth=2,
         activations=("relu", "identity"), kind_mode=("weighted", "per-channel"))
@pytest.mark.parametrize("workers", [1, 2])
def test_fill_major_matches_cell_major_reference(
    workers, seed, n, k, fill, duplicates, depth, activations, kind_mode
):
    with _workers(workers):
        _check_against_reference(seed, n, k, fill, duplicates, depth, activations, kind_mode)


def _check_against_reference(seed, n, k, fill, duplicates, depth, activations, kind_mode):
    kind, mode = kind_mode
    rng = np.random.default_rng(seed)
    counts = {
        "random": lambda: rng.integers(1, n + 1, size=k),
        "single-level": lambda: np.full(k, rng.integers(1, n + 1)),
        "one-point-cells": lambda: np.where(rng.random(k) < 0.7, 1, rng.integers(1, n + 1, size=k)),
        "full": lambda: np.full(k, n),
    }[fill]().astype(np.int64)
    c_in = int(rng.integers(1, 6))
    widths = tuple(int(w) for w in rng.integers(1, 9, size=depth))
    params = MlpParams.create(c_in, widths, seed=seed % 2**31) if depth else MlpParams([])
    for layer, activation in zip(params.layers, activations):
        layer.bias = 0.1 * rng.standard_normal(layer.bias.shape)
        layer.activation = activation
    c_out = params.output_channels(c_in)
    weights = None
    if kind == "weighted":
        shape = (n,) if mode == "shared" else (n, c_out)
        weights = AggregationWeights(rng.standard_normal(shape), mode)
    upstream = rng.standard_normal((k, c_out))

    data = _cells(rng, counts, n, c_in, duplicates)
    grads = _assert_matches_reference(
        params, weights, cell_batch_from_arrays(data, counts), kind, upstream
    )
    shuffled = cell_batch_from_arrays(_shuffled(data, counts, rng), counts)
    shuffled_grads = _assert_matches_reference(params, weights, shuffled, kind, upstream)
    for name, grad in grads.items():  # slot order cannot change the parameter gradients
        assert grad.tobytes() == shuffled_grads[name].tobytes(), name


# ---------------------------------------------------------------------------
# The compare-exchange network
# ---------------------------------------------------------------------------


def _network_sorted(block):
    """``np.sort(block, axis=1)`` through the compare-exchange network, as a new array."""
    planes = block.transpose(1, 0, 2).copy()
    return _network_sort(planes, np.empty_like(planes[0]), np.empty_like(block))


@pytest.mark.parametrize("c", range(1, _NETWORK_MAX_FILL + 1))
def test_network_sorts_every_zero_one_input(c):
    # the 0-1 principle: a comparator network that sorts every 0-1 input sorts all inputs
    bits = (np.arange(2**c)[:, None] >> np.arange(c)) & 1
    block = bits[:, :, None].astype(np.float64)
    assert (np.diff(_network_sorted(block), axis=1) >= 0).all()
    assert all(0 <= i < j < c for i, j in _network(c))


@pytest.mark.parametrize("c", range(1, _NETWORK_MAX_FILL + 1))
def test_network_equals_np_sort_bitwise_with_ties_and_zeros(c):
    rng = np.random.default_rng(c)
    block = rng.standard_normal((50, c, 7))
    block[rng.random(block.shape) < 0.3] = 0.0
    ties = rng.random(block.shape) < 0.3
    block[ties] = rng.choice([-1.5, 0.25, 3.0], size=int(ties.sum()))
    block[:5] = block[:5, :1]  # cells whose points are all equal
    assert _network_sorted(block).tobytes() == np.sort(block, axis=1).tobytes()
    view = np.concatenate([block, block])[::2]  # a non-contiguous block
    assert _network_sorted(view).tobytes() == np.sort(view, axis=1).tobytes()


@pytest.mark.parametrize("c", [*range(1, 41), 300])  # both sides of the cut-off, and wide ranks
def test_ranks_are_the_inverse_stable_argsort_with_ties_and_signed_zeros(c):
    rng = np.random.default_rng(c)
    block = rng.choice([-1.5, -0.0, 0.0, 0.25, 3.0], size=(30 if c < 300 else 3, c, 5))
    block[:2] = block[:2, :1]  # cells whose points are all equal
    k, _, channels = block.shape
    planes, spare = np.empty((k * c, channels)), np.empty((k, channels))
    before = block.tobytes()
    values, rank = _sort_ranked(block, planes, spare)
    assert block.tobytes() == before  # the cache's embedding is left as it is
    assert rank.dtype == (np.uint8 if c <= 256 else np.uint16)
    inverse = np.argsort(np.argsort(block, axis=1, kind="stable"), axis=1)
    assert (rank == inverse).all()
    canonical = block + 0.0  # as the forward canonicalizes before it sorts
    values, _ = _sort_ranked(canonical, planes, spare)
    assert values.tobytes() == np.sort(canonical, axis=1).tobytes()


@pytest.mark.parametrize("c", [5, _NETWORK_MAX_FILL + 3])
def test_skip_sort_ranks_are_the_identity(c):
    block = np.random.default_rng(c).standard_normal((4, c, 3))
    set_fault_mode("skip-sort")
    try:
        values, rank = _sort_ranked(block, np.empty((4 * c, 3)), np.empty((4, 3)))
    finally:
        set_fault_mode(None)
    assert values.tobytes() == block.tobytes()
    assert (rank == np.arange(c)[:, None]).all()


def test_skip_sort_fault_bypasses_the_network():
    rng = np.random.default_rng(3)
    counts = np.arange(2, _NETWORK_MAX_FILL + 1)
    batch = cell_batch_from_arrays(rng.standard_normal((counts.size, _NETWORK_MAX_FILL, 3)), counts)
    set_fault_mode("skip-sort")
    try:
        _, cache = descriptor_forward(MlpParams([]), None, batch, "mean")
    finally:
        set_fault_mode(None)
    occupied = np.arange(_NETWORK_MAX_FILL)[None, :] >= (_NETWORK_MAX_FILL - counts)[:, None]
    falls = (np.diff(cache.sorted_values, axis=1) < 0).any(axis=2) & occupied[:, :-1]
    assert falls.any()


# ---------------------------------------------------------------------------
# Fill groups shared across threads
# ---------------------------------------------------------------------------


def _groups(*counts):
    """One FillGroup of three cells per fill count, rows laid out in turn."""
    groups, start = [], 0
    for count in counts:
        groups.append(FillGroup(count, np.arange(3), start))
        start += 3 * count
    return groups


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_each_group_runs_once_and_results_keep_group_order(workers):
    groups = _groups(*np.random.default_rng(16).integers(1, 9, size=20))
    runs = collections.Counter()
    lock = threading.Lock()

    def fn(group):
        with lock:
            runs[group.start] += 1
        return group.start

    with _workers(workers):
        assert _for_each_group(fn, groups) == [group.start for group in groups]
    assert runs == {group.start: 1 for group in groups}


@pytest.mark.parametrize("workers", [2, 3])
def test_the_largest_groups_are_taken_first(workers):
    # each thread's first group waits until every thread has taken one, so
    # the first groups run are the first taken, whichever thread took them
    groups = _groups(4, 1, 4, 2, 5, 4)  # rows tie at fill 4: group order decides
    barrier = threading.Barrier(workers, timeout=30)
    first, lock = {}, threading.Lock()

    def fn(group):
        with lock:
            new = first.setdefault(threading.get_ident(), group.start) == group.start
        if new:
            barrier.wait()

    with _workers(workers):
        _for_each_group(fn, groups)
    largest = [groups[i].start for i in (4, 0, 2)[:workers]]
    assert sorted(first.values()) == sorted(largest)


def _held_until_a_worker_takes_a_group():
    """A ``(hold, taken)`` pair: ``hold()`` on the calling thread waits until a
    worker has called ``taken()``, so the caller cannot drain the queue first."""
    event = threading.Event()

    def hold():
        assert threading.current_thread() is threading.main_thread()
        assert event.wait(timeout=30)

    return hold, event.set


def test_an_error_inside_a_worker_reaches_the_caller():
    hold, taken = _held_until_a_worker_takes_a_group()

    def fn(group):
        if threading.current_thread() is threading.main_thread():
            return hold()
        taken()
        raise ValueError("group on a worker")

    before = threading.active_count()
    with _workers(2), pytest.raises(ValueError, match="group on a worker"):
        _for_each_group(fn, _groups(1, 2, 3))
    assert threading.active_count() == before


def test_the_lowest_indexed_failure_is_raised_and_no_group_is_taken_after_it():
    groups = _groups(3, 1, 4)  # queued as 2, 0, 1
    both_running = threading.Barrier(2, timeout=30)
    ran = []

    def fn(group):
        ran.append(group.count)
        both_running.wait()  # the two largest groups fail together
        raise ValueError(f"group of {group.count}")

    before = threading.active_count()
    with _workers(2), _counting_threads(), pytest.raises(ValueError, match="group of 3"):
        _for_each_group(fn, groups)
    assert sorted(ran) == [3, 4]  # the group of 1 was never taken
    assert threading.active_count() == before
    assert not any(thread.is_alive() for thread in _CountingThread.started)


def test_the_callers_errstate_applies_inside_a_worker():
    hold, taken = _held_until_a_worker_takes_a_group()

    def fn(group):
        if threading.current_thread() is threading.main_thread():
            return hold()
        taken()
        return np.ones(1) / np.zeros(1)

    with _workers(2), np.errstate(all="raise"), pytest.raises(FloatingPointError):
        _for_each_group(fn, _groups(1, 2, 3))


class _CountingThread(threading.Thread):
    """A Thread that records every instance started."""

    started: list = []

    def start(self):
        self.started.append(self)
        super().start()


def _counting_threads():
    _CountingThread.started = []
    return mock.patch.object(descriptor.threading, "Thread", _CountingThread)


def test_a_training_pass_leaves_no_thread_behind():
    rng = np.random.default_rng(8)
    counts = rng.integers(1, 9, size=40)
    batch = cell_batch_from_arrays(rng.standard_normal((counts.size, 8, 3)), counts)
    params = MlpParams.create(3, (6,), seed=8)
    weights = AggregationWeights.max_pool_init(8, noise=0.1, seed=8)
    before = threading.active_count()
    with _workers(2), _counting_threads():
        features, cache = descriptor_forward(params, weights, batch, "weighted")
        descriptor_backward(cache, rng.standard_normal(features.shape))
    started = _CountingThread.started
    assert len(started) == 2  # one worker for the forward, one for the backward
    assert threading.active_count() == before
    assert not any(thread.is_alive() for thread in started)


def _scan_like_batch(seed, cells_per_level=40, n=16, c_in=3):
    """Every fill level 1..n, ``cells_per_level`` cells each, in shuffled order."""
    rng = np.random.default_rng(seed)
    counts = rng.permutation(np.repeat(np.arange(1, n + 1), cells_per_level))
    return cell_batch_from_arrays(rng.standard_normal((counts.size, n, c_in)), counts)


def test_an_error_in_an_inference_share_reaches_the_caller():
    batch = _scan_like_batch(10)
    params = MlpParams.create(3, (6,), seed=10)
    sort_values = descriptor._sort_values
    hold, taken = _held_until_a_worker_takes_a_group()

    def failing(block, *args):
        if threading.current_thread() is threading.main_thread():
            hold()
            return sort_values(block, *args)
        taken()
        raise ValueError("sort on a worker")

    before = threading.active_count()
    with _workers(2), mock.patch.object(descriptor, "_sort_values", failing), pytest.raises(
        ValueError, match="sort on a worker"
    ):
        descriptor_forward(params, None, batch, "mean", need_cache=False)
    assert threading.active_count() == before


def test_a_one_group_inference_pass_starts_no_thread():
    rng = np.random.default_rng(11)
    batch = cell_batch_from_arrays(rng.standard_normal((30, 8, 3)))  # full cells: one group
    params = MlpParams.create(3, (6,), seed=11)
    weights = AggregationWeights.max_pool_init(8, noise=0.1, seed=11)
    with _workers(2), _counting_threads():
        descriptor_forward(params, weights, batch, "weighted", need_cache=False)
    assert _CountingThread.started == []


def test_a_multi_group_inference_pass_leaves_no_thread_behind():
    batch = _scan_like_batch(12)
    params = MlpParams.create(3, (6,), seed=12)
    weights = AggregationWeights.max_pool_init(16, noise=0.1, seed=12)
    before = threading.active_count()
    with _workers(2), _counting_threads():
        descriptor_forward(params, weights, batch, "weighted", need_cache=False)
    assert len(_CountingThread.started) == 1
    assert threading.active_count() == before
    assert not any(thread.is_alive() for thread in _CountingThread.started)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", ["weighted", "mean", "max"])
@pytest.mark.parametrize("levels", ["one", "many"])
@pytest.mark.parametrize("n", [_NETWORK_MAX_FILL, 20])  # the network sort and np.sort
def test_identity_inference_leaves_the_batch_rows_alone(workers, kind, levels, n):
    # with no layers the embedding is the batch's own rows, and a one-level
    # batch is not gathered: canonicalizing and sorting must go to scratch
    rng = np.random.default_rng(13)
    counts = rng.integers(1, n + 1, size=60) if levels == "many" else np.full(60, n)
    data = rng.standard_normal((counts.size, n, 3))
    data[rng.random(data.shape) < 0.2] = -0.0
    batch = cell_batch_from_arrays(data, counts)
    before = batch.rows.tobytes()
    weights = AggregationWeights.max_pool_init(n, noise=0.1, seed=13) if kind == "weighted" else None
    with _workers(workers):
        inference, _ = descriptor_forward(MlpParams([]), weights, batch, kind, need_cache=False)
    assert batch.rows.tobytes() == before
    features, _ = descriptor_forward(MlpParams([]), weights, batch, kind)
    assert inference.tobytes() == features.tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_max_inference_never_sorts(workers):
    batch = _scan_like_batch(14)
    params = MlpParams.create(3, (6,), seed=14)

    def no_sort(*args, **kwargs):
        raise AssertionError("the max kind sorted")

    expected, _ = descriptor_forward(params, None, batch, "max")
    with _workers(workers), mock.patch.object(descriptor, "_sort_values", no_sort), \
            mock.patch.object(descriptor, "_network_sort", no_sort):
        features, _ = descriptor_forward(params, None, batch, "max", need_cache=False)
    assert features.tobytes() == expected.tobytes()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", ["weighted", "max", "mean"])
def test_inference_allocates_one_scratch_set_per_share(workers, kind):
    # each thread's scratch is allocated once, sized for the largest group,
    # and every group is worked in slices of it: the peak is the fill-major
    # rows, the features and one scratch set per thread, whatever the number
    # of groups
    n, c_out = 32, 64
    rng = np.random.default_rng(15)
    counts = rng.permutation(np.repeat(np.arange(1, n + 1), 125))  # 4,000 cells
    batch = cell_batch_from_arrays(rng.standard_normal((counts.size, n, 4)), counts)
    params = MlpParams.create(4, (c_out,), seed=15)
    weights = AggregationWeights.max_pool_init(n, noise=0.1, seed=15) if kind == "weighted" else None
    groups, rows = _fill_major(batch)
    network = [g.rows for g in groups if 1 < g.count <= _NETWORK_MAX_FILL and kind != "max"]
    scratch = 8 * c_out * (
        max(g.rows for g in groups)  # the embedding
        + max(network, default=0)  # the network's planes
        + max(g.cells.size for g in groups)  # its spare plane, then the combined rows
    )
    features = 8 * counts.size * c_out
    slack = 256 << 10  # index arrays of one entry per cell, interpreter objects
    bound = rows.nbytes + features + workers * scratch + slack
    with _workers(workers):
        tracemalloc.start()
        try:
            descriptor_forward(params, weights, batch, kind, need_cache=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < bound, (peak, bound)


def test_more_workers_than_cores_switching_often_give_the_serial_bits():
    # every group writes its own rows and results; a lost or misplaced
    # write under frequent thread switches would change a digest
    rng = np.random.default_rng(9)
    counts = rng.integers(1, 17, size=300)
    batch = cell_batch_from_arrays(rng.standard_normal((counts.size, 16, 4)), counts)
    params = MlpParams.create(4, (8, 6), seed=9)
    weights = AggregationWeights.max_pool_init(16, noise=0.1, seed=9)
    upstream = rng.standard_normal((counts.size, 6))

    def step():
        features, cache = descriptor_forward(params, weights, batch, "weighted")
        grads = grad_dict(descriptor_backward(cache, upstream))
        inference = [
            descriptor_forward(params, weights if kind == "weighted" else None, batch, kind,
                               need_cache=False)[0].tobytes()
            for kind in ("weighted", "max")
        ]
        return [features.tobytes(), cache.sorted_values.tobytes()] + inference + [
            grads[name].tobytes() for name in sorted(grads)
        ]

    with _workers(1):
        serial = step()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _workers(8):
            for _ in range(5):
                assert step() == serial
    finally:
        sys.setswitchinterval(interval)


def test_importing_pillarkit_starts_no_thread_and_no_executor():
    code = (
        "import sys, threading, pillarkit; "
        "print('concurrent.futures' in sys.modules, threading.active_count())"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.stdout.split() == ["False", "1"]
