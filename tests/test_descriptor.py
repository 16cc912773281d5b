import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pillarkit import (
    AggregationWeights,
    CellBatch,
    MlpLayer,
    MlpParams,
    ValidationError,
    aggregate_max,
    aggregate_mean,
    aggregate_weighted,
    cell_batch_from_arrays,
    descriptor_forward,
    load_descriptor,
    mlp_forward,
    save_descriptor,
    sort_project,
)
from pillarkit import descriptor
from pillarkit.descriptor import _rows_matmul, set_fault_mode


# ---------------------------------------------------------------------------
# MLP embedding
# ---------------------------------------------------------------------------


def test_identity_layer_is_identity():
    params = MlpParams([MlpLayer(np.eye(3), np.zeros(3), "identity")])
    cell = np.array([[1.0, -2.0, 3.0], [0.5, 0.0, -1.0]])
    np.testing.assert_array_equal(mlp_forward(params, cell, 2), cell)


def test_single_valid_slot_rest_stay_zero():
    params = MlpParams.create(2, (4,), seed=0)
    cell = np.zeros((5, 2))
    cell[0] = [0.3, -0.7]
    out = mlp_forward(params, cell, 1)
    assert out.shape == (5, 4)
    assert not out[1:].any()
    assert out[0].any()


def test_mlp_matches_naive_per_point_oracle():
    rng = np.random.default_rng(1)
    params = MlpParams.create(3, (6, 4), seed=2)
    for layer in params.layers:
        layer.bias = rng.standard_normal(layer.bias.shape)
    cell = rng.standard_normal((7, 3))
    out = mlp_forward(params, cell, 7)

    # straight-line reimplementation, one point at a time
    expected = np.empty((7, 4))
    for i in range(7):
        h = cell[i]
        for layer in params.layers:
            z = layer.weight.T @ h + layer.bias
            h = np.maximum(z, 0.0) if layer.activation == "relu" else z
        expected[i] = h
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)


def test_mlp_rejects_dimension_mismatch():
    params = MlpParams.create(3, (4,), seed=0)
    with pytest.raises(ValidationError):
        mlp_forward(params, np.zeros((2, 5)), 2)
    with pytest.raises(ValidationError):
        MlpParams(
            [
                MlpLayer(np.zeros((3, 4)), np.zeros(4), "relu"),
                MlpLayer(np.zeros((5, 2)), np.zeros(2), "relu"),
            ]
        )


# ---------------------------------------------------------------------------
# Sorted projection
# ---------------------------------------------------------------------------


def test_sort_project_three_points():
    sfm = sort_project(np.array([[3.0, 1.0], [1.0, 2.0], [2.0, 0.0]]), 3)
    np.testing.assert_array_equal(sfm.values, [[1, 0], [2, 1], [3, 2]])
    # per-column sort oracle
    np.testing.assert_array_equal(sfm.values, np.sort([[3, 1], [1, 2], [2, 0]], axis=0))


def test_sort_project_four_point_identity():
    # channel orders a1<c1<b1<d1 and a2<b2<c2<d2; both argument orders agree
    a, b, c, d = (0.0, 0.0), (2.0, 1.0), (1.0, 2.0), (3.0, 3.0)
    first = sort_project(np.array([a, b, c, d]), 4)
    second = sort_project(np.array([c, d, b, a]), 4)
    np.testing.assert_array_equal(first.values, [[0, 0], [1, 1], [2, 2], [3, 3]])
    np.testing.assert_array_equal(first.values, second.values)


def test_sort_project_single_point_pads_low_rows():
    cell = np.zeros((4, 2))
    cell[0] = [5.0, -1.0]
    sfm = sort_project(cell, 1)
    np.testing.assert_array_equal(sfm.values[:3], np.zeros((3, 2)))
    np.testing.assert_array_equal(sfm.values[3], [5.0, -1.0])


def test_sort_project_stable_tie_break():
    sfm = sort_project(np.array([[1.0, 0.0], [1.0, 1.0]]), 2)
    np.testing.assert_array_equal(sfm.perm[:, 0], [0, 1])  # tie keeps slot order


def test_sort_project_perm_is_bijection_and_rejects_bad_input():
    rng = np.random.default_rng(3)
    cell = rng.standard_normal((6, 4))
    sfm = sort_project(cell, 6)
    for ch in range(4):
        assert sorted(sfm.perm[:, ch]) == list(range(6))
    with pytest.raises(ValidationError):
        sort_project(cell, 0)
    dirty = np.ones((4, 2))
    with pytest.raises(ValidationError):
        sort_project(dirty, 2)  # padding slots not zero
    cell[2, 1] = np.nan  # it has no place in the order: ranks would not be a bijection
    with pytest.raises(ValidationError, match="NaN"):
        sort_project(cell, 6)


# ---------------------------------------------------------------------------
# Aggregators
# ---------------------------------------------------------------------------


def test_weighted_known_dot_product():
    sfm = sort_project(np.array([[3.0, 1.0], [1.0, 2.0], [2.0, 0.0]]), 3)
    w = AggregationWeights(np.array([0.5, 0.5, 0.0]))
    np.testing.assert_array_equal(aggregate_weighted(w, sfm), [1.5, 0.5])


def test_unit_weight_recovers_max_on_partial_cells():
    rng = np.random.default_rng(4)
    params = MlpParams.create(3, (8,), seed=5)  # relu keeps padding at the bottom
    for n_valid in (1, 3, 5):
        cell = np.zeros((5, 3))
        cell[:n_valid] = rng.standard_normal((n_valid, 3))
        embedded = mlp_forward(params, cell, n_valid)
        sfm = sort_project(embedded, n_valid)
        unit = AggregationWeights.max_pool_init(5)
        assert (
            aggregate_weighted(unit, sfm).tobytes()
            == aggregate_max(embedded, n_valid).tobytes()
        )


def test_uniform_weight_equals_mean_on_full_cell():
    rng = np.random.default_rng(5)
    cell = rng.standard_normal((4, 3))
    sfm = sort_project(cell, 4)
    uniform = AggregationWeights(np.full(4, 0.25))
    np.testing.assert_array_equal(
        aggregate_weighted(uniform, sfm), aggregate_mean(cell, 4)
    )


def test_per_channel_weights_match_loop_oracle():
    rng = np.random.default_rng(6)
    cell = rng.standard_normal((5, 3))
    sfm = sort_project(cell, 5)
    w = AggregationWeights(rng.standard_normal((5, 3)), "per-channel")
    out = aggregate_weighted(w, sfm)
    expected = np.array(
        [sum(w.values[i, c] * sfm.values[i, c] for i in range(5)) for c in range(3)]
    )
    np.testing.assert_allclose(out, expected, rtol=1e-15)


def test_aggregate_max_examples():
    cell = np.array([[3.0, 1.0], [1.0, 2.0], [2.0, 0.0]])
    np.testing.assert_array_equal(aggregate_max(cell, 3), [3.0, 2.0])
    single = np.zeros((3, 2))
    single[0] = [4.0, -2.0]
    np.testing.assert_array_equal(aggregate_max(single, 1), [4.0, -2.0])
    constant = np.full((4, 2), 1.5)
    np.testing.assert_array_equal(aggregate_max(constant, 4), [1.5, 1.5])


def test_aggregate_mean_examples():
    np.testing.assert_array_equal(aggregate_mean(np.array([[2.0, 0.0], [4.0, 2.0]]), 2), [3.0, 1.0])
    single = np.zeros((3, 2))
    single[0] = [4.0, -2.0]
    np.testing.assert_array_equal(aggregate_mean(single, 1), [4.0, -2.0])
    constant = np.full((4, 2), 1.5)  # power-of-two count keeps 1/n exact
    np.testing.assert_array_equal(aggregate_mean(constant, 4), [1.5, 1.5])


def test_aggregator_shape_errors():
    sfm = sort_project(np.ones((1, 2)), 1)
    with pytest.raises(ValidationError):
        aggregate_weighted(AggregationWeights(np.ones(3)), sfm)
    with pytest.raises(ValidationError):
        aggregate_weighted(AggregationWeights(np.ones((1, 3)), "per-channel"), sfm)
    with pytest.raises(ValidationError):
        aggregate_max(np.ones((2, 2)), 0)


# ---------------------------------------------------------------------------
# Full descriptor
# ---------------------------------------------------------------------------


def test_descriptor_weighted_unit_equals_max_on_random_batches():
    rng = np.random.default_rng(7)
    for _ in range(100):
        k, n, c = int(rng.integers(1, 6)), int(rng.integers(2, 9)), int(rng.integers(1, 5))
        data = rng.standard_normal((k, n, c))
        counts = rng.integers(1, n + 1, size=k)
        batch = cell_batch_from_arrays(data, counts)
        params = MlpParams.create(c, (6,), seed=int(rng.integers(100)))
        unit = AggregationWeights.max_pool_init(n)
        weighted, _ = descriptor_forward(params, unit, batch, "weighted", need_cache=False)
        pooled, _ = descriptor_forward(params, None, batch, "max", need_cache=False)
        assert weighted.tobytes() == pooled.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 8),
    c=st.integers(1, 5),
    n_valid=st.integers(1, 8),
    seed=st.integers(0, 10_000),
)
def test_descriptor_outputs_invariant_under_slot_shuffles(n, c, n_valid, seed):
    n_valid = min(n_valid, n)
    rng = np.random.default_rng(seed)
    data = np.zeros((1, n, c))
    data[0, :n_valid] = rng.standard_normal((n_valid, c))
    batch = cell_batch_from_arrays(data, np.array([n_valid]))
    params = MlpParams.create(c, (4,), seed=seed % 17)
    w = AggregationWeights(rng.standard_normal(n))

    reference = {
        kind: descriptor_forward(
            params, w if kind == "weighted" else None, batch, kind, need_cache=False
        )[0]
        for kind in ("weighted", "max", "mean")
    }
    shuffled = data.copy()
    shuffled[0, :n_valid] = data[0, rng.permutation(n_valid)]
    sbatch = cell_batch_from_arrays(shuffled, np.array([n_valid]))
    for kind, expected in reference.items():
        got, _ = descriptor_forward(
            params, w if kind == "weighted" else None, sbatch, kind, need_cache=False
        )
        assert got.tobytes() == expected.tobytes()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), c=st.integers(1, 4), seed=st.integers(0, 10_000))
def test_sorted_matrix_multiset_and_monotonicity(n, c, seed):
    rng = np.random.default_rng(seed)
    n_valid = int(rng.integers(1, n + 1))
    cell = np.zeros((n, c))
    cell[:n_valid] = rng.standard_normal((n_valid, c))
    sfm = sort_project(cell, n_valid)
    valid_rows = sfm.values[n - n_valid :]
    assert (np.diff(valid_rows, axis=0) >= 0).all()
    np.testing.assert_array_equal(np.sort(cell[:n_valid], axis=0), valid_rows)


@pytest.mark.parametrize("k, n", [(5, 6), (40, 20)])
def test_descriptor_matches_per_cell_composition(k, n):
    # 20 slots give fills above the network's 12 too, which sort_project
    # ranks through the stable argsort rather than by counting
    rng = np.random.default_rng(8)
    c_in = 3
    data = rng.standard_normal((k, n, c_in))
    counts = rng.integers(1, n + 1, size=k)
    batch = cell_batch_from_arrays(data, counts)
    params = MlpParams.create(c_in, (4,), seed=9)
    w = AggregationWeights(rng.standard_normal(n))

    features, _ = descriptor_forward(params, w, batch, "weighted", need_cache=False)
    for k_i in range(k):
        embedded = mlp_forward(params, batch.data[k_i], int(counts[k_i]))
        expected = aggregate_weighted(w, sort_project(embedded, int(counts[k_i])))
        assert features[k_i].tobytes() == expected.tobytes()

    means, _ = descriptor_forward(params, None, batch, "mean", need_cache=False)
    maxima, _ = descriptor_forward(params, None, batch, "max", need_cache=False)
    for k_i in range(k):
        embedded = mlp_forward(params, batch.data[k_i], int(counts[k_i]))
        assert means[k_i].tobytes() == aggregate_mean(embedded, int(counts[k_i])).tobytes()
        assert maxima[k_i].tobytes() == aggregate_max(embedded, int(counts[k_i])).tobytes()


def test_identity_descriptor_matches_hand_composition():
    cell = np.array([[3.0, 1.0], [1.0, 2.0], [2.0, 0.0]])
    batch = cell_batch_from_arrays(cell[None])
    w = AggregationWeights(np.array([0.5, 0.5, 0.0]))
    features, _ = descriptor_forward(MlpParams([]), w, batch, "weighted", need_cache=False)
    np.testing.assert_array_equal(features, [[1.5, 0.5]])


def test_descriptor_empty_batch_returns_empty_features():
    batch = cell_batch_from_arrays(np.zeros((1, 2, 3)))
    empty = type(batch)(data=batch.data[:0], valid_count=batch.valid_count[:0])
    params = MlpParams.create(3, (4,), seed=0)
    features, cache = descriptor_forward(params, None, empty, "max")
    assert features.shape == (0, 4)
    assert cache.groups == [] and cache.embedded.shape == (0, 4)
    features, cache = descriptor_forward(params, None, empty, "max", need_cache=False)
    assert features.shape == (0, 4) and cache is None


def test_descriptor_rejects_fill_counts_outside_capacity():
    for bad in ([0, 3], [4, 3]):
        with pytest.raises(ValidationError):
            CellBatch(np.ones((2, 3, 2)), np.array(bad))
        # from_rows checks shapes only, so the descriptor checks the counts itself
        broken = CellBatch.from_rows(np.ones((sum(bad), 2)), np.array(bad), 3)
        with pytest.raises(ValidationError):
            descriptor_forward(MlpParams([]), None, broken, "max")


def test_descriptor_checkpoint_roundtrip(tmp_path):
    params = MlpParams.create(5, (7, 3), seed=11)
    weights = AggregationWeights.max_pool_init(6, noise=0.01, seed=2)
    path = tmp_path / "ckpt.json"
    save_descriptor(path, params, weights)
    params2, weights2 = load_descriptor(path)
    assert len(params2.layers) == 2
    for a, b in zip(params.layers, params2.layers):
        assert a.weight.tobytes() == b.weight.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()
        assert a.activation == b.activation
    assert weights2.values.tobytes() == weights.values.tobytes()
    assert weights2.mode == weights.mode


def test_fault_mode_breaks_sorting():
    cell = np.array([[3.0, 1.0], [1.0, 2.0], [2.0, 0.0]])
    set_fault_mode("skip-sort")
    try:
        sfm = sort_project(cell, 3)
        assert (np.diff(sfm.values, axis=0) < 0).any()  # no longer sorted
    finally:
        set_fault_mode(None)
    with pytest.raises(ValidationError):
        set_fault_mode("bogus")


# ---------------------------------------------------------------------------
# Ragged execution against the padded dense formulation
# ---------------------------------------------------------------------------


def _dense_oracle(params, weights, data, counts, kind):
    """The padded (K, N, C) descriptor: every slot embedded and masked, padding
    keyed at -inf for the sort and rewritten to zero. Returns (features, sorted)."""
    k, n, _ = data.shape
    invalid = np.arange(n)[None, :] >= counts[:, None]
    x = data
    for layer in params.layers:
        z = x.reshape(k * n, -1) @ layer.weight + layer.bias
        x = (np.maximum(z, 0.0) if layer.activation == "relu" else z).reshape(k, n, -1)
        x[invalid] = 0.0
    keyed = x + 0.0
    keyed[invalid] = -np.inf
    if kind == "max":
        return keyed.max(axis=1), None
    values = np.sort(keyed, axis=1)
    values[np.isneginf(values)] = 0.0
    if kind == "mean":
        rows = np.arange(n)[None, :] >= (n - counts)[:, None]
        w_rows = np.where(rows, 1.0 / counts[:, None], 0.0)
        return np.einsum("kn,knc->kc", w_rows, values), values
    if weights.mode == "shared":
        return np.einsum("n,knc->kc", weights.values, values), values
    return np.einsum("nc,knc->kc", weights.values, values), values


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("channels", [1, 4])
@pytest.mark.parametrize("embedding", ["identity", "mlp"])
@pytest.mark.parametrize(
    "kind, mode", [("weighted", "shared"), ("weighted", "per-channel"), ("max", None), ("mean", None)]
)
def test_ragged_forward_matches_dense_oracle_at_every_fill_level(
    kind, mode, embedding, channels, workers
):
    # every pass shares its fill groups across ``workers`` threads
    with mock.patch.object(descriptor, "_group_workers", lambda: workers):
        _check_against_dense_oracle(kind, mode, embedding, channels)


def _check_against_dense_oracle(kind, mode, embedding, channels):
    rng = np.random.default_rng(40)
    n = 8
    c_in = channels if embedding == "identity" else 3
    counts = rng.permutation(np.repeat(np.arange(1, n + 1), 3))  # every fill level, 3 cells each
    batch = cell_batch_from_arrays(rng.standard_normal((counts.size, n, c_in)), counts)
    params = MlpParams([])
    if embedding == "mlp":
        params = MlpParams.create(c_in, (6, channels), activation="relu", seed=41)
        for layer in params.layers:
            layer.bias = 0.1 * rng.standard_normal(layer.bias.shape)
    weights = None
    if kind == "weighted":
        shape = (n,) if mode == "shared" else (n, channels)
        weights = AggregationWeights(rng.standard_normal(shape), mode)

    features, cache = descriptor_forward(params, weights, batch, kind)
    expected, expected_sorted = _dense_oracle(params, weights, batch.data, counts, kind)
    if kind != "max":
        assert cache.sorted_values.tobytes() == expected_sorted.tobytes()
    if channels == 1 and kind != "max":
        # with one channel numpy's einsum reduces the row axis in SIMD partial
        # sums, so the padded contraction groups its terms differently
        np.testing.assert_allclose(features, expected, rtol=0, atol=1e-14)
    else:
        assert features.tobytes() == expected.tobytes()
    inference, _ = descriptor_forward(params, weights, batch, kind, need_cache=False)
    assert inference.tobytes() == features.tobytes()


def test_one_point_embedding_rounds_as_inside_a_larger_batch():
    # numpy sends a one-row matmul to gemv, which rounds differently from gemm
    rng = np.random.default_rng(41)
    params = MlpParams.create(4, (16, 8), seed=41)
    n = 4
    counts = rng.permutation(np.repeat(np.arange(1, n + 1), 8))
    batch = cell_batch_from_arrays(rng.standard_normal((counts.size, n, 4)), counts)
    w = AggregationWeights(rng.standard_normal(n))
    kinds = {"weighted": w, "max": None, "mean": None}
    full = {
        kind: descriptor_forward(params, weights, batch, kind, need_cache=False)[0]
        for kind, weights in kinds.items()
    }
    for i in np.flatnonzero(counts == 1):
        cell = batch.data[i]
        assert (mlp_forward(params, cell, 1)[0] + 0.0).tobytes() == full["max"][i].tobytes()
        single = cell_batch_from_arrays(cell[None], np.array([1]))
        for kind, weights in kinds.items():
            one, _ = descriptor_forward(params, weights, single, kind, need_cache=False)
            assert one[0].tobytes() == full[kind][i].tobytes()


@pytest.mark.parametrize("c_out", [1, 2, 3, 64])
def test_rows_round_as_inside_a_larger_batch(c_out):
    # BLAS rounds the rows past a product's last block of four differently
    # when it has fewer than four columns, and one row goes to gemv
    rng = np.random.default_rng(c_out)
    x = rng.standard_normal((64, 16))
    weight = rng.standard_normal((16, c_out))
    whole = x @ weight  # 64 rows: none past the last block
    for start in range(8):
        for n in range(1, 12):
            rows = slice(start, start + n)
            assert _rows_matmul(x[rows], weight).tobytes() == whole[rows].tobytes()
            out = np.empty((n, c_out))
            assert _rows_matmul(x[rows], weight, out=out) is out
            assert out.tobytes() == whole[rows].tobytes()


@pytest.mark.parametrize("kind", ["weighted", "max", "mean"])
def test_inference_forward_embeds_one_fill_group_at_a_time(kind):
    # with many fill levels no group is more than a small share of the rows,
    # so an inference forward never holds an embedding of every row
    rng = np.random.default_rng(5)
    n = 32
    counts = rng.permutation(np.repeat(np.arange(1, n + 1), 125))  # 4,000 cells
    batch = cell_batch_from_arrays(rng.standard_normal((counts.size, n, 4)), counts)
    params = MlpParams.create(4, (64,), seed=5)
    weights = None
    if kind == "weighted":
        weights = AggregationWeights.max_pool_init(n, noise=0.1, seed=5)
    one_embedding = batch.rows.shape[0] * params.out_dim * 8  # (P, C_out) float64
    tracemalloc.start()
    try:
        descriptor_forward(params, weights, batch, kind, need_cache=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < one_embedding


@pytest.mark.parametrize("kind, bound", [("weighted", 3.6), ("max", 1.8)])
def test_training_forward_keeps_each_activation_once(kind, bound):
    # the cache keeps one fill-major output per layer and reads a ReLU's mask
    # there, so no pre-activation array is held beside it; the bound is in
    # (P, C_out) float64 arrays: the weighted kind also keeps its sorted blocks
    rng = np.random.default_rng(5)
    n = 32
    counts = rng.permutation(np.repeat(np.arange(1, n + 1), 125))  # 4,000 cells
    batch = cell_batch_from_arrays(rng.standard_normal((counts.size, n, 9)), counts)
    params = MlpParams.create(9, (64,), seed=5)
    weights = None
    if kind == "weighted":
        weights = AggregationWeights.max_pool_init(n, noise=0.1, seed=5)
    one_embedding = batch.rows.shape[0] * params.out_dim * 8
    tracemalloc.start()
    try:
        descriptor_forward(params, weights, batch, kind, need_cache=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * one_embedding, peak / one_embedding
