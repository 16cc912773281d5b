import tracemalloc
from unittest import mock

import numpy as np
import pytest

from pillarkit import (
    AggregationWeights,
    GridSpec,
    MlpLayer,
    MlpParams,
    NonFiniteError,
    OptimizerState,
    PointCloud,
    TieError,
    ValidationError,
    build_cell_batch,
    cell_batch_from_arrays,
    descriptor_backward,
    descriptor_forward,
    finite_difference_check,
    optimizer_step,
    run_gradient_check_suite,
)
from pillarkit import autograd, descriptor
from pillarkit.autograd import (
    GradCheckReport,
    compare_gradients,
    grad_dict,
    is_tie_free,
    param_dict,
    rebuild_from_dict,
    squared_error_loss,
)


def linear_sum_loss():
    """sum(features): linear, so the finite-difference error is pure rounding."""

    def loss_fn(features: np.ndarray) -> tuple[float, np.ndarray]:
        return float(np.sum(features)), np.ones_like(features)

    return loss_fn


def make_random_setup(seed, k=2, n=4, c_in=3, widths=(5, 3), counts=None, activation="relu"):
    rng = np.random.default_rng(seed)
    params = MlpParams.create(c_in, widths, activation=activation, seed=seed)
    for layer in params.layers:
        layer.bias = 0.1 * rng.standard_normal(layer.bias.shape)
    w = AggregationWeights(rng.standard_normal(n))
    data = rng.uniform(-1.0, 1.0, size=(k, n, c_in))
    if counts is None:
        counts = rng.integers(1, n + 1, size=k)
    batch = cell_batch_from_arrays(data, np.asarray(counts))
    return params, w, batch, rng


# ---------------------------------------------------------------------------
# Backward routing
# ---------------------------------------------------------------------------


def _eye_mlp():
    """One identity layer: d_weight = X.T @ d_rows exposes the routed rows."""
    return MlpParams([MlpLayer(np.eye(2), np.zeros(2), "identity")])


def test_identity_perm_routes_weight_times_upstream():
    cell = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])  # already sorted
    batch = cell_batch_from_arrays(cell[None])
    w = AggregationWeights(np.array([0.2, 0.3, 0.5]))
    _, cache = descriptor_forward(_eye_mlp(), w, batch, "weighted")
    upstream = np.array([[1.0, 2.0]])
    ((d_weight, d_bias),) = descriptor_backward(cache, upstream).layers
    d_rows = w.values[:, None] * upstream[0][None, :]
    np.testing.assert_allclose(d_weight, [[2.3, 4.6], [2.3, 4.6]], rtol=1e-15)
    np.testing.assert_allclose(d_bias, d_rows.sum(axis=0), rtol=1e-15)


def test_one_hot_upstream_gives_matrix_column_as_weight_grad():
    rng = np.random.default_rng(0)
    cell = rng.standard_normal((4, 3))
    batch = cell_batch_from_arrays(cell[None])
    w = AggregationWeights(rng.standard_normal(4))
    _, cache = descriptor_forward(MlpParams([]), w, batch, "weighted")
    upstream = np.zeros((1, 3))
    upstream[0, 1] = 1.0
    grads = descriptor_backward(cache, upstream)
    np.testing.assert_array_equal(grads.agg, cache.sorted_values[0][:, 1])


def test_padded_rows_contribute_no_gradient():
    cell = np.zeros((4, 2))
    cell[:2] = [[1.0, 2.0], [3.0, 0.5]]
    batch = cell_batch_from_arrays(cell[None], np.array([2]))
    w = AggregationWeights(np.array([1.0, 1.0, 1.0, 1.0]))  # padding rows weighted too
    _, cache = descriptor_forward(_eye_mlp(), w, batch, "weighted")
    ((_, d_bias),) = descriptor_backward(cache, np.ones((1, 2))).layers
    np.testing.assert_array_equal(d_bias, [2.0, 2.0])  # [4, 4] if padding were routed


def _naive_backward(params, w, batch, upstream, kind="weighted"):
    """Independent reimplementation: per-cell, per-slot python loops over the
    padded slots. Returns (layer grads, agg grad); the agg grad is None for
    the max and mean kinds."""
    d_layers = [(np.zeros_like(l.weight), np.zeros_like(l.bias)) for l in params.layers]
    d_w = np.zeros_like(w.values) if kind == "weighted" else None
    for k in range(batch.num_cells):
        n_valid = int(batch.valid_count[k])
        n = batch.capacity
        xs = [batch.data[k]]
        zs = []
        for layer in params.layers:
            z = xs[-1] @ layer.weight + layer.bias
            y = np.maximum(z, 0.0) if layer.activation == "relu" else z.copy()
            y[n_valid:] = 0.0
            zs.append(z)
            xs.append(y)
        embedded = xs[-1]
        c = embedded.shape[1]
        d_emb = np.zeros((n, c))
        if kind == "max":  # the last slot holding the maximum, as the stable sort places it
            for ch in range(c):
                top = max(range(n_valid), key=lambda i: (embedded[i, ch], i))
                d_emb[top, ch] += upstream[k, ch]
        elif kind == "mean":
            d_emb[:n_valid] += upstream[k] / n_valid
        else:
            w_rows = (
                w.values if w.mode == "per-channel" else np.repeat(w.values[:, None], c, axis=1)
            )
            perm = np.empty((n, c), dtype=int)
            for ch in range(c):
                order = sorted(range(n_valid), key=lambda i: (embedded[i, ch], i))
                invalid = list(range(n_valid, n))
                perm[:, ch] = invalid + order
            a = np.zeros((n, c))
            for r in range(n):
                for ch in range(c):
                    if r >= n - n_valid:
                        a[r, ch] = embedded[perm[r, ch], ch]
            for r in range(n):
                if w.mode == "per-channel":
                    d_w[r] += upstream[k] * a[r]
                else:
                    d_w[r] += sum(upstream[k, ch] * a[r, ch] for ch in range(c))
            for r in range(n):
                for ch in range(c):
                    if r >= n - n_valid:
                        d_emb[perm[r, ch], ch] += w_rows[r, ch] * upstream[k, ch]
        dy = d_emb
        for li in reversed(range(len(params.layers))):
            layer = params.layers[li]
            dz = dy * (zs[li] > 0) if layer.activation == "relu" else dy
            d_layers[li][0][...] += xs[li].T @ dz
            d_layers[li][1][...] += dz.sum(axis=0)
            dy = dz @ layer.weight.T
    return d_layers, d_w


def test_backward_matches_naive_loop_oracle():
    params, w, batch, rng = make_random_setup(21)
    features, cache = descriptor_forward(params, w, batch, "weighted")
    upstream = rng.standard_normal(features.shape)
    grads = descriptor_backward(cache, upstream)
    d_layers, d_w = _naive_backward(params, w, batch, upstream)

    np.testing.assert_allclose(grads.agg, d_w, rtol=1e-12, atol=1e-12)
    for (dw_got, db_got), (dw_exp, db_exp) in zip(grads.layers, d_layers):
        np.testing.assert_allclose(dw_got, dw_exp, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(db_got, db_exp, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "kind,mode", [("weighted", "shared"), ("weighted", "per-channel"), ("max", None),
                  ("mean", None)]
)
@pytest.mark.parametrize("widths", [(5, 3), ()])
@pytest.mark.parametrize("workers", [1, 2])
def test_backward_matches_naive_loop_oracle_at_every_fill_level(kind, mode, widths, workers):
    n = 6
    counts = np.random.default_rng(34).permutation(np.repeat(np.arange(1, n + 1), 2))
    params, _, batch, rng = make_random_setup(34, k=counts.size, n=n, counts=counts)
    if not widths:
        params = MlpParams([])  # identity embedding: the forward keeps no permutation
    w = None
    if kind == "weighted":
        c = params.output_channels(batch.num_channels)
        shape = (n,) if mode == "shared" else (n, c)
        w = AggregationWeights(rng.standard_normal(shape), mode)
    upstream = rng.standard_normal((batch.num_cells, params.output_channels(batch.num_channels)))
    runs = []
    for count in (1, workers):  # on one thread, then with the groups shared
        with mock.patch.object(descriptor, "_group_workers", lambda: count):
            features, cache = descriptor_forward(params, w, batch, kind)
            runs.append((features, cache.sorted_values, descriptor_backward(cache, upstream)))
    (serial_features, serial_sorted, serial), (features, sorted_values, grads) = runs
    assert features.tobytes() == serial_features.tobytes()
    assert (sorted_values is None) == (kind == "max")
    if sorted_values is not None:
        assert sorted_values.tobytes() == serial_sorted.tobytes()
    for name, grad in grad_dict(grads).items():
        assert grad.tobytes() == grad_dict(serial)[name].tobytes(), name
    d_layers, d_w = _naive_backward(params, w, batch, upstream, kind)

    if d_w is None:
        assert grads.agg is None
    else:
        np.testing.assert_allclose(grads.agg, d_w, rtol=1e-12, atol=1e-12)
    assert len(grads.layers) == len(d_layers)
    for (dw_got, db_got), (dw_exp, db_exp) in zip(grads.layers, d_layers):
        np.testing.assert_allclose(dw_got, dw_exp, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(db_got, db_exp, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", ["weighted", "max", "mean"])
def test_identity_embedding_backward_computes_no_permutation(kind):
    rng = np.random.default_rng(39)
    n = 5
    batch = cell_batch_from_arrays(
        rng.standard_normal((2 * n, n, 3)), rng.permutation(np.tile(np.arange(1, n + 1), 2))
    )
    w = AggregationWeights(rng.standard_normal(n)) if kind == "weighted" else None
    features, cache = descriptor_forward(MlpParams([]), w, batch, kind)
    grads = descriptor_backward(cache, rng.standard_normal(features.shape))
    grad_dict(grads)
    assert all(group.src is None and group.rank is None for group in cache.groups)


@pytest.mark.parametrize("kind", ["weighted", "max", "mean"])
def test_training_keeps_ranks_for_weighted_and_maxima_for_max(kind):
    rng = np.random.default_rng(40)
    n = 16
    counts = np.tile(np.arange(1, n + 1), 2)
    batch = cell_batch_from_arrays(rng.standard_normal((2 * n, n, 3)), counts)
    w = AggregationWeights(rng.standard_normal(n)) if kind == "weighted" else None
    _, cache = descriptor_forward(MlpParams.create(3, (5,), seed=40), w, batch, kind)
    for group in cache.groups:
        assert (group.rank is not None) == (kind == "weighted")
        assert (group.src is not None) == (kind == "max")
        if group.rank is not None:
            assert group.rank.dtype == np.uint8 and group.rank.shape == (2, group.count, 5)


@pytest.mark.parametrize("channels", [3, 8, 64, 65, 130])
def test_row_sums_do_not_depend_on_how_many_rows_one_call_covers(channels):
    # each fill group keys its canonical row order by the channel sums of its
    # own rows, which must be the bits of the same rows summed in a larger call
    rng = np.random.default_rng(channels)
    x = rng.standard_normal((600, channels)) * 10.0 ** rng.integers(-8, 9, size=(600, channels))
    x[rng.random(x.shape) < 0.1] = -0.0
    whole = x.sum(axis=1)
    for start, stop in [(0, 1), (5, 6), (7, 10), (11, 43), (100, 357), (1, 600)]:
        assert x[start:stop].sum(axis=1).tobytes() == whole[start:stop].tobytes()


@pytest.mark.parametrize("kind", ["weighted", "max"])
@pytest.mark.parametrize("workers", [1, 2])
def test_backward_routes_into_one_gradient_array(kind, workers):
    # the sorted-row gradients are routed into the rows of the last layer's
    # gradient and reordered there, group by group, so the backward holds one
    # (P, C_out) float64 array beside small per-group ones
    rng = np.random.default_rng(5)
    n = 32
    counts = rng.permutation(np.repeat(np.arange(1, n + 1), 125))  # 4,000 cells
    batch = cell_batch_from_arrays(rng.standard_normal((counts.size, n, 9)), counts)
    params = MlpParams.create(9, (64,), seed=5)
    weights = None
    if kind == "weighted":
        weights = AggregationWeights.max_pool_init(n, noise=0.1, seed=5)
    one_embedding = batch.rows.shape[0] * params.out_dim * 8
    features, cache = descriptor_forward(params, weights, batch, kind)
    upstream = rng.standard_normal(features.shape)
    with mock.patch.object(descriptor, "_group_workers", lambda: workers):
        tracemalloc.start()
        try:
            descriptor_backward(cache, upstream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2.0 * one_embedding, peak / one_embedding


def test_backward_requires_cache_and_matching_shapes():
    params, w, batch, _ = make_random_setup(22)
    with pytest.raises(ValidationError):
        descriptor_backward(None, np.zeros((2, 3)))
    _, cache = descriptor_forward(params, w, batch, "weighted")
    with pytest.raises(ValidationError):
        descriptor_backward(cache, np.zeros((99, 3)))


@pytest.mark.parametrize("kind", ["weighted", "max", "mean"])
@pytest.mark.parametrize("widths", [(), (5, 3)], ids=["identity", "mlp"])
def test_backward_on_no_cells_gives_zero_gradients(kind, widths):
    # the scan's one point lies outside the grid, so it bins to no cells
    spec = GridSpec(mode="pillar", range_min=(0.0, 0.0, -1.0), range_max=(4.0, 4.0, 1.0),
                    cell_size=(1.0, 1.0, 2.0), capacity=4, max_cells=16, decorate=False)
    batch = build_cell_batch(PointCloud(np.array([[9.0, 9.0, 0.0, 0.5]])), spec)
    assert batch.num_cells == 0
    params = MlpParams.create(batch.num_channels, widths, seed=0)
    w = AggregationWeights.max_pool_init(spec.capacity) if kind == "weighted" else None
    features, cache = descriptor_forward(params, w, batch, kind)
    assert features.shape == (0, params.output_channels(4)) and cache.groups == []
    assert is_tie_free(params, batch, 1e-5)
    grads = grad_dict(descriptor_backward(cache, np.ones_like(features)))
    expected = param_dict(params, w)
    assert list(grads) == list(expected)
    for name, value in expected.items():
        assert grads[name].shape == value.shape and not grads[name].any()


def _shuffle_and_backward(params, w, batch, rng):
    features, cache = descriptor_forward(params, w, batch, "weighted")
    upstream = rng.standard_normal(features.shape)
    grads = descriptor_backward(cache, upstream)

    shuffled = batch.data.copy()
    for k in range(batch.num_cells):
        n_valid = int(batch.valid_count[k])
        shuffled[k, :n_valid] = batch.data[k, rng.permutation(n_valid)]
    sbatch = cell_batch_from_arrays(shuffled, batch.valid_count)
    sfeatures, scache = descriptor_forward(params, w, sbatch, "weighted")
    sgrads = descriptor_backward(scache, upstream)
    return features, grads, sfeatures, sgrads


@pytest.mark.parametrize("seed,activation", [(23, "relu"), (33, "identity")])
def test_backward_parameter_grads_bitwise_invariant_under_shuffles(seed, activation):
    # ReLU produces exact-zero ties, identity activation a tie-free sort;
    # parameter gradients must not care either way
    params, w, batch, rng = make_random_setup(
        seed, k=3, counts=[4, 2, 3], activation=activation
    )
    features, grads, sfeatures, sgrads = _shuffle_and_backward(params, w, batch, rng)
    assert sfeatures.tobytes() == features.tobytes()
    assert sgrads.agg.tobytes() == grads.agg.tobytes()
    for (dw_a, db_a), (dw_b, db_b) in zip(grads.layers, sgrads.layers):
        assert dw_a.tobytes() == dw_b.tobytes()
        assert db_a.tobytes() == db_b.tobytes()


def test_backward_grads_bitwise_invariant_when_distinct_rows_tie_on_order_key():
    # embedded rows [a, b] and [b, a] have bitwise-equal channel sums but
    # differ, and the third input channel makes their order matter for the
    # first-layer weight gradient; ReLU-dead rows tie with each other
    rng = np.random.default_rng(35)
    params = MlpParams([MlpLayer(np.eye(3)[:, :2], np.zeros(2), "relu")])
    n = 10
    data = np.zeros((3, n, 3))
    counts = np.array([10, 7, 4])
    for k, count in enumerate(counts):
        ab = rng.uniform(0.1, 1.0, size=(count // 3, 2))
        rows = np.concatenate([
            np.column_stack([ab, rng.standard_normal(len(ab))]),
            np.column_stack([ab[:, ::-1], rng.standard_normal(len(ab))]),
            -rng.uniform(0.1, 1.0, size=(count - 2 * len(ab), 3)),
        ])
        data[k, :count] = rows
    batch = cell_batch_from_arrays(data, counts)
    w = AggregationWeights(rng.standard_normal(n))
    upstream = rng.standard_normal((3, 2))

    def param_grad_bytes(cells):
        _, cache = descriptor_forward(params, w, cell_batch_from_arrays(cells, counts))
        grads = descriptor_backward(cache, upstream)
        return grads.agg.tobytes() + b"".join(a.tobytes() for pair in grads.layers for a in pair)

    reference = param_grad_bytes(data)
    for _ in range(30):
        shuffled = data.copy()
        for k, count in enumerate(counts):
            shuffled[k, :count] = data[k, rng.permutation(count)]
        assert param_grad_bytes(shuffled) == reference


def test_backward_is_deterministic_across_runs():
    params, w, batch, rng = make_random_setup(24)
    features, cache = descriptor_forward(params, w, batch, "weighted")
    upstream = rng.standard_normal(features.shape)
    first = descriptor_backward(cache, upstream)
    second = descriptor_backward(cache, upstream)
    assert first.agg.tobytes() == second.agg.tobytes()
    for (a_w, a_b), (b_w, b_b) in zip(first.layers, second.layers):
        assert a_w.tobytes() == b_w.tobytes()
        assert a_b.tobytes() == b_b.tobytes()


@pytest.mark.parametrize("kind", ["max", "mean"])
def test_backward_other_kinds_pass_fd(kind):
    params, _, batch, rng = make_random_setup(25 if kind == "max" else 26)
    target = rng.standard_normal((batch.num_cells, params.out_dim))
    report = finite_difference_check(
        params, None, batch, squared_error_loss(target), kind=kind
    )
    assert report.passed, report.groups


def test_per_channel_weights_pass_fd():
    params, _, batch, rng = make_random_setup(31)
    w = AggregationWeights(
        rng.standard_normal((batch.capacity, params.out_dim)), "per-channel"
    )
    target = rng.standard_normal((batch.num_cells, params.out_dim))
    report = finite_difference_check(params, w, batch, squared_error_loss(target))
    assert report.passed, report.groups
    assert report.checked["agg"] == batch.capacity * params.out_dim


def test_max_backward_routes_to_argmax_slot():
    cell = np.array([[1.0, 5.0], [3.0, 2.0]])
    batch = cell_batch_from_arrays(cell[None])
    _, cache = descriptor_forward(_eye_mlp(), None, batch, "max")
    ((d_weight, _),) = descriptor_backward(cache, np.array([[1.0, 1.0]])).layers
    # routed rows [[0, 1], [1, 0]]: each channel's gradient lands on its argmax slot
    np.testing.assert_array_equal(d_weight, [[3.0, 1.0], [2.0, 5.0]])


def test_mean_backward_spreads_uniformly():
    cell = np.array([[1.0, 5.0], [3.0, 2.0], [0.0, 0.0]])
    batch = cell_batch_from_arrays(cell[None], np.array([2]))
    _, cache = descriptor_forward(_eye_mlp(), None, batch, "mean")
    ((d_weight, _),) = descriptor_backward(cache, np.array([[1.0, 2.0]])).layers
    # routed rows [[0.5, 1], [0.5, 1]] on the two occupied slots
    np.testing.assert_array_equal(d_weight, [[2.0, 4.0], [3.5, 7.0]])


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------


def test_fd_random_small_instance_passes():
    params, w, batch, rng = make_random_setup(27, k=1, n=4, c_in=3, widths=(5, 3))
    target = rng.standard_normal((1, 3))
    report = finite_difference_check(params, w, batch, squared_error_loss(target))
    assert report.passed
    assert max(report.groups.values()) <= 1e-5


def test_fd_linear_loss_weight_gradient_is_column_sums():
    rng = np.random.default_rng(28)
    cell = rng.standard_normal((4, 3))
    batch = cell_batch_from_arrays(cell[None])
    w = AggregationWeights(rng.standard_normal(4))
    features, cache = descriptor_forward(MlpParams([]), w, batch, "weighted")
    grads = descriptor_backward(cache, np.ones_like(features))
    np.testing.assert_allclose(
        grads.agg, cache.sorted_values[0].sum(axis=1), rtol=1e-14, atol=0
    )
    report = finite_difference_check(
        MlpParams([]), w, batch, linear_sum_loss(), tolerance=1e-8
    )
    assert report.passed
    assert report.groups["agg"] <= 1e-8


def test_fd_detects_corrupted_gradient():
    params, w, batch, rng = make_random_setup(29)
    target = rng.standard_normal((batch.num_cells, params.out_dim))
    loss_fn = squared_error_loss(target)
    features, cache = descriptor_forward(params, w, batch, "weighted")
    _, upstream = loss_fn(features)
    analytic = grad_dict(descriptor_backward(cache, upstream))
    analytic["mlp.0.weight"] = analytic["mlp.0.weight"].copy()
    flat = np.abs(analytic["mlp.0.weight"]).argmax()
    analytic["mlp.0.weight"].flat[flat] *= 2.0  # corrupt the largest entry
    report = compare_gradients(analytic, params, w, batch, loss_fn)
    assert not report.passed
    assert report.groups["mlp.0.weight"] > 1e-5
    assert all(err <= 1e-5 for name, err in report.groups.items() if name != "mlp.0.weight")


def test_fd_rejects_tied_inputs():
    cell = np.array([[1.0, 2.0], [1.0, 3.0]])  # exact tie in channel 0
    batch = cell_batch_from_arrays(cell[None])
    w = AggregationWeights(np.ones(2))
    with pytest.raises(TieError):
        finite_difference_check(
            MlpParams([]), w, batch, linear_sum_loss()
        )


def test_gradient_check_suite_small_run():
    reports = run_gradient_check_suite(num_configs=5, seed=3)
    assert len(reports) == 5
    assert all(r.passed for r in reports)


def test_fd_subsamples_large_parameter_groups():
    params, w, batch, rng = make_random_setup(32, widths=(8, 4))
    target = rng.standard_normal((batch.num_cells, 4))
    report = finite_difference_check(
        params, w, batch, squared_error_loss(target), max_per_group=5,
        rng=np.random.default_rng(0),
    )
    assert report.passed
    assert report.checked["mlp.0.weight"] == 5  # 3*8 = 24 scalars, sampled down
    assert report.checked["agg"] == 4  # small groups still swept in full


def rebuild_per_probe_compare(analytic, params, weights, batch, loss_fn, kind="weighted",
                              step=1e-5, tolerance=1e-5, max_per_group=None, rng=None):
    """Reference sweep: a fresh model rebuilt from copied arrays for every probe."""
    base = param_dict(params, weights)

    def loss_at(values):
        p, w = rebuild_from_dict(values, params, weights)
        features, _ = descriptor_forward(p, w, batch, kind=kind, need_cache=False)
        return loss_fn(features)[0]

    groups, checked = {}, {}
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
            worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-12))
        groups[name] = worst
        checked[name] = int(flat_indices.size)
    passed = all(err <= tolerance for err in groups.values())
    return GradCheckReport(groups, tolerance, passed, checked)


def report_bits(report):
    errors = {name: np.float64(err).tobytes() for name, err in report.groups.items()}
    return errors, report.tolerance, report.passed, report.checked


def test_in_place_sweep_equals_rebuild_per_probe(monkeypatch):
    params, w, batch, rng = make_random_setup(32, widths=(8, 4))
    loss_fn = squared_error_loss(rng.standard_normal((batch.num_cells, 4)))

    def run():
        suite = run_gradient_check_suite(num_configs=5, seed=3)
        sampled = finite_difference_check(
            params, w, batch, loss_fn, max_per_group=5, rng=np.random.default_rng(0)
        )
        return [report_bits(r) for r in suite + [sampled]]

    in_place = run()
    monkeypatch.setattr(autograd, "compare_gradients", rebuild_per_probe_compare)
    assert run() == in_place


def test_compare_gradients_never_writes_the_parameters():
    params, w, batch, rng = make_random_setup(33)
    loss_fn = squared_error_loss(rng.standard_normal((batch.num_cells, params.out_dim)))
    features, cache = descriptor_forward(params, w, batch, "weighted")
    analytic = grad_dict(descriptor_backward(cache, loss_fn(features)[1]))

    def contents():
        return {name: a.tobytes() for name, a in param_dict(params, w).items()}

    before = contents()
    assert compare_gradients(analytic, params, w, batch, loss_fn).passed
    assert contents() == before
    calls = 0

    def fails_on_seventh_call(features):
        nonlocal calls
        calls += 1
        if calls == 7:  # the fourth scalar's +h probe, with that scalar nudged
            raise RuntimeError("loss failed")
        return loss_fn(features)

    with pytest.raises(RuntimeError, match="loss failed"):
        compare_gradients(analytic, params, w, batch, fails_on_seventh_call)
    assert contents() == before


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


def test_sgd_known_step():
    state = OptimizerState(algorithm="sgd", lr=0.1)
    out = optimizer_step(state, {"t": np.array([1.0])}, {"t": np.array([2.0])})
    np.testing.assert_array_equal(out["t"], [0.8])
    assert state.step == 1


def test_zero_gradient_leaves_parameters_unchanged():
    theta = np.array([1.0, -2.0, 3.0])
    sgd = OptimizerState(algorithm="sgd", lr=0.5)
    out = optimizer_step(sgd, {"t": theta}, {"t": np.zeros(3)})
    assert out["t"].tobytes() == theta.tobytes()
    adam = OptimizerState(algorithm="adam", lr=0.5)
    out = optimizer_step(adam, {"t": theta}, {"t": np.zeros(3)})
    assert out["t"].tobytes() == theta.tobytes()
    assert adam.step == 1 and "t" in adam.moments


def test_adam_first_step_matches_hand_computation():
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    state = OptimizerState(algorithm="adam", lr=lr, beta1=b1, beta2=b2, eps=eps)
    theta = np.array([0.3, -1.2])
    grad = np.ones(2)
    out = optimizer_step(state, {"t": theta}, {"t": grad})
    # hand-stepped: m=0.1, v=0.001, m_hat=1, v_hat=1 -> update = lr/(1+eps)
    expected = theta - lr * 1.0 / (1.0 + eps)
    np.testing.assert_allclose(out["t"], expected, rtol=0, atol=0)
    assert abs((theta - out["t"])[0]) == pytest.approx(lr, rel=1e-6)


def test_optimizer_rejects_nonfinite_and_mismatched_gradients():
    state = OptimizerState(algorithm="sgd", lr=0.1)
    with pytest.raises(NonFiniteError):
        optimizer_step(state, {"t": np.ones(2)}, {"t": np.array([1.0, np.nan])})
    with pytest.raises(ValidationError):
        optimizer_step(state, {"t": np.ones(2)}, {"t": np.ones(3)})
    with pytest.raises(ValidationError):
        optimizer_step(state, {"t": np.ones(2)}, {"other": np.ones(2)})
    with pytest.raises(ValidationError):
        OptimizerState(algorithm="rmsprop")


def test_optimizer_state_doc_roundtrip():
    state = OptimizerState(algorithm="adam", lr=0.05)
    params = {"a": np.array([1.0, 2.0]), "b": np.array([[3.0]])}
    grads = {"a": np.array([0.1, -0.2]), "b": np.array([[0.5]])}
    optimizer_step(state, params, grads)
    back = OptimizerState.from_doc(state.to_doc())
    assert back.step == state.step
    for name in state.moments:
        np.testing.assert_array_equal(back.moments[name][0], state.moments[name][0])
        np.testing.assert_array_equal(back.moments[name][1], state.moments[name][1])


def test_param_dict_roundtrip():
    params, w, _, _ = make_random_setup(30)
    d = param_dict(params, w)
    assert set(d) == {"mlp.0.weight", "mlp.0.bias", "mlp.1.weight", "mlp.1.bias", "agg"}
