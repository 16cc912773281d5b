import collections
import copy

import numpy as np
import pytest

from pillarkit import (
    AggregationWeights,
    DivergenceError,
    MlpParams,
    OptimizerState,
    ToyTaskSpec,
    TrainConfig,
    ValidationError,
    build_toy_dataset,
    cell_batch_from_arrays,
    descriptor_backward,
    descriptor_forward,
    optimizer_step,
    toy,
    train_descriptor,
)
from pillarkit.autograd import grad_dict
from pillarkit.toy import (
    TRAIN_STAGES,
    _init_model,
    _trainable,
    evaluate,
    grad_norms,
    load_checkpoint,
    save_checkpoint,
    weight_readout,
)


def quick_spec(**overrides):
    base = dict(cells_per_class=64, n_points=16, channels=3, seed=0)
    base.update(overrides)
    return ToyTaskSpec(**base)


def quick_config(**overrides):
    base = dict(kind="weighted", steps=60, batch_size=16, eval_every=30, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def test_equal_extremes_pairs_share_extremes_exactly():
    dataset = build_toy_dataset(quick_spec())
    cells = dataset.cells
    for p in range(dataset.spec.cells_per_class):
        c0, c1 = cells[2 * p], cells[2 * p + 1]
        np.testing.assert_array_equal(c0.min(axis=0), c1.min(axis=0))
        np.testing.assert_array_equal(c0.max(axis=0), c1.max(axis=0))
    assert dataset.labels.tolist() == [0, 1] * dataset.spec.cells_per_class


def test_identity_max_pool_features_identical_across_classes():
    dataset = build_toy_dataset(quick_spec())
    batch = cell_batch_from_arrays(dataset.cells, dataset.valid_count)
    features, _ = descriptor_forward(MlpParams([]), None, batch, "max", need_cache=False)
    even, odd = features[0::2], features[1::2]
    assert even.tobytes() == odd.tobytes()  # no classifier can separate these


def quantile_spread_scores(cells: np.ndarray) -> np.ndarray:
    """Normalized interquartile spread per cell, averaged over channels.

    Uniform interiors score near 0.5, extreme-piled ones near 1. Only order
    statistics of the raw cells enter, no descriptor.
    """
    q25, q75 = np.quantile(cells, [0.25, 0.75], axis=1)  # (K, C) each
    return ((q75 - q25) / (cells.max(axis=1) - cells.min(axis=1))).mean(axis=1)


def test_quantile_oracle_separates_classes():
    dataset = build_toy_dataset(ToyTaskSpec(cells_per_class=500, seed=42))
    scores = quantile_spread_scores(dataset.cells)
    # the threshold sits in the gap between the classes' scores: uniform
    # interiors top out near 0.63, extreme-piled ones start near 0.69
    assert ((scores > 0.66) == dataset.labels).mean() >= 0.99
    assert scores[dataset.labels == 0].mean() < 0.6
    assert scores[dataset.labels == 1].mean() > 0.8


def test_pair_safe_split():
    dataset = build_toy_dataset(quick_spec())
    for idx in (dataset.train_idx, dataset.val_idx):
        pairs = set(idx // 2)
        assert sorted(idx) == sorted([2 * p for p in pairs] + [2 * p + 1 for p in pairs])
    assert set(dataset.train_idx).isdisjoint(dataset.val_idx)
    assert dataset.train_idx.size + dataset.val_idx.size == dataset.num_cells


def test_training_is_deterministic():
    dataset = build_toy_dataset(quick_spec())
    config = quick_config()
    m1, model1, _ = train_descriptor(dataset, config)
    m2, model2, _ = train_descriptor(dataset, config)
    assert m1.losses == m2.losses
    assert m1.final_metric_value == m2.final_metric_value
    assert model1.head_weight.tobytes() == model2.head_weight.tobytes()
    assert model1.weights.values.tobytes() == model2.weights.values.tobytes()


def test_frozen_unit_weights_match_max_pool_trajectory_bitwise():
    dataset = build_toy_dataset(quick_spec())
    frozen = quick_config(kind="weighted", freeze_agg=True, agg_noise=0.0)
    maxed = quick_config(kind="max")
    m_frozen, model_frozen, _ = train_descriptor(dataset, frozen)
    m_max, model_max, _ = train_descriptor(dataset, maxed)
    assert m_frozen.losses == m_max.losses
    assert m_frozen.final_metric_value == m_max.final_metric_value
    assert model_frozen.head_weight.tobytes() == model_max.head_weight.tobytes()
    # frozen weights never moved off the max-pool point
    unit = np.zeros(dataset.cells.shape[1])
    unit[-1] = 1.0
    np.testing.assert_array_equal(model_frozen.weights.values, unit)


@pytest.mark.parametrize("mode", ["shared", "per-channel"])
def test_weight_readout_leaves_max_pool_unless_frozen(mode):
    dataset = build_toy_dataset(quick_spec())
    n, channels = dataset.cells.shape[1:]
    start = AggregationWeights.max_pool_init(n, None if mode == "shared" else channels)
    assert weight_readout(start) == (1.0, 0.0)
    assert weight_readout(None) == (None, None)

    def trained(freeze_agg):
        model = _init_model(dataset, quick_config(freeze_agg=freeze_agg))
        model.weights = start
        metrics, _, _ = train_descriptor(dataset, quick_config(freeze_agg=freeze_agg), model)
        return metrics.records

    for record in trained(freeze_agg=True):
        assert record.agg_last_row_mass == 1.0
        assert record.agg_distance_from_max_pool == 0.0
    moved = trained(freeze_agg=False)
    assert [r.step for r in moved] == [30, 60]  # read at eval steps only
    assert all(r.agg_last_row_mass < 1.0 for r in moved)
    assert 0.0 < moved[0].agg_distance_from_max_pool < moved[1].agg_distance_from_max_pool


@pytest.mark.parametrize(
    ("overrides", "groups"),
    [
        ({"mlp_widths": (6,)}, {"mlp", "agg", "head"}),
        ({"mlp_widths": (6,), "freeze_agg": True}, {"mlp", "head"}),
        ({"kind": "max"}, {"head"}),
    ],
)
def test_eval_records_carry_step_time_and_group_gradient_norms(overrides, groups):
    dataset = build_toy_dataset(quick_spec())
    metrics, _, _ = train_descriptor(dataset, quick_config(steps=50, **overrides))
    assert [r.step for r in metrics.records] == [30, 50]  # read at eval steps only
    for record in metrics.records:
        assert np.isfinite(record.step_s) and record.step_s > 0.0
        assert set(record.grad_norm) == groups
        assert all(np.isfinite(v) and v > 0.0 for v in record.grad_norm.values())
    # the per-step mean covers only the steps since the previous record
    assert metrics.records[1].step_s * 20 < metrics.wall_clock_s


def test_grad_norms_pool_each_group():
    grads = {"mlp.0.weight": np.full((2, 2), 1.0), "mlp.0.bias": np.array([2.0, 2.0]),
             "agg": np.array([3.0, 4.0]), "head.weight": np.array([0.0]),
             "head.bias": np.array([-2.0])}
    assert grad_norms(grads) == {"mlp": np.sqrt(12.0), "agg": 5.0, "head": 2.0}


def test_loss_decreases_over_five_seeds():
    for seed in range(5):
        dataset = build_toy_dataset(quick_spec(seed=seed))
        metrics, _, _ = train_descriptor(
            dataset, quick_config(steps=201, seed=seed, eval_every=201)
        )
        assert metrics.losses[200] < metrics.losses[0]


def test_checkpoint_resume_matches_uninterrupted_run():
    dataset = build_toy_dataset(quick_spec())
    full_config = quick_config(steps=60)
    m_full, model_full, _ = train_descriptor(dataset, full_config)

    half_config = quick_config(steps=30)
    _, model_half, state_half = train_descriptor(dataset, half_config)
    m_resumed, model_resumed, _ = train_descriptor(
        dataset, full_config, resume_from=model_half, resume_state=state_half
    )
    assert model_resumed.step == 60
    assert m_resumed.losses == m_full.losses[30:]
    assert model_resumed.head_weight.tobytes() == model_full.head_weight.tobytes()
    assert model_resumed.weights.values.tobytes() == model_full.weights.values.tobytes()
    for a, b in zip(model_resumed.params.layers, model_full.params.layers):
        assert a.weight.tobytes() == b.weight.tobytes()


def reference_train(dataset, config, model=None, state=None):
    """Train name by name: each step draws the run's minibatch, calls the public
    ``optimizer_step`` over the named arrays and writes each update back."""
    model = copy.deepcopy(model) if model is not None else _init_model(dataset, config)
    state = copy.deepcopy(state) if state is not None else OptimizerState(
        algorithm=config.optimizer, lr=config.lr
    )
    params = _trainable(model, config.freeze_agg)
    take = min(config.batch_size, dataset.train_idx.size)
    for step in range(model.step, config.steps):
        rng = np.random.default_rng([config.seed, 3, step])
        idx = rng.choice(dataset.train_idx, size=take, replace=False)
        batch = cell_batch_from_arrays(dataset.cells[idx], dataset.valid_count[idx])
        features, cache = descriptor_forward(model.params, model.weights, batch, config.kind)
        logits = features @ model.head_weight + model.head_bias[0]
        labels = dataset.labels[idx].astype(np.float64)
        d_out = (1.0 / (1.0 + np.exp(-logits)) - labels) / logits.shape[0]
        grads = grad_dict(descriptor_backward(cache, d_out[:, None] * model.head_weight[None, :]))
        grads["head.weight"] = features.T @ d_out
        grads["head.bias"] = np.asarray([d_out.sum()])
        new = optimizer_step(state, params, {name: grads[name] for name in params})
        for name, value in new.items():
            params[name][...] = value
        model.step = step + 1
    return model, state


def assert_same_training(got, expected):
    (model, state), (ref_model, ref_state) = got, expected
    arrays, ref_arrays = _trainable(model, False), _trainable(ref_model, False)
    assert list(arrays) == list(ref_arrays)
    for name, array in arrays.items():
        assert array.shape == ref_arrays[name].shape, name
        assert array.tobytes() == ref_arrays[name].tobytes(), name
    assert model.step == ref_model.step and state.step == ref_state.step
    assert list(state.moments) == list(ref_state.moments)  # the checkpoint's order
    for name, (m, v) in state.moments.items():
        ref_m, ref_v = ref_state.moments[name]
        assert m.shape == ref_m.shape and v.shape == ref_v.shape, name
        assert m.tobytes() == ref_m.tobytes() and v.tobytes() == ref_v.tobytes(), name


@pytest.mark.parametrize("freeze_agg", [False, True], ids=["agg", "frozen"])
@pytest.mark.parametrize("mlp_widths", [(), (6,)], ids=["identity", "mlp"])
@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_flat_training_matches_name_by_name_updates_bitwise(optimizer, mlp_widths, freeze_agg):
    dataset = build_toy_dataset(quick_spec())
    config = quick_config(steps=40, optimizer=optimizer, mlp_widths=mlp_widths,
                          freeze_agg=freeze_agg, agg_noise=0.01)
    _, model, state = train_descriptor(dataset, config)
    assert_same_training((model, state), reference_train(dataset, config))


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_flat_training_matches_name_by_name_across_an_unfreezing_resume(optimizer):
    dataset = build_toy_dataset(quick_spec())
    half = quick_config(steps=20, optimizer=optimizer, mlp_widths=(6,), freeze_agg=True)
    full = quick_config(steps=40, optimizer=optimizer, mlp_widths=(6,), freeze_agg=False)
    _, model, state = train_descriptor(dataset, half)
    ref_model, ref_state = reference_train(dataset, half)
    assert_same_training((model, state), (ref_model, ref_state))
    assert "agg" not in state.moments
    _, model, state = train_descriptor(dataset, full, model, state)
    assert_same_training((model, state), reference_train(dataset, full, ref_model, ref_state))
    assert ("agg" in state.moments) == (optimizer == "adam")


def test_the_traced_calls_fire_once_per_step_and_per_record(monkeypatch):
    # a traced benchmark run wraps these module names to time each stage
    calls = collections.Counter()
    for name in ("cell_batch_from_arrays", "descriptor_forward", "descriptor_backward",
                 "optimizer_step", "evaluate"):
        def counted(*args, _real=getattr(toy, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(toy, name, counted)
    metrics, _, _ = train_descriptor(build_toy_dataset(quick_spec()),
                                     quick_config(steps=10, eval_every=5))
    assert [r.step for r in metrics.records] == [5, 10]
    # each evaluation batches its cells and runs a forward of its own
    assert calls == {"cell_batch_from_arrays": 12, "descriptor_forward": 12,
                     "descriptor_backward": 10, "optimizer_step": 10, "evaluate": 2}


def test_stage_times_cover_the_training_wall_time():
    dataset = build_toy_dataset(quick_spec())
    metrics, _, _ = train_descriptor(dataset, quick_config(steps=200, eval_every=50))
    assert tuple(metrics.stage_s) == TRAIN_STAGES
    assert all(seconds > 0.0 for seconds in metrics.stage_s.values())
    total = sum(metrics.stage_s.values())
    assert 0.9 * metrics.wall_clock_s <= total <= metrics.wall_clock_s


def test_resume_leaves_the_given_model_unchanged():
    dataset = build_toy_dataset(quick_spec())
    _, model, state = train_descriptor(dataset, quick_config(steps=30, mlp_widths=(6,)))

    def contents():
        return {name: a.tobytes() for name, a in _trainable(model, freeze_agg=False).items()}

    before = contents()
    _, resumed, _ = train_descriptor(
        dataset, quick_config(steps=60, mlp_widths=(6,)), resume_from=model, resume_state=state
    )
    assert contents() == before
    assert model.step == 30 and resumed.step == 60
    assert resumed.head_weight.tobytes() != before["head.weight"]


def test_resuming_twice_from_one_state_gives_equal_checkpoints(tmp_path):
    dataset = build_toy_dataset(quick_spec())
    _, model, state = train_descriptor(dataset, quick_config(steps=10))
    before = state.to_doc()
    config = quick_config(steps=20)
    saved = []
    for name in ("first", "second"):
        _, resumed, resumed_state = train_descriptor(
            dataset, config, resume_from=model, resume_state=state
        )
        assert resumed_state is not state and resumed_state.step == 20
        save_checkpoint(tmp_path / name, resumed, resumed_state, config, dataset.spec)
        saved.append((tmp_path / name).read_bytes())
    assert state.to_doc() == before
    assert saved[0] == saved[1]


def test_checkpoint_file_roundtrip(tmp_path):
    dataset = build_toy_dataset(quick_spec())
    config = quick_config(steps=10)
    _, model, state = train_descriptor(dataset, config)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, model, state, config, dataset.spec)
    model2, state2, config2, spec2 = load_checkpoint(path)
    assert model2.step == model.step
    assert model2.head_weight.tobytes() == model.head_weight.tobytes()
    assert state2.step == state.step
    assert config2 == config
    assert spec2 == dataset.spec
    assert evaluate(model2, dataset, dataset.val_idx) == evaluate(
        model, dataset, dataset.val_idx
    )


def test_quantile_regression_training_improves_over_baseline():
    spec = quick_spec(task="quantile-regression", cells_per_class=128, n_points=8)
    dataset = build_toy_dataset(spec)
    # spot-check a target against manual linear interpolation of order stats
    cell0 = np.sort(dataset.cells[0, :, 0])
    pos = 0.5 * (len(cell0) - 1)
    lo, hi = int(np.floor(pos)), int(np.ceil(pos))
    expected = cell0[lo] + (pos - lo) * (cell0[hi] - cell0[lo])
    assert dataset.targets[0] == pytest.approx(expected, rel=1e-12)

    config = quick_config(steps=400, lr=0.05, eval_every=100)
    metrics, _, _ = train_descriptor(dataset, config)
    baseline = float(np.var(dataset.targets[dataset.val_idx]))  # predict-the-mean MSE
    assert metrics.final_metric_name == "val_mse"
    assert metrics.final_metric_value < 0.5 * baseline


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_divergence_raises_with_step_index():
    spec = quick_spec(task="quantile-regression")
    dataset = build_toy_dataset(spec)
    config = quick_config(optimizer="sgd", lr=1e12, steps=50)
    with pytest.raises(DivergenceError) as excinfo:
        train_descriptor(dataset, config)
    assert excinfo.value.step >= 0


@pytest.mark.filterwarnings("ignore:overflow")
def test_update_to_non_finite_parameters_diverges():
    # the loss is finite, but one SGD step at the largest float rate overflows
    # the head; such a model must not be returned or checkpointed
    dataset = build_toy_dataset(quick_spec(task="quantile-regression"))
    config = quick_config(optimizer="sgd", lr=1.79e308, steps=1)
    with pytest.raises(DivergenceError, match="non-finite parameter after step 0"):
        train_descriptor(dataset, config)


def test_spec_validation():
    with pytest.raises(ValidationError):
        ToyTaskSpec(task="nope")
    with pytest.raises(ValidationError):
        ToyTaskSpec(val_fraction=1.5)
    with pytest.raises(ValidationError):
        TrainConfig(steps=0)
