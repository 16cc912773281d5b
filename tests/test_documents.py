import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pillarkit import (
    BenchConfig,
    FileFormatError,
    GridSpec,
    OptimizerState,
    SyntheticCloudSpec,
    ToyTaskSpec,
    TrainConfig,
    ValidationError,
)

VALID = [
    GridSpec.kitti_pillar_defaults(),
    SyntheticCloudSpec(
        kind="gaussian-clusters", extent_min=(0, 0, 0), extent_max=(1, 2, 3), count=10, seed=2,
        clusters=1, centers=[(0.5, 0.5, 0.5)],
    ),
    ToyTaskSpec(),
    TrainConfig(mlp_widths=(4,)),
    BenchConfig(),
    OptimizerState(),
]
IDS = [type(doc).__name__ for doc in VALID]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
numbers = st.integers(-3, 40) | st.floats(-3.0, 40.0) | st.sampled_from([True, 1e400, 10**400])
MISSING = object()
field_values = st.just(MISSING) | numbers | st.lists(numbers, max_size=4) | json_values


@pytest.mark.parametrize("error", [ValidationError, FileFormatError])
@pytest.mark.parametrize("valid", VALID, ids=IDS)
def test_valid_document_round_trips(valid, error):
    assert type(valid).from_doc(valid.to_doc(), error) == valid
    assert type(valid).from_doc({**valid.to_doc(), "unknown": [1]}, error) == valid


@pytest.mark.parametrize("valid", VALID, ids=IDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_from_doc_returns_an_instance_or_raises_only_the_requested_error(valid, data):
    # the classes raise ValidationError themselves, so asking for another type tests the mapping
    cls, error = type(valid), FileFormatError
    doc = valid.to_doc()
    for name in data.draw(st.sets(st.sampled_from(sorted(doc)), min_size=1, max_size=3)):
        value = data.draw(field_values, label=name)
        if value is MISSING:
            del doc[name]
        else:
            doc[name] = value
    try:
        built = cls.from_doc(doc, error)
    except Exception as exc:  # anything but the requested type fails the property
        assert type(exc) is error, repr(exc)
        return
    assert type(built) is cls
    back = cls.from_doc(built.to_doc(), error)
    # JSON text compares NaN values and int/float types, which == does not
    assert json.dumps(back.to_doc()) == json.dumps(built.to_doc())


@pytest.mark.parametrize("valid", VALID, ids=IDS)
@pytest.mark.parametrize("doc", [None, [1], "abc", 3])
def test_non_object_document_is_the_requested_error(valid, doc):
    with pytest.raises(FileFormatError):
        type(valid).from_doc(doc, FileFormatError)


@pytest.mark.parametrize(
    "field, value",
    [("steps", 3.5), ("steps", "8"), ("steps", True), ("lr", "0.5"), ("freeze_agg", "false"),
     ("freeze_agg", 0), ("activation", 1), ("seed", -1)],
)
def test_scalar_fields_take_only_their_declared_type(field, value):
    with pytest.raises(ValidationError):
        TrainConfig.from_doc({field: value})


def test_int_field_takes_integral_float_and_float_field_takes_int():
    spec = ToyTaskSpec.from_doc({"n_points": 8.0, "edge_band": 0})
    assert spec.n_points == 8 and type(spec.n_points) is int
    assert type(spec.edge_band) is float


def test_optimizer_state_requires_every_scalar():
    doc = OptimizerState().to_doc()
    del doc["eps"]
    with pytest.raises(FileFormatError):
        OptimizerState.from_doc(doc)
