import json
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tabsynth import (
    Checkpoint,
    ColumnSpec,
    Schema,
    Table,
    TrainConfig,
    checkpoint_from_text,
    checkpoint_to_text,
    load_checkpoint,
    save_checkpoint,
    standardize,
    train,
)
from tabsynth.serialize import json_text

FLOAT = re.compile(r"-?\d+\.\d+(?:e[-+]\d+)?|-?\d+e[-+]\d+")  # a float's repr, never an int's


@pytest.fixture(scope="module")
def small_checkpoint():
    rng = np.random.default_rng(21)
    schema = Schema((
        ColumnSpec("x", "continuous"),
        ColumnSpec("g", "discrete", ("a", "b")),
    ))
    rows = np.column_stack([rng.normal(size=60), (rng.random(60) < 0.5).astype(float)])
    table = standardize(Table(schema, rows))
    return train(table, TrainConfig(seed=22, epochs=3, batch_size=16))


def test_text_round_trip_is_byte_identical(small_checkpoint):
    text = checkpoint_to_text(small_checkpoint)
    again = checkpoint_to_text(checkpoint_from_text(text))
    assert text == again


def test_file_round_trip(tmp_path, small_checkpoint):
    path = tmp_path / "model.json"
    save_checkpoint(small_checkpoint, path)
    loaded = load_checkpoint(path)
    assert checkpoint_to_text(loaded) == path.read_text(encoding="utf-8")
    assert loaded.config == small_checkpoint.config
    assert loaded.schema == small_checkpoint.schema
    assert loaded.params.tobytes() == small_checkpoint.params.tobytes()


def test_awkward_floats_survive_exactly(small_checkpoint):
    cp = checkpoint_from_text(checkpoint_to_text(small_checkpoint))
    weight = cp.encoder[0][0]
    weight[0, :3] = [1.0 / 3.0, 1e-300, 0.1]
    weight[1, 0] = 6.02214076e23
    loaded = checkpoint_from_text(checkpoint_to_text(cp))
    assert np.array_equal(loaded.encoder[0][0], weight)


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(5e-324)
@example(1.7976931348623157e308)
@example(-1.7976931348623157e308)
def test_json_text_floats_parse_back_to_the_same_bits(x):
    assert struct.pack("<d", json.loads(json_text([x]))[0]) == struct.pack("<d", x)


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
def test_json_text_rejects_non_finite_floats(x):
    with pytest.raises(ValueError):
        json_text([x])


def test_json_text_is_valid_json():
    doc = {"a": [1, 2.5, "s", None, True], "b": {"c": []}}
    assert json.loads(json_text(doc)) == doc


def test_json_text_writes_empty_dicts_inline():
    assert json_text({}) == "{}\n"
    assert json_text({"a": {}}) == '{\n  "a": {}\n}\n'
    assert json.loads(json_text({"a": {}, "b": [{}]})) == {"a": {}, "b": [{}]}


@pytest.mark.parametrize(("doc", "name"), [
    ({"a": object()}, "object"),
    ([{1, 2}], "set"),
    ({"a": [b"raw"]}, "bytes"),
], ids=["object", "set-in-list", "bytes-in-list"])
def test_json_text_rejects_unknown_types_by_name(doc, name):
    with pytest.raises(TypeError, match=f"^Object of type {name} is not JSON serializable$"):
        json_text(doc)


def test_rejects_invalid_json():
    with pytest.raises(ValueError, match="not valid JSON"):
        checkpoint_from_text("{not json")


@pytest.mark.parametrize("content, message", [
    (b'{"format_version": 2}', "corrupt checkpoint: missing checkpoint.schema"),
    (b"{not json", "corrupt checkpoint: not valid JSON (Expecting property name"),
    (b'{"format_version": 2, "schema": "r\xe9d"}', "not UTF-8 text, cannot decode byte 0xe9 (invalid continuation byte)"),
    (b'{"format_version": 1}', "unsupported checkpoint format version 1 (this build reads version 2)"),
    (b'{"format_version": 2.0}', "corrupt checkpoint: checkpoint.format_version has the wrong type float"),
    (b'{"format_version": "2"}', "corrupt checkpoint: checkpoint.format_version has the wrong type str"),
    (b'{"format_version": 2, "schema": {"columns": [{"name": "c", "kind": "discrete", "levels": ["x", "x"]}]}}',
     "corrupt checkpoint: schema: column 'c': duplicate level labels"),
], ids=["missing-schema", "not-json", "not-utf8", "version-1", "version-float", "version-str",
        "schema-duplicate-levels"])
def test_load_checkpoint_errors_start_with_the_path(tmp_path, content, message):
    path = tmp_path / "model.json"
    path.write_bytes(content)
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: {message}")


def test_rejects_unknown_format_version(small_checkpoint):
    doc = json.loads(checkpoint_to_text(small_checkpoint))
    doc["format_version"] = 99
    with pytest.raises(ValueError, match="unsupported checkpoint format version 99"):
        checkpoint_from_text(json.dumps(doc))


def test_rejects_missing_section(small_checkpoint):
    doc = json.loads(checkpoint_to_text(small_checkpoint))
    del doc["encoder"]
    with pytest.raises(ValueError, match="missing checkpoint.encoder"):
        checkpoint_from_text(json.dumps(doc))


def test_rejects_mismatched_weight_shapes(small_checkpoint):
    doc = json.loads(checkpoint_to_text(small_checkpoint))
    doc["decoder"]["layers"][-1]["weight"] = [[0.0, 0.0]]
    doc["decoder"]["layers"][-1]["bias"] = [0.0]
    with pytest.raises(ValueError, match="decoder shape"):
        checkpoint_from_text(json.dumps(doc))


def test_rejects_layers_that_do_not_chain(small_checkpoint):
    # the first layer's width is consistent with the schema, the second no longer takes its output
    doc = json.loads(checkpoint_to_text(small_checkpoint))
    layer = doc["encoder"]["layers"][1]
    layer["weight"] = [row[:-1] for row in layer["weight"]]
    with pytest.raises(ValueError, match="encoder shape"):
        checkpoint_from_text(json.dumps(doc))


def test_rejects_ragged_layer(small_checkpoint):
    doc = json.loads(checkpoint_to_text(small_checkpoint))
    layer = doc["encoder"]["layers"][0]
    layer["bias"] = layer["bias"] + [0.0]
    with pytest.raises(ValueError, match="bad layer shapes under encoder"):
        checkpoint_from_text(json.dumps(doc))


def test_rejects_ragged_weight_row(small_checkpoint):
    doc = json.loads(checkpoint_to_text(small_checkpoint))
    doc["decoder"]["layers"][0]["weight"][0].append(0.0)
    with pytest.raises(ValueError, match=r"decoder.layers\[0\].weight must be a 2-D array of finite numbers"):
        checkpoint_from_text(json.dumps(doc))


def test_rejects_null_config_value(small_checkpoint):
    doc = json.loads(checkpoint_to_text(small_checkpoint))
    doc["config"]["seed"] = None
    with pytest.raises(ValueError, match="config.seed has the wrong type NoneType"):
        checkpoint_from_text(json.dumps(doc))


def test_rejects_wrong_typed_schema_levels(small_checkpoint):
    doc = json.loads(checkpoint_to_text(small_checkpoint))
    doc["schema"]["columns"][1]["levels"] = 5
    with pytest.raises(ValueError, match=r"schema: columns\[1\]\.levels must be a list"):
        checkpoint_from_text(json.dumps(doc))


@pytest.mark.parametrize("value", [None, 3, True])
@pytest.mark.parametrize(("keys", "message"), [
    (("schema", "columns", 0, "name"), r"schema: columns\[0\]\.name must be a string"),
    (("schema", "columns", 1, "levels", 1), r"schema: columns\[1\]\.levels\[1\] must be a string"),
    (("scaling", "columns", 0), r"scaling\.columns\[0\] must be a string"),
])
def test_rejects_a_non_string_column_name_or_level(small_checkpoint, keys, message, value):
    doc = json.loads(checkpoint_to_text(small_checkpoint))
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    with pytest.raises(ValueError, match=rf"^corrupt checkpoint: {message}$"):
        checkpoint_from_text(json.dumps(doc))


def test_unknown_activation_rejected(small_checkpoint):
    # every network is relu after the hidden layer and linear after the output
    for net in ("encoder", "decoder"):
        for activations in (["relu", "tanh"], ["identity", "relu"], ["relu"], ["relu", "identity", "relu"]):
            doc = json.loads(checkpoint_to_text(small_checkpoint))
            doc[net]["activations"] = activations
            with pytest.raises(ValueError, match=rf"^corrupt checkpoint: {net}\.activations must be \['relu', 'identity'\]$"):
                checkpoint_from_text(json.dumps(doc))


@pytest.mark.parametrize("net", ["encoder", "decoder"])
def test_rejects_a_third_layer(small_checkpoint, net):
    # a square layer after the output chains, and the activations stay valid
    doc = json.loads(checkpoint_to_text(small_checkpoint))
    width = len(doc[net]["layers"][-1]["bias"])
    doc[net]["layers"].append({"weight": np.eye(width).tolist(), "bias": [0.0] * width})
    with pytest.raises(ValueError, match=rf"^corrupt checkpoint: {net} shape does not match schema/config$"):
        checkpoint_from_text(json.dumps(doc))


def test_rejects_hidden_width_off_config(small_checkpoint):
    # the layers chain, but not through the hidden width the config records
    doc = json.loads(checkpoint_to_text(small_checkpoint))
    doc["config"]["hidden_width"] -= 1
    with pytest.raises(ValueError, match="encoder shape does not match schema/config"):
        checkpoint_from_text(json.dumps(doc))


@pytest.mark.parametrize("path, literal, name", [
    (("config", "beta"), "1e400", r"config\.beta"),
    (("config", "learning_rate"), "-1e400", r"config\.learning_rate"),
    (("config", "beta"), "1" + "0" * 400, r"config\.beta"),
    (("loss_trace", 1, "kl"), "1e999", r"loss_trace\[1\]\.kl"),
], ids=["beta", "learning_rate", "beta-int-literal", "loss_trace-kl"])
def test_rejects_number_out_of_float_range(small_checkpoint, path, literal, name):
    # json reads 1e400 as inf, which parse_constant never sees
    doc = json.loads(checkpoint_to_text(small_checkpoint))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = "PLACEHOLDER"
    with pytest.raises(ValueError, match=f"^corrupt checkpoint: {name} must be a finite number$"):
        checkpoint_from_text(json.dumps(doc).replace('"PLACEHOLDER"', literal))


@pytest.mark.parametrize("key, value, message", [
    ("seed", -1, "seed must be non-negative"),
    pytest.param("beta", 0.0, r"beta must be in \(0, inf\), got 0.0",
                 id="beta-0.0-beta must be a finite positive number"),
    ("epochs", 0, "epochs must be positive"),
])
def test_rejects_config_that_train_config_rejects(small_checkpoint, key, value, message):
    doc = json.loads(checkpoint_to_text(small_checkpoint))
    doc["config"][key] = value
    with pytest.raises(ValueError, match=f"^corrupt checkpoint: config: {message}"):
        checkpoint_from_text(json.dumps(doc))


@pytest.mark.parametrize("path, value, where", [
    (("config", "seed"), True, "config.seed"),
    (("config", "epochs"), True, "config.epochs"),
    (("config", "beta"), True, "config.beta"),
    (("loss_trace", 0, "kl"), False, r"loss_trace\[0\].kl"),
    (("decoder", "layers", 1, "bias", 0), True, r"decoder.layers\[1\].bias"),
    (("scaling", "stddev", 0), True, "scaling.stddev"),
    (("quantiles", "high", 0), False, "quantiles.high"),
])
def test_rejects_boolean_for_a_number(small_checkpoint, path, value, where):
    doc = json.loads(checkpoint_to_text(small_checkpoint))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    # an entry of a number array fails the check of the whole array
    problem = "must be a 1-D array of finite numbers" if isinstance(path[-1], int) else "has the wrong type bool"
    with pytest.raises(ValueError, match=f"^corrupt checkpoint: {where} {problem}$"):
        checkpoint_from_text(json.dumps(doc))


@pytest.mark.parametrize("literal", ['"1.5"', "1" + "0" * 400], ids=["quoted", "int-past-float-range"])
def test_rejects_array_entry_that_is_not_a_float(small_checkpoint, literal):
    doc = json.loads(checkpoint_to_text(small_checkpoint))
    doc["scaling"]["mean"][0] = "PLACEHOLDER"
    with pytest.raises(ValueError, match=r"^corrupt checkpoint: scaling.mean must be a 1-D array of finite numbers$"):
        checkpoint_from_text(json.dumps(doc).replace('"PLACEHOLDER"', literal))


def test_rejects_boolean_format_version(small_checkpoint):
    doc = json.loads(checkpoint_to_text(small_checkpoint))
    doc["format_version"] = True
    with pytest.raises(ValueError, match="^corrupt checkpoint: checkpoint.format_version has the wrong type bool$"):
        checkpoint_from_text(json.dumps(doc))


def test_loss_trace_persists(small_checkpoint):
    loaded = checkpoint_from_text(checkpoint_to_text(small_checkpoint))
    assert len(loaded.loss_trace) == 3
    for a, b in zip(loaded.loss_trace, small_checkpoint.loss_trace):
        assert (a.crps, a.discrete, a.kl, a.total) == (b.crps, b.discrete, b.kl, b.total)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_rejects_non_finite_numbers(small_checkpoint, constant):
    doc = json.loads(checkpoint_to_text(small_checkpoint))
    doc["decoder"]["layers"][0]["weight"][0][0] = float(constant)
    with pytest.raises(ValueError, match=f"corrupt checkpoint: non-finite number {constant}"):
        checkpoint_from_text(json.dumps(doc))


@pytest.mark.parametrize("path, message", [
    (("config", "seed"), "missing config.seed"),
    (("schema", "columns", 1, "kind"), r"schema: columns\[1\] needs 'name' and 'kind'"),
    (("encoder", "layers", 0, "weight"), r"missing encoder.layers\[0\].weight"),
    (("decoder", "layers", 1, "bias"), r"missing decoder.layers\[1\].bias"),
    (("scaling", "mean"), "missing scaling.mean"),
    (("quantiles", "low"), "missing quantiles.low"),
    (("loss_trace", 2, "kl"), r"missing loss_trace\[2\].kl"),
])
def test_missing_key_names_its_path(small_checkpoint, path, message):
    doc = json.loads(checkpoint_to_text(small_checkpoint))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    with pytest.raises(ValueError, match=message):
        checkpoint_from_text(json.dumps(doc))


def test_rejects_scaling_names_off_schema(small_checkpoint):
    doc = json.loads(checkpoint_to_text(small_checkpoint))
    doc["scaling"]["columns"] = ["renamed"]
    message = r"^corrupt checkpoint: scaling: scaling stats are for columns \('renamed',\), schema has \('x',\)$"
    with pytest.raises(ValueError, match=message):
        checkpoint_from_text(json.dumps(doc))


@pytest.mark.parametrize("change, message", [
    (lambda scaling: scaling["mean"].append(0.5), "scaling stats arrays must match the column name list"),
    (lambda scaling: scaling["stddev"].__setitem__(0, 0.0), "non-positive stddev for column 'x'"),
], ids=["extra-mean-entry", "zero-stddev"])
def test_scaling_faults_read_like_every_other_checkpoint_fault(tmp_path, small_checkpoint, change, message):
    doc = json.loads(checkpoint_to_text(small_checkpoint))
    change(doc["scaling"])
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: corrupt checkpoint: scaling: {message}$"):
        load_checkpoint(path)


@pytest.mark.parametrize("key, values", [("low", [-1.0, -2.0]), ("high", [])])
def test_rejects_quantile_count_off_schema(small_checkpoint, key, values):
    doc = json.loads(checkpoint_to_text(small_checkpoint))
    doc["quantiles"][key] = values
    with pytest.raises(ValueError, match=f"quantiles.{key} needs one entry per numeric column"):
        checkpoint_from_text(json.dumps(doc))


REPLACEMENTS = [None, "text", [[0.0], [1.0, 2.0]], True, False]


def mutation_sites(node, path=()):
    """Every (path, action) one mutation can apply to a checkpoint document:
    delete a dict key, replace a value with one of REPLACEMENTS (a boolean
    among them), make a number non-finite, or truncate a list."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,), "delete"
            yield path + (key,), "replace"
            yield from mutation_sites(value, path + (key,))
    elif isinstance(node, list):
        if node:
            yield path, "truncate"
        for i, value in enumerate(node):
            yield path + (i,), "replace"
            yield from mutation_sites(value, path + (i,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, "non-finite"


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_fuzzed_checkpoint_loads_or_raises_value_error(small_checkpoint, data):
    doc = json.loads(checkpoint_to_text(small_checkpoint))
    path, action = data.draw(st.sampled_from(list(mutation_sites(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    last = path[-1] if path else None
    if action == "delete":
        del parent[last]
    elif action == "replace":
        parent[last] = data.draw(st.sampled_from(REPLACEMENTS))
    elif action == "non-finite":
        parent[last] = data.draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    else:
        target = parent[last] if path else parent
        del target[data.draw(st.integers(0, len(target) - 1)):]
    try:
        loaded = checkpoint_from_text(json.dumps(doc))
    except ValueError:
        return
    assert isinstance(loaded, Checkpoint)


def test_checkpoint_written_at_17_digits_keeps_its_values_and_resaves_stably(tmp_path, small_checkpoint):
    # releases before floats were written as repr gave each 17 significant digits
    text = checkpoint_to_text(small_checkpoint)
    old = tmp_path / "digits17.json"
    old.write_text(FLOAT.sub(lambda m: format(float(m[0]), ".17g"), text), encoding="utf-8")
    assert old.read_text(encoding="utf-8") != text
    cp = load_checkpoint(old)
    assert cp.params.tobytes() == small_checkpoint.params.tobytes()
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_checkpoint(cp, first)
    save_checkpoint(load_checkpoint(first), second)
    assert first.read_text(encoding="utf-8") == text  # repr is exact: every value kept its bits
    assert second.read_bytes() == first.read_bytes()
