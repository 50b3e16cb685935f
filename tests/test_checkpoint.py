import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import one_shot_generate, whole_table_draws
from tabsynth import (
    Checkpoint,
    ColumnSpec,
    Schema,
    Table,
    TrainConfig,
    checkpoint_from_text,
    checkpoint_to_text,
    load_checkpoint,
    load_csv,
    save_checkpoint,
    standardize,
    train,
)
from tabsynth.serialize import fmt_float, json_text

DATA = Path(__file__).resolve().parent / "data"


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


def test_float_formatting():
    assert fmt_float(1.0) == "1.0"
    assert fmt_float(-2.0) == "-2.0"
    for x in (0.1, 1.0 / 3.0, 1e-300, 6.02214076e23, 5e-324):
        assert float(fmt_float(x)) == x
    with pytest.raises(ValueError):
        fmt_float(float("nan"))
    with pytest.raises(ValueError):
        fmt_float(float("inf"))


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
    with pytest.raises(TypeError, match=f"^cannot serialize <class '{name}'>$"):
        json_text(doc)


def test_rejects_invalid_json():
    with pytest.raises(ValueError, match="not valid JSON"):
        checkpoint_from_text("{not json")


@pytest.mark.parametrize("content, message", [
    (b'{"format_version": 2}', "corrupt checkpoint: missing checkpoint.schema"),
    (b"{not json", "corrupt checkpoint: not valid JSON (Expecting property name"),
    (b'{"format_version": 2, "schema": "r\xe9d"}', "not UTF-8 text, cannot decode byte 0xe9 (invalid continuation byte)"),
], ids=["missing-schema", "not-json", "not-utf8"])
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


def test_unknown_activation_rejected(small_checkpoint):
    # every network is relu after the hidden layer and linear after the output
    for net in ("encoder", "decoder"):
        for activations in (["relu", "tanh"], ["identity", "relu"], ["relu"], ["relu", "identity", "relu"]):
            doc = json.loads(checkpoint_to_text(small_checkpoint))
            doc[net]["activations"] = activations
            with pytest.raises(ValueError, match=rf"^corrupt checkpoint: {net}\.activations must be \['relu', 'identity'\]$"):
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
    ("beta", 0.0, "beta must be a finite positive number"),
    ("epochs", 0, "epochs and batch_size must be positive"),
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
    with pytest.raises(ValueError, match="^unsupported checkpoint format version True"):
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
    with pytest.raises(ValueError, match="scaling stats are for columns"):
        checkpoint_from_text(json.dumps(doc))


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


def assert_generates_the_committed_v1_rows(cp):
    # written, and sampled with generate --n 200 --seed 3, by the release whose
    # numeric head summed hinge weights and whose random numbers were laid out
    # over the whole table: the segment slopes read the same decoder outputs,
    # so only the last bits of numeric cells may move
    expected = load_csv(DATA / "checkpoint_v1_n200_seed3.csv", cp.schema).rows
    rows = one_shot_generate(cp, 200, 3, whole_table_draws)
    numeric, discrete = cp.schema.numeric_indices, cp.schema.discrete_indices
    assert np.array_equal(rows[:, discrete], expected[:, discrete])
    np.testing.assert_allclose(rows[:, numeric], expected[:, numeric], rtol=1e-9, atol=0.0)


def test_format_1_checkpoint_from_the_hinge_form_generates_the_same_rows():
    assert_generates_the_committed_v1_rows(load_checkpoint(DATA / "checkpoint_v1.json"))


def test_format_1_checkpoint_loads_without_its_dead_decoder_outputs():
    # format 1 gave each of the 2 numeric columns M+2 = 8 outputs, the last one
    # dead: rows 7 and 15 of the 19 in the last layer
    cp = load_checkpoint(DATA / "checkpoint_v1.json")
    doc = json.loads((DATA / "checkpoint_v1.json").read_text(encoding="utf-8"))
    (w1, b1), (w2, b2) = [(np.array(layer["weight"]), np.array(layer["bias"])) for layer in doc["decoder"]["layers"]]
    want = [w1, b1, np.delete(w2, [7, 15], axis=0), np.delete(b2, [7, 15])]
    got = [a for layer in cp.decoder for a in layer]
    assert [a.shape for a in got] == [a.shape for a in want]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_format_1_checkpoint_saves_as_format_2(tmp_path):
    cp = load_checkpoint(DATA / "checkpoint_v1.json")
    path = tmp_path / "model.json"
    save_checkpoint(cp, path)
    text = path.read_text(encoding="utf-8")
    assert json.loads(text)["format_version"] == 2
    again = load_checkpoint(path)
    assert again.params.tobytes() == cp.params.tobytes()
    assert checkpoint_to_text(again) == text
    assert_generates_the_committed_v1_rows(again)


def test_format_2_document_labelled_version_1_names_the_decoder_shape(small_checkpoint):
    doc = json.loads(checkpoint_to_text(small_checkpoint))
    assert doc["format_version"] == 2
    doc["format_version"] = 1
    with pytest.raises(ValueError, match="corrupt checkpoint: decoder shape does not match"):
        checkpoint_from_text(json.dumps(doc))
