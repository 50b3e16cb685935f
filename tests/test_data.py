import json
import math

import numpy as np
import pytest

from tabsynth import (
    ColumnSpec,
    ScalingStats,
    Schema,
    Table,
    apply_scaling,
    destandardize,
    drop_percentile_outliers,
    load_csv,
    load_schema,
    one_hot_matrix,
    save_csv,
    standardize,
    train_test_split,
)


def small_schema() -> Schema:
    return Schema((
        ColumnSpec("age", "continuous"),
        ColumnSpec("score", "ordinal"),
        ColumnSpec("color", "discrete", ("red", "green", "blue")),
    ))


def test_schema_layout():
    schema = small_schema()
    assert schema.names == ["age", "score", "color"]
    assert schema.numeric_indices == [0, 1]
    assert schema.discrete_indices == [2]
    assert schema.encoded_width == 2 + 3
    assert schema.index("color") == 2
    with pytest.raises(KeyError, match="weight"):
        schema.index("weight")


def test_discrete_column_requires_levels():
    with pytest.raises(ValueError):
        ColumnSpec("c", "discrete")


def test_continuous_column_rejects_levels():
    with pytest.raises(ValueError):
        ColumnSpec("x", "continuous", ("a", "b"))


def test_schema_rejects_duplicate_names():
    with pytest.raises(ValueError):
        Schema((ColumnSpec("x", "continuous"), ColumnSpec("x", "continuous")))


def test_load_schema_round_trip(tmp_path):
    doc = {"columns": [
        {"name": "age", "kind": "continuous"},
        {"name": "score", "kind": "ordinal"},
        {"name": "color", "kind": "discrete", "levels": ["red", "green", "blue"]},
    ]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert load_schema(path) == small_schema()


def test_load_schema_rejects_unknown_kind(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"columns": [{"name": "x", "kind": "float"}]}))
    with pytest.raises(ValueError, match="kind"):
        load_schema(path)


def test_load_schema_names_wrong_typed_levels(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"columns": [
        {"name": "x", "kind": "continuous"},
        {"name": "c", "kind": "discrete", "levels": 5},
    ]}))
    with pytest.raises(ValueError, match=r"columns\[1\]\.levels must be a list"):
        load_schema(path)


def test_table_validates_shape_and_cells():
    schema = small_schema()
    with pytest.raises(ValueError, match="2-D"):
        Table(schema, np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        Table(schema, np.array([[1.0, 2.0, np.nan]]))
    with pytest.raises(ValueError, match="level"):
        Table(schema, np.array([[1.0, 2.0, 3.0]]))  # only 3 levels, index 3 invalid
    with pytest.raises(ValueError, match="level"):
        Table(schema, np.array([[1.0, 2.0, 0.5]]))


def test_table_rows_are_immutable():
    table = Table(small_schema(), np.array([[1.0, 2.0, 1.0]]))
    with pytest.raises(ValueError):
        table.rows[0, 0] = 9.0


def test_csv_round_trip(tmp_path):
    schema = small_schema()
    rows = np.array([
        [1.25, 3.0, 0.0],
        [-0.125, 7.0, 2.0],
        [1e-9, 4.0, 1.0],
    ])
    table = Table(schema, rows)
    path = tmp_path / "t.csv"
    save_csv(table, path)
    text = path.read_text()
    assert text.splitlines()[0] == "age,score,color"
    assert "red" in text and "blue" in text  # labels, not level indices
    back = load_csv(path, schema)
    assert np.array_equal(back.rows, rows)


def test_load_csv_errors_name_the_data_row(tmp_path):
    schema = small_schema()
    path = tmp_path / "t.csv"
    path.write_text("age,score,color\n1.0,2.0,red\n1.0,2.0,purple\n")
    with pytest.raises(ValueError, match=r"'purple'.*row 2"):
        load_csv(path, schema)
    path.write_text("age,score,color\nx,2.0,red\n")
    with pytest.raises(ValueError, match="row 1"):
        load_csv(path, schema)
    path.write_text("age,color,score\n")
    with pytest.raises(ValueError, match="header"):
        load_csv(path, schema)


def test_csv_round_trips_quoted_labels_and_float_text(tmp_path):
    schema = Schema((
        ColumnSpec("x", "continuous"),
        ColumnSpec("s", "discrete", ("a,b", 'say "hi"', "two\nlines", "plain")),
    ))
    rows = np.array([[0.1, 0.0], [1 / 3, 1.0], [-2.5e-300, 2.0], [1e16, 3.0]])
    path = tmp_path / "t.csv"
    save_csv(Table(schema, rows), path)
    assert path.read_bytes() == (
        b'x,s\r\n0.1,"a,b"\r\n0.3333333333333333,"say ""hi"""\r\n'
        b'-2.5e-300,"two\nlines"\r\n1e+16,plain\r\n'
    )
    assert load_csv(path, schema).rows.tobytes() == rows.tobytes()


def test_csv_round_trips_zero_rows(tmp_path):
    schema = small_schema()
    path = tmp_path / "t.csv"
    save_csv(Table(schema, np.empty((0, 3))), path)
    assert path.read_text() == "age,score,color\n"
    assert load_csv(path, schema).rows.shape == (0, 3)


@pytest.mark.parametrize(("body", "message"), [
    ("1.0,2.0,red\n1.0,2.0\n", r"row 2 has 2 cells, expected 3"),
    ("1.0,2.0,red\n1.0,2.0,purple\n", r"unknown level 'purple' for column 'color' at row 2"),
    ("1.0,2.0,red\n1.0,2.0,red\n1.0,x,red\n", r"unparseable value 'x' for column 'score' at row 3"),
    ("1.0,2.0,red\ninf,2.0,red\n", r"non-finite value 'inf' for column 'age' at row 2"),
    ("1.0,2.0,red\n1.0,nan,red\n", r"non-finite value 'nan' for column 'score' at row 2"),
])
def test_load_csv_errors_name_file_row_and_column(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text("age,score,color\n" + body)
    with pytest.raises(ValueError, match=r"bad\.csv: " + message):
        load_csv(path, small_schema())


def test_standardize_hand_values():
    schema = Schema((ColumnSpec("x", "continuous"),))
    table = Table(schema, np.array([[1.0], [3.0]]))
    std = standardize(table)
    assert std.rows[:, 0] == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)])
    assert std.scaling.mean[0] == pytest.approx(2.0)
    assert std.scaling.stddev[0] == pytest.approx(math.sqrt(2.0))


def test_standardize_leaves_discrete_untouched():
    schema = small_schema()
    rows = np.array([[1.0, 2.0, 0.0], [5.0, 6.0, 2.0], [3.0, 4.0, 1.0]])
    std = standardize(Table(schema, rows))
    assert np.array_equal(std.rows[:, 2], rows[:, 2])
    assert std.scaling.names == ("age", "score")


def test_standardize_needs_rows_and_variance():
    schema = Schema((ColumnSpec("x", "continuous"),))
    with pytest.raises(ValueError, match="2 rows"):
        standardize(Table(schema, np.array([[1.0]])))
    with pytest.raises(ValueError, match="'x'.*variance"):
        standardize(Table(schema, np.array([[2.0], [2.0], [2.0]])))


def test_destandardize_round_trip():
    schema = small_schema()
    rng = np.random.default_rng(0)
    rows = np.column_stack([
        rng.normal(5.0, 2.0, 20),
        rng.normal(-3.0, 0.5, 20),
        rng.integers(0, 3, 20).astype(float),
    ])
    table = Table(schema, rows)
    back = destandardize(standardize(table))
    assert np.allclose(back.rows, rows, atol=1e-12)
    with pytest.raises(ValueError, match="scaling"):
        destandardize(table)


def test_apply_scaling_uses_given_stats():
    schema = Schema((ColumnSpec("x", "continuous"),))
    stats = ScalingStats(names=("x",), mean=np.array([10.0]), stddev=np.array([2.0]))
    out = apply_scaling(Table(schema, np.array([[14.0], [8.0]])), stats)
    assert out.rows[:, 0] == pytest.approx([2.0, -1.0])
    other = Schema((ColumnSpec("y", "continuous"),))
    with pytest.raises(ValueError, match="stats"):
        apply_scaling(Table(other, np.array([[1.0]])), stats)


def test_scaling_stats_reject_non_positive_stddev():
    with pytest.raises(ValueError, match="'x'"):
        ScalingStats(names=("x",), mean=np.zeros(1), stddev=np.zeros(1))


def test_one_hot_layout():
    schema = small_schema()
    rows = np.array([[1.5, 4.0, 2.0], [-2.0, 1.0, 0.0]])
    encoded = one_hot_matrix(schema, rows)
    assert encoded.shape == (2, 5)
    assert np.array_equal(encoded[0], [1.5, 4.0, 0.0, 0.0, 1.0])
    assert np.array_equal(encoded[1], [-2.0, 1.0, 1.0, 0.0, 0.0])


def test_split_sizes_and_partition():
    schema = Schema((ColumnSpec("x", "continuous"),))
    table = Table(schema, np.arange(10.0)[:, None])
    train, test = train_test_split(table, 0.25, seed=3)
    assert (train.n_rows, test.n_rows) == (8, 2)  # round(10 * 0.25) = 2
    merged = np.sort(np.concatenate([train.rows[:, 0], test.rows[:, 0]]))
    assert np.array_equal(merged, np.arange(10.0))

    again_train, again_test = train_test_split(table, 0.25, seed=3)
    assert np.array_equal(train.rows, again_train.rows)
    assert np.array_equal(test.rows, again_test.rows)

    other_train, _ = train_test_split(table, 0.25, seed=4)
    assert not np.array_equal(train.rows, other_train.rows)

    with pytest.raises(ValueError):
        train_test_split(table, 0.0, seed=1)


def test_drop_percentile_outliers():
    schema = Schema((ColumnSpec("x", "continuous"), ColumnSpec("c", "discrete", ("u", "v"))))
    x = np.concatenate([[-1000.0], np.linspace(0, 1, 198), [1000.0]])
    rows = np.column_stack([x, np.zeros(200)])
    kept = drop_percentile_outliers(Table(schema, rows))
    assert kept.n_rows < 200
    assert np.all(np.abs(kept.rows[:, 0]) <= 1.0)
    # interior rows survive
    assert kept.n_rows >= 194
