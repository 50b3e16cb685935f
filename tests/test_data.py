import json
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import make_toy_table
from helpers import whole_file_load_csv, whole_file_save_csv
from tabsynth import (
    ColumnSpec,
    ScalingStats,
    Schema,
    Table,
    apply_scaling,
    drop_percentile_outliers,
    load_csv,
    load_schema,
    one_hot_matrix,
    save_csv,
    standardize,
    train_test_split,
)
from tabsynth import data


def small_schema() -> Schema:
    return Schema((
        ColumnSpec("age", "continuous"),
        ColumnSpec("score", "ordinal"),
        ColumnSpec("color", "discrete", ("red", "green", "blue")),
    ))


def interleaved_schema() -> Schema:
    """Discrete columns before and between the numeric ones."""
    return Schema((
        ColumnSpec("d", "discrete", ("p", "q")),
        ColumnSpec("x", "continuous"),
        ColumnSpec("e", "discrete", ("s", "t", "u", "v")),
        ColumnSpec("y", "ordinal"),
    ))


def test_schema_layout():
    schema = small_schema()
    assert schema.names == ["age", "score", "color"]
    assert schema.numeric_indices == [0, 1]
    assert schema.discrete_indices == [2]
    assert schema.level_starts == (2, 5)
    assert schema.encoded_width == 2 + 3
    assert schema.index("color") == 2
    with pytest.raises(KeyError, match="weight"):
        schema.index("weight")
    mixed = interleaved_schema()
    assert (mixed.numeric_indices, mixed.discrete_indices) == ([1, 3], [0, 2])
    # each discrete column's first one-hot position, after the 2 numeric
    # columns, then the row's width; Python ints, not numpy's
    assert mixed.level_starts == (2, 4, 8) and mixed.encoded_width == 8
    assert all(type(start) is int for start in mixed.level_starts)
    assert Schema((ColumnSpec("x", "continuous"),)).level_starts == (1,)


def test_level_index_maps_each_label_to_its_position():
    spec = interleaved_schema().columns[2]
    assert spec.level_index == {"s": 0, "t": 1, "u": 2, "v": 3}
    assert spec.level_index is spec.level_index  # built once
    assert ColumnSpec("x", "continuous").level_index == {}


def test_discrete_column_requires_levels():
    with pytest.raises(ValueError):
        ColumnSpec("c", "discrete")


def test_continuous_column_rejects_levels():
    with pytest.raises(ValueError):
        ColumnSpec("x", "continuous", ("a", "b"))


def test_schema_rejects_duplicate_names():
    with pytest.raises(ValueError):
        Schema((ColumnSpec("x", "continuous"), ColumnSpec("x", "continuous")))


def _load_schema_text(tmp_path, text):
    path = tmp_path / "s.json"
    path.write_text(text, encoding="utf-8")
    return load_schema(path)


def _load_bytes(load, path, content, *args):
    path.write_bytes(content)
    return load(path, *args)


def _load_empty_csv(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    return load_csv(path, small_schema())


@pytest.mark.parametrize(("call", "message"), [
    (lambda tmp: ColumnSpec("c", "discrete", ("a", "b", "a")), r"^column 'c': duplicate level labels$"),
    (lambda tmp: Schema(()), r"^schema has no columns$"),
    (lambda tmp: _load_schema_text(tmp, '["x"]'), r"s\.json: schema must contain a 'columns' list$"),
    (_load_empty_csv, r"empty\.csv: empty file$"),
    (lambda tmp: _load_bytes(load_schema, tmp / "s.json", b'{"columns": [{"name": "\xe9"}]}'),
     r"s\.json: not UTF-8 text, cannot decode byte 0xe9 \(invalid continuation byte\)$"),
    (lambda tmp: _load_bytes(load_csv, tmp / "t.csv", b"age,score,color\n1.0,2.0,r\xe9d\n", small_schema()),
     r"t\.csv: not UTF-8 text, cannot decode byte 0xe9 \(invalid continuation byte\)$"),
    (lambda tmp: _load_bytes(load_csv, tmp / "t.csv", b"age,score,color\n1.0,2.0,red\n"
                             + b"1" * 2**17 + b"1,2.0,red\n", small_schema()),
     r"t\.csv: field larger than field limit \(131072\) at line 3$"),
    (lambda tmp: _load_schema_text(tmp, '{"columns": [{"name": "c", "kind": "discrete", "levels": ["x", "x"]}]}'),
     r"s\.json: column 'c': duplicate level labels$"),
    (lambda tmp: _load_schema_text(tmp, '{"columns": [{"name": "c", "kind": "text"}]}'),
     r"s\.json: column 'c': unknown kind 'text'$"),
    (lambda tmp: _load_schema_text(tmp, '{"columns": [{"name": "c", "kind": "continuous"}, '
                                        '{"name": "c", "kind": "ordinal"}]}'),
     r"s\.json: duplicate column names in schema$"),
    (lambda tmp: _load_schema_text(tmp, '{"columns": []}'), r"s\.json: schema has no columns$"),
], ids=["duplicate-levels", "no-columns", "non-dict-schema", "empty-csv", "schema-not-utf8",
        "csv-not-utf8", "csv-cell-too-long", "schema-file-duplicate-levels", "schema-file-unknown-kind",
        "schema-file-duplicate-names", "schema-file-no-columns"])
def test_data_input_checks_name_the_fault(tmp_path, call, message):
    with pytest.raises(ValueError, match=message):
        call(tmp_path)


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


@pytest.mark.parametrize("value", [None, 3, True])
@pytest.mark.parametrize("field", ["name", "kind", "levels[0]"])
def test_load_schema_refuses_a_non_string_name_kind_or_level(tmp_path, field, value):
    # str() would read null as a column named 'None', and true as a level 'True'
    column = {"name": "c", "kind": "discrete", "levels": ["a", "b"]}
    if field == "levels[0]":
        column["levels"][0] = value
    else:
        column[field] = value
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"columns": [{"name": "x", "kind": "continuous"}, column]}))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: columns\[1\]\.{re.escape(field)} must be a string$"):
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


@pytest.mark.parametrize("column, value", [(0, math.nan), (0, -math.inf), (2, math.nan), (2, math.inf)])
def test_table_names_the_column_of_a_non_finite_cell(column, value):
    rows = np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 1.0]])
    rows[1, column] = value
    name = small_schema().columns[column].name
    with pytest.raises(ValueError, match=rf"^column '{name}': table cells must be finite, got {value!r} in row 1$"):
        Table(small_schema(), rows)
    rows[0, 1] = math.inf  # the first column in schema order is named, not the first row
    with pytest.raises(ValueError, match=rf"^column '{name if column == 0 else 'score'}': "):
        Table(small_schema(), rows)


def test_table_rows_are_immutable():
    table = Table(small_schema(), np.array([[1.0, 2.0, 1.0]]))
    with pytest.raises(ValueError):
        table.rows[0, 0] = 9.0


def test_table_copies_a_writeable_array():
    rows = np.array([[1.0, 2.0, 1.0]])
    table = Table(small_schema(), rows)
    rows[0, 0] = 9.0
    assert table.rows[0, 0] == 1.0 and rows.flags.writeable


def test_tables_share_their_rows():
    table = Table(small_schema(), np.array([[1.0, 2.0, 1.0]]))
    assert Table(small_schema(), table.rows).rows is table.rows


def test_table_keeps_a_handed_over_array():
    rows = np.array([[1.0, 2.0, 1.0]])
    rows.flags.writeable = False
    assert Table(small_schema(), rows).rows is rows


def test_table_copies_a_read_only_view_of_a_writeable_base():
    base = np.array([[1.0, 2.0, 1.0], [3.0, 4.0, 2.0]])
    view = base[:1]
    view.flags.writeable = False
    table = Table(small_schema(), view)
    base[0, 0] = 9.0
    assert table.rows[0, 0] == 1.0 and not np.shares_memory(table.rows, base)


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


def test_csv_round_trip_of_interleaved_discrete_columns_through_both_readers(tmp_path):
    schema = interleaved_schema()
    rows = np.array([[1.0, 0.5, 3.0, 7.0], [0.0, -1.5, 0.0, 2.0], [1.0, 2.25, 1.0, 3.0]])
    path = tmp_path / "t.csv"
    save_csv(Table(schema, rows), path)
    assert path.read_bytes() == b"d,x,e,y\r\nq,0.5,v,7.0\r\np,-1.5,s,2.0\r\nq,2.25,t,3.0\r\n"
    plain, module = data._plain_csv_rows(path, schema), data._csv_module_rows(path, schema)
    assert plain.tobytes() == module.tobytes() == load_csv(path, schema).rows.tobytes() == rows.tobytes()
    # a level of the other discrete column: the plain reader declines, the csv-module reader names it
    path.write_bytes(b"d,x,e,y\nq,0.5,v,7.0\np,-1.5,q,2.0\n")
    assert data._plain_csv_rows(path, schema) is None
    with pytest.raises(ValueError, match=r"unknown level 'q' for column 'e' at row 2$"):
        data._csv_module_rows(path, schema)


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


def test_load_csv_skips_a_utf8_byte_order_mark(tmp_path):
    body = "age,score,color\n1.5,2.0,red\n-0.0,3.0,blue\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(body, encoding="utf-8")
    marked.write_text("\ufeff" + body, encoding="utf-8")
    assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
    want = np.array([[1.5, 2.0, 0.0], [-0.0, 3.0, 2.0]])
    for path in (plain, marked):
        assert load_csv(path, small_schema()).rows.tobytes() == want.tobytes()


def test_single_empty_label_column_is_written_quoted(tmp_path):
    # the csv module quotes a row made of one empty field; an empty line
    # would read back as a row of 0 cells
    schema = Schema((ColumnSpec("g", "discrete", ("", "x")),))
    rows = np.array([[0.0], [1.0], [0.0]])
    path = tmp_path / "t.csv"
    save_csv(Table(schema, rows), path)
    assert path.read_bytes() == b'g\r\n""\r\nx\r\n""\r\n'
    assert load_csv(path, schema).rows.tobytes() == rows.tobytes()


_LABELS = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "Z", "é", "日"]), max_size=4)
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -2.5e-310, 1e16, 1e-5, sys.float_info.max, -sys.float_info.max]


@st.composite
def _csv_cases(draw):
    """(schema, rows, block rows): 1-4 columns whose names and labels hold
    CSV specials, and a row count at or around a multiple of the block, or
    any count up to 12 blocks. The reader's array grows when a block ends
    past its capacity, to a quarter over that row count, so 12 blocks pass
    several growth steps and end both on the capacity and short of it,
    where the array is trimmed."""
    width = draw(st.integers(1, 4))
    names = draw(st.lists(_LABELS, min_size=width, max_size=width, unique=True))
    specs, cells = [], []
    for name in names:
        kind = draw(st.sampled_from(["continuous", "ordinal", "discrete"]))
        if kind == "discrete":
            levels = draw(st.lists(_LABELS, min_size=2, max_size=4, unique=True))
            specs.append(ColumnSpec(name, kind, tuple(levels)))
            cells.append(st.integers(0, len(levels) - 1).map(float))
        else:
            specs.append(ColumnSpec(name, kind))
            cells.append(st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False))
    block = draw(st.integers(2, 5))
    n = draw(st.sampled_from([0, 1, block - 1, block, block + 1, 3 * block]) | st.integers(0, 12 * block))
    rows = draw(st.lists(st.tuples(*cells), min_size=n, max_size=n))
    return Schema(tuple(specs)), np.array(rows, dtype=np.float64).reshape(n, width), block, draw(st.booleans())


def _decline_plain(mp):
    """Make load_csv read every file with its csv-module reader."""
    mp.setattr(data, "_plain_csv_rows", lambda path, schema: None)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_csv_cases())
def test_blocked_csv_matches_the_whole_file_reference(tmp_path, case):
    schema, rows, block, bom = case
    table = Table(schema, rows)
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "CSV_BLOCK_CELLS", block * len(schema.columns))
        save_csv(table, new)
        whole_file_save_csv(table, ref)
        assert new.read_bytes() == ref.read_bytes()
        if bom:
            for path in (new, ref):
                path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        back = load_csv(new, schema).rows
        _decline_plain(mp)
        blocked = load_csv(new, schema).rows
    want = rows.tobytes()
    assert back.tobytes() == blocked.tobytes() == whole_file_load_csv(ref, schema).rows.tobytes() == want


class _CsvModuleRan(Exception):
    pass


def test_plain_files_skip_the_csv_module_reader_and_quoted_files_reach_it(tmp_path, monkeypatch):
    def refuse(*args):
        raise _CsvModuleRan

    monkeypatch.setattr(data, "_parse_block", refuse)
    table = make_toy_table(100, seed=4)
    plain = tmp_path / "plain.csv"
    save_csv(table, plain)
    rows = load_csv(plain, table.schema).rows
    assert rows.tobytes() == table.rows.tobytes()
    assert rows.base is None and rows.flags.owndata and rows.flags.c_contiguous and not rows.flags.writeable
    # lines are at most 44 bytes; scanned 48-55 bytes at a time, chunks
    # begin at every offset of a line, so some read stops inside a \r\n
    for scan in range(48, 56):
        monkeypatch.setattr(data, "CSV_SCAN_BYTES", scan)
        assert load_csv(plain, table.schema).rows.tobytes() == table.rows.tobytes()
    schema = Schema((ColumnSpec("x", "continuous"), ColumnSpec("g", "discrete", ("a,b", "c"))))
    quoted = tmp_path / "quoted.csv"
    save_csv(Table(schema, np.array([[1.5, 0.0], [2.5, 1.0]])), quoted)
    assert b'"a,b"' in quoted.read_bytes()
    with pytest.raises(_CsvModuleRan):
        load_csv(quoted, schema)


# cell texts on which numpy's reader and the csv module's could part: CSV
# specials, non-finite values, and texts that float() accepts and numpy's
# parser refuses (1_0, Arabic-Indic digits) or the reverse (0x1c padding)
_ODD_CELLS = ["", " ", '"', '""', ",", "#", "#1", "1_0", "\u0661\u0662", "nan", "inf", "-inf", "1e400",
              " 2.5 ", "\xa01.5", "\x1c1.5", "1.5\x1f", "\x00", "0x10", "red", "red ", '"red"', '"a,b"']
# a plain file's labels are the first three; the last is met only as the
# odd cell '"red"', which the csv module reads as the label red
_ODD_LEVELS = ("red", " red", "", '"red"')


@st.composite
def _csv_texts(draw):
    """(schema, file bytes): 1-3 columns and 0-6 rows of valid cells, LF or
    CRLF line ends, maybe a BOM and maybe no final line end. Most files
    also have one oddity: one or two odd cells, an odd header, rows of the
    wrong width, each line's end drawn from LF, CRLF and CR, or blank
    lines."""
    width = draw(st.integers(1, 3))
    names = ["a", "b", "c"][:width]
    kinds = draw(st.lists(st.sampled_from(["continuous", "discrete"]), min_size=width, max_size=width))
    schema = Schema(tuple(
        ColumnSpec(name, kind, _ODD_LEVELS if kind == "discrete" else None)
        for name, kind in zip(names, kinds)
    ))
    oddity = draw(st.sampled_from([None, "cells", "header", "widths", "ends", "blank lines"]))
    plain = ",".join(names)
    header = plain
    if oddity == "header":
        header = draw(st.sampled_from(
            [",".join(f'"{n}"' for n in names), " " + plain, plain + ",", ",".join(names[::-1]), ""]
        ))
    numbers = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    columns = [numbers if kind == "continuous" else st.sampled_from(_ODD_LEVELS[:3]) for kind in kinds]
    rows = [[draw(c) for c in columns] for _ in range(draw(st.integers(0, 6)))]
    if oddity == "cells" and rows:
        for _ in range(draw(st.integers(1, 2))):
            rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, width - 1))] = draw(st.sampled_from(_ODD_CELLS))
    if oddity == "widths":
        for row in rows:
            if draw(st.booleans()):
                row[:] = row[:-1] if draw(st.booleans()) else row + [draw(numbers)]
    lines = [header]
    for row in rows:
        lines.append(",".join(row))
        if oddity == "blank lines" and draw(st.booleans()):
            lines.append("")
    ends = st.sampled_from(["\n", "\r\n", "\r"]) if oddity == "ends" else st.just(draw(st.sampled_from(["\n", "\r\n"])))
    line_ends = [draw(ends) for _ in lines]
    if draw(st.booleans()):
        line_ends[-1] = ""
    text = "".join(map(str.__add__, lines, line_ends))
    return schema, ("\ufeff" * draw(st.booleans()) + text).encode("utf-8")


def _rows_or_error(path, schema):
    try:
        rows = load_csv(path, schema).rows
    except ValueError as err:
        return str(err)
    return rows.shape, rows.tobytes()


_ONE_NUMBER = Schema((ColumnSpec("a", "continuous"),))
_ONE_LABEL = Schema((ColumnSpec("a", "discrete", _ODD_LEVELS),))


@pytest.mark.filterwarnings("error::UserWarning")  # loadtxt warns on a file without data
@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_csv_texts())
@example(case=(_ONE_NUMBER, b"a\n" + b"0" * 131_073 + b"1.5\n"))  # a cell over the field limit
@example(case=(_ONE_NUMBER, b"a\n"))  # header only
@example(case=(_ONE_NUMBER, b""))
@example(case=(_ONE_NUMBER, b"a\n1.5\xff\n"))  # not UTF-8
@example(case=(_ONE_NUMBER, b"a\n\x1c1.5\n"))  # numpy's parser skips 0x1c, float() refuses it
@example(case=(Schema((ColumnSpec("", "continuous"),)), b"\xef\xbb\xbf\n1.5\n"))  # an empty line has no cell
@example(case=(_ONE_LABEL, b'a\n"red"\n'))  # the csv module reads the label red
@example(case=(_ONE_NUMBER, b"a\n1.5\r\r\n"))  # a bare \r and a blank line, which loadtxt skips
@example(case=(_ONE_NUMBER, b"a\nnan\n"))
@example(case=(Schema((ColumnSpec("a", "continuous"), ColumnSpec("b", "continuous"))), b"a,b\n1.5\n"))
def test_load_csv_matches_its_csv_module_reader(tmp_path, case):
    # the same rows bit for bit, or the same error, whichever reader ran
    schema, text = case
    path = tmp_path / "t.csv"
    path.write_bytes(text)
    got = _rows_or_error(path, schema)
    with pytest.MonkeyPatch.context() as mp:
        _decline_plain(mp)
        assert got == _rows_or_error(path, schema)


def _twelve_rows(tmp_path, faults):
    """A 12-row small_schema file with the given {row: line} replacements."""
    lines = ["age,score,color"] + [faults.get(r, f"{r}.5,{r}.0,green") for r in range(1, 13)]
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def _load_error(load, path):
    with pytest.raises(ValueError) as err:
        load(path, small_schema())
    return str(err.value)


@pytest.mark.parametrize(("faults", "message"), [
    ({10: "1.0,x,red"}, "unparseable value 'x' for column 'score' at row 10"),
    ({9: "1.0,2.0"}, "row 9 has 2 cells, expected 3"),
    ({12: "1.0,2.0,purple"}, "unknown level 'purple' for column 'color' at row 12"),
    ({5: "inf,2.0,red"}, "non-finite value 'inf' for column 'age' at row 5"),
    ({1: "1.0,2.0,red,4"}, "row 1 has 4 cells, expected 3"),
    ({9: "1.0,2.0", 10: "1.0,2.0,red,4"}, "row 9 has 2 cells, expected 3"),  # 6 cells in 2 rows
])
def test_load_csv_errors_in_later_blocks_keep_absolute_rows(tmp_path, monkeypatch, faults, message):
    monkeypatch.setattr(data, "CSV_BLOCK_CELLS", 4 * 3)  # 4-row blocks
    path = _twelve_rows(tmp_path, faults)
    assert _load_error(load_csv, path) == f"{path}: {message}"
    assert _load_error(whole_file_load_csv, path) == f"{path}: {message}"


def test_load_csv_reports_the_earlier_block_first(tmp_path, monkeypatch):
    # the whole-file reader checked every row's length before any cell
    monkeypatch.setattr(data, "CSV_BLOCK_CELLS", 4 * 3)
    path = _twelve_rows(tmp_path, {2: "1.0,x,red", 9: "1.0,2.0"})
    assert _load_error(load_csv, path).endswith("unparseable value 'x' for column 'score' at row 2")
    assert _load_error(whole_file_load_csv, path).endswith("row 9 has 2 cells, expected 3")


# with 4-row blocks the csv-module reader's array grows to 5, 10 and 15
# rows after rows 4, 8 and 12: 5 rows end on the capacity, 13 rows are
# trimmed from 15
@pytest.mark.parametrize("n", [0, 1, 4, 5, 9, 13])
def test_loaded_rows_are_the_one_array_the_table_keeps(tmp_path, monkeypatch, n):
    monkeypatch.setattr(data, "CSV_BLOCK_CELLS", 4 * 3)
    _decline_plain(monkeypatch)
    handed = []

    class Recording(Table):
        def __post_init__(self):
            handed.append(self.rows)
            super().__post_init__()

    monkeypatch.setattr(data, "Table", Recording)
    path = tmp_path / "t.csv"
    path.write_text("age,score,color\n" + "".join(f"{r}.5,{r}.0,green\n" for r in range(n)))
    rows = load_csv(path, small_schema()).rows
    assert rows.shape == (n, 3) and rows.base is None
    assert rows.flags.owndata and rows.flags.c_contiguous and not rows.flags.writeable
    assert rows is handed[0] and (n == 0 or np.shares_memory(rows, handed[0]))  # no bytes to share at 0
    assert rows.tobytes() == np.array([[r + 0.5, r, 1.0] for r in range(n)]).reshape(n, 3).tobytes()


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_memory_does_not_grow_with_the_rows(tmp_path):
    # the whole-file writer peaks at 17.5 and 70 MB, the reader at 151 MB
    path = tmp_path / "toy.csv"
    for n in (100_000, 400_000):
        table = make_toy_table(n, seed=3)
        assert _peak_bytes(save_csv, table, path) < 2**20  # 0.25 MB
    # numpy's reader peaks at 1.23x the 9.6 MB of rows that the Table keeps
    # while its array grows, and load_csv at 1.38x in the Table's
    # whole-table checks
    assert _peak_bytes(load_csv, path, table.schema) < 1.5 * table.rows.nbytes


def test_csv_module_reader_memory_does_not_grow_with_the_rows(tmp_path, monkeypatch):
    # also 1.38x in the Table's checks; before them the reader holds up to
    # a quarter of the rows spare while its array grows, and one block
    table = make_toy_table(400_000, seed=3)
    path = tmp_path / "toy.csv"
    save_csv(table, path)
    _decline_plain(monkeypatch)
    assert _peak_bytes(load_csv, path, table.schema) < 1.5 * table.rows.nbytes


def test_csv_module_reader_loads_under_a_tracer_that_reads_frame_locals(tmp_path, monkeypatch):
    # such a tracer (a debugger, coverage, hypothesis's explain phase) holds
    # references to the reader's growing array, which a reference-counted
    # resize refuses
    table = make_toy_table(50, seed=8)
    path = tmp_path / "toy.csv"
    save_csv(table, path)
    _decline_plain(monkeypatch)

    def tracer(frame, event, arg):
        frame.f_locals
        return tracer

    sys.settrace(tracer)
    try:
        rows = load_csv(path, table.schema).rows
    finally:
        sys.settrace(None)
    assert rows.tobytes() == table.rows.tobytes()


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


def test_standardize_peaks_below_twice_its_table():
    # the numeric columns' copy for the stats and the scaled table; scaling
    # whole columns at once and copying into the Table peaked at 3.4x
    schema = Schema(tuple(ColumnSpec(f"x{j}", "continuous") for j in range(40))
                    + tuple(ColumnSpec(f"d{j}", "discrete", ("p", "q", "r")) for j in range(10)))
    rng = np.random.default_rng(5)
    rows = np.column_stack([rng.normal(size=(10_000, 40)), rng.integers(0, 3, (10_000, 10))])
    table = Table(schema, rows.astype(float))
    assert _peak_bytes(standardize, table) <= 2 * table.rows.nbytes


def test_standardize_needs_rows_and_variance():
    schema = Schema((ColumnSpec("x", "continuous"),))
    with pytest.raises(ValueError, match="2 rows"):
        standardize(Table(schema, np.array([[1.0]])))
    with pytest.raises(ValueError, match="'x'.*variance"):
        standardize(Table(schema, np.array([[2.0], [2.0], [2.0]])))


@pytest.mark.parametrize("huge", [1.5e308, 1e200], ids=["mean", "stddev"])
def test_standardize_names_a_column_whose_statistics_overflow(huge):
    # every cell is finite, but x's sum (at 1.5e308) or its sum of squares
    # (at 1e200) overflows to a NaN or inf scaling, with numpy's warning
    schema = Schema((ColumnSpec("w", "continuous"), ColumnSpec("x", "continuous")))
    rows = np.column_stack([np.arange(50.0), np.tile([huge, -huge], 25)])
    with pytest.raises(ValueError, match=r"^column 'x': mean or stddev overflows float64, cannot standardize$"):
        standardize(Table(schema, rows))


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


@pytest.mark.parametrize("mean, stddev", [(math.inf, 1.0), (math.nan, 1.0), (0.0, math.inf), (0.0, math.nan)])
def test_scaling_stats_reject_non_finite_stats_by_column(mean, stddev):
    # apply_scaling used to take them and fail with a message naming no column
    with pytest.raises(ValueError, match=r"^non-finite mean or stddev for column 'y'$"):
        ScalingStats(names=("x", "y"), mean=np.array([0.0, mean]), stddev=np.array([1.0, stddev]))


def test_apply_scaling_overflow_names_the_column():
    schema = Schema((ColumnSpec("x", "continuous"), ColumnSpec("y", "continuous")))
    stats = ScalingStats(names=("x", "y"), mean=np.zeros(2), stddev=np.array([1.0, 1e-300]))
    with np.errstate(over="ignore"), pytest.raises(
        ValueError, match=r"^column 'y': table cells must be finite, got inf in row 1$"
    ):
        apply_scaling(Table(schema, np.array([[1.0, 1e-10], [2.0, 1e10]])), stats)


def test_one_hot_layout():
    schema = small_schema()
    rows = np.array([[1.5, 4.0, 2.0], [-2.0, 1.0, 0.0]])
    encoded = one_hot_matrix(schema, rows)
    assert encoded.shape == (2, 5)
    assert np.array_equal(encoded[0], [1.5, 4.0, 0.0, 0.0, 1.0])
    assert np.array_equal(encoded[1], [-2.0, 1.0, 1.0, 0.0, 0.0])
    # the numeric columns first, then each discrete column's block at its level_starts entry
    rows = np.array([[1.0, 0.5, 3.0, 7.0], [0.0, -1.5, 0.0, 2.0]])
    encoded = one_hot_matrix(interleaved_schema(), rows)
    assert encoded.tolist() == [[0.5, 7.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], [-1.5, 2.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0]]


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


@pytest.mark.parametrize("seed, message", [
    (1.5, "seed must be an integer, got 1.5"),
    (True, "seed must be an integer, got True"),
    (-1, "seed must be non-negative, got -1"),
])
def test_split_refuses_a_bad_seed_by_name(seed, message):
    table = Table(Schema((ColumnSpec("x", "continuous"),)), np.arange(10.0)[:, None])
    with pytest.raises(ValueError, match=f"^{message}$"):
        train_test_split(table, 0.5, seed=seed)
    same = [train_test_split(table, 0.5, seed)[0].rows.tobytes() for seed in (np.int64(3), 3)]
    assert same[0] == same[1]


def test_drop_percentile_outliers():
    schema = Schema((ColumnSpec("x", "continuous"), ColumnSpec("c", "discrete", ("u", "v"))))
    x = np.concatenate([[-1000.0], np.linspace(0, 1, 198), [1000.0]])
    rows = np.column_stack([x, np.zeros(200)])
    kept = drop_percentile_outliers(Table(schema, rows))
    assert kept.n_rows < 200
    assert np.all(np.abs(kept.rows[:, 0]) <= 1.0)
    # interior rows survive
    assert kept.n_rows >= 194
