"""Tabular containers: column schemas, typed tables, scaling and encoding.

A table holds every cell as float64. Continuous and ordinal cells carry the
raw value, discrete cells carry the integer index of the level in the
column's label list. Standardization applies to continuous and ordinal
columns only; ordinal columns are treated as continuous everywhere except
for the final rounding step after generation.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice

import numpy as np

KIND_CONTINUOUS = "continuous"
KIND_ORDINAL = "ordinal"
KIND_DISCRETE = "discrete"
_KINDS = (KIND_CONTINUOUS, KIND_ORDINAL, KIND_DISCRETE)


@dataclass(frozen=True)
class ColumnSpec:
    """One column: a name, a kind, and for discrete columns the level labels."""

    name: str
    kind: str
    levels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == KIND_DISCRETE:
            if self.levels is None or len(self.levels) < 2:
                raise ValueError(
                    f"column {self.name!r}: discrete columns need at least 2 levels"
                )
            if len(set(self.levels)) != len(self.levels):
                raise ValueError(f"column {self.name!r}: duplicate level labels")
        elif self.levels is not None:
            raise ValueError(f"column {self.name!r}: only discrete columns take levels")

    @property
    def n_levels(self) -> int:
        return 0 if self.levels is None else len(self.levels)


@dataclass(frozen=True)
class Schema:
    """Ordered column specs with index helpers used throughout the engine."""

    columns: tuple[ColumnSpec, ...]

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError("duplicate column names in schema")
        if not self.columns:
            raise ValueError("schema has no columns")

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    # computed once per schema, since a training step reads them many times;
    # every caller shares one list and must not mutate it
    @cached_property
    def numeric_indices(self) -> list[int]:
        """Positions of continuous and ordinal columns, in schema order."""
        return [i for i, c in enumerate(self.columns) if c.kind != KIND_DISCRETE]

    @cached_property
    def discrete_indices(self) -> list[int]:
        return [i for i, c in enumerate(self.columns) if c.kind == KIND_DISCRETE]

    @cached_property
    def encoded_width(self) -> int:
        """Width of a one-hot encoded row: numeric columns + level indicators."""
        return len(self.numeric_indices) + sum(
            self.columns[i].n_levels for i in self.discrete_indices
        )

    def index(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise KeyError(f"no column named {name!r}")


def require_str(value, where, path) -> str:
    """value, if it is a string; an error naming where and path otherwise."""
    if not isinstance(value, str):
        raise ValueError(f"{where}: {path} must be a string")
    return value


def schema_from_doc(doc, where) -> Schema:
    """Build a schema from its JSON form {"columns": [{"name", "kind", "levels"}...]}.

    Errors start with `where`, the file or document section being read.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("columns"), list):
        raise ValueError(f"{where}: schema must contain a 'columns' list")
    specs = []
    for i, entry in enumerate(doc["columns"]):
        if not isinstance(entry, dict) or "name" not in entry or "kind" not in entry:
            raise ValueError(f"{where}: columns[{i}] needs 'name' and 'kind'")
        levels = entry.get("levels")
        if levels is not None and not isinstance(levels, list):
            raise ValueError(f"{where}: columns[{i}].levels must be a list of labels")
        name, kind = (require_str(entry[key], where, f"columns[{i}].{key}") for key in ("name", "kind"))
        if levels is not None:
            levels = tuple(require_str(v, where, f"columns[{i}].levels[{j}]") for j, v in enumerate(levels))
        specs.append((name, kind, levels))
    try:
        return Schema(columns=tuple(ColumnSpec(*spec) for spec in specs))
    except ValueError as err:  # a column's kind or levels, or the column names
        raise ValueError(f"{where}: {err}") from None


def not_utf8(path, err: UnicodeDecodeError) -> ValueError:
    """The error a loader raises for a file that is not UTF-8 text. The
    decoder's position counts from the start of a read chunk, not of the
    file, so it is left out."""
    return ValueError(
        f"{path}: not UTF-8 text, cannot decode byte 0x{err.object[err.start]:02x} ({err.reason})"
    )


def load_schema(path) -> Schema:
    """Read a schema file; see schema_from_doc for the layout."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return schema_from_doc(json.load(fh), path)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: schema is not valid JSON ({err})") from None
        except UnicodeDecodeError as err:
            raise not_utf8(path, err) from None


@dataclass(frozen=True)
class ScalingStats:
    """Per-column mean and sample stddev for the numeric (non-discrete) columns."""

    names: tuple[str, ...]
    mean: np.ndarray
    stddev: np.ndarray

    def __post_init__(self):
        if len(self.names) != self.mean.shape[0] or len(self.names) != self.stddev.shape[0]:
            raise ValueError("scaling stats arrays must match the column name list")
        if np.any(self.stddev <= 0):
            bad = self.names[int(np.argmax(self.stddev <= 0))]
            raise ValueError(f"non-positive stddev for column {bad!r}")


@dataclass(frozen=True, eq=False)
class Table:
    """Immutable n x c float64 matrix plus its schema and optional scaling.

    Rows are copied unless they are a C-ordered float64 array that owns its
    memory and is read-only, as a table's own rows are. Tables thus share
    rows, and a caller hands a fresh array over by making it read-only.
    """

    schema: Schema
    rows: np.ndarray
    scaling: ScalingStats | None = None

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != len(self.schema.columns):
            raise ValueError(
                f"rows must be 2-D with {len(self.schema.columns)} columns, "
                f"got shape {rows.shape}"
            )
        if not np.all(np.isfinite(rows)):
            raise ValueError("table cells must be finite (missing values not supported)")
        for j in self.schema.discrete_indices:
            col = rows[:, j]
            spec = self.schema.columns[j]
            if col.size and (np.any(col != np.round(col)) or np.any(col < 0) or np.any(col >= spec.n_levels)):
                raise ValueError(
                    f"column {spec.name!r}: discrete cells must be integer level "
                    f"indices in [0, {spec.n_levels})"
                )
        if not (rows.flags.owndata and rows.flags.c_contiguous and not rows.flags.writeable):
            rows = rows.copy()
            rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]


def _first_rejected(parse, cells) -> int:
    """1-based position of the first cell that parse rejects; some cell must be."""
    for r, cell in enumerate(cells, start=1):
        try:
            parse(cell)
        except (KeyError, ValueError):
            return r


# cells of CSV text that load_csv parses and save_csv formats at a time. A
# cell becomes a str, a list slot and a float object, about 100 bytes, so
# this is sized for Python objects, not for nn.BLOCK_ENTRIES' 8-byte entries
CSV_BLOCK_CELLS = 2**12

# bytes of a file that load_csv scans at a time before numpy's reader parses
# it; no longer line is passed to that reader
CSV_SCAN_BYTES = 2**20

# bytes with which numpy's reader could part from the csv module: a quote
# lets a record span lines and a field hold commas; the csv module refuses
# NUL before Python 3.11; numpy's float parser skips 0x1c-0x1f as white
# space around a number, where float() refuses them
_NOT_PLAIN = (b'"', b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def load_csv(path, schema: Schema) -> Table:
    """Load a CSV whose header matches the schema exactly, in order.

    Discrete cells must be level labels. Any unparseable, missing, or
    unknown cell raises with the 1-based data row and the column name. A
    UTF-8 byte-order mark before the header is skipped. A plain file, one
    record on each line and no quote byte, is parsed by numpy's C reader
    (np.loadtxt), whose rows are returned only where the csv module's
    reader could not give other rows or an error. Every other file, and
    every fault, goes through that csv-module reader from the start, so
    each table and each message is the same whichever reader ran.
    """
    rows = _plain_csv_rows(path, schema)
    if rows is None:
        rows = _csv_module_rows(path, schema)
    rows.flags.writeable = False
    return Table(schema=schema, rows=rows)


def _plain_csv_rows(path, schema: Schema) -> np.ndarray | None:
    """A plain file's rows as np.loadtxt parses them, or None wherever they
    could differ from _csv_module_rows' rows or error: a file that is not
    plain or has no data row, a header other than the schema's names, a
    cell that loadtxt rejects, and a non-finite cell, which the csv-module
    reader names."""
    lines = _plain_line_count(path)
    if lines is None or lines < 2:  # loadtxt warns on a file without data
        return None
    converters = {
        j: {label: k for k, label in enumerate(spec.levels)}.__getitem__
        for j, spec in enumerate(schema.columns)
        if spec.kind == KIND_DISCRETE
    }
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            header = fh.readline().removesuffix("\n")
            if not header or header.split(",") != schema.names:
                return None
            rows = np.loadtxt(fh, delimiter=",", comments=None, converters=converters, ndmin=2)
    except ValueError:  # converter faults and UnicodeDecodeError among them
        return None
    if rows.shape != (lines - 1, len(schema.columns)) or not np.isfinite(rows).all():
        return None
    return rows


def _plain_line_count(path) -> int | None:
    """The number of lines in a plain CSV file, whose every line is one
    record that the csv module and np.loadtxt split alike; None for any
    other file: one that holds a _NOT_PLAIN byte, a carriage return outside
    a \\r\\n line end, a blank line, or a line longer than the csv module's
    field limit or CSV_SCAN_BYTES."""
    limit = min(csv.field_size_limit(), CSV_SCAN_BYTES)
    lines = 0
    with open(path, "rb") as fh:
        # each chunk ends at a line end, at the end of the file, or inside a
        # line over the limit, so no line and no \r\n spans two chunks
        while chunk := fh.read(CSV_SCAN_BYTES) + fh.readline(limit + 1):
            # a chunk starts a line, so a leading \n ends a blank line
            if chunk.startswith(b"\n") or any(map(chunk.__contains__, _NOT_PLAIN)):
                return None
            text = np.frombuffer(chunk, np.uint8)
            ends = np.flatnonzero(text == ord("\n"))  # so ends[0] > 0
            crlf = text[ends - 1] == ord("\r")
            if np.count_nonzero(text == ord("\r")) != np.count_nonzero(crlf):
                return None
            length = np.diff(ends, prepend=-1) - 1 - crlf  # without the line end
            tail = len(chunk) - 1 - (ends[-1] if ends.size else -1)  # a last line without one
            if length.min(initial=1) < 1 or max(length.max(initial=0), tail) > limit:
                return None
            lines += ends.size + (tail > 0)
    return lines


def _csv_module_rows(path, schema: Schema) -> np.ndarray:
    """Any CSV file's rows, read by the csv module. Records are parsed
    CSV_BLOCK_CELLS cells at a time into one float array, which grows in
    place and becomes the table's rows, so the floats are held once; faults
    are reported block by block, the earliest block first."""
    parsers = []
    for spec in schema.columns:
        if spec.kind == KIND_DISCRETE:
            level_of = {label: k for k, label in enumerate(spec.levels)}
            parsers.append((level_of.__getitem__, "unknown level"))
        else:
            parsers.append((float, "unparseable value"))
    width = len(parsers)
    rows = np.empty((0, width))
    n = 0
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError(f"{path}: empty file") from None
            if header != schema.names:
                raise ValueError(
                    f"{path}: header {header!r} does not match schema columns {schema.names!r}"
                )
            step = max(1, CSV_BLOCK_CELLS // width)
            while records := list(islice(reader, step)):
                stop = n + len(records)
                if stop > rows.shape[0]:
                    # realloc, with a quarter to spare. No view of rows
                    # outlives a statement here: each block is parsed into an
                    # array of its own and copied in. So nothing can dangle,
                    # and resize's reference count check is off, as it would
                    # also count the references that a tracer reading frame
                    # locals (a debugger, coverage, hypothesis's explain
                    # phase) holds to rows itself, and refuse
                    rows.resize((stop + stop // 4, width), refcheck=False)
                rows[n:stop] = _parse_block(path, schema, parsers, records, n)
                n = stop
    except UnicodeDecodeError as err:
        raise not_utf8(path, err) from None
    except csv.Error as err:
        raise ValueError(f"{path}: {err} at line {reader.line_num}") from None
    rows.resize((n, width), refcheck=False)
    return rows


def _parse_block(path, schema: Schema, parsers, records, done: int) -> np.ndarray:
    """Parse records into a new array, one row each; errors count rows from
    done + 1."""
    width = len(parsers)
    if set(map(len, records)) != {width}:
        r = next(r for r, record in enumerate(records, start=1) if len(record) != width)
        raise ValueError(
            f"{path}: row {done + r} has {len(records[r - 1])} cells, expected {width}"
        )
    out = np.empty((len(records), width))
    cells = list(chain.from_iterable(records))
    for j, (spec, (parse, problem)) in enumerate(zip(schema.columns, parsers)):
        column = cells[j::width]
        try:
            out[:, j] = list(map(parse, column))
        except (KeyError, ValueError):
            r = _first_rejected(parse, column)
            raise ValueError(
                f"{path}: {problem} {column[r - 1]!r} for column {spec.name!r} at row {done + r}"
            ) from None
        finite = np.isfinite(out[:, j])
        if not finite.all():
            r = int(np.argmin(finite)) + 1
            raise ValueError(
                f"{path}: non-finite value {column[r - 1]!r} for column {spec.name!r} "
                f"at row {done + r}"
            )
    return out


def _csv_forms(labels, width: int) -> list[str]:
    """Each label as the csv module writes it in a row of `width` fields.

    A field's quoting depends on its own text, except that a row of one
    empty field is written quoted. So each label is written as a whole row
    whose other fields are empty, and the padding is cut off again.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    padding = [""] * (width - 1)
    forms = []
    for label in labels:
        buf.seek(0)
        buf.truncate()
        writer.writerow([label, *padding])
        forms.append(buf.getvalue()[: -(width + 1)])  # width - 1 commas and "\r\n"
    return forms


def save_csv(table: Table, path) -> None:
    """Write a table back to CSV, discrete cells as their level labels and
    numeric cells as repr(float), which reads back to the same bits.

    The bytes are those of csv.writer, but rows are formatted and written
    CSV_BLOCK_CELLS cells at a time, so no list grows with the table.
    """
    schema = table.schema
    width = len(schema.columns)
    forms = [
        _csv_forms(spec.levels, width) if spec.kind == KIND_DISCRETE else None
        for spec in schema.columns
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(schema.names)
        step = max(1, CSV_BLOCK_CELLS // width)
        for start in range(0, table.n_rows, step):
            fh.write(_csv_lines(table.rows[start : start + step], forms))
            fh.write("\r\n")


def _csv_lines(rows: np.ndarray, forms) -> str:
    """Rows as CSV lines joined by line ends, a column's cells through its
    label forms or, with none, as repr(float), which never needs quotes."""
    columns = [
        map(repr, col.tolist()) if form is None
        else map(form.__getitem__, col.astype(np.intp).tolist())
        for form, col in zip(forms, rows.T)
    ]
    return "\r\n".join(map(",".join, zip(*columns)))


def standardize(table: Table) -> Table:
    """Center and scale numeric columns by their mean and sample stddev (ddof=1).

    Requires at least 2 rows. A zero-variance column is an error because the
    scale would be undefined; a constant one is found on its values, before a
    mean whose rounding would give a column of 0.3 a stddev of 5.6e-17.
    """
    if table.n_rows < 2:
        raise ValueError("standardize needs at least 2 rows")
    idx = table.schema.numeric_indices
    names = tuple(table.schema.columns[i].name for i in idx)
    sub = table.rows[:, idx]
    zero = np.flatnonzero(np.ptp(sub, axis=0) == 0)
    if zero.size == 0:  # a spread that squares to 0 (values 1e-200 apart) too
        mean = sub.mean(axis=0)
        stddev = sub.std(axis=0, ddof=1)
        zero = np.flatnonzero(stddev <= 0)
    if zero.size:
        raise ValueError(f"column {names[zero[0]]!r} has zero variance, cannot standardize")
    return apply_scaling(table, ScalingStats(names=names, mean=mean, stddev=stddev))


def check_scaling_names(schema: Schema, stats: ScalingStats) -> None:
    """Raise unless the stats cover exactly the schema's numeric columns, in order."""
    names = tuple(schema.columns[i].name for i in schema.numeric_indices)
    if names != stats.names:
        raise ValueError(
            f"scaling stats are for columns {stats.names!r}, schema has {names!r}"
        )


def apply_scaling(table: Table, stats: ScalingStats) -> Table:
    """Standardize a table with existing stats (e.g. scale test data by train stats)."""
    check_scaling_names(table.schema, stats)
    rows = table.rows.copy()
    # one column at a time, in place: no whole-table temporaries
    for j, mean, stddev in zip(table.schema.numeric_indices, stats.mean, stats.stddev):
        rows[:, j] -= mean
        rows[:, j] /= stddev
    rows.flags.writeable = False
    return Table(schema=table.schema, rows=rows, scaling=stats)


def one_hot_matrix(schema: Schema, rows: np.ndarray) -> np.ndarray:
    """Encode rows for the encoder input: numeric columns first (schema order),
    then one-hot indicator blocks for each discrete column."""
    rows = np.asarray(rows, dtype=np.float64)
    n = rows.shape[0]
    out = np.zeros((n, schema.encoded_width))
    pos = len(schema.numeric_indices)
    out[:, :pos] = rows[:, schema.numeric_indices]
    for i in schema.discrete_indices:
        t = schema.columns[i].n_levels
        idx = rows[:, i].astype(np.intp)
        out[np.arange(n), pos + idx] = 1.0
        pos += t
    return out


def train_test_split(table: Table, test_fraction: float, seed: int) -> tuple[Table, Table]:
    """Deterministic shuffled split; test gets round(n * test_fraction) rows."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    n = table.n_rows
    n_test = int(round(n * test_fraction))
    perm = np.random.default_rng(seed).permutation(n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    return (
        Table(schema=table.schema, rows=table.rows[train_idx], scaling=table.scaling),
        Table(schema=table.schema, rows=table.rows[test_idx], scaling=table.scaling),
    )


# quantile range that drop_percentile_outliers keeps in every numeric column
OUTLIER_QUANTILES = (0.01, 0.99)


def drop_percentile_outliers(table: Table) -> Table:
    """Remove rows where any numeric column falls outside its OUTLIER_QUANTILES
    range. Off by default in the training pipeline."""
    if table.n_rows == 0:
        return table
    numeric = table.rows[:, table.schema.numeric_indices]
    lo, hi = np.quantile(numeric, OUTLIER_QUANTILES, axis=0)
    keep = np.all((numeric >= lo) & (numeric <= hi), axis=1)
    return Table(schema=table.schema, rows=table.rows[keep], scaling=table.scaling)
