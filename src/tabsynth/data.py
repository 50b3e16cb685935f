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

from . import nn

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


def schema_from_doc(doc, where) -> Schema:
    """Build a schema from its JSON form {"columns": [{"name", "kind", "levels"}...]}.

    Errors start with `where`, the file or document section being read.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("columns"), list):
        raise ValueError(f"{where}: schema must contain a 'columns' list")
    cols = []
    for i, entry in enumerate(doc["columns"]):
        if not isinstance(entry, dict) or "name" not in entry or "kind" not in entry:
            raise ValueError(f"{where}: columns[{i}] needs 'name' and 'kind'")
        levels = entry.get("levels")
        if levels is not None and not isinstance(levels, list):
            raise ValueError(f"{where}: columns[{i}].levels must be a list of labels")
        cols.append(
            ColumnSpec(
                name=str(entry["name"]),
                kind=str(entry["kind"]),
                levels=None if levels is None else tuple(str(v) for v in levels),
            )
        )
    return Schema(columns=tuple(cols))


def load_schema(path) -> Schema:
    """Read a schema file; see schema_from_doc for the layout."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return schema_from_doc(json.load(fh), path)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: schema is not valid JSON ({err})") from None


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


def load_csv(path, schema: Schema) -> Table:
    """Load a CSV whose header matches the schema exactly, in order.

    Discrete cells must be level labels. Any unparseable, missing, or
    unknown cell raises with the 1-based data row and the column name. A
    UTF-8 byte-order mark before the header is skipped. Records are parsed
    nn.BLOCK_ENTRIES cells at a time, so only the parsed floats grow with
    the file; faults are reported block by block, the earliest block first.
    """
    parsers = []
    for spec in schema.columns:
        if spec.kind == KIND_DISCRETE:
            level_of = {label: k for k, label in enumerate(spec.levels)}
            parsers.append((level_of.__getitem__, "unknown level"))
        else:
            parsers.append((float, "unparseable value"))
    step = max(1, nn.BLOCK_ENTRIES // len(parsers))
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
        blocks = [
            _parse_block(path, schema, parsers, records, k * step)
            for k, records in enumerate(_record_blocks(reader, step))
        ]
    rows = np.concatenate(blocks) if blocks else np.empty((0, len(parsers)))
    rows.flags.writeable = False
    return Table(schema=schema, rows=rows)


def _record_blocks(reader, step: int):
    """Lists of step records from a csv reader, the last one shorter."""
    while records := list(islice(reader, step)):
        yield records


def _parse_block(path, schema: Schema, parsers, records, done: int) -> np.ndarray:
    """Records as a float array; errors count rows from done + 1."""
    width = len(parsers)
    if set(map(len, records)) != {width}:
        r = next(r for r, record in enumerate(records, start=1) if len(record) != width)
        raise ValueError(
            f"{path}: row {done + r} has {len(records[r - 1])} cells, expected {width}"
        )
    cells = list(chain.from_iterable(records))
    block = np.empty((len(records), width))
    for j, (spec, (parse, problem)) in enumerate(zip(schema.columns, parsers)):
        column = cells[j::width]
        try:
            block[:, j] = list(map(parse, column))
        except (KeyError, ValueError):
            r = _first_rejected(parse, column)
            raise ValueError(
                f"{path}: {problem} {column[r - 1]!r} for column {spec.name!r} at row {done + r}"
            ) from None
        finite = np.isfinite(block[:, j])
        if not finite.all():
            r = int(np.argmin(finite)) + 1
            raise ValueError(
                f"{path}: non-finite value {column[r - 1]!r} for column {spec.name!r} "
                f"at row {done + r}"
            )
    return block


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
    nn.BLOCK_ENTRIES cells at a time, so no list grows with the table.
    """
    schema = table.schema
    width = len(schema.columns)
    forms = [
        _csv_forms(spec.levels, width) if spec.kind == KIND_DISCRETE else None
        for spec in schema.columns
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(schema.names)
        for block in nn.row_blocks(table.n_rows, width):
            fh.write(_csv_lines(table.rows[block], forms))
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
    scale would be undefined.
    """
    if table.n_rows < 2:
        raise ValueError("standardize needs at least 2 rows")
    idx = table.schema.numeric_indices
    names = tuple(table.schema.columns[i].name for i in idx)
    sub = table.rows[:, idx]
    mean = sub.mean(axis=0)
    stddev = sub.std(axis=0, ddof=1)
    for k, s in enumerate(stddev):
        if s <= 0:
            raise ValueError(f"column {names[k]!r} has zero variance, cannot standardize")
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
