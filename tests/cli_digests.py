"""Run the CLI on two tables, print the sha256 of each output, and compare
them with the digests committed in tests/data/cli_digests.json. Exits 1,
naming every output whose digest differs, unless all of them match byte for
byte. pytest does not collect this script; tests/test_cli_digests.py runs it
in the suite.

    python tests/cli_digests.py [--keep DIR] [--record]

--record writes the digests of this run to tests/data/cli_digests.json and
prints old -> new for each one that moved, for a change whose outputs are
meant to move; the test still checks the committed file.

The digests hold on one platform: numpy's exp, log, log1p and expm1 loops
and OpenBLAS's kernels round differently on other CPUs. A mismatch is
reported with numpy's version, the SIMD targets its loops dispatch to here
and the OpenBLAS kernel in use (platform()), so that a platform difference
can be told from a code change.

The toy set's inputs are the first 600 rows of the acceptance toy_train
split and the first 300 rows of toy_test (tests/conftest.py). The wide set's
are bench/inputs.py's make_wide_table(1, n=2500), split 0.2 at seed 7, with
x00 declared ordinal: 40 numeric columns, discrete columns of up to 20
levels, a generated table of two pages, --clip-percentiles and
--ordinal-rounding decimal, and products wide enough for OpenBLAS to split
over threads. Both are written with save_csv. The commands run in a fresh
directory (DIR with --keep, a temporary one otherwise; the wide set in its
wide/ subdirectory) against the src/ tree next to this file, so the relative
paths in train's stdout are the same on every machine. They run in the
caller's environment: each tabsynth command pins OpenBLAS to one thread
itself, and the wide set checks that pin on a host of two or more cores.
"""

import argparse
import ctypes
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXPECTED = HERE / "data" / "cli_digests.json"
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np  # noqa: E402

from conftest import make_toy_table  # noqa: E402
from helpers import load_bench_inputs  # noqa: E402
from tabsynth import ColumnSpec, Schema, Table, save_csv, train_test_split  # noqa: E402

# the shared libraries a numpy wheel ships, OpenBLAS among them
NUMPY_LIBS = Path(np.__file__).resolve().parent.parent / "numpy.libs"

EVAL = ["evaluate", "--real-train", "train.csv", "--real-test", "test.csv", "--synth", "synth.csv",
        "--schema", "schema.json"]
TOY_EVAL = EVAL + ["--target-cls", "c"]
WIDE_EVAL = EVAL + ["--target-reg", "x01", "--target-cls", "d9"]
# (output name, CLI arguments, file whose bytes are hashed; None hashes stdout)
TOY_COMMANDS = [
    ("train stdout", ["train", "--data", "train.csv", "--schema", "schema.json", "--seed", "99",
                      "--epochs", "12", "--out", "model.json"], None),
    ("model", None, "model.json"),
    ("synth", ["generate", "--model", "model.json", "--n", "200", "--seed", "5", "--out", "synth.csv"],
     "synth.csv"),
    ("cdf a", ["cdf", "--model", "model.json", "--column", "a", "--out", "cdf_a.csv"], "cdf_a.csv"),
    ("cdf b", ["cdf", "--model", "model.json", "--column", "b", "--mc", "300", "--out", "cdf_b.csv"],
     "cdf_b.csv"),
    ("report", TOY_EVAL + ["--target-reg", "b", "--out", "report.json"], "report.json"),
    ("report known/secret", TOY_EVAL + ["--target-reg", "a", "--known-columns", "a", "--secret-columns", "c",
                                        "--out", "report_known.json"], "report_known.json"),
    ("report with MIA", TOY_EVAL + ["--target-reg", "b", "--with-mia", "--model", "model.json", "--seed", "3",
                                    "--out", "report_mia.json"], "report_mia.json"),
]
WIDE_COMMANDS = [
    ("wide train stdout", ["train", "--data", "train.csv", "--schema", "schema.json", "--seed", "99",
                           "--epochs", "2", "--clip-percentiles", "--out", "model.json"], None),
    ("wide model", None, "model.json"),
    ("wide synth", ["generate", "--model", "model.json", "--n", "1100", "--seed", "5",
                    "--ordinal-rounding", "decimal", "--out", "synth.csv"], "synth.csv"),
    ("wide cdf x02", ["cdf", "--model", "model.json", "--column", "x02", "--mc", "300", "--out", "cdf.csv"],
     "cdf.csv"),
    ("wide report", WIDE_EVAL + ["--out", "report.json"], "report.json"),
    ("wide report with MIA", WIDE_EVAL + ["--with-mia", "--model", "model.json", "--seed", "3",
                                          "--out", "report_mia.json"], "report_mia.json"),
]


def toy_tables():
    toy_train, toy_test = train_test_split(make_toy_table(6250, seed=42), 0.2, seed=7)
    return Table(toy_train.schema, toy_train.rows[:600]), Table(toy_test.schema, toy_test.rows[:300])


def wide_tables():
    table = load_bench_inputs().make_wide_table(1, n=2500)
    schema = Schema((ColumnSpec("x00", "ordinal"),) + table.schema.columns[1:])
    return train_test_split(Table(schema, table.rows), 0.2, seed=7)


# (subdirectory, builder of the train and test tables, commands)
SETS = [(".", toy_tables, TOY_COMMANDS), ("wide", wide_tables, WIDE_COMMANDS)]


def write_inputs(root: Path, train: Table, test: Table) -> None:
    doc = {"columns": [{"name": c.name, "kind": c.kind, **({"levels": list(c.levels)} if c.levels else {})}
                       for c in train.schema.columns]}
    (root / "schema.json").write_text(json.dumps(doc), encoding="utf-8")
    save_csv(train, root / "train.csv")
    save_csv(test, root / "test.csv")


def digests(root: Path) -> list:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for subdirectory, tables, commands in SETS:
        cwd = root / subdirectory
        cwd.mkdir(exist_ok=True)
        write_inputs(cwd, *tables())
        for name, args, target in commands:
            stdout = b""
            if args is not None:
                result = subprocess.run([sys.executable, "-m", "tabsynth.cli", *args], cwd=cwd, env=env,
                                        capture_output=True, check=False)
                if result.returncode != 0:
                    raise SystemExit(f"{name}: exit {result.returncode}: {result.stderr.decode()}")
                stdout = result.stdout
            data = stdout if target is None else (cwd / target).read_bytes()
            out.append((name, hashlib.sha256(data).hexdigest()))
    return out


def openblas_corename() -> str:
    """The kernel OpenBLAS picked for this CPU, such as SkylakeX, read from
    the library under NUMPY_LIBS; "unknown" where there is none."""
    for path in sorted(NUMPY_LIBS.glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def platform() -> str:
    """numpy's version, the SIMD targets its loops dispatch to on this CPU
    and the OpenBLAS kernel, the three things the digests depend on besides
    the code."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    targets = [t for t in umath.__cpu_baseline__ + umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return f"numpy {np.__version__}, SIMD {' '.join(targets) or 'none'}, OpenBLAS {openblas_corename()}"


def mismatch(rows, expected: dict) -> str:
    """An empty string if the digests match expected, else a message naming
    each output that differs or that only one side has, and the platform."""
    got = dict(rows)
    changed = [name for name in {**expected, **got} if got.get(name) != expected.get(name)]
    if not changed:
        return ""
    return f"digests differ from {EXPECTED.name}: {', '.join(changed)} (on {platform()})"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", type=Path, help="run in this (new or empty) directory and keep it")
    parser.add_argument("--record", action="store_true",
                        help=f"write the digests to {EXPECTED.name} and print each one that moved")
    args = parser.parse_args()
    if args.keep:
        args.keep.mkdir(parents=True, exist_ok=True)
        rows = digests(args.keep)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            rows = digests(Path(tmp))
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    changed = [name for name, digest in rows if expected.get(name) != digest]
    if args.record:
        EXPECTED.write_text(json.dumps(dict(rows), indent=2) + "\n", encoding="utf-8")
        for name, digest in rows:
            if name in changed:
                print(f"{name:<20} {expected.get(name)} -> {digest}")
        print(f"recorded {len(rows)} digests in {EXPECTED.name}, {len(changed)} moved")
        return
    for name, digest in rows:
        print(f"{name:<20} {digest}{'  CHANGED' if name in changed else ''}")
    if changed:
        raise SystemExit(mismatch(rows, expected))


if __name__ == "__main__":
    main()
