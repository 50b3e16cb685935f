"""Run eight CLI commands, print the sha256 of each output, and compare them
with the digests committed in tests/data/cli_digests.json. Exits 1, naming
every output whose digest differs, unless all eight match byte for byte.
pytest does not collect this script; tests/test_cli_digests.py runs it
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

The inputs are the first 600 rows of the acceptance toy_train split and the
first 300 rows of toy_test (tests/conftest.py), written with save_csv. The
commands run in a fresh directory (DIR with --keep, a temporary one
otherwise) against the src/ tree next to this file, so the relative paths
in train's stdout are the same on every machine, and with BLAS and OpenMP
pinned to one thread.
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
from tabsynth import Table, save_csv, train_test_split  # noqa: E402

# the shared libraries a numpy wheel ships, OpenBLAS among them
NUMPY_LIBS = Path(np.__file__).resolve().parent.parent / "numpy.libs"

EVAL = ["evaluate", "--real-train", "train.csv", "--real-test", "test.csv", "--synth", "synth.csv",
        "--schema", "schema.json", "--target-cls", "c"]
# (output name, CLI arguments, file whose bytes are hashed; None hashes stdout)
COMMANDS = [
    ("train stdout", ["train", "--data", "train.csv", "--schema", "schema.json", "--seed", "99",
                      "--epochs", "12", "--out", "model.json"], None),
    ("model", None, "model.json"),
    ("synth", ["generate", "--model", "model.json", "--n", "200", "--seed", "5", "--out", "synth.csv"],
     "synth.csv"),
    ("cdf a", ["cdf", "--model", "model.json", "--column", "a", "--out", "cdf_a.csv"], "cdf_a.csv"),
    ("cdf b", ["cdf", "--model", "model.json", "--column", "b", "--mc", "300", "--out", "cdf_b.csv"],
     "cdf_b.csv"),
    ("report", EVAL + ["--target-reg", "b", "--out", "report.json"], "report.json"),
    ("report known/secret", EVAL + ["--target-reg", "a", "--known-columns", "a", "--secret-columns", "c",
                                    "--out", "report_known.json"], "report_known.json"),
    ("report with MIA", EVAL + ["--target-reg", "b", "--with-mia", "--model", "model.json", "--seed", "3",
                                "--out", "report_mia.json"], "report_mia.json"),
]


def write_inputs(root: Path) -> None:
    toy_train, toy_test = train_test_split(make_toy_table(6250, seed=42), 0.2, seed=7)
    schema = toy_train.schema
    doc = {"columns": [{"name": c.name, "kind": c.kind, **({"levels": list(c.levels)} if c.levels else {})}
                       for c in schema.columns]}
    (root / "schema.json").write_text(json.dumps(doc), encoding="utf-8")
    save_csv(Table(schema, toy_train.rows[:600]), root / "train.csv")
    save_csv(Table(schema, toy_test.rows[:300]), root / "test.csv")


def digests(root: Path) -> list:
    write_inputs(root)
    # OpenBLAS splits a large product over its threads, which rounds
    # differently, so the trained bytes depend on the thread count
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    out = []
    for name, args, target in COMMANDS:
        stdout = b""
        if args is not None:
            result = subprocess.run([sys.executable, "-m", "tabsynth.cli", *args], cwd=root, env=env,
                                    capture_output=True, check=False)
            if result.returncode != 0:
                raise SystemExit(f"{name}: exit {result.returncode}: {result.stderr.decode()}")
            stdout = result.stdout
        data = stdout if target is None else (root / target).read_bytes()
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
