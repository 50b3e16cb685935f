"""The three benchmark workloads and the checks on their outputs.

Each workload has three steps. `prepare` builds the inputs from the
workload seed and writes any trained fixture to the work directory; `load`
turns those files back into the fixture an iteration needs, without
training; `run` is one iteration, a closed loop of calls into the public
tabsynth API, and returns the time of each call. The benchmark calls every
API function through its module attribute (``checkpoint.load_checkpoint``,
not a name bound at import) so that the tracer's wrappers see the call.
"""

from __future__ import annotations

import hashlib
import math
import os
import time

import numpy as np

from tabsynth import checkpoint, data, metrics, model, synthesis
from tabsynth.checkpoint import checkpoint_to_text
from tabsynth.serialize import json_text

import inputs

FIT_EPOCHS = 2
SAMPLE_TOY_ROWS = 5000
SAMPLE_ROWS = 200_000
ACCEPTANCE_ROWS, ACCEPTANCE_SEED = 6250, 42
ACCEPTANCE_SPLIT, ACCEPTANCE_SPLIT_SEED = 0.2, 7
ACCEPTANCE_TRAIN_SEED = 2024
ACCEPTANCE_SYNTH_ROWS, ACCEPTANCE_SYNTH_SEED = 5000, 123
WARM_ROWS = 256

MODEL_FILE = "model.json"
SYNTH_FILE = "synth.csv"


class Checks:
    """Counts output checks; every failed one counts against error_rate."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, label: str, ok) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)

    def losses(self, cp) -> None:
        self.check("loss trace finite", len(cp.loss_trace) > 0 and all(
            math.isfinite(v) for t in cp.loss_trace for v in (t.crps, t.discrete, t.kl, t.total)
        ))

    def cells(self, table) -> None:
        rows = table.rows
        ok = bool(np.all(np.isfinite(rows)))
        for j in table.schema.discrete_indices:
            col = rows[:, j]
            ok = ok and bool(np.all((col == np.round(col)) & (col >= 0)
                                    & (col < table.schema.columns[j].n_levels)))
        self.check("generated cells finite and in range", ok)

    def cdf(self, curve) -> None:
        v = curve.values
        self.check("cdf non-decreasing in [0, 1]", bool(
            np.all(np.isfinite(v)) and np.all(v >= 0.0) and np.all(v <= 1.0) and np.all(np.diff(v) >= 0.0)
        ))


def sha256_bytes(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return sha256_bytes(fh.read())


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _head(table, n):
    return data.Table(schema=table.schema, rows=table.rows[:n], scaling=table.scaling)


def _save_fixture(cp, workdir, info) -> None:
    path = os.path.join(workdir, MODEL_FILE)
    checkpoint.save_checkpoint(cp, path)
    info["checkpoint_bytes"] = os.path.getsize(path)
    info["digests"]["checkpoint"] = sha256_file(path)


class FitWide:
    """train on the seeded 40 + 10 column table, a few epochs."""

    name = "fit-wide"

    def prepare(self, seed, workdir, checks, info):
        pass  # the table is cheap to rebuild, so load makes it

    def load(self, seed, workdir):
        return {"table": data.standardize(inputs.make_wide_table(seed)),
                "config": model.TrainConfig(seed=seed, epochs=FIT_EPOCHS)}

    def warm_up(self, fx, checks):
        cp = model.train(_head(fx["table"], WARM_ROWS), model.TrainConfig(seed=0, epochs=1))
        checks.losses(cp)

    def run(self, fx, checks, info):
        cp, t_train = _timed(model.train, fx["table"], fx["config"])
        checks.losses(cp)
        info["digests"]["checkpoint"] = sha256_bytes(checkpoint_to_text(cp).encode())
        return {"train_s": t_train}

    def derived(self, fx, t):
        rows = fx["table"].n_rows * fx["config"].epochs
        return {"train_rows_per_s": rows / t["train_s"]}


class SampleIo:
    """The `tabsynth generate` path on the toy model, then CSV read-back and CDFs."""

    name = "sample-io"

    def prepare(self, seed, workdir, checks, info):
        toy = data.standardize(inputs.make_toy_table(SAMPLE_TOY_ROWS, seed))
        cp = model.train(toy, model.TrainConfig(seed=seed))
        checks.losses(cp)
        _save_fixture(cp, workdir, info)
        first = synthesis.generate(cp, SAMPLE_ROWS, seed)
        second = synthesis.generate(cp, SAMPLE_ROWS, seed)
        checks.check("generate repeats byte for byte", first.rows.tobytes() == second.rows.tobytes())

    def load(self, seed, workdir):
        return {"seed": seed, "model": os.path.join(workdir, MODEL_FILE),
                "csv": os.path.join(workdir, SYNTH_FILE)}

    def warm_up(self, fx, checks):
        cp = checkpoint.load_checkpoint(fx["model"])
        table = synthesis.generate(cp, WARM_ROWS, fx["seed"])
        data.save_csv(table, fx["csv"])
        back = data.load_csv(fx["csv"], cp.schema)
        checks.check("csv read-back exact", np.array_equal(back.rows, table.rows))
        checks.cdf(synthesis.estimate_cdf(cp, cp.schema.names[0], n_mc=WARM_ROWS))

    def run(self, fx, checks, info):
        cp, t_ckpt = _timed(checkpoint.load_checkpoint, fx["model"])
        table, t_gen = _timed(synthesis.generate, cp, SAMPLE_ROWS, fx["seed"])
        _, t_save = _timed(data.save_csv, table, fx["csv"])
        back, t_load = _timed(data.load_csv, fx["csv"], cp.schema)
        t0 = time.perf_counter()
        curves = [synthesis.estimate_cdf(cp, cp.schema.columns[j].name)
                  for j in cp.schema.numeric_indices]
        t_cdf = time.perf_counter() - t0

        checks.cells(table)
        checks.check("csv read-back exact", np.array_equal(back.rows, table.rows))
        for curve in curves:
            checks.cdf(curve)
        info["digests"]["synth_csv"] = sha256_file(fx["csv"])
        info["digests"]["cdf_csv"] = sha256_bytes("".join(
            "x,cdf\n" + "".join(f"{float(x)!r},{float(v)!r}\n" for x, v in zip(c.grid, c.values))
            for c in curves
        ).encode())
        return {"load_checkpoint_s": t_ckpt, "generate_s": t_gen, "save_csv_s": t_save,
                "load_csv_s": t_load, "cdf_s": t_cdf}

    def derived(self, fx, t):
        return {
            "generate_rows_per_s": SAMPLE_ROWS / (t["load_checkpoint_s"] + t["generate_s"] + t["save_csv_s"]),
            "load_rows_per_s": SAMPLE_ROWS / t["load_csv_s"],
            "cdf_s": t["cdf_s"],
        }


def _acceptance_split():
    real = inputs.make_toy_table(ACCEPTANCE_ROWS, ACCEPTANCE_SEED)
    return real, data.train_test_split(real, ACCEPTANCE_SPLIT, seed=ACCEPTANCE_SPLIT_SEED)


class EvaluateToy:
    """build_report, then membership_inference, on the acceptance toy."""

    name = "evaluate-toy"

    def prepare(self, seed, workdir, checks, info):
        real, (real_train, _) = _acceptance_split()
        checks.check("toy table matches the acceptance fixture",
                     sha256_bytes(real.rows.tobytes()) == inputs.TOY_ACCEPTANCE_SHA256)
        cp = model.train(data.standardize(real_train), model.TrainConfig(seed=ACCEPTANCE_TRAIN_SEED))
        checks.losses(cp)
        _save_fixture(cp, workdir, info)

    def load(self, seed, workdir):
        _, (real_train, real_test) = _acceptance_split()
        cp = checkpoint.load_checkpoint(os.path.join(workdir, MODEL_FILE))
        synth = synthesis.generate(cp, ACCEPTANCE_SYNTH_ROWS, ACCEPTANCE_SYNTH_SEED)
        return {"seed": seed, "cp": cp, "train": real_train, "test": real_test, "synth": synth}

    def warm_up(self, fx, checks):
        again = synthesis.generate(fx["cp"], ACCEPTANCE_SYNTH_ROWS, ACCEPTANCE_SYNTH_SEED)
        checks.check("generate repeats byte for byte", again.rows.tobytes() == fx["synth"].rows.tobytes())
        checks.cells(fx["synth"])
        small = [_head(fx[k], WARM_ROWS) for k in ("train", "test", "synth")]
        self._check_report(metrics.build_report(*small, "b", "c").to_doc(), checks)
        mia = metrics.membership_inference(fx["cp"], small[0], small[1], "c", seed=fx["seed"])
        checks.check("mia in [0, 1]", 0.0 <= mia.accuracy <= 1.0 and 0.0 <= mia.auc <= 1.0)

    def run(self, fx, checks, info):
        report, t_report = _timed(metrics.build_report, fx["train"], fx["test"], fx["synth"], "b", "c")
        mia, t_mia = _timed(metrics.membership_inference, fx["cp"], fx["train"], fx["test"], "c",
                            seed=fx["seed"])
        doc = report.to_doc()
        doc["mia_accuracy"], doc["mia_auc"] = mia.accuracy, mia.auc
        self._check_report(doc, checks)
        info["digests"]["report_json"] = sha256_bytes(json_text(doc).encode())
        return {"report_s": t_report, "mia_s": t_mia}

    @staticmethod
    def _check_report(doc, checks):
        # every field is a non-negative float; shares and scores are also <= 1
        nested = [v for k in ("vrate", "attr_disclosure_f1") for v in doc[k].values()]
        shares = nested + [doc[k] for k in ("ks_cont", "ks_disc", "f1", "mia_accuracy", "mia_auc") if k in doc]
        values = nested + [v for v in doc.values() if not isinstance(v, dict)]
        checks.check("report fields finite and in range", (
            all(v is not None and math.isfinite(v) and v >= 0.0 for v in values)
            and all(v <= 1.0 for v in shares)
        ))

    def derived(self, fx, t):
        return {"report_s": t["report_s"], "mia_s": t["mia_s"]}


WORKLOADS = {w.name: w for w in (FitWide(), SampleIo(), EvaluateToy())}
