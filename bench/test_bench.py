"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

The run tests start bench/run.py with the BENCHMARK.json command line and --seconds 0, so
each does the minimum number of iterations (about two minutes in all).
"""

import hashlib
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# per-layer metrics that must be non-zero on each workload: the layers it runs
LAYERS_RUN = {
    "fit-wide": ["data.one_hot_matrix_s", "nn.", "spline.crps", "spline.chain", "spline.spline_inverse",
                 "spline.slopes_to_b", "model."],
    "sample-io": ["data.save_csv_s", "data.load_csv_s", "nn.mlp_forward_s", "spline.spline_inverse",
                  "spline.slopes_to_b", "synthesis.", "checkpoint.", "serialize."],
    "evaluate-toy": ["data.one_hot_matrix_s", "data.standardize_s", "data.apply_scaling_s", "nn.",
                     "spline.", "model.", "synthesis.generate", "metrics.", "checkpoint.save",
                     "checkpoint.bytes", "serialize."],
}
EXACT_COUNTS = {
    "sample-io": {"synthesis.cdf_inverse_calls": 201.0},
    "evaluate-toy": {"metrics.attribute_disclosure_calls": 3.0, "nn.adam_step_calls": 2000.0},
}


def _load_conftest():
    spec = importlib.util.spec_from_file_location("toy_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(cwd, workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_toy_generator_matches_conftest_byte_for_byte():
    conftest = _load_conftest()
    ours = inputs.make_toy_table(6250, 42)
    theirs = conftest.make_toy_table(6250, 42)
    assert ours.schema == theirs.schema
    assert ours.rows.tobytes() == theirs.rows.tobytes()
    assert hashlib.sha256(ours.rows.tobytes()).hexdigest() == inputs.TOY_ACCEPTANCE_SHA256


def test_wide_table_depends_only_on_seed():
    a, b, c = inputs.make_wide_table(5), inputs.make_wide_table(5), inputs.make_wide_table(6)
    assert a.rows.tobytes() == b.rows.tobytes()
    assert a.rows.shape == c.rows.shape == (inputs.WIDE_ROWS, 50)
    assert a.rows.tobytes() != c.rows.tobytes()
    assert [a.schema.columns[40 + j].n_levels for j in range(10)] == list(inputs.WIDE_LEVELS)


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    # one elbo_grads span (100 ns) with two children covering 30 ns and 20 ns
    tracer.spans = [
        ("it0", 2, 1, "spline.crps_loss_batch", 10, 40),
        ("it0", 3, 1, "nn.mlp_backward", 50, 70),
        ("it0", 1, 0, "model.elbo_grads", 0, 100),
    ]
    out = layer_metrics(tracer, ["it0"], [])
    assert out["model.elbo_grads_s"] == pytest.approx(100e-9)
    assert out["model.elbo_grads_self_s"] == pytest.approx(50e-9)
    assert out["spline.crps_loss_batch_calls"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_iteration_emits_every_per_layer_metric(workload):
    proc = _run(ROOT, workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for name, m in metrics.items():
        if any(name.startswith(prefix) for prefix in LAYERS_RUN[workload]):
            assert m["value"] > 0, name
    assert metrics["trace.overhead_ratio"]["value"] > 0
    for name, count in EXACT_COUNTS.get(workload, {}).items():
        assert metrics[name]["value"] == count


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics_with_no_errors(workload):
    proc = _run(ROOT, workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    record = json.loads((ROOT / ".bench_out" / f"{workload}-seed3-trace0.json").read_text())
    assert record["end_to_end"]["error_rate"]["median"] == 0.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
