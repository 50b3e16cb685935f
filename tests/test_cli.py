import hashlib
import json
import os
import subprocess
import sys
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

from helpers import load_bench_inputs, overflowed_discrete_logits
from tabsynth import (
    ColumnSpec,
    Schema,
    TrainConfig,
    checkpoint_to_text,
    cli,
    drop_percentile_outliers,
    load_checkpoint,
    load_csv,
    load_schema,
    save_checkpoint,
    save_csv,
    standardize,
)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "tabsynth.cli", *map(str, args)],
        capture_output=True, text=True,
    )


SCHEMA_DOC = {
    "columns": [
        {"name": "x", "kind": "continuous"},
        {"name": "y", "kind": "continuous"},
        {"name": "c", "kind": "discrete", "levels": ["a", "b"]},
    ]
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    schema = root / "schema.json"
    schema.write_text(json.dumps(SCHEMA_DOC), encoding="utf-8")
    rng = np.random.default_rng(41)
    n = 400
    x = rng.normal(size=n)
    rows = np.column_stack([x, 0.5 * x + rng.normal(size=n)])
    labels = np.where(rng.random(n) < 0.5, "a", "b")
    for name, sl in (("train.csv", slice(0, 300)), ("test.csv", slice(300, None))):
        lines = ["x,y,c"]
        for (vx, vy), lab in zip(rows[sl], labels[sl]):
            lines.append(f"{float(vx)!r},{float(vy)!r},{lab}")
        (root / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def trained(workspace):
    out = workspace / "model.json"
    result = run_cli(
        "train", "--data", workspace / "train.csv", "--schema", workspace / "schema.json",
        "--seed", 51, "--out", out, "--epochs", 25,
    )
    assert result.returncode == 0, result.stderr
    return out


def test_train_writes_loadable_checkpoint(workspace, trained):
    cp = load_checkpoint(trained)
    assert cp.config.seed == 51
    assert cp.config.epochs == 25
    assert len(cp.loss_trace) == 25


def test_train_is_deterministic(workspace, trained):
    out2 = workspace / "model2.json"
    result = run_cli(
        "train", "--data", workspace / "train.csv", "--schema", workspace / "schema.json",
        "--seed", 51, "--out", out2, "--epochs", 25,
    )
    assert result.returncode == 0, result.stderr
    assert out2.read_bytes() == trained.read_bytes()


def test_train_records_flags(workspace):
    out = workspace / "beta5.json"
    result = run_cli(
        "train", "--data", workspace / "train.csv", "--schema", workspace / "schema.json",
        "--seed", 51, "--out", out, "--epochs", 2, "--beta", 5, "--knots", 6,
        "--hidden", 16, "--latent-dim", 3, "--batch-size", 64, "--lr", 0.002,
    )
    assert result.returncode == 0, result.stderr
    cp = load_checkpoint(out)
    assert cp.config.beta == 5.0
    assert cp.config.knot_count == 6
    assert cp.config.hidden_width == 16
    assert cp.config.latent_dim == 3
    assert cp.config.batch_size == 64
    assert cp.config.learning_rate == 0.002


def test_train_defaults_come_from_train_config(workspace):
    out = workspace / "defaults.json"
    result = run_cli(
        "train", "--data", workspace / "train.csv", "--schema", workspace / "schema.json",
        "--seed", 52, "--out", out,
    )
    assert result.returncode == 0, result.stderr
    assert load_checkpoint(out).config == TrainConfig(seed=52)


def test_train_missing_required_flag_is_usage_error(workspace):
    result = run_cli("train", "--data", workspace / "train.csv", "--seed", 1, "--out", "x.json")
    assert result.returncode == 2


def test_train_unreadable_data_is_runtime_error(workspace):
    result = run_cli(
        "train", "--data", workspace / "missing.csv", "--schema", workspace / "schema.json",
        "--seed", 1, "--out", workspace / "nope.json",
    )
    assert result.returncode == 1
    assert "error" in result.stderr


@pytest.mark.parametrize("flag, value, field", [
    ("--lr", "nan", "learning_rate"),
    ("--lr", "inf", "learning_rate"),
    ("--beta", "inf", "beta"),
    ("--beta", "nan", "beta"),
    ("--seed", "-1", "seed"),
])
def test_train_rejects_non_finite_or_negative_flag_naming_the_field(workspace, flag, value, field):
    out = workspace / "never.json"
    args = {"--seed": "1", "--lr": "0.001", "--beta": "0.5", flag: value}
    result = run_cli(
        "train", "--data", workspace / "train.csv", "--schema", workspace / "schema.json",
        "--out", out, "--epochs", 1, *[x for pair in args.items() for x in pair],
    )
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: {field} must be"), result.stderr
    assert not out.exists()


def test_train_invalid_schema_json_names_the_file(workspace):
    bad = workspace / "bad_schema.json"
    bad.write_text("{not json", encoding="utf-8")
    result = run_cli(
        "train", "--data", workspace / "train.csv", "--schema", bad,
        "--seed", 1, "--out", workspace / "nope.json",
    )
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: {bad}: schema is not valid JSON")


@pytest.mark.parametrize("value", [None, 3, True])
def test_train_refuses_a_non_string_level_naming_the_file(workspace, capsys, value):
    bad = workspace / "non_string_level.json"
    bad.write_text(json.dumps({"columns": SCHEMA_DOC["columns"][:2] + [
        {"name": "c", "kind": "discrete", "levels": ["a", value]}]}), encoding="utf-8")
    out = workspace / "never_level.json"
    argv = ["train", "--data", workspace / "train.csv", "--schema", bad, "--seed", 1, "--out", out]
    assert cli.main(list(map(str, argv))) == 1
    assert capsys.readouterr().err == f"error: {bad}: columns[2].levels[1] must be a string\n"
    assert not out.exists()


def test_train_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at 2 threads OpenBLAS splits the wide table's products, which moves the
    # last bits of the sums unless the command pins one thread
    table = load_bench_inputs().make_wide_table(1, n=10_000)
    data, schema = tmp_path / "wide.csv", tmp_path / "wide.json"
    save_csv(table, data)
    schema.write_text(json.dumps({"columns": [asdict(c) for c in table.schema.columns]}), encoding="utf-8")
    digests = set()
    for threads in ("1", "2"):
        out = tmp_path / f"model_{threads}.json"
        result = subprocess.run(
            [sys.executable, "-m", "tabsynth.cli", "train", "--data", str(data), "--schema", str(schema),
             "--seed", "1", "--epochs", "2", "--out", str(out)],
            capture_output=True, text=True, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
        )
        assert result.returncode == 0, result.stderr
        digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
    assert len(digests) == 1


def test_generate_deterministic_bytes(workspace, trained):
    out1, out2 = workspace / "s1.csv", workspace / "s2.csv"
    for out in (out1, out2):
        result = run_cli("generate", "--model", trained, "--n", 50, "--seed", 7, "--out", out)
        assert result.returncode == 0, result.stderr
    assert out1.read_bytes() == out2.read_bytes()
    header, *rows = out1.read_text(encoding="utf-8").splitlines()
    assert header == "x,y,c"
    assert len(rows) == 50
    assert all(line.rsplit(",", 1)[1] in {"a", "b"} for line in rows)


def test_generate_fewer_rows_are_the_leading_lines_of_more(workspace, trained):
    short, long = workspace / "n200.csv", workspace / "n1500.csv"
    for n, out in ((200, short), (1500, long)):
        result = run_cli("generate", "--model", trained, "--n", n, "--seed", 5, "--out", out)
        assert result.returncode == 0, result.stderr
    lines = short.read_bytes().splitlines(keepends=True)
    assert len(lines) == 201
    assert long.read_bytes().splitlines(keepends=True)[:201] == lines


def test_generate_zero_rows(workspace, trained):
    out = workspace / "empty.csv"
    result = run_cli("generate", "--model", trained, "--n", 0, "--seed", 7, "--out", out)
    assert result.returncode == 0, result.stderr
    assert out.read_text(encoding="utf-8").splitlines() == ["x,y,c"]


def test_generate_rejects_negative_seed_naming_the_field(workspace, trained):
    out = workspace / "never.csv"
    result = run_cli("generate", "--model", trained, "--n", 5, "--seed", -1, "--out", out)
    assert result.returncode == 1
    assert result.stderr == "error: seed must be non-negative, got -1\n"
    assert not out.exists()


def test_evaluate_with_mia_rejects_negative_seed_naming_the_field(workspace, trained):
    out = workspace / "never.json"
    result = run_cli(
        "evaluate", "--real-train", workspace / "train.csv", "--real-test", workspace / "test.csv",
        "--synth", workspace / "train.csv", "--schema", workspace / "schema.json", "--model", trained,
        "--target-reg", "y", "--target-cls", "c", "--out", out, "--with-mia", "--seed", -1,
    )
    assert result.returncode == 1
    assert result.stderr == "error: seed must be non-negative, got -1\n"
    assert not out.exists()


def test_train_clip_percentiles_scales_by_the_clipped_table(workspace, trained):
    out = workspace / "clipped.json"
    result = run_cli(
        "train", "--data", workspace / "train.csv", "--schema", workspace / "schema.json",
        "--seed", 51, "--out", out, "--epochs", 1, "--clip-percentiles",
    )
    assert result.returncode == 0, result.stderr
    table = load_csv(workspace / "train.csv", load_schema(workspace / "schema.json"))
    expected = standardize(drop_percentile_outliers(table)).scaling.mean
    mean = load_checkpoint(out).scaling.mean
    assert mean.tobytes() == expected.tobytes()
    assert mean.tobytes() != load_checkpoint(trained).scaling.mean.tobytes()


def evaluate_argv(workspace, *extra):
    return [
        "evaluate", "--real-train", str(workspace / "train.csv"), "--real-test", str(workspace / "test.csv"),
        "--synth", str(workspace / "test.csv"), "--schema", str(workspace / "schema.json"),
        "--target-reg", "y", "--target-cls", "c", *map(str, extra),
    ]


def write_rows(path, lines):
    path.write_text("".join(f"{line}\n" for line in ["x,y,c", *lines]), encoding="utf-8")
    return path


@pytest.mark.parametrize("flag, lines, clip, has, minimum", [
    ("--data", [], False, 0, 2),
    ("--data", ["0.5,1.0,a"], False, 1, 2),
    ("--data", ["0.5,1.0,a", "1.5,2.0,b"], True, "0 after --clip-percentiles", 2),
    ("--real-train", ["0.5,1.0,a"], False, 1, 2),
    ("--real-test", [], False, 0, 1),
    ("--synth", [], False, 0, 2),
    ("--synth", ["0.5,1.0,a"], False, 1, 2),
], ids=["data-header-only", "data-one-row", "data-clipped-empty", "real-train-one-row",
        "real-test-header-only", "synth-header-only", "synth-one-row"])
def test_too_few_rows_fail_naming_the_file(workspace, capsys, flag, lines, clip, has, minimum):
    short = write_rows(workspace / f"short{flag}-{len(lines)}.csv", lines)
    out = workspace / "never_short.json"
    if flag == "--data":
        argv = ["train", "--data", str(short), "--schema", str(workspace / "schema.json"),
                "--seed", "1", "--out", str(out), "--epochs", "1"] + ["--clip-percentiles"] * clip
    else:
        argv = evaluate_argv(workspace, "--out", out)
        argv[argv.index(flag) + 1] = str(short)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {short}: needs at least {minimum} data rows, has {has}\n"
    assert captured.out == "" and not out.exists()


@pytest.fixture
def report_calls(monkeypatch):
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise AssertionError("build_report must not run")

    monkeypatch.setattr(cli, "build_report", refuse)
    return calls


def test_evaluate_with_mia_rejects_a_negative_seed_before_the_report(workspace, trained, report_calls, capsys):
    out = workspace / "never_seed.json"
    argv = evaluate_argv(workspace, "--out", out, "--with-mia", "--model", trained, "--seed", -1)
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
    assert report_calls == [] and not out.exists()


def test_evaluate_with_mia_rejects_a_corrupt_model_before_the_report(workspace, report_calls, capsys):
    bad = workspace / "corrupt_model.json"
    bad.write_text("{broken", encoding="utf-8")
    out = workspace / "never_model.json"
    assert cli.main(evaluate_argv(workspace, "--out", out, "--with-mia", "--model", bad)) == 1
    assert "not valid JSON" in capsys.readouterr().err
    assert report_calls == [] and not out.exists()


@pytest.mark.parametrize("column, spec, described", [
    (1, ColumnSpec("q", "continuous"), "column 2 is 'q' (continuous), {schema} has 'y' (continuous)"),
    (2, ColumnSpec("c", "discrete", ("a", "z")), "column 3 is 'c' (discrete: a|z), {schema} has 'c' (discrete: a|b)"),
])
def test_evaluate_with_mia_rejects_a_model_of_another_schema_before_the_report(
        workspace, trained, report_calls, capsys, column, spec, described):
    cp = load_checkpoint(trained)
    columns = list(cp.schema.columns)
    columns[column] = spec
    names = tuple(columns[j].name for j in cp.schema.numeric_indices)
    other = workspace / f"other_schema_{column}.json"
    save_checkpoint(replace(cp, schema=Schema(tuple(columns)), scaling=replace(cp.scaling, names=names)), other)
    out = workspace / "never_schema.json"
    assert cli.main(evaluate_argv(workspace, "--out", out, "--with-mia", "--model", other)) == 1
    schema = workspace / "schema.json"
    assert capsys.readouterr().err == f"error: {other}: the checkpoint's {described.format(schema=schema)}\n"
    assert report_calls == [] and not out.exists()


def test_evaluate_reads_the_model_only_with_mia(workspace):
    bad = workspace / "unread_model.json"
    bad.write_text("{broken", encoding="utf-8")
    out = workspace / "report_without_mia.json"
    assert cli.main(evaluate_argv(workspace, "--out", out, "--model", bad)) == 0
    assert "mia_auc" not in json.loads(out.read_text(encoding="utf-8"))


def test_generate_nan_probabilities_exit_1_naming_the_column(workspace, trained):
    broken = workspace / "overflowed.json"
    save_checkpoint(overflowed_discrete_logits(load_checkpoint(trained)), broken)
    out = workspace / "never.csv"
    result = run_cli("generate", "--model", broken, "--n", 50, "--seed", 1, "--out", out)
    assert result.returncode == 1
    assert result.stderr.startswith("error: column 'c': probs must hold probability vectors")
    assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")
    assert not out.exists()


def test_generate_numeric_overflow_exit_1_naming_the_column(workspace, trained):
    cp = load_checkpoint(trained)
    broken_cp = replace(cp, params=cp.params.copy())
    weight, bias = broken_cp.decoder[-1]
    bias[0], weight[0] = 1.79e308, 1e306  # column x's gamma
    broken = workspace / "overflowed_numeric.json"
    save_checkpoint(broken_cp, broken)
    out = workspace / "never_numeric.csv"
    result = run_cli("generate", "--model", broken, "--n", 50, "--seed", 1, "--out", out)
    assert result.returncode == 1
    assert result.stderr == "error: column 'x': sampled values are not finite\n"
    assert not out.exists()


def test_generate_corrupt_checkpoint(workspace):
    bad = workspace / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    result = run_cli("generate", "--model", bad, "--n", 5, "--seed", 0, "--out", workspace / "o.csv")
    assert result.returncode == 1
    assert "not valid JSON" in result.stderr


def test_cdf_curve_output(workspace, trained):
    out = workspace / "cdf.csv"
    result = run_cli("cdf", "--model", trained, "--column", "y", "--out", out, "--mc", 400)
    assert result.returncode == 0, result.stderr
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x,cdf"
    values = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert len(values) == 201
    assert np.all(np.diff(values) >= 0)
    assert values[0] < 0.1
    assert values[-1] > 0.9


def test_cdf_of_a_zero_inflated_column(workspace, zero_inflated_checkpoint, capsys):
    model, out = workspace / "zero_inflated.json", workspace / "cdf_gain.csv"
    save_checkpoint(zero_inflated_checkpoint, model)
    assert cli.main(["cdf", "--model", str(model), "--column", "gain", "--out", str(out), "--mc", "300"]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x,cdf"
    grid, values = np.array([line.split(",") for line in lines[1:]], dtype=float).T
    assert len(values) == 201
    assert np.all(np.diff(grid) > 0)
    assert np.all(np.diff(values) >= 0)
    assert np.all((values >= 0) & (values <= 1))
    assert capsys.readouterr().err == ""


def test_cdf_rejects_quantiles_out_of_order(workspace, zero_inflated_checkpoint, capsys):
    model = workspace / "swapped_quantiles.json"
    doc = json.loads(checkpoint_to_text(zero_inflated_checkpoint))
    doc["quantiles"]["low"][0], doc["quantiles"]["high"][0] = 1.0, -1.0
    model.write_text(json.dumps(doc), encoding="utf-8")
    out = workspace / "never_cdf.csv"
    assert cli.main(["cdf", "--model", str(model), "--column", "x", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {model}: corrupt checkpoint: quantiles.low must not exceed quantiles.high\n"
    )
    assert not out.exists()


def test_cdf_rejects_discrete_column(workspace, trained):
    result = run_cli("cdf", "--model", trained, "--column", "c", "--out", workspace / "no.csv")
    assert result.returncode == 1


def test_cdf_unknown_column_names_it_without_repr_quotes(workspace, trained):
    result = run_cli("cdf", "--model", trained, "--column", "zz", "--out", workspace / "no.csv")
    assert result.returncode == 1
    assert result.stderr == f"error: {trained}: no column named 'zz'\n"


@pytest.mark.parametrize("flag", ["--target-reg", "--target-cls", "--known-columns", "--secret-columns"])
def test_evaluate_unknown_column_names_it_without_repr_quotes(workspace, flag):
    flags = {"--target-reg": "y", "--target-cls": "c", flag: "zz"}
    result = run_cli(
        "evaluate", "--real-train", workspace / "train.csv", "--real-test", workspace / "test.csv",
        "--synth", workspace / "test.csv", "--schema", workspace / "schema.json",
        "--out", workspace / "never.json", *[v for item in flags.items() for v in item],
    )
    assert result.returncode == 1
    assert result.stderr == f"error: {workspace / 'schema.json'}: no column named 'zz'\n"


@pytest.mark.parametrize("known, secrets, name", [("c", "c", "c"), ("x,c", "c", "c"), ("x,x", "c", "x")])
def test_evaluate_refuses_a_column_named_twice_among_known_and_secret(workspace, capsys, known, secrets, name):
    out = workspace / "never_twice.json"
    argv = evaluate_argv(workspace, "--known-columns", known, "--secret-columns", secrets, "--out", out)
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: column {name!r} is named twice among the known and secret columns\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--known-columns", "--secret-columns"])
def test_evaluate_refuses_an_empty_column_list(workspace, capsys, flag):
    # an empty list is a list of one empty name, not the default
    out = workspace / "never_empty.json"
    assert cli.main(evaluate_argv(workspace, flag, "", "--out", out)) == 1
    assert capsys.readouterr().err == f"error: {workspace / 'schema.json'}: no column named ''\n"
    assert not out.exists()


def test_evaluate_writes_full_report(workspace, trained):
    synth = workspace / "s1.csv"
    if not synth.exists():
        run_cli("generate", "--model", trained, "--n", 50, "--seed", 7, "--out", synth)
    out = workspace / "report.json"
    result = run_cli(
        "evaluate", "--real-train", workspace / "train.csv", "--real-test", workspace / "test.csv",
        "--synth", synth, "--schema", workspace / "schema.json",
        "--target-reg", "y", "--target-cls", "c", "--out", out,
    )
    assert result.returncode == 0, result.stderr
    doc = json.loads(out.read_text(encoding="utf-8"))
    expected = {
        "ks_cont", "ks_disc", "wd1_cont", "wd1_disc", "corr_dist",
        "dcr_rs", "dcr_rr", "dcr_ss", "mare", "f1", "vrate", "attr_disclosure_f1",
    }
    assert set(doc) == expected
    assert set(doc["vrate"]) == {"0.1", "0.3", "0.5", "0.7", "0.9"}


def test_evaluate_mia_needs_model(workspace, trained):
    result = run_cli(
        "evaluate", "--real-train", workspace / "train.csv", "--real-test", workspace / "test.csv",
        "--synth", workspace / "s1.csv", "--schema", workspace / "schema.json",
        "--target-reg", "y", "--target-cls", "c", "--out", workspace / "r2.json", "--with-mia",
    )
    assert result.returncode == 2
    assert "usage error" in result.stderr


NOT_UTF8 = "not UTF-8 text, cannot decode byte 0xe9 (invalid continuation byte)"


@pytest.mark.parametrize("flag, content, message", [
    ("--data", b"x,y,c\n0.5,1.0,a\n0.5,1.0,r\xe9d\n", NOT_UTF8),
    ("--data", b"x,y,c\n0.5,1.0,a\n" + b"1" * 2**17 + b"1,1.0,a\n", "field larger than field limit (131072) at line 3"),
    ("--schema", b'{"columns": [{"name": "r\xe9d"}]}', NOT_UTF8),
    ("--model", b'{"format_version": 2, "schema": "r\xe9d"}', NOT_UTF8),
    ("--model", b'{"format_version": 2}', "corrupt checkpoint: missing checkpoint.schema"),
    ("--model", b'{"format_version": 1}', "unsupported checkpoint format version 1 (this build reads version 2)"),
], ids=["csv-not-utf8", "csv-cell-too-long", "schema-not-utf8", "checkpoint-not-utf8", "checkpoint-missing-schema",
        "checkpoint-version-1"])
def test_unreadable_input_fails_naming_the_file(workspace, capsys, flag, content, message):
    bad = workspace / f"unreadable{flag}"
    bad.write_bytes(content)
    out = workspace / "never_unreadable"
    if flag == "--model":
        argv = ["generate", "--model", bad, "--n", 5, "--seed", 0, "--out", out]
    else:
        argv = ["train", "--data", workspace / "train.csv", "--schema", workspace / "schema.json",
                "--seed", 1, "--out", out, "--epochs", 1]
        argv[argv.index(flag) + 1] = bad
    assert cli.main(list(map(str, argv))) == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "generate", "cdf", "evaluate"])
def test_out_in_a_missing_directory_fails_before_any_work(workspace, trained, capsys, monkeypatch, command):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{command} must not start its work")

    for name in ("load_schema", "load_checkpoint"):
        monkeypatch.setattr(cli, name, refuse)
    out = workspace / "missing_dir" / "out"
    argv = {
        "train": ["train", "--data", workspace / "train.csv", "--schema", workspace / "schema.json",
                  "--seed", 1, "--epochs", 1],
        "generate": ["generate", "--model", trained, "--n", 5, "--seed", 0],
        "cdf": ["cdf", "--model", trained, "--column", "x"],
        "evaluate": evaluate_argv(workspace, "--with-mia", "--model", trained),
    }[command]
    assert cli.main(list(map(str, [*argv, "--out", out]))) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {out}: directory {out.parent} does not exist\n"
    assert captured.out == ""  # train prints no epoch line


def test_unknown_subcommand(workspace):
    assert run_cli("frobnicate").returncode == 2
