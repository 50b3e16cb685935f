import math
import warnings

import numpy as np
import pytest

from helpers import crps_grads_exact, grad_rel_err
from tabsynth import (
    ColumnSpec,
    Schema,
    Table,
    TrainConfig,
    checkpoint_to_text,
    elbo_grads,
    model_init,
    standardize,
    train,
)
from tabsynth.model import decoder_heads, decoder_width, encode_batch
from tabsynth.nn import layer_views, mlp_forward, mlp_init, softmax
from tabsynth import spline
from tabsynth.spline import knot_values, slopes_to_b

MIX_SCHEMA = Schema((
    ColumnSpec("x", "continuous"),
    ColumnSpec("y", "ordinal"),
    ColumnSpec("c", "discrete", ("a", "b", "d")),
))
NUMERIC_SCHEMA = Schema((ColumnSpec("x", "continuous"), ColumnSpec("y", "ordinal")))
DISCRETE_SCHEMA = Schema((
    ColumnSpec("c", "discrete", ("a", "b", "d")),
    ColumnSpec("e", "discrete", ("u", "v")),
))


def zeroed(model):
    model.params[...] = 0.0
    return model


def random_model(schema=MIX_SCHEMA, seed=0, **overrides):
    config = TrainConfig(seed=seed, **overrides)
    return model_init(schema, config, np.random.default_rng(seed))


def test_config_defaults():
    config = TrainConfig(seed=1)
    assert (config.epochs, config.batch_size) == (100, 256)
    assert (config.learning_rate, config.beta) == (0.001, 0.5)
    assert (config.latent_dim, config.knot_count, config.hidden_width) == (2, 10, 32)


def test_config_requires_seed():
    with pytest.raises(TypeError):
        TrainConfig()


@pytest.mark.parametrize("overrides", [
    {"epochs": 0},
    {"batch_size": 0},
    {"learning_rate": 0.0},
    {"beta": 0.0},
    {"beta": -1.0},
    {"latent_dim": 0},
    {"knot_count": 0},
    {"hidden_width": 0},
    {"learning_rate": math.nan},
    {"learning_rate": math.inf},
    {"learning_rate": -math.inf},
    {"beta": math.nan},
    {"beta": math.inf},
    {"seed": -1},
])
def test_config_rejects_non_positive(overrides):
    # the message names the field
    with pytest.raises(ValueError, match=next(iter(overrides))):
        TrainConfig(**{"seed": 1, **overrides})


def test_decoder_width_and_heads():
    # two numeric heads of gamma and M slopes each, one 3-level softmax head
    assert decoder_width(MIX_SCHEMA, 10) == 2 * 11 + 3
    out = np.arange(4 * 25, dtype=np.float64).reshape(4, 25)
    gamma, raw, logits = decoder_heads(MIX_SCHEMA, 10, out)
    assert gamma.shape == (4, 2) and raw.shape == (4, 2, 10) and len(logits) == 1
    assert np.array_equal(gamma[:, 0], out[:, 0]) and np.array_equal(raw[:, 0], out[:, 1:11])
    assert np.array_equal(gamma[:, 1], out[:, 11]) and np.array_equal(raw[:, 1], out[:, 12:22])
    assert np.array_equal(logits[0], out[:, 22:25])
    for view in (gamma, raw, *logits):
        assert np.shares_memory(view, out)


def test_params_hold_encoder_then_decoder_as_views():
    model = random_model()
    blocks = [a for net in (model.encoder, model.decoder) for layer in net for a in layer]
    assert [a.shape for a in blocks] == [(32, 5), (32,), (4, 32), (4,), (32, 2), (32,), (25, 32), (25,)]
    assert np.concatenate([a.ravel() for a in blocks]).tobytes() == model.params.tobytes()
    assert all(np.shares_memory(a, model.params) for a in blocks)


def test_model_init_keeps_the_format_1_draw_without_its_dead_outputs():
    # format 1 drew the decoder with M+2 outputs per numeric column, the last
    # one dead: rows 4 and 9 of 13 at M = 3; every other weight is kept
    config = TrainConfig(seed=4, knot_count=3, latent_dim=4, hidden_width=17)
    model = model_init(MIX_SCHEMA, config, np.random.default_rng(4))
    rng = np.random.default_rng(4)
    mlp_init((5, 17, 8), rng)  # the encoder is drawn first
    (w1, b1), (w2, b2) = layer_views((4, 17, 13), mlp_init((4, 17, 13), rng))
    want = [w1, b1, np.delete(w2, [4, 9], axis=0), np.delete(b2, [4, 9])]
    got = [a for layer in model.decoder for a in layer]
    assert [a.shape for a in got] == [a.shape for a in want]
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_encode_zero_weights_is_standard_normal():
    model = zeroed(random_model())
    mu, log_var, _ = encode_batch(model, np.array([[1.0, -2.0, 0.0]]))
    assert np.array_equal(mu[0], np.zeros(2))
    assert np.array_equal(log_var[0], np.zeros(2))


def test_encode_rejects_wrong_width():
    model = random_model()
    with pytest.raises((ValueError, IndexError)):
        encode_batch(model, np.zeros((1, 2)))


def test_decode_zero_weights_gives_uniform_probabilities():
    model = zeroed(random_model())
    out, _ = mlp_forward(model.decoder, np.zeros((1, 2)))
    _, _, logits = decoder_heads(model.schema, model.config.knot_count, out)
    assert np.allclose(softmax(logits[0])[0], np.full(3, 1.0 / 3.0))


def test_decode_outputs_valid_heads():
    model = random_model(seed=3)
    rng = np.random.default_rng(4)
    out, _ = mlp_forward(model.decoder, rng.standard_normal((100, 2)))
    gamma, raw, logits = decoder_heads(model.schema, model.config.knot_count, out)
    assert gamma.shape[1] == 2 and len(logits) == 1
    for k in range(gamma.shape[1]):
        # D is linear between knots, so non-decreasing knot values make it monotone
        values = knot_values(gamma[:, k], slopes_to_b(raw[:, k].T), model.knots)
        assert np.all(np.diff(values, axis=0) >= 0.0)
    for block in logits:
        probs = softmax(block)
        assert np.all(probs >= 0.0)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-9)


def posterior_model(mu, log_var):
    """A model whose encoder maps every row to N(mu, diag exp(log_var)):
    zero weights, with the pair as the output bias."""
    model = zeroed(random_model(latent_dim=mu.size))
    model.encoder[-1][1][...] = np.concatenate([mu, log_var])
    return model


def test_kl_hand_values():
    rows = np.array([[0.0, 0.0, 1.0]])
    kl = lambda mu, log_var: elbo_grads(posterior_model(mu, log_var), rows, np.zeros((1, mu.size)))[0].kl
    assert kl(np.zeros(2), np.zeros(2)) == 0.0
    assert kl(np.ones(2), np.zeros(2)) == pytest.approx(1.0)
    rng = np.random.default_rng(5)
    for _ in range(100):
        assert kl(rng.normal(size=3), rng.normal(size=3)) >= 0.0


def test_elbo_uniform_discrete_head_costs_log_levels():
    schema = Schema((ColumnSpec("c", "discrete", ("p", "q", "r", "s")),))
    model = zeroed(random_model(schema))
    rows = np.array([[2.0], [0.0]])
    breakdown = elbo_grads(model, rows, np.zeros((2, 2)))[0]
    assert breakdown.crps == 0.0
    assert breakdown.discrete == pytest.approx(math.log(4.0))
    assert breakdown.kl == 0.0
    assert breakdown.total == pytest.approx(math.log(4.0))


def test_elbo_breakdown_identity():
    model = random_model(seed=6)
    rng = np.random.default_rng(7)
    rows = np.column_stack([
        rng.normal(size=8), rng.normal(size=8), rng.integers(0, 3, 8).astype(float),
    ])
    noise = rng.standard_normal((8, 2))
    breakdown = elbo_grads(model, rows, noise)[0]
    assert breakdown.total == breakdown.crps + breakdown.discrete + 0.5 * breakdown.kl
    assert breakdown.crps >= 0.0 and breakdown.discrete >= 0.0 and breakdown.kl >= 0.0


def random_rows(schema, rng, n):
    return np.column_stack([
        rng.integers(0, c.n_levels, n).astype(float) if c.levels else rng.normal(size=n)
        for c in schema.columns
    ])


@pytest.mark.parametrize("schema", [MIX_SCHEMA, NUMERIC_SCHEMA, DISCRETE_SCHEMA],
                         ids=["mixed", "numeric", "discrete"])
def test_elbo_grads_match_finite_differences(schema):
    rng = np.random.default_rng(8)
    for seed in (0, 1):
        model = random_model(schema, seed=seed, hidden_width=6, knot_count=4)
        rows = random_rows(schema, rng, 3)
        noise = rng.standard_normal((3, 2))
        _, grads = elbo_grads(model, rows, noise)
        assert grads.shape == model.params.shape
        eps = 1e-5
        for j in range(model.params.size):
            orig = model.params[j]
            model.params[j] = orig + eps
            hi = elbo_grads(model, rows, noise)[0].total
            model.params[j] = orig - eps
            lo = elbo_grads(model, rows, noise)[0].total
            model.params[j] = orig
            assert grad_rel_err(grads[j], (hi - lo) / (2 * eps)) < 1e-4


def test_elbo_grads_numeric_head_bias_gradients_match_the_exact_integral():
    # the encoder's output layer zeroed gives mu = log_var = 0, so z = noise exactly;
    # each numeric column p owns decoder outputs p*(M+1) (gamma) to p*(M+1) + M
    m, n = 4, 12
    model = random_model(seed=3, knot_count=m, hidden_width=9)
    for a in model.encoder[-1]:
        a[...] = 0.0
    rng = np.random.default_rng(11)
    rows = random_rows(MIX_SCHEMA, rng, n)
    rows[:, :2] = rng.uniform(-0.5, 1.5, (n, 2))  # about half inside D's range, half clamped
    noise = rng.standard_normal((n, 2))
    _, grads = elbo_grads(model, rows, noise)
    (w1, b1), (w2, b2) = model.decoder
    out = np.maximum(noise @ w1.T + b1, 0.0) @ w2.T + b2
    knots = np.arange(m + 1) / m
    want = np.zeros(2 * (m + 1))
    for r in range(n):
        for p in range(2):
            gamma, raw = out[r, p * (m + 1) : p * (m + 1) + 1], out[r, p * (m + 1) + 1 : (p + 1) * (m + 1)]
            dg, ds = crps_grads_exact(gamma, np.log1p(np.exp(raw))[None, :], knots, rows[r, p : p + 1])
            # the loss is half the CRPS, averaged over the batch
            want[p * (m + 1)] += 0.5 / n * dg
            want[p * (m + 1) + 1 : (p + 1) * (m + 1)] += 0.5 / n * ds / (1.0 + np.exp(-raw))
    got = grads[grads.size - b2.size :][: want.size]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def gaussian_table(n=500, seed=9):
    rng = np.random.default_rng(seed)
    schema = Schema((ColumnSpec("x", "continuous"), ColumnSpec("c", "discrete", ("u", "v"))))
    rows = np.column_stack([rng.normal(3.0, 1.0, n), (rng.random(n) < 0.4).astype(float)])
    return standardize(Table(schema, rows))


def test_train_descends():
    cp = train(gaussian_table(), TrainConfig(seed=10, epochs=20))
    assert len(cp.loss_trace) == 20
    assert cp.loss_trace[-1].total < cp.loss_trace[0].total


def test_train_requires_standardized_table():
    schema = Schema((ColumnSpec("x", "continuous"),))
    raw = Table(schema, np.random.default_rng(0).normal(size=(50, 1)))
    with pytest.raises(ValueError, match="standardize"):
        train(raw, TrainConfig(seed=1, epochs=1))


def one_row_table():
    std = gaussian_table()
    return Table(std.schema, std.rows[:1], std.scaling)


@pytest.mark.parametrize(("call", "message"), [
    (lambda: elbo_grads(random_model(), np.zeros((3, 3)), np.zeros((3, 3))),
     r"^noise must have shape \(3, 2\), got \(3, 3\)$"),
    (lambda: elbo_grads(random_model(), np.zeros((3, 3)), np.zeros(3)),
     r"^noise must have shape \(3, 2\), got \(3,\)$"),
    (lambda: train(one_row_table(), TrainConfig(seed=1, epochs=1)), r"^train needs at least 2 rows$"),
], ids=["noise-width", "noise-rank", "one-row"])
def test_model_input_checks_name_the_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_train_deterministic():
    table = gaussian_table()
    config = TrainConfig(seed=11, epochs=5)
    a = checkpoint_to_text(train(table, config))
    b = checkpoint_to_text(train(table, config))
    assert a == b


def test_train_divergence_names_epoch_step_and_loss(toy_std):
    # the divergence is reported once, by the error, with no numpy warnings first
    with warnings.catch_warnings(), pytest.raises(
        FloatingPointError,
        match=r"^training diverged at epoch \d+, step \d+ "
              r"\(batch loss crps=\S+, discrete=\S+, kl=\S+, total=\S+\): "
              r"non-finite gradient in parameter block",
    ) as info:
        warnings.simplefilter("error")
        train(toy_std, TrainConfig(seed=2024, learning_rate=10.0))
    assert isinstance(info.value.__cause__, FloatingPointError)


def test_trained_params_do_not_depend_on_the_order_of_the_loss_sum(monkeypatch):
    # the loss never feeds the gradient: summing each spline's segment terms
    # by numpy's pairwise sum, not left to right, moves at most the last bits
    # of the loss trace and no bit of the trained parameters
    table = gaussian_table()
    config = TrainConfig(seed=15, epochs=2, batch_size=64, knot_count=17)
    left_to_right = train(table, config)
    calls = []

    def pairwise(a):
        calls.append(a.shape)
        return np.ascontiguousarray(np.moveaxis(a, 0, -1)).sum(axis=-1)

    monkeypatch.setattr(spline, "leading_axis_sum", pairwise)
    reference = train(table, config)
    assert calls
    assert left_to_right.params.tobytes() == reference.params.tobytes()
    for got, want in zip(left_to_right.loss_trace, reference.loss_trace):
        assert got.crps == pytest.approx(want.crps, rel=1e-12)


def test_train_stores_quantile_band():
    table = gaussian_table()
    cp = train(table, TrainConfig(seed=12, epochs=2))
    assert cp.quantile_lo.shape == (1,)
    assert cp.quantile_lo[0] == pytest.approx(np.quantile(table.rows[:, 0], 0.01))
    assert cp.quantile_hi[0] == pytest.approx(np.quantile(table.rows[:, 0], 0.99))


def test_larger_beta_shrinks_kl():
    table = gaussian_table()
    soft = train(table, TrainConfig(seed=13, epochs=15))
    hard = train(table, TrainConfig(seed=13, epochs=15, beta=5.0))
    assert hard.loss_trace[-1].kl <= soft.loss_trace[-1].kl


def test_model_round_trips_through_checkpoint():
    table = gaussian_table()
    cp = train(table, TrainConfig(seed=14, epochs=2))
    out, _ = mlp_forward(cp.decoder, np.zeros((1, 2)))
    assert out.shape == (1, decoder_width(cp.schema, cp.config.knot_count))
    gamma, _, logits = decoder_heads(cp.schema, cp.config.knot_count, out)
    assert gamma.shape[1] == 1 and len(logits) == 1
