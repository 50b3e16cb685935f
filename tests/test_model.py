import math
import warnings

import numpy as np
import pytest

from helpers import grad_rel_err
from tabsynth import (
    ColumnSpec,
    Schema,
    Table,
    TrainConfig,
    checkpoint_to_text,
    elbo_grads,
    elbo_loss,
    knot_values,
    model_init,
    slopes_to_b,
    standardize,
    train,
)
from tabsynth.model import decoder_heads, decoder_width, encode_batch
from tabsynth.nn import mlp_forward, mlp_params, softmax

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
    for p in mlp_params(model.encoder) + mlp_params(model.decoder):
        p[...] = 0.0
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
])
def test_config_rejects_non_positive(overrides):
    with pytest.raises(ValueError):
        TrainConfig(seed=1, **overrides)


def test_decoder_width_and_heads():
    # two numeric heads of 1 + (M+1) outputs each, one 3-level softmax head
    assert decoder_width(MIX_SCHEMA, 10) == 2 * 12 + 3
    out = np.arange(4 * 27, dtype=np.float64).reshape(4, 27)
    gamma, raw, logits = decoder_heads(MIX_SCHEMA, 10, out)
    assert gamma.shape == (4, 2) and raw.shape == (4, 2, 11) and len(logits) == 1
    assert np.array_equal(gamma[:, 0], out[:, 0]) and np.array_equal(raw[:, 0], out[:, 1:12])
    assert np.array_equal(gamma[:, 1], out[:, 12]) and np.array_equal(raw[:, 1], out[:, 13:24])
    assert np.array_equal(logits[0], out[:, 24:27])
    for view in (gamma, raw, *logits):
        assert np.shares_memory(view, out)


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
        values = knot_values(gamma[:, k], slopes_to_b(raw[:, k]), model.knots)
        assert np.all(np.diff(values, axis=1) >= -1e-12)
    for block in logits:
        probs = softmax(block)
        assert np.all(probs >= 0.0)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-9)


def posterior_model(mu, log_var):
    """A model whose encoder maps every row to N(mu, diag exp(log_var)):
    zero weights, with the pair as the output bias."""
    model = zeroed(random_model(latent_dim=mu.size))
    model.encoder.layers[-1].bias[...] = np.concatenate([mu, log_var])
    return model


def test_kl_hand_values():
    rows = np.array([[0.0, 0.0, 1.0]])
    kl = lambda mu, log_var: elbo_loss(posterior_model(mu, log_var), rows, np.zeros((1, mu.size))).kl
    assert kl(np.zeros(2), np.zeros(2)) == 0.0
    assert kl(np.ones(2), np.zeros(2)) == pytest.approx(1.0)
    rng = np.random.default_rng(5)
    for _ in range(100):
        assert kl(rng.normal(size=3), rng.normal(size=3)) >= 0.0


def test_elbo_uniform_discrete_head_costs_log_levels():
    schema = Schema((ColumnSpec("c", "discrete", ("p", "q", "r", "s")),))
    model = zeroed(random_model(schema))
    rows = np.array([[2.0], [0.0]])
    breakdown = elbo_loss(model, rows, np.zeros((2, 2)))
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
    breakdown = elbo_loss(model, rows, noise)
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
                assert grad_rel_err(flat_g[j], (hi - lo) / (2 * eps)) < 1e-4


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
