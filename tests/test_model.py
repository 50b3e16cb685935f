import json
import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_toy_table, toy_schema
from helpers import crps_grads_exact, file_order_decoder, grad_rel_err, load_bench_inputs, row_major_elbo_grads
from tabsynth import (
    Checkpoint,
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
from tabsynth.data import ScalingStats
from tabsynth.model import decoder_heads, decoder_width, encode_batch, head_order
from tabsynth.nn import adam_init, adam_step, layer_views, mlp_backward, mlp_forward, mlp_init, softmax
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
    # the message starts with the field's own name
    with pytest.raises(ValueError, match=f"^{next(iter(overrides))} must be "):
        TrainConfig(**{"seed": 1, **overrides})


@pytest.mark.parametrize("value", [1.5, True])
@pytest.mark.parametrize("name", ["seed", "epochs", "batch_size", "latent_dim", "knot_count", "hidden_width"])
def test_config_refuses_a_non_integer_naming_the_field(name, value):
    # a float used to fail inside numpy at train time, and True passed as 1
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
        TrainConfig(**{"seed": 1, name: value})
    assert TrainConfig(**{"seed": 1, name: np.int64(3)}) == TrainConfig(**{"seed": 1, name: 3})


@pytest.mark.parametrize("value", [True, "0.1", None])
@pytest.mark.parametrize("name", ["learning_rate", "beta"])
def test_config_refuses_a_non_number_naming_the_field(name, value):
    # True would pass the range check as 1, and "0.1" fail it with a TypeError naming no field
    with pytest.raises(ValueError, match=rf"^{name} must be a number, got {re.escape(repr(value))}$"):
        TrainConfig(**{"seed": 1, name: value})
    for number in (np.float64(0.25), np.float32(0.25), 1):
        assert getattr(TrainConfig(**{"seed": 1, name: number}), name) == number


def test_decoder_width_and_heads():
    # two numeric heads of gamma and M slopes each, one 3-level softmax head
    assert decoder_width(MIX_SCHEMA, 10) == 2 * 11 + 3
    # stored output j of 4 rows holds 100 * j + row; read in head_order
    stored = 100.0 * np.arange(25)[:, None] + np.arange(4)
    out = stored[head_order(MIX_SCHEMA, 10)]
    gamma, raw, logits = decoder_heads(MIX_SCHEMA, 10, out)
    assert gamma.shape == (2, 4) and raw.shape == (10, 2, 4) and len(logits) == 1
    assert np.array_equal(gamma[0], stored[0]) and np.array_equal(raw[:, 0], stored[1:11])
    assert np.array_equal(gamma[1], stored[11]) and np.array_equal(raw[:, 1], stored[12:22])
    assert np.array_equal(logits[0], stored[22:25])
    for view in (gamma, raw, *logits):
        assert np.shares_memory(view, out)
    # the knot-major (M, P * rows) slopes of the spline head, spline p * rows + r
    assert np.array_equal(raw.reshape(10, 8)[:, 4:], stored[12:22])
    # discrete columns before and between the numeric ones: logit block k sits
    # at P * M + level_starts[k], where one_hot_matrix puts the same levels
    mixed = Schema((ColumnSpec("d", "discrete", ("p", "q")), ColumnSpec("x", "continuous"),
                    ColumnSpec("e", "discrete", ("s", "t", "u", "v")), ColumnSpec("y", "ordinal")))
    assert mixed.level_starts == (2, 4, 8) and decoder_width(mixed, 3) == 2 * 4 + 6 == 8 + 2 * 3
    gamma, raw, logits = decoder_heads(mixed, 3, np.arange(14.0)[:, None])
    assert gamma.ravel().tolist() == [0, 1] and raw.ravel().tolist() == list(range(2, 8))
    assert [block.ravel().tolist() for block in logits] == [[8, 9], [10, 11, 12, 13]]


def test_params_hold_encoder_then_decoder_as_views():
    model = random_model()
    blocks = [a for net in (model.encoder, model.decoder) for layer in net for a in layer]
    assert [a.shape for a in blocks] == [(32, 5), (32,), (4, 32), (4,), (32, 2), (32,), (25, 32), (25,)]
    assert np.concatenate([a.ravel() for a in blocks]).tobytes() == model.params.tobytes()
    assert all(np.shares_memory(a, model.params) for a in blocks)


def file_layers(model):
    """The decoder's layers as a checkpoint file of model holds them."""
    p = len(model.schema.numeric_indices)
    names = tuple(model.schema.columns[i].name for i in model.schema.numeric_indices)
    cp = Checkpoint(schema=model.schema, config=model.config, params=model.params,
                    scaling=ScalingStats(names, np.zeros(p), np.ones(p)),
                    quantile_lo=np.zeros(p), quantile_hi=np.zeros(p), loss_trace=[])
    layers = json.loads(checkpoint_to_text(cp))["decoder"]["layers"]
    return [(np.array(layer["weight"]), np.array(layer["bias"])) for layer in layers]


def init_draw_without_dead_rows():
    """MIX_SCHEMA's decoder at M = 3 as drawn with M+2 outputs per numeric
    column, the last of each (rows 4 and 9 of 13) dropped, in file order."""
    rng = np.random.default_rng(4)
    mlp_init((5, 17, 8), rng)  # the encoder is drawn first
    (w1, b1), (w2, b2) = layer_views((4, 17, 13), mlp_init((4, 17, 13), rng))
    return [w1, b1, np.delete(w2, [4, 9], axis=0), np.delete(b2, [4, 9])]


def test_model_init_draws_m_plus_2_outputs_per_numeric_column_and_drops_the_last():
    # every other weight is kept, the last layer's rows stored in head_order
    config = TrainConfig(seed=4, knot_count=3, latent_dim=4, hidden_width=17)
    model = model_init(MIX_SCHEMA, config, np.random.default_rng(4))
    w1, b1, w2, b2 = init_draw_without_dead_rows()
    order = head_order(MIX_SCHEMA, 3)
    want = [w1, b1, w2[order], b2[order]]
    got = [a for layer in model.decoder for a in layer]
    assert [a.shape for a in got] == [a.shape for a in want]
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_model_init_refuses_a_model_over_max_parameters_before_drawing(monkeypatch):
    config = TrainConfig(seed=4, knot_count=3, latent_dim=4, hidden_width=17)
    count = model_init(MIX_SCHEMA, config, np.random.default_rng(4)).params.size
    monkeypatch.setattr("tabsynth.model.MAX_PARAMETERS", count)
    assert model_init(MIX_SCHEMA, config, np.random.default_rng(4)).params.size == count
    monkeypatch.setattr("tabsynth.model.MAX_PARAMETERS", count - 1)
    rng = np.random.default_rng(4)
    message = (f"model has {count} parameters, more than MAX_PARAMETERS = {count - 1} "
               "(hidden_width=17, latent_dim=4, knot_count=3)")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        model_init(MIX_SCHEMA, config, rng)
    assert rng.bit_generator.state == np.random.default_rng(4).bit_generator.state  # nothing drawn


def test_model_init_decoder_written_back_in_file_order_is_the_draw():
    config = TrainConfig(seed=4, knot_count=3, latent_dim=4, hidden_width=17)
    model = model_init(MIX_SCHEMA, config, np.random.default_rng(4))
    got = [a for layer in file_layers(model) for a in layer]
    want = init_draw_without_dead_rows()
    assert [a.shape for a in got] == [a.shape for a in want]
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_decoder_output_is_the_file_order_layer_read_through_head_order():
    model = random_model(seed=5, knot_count=4)
    z = np.random.default_rng(6).standard_normal((2, 9))
    out, _ = mlp_forward(model.decoder, z)
    file_out, _ = mlp_forward(file_layers(model), z)
    assert np.allclose(out, file_out[head_order(MIX_SCHEMA, 4)], rtol=1e-14, atol=0.0)


def test_encode_zero_weights_is_standard_normal():
    model = zeroed(random_model())
    mu, log_var, _ = encode_batch(model, np.array([[1.0, -2.0, 0.0]]))
    assert np.array_equal(mu, np.zeros((2, 1)))
    assert np.array_equal(log_var, np.zeros((2, 1)))


def test_encode_rejects_wrong_width():
    model = random_model()
    with pytest.raises((ValueError, IndexError)):
        encode_batch(model, np.zeros((1, 2)))


def test_decode_zero_weights_gives_uniform_probabilities():
    model = zeroed(random_model())
    out, _ = mlp_forward(model.decoder, np.zeros((2, 1)))
    _, _, logits = decoder_heads(model.schema, model.config.knot_count, out)
    assert np.allclose(softmax(logits[0])[:, 0], np.full(3, 1.0 / 3.0))


def test_decode_outputs_valid_heads():
    model = random_model(seed=3)
    rng = np.random.default_rng(4)
    out, _ = mlp_forward(model.decoder, rng.standard_normal((2, 100)))
    gamma, raw, logits = decoder_heads(model.schema, model.config.knot_count, out)
    assert gamma.shape[0] == 2 and len(logits) == 1
    for k in range(gamma.shape[0]):
        # D is linear between knots, so non-decreasing knot values make it monotone
        values = knot_values(gamma[k], slopes_to_b(raw[:, k]), model.knots)
        assert np.all(np.diff(values, axis=0) >= 0.0)
    for block in logits:
        probs = softmax(block)
        assert np.all(probs >= 0.0)
        assert np.all(np.abs(probs.sum(axis=0) - 1.0) < 1e-9)


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


# a discrete column of 9 levels and 9 latent dimensions: softmax and KL
# rows of 8 or more entries, which numpy sums in another order than short ones
LONG_ROW_SCHEMA = Schema((
    ColumnSpec("x", "continuous"),
    ColumnSpec("k", "discrete", tuple("abcdefghi")),
    ColumnSpec("y", "ordinal"),
))
# feature-major elbo_grads against the row-major reference: only the order
# of sums and products differs, so each loss part and the whole gradient
# agree to this relative tolerance (measured: 2e-16 and 4e-16 of the largest
# gradient entry on the toy at 256 rows)
STEP_RTOL = 1e-13


@pytest.mark.parametrize("schema, latent_dim", [(toy_schema(), 2), (LONG_ROW_SCHEMA, 9)], ids=["toy", "long-rows"])
@pytest.mark.parametrize("n", [1, 37, 256])
def test_elbo_grads_match_the_row_major_reference(schema, latent_dim, n):
    rng = np.random.default_rng(n)
    model = random_model(schema, seed=n, latent_dim=latent_dim)
    rows = random_rows(schema, rng, n)
    noise = rng.standard_normal((n, latent_dim))
    got, grads = elbo_grads(model, rows, noise)
    want, ref = row_major_elbo_grads(model, rows, noise)
    for field in ("crps", "discrete", "kl", "total"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=STEP_RTOL, abs=0.0)
    assert np.max(np.abs(grads - ref)) <= STEP_RTOL * np.max(np.abs(ref))


def test_backward_into_out_matches_the_allocating_call_bit_for_bit():
    # the encoder without its input gradient, and the decoder, each into its
    # slice of one gradient vector and into a vector allocated for the call
    rng = np.random.default_rng(21)
    model = random_model(seed=21)
    rows = random_rows(MIX_SCHEMA, rng, 37)
    mu, log_var, enc_cache = encode_batch(model, rows)
    dec_out, dec_cache = mlp_forward(model.decoder, mu)
    d_dec = rng.normal(size=dec_out.shape)
    d_enc = rng.normal(size=(2 * mu.shape[0], 37))
    grad = np.full(model.params.size, np.nan)
    split = model.encoder_size
    dz, dec_grad = mlp_backward(model.decoder, dec_cache, d_dec.copy(), out=grad[split:])
    want_dz, want_dec = mlp_backward(model.decoder, dec_cache, d_dec.copy(), out=np.empty(grad.size - split))
    assert np.shares_memory(dec_grad, grad) and dec_grad.tobytes() == want_dec.tobytes()
    assert dz.tobytes() == want_dz.tobytes()
    none, enc_grad = mlp_backward(model.encoder, enc_cache, d_enc.copy(), input_grad=False, out=grad[:split])
    assert none is None and np.shares_memory(enc_grad, grad)
    fresh = np.empty(split)
    assert mlp_backward(model.encoder, enc_cache, d_enc.copy(), input_grad=False, out=fresh)[1] is fresh
    assert enc_grad.tobytes() == fresh.tobytes()
    assert grad.tobytes() == np.concatenate([enc_grad, dec_grad]).tobytes()
    with pytest.raises(ValueError, match=rf"^out must have shape \({split},\) to hold the gradient, got \({split + 1},\)$"):
        mlp_backward(model.encoder, enc_cache, d_enc, input_grad=False, out=grad[: split + 1])


def test_elbo_grads_peak_memory_at_the_wide_benchmark_shape():
    # 40 numeric and 10 discrete columns, a batch of 256: 5.29 MiB while the
    # slope chain and each network's gradient were fresh arrays copied into
    # place, 4.84 MiB written in place
    table = standardize(load_bench_inputs().make_wide_table(1, n=256))
    config = TrainConfig(seed=1)
    model = model_init(table.schema, config, np.random.default_rng(1))
    noise = np.random.default_rng(2).standard_normal((256, config.latent_dim))
    elbo_grads(model, table.rows, noise)  # the model's cached properties
    tracemalloc.start()
    try:
        elbo_grads(model, table.rows, noise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.0 * 2**20


def test_200_toy_steps_stay_within_1e_12_of_the_row_major_reference():
    # Adam steps from one init on the same batches and noise; the two steps
    # differ in the last bits only (measured: 2.2e-16 after 200 steps)
    table = standardize(make_toy_table(2000, seed=5))
    config = TrainConfig(seed=11)
    model = model_init(table.schema, config, np.random.default_rng(11))
    reference = replace(model, params=model.params.copy())
    shapes = [a.shape for net in (model.encoder, model.decoder) for layer in net for a in layer]
    adam, ref_adam = adam_init(shapes, config.learning_rate), adam_init(shapes, config.learning_rate)
    rng = np.random.default_rng(12)
    for _ in range(200):
        batch = table.rows[rng.choice(table.n_rows, 256, replace=False)]
        noise = rng.standard_normal((256, 2))
        adam_step(model.params, elbo_grads(model, batch, noise)[1], adam)
        adam_step(reference.params, row_major_elbo_grads(reference, batch, noise)[1], ref_adam)
    assert np.max(np.abs(model.params - reference.params)) <= 1e-12


def test_elbo_grads_numeric_head_bias_gradients_match_the_exact_integral():
    # the encoder's output layer zeroed gives mu = log_var = 0, so z = noise exactly;
    # in file order, each numeric column p owns decoder outputs p*(M+1) (gamma) to p*(M+1) + M
    m, n = 4, 12
    model = random_model(seed=3, knot_count=m, hidden_width=9)
    for a in model.encoder[-1]:
        a[...] = 0.0
    rng = np.random.default_rng(11)
    rows = random_rows(MIX_SCHEMA, rng, n)
    rows[:, :2] = rng.uniform(-0.5, 1.5, (n, 2))  # about half inside D's range, half clamped
    noise = rng.standard_normal((n, 2))
    _, grads = elbo_grads(model, rows, noise)
    (w1, b1), (w2, b2) = file_order_decoder(model)
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
    got = grads[grads.size - b2.size :][np.argsort(head_order(MIX_SCHEMA, m))][: want.size]
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
    # the loss never feeds the gradient: moving each spline's loss by a few
    # ulps, as another order of its segment sum would, moves at most the last
    # bits of the loss trace and no bit of the trained parameters
    table = gaussian_table()
    config = TrainConfig(seed=15, epochs=2, batch_size=64, knot_count=17)
    plain = train(table, config)
    calls = []
    crps_loss_batch = spline.crps_loss_batch

    def nudged(*args):
        calls.append(args[1].shape)
        loss, d_gamma, d_s = crps_loss_batch(*args)
        return loss * (1.0 + 2.0**-40), d_gamma, d_s

    monkeypatch.setattr(spline, "crps_loss_batch", nudged)
    reference = train(table, config)
    assert calls
    assert plain.params.tobytes() == reference.params.tobytes()
    assert any(got.crps != want.crps for got, want in zip(plain.loss_trace, reference.loss_trace))
    for got, want in zip(plain.loss_trace, reference.loss_trace):
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
    out, _ = mlp_forward(cp.decoder, np.zeros((2, 1)))
    assert out.shape == (decoder_width(cp.schema, cp.config.knot_count), 1)
    gamma, _, logits = decoder_heads(cp.schema, cp.config.knot_count, out)
    assert gamma.shape[0] == 1 and len(logits) == 1
