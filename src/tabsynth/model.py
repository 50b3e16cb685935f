"""Variational autoencoder over tables with distribution-valued decoders.

The encoder maps a one-hot encoded row to a diagonal Gaussian over the
latent space. The decoder maps a latent point to, per numeric column, a
spline quantile function (so each column gets a full conditional
distribution, not a point estimate) and, per discrete column, softmax
level probabilities. Training minimizes

    mean over rows of [ sum_numeric crps/2 + sum_discrete cross_entropy ]
    + beta * mean KL(q(z|x) || N(0, I))

with one reparameterized latent sample per row. All gradients are exact
and hand-derived; see tests for the finite-difference checks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data import Schema, ScalingStats, Table, one_hot_matrix
from .nn import ACT_IDENTITY, ACT_RELU, Mlp, adam_init, adam_step, mlp_backward, mlp_forward, mlp_init, mlp_params
from . import spline as sp


@dataclass(frozen=True)
class TrainConfig:
    seed: int
    epochs: int = 100
    batch_size: int = 256
    learning_rate: float = 0.001
    beta: float = 0.5
    latent_dim: int = 2
    knot_count: int = 10
    hidden_width: int = 32

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.learning_rate <= 0 or self.beta <= 0:
            raise ValueError("learning_rate and beta must be positive")
        if self.latent_dim < 1 or self.knot_count < 1 or self.hidden_width < 1:
            raise ValueError("latent_dim, knot_count and hidden_width must be positive")


@dataclass(frozen=True)
class LossBreakdown:
    crps: float
    discrete: float
    kl: float
    total: float


@dataclass(frozen=True)
class VaeModel:
    schema: Schema
    config: TrainConfig
    encoder: Mlp
    decoder: Mlp

    @property
    def knots(self) -> np.ndarray:
        return sp.uniform_knots(self.config.knot_count)


@dataclass(frozen=True)
class Checkpoint(VaeModel):
    """A trained model plus everything needed to resume sampling: the scaling,
    the per-numeric-column 1%/99% quantiles of the standardized training data
    (used as the default evaluation grid), and the loss trace. The file
    format version is not a field: checkpoint.checkpoint_to_text writes
    checkpoint.CHECKPOINT_FORMAT_VERSION, and loading rejects any other."""

    scaling: ScalingStats
    quantile_lo: np.ndarray
    quantile_hi: np.ndarray
    loss_trace: list[LossBreakdown]


def decoder_width(schema: Schema, knot_count: int) -> int:
    per_numeric = knot_count + 2  # gamma plus one raw slope per knot
    return len(schema.numeric_indices) * per_numeric + sum(
        schema.columns[i].n_levels for i in schema.discrete_indices
    )


def decoder_heads(schema: Schema, knot_count: int, dec_out: np.ndarray):
    """Views, not copies, of decoder outputs (n, decoder_width): gamma (n, P) and
    raw slopes (n, P, M+1) for the P numeric columns, each owning M+2 adjacent
    outputs with gamma first, then one (n, t) logit block per discrete column."""
    n, p = dec_out.shape[0], len(schema.numeric_indices)
    pos = p * (knot_count + 2)
    numeric = dec_out[:, :pos].reshape(n, p, knot_count + 2)
    logits = []
    for i in schema.discrete_indices:
        t = schema.columns[i].n_levels
        logits.append(dec_out[:, pos : pos + t])
        pos += t
    return numeric[:, :, 0], numeric[:, :, 1:], logits


def model_init(schema: Schema, config: TrainConfig, rng: np.random.Generator) -> VaeModel:
    d = config.latent_dim
    encoder = mlp_init(
        [schema.encoded_width, config.hidden_width, 2 * d],
        [ACT_RELU, ACT_IDENTITY],
        rng,
    )
    decoder = mlp_init(
        [d, config.hidden_width, decoder_width(schema, config.knot_count)],
        [ACT_RELU, ACT_IDENTITY],
        rng,
    )
    return VaeModel(schema=schema, config=config, encoder=encoder, decoder=decoder)


def encode_batch(model: VaeModel, rows: np.ndarray):
    """Posterior parameters for a batch of rows: (mu, log_var), each (n, d)."""
    x = one_hot_matrix(model.schema, rows)
    out, cache = mlp_forward(model.encoder, x)
    d = model.config.latent_dim
    return out[:, :d], out[:, d:], cache


def _kl_rows(mu, log_var):
    """Per-row KL(N(mu, diag sigma^2) || N(0, I)) = 0.5 sum(mu^2 + sigma^2 - log sigma^2 - 1)."""
    return 0.5 * np.sum(mu * mu + np.exp(log_var) - log_var - 1.0, axis=1)


def _elbo_forward(model: VaeModel, rows: np.ndarray, noise: np.ndarray):
    rows = np.asarray(rows, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    n = rows.shape[0]
    if noise.shape != (n, model.config.latent_dim):
        raise ValueError(
            f"noise must have shape {(n, model.config.latent_dim)}, got {noise.shape}"
        )
    mu, log_var, enc_cache = encode_batch(model, rows)
    sigma = np.exp(log_var / 2.0)
    z = mu + sigma * noise
    dec_out, dec_cache = mlp_forward(model.decoder, z)

    schema = model.schema
    knots = model.knots
    gamma, raw, logits = decoder_heads(schema, model.config.knot_count, dec_out)

    # every (column, row) pair in one pass, column-major, so that each
    # column's loss is summed on its own and added in column order
    raw_flat = raw.transpose(1, 0, 2).reshape(gamma.size, knots.size)
    x = rows[:, schema.numeric_indices].T.ravel()
    loss, alpha, _ = sp.crps_loss_batch(gamma.T.ravel(), sp.slopes_to_b(raw_flat), knots, x)
    crps_sum = 0.0
    for column_loss in loss.reshape(gamma.shape[1], n).sum(axis=1):
        crps_sum += 0.5 * column_loss

    ce_sum = 0.0
    discrete_parts = []
    for block, col in zip(logits, schema.discrete_indices):
        shifted = block - block.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        norm = e.sum(axis=1)
        idx = rows[:, col].astype(np.intp)
        ce = np.log(norm) - shifted[np.arange(n), idx]
        ce_sum += ce.sum()
        discrete_parts.append((idx, e / norm[:, None]))

    kl = _kl_rows(mu, log_var)
    breakdown = LossBreakdown(
        crps=crps_sum / n,
        discrete=ce_sum / n,
        kl=float(kl.mean()),
        total=crps_sum / n + ce_sum / n + model.config.beta * float(kl.mean()),
    )
    state = dict(
        n=n, mu=mu, log_var=log_var, sigma=sigma, noise=noise,
        enc_cache=enc_cache, dec_cache=dec_cache, dec_out=dec_out,
        raw_flat=raw_flat, alpha=alpha, discrete_parts=discrete_parts, knots=knots,
    )
    return breakdown, state


def elbo_loss(model: VaeModel, rows: np.ndarray, noise: np.ndarray) -> LossBreakdown:
    """Training objective on a batch with frozen reparameterization noise."""
    breakdown, _ = _elbo_forward(model, rows, noise)
    return breakdown


def elbo_grads(model: VaeModel, rows: np.ndarray, noise: np.ndarray):
    """Loss plus exact gradients for every encoder and decoder parameter,
    ordered as mlp_params(encoder) + mlp_params(decoder)."""
    breakdown, st = _elbo_forward(model, rows, noise)
    n = st["n"]
    knots = st["knots"]
    beta = model.config.beta

    d_dec = np.zeros_like(st["dec_out"])
    d_gamma, d_raw, d_logits = decoder_heads(model.schema, model.config.knot_count, d_dec)
    # closed-form gradient, scaled by the 1/2 on the loss and the batch mean
    p = d_gamma.shape[1]
    dg, db = sp.crps_grad_from_alpha(st["alpha"], knots)
    d_gamma[...] = (dg * (0.5 / n)).reshape(p, n).T
    d_raw[...] = sp.chain_slope_grads(db * (0.5 / n), st["raw_flat"]).reshape(p, n, knots.size).transpose(1, 0, 2)
    for d_block, (idx, probs) in zip(d_logits, st["discrete_parts"]):
        probs[np.arange(n), idx] -= 1.0  # probs is this call's own, not read again
        d_block[...] = probs / n

    dz, dec_tape = mlp_backward(model.decoder, st["dec_cache"], d_dec)

    d_mu = dz + beta * st["mu"] / n
    d_log_var = dz * 0.5 * st["sigma"] * st["noise"] + beta * 0.5 * (np.exp(st["log_var"]) - 1.0) / n
    d_enc_out = np.concatenate([d_mu, d_log_var], axis=1)
    _, enc_tape = mlp_backward(model.encoder, st["enc_cache"], d_enc_out)

    return breakdown, enc_tape + dec_tape


def train(table: Table, config: TrainConfig, progress=None) -> Checkpoint:
    """Fit the model on a standardized table and package a checkpoint.

    The row order is reshuffled every epoch from a generator seeded by
    config.seed, which (with the seeded init and per-batch noise) makes the
    whole run reproducible. progress, if given, is called with
    (epoch, LossBreakdown) after each epoch. A non-finite gradient raises
    FloatingPointError naming the 1-based epoch, the step within it and the
    loss parts of that step's batch.
    """
    if table.scaling is None:
        raise ValueError("train requires a standardized table (call standardize first)")
    if table.n_rows < 2:
        raise ValueError("train needs at least 2 rows")
    rng = np.random.default_rng(config.seed)
    model = model_init(table.schema, config, rng)
    params = mlp_params(model.encoder) + mlp_params(model.decoder)
    adam = adam_init(params, lr=config.learning_rate)

    rows = table.rows
    n = table.n_rows
    d = config.latent_dim
    trace = []
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        sums = np.zeros(3)
        for step, start in enumerate(range(0, n, config.batch_size), start=1):
            batch = rows[perm[start : start + config.batch_size]]
            noise = rng.standard_normal((batch.shape[0], d))
            # a diverging step overflows on its way to a non-finite gradient;
            # adam_step's check turns that into the one error raised below
            with np.errstate(over="ignore", invalid="ignore"):
                breakdown, grads = elbo_grads(model, batch, noise)
                try:
                    adam_step(params, grads, adam)
                except FloatingPointError as err:
                    parts = ", ".join(f"{k}={v:.6g}" for k, v in asdict(breakdown).items())
                    raise FloatingPointError(
                        f"training diverged at epoch {epoch + 1}, step {step} (batch loss {parts}): {err}"
                    ) from err
            sums += np.array([breakdown.crps, breakdown.discrete, breakdown.kl]) * batch.shape[0]
        crps, disc, kl = sums / n
        epoch_loss = LossBreakdown(
            crps=float(crps), discrete=float(disc), kl=float(kl),
            total=float(crps + disc + config.beta * kl),
        )
        trace.append(epoch_loss)
        if progress is not None:
            progress(epoch, epoch_loss)

    numeric = table.schema.numeric_indices
    lo = np.quantile(rows[:, numeric], 0.01, axis=0) if numeric else np.empty(0)
    hi = np.quantile(rows[:, numeric], 0.99, axis=0) if numeric else np.empty(0)
    return Checkpoint(
        schema=table.schema,
        scaling=table.scaling,
        config=config,
        encoder=model.encoder,
        decoder=model.decoder,
        quantile_lo=np.atleast_1d(lo),
        quantile_hi=np.atleast_1d(hi),
        loss_trace=trace,
    )
