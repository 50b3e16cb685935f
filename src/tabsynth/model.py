"""Variational autoencoder over tables with distribution-valued decoders.

The encoder maps a one-hot encoded row to a diagonal Gaussian over the
latent space. The decoder maps a latent point to, per numeric column, a
spline quantile function (so each column gets a full conditional
distribution, not a point estimate) and, per discrete column, softmax
level probabilities. Training minimizes

    mean over rows of [ sum_numeric crps/2 + sum_discrete cross_entropy ]
    + beta * mean KL(q(z|x) || N(0, I))

with one reparameterized latent sample per row. elbo_grads gives a batch's
loss and its exact, hand-derived gradient; tests check it by finite differences.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import zip_longest

import numpy as np

from .data import OUTLIER_QUANTILES, Schema, ScalingStats, Table, one_hot_matrix
from .nn import (
    Mlp, adam_init, adam_step, last_axis_max, last_axis_sum, layer_views, mlp_backward,
    mlp_forward, mlp_init,
)
from . import spline as sp


def check_seed(seed: int) -> None:
    """numpy seeds must be non-negative; say so by name, not numpy's way."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def _describe(spec) -> str:
    if spec is None:
        return "no column"
    levels = f": {'|'.join(spec.levels)}" if spec.levels else ""
    return f"{spec.name!r} ({spec.kind}{levels})"


def check_schema(trained: Schema, given: Schema, where: str, given_name: str) -> None:
    """Raise a ValueError naming the first column in which the schema given
    differs from trained, the schema of a checkpoint; where and given_name
    say whose checkpoint and schema they are."""
    for i, (mine, theirs) in enumerate(zip_longest(trained.columns, given.columns), start=1):
        if mine != theirs:
            raise ValueError(
                f"{where}: the checkpoint's column {i} is {_describe(mine)}, "
                f"{given_name} has {_describe(theirs)}"
            )


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
        check_seed(self.seed)
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        for name in ("learning_rate", "beta"):
            if not 0 < getattr(self, name) < np.inf:  # false for NaN too
                raise ValueError(f"{name} must be a finite positive number, got {getattr(self, name)!r}")
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
    """params is the model's one flat parameter vector: the encoder's layers,
    then the decoder's, as nn.layer_views reads them; encoder and decoder are
    views into it."""

    schema: Schema
    config: TrainConfig
    params: np.ndarray

    @cached_property
    def knots(self) -> np.ndarray:
        return sp.uniform_knots(self.config.knot_count)

    @cached_property
    def encoder(self) -> Mlp:
        return layer_views(net_sizes(self.schema, self.config)[0], self.params)

    @cached_property
    def decoder(self) -> Mlp:
        start = sum(a.size for layer in self.encoder for a in layer)
        return layer_views(net_sizes(self.schema, self.config)[1], self.params[start:])


@dataclass(frozen=True)
class Checkpoint(VaeModel):
    """A trained model plus everything needed to resume sampling: the scaling,
    the per-numeric-column data.OUTLIER_QUANTILES (1%/99%) of the standardized
    training data (used as the default evaluation grid), and the loss trace.
    The file format version is not a field: checkpoint.checkpoint_to_text
    writes checkpoint.CHECKPOINT_FORMAT_VERSION (2), the only version that
    loading reads."""

    scaling: ScalingStats
    quantile_lo: np.ndarray
    quantile_hi: np.ndarray
    loss_trace: list[LossBreakdown]


def decoder_width(schema: Schema, knot_count: int) -> int:
    return len(schema.numeric_indices) * (knot_count + 1) + sum(
        schema.columns[i].n_levels for i in schema.discrete_indices
    )


def decoder_heads(schema: Schema, knot_count: int, dec_out: np.ndarray):
    """Views, not copies, of decoder outputs (n, decoder_width): gamma (n, P) and
    raw segment slopes (n, P, M) for the P numeric columns, each owning M+1
    adjacent outputs (gamma, then the slopes), then one (n, t) logit block
    per discrete column."""
    n, p = dec_out.shape[0], len(schema.numeric_indices)
    pos = p * (knot_count + 1)
    numeric = dec_out[:, :pos].reshape(n, p, knot_count + 1)
    logits = []
    for i in schema.discrete_indices:
        t = schema.columns[i].n_levels
        logits.append(dec_out[:, pos : pos + t])
        pos += t
    return numeric[:, :, 0], numeric[:, :, 1:], logits


def net_sizes(schema: Schema, config: TrainConfig):
    """Layer widths [n_in, hidden, n_out] of the encoder and of the decoder."""
    d, h = config.latent_dim, config.hidden_width
    return (schema.encoded_width, h, 2 * d), (d, h, decoder_width(schema, config.knot_count))


def model_init(schema: Schema, config: TrainConfig, rng: np.random.Generator) -> VaeModel:
    """Glorot-uniform weights and zero biases, the encoder's drawn first. The
    decoder is drawn with the M+2 outputs per numeric column p it had before
    checkpoint format 2, then the last layer's row p*(M+2) + M+1 is dropped,
    so every seed keeps its weights."""
    encoder_sizes, (d, h, width) = net_sizes(schema, config)
    encoder = mlp_init(encoder_sizes, rng)
    p, m = len(schema.numeric_indices), config.knot_count
    sizes = (d, h, width + p)
    (w1, b1), (w2, b2) = layer_views(sizes, mlp_init(sizes, rng))
    dead = np.arange(p) * (m + 2) + m + 1
    params = np.concatenate([encoder, w1.ravel(), b1, np.delete(w2, dead, axis=0).ravel(), np.delete(b2, dead)])
    return VaeModel(schema=schema, config=config, params=params)


def encode_batch(model: VaeModel, rows: np.ndarray):
    """Posterior parameters for a batch of rows: (mu, log_var), each (n, d)."""
    x = one_hot_matrix(model.schema, rows)
    out, cache = mlp_forward(model.encoder, x)
    d = model.config.latent_dim
    return out[:, :d], out[:, d:], cache


def elbo_grads(model: VaeModel, rows: np.ndarray, noise: np.ndarray):
    """A training step's LossBreakdown on a batch with frozen reparameterization
    noise, and its exact gradient, a flat vector laid out like model.params.
    All (row, numeric column) splines go through the loss in one knot-major
    pass, spline r * P + p for row r and numeric column p."""
    rows = np.asarray(rows, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    n = rows.shape[0]
    if noise.shape != (n, model.config.latent_dim):
        raise ValueError(
            f"noise must have shape {(n, model.config.latent_dim)}, got {noise.shape}"
        )
    schema, knots, beta = model.schema, model.knots, model.config.beta
    mu, log_var, enc_cache = encode_batch(model, rows)
    # contiguous copies of the encoder output's two halves: numpy runs one
    # inner loop per row of a strided view, and a dozen ops read them
    mu, log_var = np.ascontiguousarray(mu), np.ascontiguousarray(log_var)
    sigma = np.exp(log_var / 2.0)
    dec_out, dec_cache = mlp_forward(model.decoder, mu + sigma * noise)
    gamma, raw, logits = decoder_heads(schema, model.config.knot_count, dec_out)

    m = knots.size - 1
    raw_km = raw.transpose(2, 0, 1).reshape(m, -1)
    x = rows[:, schema.numeric_indices].ravel()
    loss, dg, ds = sp.crps_loss_batch(gamma.ravel(), sp.slopes_to_b(raw_km), knots, x)
    crps_sum = 0.5 * loss.sum()

    # allocated only now, so it is not live during the loss pass's temporaries
    d_dec = np.zeros_like(dec_out)
    d_gamma, d_raw, d_logits = decoder_heads(schema, model.config.knot_count, d_dec)
    # closed-form gradient, scaled by the 1/2 on the loss and the batch mean
    np.multiply(dg.reshape(n, -1), 0.5 / n, out=d_gamma)
    ds *= 0.5 / n
    d_raw[...] = sp.chain_slope_grads(ds, raw_km).reshape(m, n, -1).transpose(1, 2, 0)

    ce_sum = 0.0
    row_starts = np.arange(n)
    for block, d_block, col in zip(logits, d_logits, schema.discrete_indices):
        e = block - last_axis_max(block)
        # each row's entry at its level, by one flat index into the (n, t) block
        picked = row_starts * block.shape[1] + rows[:, col].astype(np.intp)
        true_shifted = np.take(e, picked)
        np.exp(e, out=e)
        norm = last_axis_sum(e)
        ce_sum += (np.log(norm[:, 0]) - true_shifted).sum()
        e /= norm
        e.ravel()[picked] -= 1.0
        np.divide(e, n, out=d_block)

    # per row, KL(N(mu, diag sigma^2) || N(0, I)) = 0.5 sum(mu^2 + sigma^2 - log sigma^2 - 1)
    var = np.exp(log_var)
    kl = float((0.5 * last_axis_sum(mu * mu + var - log_var - 1.0)).sum() / n)
    breakdown = LossBreakdown(
        crps=crps_sum / n,
        discrete=ce_sum / n,
        kl=kl,
        total=crps_sum / n + ce_sum / n + beta * kl,
    )

    dz, dec_grad = mlp_backward(model.decoder, dec_cache, d_dec)
    d = mu.shape[1]
    d_enc = np.empty((n, 2 * d))
    np.add(dz, beta * mu / n, out=d_enc[:, :d])
    np.add(dz * 0.5 * sigma * noise, beta * 0.5 * (var - 1.0) / n, out=d_enc[:, d:])
    _, enc_grad = mlp_backward(model.encoder, enc_cache, d_enc)
    return breakdown, np.concatenate([enc_grad, dec_grad])


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
    shapes = [a.shape for net in (model.encoder, model.decoder) for layer in net for a in layer]
    adam = adam_init(shapes, lr=config.learning_rate)

    rows = table.rows
    n = table.n_rows
    d = config.latent_dim
    trace = []
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        crps = disc = kl = 0.0
        # a diverging step overflows on its way to a non-finite gradient;
        # adam_step's check turns that into the one error raised below
        with np.errstate(over="ignore", invalid="ignore"):
            for step, start in enumerate(range(0, n, config.batch_size), start=1):
                batch = rows[perm[start : start + config.batch_size]]
                noise = rng.standard_normal((batch.shape[0], d))
                breakdown, grads = elbo_grads(model, batch, noise)
                try:
                    adam_step(model.params, grads, adam)
                except FloatingPointError as err:
                    parts = ", ".join(f"{k}={v:.6g}" for k, v in asdict(breakdown).items())
                    raise FloatingPointError(
                        f"training diverged at epoch {epoch + 1}, step {step} (batch loss {parts}): {err}"
                    ) from err
                m = batch.shape[0]
                crps += breakdown.crps * m
                disc += breakdown.discrete * m
                kl += breakdown.kl * m
        crps, disc, kl = crps / n, disc / n, kl / n
        epoch_loss = LossBreakdown(
            crps=float(crps), discrete=float(disc), kl=float(kl),
            total=float(crps + disc + config.beta * kl),
        )
        trace.append(epoch_loss)
        if progress is not None:
            progress(epoch, epoch_loss)

    lo, hi = np.quantile(rows[:, table.schema.numeric_indices], OUTLIER_QUANTILES, axis=0)
    return Checkpoint(
        schema=table.schema,
        scaling=table.scaling,
        config=config,
        params=model.params,
        quantile_lo=lo,
        quantile_hi=hi,
        loss_trace=trace,
    )
