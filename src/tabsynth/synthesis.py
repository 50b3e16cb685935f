"""Sampling synthetic rows and estimating distribution functions.

Generation is inverse-transform sampling: draw z from the standard normal
prior, decode it, then push an independent uniform level through each
numeric column's quantile function and a Gumbel-Max draw through each
discrete column's probabilities. Privacy/fidelity trade-offs are
controlled at train time (beta); generation itself has no knobs beyond n
and the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import KIND_DISCRETE, KIND_ORDINAL, Table
from .model import Checkpoint, decoder_heads
from .nn import mlp_forward, softmax
from . import spline as sp

ROUND_INTEGER = "integer"
ROUND_DECIMAL = "decimal"


def sample_prior(n: int, latent_dim: int, seed: int) -> np.ndarray:
    """n independent draws from N(0, I_latent_dim)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if latent_dim < 1:
        raise ValueError("latent_dim must be at least 1")
    return np.random.default_rng(seed).standard_normal((n, latent_dim))


def gumbel_max(probs: np.ndarray, gumbel_noise: np.ndarray) -> np.ndarray:
    """Categorical draws via argmax of log probs plus Gumbel noise, one per
    row of (..., t) probability arrays, over the last axis.

    Ties resolve to the lowest index (argmax convention).
    """
    probs = np.asarray(probs, dtype=np.float64)
    noise = np.asarray(gumbel_noise, dtype=np.float64)
    if probs.shape != noise.shape or probs.ndim < 1:
        raise ValueError("probs and gumbel_noise must be arrays with equal shapes")
    if np.any(probs < 0) or np.any(np.abs(probs.sum(axis=-1) - 1.0) > 1e-6):
        raise ValueError("probs must hold probability vectors along the last axis")
    with np.errstate(divide="ignore"):
        scores = np.log(probs) + noise
    return np.argmax(scores, axis=-1)


def round_ordinal(value, mode: str = ROUND_INTEGER):
    """Post-process a generated ordinal value (in native units).

    integer: snap to the nearest integer level. decimal: keep one decimal
    place (the coarser treatment some pipelines use).
    """
    if mode == ROUND_INTEGER:
        return np.round(value)
    if mode == ROUND_DECIMAL:
        return np.round(value, 1)
    raise ValueError(f"unknown ordinal rounding mode {mode!r}")


def generate(cp: Checkpoint, n: int, seed: int, ordinal_rounding: str = ROUND_INTEGER) -> Table:
    """Draw n synthetic rows in native units.

    The random stream is consumed in a fixed order (latents, then uniform
    levels for numeric columns, then Gumbel noise per discrete column), so
    identical (checkpoint, n, seed) give identical tables.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    schema = cp.schema
    rows = np.zeros((n, len(schema.columns)))
    if n > 0:
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, cp.config.latent_dim))
        dec_out, _ = mlp_forward(cp.decoder, z)
        gamma, raw, logits = decoder_heads(schema, cp.config.knot_count, dec_out)
        knots = cp.knots

        # one column at a time: b for all columns at once would hold n x P x (M+1)
        u = rng.random((n, len(schema.numeric_indices)))
        for k, col in enumerate(schema.numeric_indices):
            b = sp.slopes_to_b(raw[:, k])
            hinge = np.maximum(u[:, k : k + 1] - knots[None, :], 0.0)
            rows[:, col] = gamma[:, k] + np.sum(b * hinge, axis=1)

        for block, col in zip(logits, schema.discrete_indices):
            probs = softmax(block)
            rows[:, col] = gumbel_max(probs, rng.gumbel(size=probs.shape))

        # back to native units, then snap ordinals to their level grid
        numeric = schema.numeric_indices
        rows[:, numeric] = rows[:, numeric] * cp.scaling.stddev + cp.scaling.mean
        for col in numeric:
            if schema.columns[col].kind == KIND_ORDINAL:
                rows[:, col] = round_ordinal(rows[:, col], ordinal_rounding)
    return Table(schema=schema, rows=rows, scaling=None)


@dataclass(frozen=True)
class CdfCurve:
    """Estimated distribution function on a grid of standardized x values."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if grid.shape != values.shape or grid.ndim != 1:
            raise ValueError("grid and values must be 1-D with equal shapes")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(values < 0) or np.any(values > 1) or np.any(np.diff(values) < 0):
            raise ValueError("cdf values must be non-decreasing within [0, 1]")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


def estimate_cdf(cp: Checkpoint, column: str, grid=None, n_mc: int = 5000, seed: int = 0) -> CdfCurve:
    """Monte Carlo estimate of a numeric column's marginal CDF.

    F(x) is the prior-average of the decoded quantile function's inverse at
    x, evaluated over n_mc latent draws. x values are in standardized
    units; the default grid spans the column's 1%-99% training range.
    """
    if n_mc < 1:
        raise ValueError("n_mc must be at least 1")
    schema = cp.schema
    j = schema.index(column)
    if schema.columns[j].kind == KIND_DISCRETE:
        raise ValueError(f"column {column!r} is discrete; its CDF is not spline-based")
    k = schema.numeric_indices.index(j)
    z = sample_prior(n_mc, cp.config.latent_dim, seed)
    dec_out, _ = mlp_forward(cp.decoder, z)
    gamma, raw, _ = decoder_heads(schema, cp.config.knot_count, dec_out)
    gamma, b, knots = gamma[:, k], sp.slopes_to_b(raw[:, k]), cp.knots
    if grid is None:
        grid = np.linspace(cp.quantile_lo[k], cp.quantile_hi[k], 201)
    grid = np.asarray(grid, dtype=np.float64)
    values = np.empty_like(grid)
    for i, x in enumerate(grid):
        alpha, _ = sp.spline_inverse_batch(gamma, b, knots, np.full(gamma.shape[0], x))
        values[i] = alpha.mean()
    # each per-draw inverse is monotone in x; guard the mean against round-off
    values = np.minimum(np.maximum.accumulate(values), 1.0)
    return CdfCurve(grid=grid, values=values)
