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

from .data import KIND_DISCRETE, KIND_ORDINAL, Table, check_integer
from .model import Checkpoint, decoder_heads
from .nn import mlp_forward, softmax
from . import spline as sp

ROUND_INTEGER = "integer"
ROUND_DECIMAL = "decimal"


def sample_prior(n: int, latent_dim: int, seed: int) -> np.ndarray:
    """n independent draws from N(0, I_latent_dim)."""
    check_integer("n", n, 1)
    check_integer("latent_dim", latent_dim, 1)
    check_integer("seed", seed, 0)
    return np.random.default_rng(seed).standard_normal((n, latent_dim))


def gumbel_max(probs: np.ndarray, gumbel_noise: np.ndarray) -> np.ndarray:
    """Categorical draws via argmax of log probs plus Gumbel noise, one per
    column of (t, ...) probability arrays, over axis 0.

    Ties resolve to the lowest index (argmax convention).
    """
    probs = np.asarray(probs, dtype=np.float64)
    noise = np.asarray(gumbel_noise, dtype=np.float64)
    if probs.shape != noise.shape or probs.ndim < 1:
        raise ValueError("probs and gumbel_noise must be arrays with equal shapes")
    # each property must hold: a comparison with NaN is false, so NaN fails it
    if not (np.all(probs >= 0) and np.all(np.abs(probs.sum(axis=0) - 1.0) <= 1e-6)):
        raise ValueError("probs must hold probability vectors along axis 0")
    with np.errstate(divide="ignore"):
        scores = np.log(probs) + noise
    return np.argmax(scores, axis=0)


def _check_rounding(mode: str) -> None:
    if mode not in (ROUND_INTEGER, ROUND_DECIMAL):
        raise ValueError(f"unknown ordinal rounding mode {mode!r}")


def round_ordinal(value, mode: str = ROUND_INTEGER):
    """Post-process a generated ordinal value (in native units).

    integer: snap to the nearest integer level. decimal: keep one decimal
    place (finer than integer levels, as some pipelines use).
    """
    _check_rounding(mode)
    return np.round(value, 1 if mode == ROUND_DECIMAL else 0)


PAGE_ROWS = 2**10  # rows per page of generate: one generator and one decoder pass each


def generate(cp: Checkpoint, n: int, seed: int, ordinal_rounding: str = ROUND_INTEGER) -> Table:
    """Draw n synthetic rows in native units.

    Page p of PAGE_ROWS rows draws from its own generator, seeded with
    SeedSequence(seed, spawn_key=(p,)), always for a whole page and in this
    order: the latents, the uniform levels of the numeric columns, then the
    Gumbel noise of each discrete column in turn. Every page is decoded at
    PAGE_ROWS rows (OpenBLAS multiplies a batch of few rows in a kernel
    that rounds differently) and only the rows asked for are kept. So
    generate(cp, n, s) is the first n rows of generate(cp, n + k, s), and
    memory beyond the output does not grow with n.
    """
    check_integer("n", n, 0)
    check_integer("seed", seed, 0)
    _check_rounding(ordinal_rounding)
    schema = cp.schema
    numeric = schema.numeric_indices
    rows = np.zeros((n, len(schema.columns)))
    knots, widths = cp.knots.column[:-1, :, None], cp.knots.widths[:, :, None]
    stddev, mean = cp.scaling.stddev[:, None], cp.scaling.mean[:, None]
    # one hinge buffer for all pages, so malloc maps it once, in the decoder's
    # own feature-major (M, P, rows) layout: segment m, numeric column p, row r
    buffer = np.empty((knots.size, len(numeric), PAGE_ROWS))
    # an overflowing decoder gives inf and NaN outputs; gumbel_max's check
    # or Table's finiteness check turns them into the one error raised
    with np.errstate(over="ignore", invalid="ignore"):
        for page, start in enumerate(range(0, n, PAGE_ROWS)):
            out = rows[start : start + PAGE_ROWS]
            count = len(out)
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(page,)))
            latent = rng.standard_normal((PAGE_ROWS, cp.config.latent_dim))
            u = rng.random((PAGE_ROWS, len(numeric)))[:count]
            dec_out, _ = mlp_forward(cp.decoder, latent.T)
            gamma, raw, logits = decoder_heads(schema, cp.config.knot_count, dec_out[:, :count])
            # the part of each segment below u: clip(u - d_m, 0, d_{m+1} - d_m)
            hinge = buffer[:, :, :count]
            np.subtract(u.T, knots, out=hinge)
            np.clip(hinge, 0.0, widths, out=hinge)
            hinge *= sp.slopes_to_b(raw)
            # back to native units, then snap ordinals to their level grid
            values = (gamma + hinge.sum(axis=0)) * stddev + mean
            for k, col in enumerate(numeric):
                if schema.columns[col].kind == KIND_ORDINAL:
                    values[k] = round_ordinal(values[k], ordinal_rounding)
            out[:, numeric] = values.T
            for scores, col in zip(logits, schema.discrete_indices):
                noise = rng.gumbel(size=(PAGE_ROWS, scores.shape[0]))[:count]
                try:
                    out[:, col] = gumbel_max(softmax(scores), noise.T)
                except ValueError as err:
                    raise ValueError(f"column {schema.columns[col].name!r}: {err}") from None
    rows.flags.writeable = False
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
        # each property must hold: a comparison with NaN is false, so NaN fails it
        if not np.all(np.isfinite(grid)):
            raise ValueError("grid must be finite")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        if not (np.all(values >= 0) and np.all(values <= 1) and np.all(np.diff(values) >= 0)):
            raise ValueError("cdf values must be non-decreasing within [0, 1]")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


def estimate_cdf(cp: Checkpoint, column: str, grid=None, n_mc: int = 5000, seed: int = 0) -> CdfCurve:
    """Monte Carlo estimate of a numeric column's marginal CDF.

    F(x) is the prior-average of the decoded quantile function's inverse at
    x, evaluated over n_mc latent draws. The draws are decoded and their
    knot values built once; each grid point then costs one inverse over the
    draws. x values are in standardized units; the default grid spans the
    column's 1%-99% training range, or the draws' own range when one value
    fills it (a zero-inflated column).
    """
    check_integer("n_mc", n_mc, 1)
    schema = cp.schema
    j = schema.index(column)
    if schema.columns[j].kind == KIND_DISCRETE:
        raise ValueError(f"column {column!r} is discrete; its CDF is not spline-based")
    k = schema.numeric_indices.index(j)
    z = sample_prior(n_mc, cp.config.latent_dim, seed)
    dec_out, _ = mlp_forward(cp.decoder, z.T)
    gamma, raw, _ = decoder_heads(schema, cp.config.knot_count, dec_out)
    s = sp.slopes_to_b(raw[:, k])
    values = sp.knot_values(gamma[k], s, cp.knots)
    if grid is None:
        lo, hi = cp.quantile_lo[k], cp.quantile_hi[k]
        if lo == hi:  # one value fills the 1%-99% range: span the draws instead
            lo, hi = values[0].min(), values[-1].max()
        grid = np.linspace(lo, hi, 201)
    grid = np.asarray(grid, dtype=np.float64)
    cdf = np.empty_like(grid)
    for i, x in enumerate(grid):
        cdf[i] = sp.spline_inverse_batch(values, s, cp.knots, np.full(n_mc, x)).mean()
    # each per-draw inverse is monotone in x; guard the mean against round-off
    cdf = np.minimum(np.maximum.accumulate(cdf), 1.0)
    return CdfCurve(grid=grid, values=cdf)
