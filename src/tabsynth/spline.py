"""Linear isotonic spline quantile functions and their pinball-integral loss.

A decoder head for one numeric column parameterizes a quantile function

    D(a) = gamma + sum_m b_m * max(a - d_m, 0),   0 = d_0 < ... < d_M = 1,

which is piecewise linear in the quantile level a. Monotonicity holds iff
every partial sum of the b_m is non-negative; slopes_to_b guarantees that
by construction, mapping raw slopes through softplus to cumulative slopes
s_k and differencing (b_0 = s_0, b_m = s_m - s_{m-1}).

The training loss for an observation x is twice the integral over a of the
check function rho_a(x - D(a)), which this module evaluates in closed form,
with its exact gradient, for a batch of splines at once."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .nn import logistic, softplus

# Partial slope sums below this are treated as exactly flat when inverting.
_FLAT_EPS = 1e-300


def uniform_knots(count: int) -> np.ndarray:
    """count+1 equally spaced knots on [0, 1]."""
    if count < 1:
        raise ValueError("need at least 1 spline segment")
    return np.arange(count + 1, dtype=np.float64) / count


def slopes_to_b(slope_raw: np.ndarray) -> np.ndarray:
    """Map raw slope outputs (..., M+1) to hinge slopes with non-negative
    partial sums: cumulative slopes are softplus(raw), b is their difference."""
    s = softplus(slope_raw)
    b = np.empty_like(s)
    b[..., 0] = s[..., 0]
    b[..., 1:] = np.diff(s, axis=-1)
    return b


def knot_values(gamma: np.ndarray, b: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """D evaluated at every knot, for a batch: gamma (n,), b (n, M+1) -> (n, M+1)."""
    hinge = np.maximum(knots[None, :] - knots[:, None], 0.0)  # (M+1, M+1)
    return gamma[:, None] + b @ hinge


class InverseTable(NamedTuple):
    """The part of a batch of spline inverses that does not depend on x, one
    row per spline: gamma (n,), knots (M+1,), and (n, M+1) arrays of the knot
    values and the running sums of b and of b * knots."""

    gamma: np.ndarray
    knots: np.ndarray
    values: np.ndarray
    slope_sums: np.ndarray
    offset_sums: np.ndarray


def inverse_table(gamma, b, knots) -> InverseTable:
    """Build the x-independent table that spline_inverse_batch reads, once
    per batch of splines; any number of x batches can then be inverted."""
    return InverseTable(
        gamma=gamma,
        knots=knots,
        values=knot_values(gamma, b, knots),
        slope_sums=np.cumsum(b, axis=1),
        offset_sums=np.cumsum(b * knots[None, :], axis=1),
    )


def spline_inverse_batch(table: InverseTable, x):
    """Vectorized inverse over a batch of splines, one x per spline.

    Returns alpha_tilde, which solves D(alpha) = x on the segment m0 whose
    knot values bracket x:

        alpha_tilde = (x - gamma + sum_{m<=m0} b_m d_m) / sum_{m<=m0} b_m

    clamped to 0 below D(0) and to 1 above D(1). A flat segment (zero
    denominator) maps to its left knot, the left-continuous convention
    for a distribution function.
    """
    x = np.asarray(x, dtype=np.float64)
    values, knots = table.values, table.knots
    n, last = values.shape[0], values.shape[1] - 1
    below = x <= values[:, 0]
    above = x >= values[:, -1]
    seg = np.clip(np.sum(values < x[:, None], axis=1) - 1, 0, last - 1)
    rows = np.arange(n)
    den = table.slope_sums[rows, seg]
    num = x - table.gamma + table.offset_sums[rows, seg]
    flat = den <= _FLAT_EPS
    alpha = np.where(flat, knots[seg], num / np.where(flat, 1.0, den))
    alpha = np.clip(alpha, knots[seg], knots[seg + 1])
    alpha[below] = 0.0
    alpha[above] = 1.0
    return alpha


def _crps_terms(alpha, knots):
    """Per-knot factors of the closed-form integral: alpha (n,) -> (n, M+1)."""
    mx = np.maximum(alpha[:, None], knots[None, :])
    return (1.0 - knots**3) / 3.0 - knots - mx * mx + 2.0 * mx * knots


def crps_loss_batch(gamma, b, knots, x):
    """Closed-form 2 * integral of rho_a(x - D(a)) da for a batch of splines,
    and its exact gradient.

    Returns (loss (n,), d_gamma (n,), d_b (n, M+1)). With a_t = alpha_tilde:

        loss = (2 a_t - 1) x + (1 - 2 a_t) gamma
             + sum_m b_m [ (1 - d_m^3)/3 - d_m - max(a_t, d_m)^2 + 2 max(a_t, d_m) d_m ]

    where the sum runs over every knot m = 0 .. M. The loss is linear in gamma
    and b at fixed a_t, so the gradient's factors are the loss's own terms.
    """
    alpha = spline_inverse_batch(inverse_table(gamma, b, knots), x)
    d_gamma, d_b = crps_grad_from_alpha(alpha, knots)
    loss = (2.0 * alpha - 1.0) * x + d_gamma * gamma
    loss += np.sum(b * d_b, axis=1)
    return loss, d_gamma, d_b


def crps_grad_from_alpha(alpha: np.ndarray, knots: np.ndarray):
    """Gradient of the closed-form loss given a precomputed alpha_tilde.

    Returns (d_gamma (n,), d_b (n, M+1)). alpha_tilde is held fixed:
    wherever x is strictly inside the spline's range,
    d loss / d alpha = 2 (x - D(alpha_tilde)) = 0, and at the clamps
    alpha_tilde is locally constant, so nothing propagates through it.
    """
    return 1.0 - 2.0 * alpha, _crps_terms(alpha, knots)


def chain_slope_grads(db: np.ndarray, slope_raw: np.ndarray) -> np.ndarray:
    """Push a gradient w.r.t. hinge slopes b back to the raw slope outputs.

    b_m = s_m - s_{m-1} with s = softplus(raw), so s_k collects db_k - db_{k+1}
    and picks up the softplus derivative.
    """
    ds = np.empty_like(db)
    ds[..., -1] = db[..., -1]
    ds[..., :-1] = db[..., :-1] - db[..., 1:]
    return ds * logistic(slope_raw)
