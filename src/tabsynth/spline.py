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


def spline_inverse_batch(gamma, b, knots, x):
    """Vectorized inverse over a batch of splines, one x per spline.

    Returns (alpha_tilde, segment). alpha_tilde solves D(alpha) = x on the
    segment m0 whose knot values bracket x:

        alpha_tilde = (x - gamma + sum_{m<=m0} b_m d_m) / sum_{m<=m0} b_m

    clamped to 0 below D(0) and to 1 above D(1). A flat segment (zero
    denominator) maps to its left knot, the left-continuous convention
    for a distribution function.
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    n, last = b.shape[0], b.shape[1] - 1
    values = knot_values(gamma, b, knots)
    below = x <= values[:, 0]
    above = x >= values[:, -1]
    seg = np.clip(np.sum(values < x[:, None], axis=1) - 1, 0, last - 1)
    rows = np.arange(n)
    den = np.cumsum(b, axis=1)[rows, seg]
    num = x - gamma + np.cumsum(b * knots[None, :], axis=1)[rows, seg]
    flat = den <= _FLAT_EPS
    alpha = np.where(flat, knots[seg], num / np.where(flat, 1.0, den))
    alpha = np.clip(alpha, knots[seg], knots[seg + 1])
    alpha[below] = 0.0
    alpha[above] = 1.0
    return alpha, seg


def _crps_terms(alpha, knots):
    """Per-knot factors of the closed-form integral: alpha (n,) -> (n, M+1)."""
    mx = np.maximum(alpha[:, None], knots[None, :])
    return (1.0 - knots**3) / 3.0 - knots - mx * mx + 2.0 * mx * knots


def crps_loss_batch(gamma, b, knots, x):
    """Closed-form 2 * integral of rho_a(x - D(a)) da for a batch of splines.

    Returns (loss, alpha_tilde, segment). With a_t = alpha_tilde:

        loss = (2 a_t - 1) x + (1 - 2 a_t) gamma
             + sum_m b_m [ (1 - d_m^3)/3 - d_m - max(a_t, d_m)^2 + 2 max(a_t, d_m) d_m ]

    where the sum runs over every knot m = 0 .. M.
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    alpha, seg = spline_inverse_batch(gamma, b, knots, x)
    loss = (2.0 * alpha - 1.0) * x + (1.0 - 2.0 * alpha) * gamma
    loss += np.sum(b * _crps_terms(alpha, knots), axis=1)
    return loss, alpha, seg


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
