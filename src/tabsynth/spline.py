"""Linear isotonic spline quantile functions and their pinball-integral loss.

A decoder head for one numeric column parameterizes a quantile function by
its value gamma at 0 and its slope s_m on each segment [d_m, d_{m+1}]:

    D(a) = gamma + sum_m s_m * clip(a - d_m, 0, d_{m+1} - d_m),
    0 = d_0 < ... < d_M = 1,

which is piecewise linear in the quantile level a and monotone because
every slope is non-negative: slopes_to_b maps raw outputs through softplus.

The training loss for an observation x is twice the integral over a of the
check function rho_a(x - D(a)), which this module evaluates in closed form,
with its exact gradient, for a batch of splines at once. Its inverse reads
the knot values, which a caller builds once and reuses for any number of x.

A batch of N splines is stored knot-major: slopes s (M, N), knot values
(M+1, N), one entry per spline in gamma (N,), x (N,) and alpha_tilde (N,).
Every scan over the knots is then M whole-row operations on contiguous
length-N rows, so the knot values and the inverse match a row-major (N, M)
layout bit for bit. The loss adds its M segment terms left to right."""

from __future__ import annotations

import numpy as np

from .nn import leading_axis_sum, logistic, softplus

# Slopes below this are treated as exactly flat when inverting.
_FLAT_EPS = 1e-300


def uniform_knots(count: int) -> np.ndarray:
    """count+1 equally spaced knots on [0, 1]."""
    if count < 1:
        raise ValueError("need at least 1 spline segment")
    return np.arange(count + 1, dtype=np.float64) / count


def slopes_to_b(slope_raw: np.ndarray) -> np.ndarray:
    """Map raw slope outputs (..., M) to the non-negative segment slopes s."""
    return softplus(slope_raw)


def _check_layout(s: np.ndarray, **arrays) -> None:
    """Row-major arrays can broadcast against knot-major ones without error,
    so each input's shape is checked against the slopes' (M, N).

    Shapes cannot tell a square s apart: with N == M, a row-major s (N, M)
    passes as knot-major, and knot_values and crps_loss_batch return the
    results of the transposed splines without an error. Only row-major knot
    values (N, M+1) handed to spline_inverse_batch are caught."""
    m, n = s.shape
    for name, a in arrays.items():
        want = (m + 1, n) if name == "values" else (n,)
        if np.shape(a) != want:
            raise ValueError(
                f"{name} must have shape {want} to match knot-major slopes s of shape "
                f"(M, N) = {s.shape}, got {np.shape(a)}"
            )


def knot_values(gamma: np.ndarray, s: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """D evaluated at every knot, for a batch: gamma (N,), s (M, N) -> (M+1, N).
    A running sum of non-negative rises, so never decreasing."""
    _check_layout(s, gamma=gamma)
    values = np.empty((s.shape[0] + 1, s.shape[1]))
    values[0] = 0.0
    np.multiply(s, (knots[1:] - knots[:-1])[:, None], out=values[1:])
    for j in range(2, values.shape[0]):
        values[j] += values[j - 1]
    values += gamma
    return values


def spline_inverse_batch(values: np.ndarray, s: np.ndarray, knots: np.ndarray, x):
    """Vectorized inverse over a batch of splines, one x per spline, given
    their knot values (M+1, N) from knot_values and slopes (M, N).

    Returns alpha_tilde, which solves D(alpha) = x on the segment m whose
    knot values bracket x:

        alpha_tilde = d_m + (x - D(d_m)) / s_m

    clamped to 0 below D(0) and to 1 above D(1). A flat segment (zero
    slope) maps to its left knot, the left-continuous convention for a
    distribution function.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_layout(s, x=x, values=values)
    n = s.shape[1]
    # the segment whose left knot value is the last one below x, in [0, M):
    # the count of inner knot values below x, as knot values never decrease.
    # x at or below D(0) counts none and gets segment 0, where the lower clamp
    # returns 0; x at or above D(1) is set to 1 at the end. A NaN counts none.
    seg = np.sum(values[1:-1] < x, axis=0)
    # one flat index per gather: spline i's entry of row seg sits at seg * N + i
    at = seg * n
    at += np.arange(n)
    slope = np.take(s, at)
    start = np.take(values, at)
    flat = slope <= _FLAT_EPS
    rise = np.where(flat, 0.0, (x - start) / np.where(flat, 1.0, slope))
    lo = knots[seg]
    alpha = lo + rise
    # np.clip's order: the lower bound first, then the upper
    np.maximum(alpha, lo, out=alpha)
    np.minimum(alpha, knots[seg + 1], out=alpha)
    alpha[x >= values[-1]] = 1.0
    return alpha


def crps_loss_batch(gamma, s, knots, x):
    """Closed-form 2 * integral of rho_a(x - D(a)) da for a batch of splines,
    and its exact gradient.

    Returns (loss (N,), d_gamma (N,), d_s (M, N)). With a_t = alpha_tilde and
    T_m = (1 - d_m^3)/3 - d_m - max(a_t, d_m)^2 + 2 max(a_t, d_m) d_m:

        loss = (2 a_t - 1) x + (1 - 2 a_t) gamma + sum_m s_m (T_m - T_{m+1})

    The loss is linear in gamma and s at fixed a_t, so the gradient's factors
    are the loss's own terms.
    """
    alpha = spline_inverse_batch(knot_values(gamma, s, knots), s, knots, x)
    d_gamma, d_s = crps_grad_from_alpha(alpha, knots)
    # in place, in the order of (2 a_t - 1) x + d_gamma gamma + sum(s d_s)
    loss = 2.0 * alpha
    loss -= 1.0
    loss *= x
    loss += d_gamma * gamma
    loss += leading_axis_sum(s * d_s)
    return loss, d_gamma, d_s


def crps_grad_from_alpha(alpha: np.ndarray, knots: np.ndarray):
    """Gradient of the closed-form loss given a precomputed alpha_tilde.

    Returns (d_gamma (N,), d_s (M, N)). alpha_tilde is held fixed:
    wherever x is strictly inside the spline's range,
    d loss / d alpha = 2 (x - D(alpha_tilde)) = 0, and at the clamps
    alpha_tilde is locally constant, so nothing propagates through it.
    """
    # T_m per knot, T_M = 0 at d_M = 1, in two (M+1, N) buffers, in the order
    # of (1 - d^3)/3 - d - mx*mx + 2*mx*d with mx = max(alpha, d)
    d = knots[:, None]
    mx = np.maximum(alpha[None, :], d)
    terms = mx * mx
    np.subtract((1.0 - d**3) / 3.0 - d, terms, out=terms)
    mx *= 2.0
    mx *= d
    terms += mx
    d_gamma = 2.0 * alpha
    np.subtract(1.0, d_gamma, out=d_gamma)
    return d_gamma, terms[:-1] - terms[1:]


def chain_slope_grads(ds: np.ndarray, slope_raw: np.ndarray) -> np.ndarray:
    """Push a gradient w.r.t. the segment slopes s = softplus(raw) back to raw."""
    return ds * logistic(slope_raw)
