"""Linear isotonic spline quantile functions and their pinball-integral loss.

A decoder head for one numeric column parameterizes a quantile function by
its value gamma at 0 and its slope s_m on each segment [d_m, d_{m+1}]:

    D(a) = gamma + sum_m s_m * clip(a - d_m, 0, d_{m+1} - d_m),
    0 = d_0 < ... < d_M = 1,

which is piecewise linear in the quantile level a and monotone because
every slope is non-negative: slopes_to_b maps raw outputs through softplus,
which cannot overflow, and chain_slope_grads reads its derivative, the
logistic of raw, from s as 1 - exp(-s).

The training loss for an observation x is twice the integral over a of the
check function rho_a(x - D(a)), which this module evaluates in closed form,
with its exact gradient, for a batch of splines at once, from per-knot terms
T_m = K_m - max(a_t - d_m, 0)^2 (crps_grad_from_alpha). Its inverse reads
the knot values, which a caller builds once and reuses for any number of x.

Every kernel takes the knot grid as one Knots: the positions d (M+1,) and
the per-knot constants that every batch reuses, built once by knot_table
(or uniform_knots), so no call rebuilds them.

chain_slope_grads writes into out, a caller's array of the slopes' shape,
such as the slope rows of the decoder's gradient, and returns it.

A batch of N splines is stored knot-major: slopes s (M, N), knot values
(M+1, N), one entry per spline in gamma (N,), x (N,) and alpha_tilde (N,).
Every scan over the knots is then M whole-row operations on contiguous
length-N rows, so the knot values and the inverse match a row-major (N, M)
layout bit for bit. The loss adds its M segment terms left to right from
+0.0, as numpy sums over axis 0.

A training step's batch of n rows and P numeric columns is N = P * n
splines, spline p * n + r for row r and column p. The decoder's last layer
is stored in the order its heads read it, so it emits the slopes as this
(M, N) block and gamma as N entries in the same order, and neither they nor
their gradients are transposed on the way in or out."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Slopes below this are treated as exactly flat when inverting.
_FLAT_EPS = 1e-300


class Knots(NamedTuple):
    """Knot positions d (M+1,) and the read-only per-knot constants the loss
    reads: d as an (M+1, 1) column, the (M, 1) segment widths d_{m+1} - d_m,
    and the (M, 1) steps K_m - K_{m+1} of crps_grad_from_alpha."""

    d: np.ndarray
    column: np.ndarray
    widths: np.ndarray
    k_steps: np.ndarray


def knot_table(positions) -> Knots:
    """The Knots of positions d (M+1,), 0 = d_0 < ... < d_M = 1."""
    d = np.array(positions, dtype=np.float64)
    d.flags.writeable = False
    k = (1.0 - d**3) / 3.0 - d + d * d
    widths, k_steps = (d[1:] - d[:-1])[:, None], (k[:-1] - k[1:])[:, None]
    widths.flags.writeable = k_steps.flags.writeable = False
    return Knots(d, d[:, None], widths, k_steps)


def uniform_knots(count: int) -> Knots:
    """The Knots of count+1 equally spaced positions on [0, 1]."""
    if count < 1:
        raise ValueError("need at least 1 spline segment")
    return knot_table(np.arange(count + 1, dtype=np.float64) / count)


def slopes_to_b(slope_raw: np.ndarray) -> np.ndarray:
    """The non-negative segment slopes s = softplus(raw) of raw slope outputs,
    log(1 + e^raw) as max(raw, 0) + log1p(exp(-|raw|)), in place after the
    first pass; NaN gives NaN, and a 0-d input a 0-d array."""
    raw = np.asarray(slope_raw, dtype=np.float64)
    s = np.copysign(raw, -1.0, out=np.empty_like(raw))  # -|raw|
    np.exp(s, out=s)
    np.log1p(s, out=s)
    return np.add(np.maximum(raw, 0.0), s, out=s)


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


def knot_values(gamma: np.ndarray, s: np.ndarray, knots: Knots) -> np.ndarray:
    """D evaluated at every knot, for a batch: gamma (N,), s (M, N) -> (M+1, N).
    A running sum of non-negative rises, so never decreasing."""
    _check_layout(s, gamma=gamma)
    values = np.empty((s.shape[0] + 1, s.shape[1]))
    values[0] = 0.0
    np.multiply(s, knots.widths, out=values[1:])
    for j in range(2, values.shape[0]):
        values[j] += values[j - 1]
    values += gamma
    return values


def spline_inverse_batch(values: np.ndarray, s: np.ndarray, knots: Knots, x):
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
    seg = np.add.reduce(values[1:-1] < x, axis=0)
    # one flat index per gather: spline i's entry of row seg sits at seg * N + i
    at = seg * n
    at += np.arange(n)
    slope = s.take(at)
    start = values.take(at)
    flat = slope <= _FLAT_EPS
    rise = np.where(flat, 0.0, (x - start) / np.where(flat, 1.0, slope))
    lo = knots.d[seg]
    alpha = lo + rise
    # np.clip's order: the lower bound first, then the upper
    np.maximum(alpha, lo, out=alpha)
    np.minimum(alpha, knots.d[seg + 1], out=alpha)
    alpha[x >= values[-1]] = 1.0
    return alpha


def crps_loss_batch(gamma, s, knots: Knots, x):
    """Closed-form 2 * integral of rho_a(x - D(a)) da for a batch of splines,
    and its exact gradient.

    Returns (loss (N,), d_gamma (N,), d_s (M, N)). With a_t = alpha_tilde and
    T_m the knot terms of crps_grad_from_alpha:

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
    loss += np.add.reduce(s * d_s, axis=0)
    return loss, d_gamma, d_s


def crps_grad_from_alpha(alpha: np.ndarray, knots: Knots):
    """Gradient of the closed-form loss given a precomputed alpha_tilde:
    (d_gamma (N,), d_s (M, N)). alpha_tilde is held fixed: wherever x is
    strictly inside the spline's range, d loss / d alpha = 2 (x - D(a_t)) = 0,
    and at the clamps a_t is locally constant, so nothing propagates through it.

    T_m = (1 - d_m^3)/3 - d_m - mx^2 + 2 mx d_m with mx = max(a_t, d_m). As
    mx = d_m + u_m with u_m = max(a_t - d_m, 0), -mx^2 + 2 mx d_m = d_m^2 -
    u_m^2, so T_m = K_m - u_m^2 with K_m = (1 - d_m^3)/3 - d_m + d_m^2, and
    d_s_m = T_m - T_{m+1} = (u_{m+1}^2 - u_m^2) + (K_m - K_{m+1}): five
    passes over (M+1, N) arrays, two fewer than T_m as first written;
    knots holds K_m - K_{m+1}.
    """
    u = np.subtract(alpha, knots.column)
    np.maximum(u, 0.0, out=u)
    u *= u
    d_s = u[1:] - u[:-1]
    d_s += knots.k_steps
    d_gamma = 2.0 * alpha
    np.subtract(1.0, d_gamma, out=d_gamma)
    return d_gamma, d_s


def chain_slope_grads(ds: np.ndarray, s: np.ndarray, *, out: np.ndarray) -> np.ndarray:
    """Push a gradient ds w.r.t. the slopes s = softplus(raw) back to raw, as
    ds * -expm1(-s), the logistic of raw, into out, of s's shape."""
    out = np.negative(s, out=out)
    np.expm1(out, out=out)
    out *= ds
    return np.negative(out, out=out)
