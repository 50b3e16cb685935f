"""Shared oracles for the test suite: brute-force reference implementations
that the fast closed-form code is checked against."""

import numpy as np

from tabsynth import SplineCoeffs, build_spline, knot_values, uniform_knots

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

_ALPHA_GRID = {}


def _alpha_grid(nodes):
    if nodes not in _ALPHA_GRID:
        _ALPHA_GRID[nodes] = np.linspace(0.0, 1.0, nodes)
    return _ALPHA_GRID[nodes]


def crps_quadrature(coeffs: SplineCoeffs, x: float, nodes: int = 1_000_001) -> float:
    """2 * integral of the check loss over alpha, by trapezoid quadrature.

    The spline is piecewise linear between knots, so np.interp over the knot
    values reproduces it exactly at every quadrature node.
    """
    alphas = _alpha_grid(nodes)
    kv = knot_values(np.array([coeffs.gamma]), coeffs.b[None, :], coeffs.knots)[0]
    d = np.interp(alphas, coeffs.knots, kv)
    u = x - d
    rho = u * (alphas - (u < 0.0))
    return 2.0 * float(_trapezoid(rho, alphas))


def random_spline(rng: np.random.Generator, knot_count: int | None = None):
    """A random (coeffs, x) fixture. Mixes steep, gentle, and nearly flat
    slopes, and places x both inside and outside the spline's range."""
    m = int(knot_count) if knot_count is not None else int(rng.integers(1, 13))
    gamma_raw = float(rng.normal(0.0, 2.0))
    slope_raw = rng.normal(0.0, 2.5, size=m + 1)
    if rng.random() < 0.15:
        slope_raw[rng.integers(0, m + 1)] = -40.0  # force a flat segment
    coeffs = build_spline(gamma_raw, slope_raw, uniform_knots(m))
    lo = coeffs.gamma
    hi = lo + float(np.sum(coeffs.b * (1.0 - coeffs.knots)))
    x = float(rng.normal((lo + hi) / 2.0, 1.0 + (hi - lo)))
    return coeffs, x


def brute_ks(a, b) -> float:
    """Sup distance between empirical CDFs, checked at every sample point."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    best = 0.0
    for x in np.concatenate([a, b]):
        fa = np.searchsorted(a, x, side="right") / a.size
        fb = np.searchsorted(b, x, side="right") / b.size
        best = max(best, abs(fa - fb))
    return best


def brute_wd(a, b) -> float:
    """Area between empirical CDF step functions, by explicit segment sums."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    grid = np.unique(np.concatenate([a, b]))
    total = 0.0
    for left, right in zip(grid[:-1], grid[1:]):
        fa = np.searchsorted(a, left, side="right") / a.size
        fb = np.searchsorted(b, left, side="right") / b.size
        total += abs(fa - fb) * (right - left)
    return total


def brute_auc(labels, scores) -> float:
    """Share of (positive, negative) pairs the scores order correctly, a tie
    counting one half, by visiting every pair."""
    pos = [s for y, s in zip(labels, scores) if y == 1]
    neg = [s for y, s in zip(labels, scores) if y != 1]
    wins = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


def brute_majority_votes(known_real, known_synth, secret_synth, k, n_levels):
    """Per real row, the most common secret among its k nearest synthetic rows
    (full sort of every distance), ties to the lowest level."""
    out = []
    for row in known_real:
        nearest = np.argsort(np.sum((known_synth - row) ** 2, axis=1))[:k]
        counts = [0] * n_levels
        for level in secret_synth[nearest]:
            counts[int(level)] += 1
        out.append(counts.index(max(counts)))
    return np.array(out)


def grad_rel_err(analytic: float, numeric: float) -> float:
    denom = max(abs(analytic), abs(numeric), 1e-6)
    return abs(analytic - numeric) / denom


def central_diff(f, x0: float, eps: float = 1e-5) -> float:
    return (f(x0 + eps) - f(x0 - eps)) / (2.0 * eps)


def masked_softplus(x):
    """softplus by boolean-mask scatter into three branches: the reference
    the whole-array nn.softplus must match bit for bit."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    hi = x > 30.0
    lo = x < -30.0
    mid = ~(hi | lo)
    out[hi] = x[hi]
    out[lo] = np.exp(x[lo])
    out[mid] = np.log1p(np.exp(x[mid]))
    return out


def masked_logistic(x):
    """logistic by boolean-mask scatter on the sign of x: the reference the
    whole-array nn.logistic must match bit for bit."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out
