"""Shared oracles for the test suite: brute-force reference implementations
that the fast closed-form code is checked against."""

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from tabsynth import gumbel_max, macro_f1, round_ordinal
from tabsynth.data import KIND_DISCRETE, KIND_ORDINAL, Table, _first_rejected
from tabsynth import spline as sp
from tabsynth.metrics import _squared_distance_chunks
from tabsynth.model import LossBreakdown, decoder_heads, encode_batch
from tabsynth.nn import logistic, mlp_backward, mlp_forward, softmax, softplus

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

_ALPHA_GRID = {}

# 3-point Gauss-Legendre nodes and weights on [-1, 1]: exact for polynomials
# of degree 5 or less, so for the check loss, which is quadratic in the level
# on every piece where D is linear and x - D(a) keeps its sign
_GL_NODES = np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)])
_GL_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 9.0


def _alpha_grid(nodes):
    if nodes not in _ALPHA_GRID:
        _ALPHA_GRID[nodes] = np.linspace(0.0, 1.0, nodes)
    return _ALPHA_GRID[nodes]


def _knot_values(gamma, s, knots):
    """D at each knot of a length-1 batch, built from the segment slopes s:
    D(d_0) = gamma, D(d_k) = gamma + sum_{m<k} s_m (d_{m+1} - d_m)."""
    return gamma[0] + np.concatenate([[0.0], np.cumsum(s[0] * np.diff(knots))])


def _check_loss(gamma, s, knots, x, alphas):
    """rho_a(x - D(a)) at each level a, for a length-1 batch of splines. D is
    piecewise linear between knots, so np.interp over the knot values
    reproduces it exactly at every level."""
    d = np.interp(alphas, knots, _knot_values(gamma, s, knots))
    u = x[0] - d
    return u * (alphas - (u < 0.0))


def _level_of(x, knots, values):
    """A level a with D(a) = x, by bisection on np.interp; 0 below D's range
    and 1 above it. On a flat stretch at height x any level of it will do,
    because the check loss is 0 there."""
    lo, hi = 0.0, 1.0
    if x <= values[0]:
        return lo
    if x >= values[-1]:
        return hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if np.interp(mid, knots, values) < x:
            lo = mid
        else:
            hi = mid


def crps_exact(gamma, s, knots, x) -> float:
    """2 * integral of the check loss over alpha for a length-1 batch, by
    3-point Gauss-Legendre on each piece between the knots and the level
    where D crosses x. The integrand is quadratic on every piece, so the rule
    is exact up to round-off."""
    level = _level_of(x[0], knots, _knot_values(gamma, s, knots))
    edges = np.union1d(knots, [level])
    half = np.diff(edges)[:, None] / 2.0
    alphas = (edges[:-1, None] + half + half * _GL_NODES).ravel()
    return 2.0 * float(np.sum((half * _GL_WEIGHTS).ravel() * _check_loss(gamma, s, knots, x, alphas)))


def crps_quadrature(gamma, s, knots, x, nodes: int = 1_000_001) -> float:
    """2 * integral of the check loss over alpha, by trapezoid quadrature."""
    alphas = _alpha_grid(nodes)
    return 2.0 * float(_trapezoid(_check_loss(gamma, s, knots, x, alphas), alphas))


def crps_loss_finite_k(gamma, s, knots, x, k: int) -> float:
    """Composite check loss averaged over the level grid a_j = j/k, j = 1..k.

    Converges to half the closed-form loss as k grows.
    """
    alphas = np.arange(1, k + 1, dtype=np.float64) / k
    return float(_check_loss(gamma, s, knots, x, alphas).mean())


def mean_log_alpha_weight(k: int) -> float:
    """(1/k) * sum_j log(a_j (1 - a_j)) over the level grid a_j = j/k.

    The j = k endpoint is excluded because its log weight diverges; the
    normalizer stays 1/k, so the value tends to the integral of
    log(a(1-a)) over [0, 1], which is -2.
    """
    alphas = np.arange(1, k, dtype=np.float64) / k
    return float(np.sum(np.log(alphas * (1.0 - alphas))) / k)


def random_spline(rng: np.random.Generator):
    """A random length-1 batch (gamma (1,), s (1, M), knots, x (1,)). Mixes
    steep, gentle, and nearly flat slopes, and places x both inside and
    outside the spline's range. Draws one raw slope per knot, as the decoder
    emits them, and uses the first M."""
    m = int(rng.integers(1, 13))
    gamma = float(rng.normal(0.0, 2.0))
    slope_raw = rng.normal(0.0, 2.5, size=m + 1)
    if rng.random() < 0.15:
        slope_raw[rng.integers(0, m + 1)] = -40.0  # force a flat segment
    knots = np.arange(m + 1, dtype=np.float64) / m
    s = np.log1p(np.exp(slope_raw))  # softplus; exp cannot overflow at these raw slopes
    # D(1), summed over hinge weights b = diff(s) as the fixtures were first drawn
    hi = gamma + float(np.sum(np.diff(s, prepend=0.0) * (1.0 - knots)))
    x = float(rng.normal((gamma + hi) / 2.0, 1.0 + (hi - gamma)))
    return np.array([gamma]), s[None, :m], knots, np.array([x])


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


@dataclass
class BlockwiseAdamState:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def blockwise_adam_init(params, lr: float = 0.001) -> BlockwiseAdamState:
    return BlockwiseAdamState(
        lr=lr,
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
    )


def blockwise_adam_step(params, tape, state: BlockwiseAdamState) -> None:
    """Adam with one m and one v array per parameter block, updated block by
    block: the reference the whole-vector nn.adam_step must match bit for bit."""
    if len(params) != len(state.m) or len(params) != len(tape):
        raise ValueError("params, gradients and Adam state must align")
    state.t += 1
    c1 = 1.0 - state.beta1 ** state.t
    c2 = 1.0 - state.beta2 ** state.t
    for i, (p, g) in enumerate(zip(params, tape)):
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(
                f"non-finite gradient in parameter block {i} (shape {p.shape})"
            )
        state.m[i] = state.beta1 * state.m[i] + (1.0 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1.0 - state.beta2) * g * g
        m_hat = state.m[i] / c1
        v_hat = state.v[i] / c2
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


def concatenated_knot_values(gamma, s, knots):
    """Knot values as a zero column concatenated before the running sum of the
    rises: the reference the in-place knot_values must match bit for bit."""
    rises = np.cumsum(s * np.diff(knots), axis=1)
    return gamma[:, None] + np.concatenate([np.zeros((s.shape[0], 1)), rises], axis=1)


def rebuilt_spline_inverse(gamma, s, knots, x):
    """The batch inverse with its knot values rebuilt on every call, gathered
    by (row, segment) pairs, clamped by np.clip and set to 0 at or below D(0)
    by its own mask: the reference spline_inverse_batch over knot values built
    once must match bit for bit."""
    gamma = np.asarray(gamma, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    n, last = s.shape
    values = concatenated_knot_values(gamma, s, knots)
    below = x <= values[:, 0]
    above = x >= values[:, -1]
    seg = np.clip(np.sum(values < x[:, None], axis=1) - 1, 0, last - 1)
    rows = np.arange(n)
    flat = s[rows, seg] <= 1e-300
    rise = np.where(flat, 0.0, (x - values[rows, seg]) / np.where(flat, 1.0, s[rows, seg]))
    alpha = np.clip(knots[seg] + rise, knots[seg], knots[seg + 1])
    alpha[below] = 0.0
    alpha[above] = 1.0
    return alpha


def expression_crps_loss_batch(gamma, s, knots, x):
    """crps_loss_batch written as whole-array expressions, one fresh array per
    operation: the reference the in-place crps_loss_batch must match bit for bit."""
    alpha = rebuilt_spline_inverse(gamma, s, knots, x)
    mx = np.maximum(alpha[:, None], knots[None, :])
    terms = (1.0 - knots**3) / 3.0 - knots - mx * mx + 2.0 * mx * knots
    d_gamma, d_s = 1.0 - 2.0 * alpha, terms[:, :-1] - terms[:, 1:]
    loss = (2.0 * alpha - 1.0) * x + d_gamma * gamma
    loss += np.sum(s * d_s, axis=1)
    return loss, d_gamma, d_s


def reduced_softmax(logits):
    """softmax through numpy's own last-axis max and sum: the reference the
    column-by-column nn.softmax must match bit for bit."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def argpartition_attribute_disclosure(real, synth, known_columns, secret_columns, k):
    """attribute_disclosure with the k nearest rows taken by argpartition at
    every k, k = 1 included, as the package took them before k = 1 used argmin."""
    schema = real.schema
    known_idx = [schema.index(name) for name in known_columns]
    a = real.rows[:, known_idx]
    neighbor_idx = np.empty((a.shape[0], k), dtype=np.intp)
    for start, d2 in _squared_distance_chunks(a, synth.rows[:, known_idx]):
        neighbor_idx[start : start + d2.shape[0]] = np.argpartition(d2, k - 1, axis=1)[:, :k]
    scores = []
    n = a.shape[0]
    for j in (schema.index(name) for name in secret_columns):
        t = schema.columns[j].n_levels
        votes = synth.rows[:, j].astype(np.intp)[neighbor_idx]
        counts = np.bincount((np.arange(n)[:, None] * t + votes).ravel(), minlength=n * t)
        scores.append(macro_f1(real.rows[:, j].astype(np.intp), np.argmax(counts.reshape(n, t), axis=1)))
    return float(np.mean(scores))


def overflowed_discrete_logits(cp):
    """A copy of cp whose first discrete column's first two logits overflow:
    their decoder bias is 1.79e308 and their weight rows 1e306, so wherever
    the hidden layer is active both logits are inf and softmax gives NaN."""
    out = replace(cp, params=cp.params.copy())
    weight, bias = out.decoder[-1]
    pos = len(cp.schema.numeric_indices) * (cp.config.knot_count + 2)
    bias[pos : pos + 2] = 1.79e308
    weight[pos : pos + 2] = 1e306
    return out


def per_point_estimate_cdf(cp, column, grid=None, n_mc=5000, seed=0):
    """estimate_cdf with every grid point rebuilding its draws' inverse from
    scratch: the reference estimate_cdf, which builds its knot values once, must
    match bit for bit."""
    schema = cp.schema
    k = schema.numeric_indices.index(schema.index(column))
    z = np.random.default_rng(seed).standard_normal((n_mc, cp.config.latent_dim))
    dec_out, _ = mlp_forward(cp.decoder, z)
    gamma, raw, _ = decoder_heads(schema, cp.config.knot_count, dec_out)
    gamma, b, knots = gamma[:, k], sp.slopes_to_b(raw[:, k]), cp.knots
    if grid is None:
        grid = np.linspace(cp.quantile_lo[k], cp.quantile_hi[k], 201)
    grid = np.asarray(grid, dtype=np.float64)
    values = np.empty_like(grid)
    for i, x in enumerate(grid):
        values[i] = rebuilt_spline_inverse(gamma, b, knots, np.full(n_mc, x)).mean()
    return np.minimum(np.maximum.accumulate(values), 1.0)


def one_shot_generate(cp, n, seed, ordinal_rounding="integer"):
    """generate with all n rows decoded in one pass and each discrete column's
    noise drawn just before it is used: the reference the blocked generate
    must match bit for bit."""
    schema = cp.schema
    rows = np.zeros((n, len(schema.columns)))
    if n > 0:
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, cp.config.latent_dim))
        dec_out, _ = mlp_forward(cp.decoder, z)
        gamma, raw, logits = decoder_heads(schema, cp.config.knot_count, dec_out)
        knots = cp.knots
        u = rng.random((n, len(schema.numeric_indices)))
        for k, col in enumerate(schema.numeric_indices):
            hinge = np.clip(u[:, k : k + 1] - knots[None, :-1], 0.0, np.diff(knots))
            rows[:, col] = gamma[:, k] + np.sum(sp.slopes_to_b(raw[:, k]) * hinge, axis=1)
        for block, col in zip(logits, schema.discrete_indices):
            probs = softmax(block)
            rows[:, col] = gumbel_max(probs, rng.gumbel(size=probs.shape))
        numeric = schema.numeric_indices
        rows[:, numeric] = rows[:, numeric] * cp.scaling.stddev + cp.scaling.mean
        for col in numeric:
            if schema.columns[col].kind == KIND_ORDINAL:
                rows[:, col] = round_ordinal(rows[:, col], ordinal_rounding)
    return rows


def one_shot_squared_distances(a, b):
    """Every squared L2 distance from the rows of a to the rows of b in one
    (len(a), len(b)) array, in the evaluation order the chunked search keeps."""
    return np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * a @ b.T


def column_major_elbo_grads(model, rows, noise):
    """elbo_grads with the numeric head transposed to (column, row) order for
    the loss pass and back for the gradient, and the discrete cross-entropy
    and its gradient in separate loops: the reference the row-major one-body
    elbo_grads must match bit for bit."""
    rows = np.asarray(rows, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    n = rows.shape[0]
    mu, log_var, enc_cache = encode_batch(model, rows)
    sigma = np.exp(log_var / 2.0)
    dec_out, dec_cache = mlp_forward(model.decoder, mu + sigma * noise)
    schema, knots, beta = model.schema, model.knots, model.config.beta
    gamma, raw, logits = decoder_heads(schema, model.config.knot_count, dec_out)

    raw_flat = raw.transpose(1, 0, 2).reshape(gamma.size, knots.size - 1)
    x = rows[:, schema.numeric_indices].T.ravel()
    loss, dg, ds = sp.crps_loss_batch(gamma.T.ravel(), sp.slopes_to_b(raw_flat).T, knots, x)
    ds = ds.T
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

    kl = 0.5 * np.sum(mu * mu + np.exp(log_var) - log_var - 1.0, axis=1)
    breakdown = LossBreakdown(
        crps=crps_sum / n,
        discrete=ce_sum / n,
        kl=float(kl.mean()),
        total=crps_sum / n + ce_sum / n + beta * float(kl.mean()),
    )

    d_dec = np.zeros_like(dec_out)
    d_gamma, d_raw, d_logits = decoder_heads(schema, model.config.knot_count, d_dec)
    p = d_gamma.shape[1]
    d_gamma[...] = (dg * (0.5 / n)).reshape(p, n).T
    d_raw[...] = sp.chain_slope_grads(ds * (0.5 / n), raw_flat).reshape(p, n, knots.size - 1).transpose(1, 0, 2)
    for d_block, (idx, probs) in zip(d_logits, discrete_parts):
        probs[np.arange(n), idx] -= 1.0
        d_block[...] = probs / n

    dz, dec_grad = mlp_backward(model.decoder, dec_cache, d_dec)
    d_mu = dz + beta * mu / n
    d_log_var = dz * 0.5 * sigma * noise + beta * 0.5 * (np.exp(log_var) - 1.0) / n
    _, enc_grad = mlp_backward(model.encoder, enc_cache, np.concatenate([d_mu, d_log_var], axis=1))
    return breakdown, np.concatenate([enc_grad, dec_grad])


# The hinge form of the spline head, as the package computed it before it
# switched to segment slopes: all M+1 raw slope outputs of a numeric column
# (the last included) become hinge weights b = diff(softplus(raw)), and
# D(a) = gamma + sum_m b_m max(a - d_m, 0) is summed back from them at every
# use. The segment-slope code must agree with it to round-off.


def full_raw_head(schema, knot_count, dec_out):
    """gamma (n, P) and all M+1 raw slope outputs (n, P, M+1) of the numeric columns."""
    n, p = dec_out.shape[0], len(schema.numeric_indices)
    numeric = dec_out[:, : p * (knot_count + 2)].reshape(n, p, knot_count + 2)
    return numeric[:, :, 0], numeric[:, :, 1:]


def hinge_weights(raw):
    s = softplus(raw)
    return np.concatenate([s[..., :1], np.diff(s, axis=-1)], axis=-1)


def hinge_knot_values(gamma, b, knots):
    return gamma[:, None] + b @ np.maximum(knots[None, :] - knots[:, None], 0.0)


def hinge_inverse(gamma, b, knots, x):
    n, last = b.shape[0], b.shape[1] - 1
    values = hinge_knot_values(gamma, b, knots)
    below = x <= values[:, 0]
    above = x >= values[:, -1]
    seg = np.clip(np.sum(values < x[:, None], axis=1) - 1, 0, last - 1)
    rows = np.arange(n)
    den = np.cumsum(b, axis=1)[rows, seg]
    num = x - gamma + np.cumsum(b * knots[None, :], axis=1)[rows, seg]
    flat = den <= 1e-300
    alpha = np.where(flat, knots[seg], num / np.where(flat, 1.0, den))
    alpha = np.clip(alpha, knots[seg], knots[seg + 1])
    alpha[below] = 0.0
    alpha[above] = 1.0
    return alpha


def hinge_crps_loss_batch(gamma, b, knots, x):
    """(loss, d_gamma, d_b) with one term per knot: sum_m b_m T_m."""
    alpha = hinge_inverse(gamma, b, knots, x)
    mx = np.maximum(alpha[:, None], knots[None, :])
    terms = (1.0 - knots**3) / 3.0 - knots - mx * mx + 2.0 * mx * knots
    d_gamma = 1.0 - 2.0 * alpha
    return (2.0 * alpha - 1.0) * x + d_gamma * gamma + np.sum(b * terms, axis=1), d_gamma, terms


def hinge_elbo_grads(model, rows, noise):
    """elbo_grads with the numeric head in the hinge form."""
    n = rows.shape[0]
    mu, log_var, enc_cache = encode_batch(model, rows)
    sigma = np.exp(log_var / 2.0)
    dec_out, dec_cache = mlp_forward(model.decoder, mu + sigma * noise)
    schema, knots, beta, m = model.schema, model.knots, model.config.beta, model.config.knot_count
    gamma, raw = full_raw_head(schema, m, dec_out)
    _, _, logits = decoder_heads(schema, m, dec_out)

    raw_flat = raw.reshape(-1, knots.size)
    loss, dg, db = hinge_crps_loss_batch(
        gamma.ravel(), hinge_weights(raw_flat), knots, rows[:, schema.numeric_indices].ravel()
    )
    crps = 0.5 * loss.sum()
    d_dec = np.zeros_like(dec_out)
    d_gamma, d_raw = full_raw_head(schema, m, d_dec)
    _, _, d_logits = decoder_heads(schema, m, d_dec)
    d_gamma[...] = (dg * (0.5 / n)).reshape(n, -1)
    db = db * (0.5 / n)
    ds = np.concatenate([db[:, :-1] - db[:, 1:], db[:, -1:]], axis=1)
    d_raw[...] = (ds * logistic(raw_flat)).reshape(d_raw.shape)

    ce = 0.0
    for block, d_block, col in zip(logits, d_logits, schema.discrete_indices):
        idx = rows[:, col].astype(np.intp)
        shifted = block - block.max(axis=1, keepdims=True)
        ce += (np.log(np.exp(shifted).sum(axis=1)) - shifted[np.arange(n), idx]).sum()
        probs = softmax(block)
        probs[np.arange(n), idx] -= 1.0
        d_block[...] = probs / n

    kl = float(np.mean(0.5 * np.sum(mu * mu + np.exp(log_var) - log_var - 1.0, axis=1)))
    breakdown = LossBreakdown(crps=crps / n, discrete=ce / n, kl=kl, total=crps / n + ce / n + beta * kl)
    dz, dec_grad = mlp_backward(model.decoder, dec_cache, d_dec)
    d_mu = dz + beta * mu / n
    d_log_var = dz * 0.5 * sigma * noise + beta * 0.5 * (np.exp(log_var) - 1.0) / n
    _, enc_grad = mlp_backward(model.encoder, enc_cache, np.concatenate([d_mu, d_log_var], axis=1))
    return breakdown, np.concatenate([enc_grad, dec_grad])


def hinge_generate(cp, n, seed):
    """generate with every numeric cell drawn as gamma + sum_m b_m max(u - d_m, 0)."""
    schema = cp.schema
    rng = np.random.default_rng(seed)
    dec_out, _ = mlp_forward(cp.decoder, rng.standard_normal((n, cp.config.latent_dim)))
    gamma, raw = full_raw_head(schema, cp.config.knot_count, dec_out)
    _, _, logits = decoder_heads(schema, cp.config.knot_count, dec_out)
    u = rng.random((n, len(schema.numeric_indices)))
    rows = np.zeros((n, len(schema.columns)))
    hinge = np.maximum(u[:, :, None] - cp.knots, 0.0)
    rows[:, schema.numeric_indices] = gamma + np.sum(hinge_weights(raw) * hinge, axis=2)
    for block, col in zip(logits, schema.discrete_indices):
        probs = softmax(block)
        rows[:, col] = gumbel_max(probs, rng.gumbel(size=probs.shape))
    rows[:, schema.numeric_indices] = rows[:, schema.numeric_indices] * cp.scaling.stddev + cp.scaling.mean
    for col in schema.numeric_indices:
        if schema.columns[col].kind == KIND_ORDINAL:
            rows[:, col] = round_ordinal(rows[:, col])
    return rows


def hinge_estimate_cdf(cp, column, grid, n_mc, seed):
    """estimate_cdf's values with every draw inverted in the hinge form."""
    k = cp.schema.numeric_indices.index(cp.schema.index(column))
    z = np.random.default_rng(seed).standard_normal((n_mc, cp.config.latent_dim))
    gamma, raw = full_raw_head(cp.schema, cp.config.knot_count, mlp_forward(cp.decoder, z)[0])
    b = hinge_weights(raw[:, k])
    values = [hinge_inverse(gamma[:, k], b, cp.knots, np.full(n_mc, x)).mean() for x in grid]
    return np.minimum(np.maximum.accumulate(values), 1.0)


def whole_file_load_csv(path, schema):
    """load_csv with every record of the file in one list and each column
    parsed over all rows at once, wrong-length rows checked first: the
    reference the blocked reader must match bit for bit."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if header != schema.names:
            raise ValueError(
                f"{path}: header {header!r} does not match schema columns {schema.names!r}"
            )
        records = list(reader)
    width = len(schema.columns)
    for r, record in enumerate(records, start=1):
        if len(record) != width:
            raise ValueError(f"{path}: row {r} has {len(record)} cells, expected {width}")
    rows = np.empty((len(records), width))
    for j, (spec, cells) in enumerate(zip(schema.columns, list(zip(*records)) or [()] * width)):
        if spec.kind == KIND_DISCRETE:
            level_of = {label: k for k, label in enumerate(spec.levels)}
            parse, problem = level_of.__getitem__, "unknown level"
        else:
            parse, problem = float, "unparseable value"
        try:
            rows[:, j] = list(map(parse, cells))
        except (KeyError, ValueError):
            r = _first_rejected(parse, cells)
            raise ValueError(
                f"{path}: {problem} {cells[r - 1]!r} for column {spec.name!r} at row {r}"
            ) from None
        finite = np.isfinite(rows[:, j])
        if not finite.all():
            r = int(np.argmin(finite)) + 1
            raise ValueError(
                f"{path}: non-finite value {cells[r - 1]!r} for column {spec.name!r} at row {r}"
            )
    return Table(schema=schema, rows=rows)


def whole_file_save_csv(table, path):
    """save_csv with every column formatted in full and all rows handed to
    csv.writer at once: the reference whose bytes the blocked writer must
    reproduce."""
    columns = []
    for spec, col in zip(table.schema.columns, table.rows.T):
        if spec.kind == KIND_DISCRETE:
            columns.append(list(map(spec.levels.__getitem__, col.astype(np.intp).tolist())))
        else:
            columns.append(list(map(repr, col.tolist())))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.schema.names)
        writer.writerows(zip(*columns))
