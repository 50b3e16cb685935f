"""Shared helpers for the test suite, of three kinds only:

- independent oracles that share no code with the src they check (the
  exact and quadrature CRPS, the exact CRPS gradient, the brute_* metrics,
  grad_rel_err);
- references for a claim src documents, each naming the claim in its
  docstring; the fast code must match them bit for bit, or, where it
  changed the order of the arithmetic, to a tolerance its test states;
- builders of pinned inputs: random_spline, overflowed_discrete_logits and
  load_bench_inputs.

A copy of code src no longer has does not belong here; test_helpers.py
names any public helper that no test module imports."""

import csv
import decimal
import importlib.util
import warnings
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import numpy as np

from tabsynth import gumbel_max, round_ordinal
from tabsynth.data import KIND_DISCRETE, KIND_ORDINAL, Table, _first_rejected, one_hot_matrix
from tabsynth import spline as sp
from tabsynth.model import LossBreakdown, decoder_heads, head_order, net_sizes
from tabsynth.nn import layer_views, mlp_forward, softmax
from tabsynth.synthesis import PAGE_ROWS

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


def _piecewise_nodes(gamma, s, knots, x):
    """3-point Gauss-Legendre levels and weights on each piece between the
    knots and the level where D crosses x, and that level."""
    level = _level_of(x[0], knots, _knot_values(gamma, s, knots))
    edges = np.union1d(knots, [level])
    half = np.diff(edges)[:, None] / 2.0
    alphas = (edges[:-1, None] + half + half * _GL_NODES).ravel()
    return alphas, (half * _GL_WEIGHTS).ravel(), level


def crps_exact(gamma, s, knots, x) -> float:
    """2 * integral of the check loss over alpha for a length-1 batch, by
    3-point Gauss-Legendre on each piece between the knots and the level
    where D crosses x. The integrand is quadratic on every piece, so the rule
    is exact up to round-off."""
    alphas, weights, _ = _piecewise_nodes(gamma, s, knots, x)
    return 2.0 * float(np.sum(weights * _check_loss(gamma, s, knots, x, alphas)))


def crps_grads_exact(gamma, s, knots, x):
    """crps_exact's gradient in gamma and in each slope s_m, for a length-1
    batch: 2 * integral over alpha of (1{alpha > a_t} - alpha) dD/dtheta,
    with dD/dgamma = 1 and dD/ds_m = clip(alpha - d_m, 0, d_{m+1} - d_m),
    where a_t is the level at which D crosses x. Integrated as crps_exact is:
    the integrand is a polynomial of degree 2 at most on every piece."""
    alphas, weights, level = _piecewise_nodes(gamma, s, knots, x)
    weights = 2.0 * weights * ((alphas > level) - alphas)
    rise = np.clip(alphas[None, :] - knots[:-1, None], 0.0, np.diff(knots)[:, None])
    return float(weights.sum()), rise @ weights


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
    outside the spline's range. Draws M+1 raw slopes, as the fixtures were
    first drawn, and uses the first M."""
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
    (full stable sort of every distance, so a distance tie goes to the lowest
    synthetic row), ties to the lowest level."""
    out = []
    for row in known_real:
        nearest = np.argsort(np.sum((known_synth - row) ** 2, axis=1), kind="stable")[:k]
        counts = [0] * n_levels
        for level in secret_synth[nearest]:
            counts[int(level)] += 1
        out.append(counts.index(max(counts)))
    return np.array(out)


# The per-pair association statistics metrics.association_matrix replaced,
# unchanged: its one Gram pass must match them within 1e-13 on every pair
# without a constant column.

def _pearson(x, y, label) -> float:
    sx, sy = x.std(), y.std()
    if sx == 0.0 or sy == 0.0:
        warnings.warn(f"degenerate column pair {label}; association set to 0")
        return 0.0
    return float(np.mean((x - x.mean()) * (y - y.mean())) / (sx * sy))


def correlation_ratio(values, categories, label="") -> float:
    """eta: sqrt of the between-group share of the total variance."""
    values = np.asarray(values, dtype=np.float64)
    categories = np.asarray(categories)
    total = np.sum((values - values.mean()) ** 2)
    if total == 0.0:
        warnings.warn(f"degenerate column pair {label}; association set to 0")
        return 0.0
    between = 0.0
    for c in np.unique(categories):
        group = values[categories == c]
        between += group.size * (group.mean() - values.mean()) ** 2
    return float(np.sqrt(between / total))


def cramers_v(a, b, label="") -> float:
    """Cramer's V from the observed contingency table, without bias correction."""
    a = np.asarray(a)
    b = np.asarray(b)
    ua, ia = np.unique(a, return_inverse=True)
    ub, ib = np.unique(b, return_inverse=True)
    r, c = ua.size, ub.size
    if r < 2 or c < 2:
        warnings.warn(f"degenerate column pair {label}; association set to 0")
        return 0.0
    n = a.size
    observed = np.zeros((r, c))
    np.add.at(observed, (ia, ib), 1.0)
    expected = np.outer(observed.sum(axis=1), observed.sum(axis=0)) / n
    chi2 = np.sum((observed - expected) ** 2 / expected)
    return float(np.sqrt(chi2 / (n * min(r - 1, c - 1))))


def per_pair_association_matrix(table: Table) -> np.ndarray:
    """Symmetric mixed-type association matrix with unit diagonal."""
    cols = table.schema.columns
    discrete = set(table.schema.discrete_indices)
    m = np.eye(len(cols))
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            label = f"({cols[i].name!r}, {cols[j].name!r})"
            xi, xj = table.rows[:, i], table.rows[:, j]
            if i in discrete and j in discrete:
                v = cramers_v(xi, xj, label)
            elif i in discrete:
                v = correlation_ratio(xj, xi, label)
            elif j in discrete:
                v = correlation_ratio(xi, xj, label)
            else:
                v = _pearson(xi, xj, label)
            m[i, j] = m[j, i] = v
    return m


def grad_rel_err(analytic: float, numeric: float) -> float:
    denom = max(abs(analytic), abs(numeric), 1e-6)
    return abs(analytic - numeric) / denom


def masked_softplus(x):
    """spline.slopes_to_b's documented definition, max(x, 0) +
    log1p(exp(-|x|)), by boolean-mask scatter on the sign of x:
    x + log1p(exp(-x)) from 0 up, log1p(exp(x)) below and at NaN; the
    whole-array slopes_to_b must match it bit for bit."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = x[pos] + np.log1p(np.exp(-x[pos]))
    out[~pos] = np.log1p(np.exp(x[~pos]))
    return out


# 50 significant digits, with room for e^-800 and e^800
DECIMAL_50 = decimal.Context(prec=50, Emin=-9999, Emax=9999)


def _decimal_log1p(y):
    """ln(1 + y) for 0 <= y <= 1 to 50 digits: the series where 1 + y would
    drop digits of y, its first omitted term below y * 1e-60."""
    if y < Decimal("1e-20"):
        return y - y * y / 2 + y * y * y / 3
    return (1 + y).ln()


def decimal_softplus(x: float):
    """log(1 + e^x) of a finite float to 50 significant digits, a Decimal."""
    with decimal.localcontext(DECIMAL_50):
        d = Decimal(x)
        if d > 0:
            return d + _decimal_log1p((-d).exp())
        return _decimal_log1p(d.exp())


def decimal_logistic(x: float):
    """1 / (1 + e^-x) of a finite float to 50 significant digits, a Decimal."""
    with decimal.localcontext(DECIMAL_50):
        d = Decimal(x)
        e = (-abs(d)).exp()
        return 1 / (1 + e) if d >= 0 else e / (1 + e)


def ulps_from(got: float, want) -> float:
    """|got - want| for a Decimal want, in units of np.spacing of want
    rounded to float64: its ulp where it is normal, the subnormal step
    (5e-324) below."""
    step = Decimal(float(np.spacing(abs(float(want)))))
    return float(abs(Decimal(float(got)) - want) / step)


def concatenated_knot_values(gamma, s, knots):
    """Row-major knot values (N, M+1) of slopes s (N, M), a zero column before
    the running sum of the rises. Guards spline.py's claim that knot-major
    knot values match a row-major layout bit for bit."""
    rises = np.cumsum(s * np.diff(knots), axis=1)
    return gamma[:, None] + np.concatenate([np.zeros((s.shape[0], 1)), rises], axis=1)


def rebuilt_spline_inverse(gamma, s, knots, x):
    """The row-major batch inverse, s (N, M), with its knot values rebuilt on
    every call, gathered by (row, segment) pairs, clamped by np.clip and set
    to 0 at or below D(0) by its own mask. Guards spline.py's row-major claim
    for the knot-major spline_inverse_batch over knot values built once."""
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


def _k_form_slope_grads(alpha, knots):
    """Row-major d_s (N, M) as spline.crps_grad_from_alpha writes it:
    (u_{m+1}^2 - u_m^2) + (K_m - K_{m+1}) with u_m = max(a_t - d_m, 0)."""
    u = np.maximum(alpha[:, None] - knots[None, :], 0.0)
    u = u * u
    k = (1.0 - knots**3) / 3.0 - knots + knots * knots
    return (u[:, 1:] - u[:, :-1]) + (k[:-1] - k[1:])


def max_form_slope_grads(alpha, knots):
    """Row-major d_s (N, M) by the closed form's expression before the
    K-form, T_m = (1 - d_m^3)/3 - d_m - mx^2 + 2 mx d_m with mx = max(a_t,
    d_m). Guards the K-form's derivation in crps_grad_from_alpha's
    docstring: the same values, rounded along another path."""
    mx = np.maximum(alpha[:, None], knots[None, :])
    terms = (1.0 - knots**3) / 3.0 - knots - mx * mx + 2.0 * mx * knots
    return terms[:, :-1] - terms[:, 1:]


def expression_crps_loss_batch(gamma, s, knots, x, slope_grads=_k_form_slope_grads):
    """The row-major crps_loss_batch as whole-array expressions, one fresh
    array per operation, its M segment terms added left to right to +0.0.
    Guards spline.py's claims for the loss: its gradient matches a row-major
    layout bit for bit, and it sums the segments in that order."""
    alpha = rebuilt_spline_inverse(gamma, s, knots, x)
    d_gamma, d_s = 1.0 - 2.0 * alpha, slope_grads(alpha, knots)
    loss = (2.0 * alpha - 1.0) * x + d_gamma * gamma
    segments = np.zeros_like(loss)
    for term in np.ascontiguousarray((s * d_s).T):
        segments += term
    loss += segments
    return loss, d_gamma, d_s


def load_bench_inputs():
    """bench/inputs.py, which builds the benchmark's tables."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def overflowed_discrete_logits(cp):
    """A copy of cp whose first discrete column's first two logits overflow:
    their decoder bias is 1.79e308 and their weight rows 1e306, so wherever
    the hidden layer is active both logits are inf and softmax gives NaN."""
    out = replace(cp, params=cp.params.copy())
    weight, bias = out.decoder[-1]
    # the logits sit at schema.level_starts, shifted by the P * M raw slopes
    pos = len(cp.schema.numeric_indices) * cp.config.knot_count + cp.schema.level_starts[0]
    bias[pos : pos + 2] = 1.79e308
    weight[pos : pos + 2] = 1e306
    return out


def per_point_estimate_cdf(cp, column, grid=None, n_mc=5000, seed=0):
    """estimate_cdf with every grid point rebuilding its draws' inverse from
    scratch. Guards estimate_cdf's claim that it decodes the draws and builds
    their knot values once: that must change no bit of the curve."""
    schema = cp.schema
    k = schema.numeric_indices.index(schema.index(column))
    z = np.random.default_rng(seed).standard_normal((n_mc, cp.config.latent_dim))
    dec_out, _ = mlp_forward(cp.decoder, z.T)
    gamma, raw, _ = decoder_heads(schema, cp.config.knot_count, dec_out)
    gamma, b, knots = gamma[k], sp.slopes_to_b(raw[:, k].T), cp.knots.d
    if grid is None:
        grid = np.linspace(cp.quantile_lo[k], cp.quantile_hi[k], 201)
    grid = np.asarray(grid, dtype=np.float64)
    values = np.empty_like(grid)
    for i, x in enumerate(grid):
        values[i] = rebuilt_spline_inverse(gamma, b, knots, np.full(n_mc, x)).mean()
    return np.minimum(np.maximum.accumulate(values), 1.0)


def _page_draws(cp, n, seed):
    """generate's random numbers for n rows, padded to whole pages: the
    latents, the uniform levels and each discrete column's Gumbel noise,
    each page's drawn in that order by its own generator seeded with
    SeedSequence(seed, spawn_key=(page,))."""
    pages = []
    for page in range(-(-n // PAGE_ROWS)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(page,)))
        draws = [rng.standard_normal((PAGE_ROWS, cp.config.latent_dim)),
                 rng.random((PAGE_ROWS, len(cp.schema.numeric_indices)))]
        pages.append(draws + [rng.gumbel(size=(PAGE_ROWS, cp.schema.columns[j].n_levels))
                              for j in cp.schema.discrete_indices])
    return [np.concatenate(role) for role in zip(*pages)]


def one_shot_generate(cp, n, seed, ordinal_rounding="integer"):
    """generate from the random numbers _page_draws lays out, with every row
    decoded in one pass and each column sampled over all rows at once, its
    hinges added segment by segment, left to right. Guards generate's claim
    that its pages change no value."""
    schema = cp.schema
    rows = np.zeros((n, len(schema.columns)))
    if n > 0:
        z, u, *noise = _page_draws(cp, n, seed)
        dec_out, _ = mlp_forward(cp.decoder, z.T)
        gamma, raw, logits = decoder_heads(schema, cp.config.knot_count, dec_out[:, :n])
        knots = cp.knots.d
        for k, col in enumerate(schema.numeric_indices):
            hinge = np.clip(u[:n, k] - knots[:-1, None], 0.0, np.diff(knots)[:, None])
            total = np.zeros(n)
            for segment in sp.slopes_to_b(raw[:, k]) * hinge:
                total += segment
            rows[:, col] = gamma[k] + total
        for block, col, g in zip(logits, schema.discrete_indices, noise):
            rows[:, col] = gumbel_max(softmax(block), g[:n].T)
        numeric = schema.numeric_indices
        rows[:, numeric] = rows[:, numeric] * cp.scaling.stddev + cp.scaling.mean
        for col in numeric:
            if schema.columns[col].kind == KIND_ORDINAL:
                rows[:, col] = round_ordinal(rows[:, col], ordinal_rounding)
    return rows


def one_shot_squared_distances(a, b):
    """Every squared L2 distance from the rows of a to the rows of b in one
    array. Guards _squared_distance_chunks: its block size changes no bit."""
    return np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * a @ b.T


def whole_file_load_csv(path, schema):
    """load_csv's csv-module reader with every record in one list and each
    column parsed over all rows at once, wrong-length rows first. Guards
    load_csv's claim that its blocks change neither the table nor the error
    reported."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
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
    csv.writer at once. Guards save_csv's claim that its blocked output holds
    the bytes of csv.writer."""
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


def file_order_decoder(model):
    """model's decoder with its output layer's rows in the checkpoint file's
    order: each numeric column's gamma and M raw slopes adjacent, then the
    logits. model.decoder holds that layer in head_order."""
    (w0, b0), (w1, b1) = model.decoder
    rows = np.argsort(head_order(model.schema, model.config.knot_count))
    return [(w0, b0), (w1[rows], b1[rows])]


def _row_major_forward(net, x):
    inputs, pres = [], []
    for i, (weight, bias) in enumerate(net):
        inputs.append(x)
        pre = x @ weight.T + bias
        pres.append(pre)
        x = pre if i == len(net) - 1 else np.maximum(pre, 0.0)
    return x, (inputs, pres)


def _row_major_backward(net, cache, g):
    inputs, pres = cache
    tape = []
    for i in range(len(net) - 1, -1, -1):
        if i < len(net) - 1:
            g = g * (pres[i] > 0)
        tape[:0] = [(g.T @ inputs[i]).ravel(), g.sum(axis=0)]
        g = g @ net[i][0]
    return g, np.concatenate(tape)


def row_major_elbo_grads(model, rows, noise):
    """The training step with row-major (rows, features) activations, the
    decoder's outputs in the checkpoint file's order (its gradient taken
    back to head_order at the end) and the spline head transposed to
    knot-major and back, spline r * P + p. Guards the feature-major
    elbo_grads, which computes the same loss and gradient with its sums and
    products in another order, so only their last bits may differ."""
    schema, knots, beta = model.schema, model.knots, model.config.beta
    n, d, m = rows.shape[0], model.config.latent_dim, model.config.knot_count
    enc_out, enc_cache = _row_major_forward(model.encoder, one_hot_matrix(schema, rows))
    mu, log_var = enc_out[:, :d], enc_out[:, d:]
    sigma = np.exp(log_var / 2.0)
    dec_out, dec_cache = _row_major_forward(file_order_decoder(model), mu + sigma * noise)
    p = len(schema.numeric_indices)
    numeric = dec_out[:, : p * (m + 1)].reshape(n, p, m + 1)
    raw_km = numeric[:, :, 1:].transpose(2, 0, 1).reshape(m, -1)
    x = rows[:, schema.numeric_indices].ravel()
    s_km = sp.slopes_to_b(raw_km)
    loss, dg, ds = sp.crps_loss_batch(numeric[:, :, 0].ravel(), s_km, knots, x)
    crps_sum = 0.5 * loss.sum()

    d_dec = np.zeros_like(dec_out)
    d_numeric = d_dec[:, : p * (m + 1)].reshape(n, p, m + 1)
    d_numeric[:, :, 0] = dg.reshape(n, p) * (0.5 / n)
    d_raw = sp.chain_slope_grads(ds * (0.5 / n), s_km, out=np.empty_like(s_km))
    d_numeric[:, :, 1:] = d_raw.reshape(m, n, p).transpose(1, 2, 0)
    ce_sum, pos = 0.0, p * (m + 1)
    for col in schema.discrete_indices:
        t = schema.columns[col].n_levels
        e = dec_out[:, pos : pos + t] - dec_out[:, pos : pos + t].max(axis=1, keepdims=True)
        picked = np.arange(n) * t + rows[:, col].astype(np.intp)
        true_shifted = np.take(e, picked)
        np.exp(e, out=e)
        norm = e.sum(axis=1, keepdims=True)
        ce_sum += (np.log(norm[:, 0]) - true_shifted).sum()
        e /= norm
        e.ravel()[picked] -= 1.0
        d_dec[:, pos : pos + t] = e / n
        pos += t

    var = np.exp(log_var)
    kl = float((0.5 * (mu * mu + var - log_var - 1.0).sum(axis=1)).sum() / n)
    breakdown = LossBreakdown(crps=crps_sum / n, discrete=ce_sum / n, kl=kl,
                              total=crps_sum / n + ce_sum / n + beta * kl)
    dz, dec_grad = _row_major_backward(file_order_decoder(model), dec_cache, d_dec)
    order = head_order(schema, m)
    (gw0, gb0), (gw1, gb1) = layer_views(net_sizes(schema, model.config)[1], dec_grad)
    dec_grad = np.concatenate([gw0.ravel(), gb0, gw1[order].ravel(), gb1[order]])
    d_enc = np.concatenate([dz + beta * mu / n, dz * 0.5 * sigma * noise + beta * 0.5 * (var - 1.0) / n], axis=1)
    _, enc_grad = _row_major_backward(model.encoder, enc_cache, d_enc)
    return breakdown, np.concatenate([enc_grad, dec_grad])
