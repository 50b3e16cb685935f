"""Spline head tests on plain length-1 batches: gamma (1,), s (M, 1),
Knots of M+1 positions and x (1,), the knot-major shapes the training step
passes. The row-major oracles in helpers take s (1, M) and the positions
knots.d, so their calls transpose and read d."""

import importlib
import math
import warnings

import numpy as np
import pytest

from helpers import (
    concatenated_knot_values,
    crps_exact,
    crps_grads_exact,
    crps_loss_finite_k,
    crps_quadrature,
    decimal_logistic,
    decimal_softplus,
    expression_crps_loss_batch,
    grad_rel_err,
    masked_softplus,
    max_form_slope_grads,
    mean_log_alpha_weight,
    random_spline,
    rebuilt_spline_inverse,
    ulps_from,
)
from tabsynth.spline import (
    Knots,
    chain_slope_grads,
    crps_grad_from_alpha,
    crps_loss_batch,
    knot_table,
    knot_values,
    slopes_to_b,
    spline_inverse_batch,
    uniform_knots,
)

# D(a) = a + max(a - 0.5, 0): slope 1 on [0, 0.5], slope 2 on [0.5, 1]
HAND = (np.array([0.0]), np.array([[1.0], [2.0]]), knot_table([0.0, 0.5, 1.0]))


@pytest.mark.parametrize(
    "name",
    ["slopes_to_b", "knot_values", "chain_slope_grads", "crps_grad_from_alpha", "uniform_knots", "knot_table", "Knots"],
)
def test_spline_internals_are_not_package_exports(name):
    with pytest.raises(ImportError):
        exec(f"from tabsynth import {name}", {})
    assert callable(getattr(importlib.import_module("tabsynth.spline"), name))


def test_uniform_knots_spacing():
    knots = uniform_knots(10)
    assert isinstance(knots, Knots) and knots.d.shape == (11,)
    assert knots.d[0] == 0.0 and knots.d[-1] == 1.0
    assert np.allclose(knots.widths, 0.1)


@pytest.mark.parametrize("count", [0, -1])
def test_uniform_knots_needs_a_segment(count):
    with pytest.raises(ValueError, match="^need at least 1 spline segment$"):
        uniform_knots(count)


def test_slopes_to_b_values_and_guards():
    assert slopes_to_b(np.array(0.0)) == pytest.approx(math.log(2.0))
    assert isinstance(slopes_to_b(np.array(0.0)), np.ndarray)  # a 0-d array, not a scalar
    assert slopes_to_b(np.array(40.0)) == 40.0
    assert slopes_to_b(np.array(-40.0)) == pytest.approx(math.exp(-40.0))
    with np.errstate(over="raise"):
        out = slopes_to_b(np.array([-1000.0, -5.0, 0.0, 5.0, 1000.0]))
    assert np.all(np.isfinite(out))
    assert np.all(np.diff(out) > 0)


def logistic_from_slopes(x):
    """The logistic as the training step computes it, from the slopes
    slopes_to_b(x): chain_slope_grads of a unit gradient."""
    s = slopes_to_b(x)
    return chain_slope_grads(1.0, s, out=np.empty_like(s))


@pytest.mark.parametrize(("fast", "reference"), [
    (slopes_to_b, decimal_softplus),
    (logistic_from_slopes, decimal_logistic),
], ids=["softplus", "logistic"])
def test_within_2_ulp_of_a_50_digit_reference(fast, reference):
    points = np.array([0.0, 1e-300, 30.0, 36.7, 709.8, 800.0])
    x = np.concatenate([points, -points, [-745.2], np.random.default_rng(29).normal(0.0, 40.0, 2000)])
    with np.errstate(over="raise"):
        got = fast(x)
    want = [reference(float(v)) for v in x]
    errors = np.array([ulps_from(g, w) for g, w in zip(got, want)])
    normal = np.abs([float(w) for w in want]) >= np.finfo(np.float64).tiny
    # 2 ulp where the reference is normal (measured over 43,000 points: 1.53
    # for softplus, 1.75 for the logistic); below, one subnormal step
    # (5e-324), from the rounding of exp's subnormal result (measured: 0.50)
    assert errors[normal].max() <= 2.0
    assert errors[~normal].max() <= 1.0
    assert normal.any() and not normal.all()


@pytest.mark.parametrize(("fast", "at_inf", "at_minus_inf"), [
    (slopes_to_b, np.inf, 0.0),
    (logistic_from_slopes, 1.0, 0.0),
], ids=["softplus", "logistic"])
def test_infinities_and_nan(fast, at_inf, at_minus_inf):
    with np.errstate(over="raise"):
        out = fast(np.array([np.inf, -np.inf, np.nan]))
    assert out[0] == at_inf and out[1] == at_minus_inf and np.isnan(out[2])


def test_slopes_to_b_matches_masked_reference_bit_for_bit():
    eps = np.finfo(np.float64).eps
    edges = np.array([
        30.0, 30.0 * (1 + eps), 30.0 * (1 - eps), 709.0, 710.0, 745.0, 746.0,
        np.inf, np.nan, 0.0, 1e-300,
    ])
    x = np.concatenate([
        np.random.default_rng(6).normal(0.0, 25.0, size=4000), edges, -edges,
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = slopes_to_b(x), masked_softplus(x)
    # NaN where the reference has NaN, in either sign: which of two NaNs an
    # add returns depends on the lane numpy's loop computes it in
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def test_build_spline_flat_when_raw_slopes_very_negative():
    values = knot_values(np.array([2.5]), slopes_to_b(np.full((10, 1), -40.0)), uniform_knots(10))
    assert np.allclose(values, 2.5, atol=1e-12)


def test_build_spline_identity_slope():
    # softplus(c) = 1 at c = log(e - 1) makes every slope 1, D(a) = gamma + a
    c = math.log(math.e - 1.0)
    knots = uniform_knots(5)
    s = slopes_to_b(np.full((5, 1), c))
    assert np.allclose(s, 1.0, atol=1e-12)
    assert np.allclose(knot_values(np.array([0.25]), s, knots), 0.25 + knots.column)


def test_build_spline_partial_sums_never_negative():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        m = int(rng.integers(1, 13))
        assert np.all(slopes_to_b(rng.normal(0.0, 3.0, m + 1)) >= 0.0)


def test_wide_raw_slopes_keep_d_monotone_and_invertible():
    # raw ~ N(0, 10^2) mixes slopes near e^-30 with slopes near 30; summing
    # hinge weights b = diff(s) back into slopes lost the small ones to
    # round-off and made D decrease between knots
    m, n = 10, 200_000
    rng = np.random.default_rng(1)
    gamma, raw = rng.normal(0.0, 1.0, n), rng.normal(0.0, 10.0, (n, m))
    knots, s = uniform_knots(m), slopes_to_b(raw.T)
    values = knot_values(gamma, s, knots)
    assert np.all(np.diff(values, axis=0) >= 0.0)

    # x = D(a) at a random level; alpha_tilde must be a level in [0, 1] that D maps back to x
    a = rng.random(n)
    seg = np.minimum((a * m).astype(np.intp), m - 1)
    rows = np.arange(n)
    x = values[seg, rows] + s[seg, rows] * (a - knots.d[seg])
    alpha = spline_inverse_batch(values, s, knots, x)
    assert np.all((alpha >= 0.0) & (alpha <= 1.0))
    seg = np.minimum((alpha * m).astype(np.intp), m - 1)
    back = values[seg, rows] + s[seg, rows] * (alpha - knots.d[seg])
    assert np.all(np.abs(back - x) <= 1e-12 * np.maximum(1.0, np.abs(values).max(axis=0)))


def test_eval_hand_values():
    gamma, b, knots = HAND
    values = np.interp([0.25, 0.75], knots.d, knot_values(gamma, b, knots)[:, 0])
    assert values == pytest.approx([0.25, 1.0])


def test_eval_at_zero_is_gamma():
    rng = np.random.default_rng(0)
    for _ in range(20):
        gamma, s, knots, _ = random_spline(rng)
        assert knot_values(gamma, s.T, knot_table(knots))[0, 0] == pytest.approx(gamma[0], abs=1e-12)


def test_eval_monotone_in_alpha():
    # D is linear between knots, so non-decreasing knot values make it monotone
    rng = np.random.default_rng(1)
    for _ in range(200):
        gamma, s, knots, _ = random_spline(rng)
        assert np.all(np.diff(knot_values(gamma, s.T, knot_table(knots)), axis=0) >= 0.0)


def test_inverse_hand_value():
    alpha = spline_inverse_batch(knot_values(*HAND), HAND[1], HAND[2], np.array([1.0]))
    assert alpha[0] == pytest.approx(0.75)


def test_inverse_at_gamma_is_zero():
    alpha = spline_inverse_batch(knot_values(*HAND), HAND[1], HAND[2], np.array([0.0]))
    assert alpha[0] == 0.0


def test_inverse_clamps_outside_range():
    s = np.repeat(HAND[1], 2, axis=1)
    alpha = spline_inverse_batch(knot_values(np.zeros(2), s, HAND[2]), s, HAND[2], np.array([-5.0, 5.0]))
    assert alpha.tolist() == [0.0, 1.0]


def test_inverse_round_trip_on_increasing_segments():
    rng = np.random.default_rng(2)
    for _ in range(100):
        m = int(rng.integers(1, 13))
        knots = uniform_knots(m)
        gamma = np.array([float(rng.normal())])
        # raw slopes bounded below so every segment rises strictly
        s = slopes_to_b(rng.uniform(-1.0, 2.0, (1, m + 1))[:, :m].T)
        alphas = rng.uniform(0.0, 1.0, 5)
        x = np.interp(alphas, knots.d, knot_values(gamma, s, knots)[:, 0])
        s = np.repeat(s, 5, axis=1)
        back = spline_inverse_batch(knot_values(np.repeat(gamma, 5), s, knots), s, knots, x)
        assert back == pytest.approx(alphas, abs=1e-9)


def test_inverse_flat_plateau_maps_to_left_knot():
    # rises to 1 on [0, 0.25], flat on [0.25, 0.5], rises again afterwards
    s, knots = np.array([[4.0], [0.0], [2.0]]), knot_table([0.0, 0.25, 0.5, 1.0])
    alpha = spline_inverse_batch(knot_values(np.array([0.0]), s, knots), s, knots, np.array([1.0]))
    assert alpha[0] == 0.25


def test_inverse_zero_denominator_returns_left_knot():
    # first segment has vanishing slope; x just above gamma falls inside it
    s, knots = np.array([[1e-310], [3.0]]), knot_table([0.0, 0.5, 1.0])
    alpha = spline_inverse_batch(knot_values(np.array([0.0]), s, knots), s, knots, np.array([3e-311]))
    assert alpha[0] == 0.0


def test_inverse_over_knot_values_built_once_matches_rebuilt_inverse_bit_for_bit():
    # one knot_values build serves several x batches, as in estimate_cdf; the
    # reference sets alpha to 0 at or below D(0) by a mask the package lacks
    rng = np.random.default_rng(9)
    for m in (1, 4, 10):
        knots = uniform_knots(m)
        gamma = rng.normal(0.0, 2.0, 300)
        raw = rng.normal(0.0, 2.5, (300, m + 1))
        raw[rng.random((300, m + 1)) < 0.1] = -800.0  # exactly flat segments
        raw[::7, : (m + 1) // 2] = -800.0  # rows whose first segments are flat
        s = slopes_to_b(raw[:, :m].T)
        values = knot_values(gamma, s, knots)
        below = values[0] - rng.exponential(1.0, 300)
        batches = (rng.normal(0.0, 4.0, 300), np.full(300, 0.5), values[m // 2], values[0],
                   below, np.full(300, -np.inf), np.full(300, np.inf), np.full(300, np.nan))
        for x in batches:
            alpha = spline_inverse_batch(values, s, knots, x)
            assert alpha.tobytes() == rebuilt_spline_inverse(gamma, s.T, knots.d, x).tobytes()
        # 0 at and below D(0), except that x = D(0) = D(1) on a flat D gives 1
        at_start = spline_inverse_batch(values, s, knots, values[0])
        assert np.array_equal(at_start, np.where(values[0] < values[-1], 0.0, 1.0))
        assert not np.any(np.signbit(spline_inverse_batch(values, s, knots, below)))


def awkward_batch(rng, m, n=300):
    """A batch with exactly flat segments, x below D(0), above D(1), at a
    knot value and inside a segment, and a -0.0 gamma."""
    knots = uniform_knots(m)
    gamma = rng.normal(0.0, 2.0, n)
    gamma[::13] = -0.0
    raw = rng.normal(0.0, 2.5, (n, m))
    raw[rng.random((n, m)) < 0.15] = -800.0  # softplus is exactly 0
    s = slopes_to_b(raw)
    values = concatenated_knot_values(gamma, s, knots.d)
    x = rng.normal(0.0, 4.0, n)
    x[0::5] = values[0::5, rng.integers(0, m + 1)]  # at a knot value
    x[1::5] = values[1::5, 0] - 1.0  # below D(0)
    x[2::5] = values[2::5, -1] + 1.0  # above D(1)
    return gamma, s, knots, x


@pytest.mark.parametrize("m", [1, 2, 4, 10, 17, 128, 129, 300])
def test_in_place_spline_head_matches_expression_reference_bit_for_bit(m):
    rng = np.random.default_rng(40 + m)
    gamma, s, knots, x = awkward_batch(rng, m)
    assert knot_values(gamma, s.T, knots).tobytes() == concatenated_knot_values(gamma, s, knots.d).T.tobytes()
    got = crps_loss_batch(gamma, s.T, knots, x)
    want = expression_crps_loss_batch(gamma, s, knots.d, x)
    assert [a.tobytes() for a in got] == [want[0].tobytes(), want[1].tobytes(), want[2].T.tobytes()]
    assert np.any(s == 0.0)


@pytest.mark.parametrize("m", [1, 2, 4, 7, 8, 9, 10, 16, 17, 128, 129, 300])
def test_knot_major_head_matches_row_major_references_bit_for_bit(m):
    # the row-major references take the transposed slopes and give the
    # transposed knot values and d_s; x also sits at D(0), at +-inf and at NaN
    rng = np.random.default_rng(60 + m)
    gamma, s, knots, x = awkward_batch(rng, m)
    values = concatenated_knot_values(gamma, s, knots.d)
    x[3::10] = values[3::10, 0]
    x[8::20], x[18::20] = np.inf, -np.inf
    x[13::20] = np.nan
    assert knot_values(gamma, s.T, knots).tobytes() == values.T.tobytes()
    assert spline_inverse_batch(values.T, s.T, knots, x).tobytes() == rebuilt_spline_inverse(
        gamma, s, knots.d, x).tobytes()
    with np.errstate(invalid="ignore"):
        loss, d_gamma, d_s = crps_loss_batch(gamma, s.T, knots, x)
        want = expression_crps_loss_batch(gamma, s, knots.d, x)
    assert [loss.tobytes(), d_gamma.tobytes(), d_s.tobytes()] == [
        want[0].tobytes(), want[1].tobytes(), want[2].T.tobytes()]
    assert np.any(s == 0.0) and np.any(np.isnan(loss)) and np.any(np.signbit(gamma) & (gamma == 0.0))


def test_row_major_inputs_raise_naming_the_knot_major_layout():
    m = 3
    knots = uniform_knots(m)
    # N == M + 1 splines, row-major: s (N, M) reads as M + 1 segments of M splines
    with pytest.raises(ValueError, match=r"gamma must have shape \(3,\) .* \(M, N\) = \(4, 3\)"):
        knot_values(np.zeros(m + 1), np.ones((m + 1, m)), knots)
    # N == M: a square s passes, but row-major knot values (N, M+1) and an x
    # of the wrong length do not
    s = np.ones((m, m))
    values = knot_values(np.zeros(m), s, knots)
    assert values.shape == (m + 1, m)
    with pytest.raises(ValueError, match=r"values must have shape \(4, 3\) .* got \(3, 4\)"):
        spline_inverse_batch(values.T, s, knots, np.zeros(m))
    with pytest.raises(ValueError, match=r"x must have shape \(3,\)"):
        spline_inverse_batch(values, s, knots, np.zeros(m + 1))


def test_crps_constant_spline_is_absolute_error():
    loss, _, _ = crps_loss_batch(
        np.full(2, 0.3), np.zeros((2, 2)), knot_table([0.0, 0.5, 1.0]), np.array([1.0, -0.4])
    )
    assert loss == pytest.approx([0.7, 0.7])


def test_crps_hand_value_one_twelfth():
    loss, _, _ = crps_loss_batch(np.array([0.0]), np.array([[1.0]]), knot_table([0.0, 1.0]), np.array([0.5]))
    assert loss[0] == pytest.approx(1.0 / 12.0, abs=1e-12)


def test_crps_matches_quadrature_on_random_fixtures():
    rng = np.random.default_rng(3)
    for _ in range(50):
        gamma, s, knots, x = random_spline(rng)
        loss, d_gamma, _ = crps_loss_batch(gamma, s.T, knot_table(knots), x)
        assert loss[0] >= 0.0
        assert -1.0 <= d_gamma[0] <= 1.0  # d_gamma = 1 - 2 alpha_tilde
        assert abs(loss[0] - crps_quadrature(gamma, s, knots, x, nodes=200_001)) < 1e-6


def test_crps_envelope_is_flat_in_alpha():
    # perturbing alpha_tilde at fixed coefficients only moves the loss at
    # second order, which justifies holding it constant in the gradient
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = int(rng.integers(1, 13))
        knots = uniform_knots(m)
        gamma = np.array([float(rng.normal())])
        s = slopes_to_b(rng.uniform(-2.0, 2.0, (1, m + 1))[:, :m].T)
        x = np.interp([float(rng.uniform(0.05, 0.95))], knots.d, knot_values(gamma, s, knots)[:, 0])
        (alpha_tilde,) = spline_inverse_batch(knot_values(gamma, s, knots), s, knots, x)

        def loss_at(alpha):
            _, terms = crps_grad_from_alpha(np.array([alpha]), knots)
            return (2.0 * alpha - 1.0) * x[0] + (1.0 - 2.0 * alpha) * gamma[0] + float(s[:, 0] @ terms[:, 0])

        base = loss_at(alpha_tilde)
        for eps in (1e-4, -1e-4):
            alpha = min(1.0, max(0.0, alpha_tilde + eps))
            assert abs(loss_at(alpha) - base) < 1e-6


def test_finite_k_single_term():
    constant = (np.array([0.0]), np.zeros((1, 1)), np.array([0.0, 1.0]), np.array([1.0]))
    assert crps_loss_finite_k(*constant, 1) == pytest.approx(1.0)


def test_finite_k_converges_to_half_closed_form():
    rng = np.random.default_rng(6)
    for _ in range(10):
        spline = random_spline(rng)
        gamma, s, knots, x = spline
        target = crps_loss_batch(gamma, s.T, knot_table(knots), x)[0][0] / 2.0
        errors = [abs(crps_loss_finite_k(*spline, 10**j) - target) for j in (2, 3, 4, 5)]
        assert errors[-1] < 1e-3
        assert all(a >= b - 1e-12 for a, b in zip(errors[:-1], errors[1:]))


def test_mean_log_alpha_weight():
    assert mean_log_alpha_weight(2) == pytest.approx(math.log(0.25) / 2.0)
    assert mean_log_alpha_weight(100_000) == pytest.approx(-2.0, abs=1e-2)
    err_small = abs(mean_log_alpha_weight(100) + 2.0)
    err_large = abs(mean_log_alpha_weight(100_000) + 2.0)
    assert err_large < err_small


def test_grad_saturated_clamps():
    knots = knot_table([0.0, 1.0])
    s = np.array([[1.0] * 2])
    alphas = spline_inverse_batch(knot_values(np.zeros(2), s, knots), s, knots, np.array([50.0, -50.0]))
    (dg_hi, dg_lo), _ = crps_grad_from_alpha(alphas, knots)
    assert dg_hi == pytest.approx(-1.0)
    assert dg_lo == pytest.approx(+1.0)


def _coeff_gradcheck_fixture(rng):
    m = int(rng.integers(1, 13))
    knots = uniform_knots(m)
    gamma = np.array([float(rng.normal())])
    # raw slopes bounded below keep the slopes comfortably positive, so the
    # finite-difference perturbations of s stay inside the valid region
    s = slopes_to_b(rng.uniform(-1.5, 2.0, (1, m + 1))[:, :m])
    x = np.array([float(rng.normal(gamma[0] + 0.5, 1.5))])
    if np.min(np.abs(knot_values(gamma, s.T, knots) - x)) < 1e-6:
        return None  # kink of the loss, gradient one-sided there
    return gamma, s, knots, x


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    eps = 1e-6
    checked = 0
    while checked < 200:
        fixture = _coeff_gradcheck_fixture(rng)
        if fixture is None:
            continue
        gamma, s, knots, x = fixture
        checked += 1
        _, (dg,), ds = crps_loss_batch(gamma, s.T, knots, x)
        ds = ds[:, 0]

        # one batch of perturbed splines: row 0 moves gamma, row j + 1 moves
        # s_j, by +eps in the first half and by -eps in the second
        size = s.shape[1] + 1
        step = np.concatenate([eps * np.eye(size), -eps * np.eye(size)])
        losses, _, _ = crps_loss_batch(gamma + step[:, 0], (s + step[:, 1:]).T, knots, np.repeat(x, 2 * size))
        numeric = (losses[:size] - losses[size:]) / (2 * eps)
        assert grad_rel_err(dg, numeric[0]) < 1e-4
        for j in range(size - 1):
            assert grad_rel_err(ds[j], numeric[j + 1]) < 1e-4


def test_grad_chains_through_raw_slopes():
    rng = np.random.default_rng(8)
    eps = 1e-6
    knots = uniform_knots(6)
    for _ in range(50):
        gamma = np.array([float(rng.normal())])
        slope_raw = rng.uniform(-1.5, 2.0, (1, 7))[:, :6]
        s = slopes_to_b(slope_raw)
        x = np.array([float(rng.normal(gamma[0] + 0.5, 1.5))])
        if np.min(np.abs(knot_values(gamma, s.T, knots) - x)) < 1e-6:
            continue
        _, _, ds = crps_loss_batch(gamma, s.T, knots, x)
        (d_raw,) = chain_slope_grads(ds.T, s, out=np.empty_like(s))

        bumped = slope_raw + np.concatenate([eps * np.eye(6), -eps * np.eye(6)])
        losses, _, _ = crps_loss_batch(np.repeat(gamma, 12), slopes_to_b(bumped).T, knots, np.repeat(x, 12))
        numeric = (losses[:6] - losses[6:]) / (2 * eps)
        for j in range(6):
            assert grad_rel_err(d_raw[j], numeric[j]) < 1e-4


def test_chain_slope_grads_into_out_matches_the_returning_form_bit_for_bit():
    # slopes at 0, subnormal and tiny, ordinary, and past +-40, where the
    # logistic is 1 or exp(-s) - 1 overflows; out a row block of a larger
    # array, against out a fresh array
    rng = np.random.default_rng(14)
    s = np.array([[0.0, -0.0, 5e-324, 1e-300, 1e-17, 0.3],
                  [1.0, 39.5, 40.5, 745.0, -40.5, -710.0]])
    ds = rng.normal(size=s.shape)
    ds[0, 0] = -ds[0, 0]
    buffer = np.full((4, 6), np.nan)
    with np.errstate(over="ignore"):
        got = chain_slope_grads(ds, s, out=buffer[1:3])
        want = chain_slope_grads(ds, s, out=np.empty_like(s))
    assert np.shares_memory(got, buffer) and got.tobytes() == want.tobytes()
    assert np.isnan(buffer[[0, 3]]).all()


def test_knot_table_holds_the_constants_the_loss_reads():
    knots = np.array([0.0, 0.1, 0.45, 0.5, 1.0])
    table = knot_table(knots)
    k = (1.0 - knots**3) / 3.0 - knots + knots * knots
    assert table.d.tobytes() == knots.tobytes()
    assert table.column.tobytes() == knots[:, None].tobytes() and table.column.shape == (5, 1)
    assert table.widths.tobytes() == np.diff(knots)[:, None].tobytes()
    assert table.k_steps.tobytes() == (k[:-1] - k[1:])[:, None].tobytes()
    assert not any(a.flags.writeable for a in table)
    knots[1] = 0.2  # the table keeps its own copy
    assert table.d[1] == 0.1


def test_loss_gradient_and_inverse_on_uneven_knots():
    # against the exact piecewise references, at random knot positions (over
    # these draws: 4.5e-16 relative in the loss, 2.7e-15 in the gradient and
    # 1.8e-15 in the level given back)
    rng = np.random.default_rng(91)
    for _ in range(300):
        gamma, s, _, x = random_spline(rng)
        m = s.shape[1]
        knots = knot_table(np.concatenate([[0.0], np.sort(rng.random(m - 1)), [1.0]]))
        loss, d_gamma, d_s = crps_loss_batch(gamma, s.T, knots, x)
        exact = crps_exact(gamma, s, knots.d, x)
        assert abs(loss[0] - exact) <= 1e-12 * (1.0 + abs(exact))
        want_d_gamma, want_d_s = crps_grads_exact(gamma, s, knots.d, x)
        assert abs(d_gamma[0] - want_d_gamma) <= 1e-12
        assert np.max(np.abs(d_s[:, 0] - want_d_s)) <= 1e-12

        # x = D(level) on strictly rising segments; the inverse gives the level back
        levels = rng.random(5)
        rising = slopes_to_b(rng.uniform(-1.0, 2.0, (m, 1)))
        x = np.interp(levels, knots.d, knot_values(gamma, rising, knots)[:, 0])
        rising = np.repeat(rising, 5, axis=1)
        back = spline_inverse_batch(knot_values(np.repeat(gamma, 5), rising, knots), rising, knots, x)
        assert np.max(np.abs(back - levels)) <= 1e-12


def knot_edge_alphas(knots):
    """0, 1, every knot and the floats either side of each, inside [0, 1]."""
    near = np.concatenate([knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf)])
    return np.unique(np.concatenate([[0.0, 1.0], near[(near >= 0.0) & (near <= 1.0)]]))


# the K-form against the closed form's expression before it: both round
# sums of terms under 4/3, so d_s may differ by a few ulp of 1, and the loss
# by that much per unit of 1 + |x| + |gamma| + sum(s) (measured over m up
# to 300: 2.3 ulp of 1 in d_s, 0.72 ulp per unit in the loss, 1.2e-14 on
# losses up to 18)
K_FORM_ULPS = 4


@pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 10, 17, 128])
def test_k_form_matches_the_max_form_at_and_around_the_knots(m):
    knots = uniform_knots(m)
    alpha = knot_edge_alphas(knots.d)
    d_gamma, d_s = crps_grad_from_alpha(alpha, knots)
    assert d_gamma.tobytes() == (1.0 - 2.0 * alpha).tobytes()
    assert np.max(np.abs(d_s.T - max_form_slope_grads(alpha, knots.d))) <= K_FORM_ULPS * 2.0**-52


@pytest.mark.parametrize("m", [1, 2, 4, 10, 17, 128])
def test_k_form_loss_matches_the_max_form_on_awkward_batches(m):
    gamma, s, knots, x = awkward_batch(np.random.default_rng(80 + m), m)
    loss, d_gamma, d_s = crps_loss_batch(gamma, s.T, knots, x)
    want_loss, want_d_gamma, want_d_s = expression_crps_loss_batch(
        gamma, s, knots.d, x, slope_grads=max_form_slope_grads)
    assert d_gamma.tobytes() == want_d_gamma.tobytes()
    ulp = K_FORM_ULPS * 2.0**-52
    assert np.max(np.abs(d_s.T - want_d_s)) <= ulp
    assert np.all(np.abs(loss - want_loss) <= ulp * (1.0 + np.abs(x) + np.abs(gamma) + s.sum(axis=1)))
