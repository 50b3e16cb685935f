"""Spline head tests on plain length-1 batches: gamma (1,), s (M, 1),
knots (M+1,) and x (1,), the knot-major shapes the training step passes.
The row-major oracles in helpers take s (1, M), so their calls transpose."""

import importlib
import math

import numpy as np
import pytest

from helpers import (
    concatenated_knot_values,
    crps_loss_finite_k,
    crps_quadrature,
    expression_crps_loss_batch,
    grad_rel_err,
    mean_log_alpha_weight,
    random_spline,
    rebuilt_spline_inverse,
)
from tabsynth.spline import (
    chain_slope_grads,
    crps_grad_from_alpha,
    crps_loss_batch,
    knot_values,
    slopes_to_b,
    spline_inverse_batch,
    uniform_knots,
)

# D(a) = a + max(a - 0.5, 0): slope 1 on [0, 0.5], slope 2 on [0.5, 1]
HAND = (np.array([0.0]), np.array([[1.0], [2.0]]), np.array([0.0, 0.5, 1.0]))


@pytest.mark.parametrize(
    "name", ["slopes_to_b", "knot_values", "chain_slope_grads", "crps_grad_from_alpha", "uniform_knots"]
)
def test_spline_internals_are_not_package_exports(name):
    with pytest.raises(ImportError):
        exec(f"from tabsynth import {name}", {})
    assert callable(getattr(importlib.import_module("tabsynth.spline"), name))


def test_uniform_knots_spacing():
    knots = uniform_knots(10)
    assert knots.shape == (11,)
    assert knots[0] == 0.0 and knots[-1] == 1.0
    assert np.allclose(np.diff(knots), 0.1)


@pytest.mark.parametrize("count", [0, -1])
def test_uniform_knots_needs_a_segment(count):
    with pytest.raises(ValueError, match="^need at least 1 spline segment$"):
        uniform_knots(count)


def test_build_spline_flat_when_raw_slopes_very_negative():
    values = knot_values(np.array([2.5]), slopes_to_b(np.full((10, 1), -40.0)), uniform_knots(10))
    assert np.allclose(values, 2.5, atol=1e-12)


def test_build_spline_identity_slope():
    # softplus(c) = 1 at c = log(e - 1) makes every slope 1, D(a) = gamma + a
    c = math.log(math.e - 1.0)
    knots = uniform_knots(5)
    s = slopes_to_b(np.full((5, 1), c))
    assert np.allclose(s, 1.0, atol=1e-12)
    assert np.allclose(knot_values(np.array([0.25]), s, knots), 0.25 + knots[:, None])


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
    x = values[seg, rows] + s[seg, rows] * (a - knots[seg])
    alpha = spline_inverse_batch(values, s, knots, x)
    assert np.all((alpha >= 0.0) & (alpha <= 1.0))
    seg = np.minimum((alpha * m).astype(np.intp), m - 1)
    back = values[seg, rows] + s[seg, rows] * (alpha - knots[seg])
    assert np.all(np.abs(back - x) <= 1e-12 * np.maximum(1.0, np.abs(values).max(axis=0)))


def test_eval_hand_values():
    gamma, b, knots = HAND
    values = np.interp([0.25, 0.75], knots, knot_values(gamma, b, knots)[:, 0])
    assert values == pytest.approx([0.25, 1.0])


def test_eval_at_zero_is_gamma():
    rng = np.random.default_rng(0)
    for _ in range(20):
        gamma, s, knots, _ = random_spline(rng)
        assert knot_values(gamma, s.T, knots)[0, 0] == pytest.approx(gamma[0], abs=1e-12)


def test_eval_monotone_in_alpha():
    # D is linear between knots, so non-decreasing knot values make it monotone
    rng = np.random.default_rng(1)
    for _ in range(200):
        gamma, s, knots, _ = random_spline(rng)
        assert np.all(np.diff(knot_values(gamma, s.T, knots), axis=0) >= 0.0)


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
        x = np.interp(alphas, knots, knot_values(gamma, s, knots)[:, 0])
        s = np.repeat(s, 5, axis=1)
        back = spline_inverse_batch(knot_values(np.repeat(gamma, 5), s, knots), s, knots, x)
        assert back == pytest.approx(alphas, abs=1e-9)


def test_inverse_flat_plateau_maps_to_left_knot():
    # rises to 1 on [0, 0.25], flat on [0.25, 0.5], rises again afterwards
    s, knots = np.array([[4.0], [0.0], [2.0]]), np.array([0.0, 0.25, 0.5, 1.0])
    alpha = spline_inverse_batch(knot_values(np.array([0.0]), s, knots), s, knots, np.array([1.0]))
    assert alpha[0] == 0.25


def test_inverse_zero_denominator_returns_left_knot():
    # first segment has vanishing slope; x just above gamma falls inside it
    s, knots = np.array([[1e-310], [3.0]]), np.array([0.0, 0.5, 1.0])
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
            assert alpha.tobytes() == rebuilt_spline_inverse(gamma, s.T, knots, x).tobytes()
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
    values = concatenated_knot_values(gamma, s, knots)
    x = rng.normal(0.0, 4.0, n)
    x[0::5] = values[0::5, rng.integers(0, m + 1)]  # at a knot value
    x[1::5] = values[1::5, 0] - 1.0  # below D(0)
    x[2::5] = values[2::5, -1] + 1.0  # above D(1)
    return gamma, s, knots, x


@pytest.mark.parametrize("m", [1, 2, 4, 10, 17, 128, 129, 300])
def test_in_place_spline_head_matches_expression_reference_bit_for_bit(m):
    rng = np.random.default_rng(40 + m)
    gamma, s, knots, x = awkward_batch(rng, m)
    assert knot_values(gamma, s.T, knots).tobytes() == concatenated_knot_values(gamma, s, knots).T.tobytes()
    got = crps_loss_batch(gamma, s.T, knots, x)
    want = expression_crps_loss_batch(gamma, s, knots, x)
    assert [a.tobytes() for a in got] == [want[0].tobytes(), want[1].tobytes(), want[2].T.tobytes()]
    assert np.any(s == 0.0)


@pytest.mark.parametrize("m", [1, 2, 4, 7, 8, 9, 10, 16, 17, 128, 129, 300])
def test_knot_major_head_matches_row_major_references_bit_for_bit(m):
    # the row-major references take the transposed slopes and give the
    # transposed knot values and d_s; x also sits at D(0), at +-inf and at NaN
    rng = np.random.default_rng(60 + m)
    gamma, s, knots, x = awkward_batch(rng, m)
    values = concatenated_knot_values(gamma, s, knots)
    x[3::10] = values[3::10, 0]
    x[8::20], x[18::20] = np.inf, -np.inf
    x[13::20] = np.nan
    assert knot_values(gamma, s.T, knots).tobytes() == values.T.tobytes()
    assert spline_inverse_batch(values.T, s.T, knots, x).tobytes() == rebuilt_spline_inverse(
        gamma, s, knots, x).tobytes()
    with np.errstate(invalid="ignore"):
        loss, d_gamma, d_s = crps_loss_batch(gamma, s.T, knots, x)
        want = expression_crps_loss_batch(gamma, s, knots, x)
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
        np.full(2, 0.3), np.zeros((2, 2)), np.array([0.0, 0.5, 1.0]), np.array([1.0, -0.4])
    )
    assert loss == pytest.approx([0.7, 0.7])


def test_crps_hand_value_one_twelfth():
    loss, _, _ = crps_loss_batch(np.array([0.0]), np.array([[1.0]]), np.array([0.0, 1.0]), np.array([0.5]))
    assert loss[0] == pytest.approx(1.0 / 12.0, abs=1e-12)


def test_crps_matches_quadrature_on_random_fixtures():
    rng = np.random.default_rng(3)
    for _ in range(50):
        gamma, s, knots, x = random_spline(rng)
        loss, d_gamma, _ = crps_loss_batch(gamma, s.T, knots, x)
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
        x = np.interp([float(rng.uniform(0.05, 0.95))], knots, knot_values(gamma, s, knots)[:, 0])
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
        target = crps_loss_batch(gamma, s.T, knots, x)[0][0] / 2.0
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
    knots = np.array([0.0, 1.0])
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
        (d_raw,) = chain_slope_grads(ds.T, slope_raw)

        bumped = slope_raw + np.concatenate([eps * np.eye(6), -eps * np.eye(6)])
        losses, _, _ = crps_loss_batch(np.repeat(gamma, 12), slopes_to_b(bumped).T, knots, np.repeat(x, 12))
        numeric = (losses[:6] - losses[6:]) / (2 * eps)
        for j in range(6):
            assert grad_rel_err(d_raw[j], numeric[j]) < 1e-4
