"""Spline head tests on plain length-1 batches: gamma (1,), b (1, M+1),
knots (M+1,) and x (1,), the shapes the training step passes."""

import math

import numpy as np
import pytest

from helpers import (
    crps_loss_finite_k,
    crps_quadrature,
    grad_rel_err,
    mean_log_alpha_weight,
    random_spline,
)
from tabsynth import chain_slope_grads, crps_grad_from_alpha, knot_values, slopes_to_b, uniform_knots
from tabsynth.spline import crps_loss_batch, spline_inverse_batch

# D(a) = a + max(a - 0.5, 0): slope 1 on [0, 0.5], slope 2 on [0.5, 1]
HAND = (np.array([0.0]), np.array([[1.0, 1.0, 0.0]]), np.array([0.0, 0.5, 1.0]))


def test_uniform_knots_spacing():
    knots = uniform_knots(10)
    assert knots.shape == (11,)
    assert knots[0] == 0.0 and knots[-1] == 1.0
    assert np.allclose(np.diff(knots), 0.1)


def test_build_spline_flat_when_raw_slopes_very_negative():
    values = knot_values(np.array([2.5]), slopes_to_b(np.full((1, 11), -40.0)), uniform_knots(10))
    assert np.allclose(values, 2.5, atol=1e-12)


def test_build_spline_identity_slope():
    # softplus(c) = 1 at c = log(e - 1) makes b = (1, 0, ..., 0), D(a) = gamma + a
    c = math.log(math.e - 1.0)
    knots = uniform_knots(5)
    b = slopes_to_b(np.full((1, 6), c))
    assert np.allclose(b, [[1.0, 0, 0, 0, 0, 0]], atol=1e-12)
    assert np.allclose(knot_values(np.array([0.25]), b, knots), 0.25 + knots)


def test_build_spline_partial_sums_never_negative():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        m = int(rng.integers(1, 13))
        b = slopes_to_b(rng.normal(0.0, 3.0, m + 1))
        assert np.all(np.cumsum(b) >= 0.0)


def test_eval_hand_values():
    gamma, b, knots = HAND
    values = np.interp([0.25, 0.75], knots, knot_values(gamma, b, knots)[0])
    assert values == pytest.approx([0.25, 1.0])


def test_eval_at_zero_is_gamma():
    rng = np.random.default_rng(0)
    for _ in range(20):
        gamma, b, knots, _ = random_spline(rng)
        assert knot_values(gamma, b, knots)[0, 0] == pytest.approx(gamma[0], abs=1e-12)


def test_eval_monotone_in_alpha():
    # D is linear between knots, so non-decreasing knot values make it monotone
    rng = np.random.default_rng(1)
    for _ in range(200):
        gamma, b, knots, _ = random_spline(rng)
        assert np.all(np.diff(knot_values(gamma, b, knots)) >= -1e-12)


def test_inverse_hand_value():
    alpha, seg = spline_inverse_batch(*HAND, np.array([1.0]))
    assert alpha[0] == pytest.approx(0.75)
    assert seg[0] == 1


def test_inverse_at_gamma_is_zero():
    alpha, _ = spline_inverse_batch(*HAND, np.array([0.0]))
    assert alpha[0] == 0.0


def test_inverse_clamps_outside_range():
    alpha, _ = spline_inverse_batch(np.zeros(2), np.repeat(HAND[1], 2, axis=0), HAND[2], np.array([-5.0, 5.0]))
    assert alpha.tolist() == [0.0, 1.0]


def test_inverse_round_trip_on_increasing_segments():
    rng = np.random.default_rng(2)
    for _ in range(100):
        m = int(rng.integers(1, 13))
        knots = uniform_knots(m)
        gamma = np.array([float(rng.normal())])
        # raw slopes bounded below so every segment rises strictly
        b = slopes_to_b(rng.uniform(-1.0, 2.0, (1, m + 1)))
        alphas = rng.uniform(0.0, 1.0, 5)
        x = np.interp(alphas, knots, knot_values(gamma, b, knots)[0])
        back, _ = spline_inverse_batch(np.repeat(gamma, 5), np.repeat(b, 5, axis=0), knots, x)
        assert back == pytest.approx(alphas, abs=1e-9)


def test_inverse_flat_plateau_maps_to_left_knot():
    # rises to 1 on [0, 0.25], flat on [0.25, 0.5], rises again afterwards
    alpha, seg = spline_inverse_batch(
        np.array([0.0]), np.array([[4.0, -4.0, 2.0, 0.0]]), np.array([0.0, 0.25, 0.5, 1.0]),
        np.array([1.0]),
    )
    assert alpha[0] == 0.25
    assert seg[0] == 0


def test_inverse_zero_denominator_returns_left_knot():
    # first segment has vanishing slope; x just above gamma falls inside it
    alpha, seg = spline_inverse_batch(
        np.array([0.0]), np.array([[1e-310, 3.0, 0.0]]), np.array([0.0, 0.5, 1.0]),
        np.array([3e-311]),
    )
    assert alpha[0] == 0.0
    assert seg[0] == 0


def test_crps_constant_spline_is_absolute_error():
    loss, _, _ = crps_loss_batch(
        np.full(2, 0.3), np.zeros((2, 3)), np.array([0.0, 0.5, 1.0]), np.array([1.0, -0.4])
    )
    assert loss == pytest.approx([0.7, 0.7])


def test_crps_hand_value_one_twelfth():
    loss, _, _ = crps_loss_batch(np.array([0.0]), np.array([[1.0, 0.0]]), np.array([0.0, 1.0]), np.array([0.5]))
    assert loss[0] == pytest.approx(1.0 / 12.0, abs=1e-12)


def test_crps_matches_quadrature_on_random_fixtures():
    rng = np.random.default_rng(3)
    for _ in range(50):
        gamma, b, knots, x = random_spline(rng)
        loss, alpha, _ = crps_loss_batch(gamma, b, knots, x)
        assert loss[0] >= 0.0
        assert 0.0 <= alpha[0] <= 1.0
        assert abs(loss[0] - crps_quadrature(gamma, b, knots, x, nodes=200_001)) < 1e-6


def test_crps_envelope_is_flat_in_alpha():
    # perturbing alpha_tilde at fixed coefficients only moves the loss at
    # second order, which justifies holding it constant in the gradient
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = int(rng.integers(1, 13))
        knots = uniform_knots(m)
        gamma = np.array([float(rng.normal())])
        b = slopes_to_b(rng.uniform(-2.0, 2.0, (1, m + 1)))
        x = np.interp([float(rng.uniform(0.05, 0.95))], knots, knot_values(gamma, b, knots)[0])
        _, (alpha_tilde,), _ = crps_loss_batch(gamma, b, knots, x)

        def loss_at(alpha):
            _, terms = crps_grad_from_alpha(np.array([alpha]), knots)
            return (2.0 * alpha - 1.0) * x[0] + (1.0 - 2.0 * alpha) * gamma[0] + float(b[0] @ terms[0])

        base = loss_at(alpha_tilde)
        for eps in (1e-4, -1e-4):
            alpha = min(1.0, max(0.0, alpha_tilde + eps))
            assert abs(loss_at(alpha) - base) < 1e-6


def test_finite_k_single_term():
    constant = (np.array([0.0]), np.zeros((1, 2)), np.array([0.0, 1.0]), np.array([1.0]))
    assert crps_loss_finite_k(*constant, 1) == pytest.approx(1.0)


def test_finite_k_converges_to_half_closed_form():
    rng = np.random.default_rng(6)
    for _ in range(10):
        spline = random_spline(rng)
        target = crps_loss_batch(*spline)[0][0] / 2.0
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
    alphas, _ = spline_inverse_batch(np.zeros(2), np.array([[1.0, 0.0]] * 2), knots, np.array([50.0, -50.0]))
    (dg_hi, dg_lo), _ = crps_grad_from_alpha(alphas, knots)
    assert dg_hi == pytest.approx(-1.0)
    assert dg_lo == pytest.approx(+1.0)


def _coeff_gradcheck_fixture(rng):
    m = int(rng.integers(1, 13))
    knots = uniform_knots(m)
    gamma = np.array([float(rng.normal())])
    # raw slopes bounded below keep partial sums comfortably positive, so the
    # finite-difference perturbations of b stay inside the valid region
    b = slopes_to_b(rng.uniform(-1.5, 2.0, (1, m + 1)))
    x = np.array([float(rng.normal(gamma[0] + 0.5, 1.5))])
    if np.min(np.abs(knot_values(gamma, b, knots) - x)) < 1e-6:
        return None  # kink of the loss, gradient one-sided there
    return gamma, b, knots, x


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    eps = 1e-6
    checked = 0
    while checked < 200:
        fixture = _coeff_gradcheck_fixture(rng)
        if fixture is None:
            continue
        gamma, b, knots, x = fixture
        checked += 1
        _, alpha, _ = crps_loss_batch(gamma, b, knots, x)
        (dg,), (db,) = crps_grad_from_alpha(alpha, knots)

        # one batch of perturbed splines: row 0 moves gamma, row j + 1 moves
        # b_j, by +eps in the first half and by -eps in the second
        size = b.shape[1] + 1
        step = np.concatenate([eps * np.eye(size), -eps * np.eye(size)])
        losses, _, _ = crps_loss_batch(gamma + step[:, 0], b + step[:, 1:], knots, np.repeat(x, 2 * size))
        numeric = (losses[:size] - losses[size:]) / (2 * eps)
        assert grad_rel_err(dg, numeric[0]) < 1e-4
        for j in range(size - 1):
            assert grad_rel_err(db[j], numeric[j + 1]) < 1e-4


def test_grad_chains_through_raw_slopes():
    rng = np.random.default_rng(8)
    eps = 1e-6
    knots = uniform_knots(6)
    for _ in range(50):
        gamma = np.array([float(rng.normal())])
        slope_raw = rng.uniform(-1.5, 2.0, (1, 7))
        b = slopes_to_b(slope_raw)
        x = np.array([float(rng.normal(gamma[0] + 0.5, 1.5))])
        if np.min(np.abs(knot_values(gamma, b, knots) - x)) < 1e-6:
            continue
        _, alpha, _ = crps_loss_batch(gamma, b, knots, x)
        _, db = crps_grad_from_alpha(alpha, knots)
        (ds,) = chain_slope_grads(db, slope_raw)

        bumped = slope_raw + np.concatenate([eps * np.eye(7), -eps * np.eye(7)])
        losses, _, _ = crps_loss_batch(np.repeat(gamma, 14), slopes_to_b(bumped), knots, np.repeat(x, 14))
        numeric = (losses[:7] - losses[7:]) / (2 * eps)
        for j in range(7):
            assert grad_rel_err(ds[j], numeric[j]) < 1e-4
