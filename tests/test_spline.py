import math

import numpy as np
import pytest

from helpers import crps_quadrature, grad_rel_err, random_spline
from tabsynth import (
    SplineCoeffs,
    build_spline,
    chain_slope_grads,
    crps_grad_from_alpha,
    crps_loss,
    crps_loss_finite_k,
    mean_log_alpha_weight,
    slopes_to_b,
    spline_eval,
    uniform_knots,
)

HAND = SplineCoeffs(gamma=0.0, b=np.array([1.0, 1.0, 0.0]), knots=np.array([0.0, 0.5, 1.0]))


def test_uniform_knots_spacing():
    knots = uniform_knots(10)
    assert knots.shape == (11,)
    assert knots[0] == 0.0 and knots[-1] == 1.0
    assert np.allclose(np.diff(knots), 0.1)


@pytest.mark.parametrize("bad", [
    np.array([0.1, 0.5, 1.0]),
    np.array([0.0, 0.5, 0.9]),
    np.array([0.0, 0.5, 0.5, 1.0]),
    np.array([0.7]),
])
def test_invalid_knots_rejected(bad):
    with pytest.raises(ValueError):
        SplineCoeffs(gamma=0.0, b=np.zeros(bad.shape), knots=bad)


def test_decreasing_partial_sums_rejected():
    with pytest.raises(ValueError, match="partial slope sum"):
        SplineCoeffs(gamma=0.0, b=np.array([1.0, -1.5, 1.0]), knots=np.array([0.0, 0.5, 1.0]))


def test_build_spline_flat_when_raw_slopes_very_negative():
    coeffs = build_spline(2.5, np.full(11, -40.0), uniform_knots(10))
    alphas = np.linspace(0.0, 1.0, 33)
    assert np.allclose(spline_eval(coeffs, alphas), 2.5, atol=1e-12)


def test_build_spline_identity_slope():
    # softplus(c) = 1 at c = log(e - 1) makes b = (1, 0, ..., 0), D(a) = gamma + a
    c = math.log(math.e - 1.0)
    coeffs = build_spline(0.25, np.full(6, c), uniform_knots(5))
    assert np.allclose(coeffs.b, [1.0, 0, 0, 0, 0, 0], atol=1e-12)
    alphas = np.linspace(0.0, 1.0, 17)
    assert np.allclose(spline_eval(coeffs, alphas), 0.25 + alphas)


def test_build_spline_partial_sums_never_negative():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        m = int(rng.integers(1, 13))
        b = slopes_to_b(rng.normal(0.0, 3.0, m + 1))
        assert np.all(np.cumsum(b) >= 0.0)


def test_eval_hand_values():
    assert spline_eval(HAND, 0.25) == pytest.approx(0.25)
    assert spline_eval(HAND, 0.75) == pytest.approx(1.0)


def test_eval_at_zero_is_gamma():
    rng = np.random.default_rng(0)
    for _ in range(20):
        coeffs, _ = random_spline(rng)
        assert spline_eval(coeffs, 0.0) == pytest.approx(coeffs.gamma, abs=1e-12)


def test_eval_rejects_alpha_outside_unit_interval():
    with pytest.raises(ValueError, match="alpha"):
        spline_eval(HAND, 1.2)
    with pytest.raises(ValueError, match="alpha"):
        spline_eval(HAND, -0.01)


def test_eval_monotone_in_alpha():
    rng = np.random.default_rng(1)
    alphas = np.linspace(0.0, 1.0, 301)
    for _ in range(200):
        coeffs, _ = random_spline(rng)
        values = spline_eval(coeffs, alphas)
        assert np.all(np.diff(values) >= -1e-12)


def test_inverse_hand_value():
    breakdown = crps_loss(HAND, 1.0)
    assert breakdown.alpha_tilde == pytest.approx(0.75)
    assert breakdown.segment == 1


def test_inverse_at_gamma_is_zero():
    assert crps_loss(HAND, 0.0).alpha_tilde == 0.0


def test_inverse_clamps_outside_range():
    assert crps_loss(HAND, -5.0).alpha_tilde == 0.0
    assert crps_loss(HAND, +5.0).alpha_tilde == 1.0


def test_inverse_round_trip_on_increasing_segments():
    rng = np.random.default_rng(2)
    for _ in range(100):
        m = int(rng.integers(1, 13))
        # raw slopes bounded below so every segment rises strictly
        coeffs = build_spline(
            float(rng.normal()), rng.uniform(-1.0, 2.0, m + 1), uniform_knots(m)
        )
        for alpha in rng.uniform(0.0, 1.0, 5):
            x = spline_eval(coeffs, float(alpha))
            back = crps_loss(coeffs, x).alpha_tilde
            assert back == pytest.approx(float(alpha), abs=1e-9)


def test_inverse_flat_plateau_maps_to_left_knot():
    # rises to 1 on [0, 0.25], flat on [0.25, 0.5], rises again afterwards
    coeffs = SplineCoeffs(
        gamma=0.0,
        b=np.array([4.0, -4.0, 2.0, 0.0]),
        knots=np.array([0.0, 0.25, 0.5, 1.0]),
    )
    breakdown = crps_loss(coeffs, 1.0)
    assert breakdown.alpha_tilde == 0.25
    assert breakdown.segment == 0


def test_inverse_zero_denominator_returns_left_knot():
    # first segment has vanishing slope; x just above gamma falls inside it
    coeffs = SplineCoeffs(
        gamma=0.0,
        b=np.array([1e-310, 3.0, 0.0]),
        knots=np.array([0.0, 0.5, 1.0]),
    )
    breakdown = crps_loss(coeffs, 3e-311)
    assert breakdown.alpha_tilde == 0.0
    assert breakdown.segment == 0


def test_crps_constant_spline_is_absolute_error():
    coeffs = SplineCoeffs(gamma=0.3, b=np.zeros(3), knots=np.array([0.0, 0.5, 1.0]))
    assert crps_loss(coeffs, 1.0).loss == pytest.approx(0.7)
    assert crps_loss(coeffs, -0.4).loss == pytest.approx(0.7)


def test_crps_hand_value_one_twelfth():
    coeffs = SplineCoeffs(gamma=0.0, b=np.array([1.0, 0.0]), knots=np.array([0.0, 1.0]))
    assert crps_loss(coeffs, 0.5).loss == pytest.approx(1.0 / 12.0, abs=1e-12)


def test_crps_matches_quadrature_on_random_fixtures():
    rng = np.random.default_rng(3)
    for _ in range(50):
        coeffs, x = random_spline(rng)
        breakdown = crps_loss(coeffs, x)
        assert breakdown.loss >= 0.0
        assert 0.0 <= breakdown.alpha_tilde <= 1.0
        assert abs(breakdown.loss - crps_quadrature(coeffs, x, nodes=200_001)) < 1e-6


def test_crps_envelope_is_flat_in_alpha():
    # perturbing alpha_tilde at fixed coefficients only moves the loss at
    # second order, which justifies holding it constant in the gradient
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = int(rng.integers(1, 13))
        coeffs = build_spline(float(rng.normal()), rng.uniform(-2.0, 2.0, m + 1), uniform_knots(m))
        x = spline_eval(coeffs, float(rng.uniform(0.05, 0.95)))
        breakdown = crps_loss(coeffs, x)

        def loss_at(alpha):
            dg, terms = crps_grad_from_alpha(np.array([alpha]), coeffs.knots)
            return ((2.0 * alpha - 1.0) * x + (1.0 - 2.0 * alpha) * coeffs.gamma
                    + float(coeffs.b @ terms[0]))

        base = loss_at(breakdown.alpha_tilde)
        for eps in (1e-4, -1e-4):
            alpha = min(1.0, max(0.0, breakdown.alpha_tilde + eps))
            assert abs(loss_at(alpha) - base) < 1e-6


def test_finite_k_single_term():
    coeffs = SplineCoeffs(gamma=0.0, b=np.zeros(2), knots=np.array([0.0, 1.0]))
    assert crps_loss_finite_k(coeffs, 1.0, 1) == pytest.approx(1.0)


def test_finite_k_converges_to_half_closed_form():
    rng = np.random.default_rng(6)
    for _ in range(10):
        coeffs, x = random_spline(rng)
        target = crps_loss(coeffs, x).loss / 2.0
        errors = [abs(crps_loss_finite_k(coeffs, x, 10**j) - target) for j in (2, 3, 4, 5)]
        assert errors[-1] < 1e-3
        assert all(a >= b - 1e-12 for a, b in zip(errors[:-1], errors[1:]))


def test_mean_log_alpha_weight():
    assert mean_log_alpha_weight(2) == pytest.approx(math.log(0.25) / 2.0)
    assert mean_log_alpha_weight(100_000) == pytest.approx(-2.0, abs=1e-2)
    err_small = abs(mean_log_alpha_weight(100) + 2.0)
    err_large = abs(mean_log_alpha_weight(100_000) + 2.0)
    assert err_large < err_small


def test_grad_saturated_clamps():
    coeffs = SplineCoeffs(gamma=0.0, b=np.array([1.0, 0.0]), knots=np.array([0.0, 1.0]))
    alphas = np.array([crps_loss(coeffs, 50.0).alpha_tilde, crps_loss(coeffs, -50.0).alpha_tilde])
    (dg_hi, dg_lo), _ = crps_grad_from_alpha(alphas, coeffs.knots)
    assert dg_hi == pytest.approx(-1.0)
    assert dg_lo == pytest.approx(+1.0)


def _coeff_gradcheck_fixture(rng):
    m = int(rng.integers(1, 13))
    # raw slopes bounded below keep partial sums comfortably positive, so the
    # finite-difference perturbations of b stay inside the valid region
    coeffs = build_spline(float(rng.normal()), rng.uniform(-1.5, 2.0, m + 1), uniform_knots(m))
    x = float(rng.normal(coeffs.gamma + 0.5, 1.5))
    images = spline_eval(coeffs, coeffs.knots)
    if np.min(np.abs(images - x)) < 1e-6:
        return None  # kink of the loss, gradient one-sided there
    return coeffs, x


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    eps = 1e-6
    checked = 0
    while checked < 200:
        fixture = _coeff_gradcheck_fixture(rng)
        if fixture is None:
            continue
        coeffs, x = fixture
        checked += 1
        (dg,), (db,) = crps_grad_from_alpha(np.array([crps_loss(coeffs, x).alpha_tilde]), coeffs.knots)

        num = (crps_loss(SplineCoeffs(coeffs.gamma + eps, coeffs.b, coeffs.knots), x).loss
               - crps_loss(SplineCoeffs(coeffs.gamma - eps, coeffs.b, coeffs.knots), x).loss) / (2 * eps)
        assert grad_rel_err(dg, num) < 1e-4

        for j in range(coeffs.b.size):
            bumped = coeffs.b.copy()
            bumped[j] += eps
            hi = crps_loss(SplineCoeffs(coeffs.gamma, bumped, coeffs.knots), x).loss
            bumped[j] -= 2 * eps
            lo = crps_loss(SplineCoeffs(coeffs.gamma, bumped, coeffs.knots), x).loss
            assert grad_rel_err(db[j], (hi - lo) / (2 * eps)) < 1e-4


def test_grad_chains_through_raw_slopes():
    rng = np.random.default_rng(8)
    eps = 1e-6
    knots = uniform_knots(6)
    for _ in range(50):
        gamma_raw = float(rng.normal())
        slope_raw = rng.uniform(-1.5, 2.0, 7)
        coeffs = build_spline(gamma_raw, slope_raw, knots)
        x = float(rng.normal(coeffs.gamma + 0.5, 1.5))
        if np.min(np.abs(spline_eval(coeffs, knots) - x)) < 1e-6:
            continue
        _, (db,) = crps_grad_from_alpha(np.array([crps_loss(coeffs, x).alpha_tilde]), knots)
        ds = chain_slope_grads(db, slope_raw)
        for j in range(7):
            bumped = slope_raw.copy()
            bumped[j] += eps
            hi = crps_loss(build_spline(gamma_raw, bumped, knots), x).loss
            bumped[j] -= 2 * eps
            lo = crps_loss(build_spline(gamma_raw, bumped, knots), x).loss
            assert grad_rel_err(ds[j], (hi - lo) / (2 * eps)) < 1e-4
