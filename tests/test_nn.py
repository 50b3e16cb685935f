import math
import warnings

import numpy as np
import pytest

from helpers import grad_rel_err, masked_logistic, masked_softplus
from tabsynth.nn import (
    AdamState,
    DenseLayer,
    Mlp,
    adam_init,
    adam_step,
    logistic,
    mlp_backward,
    mlp_forward,
    mlp_init,
    mlp_params,
    relu,
    softplus,
)


def test_softplus_values_and_guards():
    assert softplus(np.array(0.0)) == pytest.approx(math.log(2.0))
    assert softplus(np.array(40.0)) == 40.0
    assert softplus(np.array(-40.0)) == pytest.approx(math.exp(-40.0))
    with np.errstate(over="raise"):
        out = softplus(np.array([-1000.0, -5.0, 0.0, 5.0, 1000.0]))
    assert np.all(np.isfinite(out))
    assert np.all(np.diff(out) > 0)


def test_logistic_values_and_guards():
    assert logistic(np.array(0.0)) == 0.5
    with np.errstate(over="raise"):
        out = logistic(np.array([-1000.0, 0.0, 1000.0]))
    assert out[0] == pytest.approx(0.0, abs=1e-12)
    assert out[2] == pytest.approx(1.0, abs=1e-12)


def test_logistic_is_softplus_derivative():
    xs = np.linspace(-4.0, 4.0, 17)
    eps = 1e-6
    num = (softplus(xs + eps) - softplus(xs - eps)) / (2 * eps)
    assert np.allclose(logistic(xs), num, atol=1e-9)


@pytest.mark.parametrize(("fast", "reference"), [
    (softplus, masked_softplus),
    (logistic, masked_logistic),
])
def test_matches_masked_reference_bit_for_bit(fast, reference):
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
        got, want = fast(x), reference(x)
    assert got.tobytes() == want.tobytes()


def test_relu():
    assert np.array_equal(relu(np.array([-2.0, 0.0, 3.0])), [0.0, 0.0, 3.0])


def test_init_glorot_bounds_and_zero_biases():
    net = mlp_init([7, 5, 3], ["relu", "identity"], np.random.default_rng(0))
    for layer, (fan_in, fan_out) in zip(net.layers, [(7, 5), (5, 3)]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        assert layer.weight.shape == (fan_out, fan_in)
        assert np.all(np.abs(layer.weight) <= limit)
        assert np.any(layer.weight != 0.0)
        assert np.array_equal(layer.bias, np.zeros(fan_out))


def test_unknown_activation_rejected():
    layer = DenseLayer(weight=np.zeros((2, 2)), bias=np.zeros(2))
    with pytest.raises(ValueError, match="activation"):
        Mlp(layers=[layer], activations=["tanh"])


def test_forward_rejects_wrong_width():
    net = mlp_init([4, 3], ["identity"], np.random.default_rng(0))
    with pytest.raises(ValueError, match="width"):
        mlp_forward(net, np.zeros((1, 5)))


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(3)
    net = mlp_init([3, 5, 4, 2], ["relu", "relu", "identity"], rng)
    x = rng.normal(size=(4, 3))
    direction = rng.normal(size=(4, 2))

    def loss():
        out, _ = mlp_forward(net, x)
        return float(np.sum(out * direction))

    out, cache = mlp_forward(net, x)
    grad_in, tape = mlp_backward(net, cache, direction)

    eps = 1e-6
    params = mlp_params(net)
    for p, g in zip(params, tape):
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for j in range(flat_p.size):
            orig = flat_p[j]
            flat_p[j] = orig + eps
            hi = loss()
            flat_p[j] = orig - eps
            lo = loss()
            flat_p[j] = orig
            assert grad_rel_err(flat_g[j], (hi - lo) / (2 * eps)) < 1e-4

    # input gradient too
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            orig = x[i, j]
            x[i, j] = orig + eps
            hi = loss()
            x[i, j] = orig - eps
            lo = loss()
            x[i, j] = orig
            assert grad_rel_err(grad_in[i, j], (hi - lo) / (2 * eps)) < 1e-4


def test_params_are_live_views():
    net = mlp_init([2, 2], ["identity"], np.random.default_rng(4))
    params = mlp_params(net)
    params[0][0, 0] = 123.0
    assert net.layers[0].weight[0, 0] == 123.0


def _reference_adam(p0, grads, lr):
    p = float(p0)
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1.0 - 0.9**t)
        v_hat = v / (1.0 - 0.999**t)
        p -= lr * m_hat / (math.sqrt(v_hat) + 1e-8)
    return p


def test_adam_matches_reference_sequence():
    param = np.array([1.0])
    state = adam_init([param], lr=0.1)
    grads = [0.5, -0.2, 0.9, 0.05]
    for g in grads:
        adam_step([param], [np.array([g])], state)
    assert param[0] == pytest.approx(_reference_adam(1.0, grads, 0.1), abs=1e-14)
    assert state.t == 4


def test_adam_updates_in_place_across_shapes():
    rng = np.random.default_rng(5)
    params = [rng.normal(size=(3, 2)), rng.normal(size=3)]
    before = [p.copy() for p in params]
    ids = [id(p) for p in params]
    state = adam_init(params, lr=0.01)
    adam_step(params, [np.ones((3, 2)), np.ones(3)], state)
    assert [id(p) for p in params] == ids
    for b, p in zip(before, params):
        assert np.all(b != p)


def test_adam_rejects_non_finite_gradients():
    param = np.array([1.0, 2.0])
    state = adam_init([param])
    bad = np.array([0.0, np.nan])
    with pytest.raises(FloatingPointError, match="block 0"):
        adam_step([param], [bad], state)


def test_adam_state_defaults():
    state = AdamState()
    assert (state.lr, state.beta1, state.beta2, state.eps) == (0.001, 0.9, 0.999, 1e-8)
