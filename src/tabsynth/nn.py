"""Minimal dense network with hand-written reverse-mode gradients.

Float64 throughout. Layers are fully connected with identity or relu
activations; forward returns a cache that backward consumes to produce
exact parameter gradients. Adam is the standard bias-corrected update.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ACT_IDENTITY = "identity"
ACT_RELU = "relu"


def softplus(x):
    """log(1 + exp(x)) with overflow guards: x > 30 -> x, x < -30 -> exp(x)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    hi = x > 30.0
    lo = x < -30.0
    mid = ~(hi | lo)
    out[hi] = x[hi]
    out[lo] = np.exp(x[lo])
    out[mid] = np.log1p(np.exp(x[mid]))
    return out


def logistic(x):
    """Sigmoid, the derivative of softplus."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(logits):
    """Normalized exponentials over the last axis, shifted by the max for stability."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def relu(x):
    return np.maximum(x, 0.0)


@dataclass
class DenseLayer:
    weight: np.ndarray  # (n_out, n_in)
    bias: np.ndarray  # (n_out,)


@dataclass
class Mlp:
    """Dense layers applied in order; activations[i] follows layers[i]."""

    layers: list[DenseLayer]
    activations: list[str]

    def __post_init__(self):
        if len(self.layers) != len(self.activations):
            raise ValueError("one activation per layer required")
        for act in self.activations:
            if act not in (ACT_IDENTITY, ACT_RELU):
                raise ValueError(f"unknown activation {act!r}")

    @property
    def n_in(self) -> int:
        return self.layers[0].weight.shape[1]


def mlp_init(sizes: list[int], activations: list[str], rng: np.random.Generator) -> Mlp:
    """Glorot-uniform weights, zero biases. sizes = [n_in, h1, ..., n_out]."""
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weight = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        layers.append(DenseLayer(weight=weight, bias=np.zeros(fan_out)))
    return Mlp(layers=layers, activations=list(activations))


def mlp_forward(net: Mlp, x: np.ndarray):
    """Run the network. x is (n_in,) or (batch, n_in); output matches.

    Returns (output, cache); the cache holds the layer inputs and
    pre-activations needed by mlp_backward.
    """
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    h = x[None, :] if squeeze else x
    if h.shape[1] != net.n_in:
        raise ValueError(f"input width {h.shape[1]} does not match network ({net.n_in})")
    inputs = []
    pres = []
    for layer, act in zip(net.layers, net.activations):
        inputs.append(h)
        pre = h @ layer.weight.T + layer.bias
        pres.append(pre)
        h = relu(pre) if act == ACT_RELU else pre
    out = h[0] if squeeze else h
    return out, (inputs, pres, squeeze)


def mlp_backward(net: Mlp, cache, grad_out: np.ndarray):
    """Backpropagate grad_out (same shape as the forward output).

    Returns (grad_input, tape) where tape is [dW0, db0, dW1, db1, ...]
    aligned with mlp_params.
    """
    inputs, pres, squeeze = cache
    g = np.asarray(grad_out, dtype=np.float64)
    if squeeze:
        g = g[None, :]
    tape = [None] * (2 * len(net.layers))
    for i in range(len(net.layers) - 1, -1, -1):
        if net.activations[i] == ACT_RELU:
            g = g * (pres[i] > 0)
        tape[2 * i] = g.T @ inputs[i]
        tape[2 * i + 1] = g.sum(axis=0)
        g = g @ net.layers[i].weight
    grad_in = g[0] if squeeze else g
    return grad_in, tape


def mlp_params(net: Mlp) -> list[np.ndarray]:
    """Live views of all parameters: [W0, b0, W1, b1, ...]."""
    out = []
    for layer in net.layers:
        out.append(layer.weight)
        out.append(layer.bias)
    return out


@dataclass
class AdamState:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)


def adam_init(params: list[np.ndarray], lr: float = 0.001) -> AdamState:
    return AdamState(
        lr=lr,
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
    )


def adam_step(params: list[np.ndarray], tape: list[np.ndarray], state: AdamState) -> None:
    """One bias-corrected Adam update, applied to params in place."""
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
