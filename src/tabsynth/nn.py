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
    e = np.exp(np.minimum(x, 30.0))
    # patched in place, so only two full-size arrays are live at once (generate
    # passes n x (M+1) slopes per column); asarray keeps a 0-d result writable
    out = np.asarray(np.log1p(e))
    np.copyto(out, e, where=x < -30.0)
    np.copyto(out, x, where=x > 30.0)
    return out


def logistic(x):
    """Sigmoid, the derivative of softplus, from exp(-|x|) so nothing overflows."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(x, -x))  # -|x|, but a NaN keeps its sign bit
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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
    """Run the network on a (batch, n_in) input; the output is (batch, n_out).

    Returns (output, cache); the cache holds the layer inputs and
    pre-activations needed by mlp_backward.
    """
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != net.n_in:
        raise ValueError(f"input shape {h.shape} does not match network width ({net.n_in})")
    inputs = []
    pres = []
    for layer, act in zip(net.layers, net.activations):
        inputs.append(h)
        pre = h @ layer.weight.T + layer.bias
        pres.append(pre)
        h = relu(pre) if act == ACT_RELU else pre
    return h, (inputs, pres)


def mlp_backward(net: Mlp, cache, grad_out: np.ndarray):
    """Backpropagate grad_out (same shape as the forward output).

    Returns (grad_input, tape) where tape is [dW0, db0, dW1, db1, ...]
    aligned with mlp_params.
    """
    inputs, pres = cache
    g = np.asarray(grad_out, dtype=np.float64)
    tape = [None] * (2 * len(net.layers))
    for i in range(len(net.layers) - 1, -1, -1):
        if net.activations[i] == ACT_RELU:
            g = g * (pres[i] > 0)
        tape[2 * i] = g.T @ inputs[i]
        tape[2 * i + 1] = g.sum(axis=0)
        g = g @ net.layers[i].weight
    return g, tape


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
