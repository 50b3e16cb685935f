"""Minimal dense network with hand-written reverse-mode gradients.

Float64 throughout. A network is a chain of fully connected layers with a
relu after every layer but the last. All its parameters live in one flat
vector: each layer's (n_out, n_in) weight row-major, then its bias, layer
after layer. The layers are views into that vector, so updating the vector
updates the network. Forward returns a cache that backward consumes to
produce the exact parameter gradient, a flat vector with the same layout.
Adam is the standard bias-corrected update, applied to the whole vector at
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Adam's moment decay rates and the denominator's guard against division by zero
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Work whose arrays grow with the row count runs this many float64 entries
# (512 KiB) of rows at a time, so each block's temporaries stay in cache.
BLOCK_ENTRIES = 2**16


def row_blocks(n: int, width: int):
    """Slices that cover rows 0..n-1 in order, each of BLOCK_ENTRIES // width
    rows, for arrays that hold width entries per row.

    No block holds a lone row unless n == 1. numpy multiplies a one-row
    matrix with a matrix-vector BLAS routine, whose sums round differently
    from the matrix-matrix routine that every larger block goes through, so
    a lone row would change the last bits of its results. Blocks therefore
    hold at least two rows, and a last block of one row joins the one before.
    """
    step = max(2, BLOCK_ENTRIES // max(width, 1))
    starts = list(range(0, n, step))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [n])]


# numpy reduces an (n, t) array over a short last axis with one tiny inner
# loop per row. Below SHORT_AXIS, last_axis_max and last_axis_sum reduce
# column by column instead. For t < 8 numpy sums each row left to right from
# +0.0 (tests/test_nn.py checks it), so leading_axis_sum gives numpy's bits.
SHORT_AXIS = 8


def leading_axis_sum(a: np.ndarray) -> np.ndarray:
    """The sum over a's first axis, its rows added left to right to +0.0, so
    a lone -0.0 sums to +0.0."""
    out = np.zeros(a.shape[1:])
    for row in a:
        out += row
    return out


def last_axis_max(a: np.ndarray) -> np.ndarray:
    """a.max(axis=-1, keepdims=True), bit for bit."""
    if not 0 < a.shape[-1] < SHORT_AXIS:
        return a.max(axis=-1, keepdims=True)
    out = a[..., :1].copy()
    for j in range(1, a.shape[-1]):
        np.maximum(out, a[..., j : j + 1], out=out)
    return out


def last_axis_sum(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-1, keepdims=True), bit for bit."""
    if not 0 < a.shape[-1] < SHORT_AXIS:
        return a.sum(axis=-1, keepdims=True)
    return leading_axis_sum(a.transpose(a.ndim - 1, *range(a.ndim - 1))[..., None])


def softplus(x):
    """log(1 + exp(x)) with overflow guards: x > 30 -> x, x < -30 -> exp(x)."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(x, 30.0))
    # patched in place, so only two full-size arrays are live at once;
    # asarray keeps a 0-d result writable
    out = np.asarray(np.log1p(e))
    np.copyto(out, e, where=x < -30.0)
    np.copyto(out, x, where=x > 30.0)
    return out


def logistic(x):
    """Sigmoid, the derivative of softplus, from exp(-|x|) so nothing overflows."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(x, -x))  # -|x|, but a NaN keeps its sign bit
    # the numerator is 1 from 0 up and e below 0; as e <= 1, a max against the
    # sign mask picks it without np.where's branch per entry (NaN stays NaN)
    return np.maximum(e, x >= 0) / (1.0 + e)


def softmax(logits):
    """Normalized exponentials over the last axis, shifted by the max for stability."""
    logits = np.asarray(logits, dtype=np.float64)
    e = logits - last_axis_max(logits)
    np.exp(e, out=e)
    e /= last_axis_sum(e)
    return e


def relu(x):
    return np.maximum(x, 0.0)


Mlp = list[tuple[np.ndarray, np.ndarray]]  # (weight (n_out, n_in), bias (n_out,)) per layer


def layer_views(sizes, flat: np.ndarray) -> Mlp:
    """The network with layer widths sizes = [n_in, h1, ..., n_out] as views
    into the front of flat: each layer's weight row-major, then its bias."""
    net, pos = [], 0
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        weight = flat[pos : pos + n_out * n_in].reshape(n_out, n_in)
        pos += n_out * n_in
        net.append((weight, flat[pos : pos + n_out]))
        pos += n_out
    return net


def mlp_init(sizes, rng: np.random.Generator) -> np.ndarray:
    """Glorot-uniform weights and zero biases, drawn layer by layer, as one
    flat vector laid out as layer_views reads it."""
    blocks = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        blocks += [rng.uniform(-limit, limit, size=fan_out * fan_in), np.zeros(fan_out)]
    return np.concatenate(blocks)


def mlp_forward(net: Mlp, x: np.ndarray):
    """Run the network on a (batch, n_in) input; the output is (batch, n_out).

    Returns (output, cache); the cache holds the layer inputs and
    pre-activations needed by mlp_backward.
    """
    h = np.asarray(x, dtype=np.float64)
    n_in = net[0][0].shape[1]
    if h.ndim != 2 or h.shape[1] != n_in:
        raise ValueError(f"input shape {h.shape} does not match network width ({n_in})")
    inputs, pres = [], []
    for i, (weight, bias) in enumerate(net):
        inputs.append(h)
        pre = h @ weight.T + bias
        pres.append(pre)
        h = pre if i == len(net) - 1 else relu(pre)
    return h, (inputs, pres)


def mlp_backward(net: Mlp, cache, grad_out: np.ndarray):
    """Backpropagate grad_out (same shape as the forward output).

    Returns (grad_input, grad) where grad is one flat vector laid out as
    layer_views reads it.
    """
    inputs, pres = cache
    g = np.asarray(grad_out, dtype=np.float64)
    tape = []
    for i in range(len(net) - 1, -1, -1):
        if i < len(net) - 1:
            g = g * (pres[i] > 0)
        tape[:0] = [(g.T @ inputs[i]).ravel(), g.sum(axis=0)]
        g = g @ net[i][0]
    return g, np.concatenate(tape)


@dataclass
class AdamState:
    """Adam moments for one flat parameter vector. shapes are the blocks it is
    cut into, in order; they only name the block of a non-finite gradient."""

    lr: float = 0.001
    t: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    shapes: list[tuple[int, ...]] = field(default_factory=list)


def adam_init(shapes, lr: float = 0.001) -> AdamState:
    """Zero moments for a flat vector made of blocks of these shapes."""
    n = sum(math.prod(s) for s in shapes)
    return AdamState(lr=lr, m=np.zeros(n), v=np.zeros(n), shapes=[tuple(s) for s in shapes])


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update of the flat vector params, in place."""
    if params.shape != state.m.shape or params.shape != grad.shape:
        raise ValueError("params, gradients and Adam state must align")
    state.t += 1
    if not np.all(np.isfinite(grad)):
        ends = np.cumsum([math.prod(s) for s in state.shapes])
        i = int(np.searchsorted(ends, np.flatnonzero(~np.isfinite(grad))[0], side="right"))
        raise FloatingPointError(
            f"non-finite gradient in parameter block {i} (shape {state.shapes[i]})"
        )
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    # the moments in place, in the order of m = b1 m + (1 - b1) g
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * grad
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * grad * grad
    params -= state.lr * (state.m / c1) / (np.sqrt(state.v / c2) + ADAM_EPS)
