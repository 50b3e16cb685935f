"""Minimal dense network with hand-written reverse-mode gradients.

Float64 throughout. A network is one fully connected hidden layer with a
relu, then a linear output layer. All its parameters live in one flat
vector: each layer's (n_out, n_in) weight row-major, then its bias, the
hidden layer first. The layers are views into that vector, so updating the
vector updates the network. The output comes in the order of the output
layer's rows, so a caller that reads it in another order stores the layer
in that order. Forward returns a cache that backward consumes to write the
exact parameter gradient, a flat vector with the same layout, into a
caller's vector, such as one network's slice of a model's gradient. Adam
is the standard bias-corrected update, applied to the whole vector at
once, in place: its state holds two scratch vectors of the vector's size,
so a step allocates nothing.

Activations are feature-major: a batch is an (features, rows) array, one
row per feature, so every layer is W @ h + b[:, None] and the relu, its
mask and the bias gradient run over whole rows of the batch. numpy runs a
short last axis one tiny inner loop per row, which a batch of a few
hundred rows of a narrow layer would otherwise pay at every operation.
softmax likewise reduces over axis 0 of (levels, n) logits, row by row.
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


def softmax(logits):
    """Normalized exponentials over axis 0 of (levels, ...) logits, one level
    per row, shifted by the max for stability."""
    logits = np.asarray(logits, dtype=np.float64)
    e = logits - logits.max(axis=0)
    np.exp(e, out=e)
    e /= e.sum(axis=0)
    return e


Mlp = list[tuple[np.ndarray, np.ndarray]]  # (weight (n_out, n_in), bias (n_out,)) per layer


def layer_views(sizes, flat: np.ndarray) -> Mlp:
    """The network with layer widths sizes = (n_in, hidden, n_out) as views
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
    """Run the network on a feature-major (n_in, rows) input; the output is
    (n_out, rows).

    Returns (output, cache); the cache holds the input and the hidden
    layer's pre-activation and output, which mlp_backward needs.
    """
    (w0, b0), (w1, b1) = net
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != w0.shape[1]:
        raise ValueError(f"input shape {x.shape} does not match network width ({w0.shape[1]})")
    pre = w0 @ x
    pre += b0[:, None]
    hidden = np.maximum(pre, 0.0)
    out = w1 @ hidden
    out += b1[:, None]
    return out, (x, pre, hidden)


def mlp_backward(net: Mlp, cache, grad_out: np.ndarray, input_grad: bool = True, *, out: np.ndarray):
    """Backpropagate grad_out (same shape as the forward output) into out, a
    float64 vector of the network's parameter count, laid out as layer_views
    reads it.

    Returns (grad_input, out): grad_input (n_in, rows), None if not input_grad.
    """
    x, pre, hidden = cache
    (w0, _), (w1, _) = net
    g = np.asarray(grad_out, dtype=np.float64)
    size = sum(w.size + b.size for w, b in net)
    if out.shape != (size,):
        raise ValueError(f"out must have shape {(size,)} to hold the gradient, got {out.shape}")
    (grad_w0, grad_b0), (grad_w1, grad_b1) = layer_views((w0.shape[1], w0.shape[0], w1.shape[0]), out)
    np.matmul(g, hidden.T, out=grad_w1)
    np.add.reduce(g, axis=1, out=grad_b1)
    g = w1.T @ g
    g *= pre > 0  # g is this function's own product
    np.matmul(g, x.T, out=grad_w0)
    np.add.reduce(g, axis=1, out=grad_b0)
    return (w0.T @ g if input_grad else None), out


@dataclass
class AdamState:
    """Adam moments for one flat parameter vector. shapes are the blocks it is
    cut into, in order; they only name the block of a non-finite gradient.
    scratch is two vectors of the moments' size that adam_step computes in."""

    lr: float
    m: np.ndarray
    v: np.ndarray
    shapes: list[tuple[int, ...]]
    scratch: tuple[np.ndarray, np.ndarray] = field(repr=False)
    t: int = 0


def adam_init(shapes, lr: float) -> AdamState:
    """Zero moments for a flat vector made of blocks of these shapes."""
    n = sum(math.prod(s) for s in shapes)
    return AdamState(lr=lr, m=np.zeros(n), v=np.zeros(n), shapes=[tuple(s) for s in shapes],
                     scratch=(np.empty(n), np.empty(n)))


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update of the flat vector params, in place."""
    if params.shape != state.m.shape or params.shape != grad.shape:
        raise ValueError("params, gradients and Adam state must align")
    state.t += 1
    if not np.isfinite(grad).all():
        ends = np.cumsum([math.prod(s) for s in state.shapes])
        i = int(np.searchsorted(ends, np.flatnonzero(~np.isfinite(grad))[0], side="right"))
        raise FloatingPointError(
            f"non-finite gradient in parameter block {i} (shape {state.shapes[i]})"
        )
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    m, v, (a, b) = state.m, state.v, state.scratch
    # in place through the scratch vectors, in the order of
    # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    # params -= lr (m / c1) / (sqrt(v / c2) + eps)
    np.multiply(grad, 1.0 - ADAM_BETA1, out=a)
    m *= ADAM_BETA1
    m += a
    np.multiply(grad, 1.0 - ADAM_BETA2, out=a)
    a *= grad
    v *= ADAM_BETA2
    v += a
    np.divide(v, c2, out=a)
    np.sqrt(a, out=a)
    a += ADAM_EPS
    np.divide(m, c1, out=b)
    b *= state.lr
    b /= a
    params -= b
