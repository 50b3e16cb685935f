import math
import tracemalloc

import numpy as np
import pytest

from helpers import grad_rel_err
from tabsynth import nn
from tabsynth.nn import (
    adam_init,
    adam_step,
    layer_views,
    mlp_backward,
    mlp_forward,
    mlp_init,
    softmax,
)


def nan_blind_bits(a):
    """a's bytes with every NaN written as one NaN. Which of two NaNs an add
    returns depends on the lane numpy's loop computes it in (a vector body
    keeps the first operand's, a scalar tail the second's), so no order of
    adds pins a NaN's sign."""
    return np.where(np.isnan(a), np.nan, a).tobytes()


def awkward_array(shape, seed):
    """Normal draws over twenty decades, with about a third of the entries
    replaced by +-0.0 and a few by +-inf and NaN."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shape) * 10.0 ** rng.integers(-10, 10, size=shape)
    special = rng.random(shape)
    a[special < 0.3] = rng.choice([0.0, -0.0], size=int(np.sum(special < 0.3)))
    a[special > 0.97] = rng.choice([np.inf, -np.inf, np.nan], size=int(np.sum(special > 0.97)))
    return a


AWKWARD_SHAPES = [(5000,), (2000, 4), (3, 7, 5)]


@pytest.mark.parametrize("t", range(1, 8))
@pytest.mark.parametrize("lead", AWKWARD_SHAPES)
def test_numpy_sums_a_short_last_axis_left_to_right_from_positive_zero(lead, t):
    # below 8 entries numpy's last-axis sum is the order of its axis-0 sum,
    # so softmax over axis 0 keeps the bits of a row-major softmax for a
    # column of fewer than 8 levels; a numpy release that changes it fails here
    a = awkward_array(lead + (t,), seed=t)
    left_to_right = np.zeros(lead)
    with np.errstate(invalid="ignore"):
        for j in range(t):
            left_to_right = left_to_right + a[..., j]
        assert a.sum(axis=-1).tobytes() == left_to_right.tobytes()


@pytest.mark.parametrize("t", range(8, 41))
@pytest.mark.parametrize("lead", AWKWARD_SHAPES)
def test_numpy_sums_a_last_axis_from_8_on_by_eight_accumulators_and_a_tree(lead, t):
    # numpy's pairwise sum up to its block of 128 entries. No src code relies
    # on this order; it is why softmax over axis 0, which adds the levels
    # left to right, may move the last bit of a row-major softmax's
    # probabilities for a column of 8 or more levels.
    a = awkward_array(lead + (t,), seed=300 + t)
    a[(0,) * len(lead)] = -0.0  # a row of -0.0 sums to +0.0
    with np.errstate(invalid="ignore"):
        acc = [a[..., j] for j in range(8)]
        stop = t - t % 8
        for i in range(8, stop, 8):
            acc = [acc[j] + a[..., i + j] for j in range(8)]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for j in range(stop, t):
            total = total + a[..., j]
        total = 0.0 + total
        assert nan_blind_bits(a.sum(axis=-1)) == nan_blind_bits(total)
    assert not np.signbit(total[(0,) * len(lead)])


def left_to_right_sum(a):
    """The sum over a's first axis as one running total that starts at +0.0."""
    total = np.zeros(a.shape[1:])
    for j in range(a.shape[0]):
        total = total + a[j]
    return total


@pytest.mark.parametrize("tail", [(97,), (3, 50)])
def test_numpy_sums_a_leading_axis_left_to_right_from_positive_zero(tail):
    # generate's hinge sum, the CRPS segment sum and both softmax norms rely
    # on this order, on contiguous arrays and on row slices of a wider one as
    # the decoder's heads are; a numpy release that changes it fails here
    for t in range(301):
        wide = awkward_array((t + 2, tail[0] + 3) + tail[1:], seed=t)
        wide[:, 1] = -0.0  # a column of -0.0 sums to +0.0
        view = wide[1 : t + 1, 1 : tail[0] + 1]
        for a in (np.ascontiguousarray(view), view):
            with np.errstate(invalid="ignore"):
                got, want = a.sum(axis=0), left_to_right_sum(a)
            assert got.shape == tail
            assert nan_blind_bits(got) == nan_blind_bits(want)
            assert not np.signbit(got[0]).any()


@pytest.mark.parametrize("t", [*range(1, 8), 8, 10, 20])
@pytest.mark.parametrize("lead", AWKWARD_SHAPES)
def test_last_axis_reductions_match_numpy_bit_for_bit(lead, t):
    # numpy's last-axis max and sum of a row-major (..., t) array against its
    # axis-0 max and sum of the feature-major copy, as softmax takes them; a
    # contiguous array, and a strided view as a row-major logit block is.
    # For a tie of +0.0 and -0.0 numpy's max returns either zero, by its SIMD
    # loop, so the maxima agree by value. The sums agree below 8 entries.
    for a in (awkward_array(lead + (t,), seed=100 + t),
              awkward_array(lead + (t + 3,), seed=200 + t)[..., 1 : t + 1]):
        leading = np.ascontiguousarray(np.moveaxis(a, -1, 0))
        with np.errstate(invalid="ignore"):
            got = leading.max(axis=0), leading.sum(axis=0)
            want = a.max(axis=-1), a.sum(axis=-1)
            ordered = left_to_right_sum(leading)
        assert got[0].shape == got[1].shape == lead
        assert np.array_equal(got[0], want[0], equal_nan=True)
        assert nan_blind_bits(got[1]) == nan_blind_bits(ordered)
        if t < 8:
            assert nan_blind_bits(got[1]) == nan_blind_bits(want[1])


@pytest.mark.parametrize("t", [1, 2, 3, 7, 8, 12])
def test_softmax_matches_numpy_reductions_bit_for_bit(t):
    # over axis 0 of (levels, n): numpy's max, then the levels added left to
    # right from +0.0; below 8 levels that is also the row-major softmax
    rng = np.random.default_rng(t)
    logits = rng.normal(0.0, 30.0, size=(t, 1500))
    logits[0, ::7] = 800.0  # exp would overflow without the shift
    logits[:, ::11] = -0.0
    with np.errstate(over="raise"):
        got = softmax(logits)
    e = np.exp(logits - logits.max(axis=0))
    assert got.tobytes() == (e / left_to_right_sum(e)).tobytes()
    if t < 8:
        e = np.exp(logits.T - logits.T.max(axis=-1, keepdims=True))
        assert got.T.tobytes() == (e / e.sum(axis=-1, keepdims=True)).tobytes()
    assert softmax(logits[:, 3]).tobytes() == got[:, 3].tobytes()
    assert np.all(np.abs(got.sum(axis=0) - 1.0) <= 1e-15 * t)
    assert np.all(got[:, ::11] == 1.0 / t)
    assert np.all(got[0, ::7][np.arange(0, 1500, 7) % 11 != 0] == 1.0)


def test_init_glorot_bounds_and_zero_biases():
    params = mlp_init([7, 5, 3], np.random.default_rng(0))
    assert params.shape == (5 * 8 + 3 * 6,)
    for (weight, bias), (fan_in, fan_out) in zip(layer_views([7, 5, 3], params), [(7, 5), (5, 3)]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        assert weight.shape == (fan_out, fan_in)
        assert np.all(np.abs(weight) <= limit)
        assert np.any(weight != 0.0)
        assert np.array_equal(bias, np.zeros(fan_out))


def test_forward_rejects_wrong_width():
    net = layer_views([4, 2, 3], mlp_init([4, 2, 3], np.random.default_rng(0)))
    with pytest.raises(ValueError, match="width"):
        mlp_forward(net, np.zeros((5, 1)))


def test_backward_matches_finite_differences():
    # feature-major: the input is (3 features, 4 rows); the gradient has the
    # layout of params
    rng = np.random.default_rng(3)
    params = mlp_init([3, 5, 3], rng)
    net = layer_views([3, 5, 3], params)
    x = rng.normal(size=(3, 4))
    direction = rng.normal(size=(3, 4))

    def loss():
        out, _ = mlp_forward(net, x)
        return float(np.sum(out * direction))

    out, cache = mlp_forward(net, x)
    grad_in, grad = mlp_backward(net, cache, direction, out=np.empty(params.size))

    eps = 1e-6
    for j in range(params.size):
        orig = params[j]
        params[j] = orig + eps
        hi = loss()
        params[j] = orig - eps
        lo = loss()
        params[j] = orig
        assert grad_rel_err(grad[j], (hi - lo) / (2 * eps)) < 1e-4

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
    params = mlp_init([2, 3, 2], np.random.default_rng(4))
    (w0, b0), (w1, b1) = layer_views([2, 3, 2], params)
    # layer 0: weight (3, 2) at 0..5, bias at 6..8; layer 1: weight (2, 3) at 9..14, bias at 15..16
    params[[0, 5, 6, 9, 16]] = [123.0, 124.0, 125.0, 126.0, 127.0]
    assert (w0[0, 0], w0[2, 1], b0[0], w1[0, 0], b1[1]) == (123.0, 124.0, 125.0, 126.0, 127.0)
    w1[1, 2] = 128.0
    assert params[14] == 128.0


def test_layer_views_lay_out_weight_row_major_then_bias():
    flat = np.arange(14, dtype=np.float64)
    (w0, b0), (w1, b1) = layer_views([2, 3, 1], flat)
    assert np.array_equal(w0, [[0, 1], [2, 3], [4, 5]]) and np.array_equal(b0, [6, 7, 8])
    assert np.array_equal(w1, [[9, 10, 11]]) and np.array_equal(b1, [12])


def _reference_adam(p0, grads, lr):
    """Textbook bias-corrected Adam over gradients of p0's shape: (p, m, v)."""
    p = np.array(p0, dtype=np.float64)
    m = v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * g * g
        m_hat = m / (1.0 - 0.9**t)
        v_hat = v / (1.0 - 0.999**t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    return p, m, v


def test_adam_matches_reference_sequence():
    param = np.array([1.0])
    state = adam_init([(1,)], lr=0.1)
    grads = [0.5, -0.2, 0.9, 0.05]
    for g in grads:
        adam_step(param, np.array([g]), state)
    assert param[0] == pytest.approx(_reference_adam(1.0, grads, 0.1)[0], abs=1e-14)
    assert state.t == 4


def test_adam_updates_in_place_across_shapes():
    params = mlp_init([2, 3, 1], np.random.default_rng(5))
    views = [a for layer in layer_views([2, 3, 1], params) for a in layer]
    before = [a.copy() for a in views]
    state = adam_init([a.shape for a in views], lr=0.01)
    adam_step(params, np.ones(params.size), state)
    for old, new in zip(before, views):
        assert np.all(old != new)


MIXED_SHAPES = [(3, 2), (3,), (1, 3), (1,), (4, 1, 2), ()]


def test_adam_step_matches_reference_adam_bit_for_bit():
    rng = np.random.default_rng(7)
    flat = rng.normal(size=sum(math.prod(s) for s in MIXED_SHAPES))
    start = flat.copy()
    state = adam_init(MIXED_SHAPES, lr=0.05)
    grads = []
    for step in range(6):
        grads.append(rng.normal(scale=10.0 ** (step - 3), size=flat.size))
        adam_step(flat, grads[-1], state)
        p, m, v = _reference_adam(start, grads, lr=0.05)
        assert flat.tobytes() == p.tobytes()
        assert state.m.tobytes() == m.tobytes()
        assert state.v.tobytes() == v.tobytes()


def test_adam_step_allocates_no_vector_of_the_parameters_size():
    # only the finiteness check's booleans, an eighth of a float vector
    n = 100_000
    params, grad = np.zeros(n), np.random.default_rng(3).normal(size=n)
    state = adam_init([(n,)], lr=0.01)
    adam_step(params, grad, state)
    tracemalloc.start()
    try:
        adam_step(params, grad, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < params.nbytes / 4


def test_adam_rejects_non_finite_gradients():
    # the first and last entry of each block (sizes 6, 3, 3, 1, 8, 1); an inf before a NaN
    cases = [
        ({0: np.nan}, 0, "(3, 2)"), ({5: np.nan}, 0, "(3, 2)"), ({6: np.nan}, 1, "(3,)"),
        ({8: np.nan}, 1, "(3,)"), ({9: np.nan}, 2, "(1, 3)"), ({11: np.nan}, 2, "(1, 3)"),
        ({12: np.nan}, 3, "(1,)"), ({13: np.nan}, 4, "(4, 1, 2)"), ({20: np.nan}, 4, "(4, 1, 2)"),
        ({21: np.nan}, 5, "()"), ({8: np.inf, 14: np.nan}, 1, "(3,)"),
    ]
    for bad, block, shape in cases:
        grad = np.zeros(22)
        grad[list(bad)] = list(bad.values())
        with pytest.raises(FloatingPointError) as info:
            adam_step(np.zeros(22), grad, adam_init(MIXED_SHAPES, lr=0.001))
        assert str(info.value) == f"non-finite gradient in parameter block {block} (shape {shape})"


def test_adam_rejects_misaligned_vectors():
    with pytest.raises(ValueError, match="align"):
        adam_step(np.zeros(3), np.zeros(2), adam_init([(3,)], lr=0.001))


@pytest.mark.parametrize("n, width, entries, sizes", [
    (0, 3, 12, []),
    (1, 3, 12, [1]),
    (8, 3, 12, [4, 4]),
    (9, 3, 12, [4, 5]),  # a last lone row joins the block before it
    (10, 3, 12, [4, 4, 2]),
    (5, 3, 1, [2, 3]),  # blocks hold at least two rows
    (7, 0, 12, [7]),
])
def test_row_blocks_cover_the_rows_without_a_lone_row(monkeypatch, n, width, entries, sizes):
    monkeypatch.setattr(nn, "BLOCK_ENTRIES", entries)
    blocks = nn.row_blocks(n, width)
    assert [s.stop - s.start for s in blocks] == sizes
    assert [s.start for s in blocks] == [sum(sizes[:i]) for i in range(len(sizes))]


def test_adam_state_defaults():
    state = adam_init([(2, 3), (3,)], lr=0.5)
    assert (state.lr, state.t, state.shapes) == (0.5, 0, [(2, 3), (3,)])
    assert state.m.tobytes() == state.v.tobytes() == np.zeros(9).tobytes()
    assert [(a.shape, a.dtype) for a in state.scratch] == [((9,), np.float64)] * 2
    assert (nn.ADAM_BETA1, nn.ADAM_BETA2, nn.ADAM_EPS) == (0.9, 0.999, 1e-8)
