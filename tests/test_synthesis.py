import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from helpers import (
    one_shot_generate,
    overflowed_discrete_logits,
    page_draws,
    per_point_estimate_cdf,
)
from tabsynth import (
    CdfCurve,
    ColumnSpec,
    Schema,
    Table,
    TrainConfig,
    estimate_cdf,
    generate,
    gumbel_max,
    round_ordinal,
    sample_prior,
    standardize,
    train,
)
from tabsynth import nn
from tabsynth.model import net_sizes
from tabsynth.synthesis import PAGE_ROWS


@pytest.fixture(scope="module")
def normal_checkpoint():
    # x ~ N(3, 1) alongside a binary column, long enough to fit the marginal well
    rng = np.random.default_rng(31)
    schema = Schema((
        ColumnSpec("x", "continuous"),
        ColumnSpec("g", "discrete", ("u", "v")),
    ))
    rows = np.column_stack([
        rng.normal(3.0, 1.0, 2000), (rng.random(2000) < 0.4).astype(float),
    ])
    return train(standardize(Table(schema, rows)), TrainConfig(seed=32))


def test_prior_moments():
    z = sample_prior(100_000, 2, seed=0)
    assert z.shape == (100_000, 2)
    assert np.all(np.abs(z.mean(axis=0)) < 0.02)
    assert np.all((z.var(axis=0) > 0.97) & (z.var(axis=0) < 1.03))


@pytest.fixture(scope="module")
def mixed_checkpoint():
    # an ordinal column between continuous and two discrete ones
    rng = np.random.default_rng(36)
    schema = Schema((
        ColumnSpec("x", "continuous"),
        ColumnSpec("k", "ordinal"),
        ColumnSpec("g", "discrete", ("p", "q", "r")),
        ColumnSpec("h", "discrete", ("u", "v")),
    ))
    n = 300
    x = rng.normal(size=n)
    rows = np.column_stack([
        x, rng.integers(1, 6, n), np.clip(np.round(x + 1.0), 0, 2), (rng.random(n) < 0.3),
    ]).astype(float)
    return train(standardize(Table(schema, rows)), TrainConfig(seed=37, epochs=5))


@pytest.fixture(scope="module")
def numeric_checkpoint():
    # continuous and ordinal columns only: no Gumbel noise
    rng = np.random.default_rng(38)
    schema = Schema((ColumnSpec("x", "continuous"), ColumnSpec("k", "ordinal")))
    rows = np.column_stack([rng.normal(size=300), rng.integers(1, 6, 300)]).astype(float)
    return train(standardize(Table(schema, rows)), TrainConfig(seed=39, epochs=5))


@pytest.fixture(scope="module")
def discrete_checkpoint():
    # discrete columns only: no uniform levels
    rng = np.random.default_rng(40)
    schema = Schema((
        ColumnSpec("g", "discrete", ("p", "q", "r")),
        ColumnSpec("h", "discrete", ("u", "v")),
    ))
    rows = np.column_stack([rng.integers(0, 3, 300), rng.random(300) < 0.3]).astype(float)
    return train(standardize(Table(schema, rows)), TrainConfig(seed=41, epochs=5))


@pytest.fixture(scope="module")
def knot_count_checkpoints():
    # one epoch on a small mixed table at segment counts on both sides of 8,
    # where numpy's last-axis sum stops adding left to right
    rng = np.random.default_rng(42)
    schema = Schema((
        ColumnSpec("x", "continuous"),
        ColumnSpec("k", "ordinal"),
        ColumnSpec("g", "discrete", ("p", "q", "r")),
    ))
    rows = np.column_stack([
        rng.normal(size=200), rng.integers(1, 6, 200), rng.integers(0, 3, 200),
    ]).astype(float)
    table = standardize(Table(schema, rows))
    return [train(table, TrainConfig(seed=43, epochs=1, knot_count=m)) for m in (1, 7, 8, 17)]


def test_prior_deterministic_and_validated():
    assert np.array_equal(sample_prior(5, 3, seed=7), sample_prior(5, 3, seed=7))
    assert sample_prior(1, 1, seed=0).shape == (1, 1)
    with pytest.raises(ValueError):
        sample_prior(0, 2, seed=0)
    with pytest.raises(ValueError):
        sample_prior(2, 0, seed=0)


def test_gumbel_max_point_mass_ignores_noise():
    rng = np.random.default_rng(1)
    for _ in range(50):
        assert gumbel_max(np.array([1.0, 0.0, 0.0]), rng.gumbel(size=3)) == 0


def test_gumbel_max_tie_breaks_low():
    assert gumbel_max(np.full(4, 0.25), np.zeros(4)) == 0


def test_gumbel_max_frequencies():
    rng = np.random.default_rng(2)
    probs = np.array([0.7, 0.2, 0.1])
    n = 100_000
    draws = np.fromiter(
        (gumbel_max(probs, rng.gumbel(size=3)) for _ in range(n)), dtype=int, count=n,
    )
    counts = np.bincount(draws, minlength=3)
    assert abs(counts[0] / n - 0.7) < 0.01
    assert stats.chisquare(counts, probs * n).pvalue > 1e-3


def test_gumbel_max_validation():
    with pytest.raises(ValueError):
        gumbel_max(np.array([0.5, 0.6]), np.zeros(2))
    with pytest.raises(ValueError):
        gumbel_max(np.array([0.5, 0.5]), np.zeros(3))


@pytest.mark.parametrize("probs", [
    [[np.nan, np.nan, np.nan]],
    [[0.2, 0.7, 0.1], [np.nan, 0.5, 0.5]],
    [[np.inf, 0.0, 0.0]],
])
def test_gumbel_max_rejects_nan_and_inf_probabilities(probs):
    # a comparison with NaN is false, so checks written as faults let NaN through
    probs = np.array(probs)
    with pytest.raises(ValueError, match="probability vectors"):
        gumbel_max(probs, np.zeros_like(probs))


def test_generate_names_the_discrete_column_whose_probabilities_are_nan(mixed_checkpoint):
    # the overflow on the way to NaN warns nothing; the error is the one message
    broken = overflowed_discrete_logits(mixed_checkpoint)
    with warnings.catch_warnings(), np.errstate(over="warn", invalid="warn"), pytest.raises(ValueError, match="column 'g'"):
        warnings.simplefilter("error")
        generate(broken, 50, seed=0)


def test_generate_numeric_overflow_fails_at_the_finiteness_check(mixed_checkpoint):
    broken = replace(mixed_checkpoint, params=mixed_checkpoint.params.copy())
    weight, bias = broken.decoder[-1]
    bias[0], weight[0] = 1.79e308, 1e306  # column x's gamma
    with warnings.catch_warnings(), np.errstate(over="warn", invalid="warn"), pytest.raises(ValueError, match="^column 'x': sampled values are not finite$"):
        warnings.simplefilter("error")
        generate(broken, 50, seed=0)


def test_round_ordinal_modes():
    assert round_ordinal(3.4) == 3.0
    assert round_ordinal(3.46, "decimal") == pytest.approx(3.5)
    assert round_ordinal(2.0) == 2.0
    assert round_ordinal(2.0, "decimal") == 2.0
    with pytest.raises(ValueError, match="rounding mode"):
        round_ordinal(1.0, "bankers")


def test_generate_deterministic(normal_checkpoint):
    a = generate(normal_checkpoint, 200, seed=5)
    b = generate(normal_checkpoint, 200, seed=5)
    assert np.array_equal(a.rows, b.rows)
    assert not np.array_equal(a.rows, generate(normal_checkpoint, 200, seed=6).rows)


# a row, two rows, and a page boundary each way, at one and two pages
PAGE_COUNTS = (1, 2, PAGE_ROWS - 1, PAGE_ROWS, PAGE_ROWS + 1, 2 * PAGE_ROWS + 1)


@pytest.mark.parametrize("rounding", ["integer", "decimal"])
def test_fewer_rows_are_the_leading_rows_of_more(
        mixed_checkpoint, numeric_checkpoint, discrete_checkpoint, rounding):
    for cp in (mixed_checkpoint, numeric_checkpoint, discrete_checkpoint):
        longest = generate(cp, PAGE_COUNTS[-1], seed=40, ordinal_rounding=rounding).rows
        for n in PAGE_COUNTS[:-1]:
            rows = generate(cp, n, seed=40, ordinal_rounding=rounding).rows
            assert rows.tobytes() == longest[:n].tobytes()


@pytest.mark.parametrize("rounding", ["integer", "decimal"])
def test_generate_matches_its_pages_decoded_in_one_pass(
        mixed_checkpoint, numeric_checkpoint, discrete_checkpoint, knot_count_checkpoints, rounding):
    for cp in (mixed_checkpoint, numeric_checkpoint, discrete_checkpoint, *knot_count_checkpoints):
        for n in PAGE_COUNTS:
            rows = generate(cp, n, seed=40 + n, ordinal_rounding=rounding).rows
            assert rows.tobytes() == one_shot_generate(cp, n, 40 + n, page_draws, rounding).tobytes()


@pytest.mark.parametrize("block_rows", [2, 7, None])
def test_generate_block_size_never_changes_a_byte(
        mixed_checkpoint, numeric_checkpoint, discrete_checkpoint, monkeypatch, block_rows):
    # generate works in its own fixed pages: the row blocks that other
    # row-wise work takes from nn.BLOCK_ENTRIES change none of its bytes
    for cp in (mixed_checkpoint, numeric_checkpoint, discrete_checkpoint):
        width = sum(net_sizes(cp.schema, cp.config)[1])
        # 2 rows is the smallest block: BLOCK_ENTRIES = 1 asks for less
        if block_rows is not None:
            monkeypatch.setattr(nn, "BLOCK_ENTRIES", 1 if block_rows == 2 else block_rows * width)
        block = max(2, nn.BLOCK_ENTRIES // width)
        assert block == (block_rows or 2**16 // width)
        for n in (1, block - 1, block, block + 1, 2 * block + 1, PAGE_ROWS + 1):
            for rounding in ("integer", "decimal"):
                rows = generate(cp, n, seed=40 + n, ordinal_rounding=rounding).rows
                assert rows.tobytes() == one_shot_generate(cp, n, 40 + n, page_draws, rounding).tobytes()


def test_short_last_block_matches_one_shot(mixed_checkpoint):
    # OpenBLAS multiplies a matrix of few rows through a separate small-matrix
    # kernel that rounds differently; a short last page is still decoded at
    # the full page size, so it must not go through it
    cp = mixed_checkpoint
    for tail in (2, 3, 5, 17, 40):
        rows = generate(cp, PAGE_ROWS + tail, seed=tail).rows
        assert rows.tobytes() == one_shot_generate(cp, PAGE_ROWS + tail, tail, page_draws).tobytes()


def test_generate_memory_does_not_grow_with_the_decoded_rows(default_run):
    # a one-pass decode of 4e5 toy rows peaks at about 464 MB; page by page
    # it peaks at 13.6-14.2 MB, 9.2 MB of it the output
    tracemalloc.start()
    try:
        rows = generate(default_run["checkpoint"], 400_000, seed=1).rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rows.nbytes + 8 * 2**20


@pytest.mark.parametrize("call", [
    lambda cp: generate(cp, 5, seed=-1),
    lambda cp: generate(cp, 0, seed=-1),
    lambda cp: sample_prior(5, 2, seed=-1),
    lambda cp: estimate_cdf(cp, "x", n_mc=10, seed=-1),
])
def test_negative_seed_is_rejected_by_name(normal_checkpoint, call):
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        call(normal_checkpoint)


def test_generate_empty(normal_checkpoint):
    t = generate(normal_checkpoint, 0, seed=0)
    assert t.rows.shape == (0, 2)
    with pytest.raises(ValueError):
        generate(normal_checkpoint, -1, seed=0)


def test_generate_rows_satisfy_schema(normal_checkpoint):
    t = generate(normal_checkpoint, 500, seed=9)
    assert t.schema == normal_checkpoint.schema
    assert t.scaling is None
    assert np.all(np.isfinite(t.rows))
    levels = t.rows[:, 1]
    assert set(np.unique(levels)) <= {0.0, 1.0}


def test_generate_recovers_normal_marginal(normal_checkpoint):
    t = generate(normal_checkpoint, 5000, seed=10)
    x = t.rows[:, 0]
    assert x.mean() == pytest.approx(3.0, abs=0.15)
    assert x.std(ddof=1) == pytest.approx(1.0, abs=0.15)


def test_generate_rounds_ordinals():
    rng = np.random.default_rng(33)
    schema = Schema((ColumnSpec("k", "ordinal"),))
    rows = rng.integers(1, 8, size=(400, 1)).astype(float)
    cp = train(standardize(Table(schema, rows)), TrainConfig(seed=34, epochs=30))
    out = generate(cp, 300, seed=35)
    assert np.array_equal(out.rows, np.round(out.rows))
    tenth = generate(cp, 300, seed=35, ordinal_rounding="decimal")
    assert np.allclose(tenth.rows * 10, np.round(tenth.rows * 10))


def test_cdf_curve_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        CdfCurve(np.array([0.0, 0.0]), np.array([0.1, 0.2]))
    with pytest.raises(ValueError, match="non-decreasing"):
        CdfCurve(np.array([0.0, 1.0]), np.array([0.5, 0.4]))
    with pytest.raises(ValueError, match="non-decreasing"):
        CdfCurve(np.array([0.0, 1.0]), np.array([0.5, 1.2]))
    with pytest.raises(ValueError, match="equal shapes"):
        CdfCurve(np.array([0.0, 1.0]), np.array([0.5]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cdf_curve_rejects_non_finite_grid_and_values(bad):
    with pytest.raises(ValueError, match="grid must be finite"):
        CdfCurve(np.array([0.0, bad, 1.0]), np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError, match="grid must be finite"):
        CdfCurve(np.array([0.0, 1.0, bad]), np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError, match="non-decreasing within"):
        CdfCurve(np.array([0.0, 1.0]), np.array([bad, bad]))
    with pytest.raises(ValueError, match="non-decreasing within"):
        CdfCurve(np.array([0.0, 1.0, 2.0]), np.array([0.1, bad, 0.3]))


def test_estimate_cdf_rejects_a_nan_grid_point(normal_checkpoint):
    with pytest.raises(ValueError, match="grid must be finite"):
        estimate_cdf(normal_checkpoint, "x", grid=[0.0, math.nan, 1.0], n_mc=50)


@pytest.mark.parametrize("n_mc", [0, -5])
def test_estimate_cdf_needs_a_draw(normal_checkpoint, n_mc):
    with pytest.raises(ValueError, match="^n_mc must be at least 1$"):
        estimate_cdf(normal_checkpoint, "x", n_mc=n_mc)


def test_generate_rejects_unknown_rounding_mode_without_ordinals(normal_checkpoint, mixed_checkpoint):
    # neither call reaches round_ordinal: no ordinal column, or no rows
    for cp, n in ((normal_checkpoint, 5), (mixed_checkpoint, 0)):
        with pytest.raises(ValueError, match="unknown ordinal rounding mode 'bogus'"):
            generate(cp, n, seed=0, ordinal_rounding="bogus")


def test_estimate_cdf_basic_shape(normal_checkpoint):
    curve = estimate_cdf(normal_checkpoint, "x", n_mc=500, seed=1)
    assert curve.grid.shape == (201,)
    assert np.all(np.diff(curve.values) >= 0)
    assert np.all((curve.values >= 0) & (curve.values <= 1))


def test_estimate_cdf_tail_saturation(normal_checkpoint):
    curve = estimate_cdf(
        normal_checkpoint, "x", grid=np.array([-60.0, 60.0]), n_mc=500, seed=1,
    )
    assert curve.values[0] == 0.0
    assert curve.values[1] == 1.0


def test_estimate_cdf_matches_standard_normal(normal_checkpoint):
    # the trained marginal is N(3,1) in native units = N(0,1) standardized
    grid = np.linspace(-2.5, 2.5, 101)
    curve = estimate_cdf(normal_checkpoint, "x", grid=grid, n_mc=2000, seed=2)
    phi = np.array([0.5 * (1.0 + math.erf(g / math.sqrt(2.0))) for g in grid])
    assert np.max(np.abs(curve.values - phi)) < 0.05


@pytest.mark.parametrize("grid", [None, np.linspace(-4.0, 9.0, 57)])
def test_estimate_cdf_matches_per_point_reference(normal_checkpoint, grid):
    curve = estimate_cdf(normal_checkpoint, "x", grid=grid, n_mc=700, seed=3)
    expected = per_point_estimate_cdf(normal_checkpoint, "x", grid=grid, n_mc=700, seed=3)
    assert curve.values.tobytes() == expected.tobytes()


def test_estimate_cdf_rejects_discrete(normal_checkpoint):
    with pytest.raises(ValueError, match="discrete"):
        estimate_cdf(normal_checkpoint, "g")
