import math

import numpy as np
import pytest
from scipy import stats

from tabsynth import (
    CdfCurve,
    ColumnSpec,
    Schema,
    Table,
    TrainConfig,
    discretize_cdf,
    estimate_cdf,
    generate,
    gumbel_max,
    round_ordinal,
    sample_prior,
    standardize,
    train,
)


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


def test_estimate_cdf_rejects_discrete(normal_checkpoint):
    with pytest.raises(ValueError, match="discrete"):
        estimate_cdf(normal_checkpoint, "g")


def test_discretize_uniform_window_masses():
    # continuous uniform on [0, 5]: windows around 1,2,3,4 each hold 0.2
    cdf = lambda x: min(max(x / 5.0, 0.0), 1.0)
    out = discretize_cdf(cdf, np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.allclose(out.values, [0.2, 0.4, 0.6, 0.8])


def test_discretize_flat_cdf_stays_constant():
    out = discretize_cdf(lambda x: 0.5, np.array([0.0, 1.0, 2.0]))
    assert np.allclose(out.values, 0.0)


def test_discretize_repairs_decreasing_input():
    # adversarial non-monotone cdf: negative window mass gets floored by repair
    def bad(x):
        return {0.5: 0.6, -0.5: 0.1, 1.5: 0.55, 2.5: 0.9}.get(x, 0.0)

    out = discretize_cdf(bad, np.array([0.0, 1.0, 2.0]))
    assert np.all(np.diff(out.values) >= 0)
    assert out.values[0] == pytest.approx(0.5)


def test_discretize_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        discretize_cdf(lambda x: 0.0, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="non-empty"):
        discretize_cdf(lambda x: 0.0, np.array([]))


def test_discretize_model_cdf(normal_checkpoint):
    # the model CDF at every window edge, estimated in standardized units
    levels = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    edges = np.append(levels - 0.5, levels[-1] + 0.5)
    mean, std = normal_checkpoint.scaling.mean[0], normal_checkpoint.scaling.stddev[0]
    curve = estimate_cdf(normal_checkpoint, "x", grid=(edges - mean) / std, n_mc=500, seed=4)
    out = discretize_cdf(dict(zip(edges, curve.values)).__getitem__, levels)
    assert np.all(np.diff(out.values) >= 0)
    assert out.values[-1] > 0.9
