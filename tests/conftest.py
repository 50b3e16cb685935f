"""Session fixtures: one toy dataset with known structure, and the trained
models the slower behavioral tests share."""

import time

import numpy as np
import pytest

from tabsynth import (
    ColumnSpec,
    Schema,
    Table,
    TrainConfig,
    generate,
    standardize,
    train,
    train_test_split,
)

TOY_MODE = 1.5
TOY_MODE_STD = 0.8
TOY_LEVELS = ("low", "mid", "high")
# conditional level probabilities for the discrete column, one row per mode
TOY_LEVEL_PROBS = ((0.7, 0.2, 0.1), (0.3, 0.4, 0.3))


def toy_schema() -> Schema:
    return Schema((
        ColumnSpec("a", "continuous"),
        ColumnSpec("b", "continuous"),
        ColumnSpec("c", "discrete", TOY_LEVELS),
    ))


def make_toy_table(n: int, seed: int) -> Table:
    """Sample the toy distribution: `a` is a balanced two-mode Gaussian
    mixture, `b` depends linearly on `a` with unit noise, and the discrete
    `c` has mode-dependent level probabilities."""
    rng = np.random.default_rng(seed)
    left = rng.random(n) < 0.5
    a = np.where(left, rng.normal(-TOY_MODE, TOY_MODE_STD, n), rng.normal(TOY_MODE, TOY_MODE_STD, n))
    b = 0.5 * a + rng.normal(0.0, 1.0, n)
    probs = np.where(left[:, None], [TOY_LEVEL_PROBS[0]], [TOY_LEVEL_PROBS[1]])
    c = (rng.random(n)[:, None] > np.cumsum(probs, axis=1)).sum(axis=1).astype(float)
    return Table(toy_schema(), np.column_stack([a, b, c]))


@pytest.fixture(scope="session")
def toy_split():
    table = make_toy_table(6250, seed=42)
    return train_test_split(table, 0.2, seed=7)


@pytest.fixture(scope="session")
def toy_train(toy_split):
    return toy_split[0]


@pytest.fixture(scope="session")
def toy_test(toy_split):
    return toy_split[1]


@pytest.fixture(scope="session")
def toy_std(toy_train):
    return standardize(toy_train)


@pytest.fixture(scope="session")
def default_run(toy_std):
    """Train with the stock configuration and sample one synthetic dataset,
    keeping the wall-clock timings for the runtime checks."""
    t0 = time.perf_counter()
    cp = train(toy_std, TrainConfig(seed=2024))
    train_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    synth = generate(cp, 5000, seed=123)
    generate_seconds = time.perf_counter() - t0
    return {
        "checkpoint": cp,
        "synth": synth,
        "train_seconds": train_seconds,
        "generate_seconds": generate_seconds,
    }


@pytest.fixture(scope="session")
def beta5_run(toy_std):
    """Same data and seed as default_run but with the KL weight at 5."""
    cp = train(toy_std, TrainConfig(seed=2024, beta=5.0))
    return {"checkpoint": cp, "synth": generate(cp, 5000, seed=123)}


@pytest.fixture(scope="session")
def zero_inflated_checkpoint():
    """A model of a table whose column 'gain' is 0 in 99.5% of its 1,000
    rows, so its stored 1% and 99% quantiles are equal."""
    rng = np.random.default_rng(61)
    schema = Schema((ColumnSpec("x", "continuous"), ColumnSpec("gain", "continuous")))
    gain = np.zeros(1000)
    gain[::200] = rng.exponential(5000.0, 5)
    rows = np.column_stack([rng.normal(size=1000), gain])
    return train(standardize(Table(schema, rows)), TrainConfig(seed=62, epochs=3))
