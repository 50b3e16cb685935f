"""Every count, seed and rate the API takes is refused by name at each place
it enters, through data.check_integer and data.check_real."""

import math
import re

import numpy as np
import pytest

from tabsynth import (
    ColumnSpec,
    Schema,
    Table,
    TrainConfig,
    attribute_disclosure,
    estimate_cdf,
    generate,
    membership_inference,
    sample_prior,
    standardize,
    train,
    train_test_split,
    vrate,
)


@pytest.fixture(scope="module")
def tiny():
    """A one-epoch model of a 40-row table, and the table's two halves."""
    rng = np.random.default_rng(5)
    schema = Schema((ColumnSpec("x", "continuous"), ColumnSpec("c", "discrete", ("u", "v"))))
    table = Table(schema, np.column_stack([rng.normal(size=40), rng.random(40) < 0.5]).astype(float))
    fit, hold = train_test_split(table, 0.5, seed=1)
    cp = train(standardize(fit), TrainConfig(seed=1, epochs=1, batch_size=16, hidden_width=4))
    return cp, fit, hold


def config_field(name):
    return lambda tiny, value: TrainConfig(**{"seed": 1, name: value})


# (call, argument, bound): call(tiny, value) passes value as argument, whose
# least accepted value is bound
INTEGER_SITES = {
    "config-seed": (lambda tiny, value: TrainConfig(seed=value), "seed", 0),
    **{f"config-{name}": (config_field(name), name, 1)
       for name in ("epochs", "batch_size", "latent_dim", "knot_count", "hidden_width")},
    "sample_prior-n": (lambda tiny, value: sample_prior(value, 2, 0), "n", 1),
    "sample_prior-latent_dim": (lambda tiny, value: sample_prior(3, value, 0), "latent_dim", 1),
    "sample_prior-seed": (lambda tiny, value: sample_prior(3, 2, value), "seed", 0),
    "generate-n": (lambda tiny, value: generate(tiny[0], value, 0), "n", 0),
    "generate-seed": (lambda tiny, value: generate(tiny[0], 3, value), "seed", 0),
    "estimate_cdf-n_mc": (lambda tiny, value: estimate_cdf(tiny[0], "x", n_mc=value), "n_mc", 1),
    "estimate_cdf-seed": (lambda tiny, value: estimate_cdf(tiny[0], "x", n_mc=3, seed=value), "seed", 0),
    "attribute_disclosure-k":
        (lambda tiny, value: attribute_disclosure(tiny[1], tiny[1], ["x"], ["c"], k=value), "k", 1),
    "train_test_split-seed": (lambda tiny, value: train_test_split(tiny[1], 0.5, value), "seed", 0),
    "membership_inference-seed":
        (lambda tiny, value: membership_inference(tiny[0], tiny[1], tiny[2], "c", seed=value), "seed", 0),
}

RATE_SITES = {
    "config-learning_rate": (config_field("learning_rate"), "learning_rate", 0, math.inf),
    "config-beta": (config_field("beta"), "beta", 0, math.inf),
    "vrate-alpha": (lambda tiny, value: vrate([1.0, 2.0], [1.5, 2.5], value), "alpha", 0, 1),
    "train_test_split-test_fraction":
        (lambda tiny, value: train_test_split(tiny[1], value, 1), "test_fraction", 0, 1),
}


@pytest.mark.parametrize("site", INTEGER_SITES)
def test_every_count_and_seed_is_refused_by_name(tiny, site):
    # numpy failed on 2.5 with a TypeError naming no argument, ran True as 1,
    # and compared "3" or None with a TypeError
    call, argument, bound = INTEGER_SITES[site]
    for value in (2.5, True, "3", None, bound - 1):
        with pytest.raises(ValueError, match=f"^{argument} must be "):
            call(tiny, value)
    call(tiny, np.int64(3))


@pytest.mark.parametrize("site", RATE_SITES)
def test_every_rate_is_refused_by_name(tiny, site):
    # a string failed the range check with a TypeError naming no argument
    call, argument, low, high = RATE_SITES[site]
    for value in (True, "0.5", math.nan, math.inf, low, high):
        with pytest.raises(ValueError, match=f"^{argument} must be "):
            call(tiny, value)
    call(tiny, np.float32(0.5))


@pytest.mark.parametrize("call, message", [
    (lambda: sample_prior(2.5, 2, 0), "n must be an integer, got 2.5"),
    (lambda: sample_prior(3, 0, 0), "latent_dim must be positive, got 0"),
    (lambda: TrainConfig(seed=-1), "seed must be non-negative, got -1"),
    (lambda: vrate([1.0], [1.0], "0.5"), "alpha must be a number, got '0.5'"),
    (lambda: vrate([1.0], [1.0], math.nan), "alpha must be in (0, 1), got nan"),
    (lambda: TrainConfig(seed=1, beta=math.inf), "beta must be in (0, inf), got inf"),
])
def test_boundary_messages_name_the_rule_and_the_value(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
