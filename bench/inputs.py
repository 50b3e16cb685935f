"""Seeded input tables for the benchmark workloads.

The program under test only ever receives the tables built here. Shapes are
fixed; the seed changes only the values, so timings are comparable across
seeds.
"""

from __future__ import annotations

import numpy as np

from tabsynth import ColumnSpec, Schema, Table

# The toy distribution of tests/conftest.py, copied so the benchmark runs
# without the test tree; bench/test_bench.py checks the copy byte for byte.
TOY_MODE = 1.5
TOY_MODE_STD = 0.8
TOY_LEVELS = ("low", "mid", "high")
TOY_LEVEL_PROBS = ((0.7, 0.2, 0.1), (0.3, 0.4, 0.3))
# sha256 of make_toy_table(6250, 42).rows.tobytes(), the acceptance toy
TOY_ACCEPTANCE_SHA256 = "c5b976650e3cef5151c7ec799d23bae1804dd08d34befc38cb9164117273461b"

WIDE_ROWS = 10_000
WIDE_CONTINUOUS = 40
WIDE_LEVELS = (2, 3, 4, 5, 6, 8, 10, 13, 16, 20)
WIDE_FACTORS = 3


def toy_schema() -> Schema:
    return Schema((
        ColumnSpec("a", "continuous"),
        ColumnSpec("b", "continuous"),
        ColumnSpec("c", "discrete", TOY_LEVELS),
    ))


def make_toy_table(n: int, seed: int) -> Table:
    """`a` is a balanced two-mode Gaussian mixture, `b` depends linearly on
    `a` with unit noise, and the discrete `c` has mode-dependent levels."""
    rng = np.random.default_rng(seed)
    left = rng.random(n) < 0.5
    a = np.where(left, rng.normal(-TOY_MODE, TOY_MODE_STD, n), rng.normal(TOY_MODE, TOY_MODE_STD, n))
    b = 0.5 * a + rng.normal(0.0, 1.0, n)
    probs = np.where(left[:, None], [TOY_LEVEL_PROBS[0]], [TOY_LEVEL_PROBS[1]])
    c = (rng.random(n)[:, None] > np.cumsum(probs, axis=1)).sum(axis=1).astype(float)
    return Table(toy_schema(), np.column_stack([a, b, c]))


def wide_schema() -> Schema:
    columns = [ColumnSpec(f"x{j:02d}", "continuous") for j in range(WIDE_CONTINUOUS)]
    columns += [
        ColumnSpec(f"d{j}", "discrete", tuple(f"v{k}" for k in range(t)))
        for j, t in enumerate(WIDE_LEVELS)
    ]
    return Schema(tuple(columns))


def make_wide_table(seed: int, n: int = WIDE_ROWS) -> Table:
    """40 continuous and 10 discrete columns driven by shared latent factors.

    Continuous columns cycle through three shapes: Gaussian, right-skewed
    (log-normal) and bimodal (shifted by the sign of the first factor).
    Discrete columns draw their level from factor-dependent logits, so they
    correlate with each other and with the continuous block.
    """
    rng = np.random.default_rng(seed)
    factors = rng.standard_normal((n, WIDE_FACTORS))
    loadings = rng.normal(0.0, 1.0, (WIDE_FACTORS, WIDE_CONTINUOUS)) / np.sqrt(WIDE_FACTORS)
    base = factors @ loadings + 0.7 * rng.standard_normal((n, WIDE_CONTINUOUS))
    cont = base.copy()
    cont[:, 1::3] = np.exp(0.6 * base[:, 1::3])
    cont[:, 2::3] = base[:, 2::3] + 2.5 * np.sign(factors[:, :1])
    cont = cont * rng.uniform(0.5, 20.0, WIDE_CONTINUOUS) + rng.uniform(-50.0, 50.0, WIDE_CONTINUOUS)
    disc = []
    for t in WIDE_LEVELS:
        weights = rng.normal(0.0, 1.0, (WIDE_FACTORS, t))
        logits = factors @ weights + rng.gumbel(size=(n, t))
        disc.append(np.argmax(logits, axis=1).astype(float))
    return Table(wide_schema(), np.column_stack([cont] + disc))
