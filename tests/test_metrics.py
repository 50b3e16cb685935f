import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_toy_table
from helpers import (
    brute_auc,
    brute_ks,
    brute_majority_votes,
    brute_wd,
    one_shot_squared_distances,
)
from tabsynth import (
    ColumnSpec,
    Schema,
    Table,
    TrainConfig,
    attribute_disclosure,
    build_report,
    correlation_distance,
    correlation_ratio,
    cramers_v,
    dcr,
    ks_statistic,
    macro_f1,
    mare,
    membership_inference,
    mlu,
    roc_auc,
    standardize,
    train,
    train_test_split,
    vrate,
    wasserstein1,
)
from tabsynth import nn
from tabsynth.metrics import _squared_distance_chunks, association_matrix, fit_ols, fit_softmax, predict_softmax

NUM_SCHEMA = Schema((ColumnSpec("x", "continuous"),))


def num_table(values):
    return Table(NUM_SCHEMA, np.asarray(values, dtype=np.float64)[:, None])


# ---------------------------------------------------------------------------
# marginal distances

def test_ks_hand_values():
    assert ks_statistic([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert ks_statistic([0.0, 0.0], [1.0, 1.0]) == 1.0
    assert ks_statistic([1, 2, 3, 4], [1, 2, 3, 5]) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        ks_statistic([], [1.0])


def test_wasserstein_hand_values():
    assert wasserstein1([3.0, 4.0], [3.0, 4.0]) == 0.0
    assert wasserstein1([0.0], [1.0]) == 1.0
    assert wasserstein1([0.0, 2.0], [1.0, 3.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        wasserstein1([1.0], [])


def test_wasserstein_equal_sizes_is_mean_sorted_gap():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.normal(size=17)
        b = rng.normal(size=17)
        expect = np.mean(np.abs(np.sort(a) - np.sort(b)))
        assert wasserstein1(a, b) == pytest.approx(expect)


def test_marginal_distances_match_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(30):
        a = rng.normal(size=rng.integers(1, 50))
        b = rng.normal(size=rng.integers(1, 50))
        assert ks_statistic(a, b) == pytest.approx(brute_ks(a, b))
        assert wasserstein1(a, b) == pytest.approx(brute_wd(a, b))


# ---------------------------------------------------------------------------
# association structure

def test_correlation_ratio_hand_value():
    assert correlation_ratio([1, 2, 3, 4], [0, 0, 1, 1]) == pytest.approx(math.sqrt(4 / 5))
    assert correlation_ratio([1, 2, 3, 4], [0, 1, 0, 1]) == pytest.approx(math.sqrt(1 / 5))


def test_cramers_v_extremes():
    a = np.array([0, 0, 1, 1, 0, 1] * 10)
    assert cramers_v(a, a) == pytest.approx(1.0)
    assert cramers_v(a, 1 - a) == pytest.approx(1.0)
    b = np.array(([0] * 15 + [1] * 15) * 2)
    assert cramers_v(np.repeat([0, 1], 30), b) == pytest.approx(0.0, abs=1e-12)


def test_degenerate_pairs_warn_and_zero():
    with pytest.warns(UserWarning, match="degenerate"):
        assert correlation_ratio([2.0, 2.0, 2.0], [0, 1, 0]) == 0.0
    with pytest.warns(UserWarning, match="degenerate"):
        assert cramers_v([0, 0, 0], [0, 1, 1]) == 0.0


def test_correlation_distance_identical_tables():
    rng = np.random.default_rng(2)
    schema = Schema((
        ColumnSpec("x", "continuous"),
        ColumnSpec("y", "continuous"),
        ColumnSpec("c", "discrete", ("a", "b")),
    ))
    rows = np.column_stack([
        rng.normal(size=100), rng.normal(size=100), rng.integers(0, 2, 100).astype(float),
    ])
    t = Table(schema, rows)
    assert correlation_distance(t, t) == 0.0


def test_correlation_distance_detects_lost_dependence():
    rng = np.random.default_rng(3)
    schema = Schema((ColumnSpec("x", "continuous"), ColumnSpec("y", "continuous")))
    n = 4000
    x = rng.normal(size=n)
    real = Table(schema, np.column_stack([x, x + 0.01 * rng.normal(size=n)]))
    synth = Table(schema, rng.normal(size=(n, 2)))
    # one off-diagonal pair moves from ~1 to ~0 in both symmetric slots
    assert correlation_distance(real, synth) == pytest.approx(math.sqrt(2.0), abs=0.1)


def test_correlation_distance_schema_mismatch():
    t = num_table([1.0, 2.0])
    other = Table(Schema((ColumnSpec("y", "continuous"),)), np.array([[1.0], [2.0]]))
    with pytest.raises(ValueError):
        correlation_distance(t, other)


def test_association_matrix_takes_each_pair_kind_in_either_column_order():
    # a discrete column first, a pair of discrete columns, and a numeric
    # column followed by a discrete one
    rng = np.random.default_rng(4)
    schema = Schema((
        ColumnSpec("d", "discrete", ("p", "q", "r")),
        ColumnSpec("x", "continuous"),
        ColumnSpec("e", "discrete", ("u", "v")),
    ))
    n = 300
    d = rng.integers(0, 3, n).astype(float)
    x = d + rng.normal(size=n)
    e = np.where(rng.random(n) < 0.7, d % 2, 1 - d % 2)
    table = Table(schema, np.column_stack([d, x, e]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = association_matrix(table)
    assert np.array_equal(m, m.T)
    assert np.array_equal(np.diag(m), np.ones(3))
    assert m[0, 1] == correlation_ratio(x, d)
    assert m[0, 2] == cramers_v(d, e)
    assert m[1, 2] == correlation_ratio(x, e)
    # no entry sits at 0 or 1, where two different statistics could agree
    assert 0.0 < min(m[0, 1], m[0, 2], m[1, 2]) < max(m[0, 1], m[0, 2], m[1, 2]) < 1.0


def test_association_matrix_zeroes_a_constant_numeric_pair_with_a_warning():
    schema = Schema((ColumnSpec("x", "continuous"), ColumnSpec("k", "continuous")))
    table = Table(schema, np.column_stack([np.arange(5.0), np.full(5, 2.0)]))
    with pytest.warns(UserWarning, match=r"^degenerate column pair \('x', 'k'\); association set to 0$"):
        m = association_matrix(table)
    assert np.array_equal(m, np.eye(2))


# ---------------------------------------------------------------------------
# distance to closest record

def test_dcr_identical_tables():
    t = num_table([0.0, 1.0, 2.0, 5.0])
    result = dcr(t, t)
    assert result.rs == 0.0
    assert result.rr == result.ss > 0.0


def test_dcr_hand_fixture():
    real = num_table([0.0, 10.0])
    synth = num_table([1.0, 12.0])
    result = dcr(real, synth)
    # nearest gaps are (1, 2); the 5th percentile interpolates to 1.05
    assert result.rs == pytest.approx(1.05)
    assert result.rr == pytest.approx(10.0)
    assert result.ss == pytest.approx(11.0)


def test_dcr_permutation_invariant():
    rng = np.random.default_rng(4)
    real = num_table(rng.normal(size=40))
    synth_rows = rng.normal(size=40)
    a = dcr(real, num_table(synth_rows))
    b = dcr(real, num_table(rng.permutation(synth_rows)))
    assert (a.rs, a.rr, a.ss) == pytest.approx((b.rs, b.rr, b.ss))


def test_dcr_needs_numeric_rows():
    with pytest.raises(ValueError, match="2 rows"):
        dcr(num_table([1.0]), num_table([1.0, 2.0]))
    schema = Schema((ColumnSpec("c", "discrete", ("a", "b")),))
    t = Table(schema, np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError, match="numeric"):
        dcr(t, t)


# ---------------------------------------------------------------------------
# learned-utility pieces

def test_mare_hand_value():
    assert mare([1.0, 2.0], [1.1, 1.8]) == pytest.approx(0.1)
    assert mare([0.0], [1.0]) == pytest.approx(1e8)


def test_macro_f1_values():
    assert macro_f1([0, 0, 1, 1], [0, 0, 0, 0]) == pytest.approx(1.0 / 3.0)
    assert macro_f1([0, 1, 2, 0, 1, 2], [0, 1, 2, 0, 1, 2]) == 1.0
    assert macro_f1([0, 0, 1, 1], [1, 1, 0, 0]) == 0.0


def test_ols_recovers_coefficients():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(60, 3))
    w = np.array([1.5, -2.0, 0.25])
    assert fit_ols(x, x @ w) == pytest.approx(w)


def test_ols_singular_fallback():
    x = np.zeros((4, 2))
    x[:, 0] = [1.0, 2.0, 3.0, 4.0]
    x[:, 1] = x[:, 0]
    w = fit_ols(x, x[:, 0])
    assert np.all(np.isfinite(w))


def test_softmax_classifier_separates():
    rng = np.random.default_rng(6)
    x = np.vstack([rng.normal(-2.0, 0.3, (40, 1)), rng.normal(2.0, 0.3, (40, 1))])
    y = np.repeat([0, 1], 40)
    w = fit_softmax(x, y, 2)
    assert macro_f1(y, predict_softmax(w, x)) == 1.0


def test_mlu_on_self_is_strong():
    rng = np.random.default_rng(7)
    schema = Schema((
        ColumnSpec("x", "continuous"),
        ColumnSpec("y", "continuous"),
        ColumnSpec("c", "discrete", ("n", "p")),
    ))
    n = 600
    x = rng.normal(2.0, 1.0, n)
    y = 3.0 * x + 0.01 * rng.normal(size=n)
    c = (x > 2.0).astype(float)
    table = Table(schema, np.column_stack([x, y, c]))
    fit, hold = train_test_split(table, 0.25, seed=0)
    result = mlu(standardize(fit).scaling, hold, fit, reg_target="y", cls_target="c")
    assert result.mare < 0.05
    assert result.f1 > 0.9


# ---------------------------------------------------------------------------
# vrate

def test_vrate_matched_distributions():
    rng = np.random.default_rng(8)
    test = rng.normal(size=20_000)
    synth = rng.normal(size=20_000)
    assert vrate(test, synth, 0.5) == pytest.approx(0.5, abs=0.03)
    assert vrate(test, synth, 0.1) == pytest.approx(0.1, abs=0.03)


def test_vrate_extremes_and_monotonicity():
    synth = np.linspace(0.0, 1.0, 101)
    assert vrate([5.0, 6.0], synth, 0.5) == 0.0
    assert vrate([-5.0, -6.0], synth, 0.5) == 1.0
    test = np.random.default_rng(9).normal(0.5, 0.3, 500)
    rates = [vrate(test, synth, a) for a in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(lo <= hi for lo, hi in zip(rates, rates[1:]))


def test_vrate_validates_alpha():
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            vrate([1.0], [1.0], bad)


# ---------------------------------------------------------------------------
# privacy attacks

def test_roc_auc_hand_value():
    assert roc_auc([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.6]) == pytest.approx(0.75)
    assert roc_auc([1, 1, 0, 0], [0.9, 0.8, 0.7, 0.6]) == 1.0
    assert roc_auc([0, 0, 1, 1], [0.9, 0.8, 0.7, 0.6]) == 0.0


def test_roc_auc_all_ties_is_half():
    assert roc_auc([1, 0, 1, 0], [0.5, 0.5, 0.5, 0.5]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        roc_auc([1, 1], [0.1, 0.2])


def test_roc_auc_matches_pairwise_oracle_on_ties():
    rng = np.random.default_rng(12)
    for n, n_scores in ((2, 1), (9, 2), (40, 3), (300, 5), (301, 40)):
        labels = np.concatenate([[0, 1], rng.integers(0, 2, size=n - 2)])
        scores = rng.integers(0, n_scores, size=n) / 4.0
        assert roc_auc(labels, scores) == pytest.approx(brute_auc(labels, scores), abs=1e-12)


def attr_schema():
    return Schema((
        ColumnSpec("x", "continuous"),
        ColumnSpec("s", "discrete", ("n", "y")),
    ))


def test_attribute_disclosure_leaky_copy():
    rng = np.random.default_rng(10)
    x = rng.normal(size=200)
    s = (x > 0).astype(float)
    t = Table(attr_schema(), np.column_stack([x, s]))
    assert attribute_disclosure(t, t, ["x"], ["s"], k=1) == 1.0


def test_attribute_disclosure_independent_secret_is_chance():
    rng = np.random.default_rng(11)
    n = 2000
    real = Table(attr_schema(), np.column_stack([
        rng.normal(size=n), (rng.random(n) < 0.5).astype(float),
    ]))
    synth = Table(attr_schema(), np.column_stack([
        rng.normal(size=n), (rng.random(n) < 0.5).astype(float),
    ]))
    assert attribute_disclosure(real, synth, ["x"], ["s"], k=1) == pytest.approx(0.5, abs=0.05)


def test_attribute_disclosure_vote_ties_take_lowest_level():
    real = Table(attr_schema(), np.array([[0.0, 1.0]]))
    synth = Table(attr_schema(), np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert attribute_disclosure(real, synth, ["x"], ["s"], k=2) == 0.0


@pytest.mark.parametrize("k", [1, 4, 7, 50])
def test_attribute_disclosure_matches_vote_oracle(k):
    schema = Schema((
        ColumnSpec("x", "continuous"),
        ColumnSpec("y", "continuous"),
        ColumnSpec("s", "discrete", ("p", "q", "r", "t")),
    ))
    rng = np.random.default_rng(13)

    def table(n):
        xy = rng.normal(size=(n, 2))
        s = np.clip(np.round(xy[:, 0] + rng.normal(0.0, 0.7, n) + 1.5), 0, 3)
        return Table(schema, np.column_stack([xy, s]))

    real, synth = table(120), table(90)
    votes = brute_majority_votes(real.rows[:, :2], synth.rows[:, :2], synth.rows[:, 2], k, 4)
    expected = macro_f1(real.rows[:, 2].astype(np.intp), votes)
    assert attribute_disclosure(real, synth, ["x", "y"], ["s"], k=k) == expected


def test_attribute_disclosure_clamps_large_k():
    real = Table(attr_schema(), np.array([[0.0, 1.0], [1.0, 0.0]]))
    synth = Table(attr_schema(), np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.warns(UserWarning, match="clamped"):
        clamped = attribute_disclosure(real, synth, ["x"], ["s"], k=5)
    assert clamped == attribute_disclosure(real, synth, ["x"], ["s"], k=2)


def test_attribute_disclosure_validates_columns():
    real = Table(attr_schema(), np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="discrete"):
        attribute_disclosure(real, real, ["s"], ["x"])
    with pytest.raises(ValueError, match="at least one"):
        attribute_disclosure(real, real, [], ["s"])


def neighbour_tables(n):
    schema = Schema((
        ColumnSpec("x", "continuous"),
        ColumnSpec("y", "continuous"),
        ColumnSpec("s", "discrete", ("p", "q", "r")),
        ColumnSpec("t", "discrete", ("n", "y")),
    ))
    rng = np.random.default_rng(15)

    def table():
        xy = rng.normal(size=(n, 2))
        s = np.clip(np.round(xy[:, 0] + rng.normal(0.0, 0.7, n) + 1.0), 0, 2)
        return Table(schema, np.column_stack([xy, s, (xy[:, 1] + rng.normal(0.0, 1.0, n) > 0)]))

    return table(), table()


def neighbour_results(real, synth):
    return dcr(real, synth), [
        attribute_disclosure(real, synth, ["x", "y"], ["s", "t"], k=k) for k in (1, 10, 100)
    ]


def test_attribute_disclosure_distance_ties_at_k1_go_to_the_lowest_synthetic_row():
    # every synthetic row appears twice with different secrets; a real row
    # sits on each pair, so both rows of a pair are at distance exactly 0
    x = np.arange(40.0)
    secret = (np.arange(40) % 3 == 0).astype(float)
    real = Table(attr_schema(), np.column_stack([x, secret]))

    def pairs(first_secret, second_secret):
        interleaved = np.column_stack([first_secret, second_secret]).ravel()
        return Table(attr_schema(), np.column_stack([np.repeat(x, 2), interleaved]))

    assert attribute_disclosure(real, pairs(secret, 1 - secret), ["x"], ["s"], k=1) == 1.0
    assert attribute_disclosure(real, pairs(1 - secret, secret), ["x"], ["s"], k=1) == 0.0


@pytest.mark.parametrize("block_rows", [2, 7])
def test_neighbour_search_block_size_never_changes_a_result(monkeypatch, block_rows):
    n = 301  # equal row counts give every search the same block rows
    real, synth = neighbour_tables(n)
    expected = neighbour_results(real, synth)
    monkeypatch.setattr(nn, "BLOCK_ENTRIES", 1 if block_rows == 2 else block_rows * n)
    assert len(nn.row_blocks(n, n)) == n // block_rows
    assert neighbour_results(real, synth) == expected


@pytest.mark.parametrize("n", [2_000, 8_000])
def test_attribute_disclosure_memory_does_not_grow_with_n_times_k(n):
    # whole-table (n, k) neighbour, vote and tally arrays peak at 4.9 and
    # 19.1 MB here; tallied chunk by chunk, at 2.2 and 2.5 MB
    real = standardize(make_toy_table(n, seed=3))
    synth = standardize(make_toy_table(n, seed=4))
    tracemalloc.start()
    try:
        attribute_disclosure(real, synth, ["a", "b"], ["c"], k=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("block_rows", [2, 7, None])
def test_squared_distance_chunks_match_one_shot_expression(monkeypatch, block_rows):
    rng = np.random.default_rng(16)
    a, b = rng.normal(size=(53, 3)), rng.normal(size=(41, 3))
    if block_rows is not None:
        monkeypatch.setattr(nn, "BLOCK_ENTRIES", block_rows * b.shape[0])
    chunks = list(_squared_distance_chunks(a, b))
    assert [start for start, _ in chunks] == [s.start for s in nn.row_blocks(53, 41)]
    assert (len(chunks) > 1) == (block_rows is not None)
    got = np.concatenate([d2 for _, d2 in chunks])
    assert got.tobytes() == one_shot_squared_distances(a, b).tobytes()


@pytest.fixture(scope="module")
def mia_setup():
    rng = np.random.default_rng(12)
    schema = attr_schema()
    n = 120
    rows = np.column_stack([rng.normal(size=n), (rng.random(n) < 0.5).astype(float)])
    table = Table(schema, rows)
    fit, hold = train_test_split(table, 0.33, seed=1)
    cp = train(standardize(fit), TrainConfig(seed=13, epochs=3, batch_size=32))
    return cp, fit, hold


def test_membership_inference_plumbing(mia_setup):
    cp, fit, hold = mia_setup
    result = membership_inference(cp, fit, hold, "s", seed=0)
    assert 0.0 <= result.accuracy <= 1.0
    assert 0.0 <= result.auc <= 1.0
    again = membership_inference(cp, fit, hold, "s", seed=0)
    assert (result.accuracy, result.auc) == (again.accuracy, again.auc)


def test_membership_inference_rejects_negative_seed_by_name(mia_setup):
    cp, fit, hold = mia_setup
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        membership_inference(cp, fit, hold, "s", seed=-1)


def test_membership_inference_needs_discrete_target(mia_setup):
    cp, fit, hold = mia_setup
    with pytest.raises(ValueError, match="discrete"):
        membership_inference(cp, fit, hold, "x")


def test_membership_inference_skips_a_level_the_model_never_samples(mia_setup):
    cp, fit, hold = mia_setup
    assert np.any(fit.rows[:, 1] == 1.0) and np.any(hold.rows[:, 1] == 1.0)
    never = replace(cp, params=cp.params.copy())
    weight, bias = never.decoder[-1]
    weight[-1], bias[-1] = 0.0, -1e300  # level 1 of s, the decoder's last output
    with (pytest.warns(UserWarning, match="^class 1 has one membership label only; attack skipped$"),
          pytest.warns(UserWarning, match="^evaluation records of skipped classes were excluded$")):
        result = membership_inference(never, fit, hold, "s", seed=0)
    assert 0.0 <= result.accuracy <= 1.0


def test_membership_inference_without_test_records_trains_no_attack(mia_setup):
    cp, fit, hold = mia_setup
    empty = Table(hold.schema, np.empty((0, 2)))
    with (pytest.warns(UserWarning, match="attack skipped$"),
          pytest.raises(ValueError, match=r"^no attack model could be trained \(all classes degenerate\)$")):
        membership_inference(cp, fit, empty, "s", seed=0)


# ---------------------------------------------------------------------------
# input checks

MIXED_SCHEMA = Schema((
    ColumnSpec("x", "continuous"),
    ColumnSpec("y", "continuous"),
    ColumnSpec("c", "discrete", ("a", "b")),
))
MIXED = Table(MIXED_SCHEMA, np.array([[0.0, 1.0, 0.0], [1.0, 0.5, 1.0], [2.0, 0.0, 1.0]]))
ONE_COLUMN = num_table([1.0, 2.0, 3.0])


@pytest.mark.parametrize(("call", "message"), [
    (lambda: dcr(MIXED, ONE_COLUMN), r"^dcr needs tables with equal schemas$"),
    (lambda: mlu(None, MIXED, ONE_COLUMN, "y", "c"), r"^mlu needs tables with equal schemas$"),
    (lambda: attribute_disclosure(MIXED, ONE_COLUMN, ["x"], ["c"]),
     r"^attribute_disclosure needs tables with equal schemas$"),
    (lambda: build_report(MIXED, MIXED, ONE_COLUMN, "y", "c"), r"^the three tables must share one schema$"),
    (lambda: build_report(MIXED, ONE_COLUMN, MIXED, "y", "c"), r"^the three tables must share one schema$"),
    (lambda: mlu(None, MIXED, MIXED, "c", "c"), r"^regression target 'c' must be numeric$"),
    (lambda: mlu(None, MIXED, MIXED, "y", "x"), r"^classification target 'x' must be discrete$"),
    (lambda: vrate([], [1.0], 0.5), r"^vrate needs non-empty samples$"),
    (lambda: vrate([1.0], [], 0.5), r"^vrate needs non-empty samples$"),
    (lambda: mare([], []), r"^mare needs non-empty samples$"),
    (lambda: macro_f1([], []), r"^macro_f1 needs non-empty samples$"),
    (lambda: attribute_disclosure(MIXED, MIXED, ["x"], ["c"], k=0), r"^k must be at least 1$"),
], ids=["dcr-schemas", "mlu-schemas", "attribute-schemas", "report-synth-schema", "report-test-schema",
        "mlu-discrete-regression", "mlu-numeric-classification", "vrate-empty-test", "vrate-empty-synth",
        "mare-empty", "macro-f1-empty", "attribute-k0"])
def test_metric_input_checks_name_the_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# ---------------------------------------------------------------------------
# the assembled report

@pytest.fixture(scope="module")
def report_setup():
    rng = np.random.default_rng(14)
    schema = Schema((
        ColumnSpec("x", "continuous"),
        ColumnSpec("y", "continuous"),
        ColumnSpec("c", "discrete", ("a", "b")),
    ))
    n = 400
    x = rng.normal(size=n)
    real = Table(schema, np.column_stack([
        x, 0.5 * x + rng.normal(size=n), (rng.random(n) < 0.4).astype(float),
    ]))
    x2 = rng.normal(size=n)
    synth = Table(schema, np.column_stack([
        x2, 0.5 * x2 + rng.normal(size=n), (rng.random(n) < 0.4).astype(float),
    ]))
    fit, hold = train_test_split(real, 0.25, seed=2)
    return fit, hold, synth


def test_build_report_fields(report_setup):
    fit, hold, synth = report_setup
    report = build_report(fit, hold, synth, reg_target="y", cls_target="c")
    assert report.ks_cont is not None and 0.0 <= report.ks_cont <= 1.0
    assert report.ks_disc is not None and 0.0 <= report.ks_disc <= 1.0
    assert report.wd1_cont is not None and report.wd1_disc is not None
    assert report.corr_dist >= 0.0
    assert report.dcr_rs >= 0.0 and report.dcr_rr >= 0.0 and report.dcr_ss >= 0.0
    assert report.mare >= 0.0 and 0.0 <= report.f1 <= 1.0
    assert sorted(report.vrate) == [0.1, 0.3, 0.5, 0.7, 0.9]
    assert sorted(report.attr_disclosure_f1) == [1, 10, 100]


def test_build_report_doc_keys(report_setup):
    fit, hold, synth = report_setup
    doc = build_report(fit, hold, synth, reg_target="y", cls_target="c").to_doc()
    assert set(doc["vrate"]) == {"0.1", "0.3", "0.5", "0.7", "0.9"}
    assert set(doc["attr_disclosure_f1"]) == {"1", "10", "100"}
    assert "mia_accuracy" not in doc

