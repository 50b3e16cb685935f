"""Utility, similarity and privacy metrics for synthetic tables.

Similarity: per-column Kolmogorov-Smirnov and 1-Wasserstein distances plus
the Frobenius distance between mixed association matrices (Pearson for
numeric pairs, correlation ratio for numeric/discrete, Cramer's V for
discrete pairs).

Utility: regression and classification models fitted on synthetic data and
scored on held-out real data (MARE, macro F1), plus quantile coverage
(Vrate: the share of real test values falling below a synthetic quantile).

Privacy: distance to closest record (lower means synthetic rows sit closer
to real ones), attribute disclosure via nearest-neighbor majority votes,
and a shadow-model membership inference attack on the encoder
representations. For the privacy metrics, higher DCR and chance-level
attack scores are better. build_report runs every metric but the attack,
which needs the trained model as well: see membership_inference.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .data import KIND_DISCRETE, Schema, ScalingStats, Table, apply_scaling, one_hot_matrix, standardize
from .model import Checkpoint, check_seed, encode_batch, train
from .nn import row_blocks, softmax
from .synthesis import generate


# ---------------------------------------------------------------------------
# marginal distances

def _step_cdfs(a, b, name):
    """The merged sample of a and b, sorted, and each sample's empirical CDF
    at every one of its points: (points, F_a, F_b)."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError(f"{name} needs non-empty samples")
    xs = np.sort(np.concatenate([a, b]))
    fa = np.searchsorted(a, xs, side="right") / a.size
    fb = np.searchsorted(b, xs, side="right") / b.size
    return xs, fa, fb


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic, the exact sup over the
    merged order statistics of |F_a - F_b|."""
    _, fa, fb = _step_cdfs(a, b, "ks_statistic")
    return float(np.max(np.abs(fa - fb)))


def wasserstein1(a, b) -> float:
    """1-Wasserstein distance between empirical distributions: the area
    between the two step CDFs."""
    xs, fa, fb = _step_cdfs(a, b, "wasserstein1")
    return float(np.sum(np.abs(fa[:-1] - fb[:-1]) * np.diff(xs)))


# ---------------------------------------------------------------------------
# association structure

def _pearson(x, y, label) -> float:
    sx, sy = x.std(), y.std()
    if sx == 0.0 or sy == 0.0:
        warnings.warn(f"degenerate column pair {label}; association set to 0")
        return 0.0
    return float(np.mean((x - x.mean()) * (y - y.mean())) / (sx * sy))


def correlation_ratio(values, categories, label="") -> float:
    """eta: sqrt of the between-group share of the total variance."""
    values = np.asarray(values, dtype=np.float64)
    categories = np.asarray(categories)
    total = np.sum((values - values.mean()) ** 2)
    if total == 0.0:
        warnings.warn(f"degenerate column pair {label}; association set to 0")
        return 0.0
    between = 0.0
    for c in np.unique(categories):
        group = values[categories == c]
        between += group.size * (group.mean() - values.mean()) ** 2
    return float(np.sqrt(between / total))


def cramers_v(a, b, label="") -> float:
    """Cramer's V from the observed contingency table, without bias correction."""
    a = np.asarray(a)
    b = np.asarray(b)
    ua, ia = np.unique(a, return_inverse=True)
    ub, ib = np.unique(b, return_inverse=True)
    r, c = ua.size, ub.size
    if r < 2 or c < 2:
        warnings.warn(f"degenerate column pair {label}; association set to 0")
        return 0.0
    n = a.size
    observed = np.zeros((r, c))
    np.add.at(observed, (ia, ib), 1.0)
    expected = np.outer(observed.sum(axis=1), observed.sum(axis=0)) / n
    chi2 = np.sum((observed - expected) ** 2 / expected)
    return float(np.sqrt(chi2 / (n * min(r - 1, c - 1))))


def association_matrix(table: Table) -> np.ndarray:
    """Symmetric mixed-type association matrix with unit diagonal."""
    cols = table.schema.columns
    discrete = set(table.schema.discrete_indices)
    m = np.eye(len(cols))
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            label = f"({cols[i].name!r}, {cols[j].name!r})"
            xi, xj = table.rows[:, i], table.rows[:, j]
            if i in discrete and j in discrete:
                v = cramers_v(xi, xj, label)
            elif i in discrete:
                v = correlation_ratio(xj, xi, label)
            elif j in discrete:
                v = correlation_ratio(xi, xj, label)
            else:
                v = _pearson(xi, xj, label)
            m[i, j] = m[j, i] = v
    return m


def correlation_distance(real: Table, synth: Table) -> float:
    """Frobenius distance between the two tables' association matrices."""
    if real.schema != synth.schema:
        raise ValueError("correlation_distance needs tables with equal schemas")
    return float(np.linalg.norm(association_matrix(real) - association_matrix(synth)))


# ---------------------------------------------------------------------------
# distance to closest record

@dataclass(frozen=True)
class DcrResult:
    rs: float  # real to synthetic
    rr: float  # within real
    ss: float  # within synthetic


def _squared_distance_chunks(a: np.ndarray, b: np.ndarray):
    """Yield (start, d2) where d2 holds the squared L2 distances from the rows
    a[start : start + len(d2)] to every row of b, nn.BLOCK_ENTRIES entries at
    a time, evaluated as (|a|^2 + |b|^2) - (2a) . b^T."""
    nb2 = np.sum(b * b, axis=1)
    for block in row_blocks(a.shape[0], b.shape[0]):
        chunk = a[block]
        cross = 2.0 * chunk @ b.T
        d2 = np.sum(chunk * chunk, axis=1)[:, None] + nb2[None, :]
        yield block.start, np.subtract(d2, cross, out=d2)


def _nearest_squared(a: np.ndarray, b: np.ndarray, exclude_diag: bool) -> np.ndarray:
    """Min squared L2 from each row of a to the rows of b."""
    out = np.empty(a.shape[0])
    for start, d2 in _squared_distance_chunks(a, b):
        if exclude_diag:
            rows = np.arange(d2.shape[0])
            d2[rows, start + rows] = np.inf
        out[start : start + d2.shape[0]] = np.maximum(d2.min(axis=1), 0.0)
    return out


def dcr(real: Table, synth: Table, percentile: float = 5.0) -> DcrResult:
    """Distance to closest record over the numeric columns.

    Reports the given percentile (default 5th, linear interpolation) of the
    nearest-neighbor L2 distances: real to synth, within real, and within
    synth (self-pairs excluded). Values are taken as-is, so pass tables in
    standardized units.
    """
    if real.schema != synth.schema:
        raise ValueError("dcr needs tables with equal schemas")
    idx = real.schema.numeric_indices
    if not idx:
        raise ValueError("dcr needs at least one numeric column")
    a = real.rows[:, idx]
    b = synth.rows[:, idx]
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise ValueError("dcr needs at least 2 rows per table")
    rs = np.sqrt(_nearest_squared(a, b, exclude_diag=False))
    rr = np.sqrt(_nearest_squared(a, a, exclude_diag=True))
    ss = np.sqrt(_nearest_squared(b, b, exclude_diag=True))
    return DcrResult(
        rs=float(np.percentile(rs, percentile)),
        rr=float(np.percentile(rr, percentile)),
        ss=float(np.percentile(ss, percentile)),
    )


# ---------------------------------------------------------------------------
# machine learning utility

def mare(y_true, y_pred) -> float:
    """Mean absolute relative error with the denominator floored at 1e-8."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.size == 0:
        raise ValueError("mare needs non-empty samples")
    return float(np.mean(np.abs(y_true - y_pred) / np.maximum(np.abs(y_true), 1e-8)))


def macro_f1(y_true, y_pred) -> float:
    """Unweighted mean of per-class F1 over the classes present in y_true."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.size == 0:
        raise ValueError("macro_f1 needs non-empty samples")
    scores = []
    for c in np.unique(y_true):
        tp = np.sum((y_pred == c) & (y_true == c))
        fp = np.sum((y_pred == c) & (y_true != c))
        fn = np.sum((y_pred != c) & (y_true == c))
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        scores.append(
            2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        )
    return float(np.mean(scores))


def fit_ols(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least squares without intercept via the normal equations; falls back
    to a small ridge (1e-6) if the Gram matrix is singular."""
    xtx = x.T @ x
    xty = x.T @ y
    try:
        return np.linalg.solve(xtx, xty)
    except np.linalg.LinAlgError:
        return np.linalg.solve(xtx + 1e-6 * np.eye(x.shape[1]), xty)


# gradient-descent step size of every fit_softmax model
SOFTMAX_LR = 0.1


def fit_softmax(x: np.ndarray, y: np.ndarray, n_classes: int, iters: int = 500) -> np.ndarray:
    """Multinomial logistic regression without intercept, plain full-batch
    gradient descent from zero weights. Returns (n_classes, n_features)."""
    n = x.shape[0]
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), np.asarray(y, dtype=np.intp)] = 1.0
    w = np.zeros((n_classes, x.shape[1]))
    for _ in range(iters):
        p = softmax(x @ w.T)
        w -= SOFTMAX_LR * ((p - onehot).T @ x) / n
    return w


def predict_softmax(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.argmax(x @ w.T, axis=1)


@dataclass(frozen=True)
class MluResult:
    mare: float
    f1: float


def mlu(train_scaling: ScalingStats, real_test: Table, synth: Table,
        reg_target: str, cls_target: str) -> MluResult:
    """Machine learning utility: fit on synthetic rows, score on real test
    rows. Regression is OLS without intercept scored by MARE;
    classification is multinomial logistic regression scored by macro F1.
    Tables are in native units; features are standardized internally by
    train_scaling, the real training split's stats.
    """
    schema = real_test.schema
    if synth.schema != schema:
        raise ValueError("mlu needs tables with equal schemas")
    jr = schema.index(reg_target)
    jc = schema.index(cls_target)
    if schema.columns[jr].kind == KIND_DISCRETE:
        raise ValueError(f"regression target {reg_target!r} must be numeric")
    if schema.columns[jc].kind != KIND_DISCRETE:
        raise ValueError(f"classification target {cls_target!r} must be discrete")
    fit_rows = apply_scaling(synth, train_scaling).rows
    eval_rows = apply_scaling(real_test, train_scaling).rows

    def features(rows, target):
        # every column but the target, in the encoder's one-hot layout
        rest = Schema(schema.columns[:target] + schema.columns[target + 1 :])
        return one_hot_matrix(rest, np.delete(rows, target, axis=1))

    w = fit_ols(features(fit_rows, jr), synth.rows[:, jr])
    reg_score = mare(real_test.rows[:, jr], features(eval_rows, jr) @ w)

    x_fit = features(fit_rows, jc)
    x_eval = features(eval_rows, jc)
    wc = fit_softmax(x_fit, synth.rows[:, jc], schema.columns[jc].n_levels)
    cls_score = macro_f1(real_test.rows[:, jc], predict_softmax(wc, x_eval))
    return MluResult(mare=reg_score, f1=cls_score)


def vrate(test_values, synth_values, alpha: float) -> float:
    """Share of real test values strictly below the synthetic data's
    empirical alpha-quantile (linear interpolation). Near alpha is good."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    test_values = np.asarray(test_values, dtype=np.float64)
    synth_values = np.asarray(synth_values, dtype=np.float64)
    if test_values.size == 0 or synth_values.size == 0:
        raise ValueError("vrate needs non-empty samples")
    q = np.quantile(synth_values, alpha)
    return float(np.mean(test_values < q))


# ---------------------------------------------------------------------------
# privacy attacks

def roc_auc(labels, scores) -> float:
    """Area under the ROC curve via the rank statistic, ties averaged."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc needs both classes present")
    # a group of tied scores shares the mean of the 1-based ranks it spans
    _, group, size = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(size) - (size - 1) / 2)[group]
    rank_sum = ranks[pos].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


# gradient-descent steps of each per-class attack model
ATTACK_ITERS = 300


@dataclass(frozen=True)
class MiaResult:
    accuracy: float
    auc: float


def membership_inference(cp: Checkpoint, real_train: Table, real_test: Table,
                         cls_target: str, seed: int = 0) -> MiaResult:
    """Shadow-model membership inference attack against the trained model.

    The attacker samples shadow train/test sets from the target model,
    trains one shadow model with the identical config, and labels the
    shadow records in/out. Attack features are the encoder's posterior
    means; one binary logistic attack model is trained per level of the
    classification target. The attack is then scored on an equal number of
    real training and test records, their features taken from the target
    model's encoder. Accuracy and AUC near 0.5 mean the attack learned
    nothing, which is the privacy-preserving outcome.

    real_train and real_test are in native units.
    """
    schema = cp.schema
    jc = schema.index(cls_target)
    if schema.columns[jc].kind != KIND_DISCRETE:
        raise ValueError(f"classification target {cls_target!r} must be discrete")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    seed_tr, seed_te, seed_pick = (int(v) for v in rng.integers(0, 2**63, size=3))

    shadow_train = generate(cp, real_train.n_rows, seed_tr)
    shadow_test = generate(cp, real_test.n_rows, seed_te)
    shadow_std = standardize(shadow_train)
    shadow_cp = train(shadow_std, cp.config)

    z_in, _, _ = encode_batch(shadow_cp, shadow_std.rows)
    z_out, _, _ = encode_batch(shadow_cp, apply_scaling(shadow_test, shadow_cp.scaling).rows)
    y_in = shadow_train.rows[:, jc].astype(np.intp)
    y_out = shadow_test.rows[:, jc].astype(np.intp)

    attacks = {}
    for level in range(schema.columns[jc].n_levels):
        feats_in = z_in[y_in == level]
        feats_out = z_out[y_out == level]
        if feats_in.shape[0] == 0 or feats_out.shape[0] == 0:
            warnings.warn(f"class {level} has one membership label only; attack skipped")
            continue
        feats = np.vstack([feats_in, feats_out])
        labels = np.concatenate([np.ones(feats_in.shape[0], dtype=np.intp),
                                 np.zeros(feats_out.shape[0], dtype=np.intp)])
        attacks[level] = fit_softmax(feats, labels, 2, iters=ATTACK_ITERS)

    if not attacks:
        raise ValueError("no attack model could be trained (all classes degenerate)")

    n_eval = min(real_train.n_rows, real_test.n_rows)
    pick = np.random.default_rng(seed_pick)
    idx_tr = np.sort(pick.choice(real_train.n_rows, size=n_eval, replace=False))
    idx_te = np.sort(pick.choice(real_test.n_rows, size=n_eval, replace=False))
    z_tr, _, _ = encode_batch(cp, apply_scaling(real_train, cp.scaling).rows[idx_tr])
    z_te, _, _ = encode_batch(cp, apply_scaling(real_test, cp.scaling).rows[idx_te])
    y_tr = real_train.rows[idx_tr, jc].astype(np.intp)
    y_te = real_test.rows[idx_te, jc].astype(np.intp)

    feats = np.vstack([z_tr, z_te])
    classes = np.concatenate([y_tr, y_te])
    truth = np.concatenate([np.ones(n_eval, dtype=np.intp), np.zeros(n_eval, dtype=np.intp)])
    usable = np.isin(classes, list(attacks))
    if not np.all(usable):
        warnings.warn("evaluation records of skipped classes were excluded")
    scores = np.empty(feats.shape[0])
    for level, w in attacks.items():
        mask = classes == level
        if np.any(mask):
            scores[mask] = softmax(feats[mask] @ w.T)[:, 1]
    truth, scores = truth[usable], scores[usable]
    accuracy = float(np.mean((scores > 0.5) == (truth == 1)))
    return MiaResult(accuracy=accuracy, auc=roc_auc(truth, scores))


def attribute_disclosure(real: Table, synth: Table, known_columns, secret_columns,
                         k: int = 1) -> float:
    """Attribute disclosure risk: predict each real record's secret discrete
    attributes by majority vote among its k nearest synthetic neighbors on
    the known columns (ties to the lowest level index). Returns the mean
    over secrets of macro F1 against the true values; chance level means
    the synthetic data does not leak the secrets.

    At k = 1 a tie in distance goes to the lowest synthetic row. At larger k
    the neighbors are any k rows at the k smallest distances (numpy's
    argpartition picks among ties at the k-th distance).

    The votes of each chunk of distances are tallied as soon as the chunk
    is searched, so memory grows with the chunk and the tables, not with
    n * k.

    Distances use the known columns as-is, so pass standardized tables.
    """
    if real.schema != synth.schema:
        raise ValueError("attribute_disclosure needs tables with equal schemas")
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > synth.n_rows:
        warnings.warn(f"k={k} exceeds the {synth.n_rows} synthetic rows; clamped")
        k = synth.n_rows
    schema = real.schema
    known_idx = [schema.index(name) for name in known_columns]
    secret_idx = [schema.index(name) for name in secret_columns]
    if not known_idx or not secret_idx:
        raise ValueError("need at least one known and one secret column")
    for j in secret_idx:
        if schema.columns[j].kind != KIND_DISCRETE:
            raise ValueError(f"secret column {schema.columns[j].name!r} must be discrete")

    levels = [synth.rows[:, j].astype(np.intp) for j in secret_idx]
    predicted = np.empty((len(secret_idx), real.n_rows), dtype=np.intp)
    for start, d2 in _squared_distance_chunks(real.rows[:, known_idx], synth.rows[:, known_idx]):
        if k == 1:  # argmin scans once and takes the first of tied minima
            neighbors = np.argmin(d2, axis=1)[:, None]
        else:
            neighbors = np.argpartition(d2, k - 1, axis=1)[:, :k]
        # each row's votes per level, tallied as one bincount over row * t + level
        count = d2.shape[0]
        row = np.arange(count)[:, None]
        for out, synth_levels, j in zip(predicted, levels, secret_idx):
            t = schema.columns[j].n_levels
            votes = np.bincount((row * t + synth_levels[neighbors]).ravel(), minlength=count * t)
            out[start : start + count] = np.argmax(votes.reshape(count, t), axis=1)

    scores = [
        macro_f1(real.rows[:, j].astype(np.intp), out) for out, j in zip(predicted, secret_idx)
    ]
    return float(np.mean(scores))


# ---------------------------------------------------------------------------
# full report

VRATE_ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9)
ATTR_NEIGHBOR_KS = (1, 10, 100)


@dataclass(frozen=True)
class MetricReport:
    ks_cont: float | None
    ks_disc: float | None
    wd1_cont: float | None
    wd1_disc: float | None
    corr_dist: float
    dcr_rs: float
    dcr_rr: float
    dcr_ss: float
    mare: float
    f1: float
    vrate: dict[float, float]
    attr_disclosure_f1: dict[int, float]

    def to_doc(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["vrate"] = {repr(a): v for a, v in self.vrate.items()}
        doc["attr_disclosure_f1"] = {str(k): v for k, v in self.attr_disclosure_f1.items()}
        return doc


def build_report(real_train: Table, real_test: Table, synth: Table,
                 reg_target: str, cls_target: str, *,
                 known_columns=None, secret_columns=None) -> MetricReport:
    """Run the metric battery on three tables in native units; similarity
    and privacy metrics standardize internally by the real training stats.

    Marginal and association metrics compare synth against the training
    split it was modeled on; utility and Vrate score against the test
    split. The membership attack is a separate call: membership_inference.
    """
    schema = real_train.schema
    if real_test.schema != schema or synth.schema != schema:
        raise ValueError("the three tables must share one schema")
    train_std = standardize(real_train)
    synth_std = apply_scaling(synth, train_std.scaling)

    numeric = schema.numeric_indices
    discrete = schema.discrete_indices
    ks_cont = wd_cont = ks_disc = wd_disc = None
    if numeric:
        ks_cont = float(np.mean([
            ks_statistic(real_train.rows[:, j], synth.rows[:, j]) for j in numeric
        ]))
        wd_cont = float(np.mean([
            wasserstein1(train_std.rows[:, j], synth_std.rows[:, j]) for j in numeric
        ]))
    if discrete:
        ks_disc = float(np.mean([
            ks_statistic(real_train.rows[:, j], synth.rows[:, j]) for j in discrete
        ]))
        wd_disc = float(np.mean([
            wasserstein1(real_train.rows[:, j], synth.rows[:, j]) for j in discrete
        ]))

    dcr_result = dcr(train_std, synth_std)
    utility = mlu(train_std.scaling, real_test, synth, reg_target, cls_target)

    vrates = {}
    for alpha in VRATE_ALPHAS:
        vrates[alpha] = float(np.mean([
            vrate(real_test.rows[:, j], synth.rows[:, j], alpha) for j in numeric
        ])) if numeric else 0.0

    known = list(known_columns) if known_columns else [schema.columns[j].name for j in numeric]
    secrets = list(secret_columns) if secret_columns else [schema.columns[j].name for j in discrete]
    attr = {
        k: attribute_disclosure(train_std, synth_std, known, secrets, k=k)
        for k in ATTR_NEIGHBOR_KS
    }

    return MetricReport(
        ks_cont=ks_cont, ks_disc=ks_disc, wd1_cont=wd_cont, wd1_disc=wd_disc,
        corr_dist=correlation_distance(real_train, synth),
        dcr_rs=dcr_result.rs, dcr_rr=dcr_result.rr, dcr_ss=dcr_result.ss,
        mare=utility.mare, f1=utility.f1,
        vrate=vrates, attr_disclosure_f1=attr,
    )
