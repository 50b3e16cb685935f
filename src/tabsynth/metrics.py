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

from .data import (
    KIND_DISCRETE, Schema, ScalingStats, Table, apply_scaling, check_integer, check_real, one_hot_matrix, standardize,
)
from .model import Checkpoint, check_schema, encode_batch, train
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

def association_matrix(table: Table) -> np.ndarray:
    """Symmetric mixed-type association matrix with unit diagonal, read off
    one Gram matrix of the one-hot rows with the numeric columns centred.

    A constant column (one value, or one level present) is decided on its
    values, before any mean is taken; each pair it is in reads 0 and warns.
    """
    schema = table.schema
    cols, numeric, discrete = schema.columns, schema.numeric_indices, schema.discrete_indices
    p, n = len(numeric), table.n_rows
    if n == 0:
        raise ValueError("association_matrix needs at least 1 row, got a table of 0 rows")
    constant = np.ptp(table.rows, axis=0) == 0
    x = one_hot_matrix(schema, table.rows)
    # each numeric column's largest magnitude as a power of two, 2^e
    exponents = np.frexp(np.max(np.abs(x[:, :p]), axis=0))[1]
    # one numeric column at a time, in place; a constant one is zeroed, not
    # centred, so one of 1e308 cannot overflow. The others are scaled by
    # 2^-e first, which is exact and leaves every association's bits as they
    # are, so that the sum of squares of a column of tiny or huge values
    # cannot underflow or overflow
    for k, j in enumerate(numeric):
        if constant[j]:
            x[:, k] = 0.0
        else:
            col = np.ldexp(x[:, k], -exponents[k])
            x[:, k] = col - col.mean()
    gram = x.T @ x
    counts = np.diag(gram)
    spread = np.where(constant[numeric], 1.0, counts[:p])  # a zeroed column's entries read 0 / 1
    m = np.zeros((len(cols), len(cols)))
    m[np.ix_(numeric, numeric)] = gram[:p, :p] / np.sqrt(np.outer(spread, spread))  # Pearson
    # each discrete column's present levels, as positions in the one-hot layout
    pos = schema.level_starts
    levels = {j: pos[k] + np.flatnonzero(counts[pos[k] : pos[k + 1]]) for k, j in enumerate(discrete)}
    for j, lj in levels.items():
        # correlation ratio: the squared level sums of the centred values over
        # the level counts, as a share of the sum of squares
        between = np.sum(gram[lj, :p] ** 2 / counts[lj, None], axis=0)
        m[j, numeric] = m[numeric, j] = np.sqrt(between / spread)
        for i, li in levels.items():
            if i < j and not (constant[i] or constant[j]):
                # Cramer's V of the level-by-level counts, without bias correction
                expected = np.outer(counts[li], counts[lj]) / n
                chi2 = np.sum((gram[np.ix_(li, lj)] - expected) ** 2 / expected)
                m[i, j] = m[j, i] = np.sqrt(chi2 / (n * min(li.size - 1, lj.size - 1)))
    m[constant] = m[:, constant] = 0.0
    for i, j in zip(*np.nonzero(np.triu(constant[:, None] | constant, 1))):
        warnings.warn(f"degenerate column pair {(cols[i].name, cols[j].name)!r}; association set to 0")
    np.fill_diagonal(m, 1.0)
    return m


def correlation_distance(real: Table, synth: Table) -> float:
    """Frobenius distance between the two tables' association matrices."""
    check_schema(real.schema, synth.schema, "correlation_distance", "real", "synth")
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


def _nearest_other_squared(a: np.ndarray) -> np.ndarray:
    """Min squared L2 from each row of a to the other rows of a."""
    out = np.empty(a.shape[0])
    for start, d2 in _squared_distance_chunks(a, a):
        rows = np.arange(d2.shape[0])
        d2[rows, start + rows] = np.inf
        out[start : start + d2.shape[0]] = np.maximum(d2.min(axis=1), 0.0)
    return out


def _nearest_first(d2: np.ndarray, k: int) -> np.ndarray:
    """The columns of each row's k smallest entries of d2, ordered by
    (value, column): ties go to the lowest column, the k-th value's too."""
    if k == 1:  # argmin scans once and takes the first of tied minima
        return np.argmin(d2, axis=1)[:, None]
    rows, n = d2.shape
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
    near = d2 <= kth
    if np.count_nonzero(near) > rows * k:
        # a row with more entries tied at its k-th value than it has room
        # for keeps the lowest columns among them
        tied = d2 == kth
        room = k - np.count_nonzero(d2 < kth, axis=1, keepdims=True)
        near &= ~tied | (np.cumsum(tied, axis=1) <= room)
    # k marked entries per row, so the flat positions split into rows of
    # ascending columns, which a stable sort by value keeps among equals
    cols = np.flatnonzero(near).reshape(rows, k) - np.arange(0, rows * n, n)[:, None]
    order = np.argsort(np.take_along_axis(d2, cols, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1)


@dataclass(frozen=True)
class _NeighborSearch:
    """What one search of the real rows' nearest synthetic rows on some
    columns leaves: each real row's nearest squared distance (floored at 0),
    and for each k the majority vote of its k nearest on each secret column,
    one (secrets, real rows) array of level indices per k."""
    columns: tuple[int, ...]
    secrets: tuple[int, ...]
    nearest_squared: np.ndarray
    votes: dict[int, np.ndarray]


def _neighbor_search(real: Table, synth: Table, columns, secrets, ks) -> _NeighborSearch:
    """One chunked search that serves dcr's real-to-synthetic distances and
    attribute_disclosure at every k in ks (each at most synth.n_rows).

    Each chunk's rows take their max(ks) nearest synthetic rows, ordered by
    (squared distance, synthetic row), and tally the votes of every k from
    that one order, so memory grows with the chunk and the tables, not with
    n * k. At k = 1 the order's first row is argmin's, the lowest of tied
    minima.
    """
    columns, secrets = tuple(columns), tuple(secrets)
    levels = [(synth.rows[:, j].astype(np.intp), real.schema.columns[j].n_levels) for j in secrets]
    nearest = np.empty(real.n_rows)
    votes = {k: np.empty((len(secrets), real.n_rows), dtype=np.intp) for k in ks}
    for start, d2 in _squared_distance_chunks(real.rows[:, columns], synth.rows[:, columns]):
        order = _nearest_first(d2, max(ks))
        count = d2.shape[0]
        span = slice(start, start + count)
        nearest[span] = np.maximum(d2[np.arange(count), order[:, 0]], 0.0)
        # each row's votes per level, tallied as one bincount over row * t + level
        row = np.arange(count)[:, None]
        for k, out in votes.items():
            for (synth_levels, t), dst in zip(levels, out):
                tally = np.bincount((row * t + synth_levels[order[:, :k]]).ravel(), minlength=count * t)
                dst[span] = np.argmax(tally.reshape(count, t), axis=1)
    return _NeighborSearch(columns, secrets, nearest, votes)


def _dcr_columns(real: Table, synth: Table) -> list[int]:
    """The numeric column indices dcr measures on, after dcr's checks."""
    check_schema(real.schema, synth.schema, "dcr", "real", "synth")
    idx = real.schema.numeric_indices
    if not idx:
        raise ValueError("dcr needs at least one numeric column")
    if real.n_rows < 2 or synth.n_rows < 2:
        raise ValueError("dcr needs at least 2 rows per table")
    return idx


def dcr(real: Table, synth: Table, percentile: float = 5.0, *,
        search: _NeighborSearch | None = None) -> DcrResult:
    """Distance to closest record over the numeric columns.

    Reports the given percentile (default 5th, linear interpolation) of the
    nearest-neighbor L2 distances: real to synth, within real, and within
    synth (self-pairs excluded). Values are taken as-is, so pass tables in
    standardized units.

    The real-to-synthetic distances come from a _neighbor_search on the
    numeric columns; search, one made by the caller for the same two
    tables, takes the place of dcr's own.
    """
    idx = _dcr_columns(real, synth)
    if search is None:
        search = _neighbor_search(real, synth, idx, (), (1,))
    elif search.columns != tuple(idx) or search.nearest_squared.shape[0] != real.n_rows:
        raise ValueError("dcr needs a search on the numeric columns of the real rows")
    rs = np.sqrt(search.nearest_squared)
    rr = np.sqrt(_nearest_other_squared(real.rows[:, idx]))
    ss = np.sqrt(_nearest_other_squared(synth.rows[:, idx]))
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
    onehot = np.zeros((n_classes, n))
    onehot[np.asarray(y, dtype=np.intp), np.arange(n)] = 1.0
    w = np.zeros((n_classes, x.shape[1]))
    for _ in range(iters):
        p = softmax(w @ x.T)
        # (p - onehot) @ x transposed, as the plain product rounds otherwise
        w -= SOFTMAX_LR * (x.T @ (p - onehot).T).T / n
    return w


def predict_softmax(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.argmax(w @ x.T, axis=0)


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
    check_schema(schema, synth.schema, "mlu", "real_test", "synth")
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
    check_real("alpha", alpha, 0, 1)
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

    real_train and real_test are in native units, and their schema must be
    the checkpoint's: a ValueError names the first column that differs.
    """
    schema = cp.schema
    check_schema(schema, real_train.schema, "membership_inference", "the checkpoint", "real_train")
    check_schema(schema, real_test.schema, "membership_inference", "the checkpoint", "real_test")
    jc = schema.index(cls_target)
    if schema.columns[jc].kind != KIND_DISCRETE:
        raise ValueError(f"classification target {cls_target!r} must be discrete")
    check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    seed_tr, seed_te, seed_pick = (int(v) for v in rng.integers(0, 2**63, size=3))

    shadow_train = generate(cp, real_train.n_rows, seed_tr)
    shadow_test = generate(cp, real_test.n_rows, seed_te)
    shadow_std = standardize(shadow_train)
    shadow_cp = train(shadow_std, cp.config)

    # the encoder's posterior means are feature-major, (d, rows): one attack
    # feature row per record is their transpose
    z_in = encode_batch(shadow_cp, shadow_std.rows)[0].T
    z_out = encode_batch(shadow_cp, apply_scaling(shadow_test, shadow_cp.scaling).rows)[0].T
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
    z_tr = encode_batch(cp, apply_scaling(real_train, cp.scaling).rows[idx_tr])[0].T
    z_te = encode_batch(cp, apply_scaling(real_test, cp.scaling).rows[idx_te])[0].T
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
            scores[mask] = softmax(w @ feats[mask].T)[1]
    truth, scores = truth[usable], scores[usable]
    accuracy = float(np.mean((scores > 0.5) == (truth == 1)))
    return MiaResult(accuracy=accuracy, auc=roc_auc(truth, scores))


def _disclosure_columns(schema: Schema, known_columns, secret_columns):
    """The known and secret column indices of attribute_disclosure, checked."""
    known_idx = [schema.index(name) for name in known_columns]
    secret_idx = [schema.index(name) for name in secret_columns]
    if not known_idx or not secret_idx:
        raise ValueError("need at least one known and one secret column")
    # a secret that is also known is its own neighbour key, and scores 1.0
    for j in known_idx + secret_idx:
        if (known_idx + secret_idx).count(j) > 1:
            raise ValueError(f"column {schema.columns[j].name!r} is named twice among the known and secret columns")
    for j in secret_idx:
        if schema.columns[j].kind != KIND_DISCRETE:
            raise ValueError(f"secret column {schema.columns[j].name!r} must be discrete")
    return known_idx, secret_idx


def attribute_disclosure(real: Table, synth: Table, known_columns, secret_columns,
                         k: int = 1, *, search: _NeighborSearch | None = None) -> float:
    """Attribute disclosure risk: predict each real record's secret discrete
    attributes by majority vote among its k nearest synthetic neighbors on
    the known columns (ties to the lowest level index). Returns the mean
    over secrets of macro F1 against the true values; chance level means
    the synthetic data does not leak the secrets.

    The k nearest are taken by distance, and a tie in distance goes to the
    lowest synthetic row, at every k: at k = 1 the nearest row with the
    lowest index, at larger k the lowest rows among those tied at the k-th
    distance.

    The votes of each chunk of distances are tallied as soon as the chunk
    is searched, so memory grows with the chunk and the tables, not with
    n * k. search, a _neighbor_search of the same two tables on the known
    and secret columns at this k, supplies the votes in place of a search
    of its own; they are the same votes.

    Distances use the known columns as-is, so pass standardized tables.
    """
    check_schema(real.schema, synth.schema, "attribute_disclosure", "real", "synth")
    check_integer("k", k, 1)
    if k > synth.n_rows:
        warnings.warn(f"k={k} exceeds the {synth.n_rows} synthetic rows; clamped")
        k = synth.n_rows
    known_idx, secret_idx = _disclosure_columns(real.schema, known_columns, secret_columns)
    if search is None:
        search = _neighbor_search(real, synth, known_idx, secret_idx, (k,))
    elif (search.columns, search.secrets) != (tuple(known_idx), tuple(secret_idx)) or k not in search.votes:
        raise ValueError(f"attribute_disclosure needs a search on these columns at k={k}")
    scores = [
        macro_f1(real.rows[:, j].astype(np.intp), out) for out, j in zip(search.votes[k], secret_idx)
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


def _column_mean(metric, a: Table, b: Table, columns) -> float | None:
    """The mean of metric over the given columns of a and b, None without columns."""
    return float(np.mean([metric(a.rows[:, j], b.rows[:, j]) for j in columns])) if columns else None


def build_report(real_train: Table, real_test: Table, synth: Table,
                 reg_target: str, cls_target: str, *,
                 known_columns=None, secret_columns=None) -> MetricReport:
    """Run the metric battery on three tables in native units; similarity
    and privacy metrics standardize internally by the real training stats.

    Marginal and association metrics compare synth against the training
    split it was modeled on; utility and Vrate score against the test
    split. Attribute disclosure at every k, and DCR's real-to-synthetic
    distances when the known columns are the numeric ones, come from one
    neighbor search. The membership attack is a separate call:
    membership_inference.

    real_test and synth must have real_train's schema: a ValueError names
    the first column that differs. known_columns and secret_columns of None
    mean every numeric and every discrete column.
    """
    schema = real_train.schema
    check_schema(schema, real_test.schema, "build_report", "real_train", "real_test")
    check_schema(schema, synth.schema, "build_report", "real_train", "synth")
    train_std = standardize(real_train)
    synth_std = apply_scaling(synth, train_std.scaling)

    numeric = schema.numeric_indices
    discrete = schema.discrete_indices
    ks_cont = _column_mean(ks_statistic, real_train, synth, numeric)
    wd_cont = _column_mean(wasserstein1, train_std, synth_std, numeric)
    ks_disc = _column_mean(ks_statistic, real_train, synth, discrete)
    wd_disc = _column_mean(wasserstein1, real_train, synth, discrete)

    # dcr's and mlu's checks run before the search, so a call with a fault
    # in either fails on it before any distance is computed
    numeric_idx = _dcr_columns(train_std, synth_std)
    utility = mlu(train_std.scaling, real_test, synth, reg_target, cls_target)

    vrates = {}
    for alpha in VRATE_ALPHAS:
        vrates[alpha] = float(np.mean([
            vrate(real_test.rows[:, j], synth.rows[:, j], alpha) for j in numeric
        ])) if numeric else 0.0

    known = [schema.columns[j].name for j in numeric] if known_columns is None else list(known_columns)
    secrets = [schema.columns[j].name for j in discrete] if secret_columns is None else list(secret_columns)
    known_idx, secret_idx = _disclosure_columns(schema, known, secrets)
    # one search serves every k, and dcr too when the known columns are its own
    ks = sorted({min(k, synth.n_rows) for k in ATTR_NEIGHBOR_KS})
    search = _neighbor_search(train_std, synth_std, known_idx, secret_idx, ks)
    dcr_result = dcr(train_std, synth_std, search=search if known_idx == numeric_idx else None)
    attr = {
        k: attribute_disclosure(train_std, synth_std, known, secrets, k=k, search=search)
        for k in ATTR_NEIGHBOR_KS
    }

    return MetricReport(
        ks_cont=ks_cont, ks_disc=ks_disc, wd1_cont=wd_cont, wd1_disc=wd_disc,
        corr_dist=correlation_distance(real_train, synth),
        dcr_rs=dcr_result.rs, dcr_rr=dcr_result.rr, dcr_ss=dcr_result.ss,
        mare=utility.mare, f1=utility.f1,
        vrate=vrates, attr_disclosure_f1=attr,
    )
