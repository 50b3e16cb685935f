"""Synthetic tabular data engine.

Train a variational autoencoder whose decoder emits a full conditional
distribution per column (spline quantile functions for numeric columns,
category probabilities for discrete ones), sample synthetic rows from it,
and evaluate their utility, similarity and privacy.
"""

from .data import (
    ColumnSpec,
    ScalingStats,
    Schema,
    Table,
    apply_scaling,
    drop_percentile_outliers,
    load_csv,
    load_schema,
    one_hot_matrix,
    save_csv,
    standardize,
    train_test_split,
)
from .model import (
    Checkpoint,
    LossBreakdown,
    TrainConfig,
    VaeModel,
    elbo_grads,
    model_init,
    train,
)
from .checkpoint import (
    checkpoint_from_text,
    checkpoint_to_text,
    load_checkpoint,
    save_checkpoint,
)
from .synthesis import (
    CdfCurve,
    estimate_cdf,
    generate,
    gumbel_max,
    round_ordinal,
    sample_prior,
)
from .metrics import (
    DcrResult,
    MetricReport,
    MiaResult,
    MluResult,
    attribute_disclosure,
    build_report,
    correlation_distance,
    dcr,
    ks_statistic,
    macro_f1,
    mare,
    membership_inference,
    mlu,
    roc_auc,
    vrate,
    wasserstein1,
)

__version__ = "0.1.0"
