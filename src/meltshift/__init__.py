"""Melting-temperature shift regression on frozen protein embeddings.

A numpy library with hand-derived gradients: a reverse-mode tape over
dense float64 arrays, five regression-head architectures plus their
two-head ensemble, Adam with a one-cycle schedule and global-norm
clipping, homology-aware dataset splitting, and reproducible binary
formats for embeddings and checkpoints.
"""

import os

# One BLAS thread, set before any submodule loads numpy: the two workers of Adam's
# update are the only parallelism, so training's bits do not depend on the CPU count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import (
    AMINO_ACIDS,
    EmbeddingBundle,
    Mutation,
    MutationRecord,
    apply_mutation,
    load_dataset,
    parse_mutation,
    read_bundles,
    synth_bundles,
    synth_embed,
    write_bundles,
    write_dataset,
)
from .errors import (
    ConfigError,
    DataError,
    FormatError,
    MeltshiftError,
    NumericError,
    StateError,
)
from .gradcheck import GradCheckResult, check_model, compare_grads, finite_diff
from .heads import (
    EnsembleModel,
    EnsemblePrediction,
    HeadKind,
    LossBreakdown,
    TrackProjection,
    build_ensemble,
    build_model,
    build_single_head,
)
from .metrics import MetricsReport, compute_report, format_report, mae, \
    pearson, rmse
from .optim import (
    AdamState,
    ClipConfig,
    OneCycleSchedule,
    adam_step,
    clip_global_norm,
    clip_scale,
    global_grad_norm,
    onecycle_lr,
)
from .splitter import (
    Cluster,
    SplitAssignment,
    estimate_identity,
    greedy_cluster,
    load_clusters_tsv,
    read_split,
    split_clusters,
    split_records,
    write_split,
)
from .tape import Node, Tape
from .trainer import (
    EvalResult,
    TrainConfig,
    TrainResult,
    compute_losses,
    evaluate,
    train,
)
