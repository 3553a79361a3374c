"""Training loop: per-head losses, epoching, evaluation, checkpointing.

Embeddings are fixed inputs here (the frozen-feature regime); only head
and projection parameters train. One optimizer step per batch, learning
rate from the one-cycle schedule, gradients clipped by global norm: the
clip scale is applied inside the Adam update, and each step's learning
rate, pre-clip norm, clip scale and loss terms are kept in the result.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass

import numpy as np

from .checkpoint import save_checkpoint
from .data import TRACK_SETS, EmbeddingBundle, MutationRecord
from .errors import ConfigError, DataError, NumericError
from .heads import MODEL_KINDS, EnsembleModel, build_model
from .metrics import MetricsReport, compute_report
from .optim import AdamState, ClipConfig, OneCycleSchedule, adam_step, \
    clip_scale, onecycle_lr
from .tape import Tape

logger = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    """The settings of a training run; defaults are the full-scale recipe.

    The rest of the recipe is fixed: LayerNorm eps 1e-5, total loss
    L1 + L2 + L_ens/2, Adam (0.9, 0.999, 1e-8) and the one-cycle shape
    (warmup 0.3, div factors 25 and 1e4). These nine fields are also exactly
    the keys a ``train --config`` file may carry.
    """

    max_lr: float = 1e-5
    epochs: int = 10
    batch_size: int = 8
    clip_max_norm: float = 0.1
    seed: int = 0
    head: str = "ensemble"
    d_proj: int = 128
    modalities: tuple[str, ...] = ("seq",)
    freeze_projection: bool = False

    def __post_init__(self):
        for name, low in (("epochs", 1), ("batch_size", 1), ("d_proj", 1),
                          ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise ConfigError(f"{name} must be an int >= {low}, got {value!r}")
        for name in ("max_lr", "clip_max_norm"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not (math.isfinite(value) and value > 0)):
                raise ConfigError(
                    f"{name} must be a finite number > 0, got {value!r}")
        if not isinstance(self.freeze_projection, bool):
            raise ConfigError(
                f"freeze_projection must be a bool, got {self.freeze_projection!r}"
            )
        if self.head not in MODEL_KINDS:
            raise ConfigError(f"head must be one of {MODEL_KINDS}, got {self.head!r}")
        if not (isinstance(self.modalities, (list, tuple))
                and tuple(self.modalities) in TRACK_SETS.values()):
            raise ConfigError(
                f"modalities must be one of {[list(m) for m in TRACK_SETS.values()]}, "
                f"got {self.modalities!r}"
            )
        self.modalities = tuple(self.modalities)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["modalities"] = list(self.modalities)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


@dataclass
class LossBreakdown:
    """Per-term training losses in (degrees C)^2.

    Single-head runs report their MSE as ``l_head1`` with the other two
    terms zero, so ``l_total == l_head1`` there.
    """

    l_head1: float
    l_head2: float
    l_ensemble: float
    l_total: float

    @classmethod
    def from_components(cls, parts: dict[str, float]) -> "LossBreakdown":
        return cls(parts["head1"], parts["head2"], parts["ensemble"],
                   parts["total"])


def compute_losses(y1: float, y2: float, y_ens: float,
                   label: float) -> LossBreakdown:
    """Per-sample loss terms; the ensemble term carries its 1/2 factor."""
    for name, v in (("y1", y1), ("y2", y2), ("y_ens", y_ens), ("label", label)):
        if not math.isfinite(v):
            raise NumericError(f"non-finite {name}: {v}")
    l1 = (y1 - label) ** 2
    l2 = (y2 - label) ** 2
    le = 0.5 * (y_ens - label) ** 2
    return LossBreakdown(l1, l2, le, l1 + l2 + le)


@dataclass
class StepStats:
    """One optimizer step: ``step`` counts from 0 and indexes the schedule,
    ``grad_norm`` is the norm before clipping and ``clip_scale`` the factor
    applied to the gradients (1.0 when the norm is within the bound)."""

    step: int
    epoch: int
    lr: float
    grad_norm: float
    clip_scale: float
    losses: LossBreakdown

    def to_dict(self) -> dict:
        row = asdict(self)
        row.update(row.pop("losses"))
        return row


@dataclass
class EpochStats:
    epoch: int
    losses: LossBreakdown
    val: MetricsReport | None


@dataclass
class PredictionRow:
    protein_id: str
    mutation: str
    label: float
    y1: float
    y2: float
    y_ens: float


@dataclass
class EvalResult:
    report: MetricsReport
    rows: list[PredictionRow]
    skipped: list[str]


@dataclass
class TrainResult:
    """``val`` is the last epoch's validation of the final model, or None
    without a validation side or when its metrics are undefined."""

    model: EnsembleModel
    history: list[EpochStats]
    adam: AdamState
    step_log: list[StepStats]
    val: EvalResult | None

    @property
    def steps(self) -> int:
        return len(self.step_log)


def _bundle_pair(record: MutationRecord,
                 bundles: dict[str, EmbeddingBundle]):
    return bundles[record.wt_variant_id], bundles[record.mut_variant_id]


def _missing_bundles(records, bundles) -> list[str]:
    missing = []
    for r in records:
        for vid in (r.wt_variant_id, r.mut_variant_id):
            if vid not in bundles:
                missing.append(vid)
    return sorted(set(missing))


def _bundle_width(bundles: dict[str, EmbeddingBundle]) -> int:
    widths = {b.d_raw for b in bundles.values()}
    if len(widths) != 1:
        raise DataError(f"bundles disagree on width: {sorted(widths)}")
    return widths.pop()


def split_sides(records, split: dict[str, str] | None):
    """Partition records by a split manifest; None means train on all."""
    if split is None:
        return list(records), []
    unknown = sorted({r.protein_id for r in records} - set(split))
    if unknown:
        raise DataError(f"proteins missing from split manifest: {unknown[:5]}")
    train = [r for r in records if split[r.protein_id] == "train"]
    val = [r for r in records if split[r.protein_id] == "val"]
    return train, val


def train(records, bundles: dict[str, EmbeddingBundle], config: TrainConfig,
          split: dict[str, str] | None = None,
          checkpoint_path=None) -> TrainResult:
    """Train per config on the train side of ``split``; deterministic per seed."""
    records = list(records)
    if not records:
        raise DataError("empty dataset")
    train_records, val_records = split_sides(records, split)
    if not train_records:
        raise DataError("split leaves no training records")

    missing = _missing_bundles(train_records + val_records, bundles)
    if missing:
        raise DataError(
            f"{len(missing)} variant(s) lack bundles, e.g. {missing[:5]}"
        )

    d_raw = _bundle_width(bundles)
    model = build_model(config.head, d_raw, config.d_proj, config.seed,
                        config.modalities)
    trainable = dict(model.named_parameters())
    if config.freeze_projection:
        trainable = {k: v for k, v in trainable.items()
                     if not k.startswith("proj.")}
    adam = AdamState.init(trainable)

    n_train = len(train_records)
    batches_per_epoch = math.ceil(n_train / config.batch_size)
    sched = OneCycleSchedule(config.max_lr, config.epochs * batches_per_epoch)
    clip_cfg = ClipConfig(config.clip_max_norm)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))

    history: list[EpochStats] = []
    step_log: list[StepStats] = []
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(n_train)
        epoch_parts: dict[str, float] = {}
        for start in range(0, n_train, config.batch_size):
            batch = [train_records[i] for i in order[start:start + config.batch_size]]
            samples = [(*_bundle_pair(r, bundles), r.dtm) for r in batch]
            tape = Tape()
            # a diverging run overflows here; the loss and gradient-norm
            # checks report it, so numpy's own warnings are only noise
            with np.errstate(over="ignore", invalid="ignore"):
                loss_node, parts = model.batch_loss(tape, samples)
                if not math.isfinite(parts["total"]):
                    ids = [r.mut_variant_id for r in batch]
                    raise NumericError(f"non-finite loss on batch {ids}")
                grads = tape.backward(loss_node)
            grads = {k: grads[k] for k in trainable}
            scale, norm = clip_scale(grads, clip_cfg)
            step = len(step_log)
            lr = onecycle_lr(step, sched)
            adam_step(trainable, grads, adam, lr, grad_scale=scale)
            step_log.append(StepStats(step, epoch, lr, norm, scale,
                                      LossBreakdown.from_components(parts)))
            for key, v in parts.items():
                epoch_parts[key] = epoch_parts.get(key, 0.0) + v * len(batch)
        mean_parts = {k: v / n_train for k, v in epoch_parts.items()}
        ev = None
        if val_records:
            # pearson raises ConfigError below two records and NumericError
            # on constant predictions or labels: the run goes on without it
            try:
                ev = evaluate(model, val_records, bundles)
            except (ConfigError, NumericError) as exc:
                logger.warning("epoch %d: validation metrics undefined (%s)",
                               epoch, exc)
        history.append(EpochStats(epoch, LossBreakdown.from_components(mean_parts),
                                  ev.report if ev is not None else None))

    result = TrainResult(model, history, adam, step_log, ev)
    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, model, config.to_dict(), adam)
    return result


def evaluate(model: EnsembleModel, records,
             bundles: dict[str, EmbeddingBundle]) -> EvalResult:
    """Predict every record and score; missing bundles are listed, never silent.

    Rows carry the (y1, y2, y_ens) triple; a single head fills all three
    with its one output. The report scores ``y_ens``.
    """
    records = list(records)
    skipped = _missing_bundles(records, bundles)
    rows = [PredictionRow(r.protein_id, r.mutation.code, r.dtm,
                          *model.predict(*_bundle_pair(r, bundles)))
            for r in records
            if r.wt_variant_id in bundles and r.mut_variant_id in bundles]
    if skipped:
        logger.warning("skipped %d record(s) with missing bundles",
                       len(records) - len(rows))
    if not rows:
        raise DataError("no evaluable records (all bundles missing?)")
    report = compute_report([row.y_ens for row in rows],
                            [row.label for row in rows])
    return EvalResult(report, rows, skipped)
