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
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .checkpoint import save_checkpoint
from .data import EmbeddingBundle, MutationRecord, check_track_set
from .errors import ConfigError, DataError, NumericError
from .heads import MODEL_KINDS, EnsembleModel, LossBreakdown, build_model, \
    loss_terms
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
        self.modalities = check_track_set(self.modalities)

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


def compute_losses(y1: float, y2: float, y_ens: float,
                   label: float) -> LossBreakdown:
    """One sample's training loss terms, by :func:`heads.loss_terms`."""
    for name, v in (("y1", y1), ("y2", y2), ("y_ens", y_ens), ("label", label)):
        if not math.isfinite(v):
            raise NumericError(f"non-finite {name}: {v}")
    tape = Tape()
    return loss_terms(tape, [tape.leaf([y]) for y in (y1, y2, y_ens)], [label])[1]


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
    return sorted({vid for r in records for vid in (r.wt_variant_id, r.mut_variant_id)
                   if vid not in bundles})


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
    """Train per config on the train side of ``split``; deterministic per seed.

    Before the first step, each bundle the train and validation records
    read must exist, pass ``EmbeddingBundle.validate`` and fit the model,
    whose d_raw is the first one's width; else a DataError names it.
    """
    records = list(records)
    if not records:
        raise DataError("empty dataset")
    train_records, val_records = split_sides(records, split)
    if not train_records:
        raise DataError("split leaves no training records")

    missing = _missing_bundles(train_records + val_records, bundles)
    if missing:
        raise DataError(f"{len(missing)} variant(s) lack bundles, e.g. {missing[:5]}")

    read = list({vid: bundles[vid] for r in train_records + val_records
                 for vid in (r.wt_variant_id, r.mut_variant_id)}.values())
    for bundle in read:
        bundle.validate()
    model = build_model(config.head, read[0].d_raw, config.d_proj, config.seed,
                        config.modalities)
    model.projection.check_bundles(read)
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
        sums = [0.0] * len(fields(LossBreakdown))  # per loss term, in order
        for start in range(0, n_train, config.batch_size):
            batch = [train_records[i] for i in order[start:start + config.batch_size]]
            samples = [(*_bundle_pair(r, bundles), r.dtm) for r in batch]
            step, tape = len(step_log), Tape()
            # a diverging run overflows here; the loss and gradient-norm
            # checks report it, so numpy's own warnings are only noise
            with np.errstate(over="ignore", invalid="ignore"):
                loss_node, losses = model.batch_loss(tape, samples)
                if not math.isfinite(losses.l_total):
                    raise NumericError(f"non-finite loss at step {step}, epoch {epoch}, "
                                       f"on batch {[r.mut_variant_id for r in batch]}")
                grads = tape.backward(loss_node)
            grads = {k: grads[k] for k in trainable}
            scale, norm = clip_scale(grads, clip_cfg)
            lr = onecycle_lr(step, sched)
            adam_step(trainable, grads, adam, lr, grad_scale=scale)
            del grads  # free them before the next step's backward makes new ones
            step_log.append(StepStats(step, epoch, lr, norm, scale, losses))
            sums = [s + v * len(batch) for s, v in zip(sums, astuple(losses))]
        ev = None
        if val_records:
            # pearson raises ConfigError below two records and NumericError
            # on constant predictions or labels: the run goes on without it
            try:
                ev = evaluate(model, val_records, bundles)
            except (ConfigError, NumericError) as exc:
                logger.warning("epoch %d: validation metrics undefined (%s)",
                               epoch, exc)
        history.append(EpochStats(epoch, LossBreakdown(*(v / n_train for v in sums)),
                                  ev.report if ev is not None else None))

    result = TrainResult(model, history, adam, step_log, ev)
    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, model, config.to_dict(), adam)
    return result


def evaluate(model: EnsembleModel, records,
             bundles: dict[str, EmbeddingBundle]) -> EvalResult:
    """Predict and score each record with bundles; ``skipped`` names the missing ones.

    Rows carry the (y1, y2, y_ens) triple; a single head fills all three
    with its one output. The report scores ``y_ens``.
    """
    records = list(records)
    skipped = _missing_bundles(records, bundles)
    kept = [r for r in records
            if r.wt_variant_id in bundles and r.mut_variant_id in bundles]
    ys = model.predict_batch([_bundle_pair(r, bundles) for r in kept])
    rows = [PredictionRow(r.protein_id, r.mutation.code, r.dtm, *y)
            for r, y in zip(kept, ys)]
    if not rows:
        raise DataError("no evaluable records (all bundles missing?)")
    report = compute_report([row.y_ens for row in rows],
                            [row.label for row in rows])
    return EvalResult(report, rows, skipped)
