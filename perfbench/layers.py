"""Per-layer numbers derived from the spans of one traced run.

A layer is one module of the package. Times per *unit* are divided by the
run's unit of work, the optimizer step on ``train_full``. Splitter numbers
are per ``split_records`` call. A layer the workload never calls reports 0.

The training step is read off the direct children of each ``trainer.train``
span: a step runs from the start of one ``heads.batch_loss`` to the start
of the next, or of the epoch's validation or checkpoint write, or to the
end of ``train`` for the last step. ``trainer.loop_self_ms`` is the part
of the step that no hooked call covers: the loop's own work, such as
building the batch and summing the loss parts, and any call the hooks
do not know.
"""

from __future__ import annotations

import statistics

import numpy as np

from spans import TAPE_OPS, Spans

STEP_BREAKS = ("trainer.evaluate", "checkpoint.save_checkpoint")


def median(values) -> float:
    """Median, or 0 when nothing was measured."""
    return float(statistics.median(values)) if len(values) else 0.0


def p90(values) -> float:
    """90th percentile (inclusive method), or the median below two samples."""
    if len(values) < 2:
        return median(values)
    return float(statistics.quantiles(values, n=10, method="inclusive")[-1])


def training_steps(spans: Spans) -> tuple[np.ndarray, np.ndarray]:
    """Duration of each step and the part of it hooked calls cover."""
    steps, covered = [], []
    for train_id in spans.ids("trainer.train"):
        begin, busy = None, 0.0
        for idx in np.flatnonzero(spans.parent == train_id):
            name = spans.names[spans.name_id[idx]]
            if name == "heads.batch_loss" or name in STEP_BREAKS:
                if begin is not None:
                    steps.append(spans.start[idx] - begin)
                    covered.append(busy)
                begin = spans.start[idx] if name == "heads.batch_loss" else None
                busy = 0.0
            if begin is not None:
                busy += spans.dur[idx]
        if begin is not None:
            steps.append(spans.end[train_id] - begin)
            covered.append(busy)
    return np.array(steps), np.array(covered)


def per_layer(tracer, out: dict) -> dict[str, float]:
    spans = Spans(tracer)
    units = max(out["units"], 1)
    # forward work counts only inside the step's batch_loss, not in the
    # epoch's validation
    scope = spans.within("heads.batch_loss")

    def per_unit_ms(name: str) -> float:
        return 1e3 * spans.total(name, scope) / units

    def calls_per_unit(name: str) -> float:
        return spans.count(name, scope) / units

    m: dict[str, float] = {}

    # tape
    m["tape.backward_ms"] = 1e3 * spans.total("tape.backward") / units
    for op in TAPE_OPS:
        m[f"tape.{op}.calls"] = calls_per_unit(f"tape.{op}")
        m[f"tape.{op}.fwd_ms"] = per_unit_ms(f"tape.{op}")

    # heads
    m["heads.batch_loss_ms"] = 1e3 * spans.total("heads.batch_loss") / units
    m["heads.predict_ms"] = 1e3 * median(spans.durations("heads.predict"))
    m["heads.project.calls"] = calls_per_unit("heads.project")
    m["heads.project_ms"] = per_unit_ms("heads.project")
    m["heads.wt_repeat_share"] = tracer.wt_seen / max(tracer.wt_total, 1)

    # optim
    m["optim.clip_ms"] = 1e3 * spans.total("optim.clip_global_norm") / units
    m["optim.adam_ms"] = 1e3 * spans.total("optim.adam_step") / units
    m["optim.grad_norm_calls"] = spans.count("optim.global_grad_norm") / units
    m["optim.param_count"] = float(tracer.param_count)

    # trainer
    steps, covered = training_steps(spans)
    m["trainer.step_ms_p50"] = 1e3 * median(steps)
    m["trainer.step_ms_p90"] = 1e3 * p90(steps)
    validate = spans.dur[spans.ids("trainer.evaluate")[
        np.isin(spans.parent[spans.ids("trainer.evaluate")],
                spans.ids("trainer.train"))]]
    m["trainer.validate_ms"] = 1e3 * median(validate)
    m["trainer.loop_self_ms"] = (1e3 * float((steps - covered).sum()) / len(steps)
                                 if len(steps) else 0.0)
    m["trainer.step_coverage"] = (float(covered.sum() / steps.sum())
                                  if len(steps) else 0.0)
    loss = out["loss_final"]
    m["trainer.loss_final"] = loss if loss == loss else 0.0  # NaN: no training

    # data
    m["data.load_dataset_s"] = median(spans.durations("data.load_dataset"))
    read_s = median(spans.durations("data.read_bundles"))
    m["data.read_bundles_s"] = read_s
    m["data.read_bundles_mb_per_s"] = (
        tracer.file_mb.get("data.read_bundles", 0.0) / read_s if read_s else 0.0)

    # checkpoint
    m["checkpoint.save_s"] = median(spans.durations("checkpoint.save_checkpoint"))
    m["checkpoint.file_mb"] = tracer.file_mb.get("checkpoint.save_checkpoint", 0.0)

    # splitter (per split_records call)
    split_calls = max(spans.count("splitter.split_records"), 1)
    m["splitter.kmer_set.calls"] = spans.count("splitter.kmer_set") / split_calls
    m["splitter.kmer_set_s"] = spans.total("splitter.kmer_set") / split_calls
    m["splitter.greedy_cluster_s"] = median(
        spans.durations("splitter.greedy_cluster"))
    m["splitter.split_clusters_s"] = median(
        spans.durations("splitter.split_clusters"))

    # metrics
    m["metrics.compute_report_ms"] = 1e3 * median(
        spans.durations("metrics.compute_report"))
    return m
