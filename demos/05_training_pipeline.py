"""End-to-end pipeline on synthetic data, through the library API.

Flow: mutation records -> deterministic synthetic embedding bundles ->
homology-aware split -> train the two-head ensemble -> evaluate ->
checkpoint round-trip. The CLI wraps exactly these steps::

    meltshift synth-embed data.csv --out bundles.dtme --d-raw 16
    meltshift prepare-split data.csv --out split.csv --seed 5
    meltshift train data.csv bundles.dtme --out run/ --split split.csv \\
        --epochs 40 --d-proj 8 --max-lr 1e-2
    meltshift eval run/checkpoint.bin data.csv bundles.dtme
"""

import tempfile
from pathlib import Path

from meltshift import (
    AMINO_ACIDS,
    Mutation,
    MutationRecord,
    TrainConfig,
    evaluate,
    load_checkpoint,
    split_records,
    synth_bundles,
    train,
)
from meltshift.metrics import format_report

import numpy as np  # after meltshift, whose import pins BLAS to one thread

rng = np.random.default_rng(42)

# --- a small labeled dataset: 10 proteins x 4 mutations -----------------
records = []
for p in range(10):
    seq = "".join(AMINO_ACIDS[i] for i in rng.integers(0, 20, size=28))
    for pos in sorted(int(x) for x in rng.choice(28, size=4, replace=False)):
        wild = seq[pos]
        mut = next(a for a in AMINO_ACIDS if a != wild)
        records.append(MutationRecord(f"P{p:02d}", seq,
                                      Mutation(pos + 1, wild, mut),
                                      float(rng.normal(0.0, 2.0))))
print(f"dataset: {len(records)} mutations across 10 proteins")

# --- frozen synthetic features and a leakage-safe split -----------------
bundles = synth_bundles(records, d_raw=16, seed=1)
print(f"bundles: {len(bundles)} (one WT per protein + one per mutation)")
split = split_records(records, threshold=0.5, ratio=(8, 2), seed=5)
print(f"split: {len(split.side('train'))} train / "
      f"{len(split.side('val'))} val proteins")

# --- train the ensemble at desk scale ------------------------------------
config = TrainConfig(max_lr=1e-2, epochs=40, batch_size=8, seed=0, d_proj=8)
with tempfile.TemporaryDirectory() as tmp:
    ckpt_path = Path(tmp) / "checkpoint.bin"
    result = train(records, bundles, config, split.assignment,
                   checkpoint_path=ckpt_path)
    first, last = result.history[0].losses, result.history[-1].losses
    print(f"\ntrain loss: {first.l_total:.3f} -> {last.l_total:.3f} "
          f"over {result.steps} steps")

    train_records = [r for r in records
                     if split.assignment[r.protein_id] == "train"]
    print("\ntrain-set metrics (memorization check):")
    print(format_report(evaluate(result.model, train_records, bundles).report))

    val_records = [r for r in records
                   if split.assignment[r.protein_id] == "val"]
    print("\nval-set metrics (synthetic features carry no signal,")
    print("so validation r should hover near zero):")
    print(format_report(evaluate(result.model, val_records, bundles).report))

    # --- checkpoints restore the exact model -----------------------------
    restored = load_checkpoint(ckpt_path)
    r = records[0]
    a = result.model.predict(bundles[r.wt_variant_id], bundles[r.mut_variant_id])
    b = restored.model.predict(bundles[r.wt_variant_id], bundles[r.mut_variant_id])
    print(f"\ncheckpoint round-trip: {a.y_ens!r} == {b.y_ens!r}: {a == b}")
