"""Anatomy of the regression heads.

Each head maps a wild-type/mutant pair of embedding bundles to one
predicted melting-temperature change. This script builds every head at a
desk-friendly width, shows how differently sized they are, and checks a
few structural behaviors through ``predict``, which gives every model's
(y1, y2, y_ens) triple: the ensemble is an exact mean, a self-mutation
collapses the difference head to its LayerNorm beta channels, and
swapping wild/mutant negates its output around the bias.
"""

from meltshift import (
    EmbeddingBundle,
    HeadKind,
    build_ensemble,
    build_single_head,
)

import numpy as np  # after meltshift, whose import pins BLAS to one thread

ROLES = ("seq_cls", "seq_pos", "struct_cls", "struct_pos", "avg")
rng = np.random.default_rng(7)


def bundle(vid):
    return EmbeddingBundle(vid, {r: rng.normal(size=20) for r in ROLES})


# --- sizes: the outer-product head dominates the budget ----------------
print(f"{'head':<18} {'params':>8}")
for kind in HeadKind:
    model = build_single_head(kind, d_raw=20, d_proj=16, seed=0)
    print(f"{kind.value:<18} {model.param_count():>8}")
ensemble = build_ensemble(d_raw=20, d_proj=16, seed=0)
print(f"{'ensemble':<18} {ensemble.param_count():>8}")

# --- ensemble prediction is exactly the mean of its two heads ----------
bw, bm = bundle("P:WT"), bundle("P:L4A")
y1, y2, y_ens = ensemble.predict(bw, bm)
print(f"\nhead1={y1:+.4f}  head2={y2:+.4f}  ensemble={y_ens:+.4f}")
print("mean check:", abs(y_ens - 0.5 * (y1 + y2)))

# --- a single head is an ensemble of one: all three outputs agree ------
print("mut_concat triple:",
      build_single_head(HeadKind.MUT_CONCAT, 20, 16, seed=0).predict(bw, bm))

# --- a self-mutation zeroes the difference head's inputs, so its
# LayerNorms output their beta channels alone ---------------------------
h2 = ensemble.heads["head2"]
beta_only = h2["out.weight"] @ np.concatenate([h2["ln_cls.beta"], h2["ln_pos.beta"]])
print("\nself-mutation residual:",
      abs(ensemble.predict(bw, bw).y2 - float((beta_only + h2["out.bias"])[0])))

# --- with unit gamma / zero beta, swapping (wt, mut) negates head2's
# feature, so its output flips around the bias --------------------------
b = float(h2["out.bias"][0])
y2, y2_swapped = ensemble.predict(bw, bm).y2, ensemble.predict(bm, bw).y2
print("swap antisymmetry residual:", abs((y2 - b) + (y2_swapped - b)))
