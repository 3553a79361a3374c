"""Homology-aware train/validation splitting.

Randomly splitting mutation datasets leaks information: two mutations of
near-identical proteins can land on opposite sides. Here we cluster
proteins by an alignment-free identity estimate (k-mer Jaccard) and
assign whole clusters to train or validation, targeting an 8:2 ratio by
mutation count.
"""

from meltshift import estimate_identity, greedy_cluster, split_clusters

import numpy as np  # after meltshift, whose import pins BLAS to one thread

rng = np.random.default_rng(11)
AA = "ACDEFGHIKLMNPQRSTVWY"


def random_seq(n):
    return "".join(AA[i] for i in rng.integers(0, 20, size=n))


# --- identity estimates on a homolog vs an unrelated sequence ----------
base = random_seq(30)
homolog = base[:12] + "A" + base[13:]          # one substitution
unrelated = random_seq(30)
print(f"identity(base, base)      = {estimate_identity(base, base):.3f}")
print(f"identity(base, homolog)   = {estimate_identity(base, homolog):.3f}")
print(f"identity(base, unrelated) = {estimate_identity(base, unrelated):.3f}")

# --- build a corpus with planted homolog pairs --------------------------
proteins = {f"P{i:02d}": random_seq(int(rng.integers(24, 40)))
            for i in range(20)}
for i in range(4):  # four proteins get a close relative
    src = f"P{i:02d}"
    seq = proteins[src]
    pos = int(rng.integers(0, len(seq)))
    sub = next(a for a in AA if a != seq[pos])
    proteins[f"H{i:02d}"] = seq[:pos] + sub + seq[pos + 1:]

clusters = greedy_cluster(proteins, threshold=0.5)
multi = [c for c in clusters if len(c.members) > 1]
print(f"\n{len(proteins)} proteins -> {len(clusters)} clusters "
      f"({len(multi)} with homologs)")
for c in multi:
    print(f"  cluster {c.representative}: {sorted(c.members)}")

# --- split whole clusters, weighted by mutation counts ------------------
counts = {pid: int(rng.integers(1, 6)) for pid in proteins}
split = split_clusters(clusters, ratio=(8, 2), seed=3, weights=counts)
val_m = sum(counts[p] for p in split.side("val"))
total_m = sum(counts.values())
print(f"\ntrain proteins: {len(split.side('train'))}, "
      f"val proteins: {len(split.side('val'))}")
print(f"validation mutation fraction: {val_m / total_m:.3f} (target 0.200)")
for a, b in [("P00", "H00"), ("P01", "H01")]:
    print(f"homolog pair {a}/{b}: {split.assignment[a]} / {split.assignment[b]}")
