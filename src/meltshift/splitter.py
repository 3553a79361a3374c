"""Homology-aware train/validation splitting.

Sequence identity is estimated alignment-free as the Jaccard similarity
of k-mer sets (k=5 by default), a deliberate stand-in for a full
clustering tool: the point of the split is that no similar-sequence
cluster spans train and validation. Externally produced cluster tables
(tab-separated ``representative<TAB>member`` lines) can be imported with
:func:`load_clusters_tsv` to use a real aligner's clustering instead.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .data import text_errors
from .errors import ConfigError, DataError

DEFAULT_KMER = 5
DEFAULT_IDENTITY = 0.5
DEFAULT_RATIO = (8, 2)

SPLIT_HEADER = ["protein_id", "split", "cluster_rep"]


@dataclass
class Cluster:
    representative: str
    members: list[str]

    def __post_init__(self):
        if self.representative not in self.members:
            raise ConfigError(
                f"cluster representative {self.representative!r} not in members"
            )


@dataclass
class SplitAssignment:
    assignment: dict[str, str]  # protein_id -> "train" | "val"
    cluster_rep: dict[str, str]  # protein_id -> representative id
    seed: int
    identity_threshold: float

    def side(self, split: str) -> list[str]:
        return sorted(p for p, s in self.assignment.items() if s == split)


def kmer_set(seq: str, k: int = DEFAULT_KMER) -> frozenset[str]:
    """All length-k substrings; sequences shorter than k hash whole."""
    if k < 1:
        raise ConfigError(f"k-mer length must be >= 1, got {k}")
    if not seq:
        raise DataError("empty sequence")
    if len(seq) < k:
        return frozenset((seq,))
    return frozenset(seq[i : i + k] for i in range(len(seq) - k + 1))


def estimate_identity(seq_a: str, seq_b: str, k: int = DEFAULT_KMER) -> float:
    """Jaccard similarity of k-mer sets: symmetric, 1.0 on identical input."""
    a, b = kmer_set(seq_a, k), kmer_set(seq_b, k)
    inter = len(a & b)
    if inter == 0:
        return 0.0
    return inter / len(a | b)


def greedy_cluster(proteins, threshold: float,
                   k: int = DEFAULT_KMER) -> list[Cluster]:
    """Cluster (protein_id, sequence) pairs by identity to representatives.

    Proteins are processed longest-first (ties by id), joining the first
    existing cluster whose representative is at least ``threshold``
    similar, otherwise founding a new cluster. Input order never matters.
    """
    if not (0.0 < threshold <= 1.0):
        raise ConfigError(f"identity threshold must be in (0, 1], got {threshold}")
    items = dict(proteins)
    for pid, seq in items.items():
        if not seq:
            raise DataError(f"{pid}: empty sequence")
    ordered = sorted(items, key=lambda pid: (-len(items[pid]), pid))
    clusters: list[Cluster] = []
    rep_kmers: list[frozenset[str]] = []
    for pid in ordered:
        mers = kmer_set(items[pid], k)
        for cluster, rk in zip(clusters, rep_kmers):
            inter = len(mers & rk)
            if inter and inter / len(mers | rk) >= threshold:
                cluster.members.append(pid)
                break
        else:
            clusters.append(Cluster(pid, [pid]))
            rep_kmers.append(mers)
    return clusters


def split_clusters(clusters: list[Cluster], ratio=DEFAULT_RATIO, seed: int = 0,
                   weights: dict[str, int] | None = None,
                   identity_threshold: float = DEFAULT_IDENTITY) -> SplitAssignment:
    """Assign whole clusters to train/val, targeting the given ratio.

    Cluster weight is its total mutation count (``weights`` per protein,
    default 1 each). Clusters are shuffled by seed, processed heaviest
    first (the shuffle breaks ties), and each goes to whichever side
    keeps the achieved validation fraction closest to the target.
    """
    train_part, val_part = ratio
    if train_part <= 0 or val_part <= 0:
        raise ConfigError(f"ratio parts must be positive, got {ratio}")
    if not clusters:
        raise ConfigError("no clusters to split")
    target = val_part / (train_part + val_part)

    def cluster_weight(c: Cluster) -> int:
        if weights is None:
            return len(c.members)
        return sum(weights.get(m, 0) for m in c.members)

    rep = {m: c.representative for c in clusters for m in c.members}
    if len(clusters) == 1:
        warnings.warn("single cluster: assigning everything to train")
        assignment = {m: "train" for m in clusters[0].members}
        return SplitAssignment(assignment, rep, seed, identity_threshold)

    rng = np.random.default_rng(seed)
    order = [clusters[i] for i in rng.permutation(len(clusters))]
    order.sort(key=cluster_weight, reverse=True)  # stable: shuffle breaks ties

    assignment: dict[str, str] = {}
    val_total = 0.0
    grand_total = 0.0
    for c in order:
        w = cluster_weight(c)
        new_total = grand_total + w
        err_train = abs(val_total / new_total - target)
        err_val = abs((val_total + w) / new_total - target)
        side = "val" if err_val < err_train else "train"
        if side == "val":
            val_total += w
        grand_total = new_total
        for m in c.members:
            assignment[m] = side
    return SplitAssignment(assignment, rep, seed, identity_threshold)


def split_records(records, threshold: float = DEFAULT_IDENTITY,
                  ratio=DEFAULT_RATIO, seed: int = 0,
                  k: int = DEFAULT_KMER) -> SplitAssignment:
    """Cluster the proteins behind ``records`` and split by mutation count."""
    proteins: dict[str, str] = {}
    counts: dict[str, int] = {}
    for r in records:
        prior = proteins.get(r.protein_id)
        if prior is not None and prior != r.wt_sequence:
            raise DataError(
                f"{r.protein_id}: conflicting wild-type sequences across records"
            )
        proteins[r.protein_id] = r.wt_sequence
        counts[r.protein_id] = counts.get(r.protein_id, 0) + 1
    clusters = greedy_cluster(proteins, threshold, k)
    return split_clusters(clusters, ratio, seed, counts, threshold)


# ---------------------------------------------------------------------------
# manifest and import hook


def write_split(path, split: SplitAssignment) -> None:
    """Write the split manifest: one sorted row per protein."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SPLIT_HEADER)
        for pid in sorted(split.assignment):
            writer.writerow([pid, split.assignment[pid], split.cluster_rep[pid]])


def read_split(path) -> dict[str, str]:
    """Read a split manifest back to a protein_id -> side map."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8", newline="") as fh, text_errors(path):
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != SPLIT_HEADER:
            raise DataError(f"{path}: bad split manifest header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3 or row[1] not in ("train", "val"):
                raise DataError(f"{path}:{lineno}: bad split row {row!r}")
            if row[0] in out:
                raise DataError(f"{path}:{lineno}: duplicate protein {row[0]!r}")
            out[row[0]] = row[1]
    return out


def load_clusters_tsv(path) -> list[Cluster]:
    """Import externally computed clusters (representative<TAB>member rows)."""
    members: dict[str, list[str]] = {}
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh, text_errors(path):
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected rep<TAB>member")
            rep, member = parts
            if member in seen:
                raise DataError(f"{path}:{lineno}: {member!r} in two clusters")
            seen.add(member)
            members.setdefault(rep, []).append(member)
    clusters = []
    for rep in sorted(members):
        group = members[rep]
        if rep not in group:
            group.insert(0, rep)
            seen.add(rep)
        clusters.append(Cluster(rep, group))
    return clusters
