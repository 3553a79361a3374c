"""Homology-aware train/validation splitting.

Sequence identity is estimated alignment-free as the Jaccard similarity
of k-mer sets (k=5 by default), a deliberate stand-in for a full
clustering tool: the point of the split is that no similar-sequence
cluster spans train and validation. Externally produced cluster tables
(tab-separated ``representative<TAB>member`` lines) can be imported with
:func:`load_clusters_tsv` to use a real aligner's clustering instead.

K-mer codes are built over blocks of whole sequences. Clustering counts
shared k-mers from one table of (code, protein) entries sorted by code,
so proteins that share no k-mer are never compared (the prefilter idea
of MMseqs2, Steinegger & Söding 2017, kept exact).
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass

import numpy as np

from .data import text_errors, wild_types
from .errors import ConfigError, DataError

logger = logging.getLogger(__name__)

DEFAULT_KMER = 5
DEFAULT_IDENTITY = 0.5
DEFAULT_RATIO = (8, 2)

# Most (protein, protein) pair instances, and most cells of the dense
# shared-k-mer count, that one block of the clustering holds at once.
PAIR_BLOCK = 1 << 18

SPLIT_HEADER = ["protein_id", "split", "cluster_rep"]
_INT64_MAX = int(np.iinfo(np.int64).max)


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


def _code_points(seq: str) -> np.ndarray:
    return np.frombuffer(seq.encode("utf-32-le", "surrogatepass"), dtype="<u4")


def kmer_codes(seqs: list[str], k: int) -> list[np.ndarray]:
    """Each sequence's distinct k-mer codes, sorted, all in one code space.

    A letter's digit is 1 + its rank among the letters of ``seqs``, and a
    k-mer's code reads its digits in base ``letters + 1``; a sequence
    shorter than k is padded with 0 to one k-mer, which no full k-mer
    equals. k is capped at the longest sequence + 1. Codes are rolled over
    blocks of whole sequences of at most ``PAIR_BLOCK`` residues (or one
    longer sequence), and each block sorts its ``owner * span + code`` keys
    once; where a key overflows int64, codes are ranked within the block.
    Where ``base**k`` itself overflows int64, each distinct k-mer string is
    numbered instead by its first appearance in ``seqs``, which holds one
    dict entry per distinct k-mer.
    """
    if k < 1:
        raise ConfigError(f"k-mer length must be >= 1, got {k}")
    lengths = np.array([len(seq) for seq in seqs])
    if not lengths.all():
        raise DataError("empty sequence")
    k = min(k, int(lengths.max()) + 1)
    points = _code_points("".join(seqs))
    digit = np.cumsum(np.bincount(points) > 0)  # 1-based rank of each letter
    base = int(digit[-1]) + 1
    if k >= 64 or base ** k > _INT64_MAX:
        number: dict[str, int] = {}
        return [np.unique([number.setdefault(seq[i:i + k], len(number))
                           for i in range(max(len(seq) - k + 1, 1))])
                for seq in seqs]
    seq_start = np.concatenate(([0], np.cumsum(lengths)))
    pad_start = np.concatenate(([0], np.cumsum(np.maximum(lengths, k))))
    parts, sizes, i0 = [], [], 0
    while i0 < len(seqs):
        i1 = int(np.searchsorted(pad_start, pad_start[i0] + PAIR_BLOCK, "right"))
        i1 = min(max(i1 - 1, i0 + 1), len(seqs))
        m, p0, n = i1 - i0, pad_start[i0], pad_start[i1] - pad_start[i0]
        # digits padded with 0 to k per sequence, and k - 1 past the block
        residues, to = slice(seq_start[i0], seq_start[i1]), slice(0, n)
        if n > seq_start[i1] - seq_start[i0]:
            to = np.repeat((pad_start - seq_start)[i0:i1] - p0, lengths[i0:i1])
            to += np.arange(residues.start, residues.stop)
        digits = np.zeros(n + k - 1, np.int64)
        digits[to] = np.take(digit, points[residues])
        x = digits[:n].copy()
        for p in range(1, k):
            x *= base
            x += digits[p:p + n]
        # a window crossing into the next sequence repeats its owner's first
        x[(pad_start[i0 + 1:i1 + 1] - p0)[:, None] - np.arange(1, k)] = \
            x[pad_start[i0:i1] - p0, None]
        values, span = None, base ** k
        if m * span > _INT64_MAX:
            values, x = np.unique(x, return_inverse=True)
            span = len(values)
        x += np.repeat(np.arange(m) * span, np.diff(pad_start[i0:i1 + 1]))
        x.sort()  # owner * span + code: each owner's codes in order
        x = x[_run_heads(x)]
        sizes.append(np.diff(np.searchsorted(x, np.arange(m + 1) * span)))
        x -= np.repeat(np.arange(m) * span, sizes[-1])
        parts.append(x if values is None else values[x])
        i0 = i1
    codes = np.concatenate(parts)
    return np.split(codes, np.cumsum(np.concatenate(sizes)[:-1]))


def estimate_identity(seq_a: str, seq_b: str, k: int = DEFAULT_KMER) -> float:
    """Jaccard similarity of k-mer sets: symmetric, 1.0 on identical input."""
    a, b = kmer_codes([seq_a, seq_b], k)
    inter = len(np.intersect1d(a, b, assume_unique=True))
    if inter == 0:
        return 0.0
    return inter / (len(a) + len(b) - inter)


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
    if not ordered:
        return []
    reps = _representatives([items[pid] for pid in ordered], k, threshold)
    clusters: list[Cluster] = []
    founded: dict[int, Cluster] = {}
    for j, pid in enumerate(ordered):
        if reps[j] == j:
            founded[j] = Cluster(pid, [pid])
            clusters.append(founded[j])
        else:
            founded[reps[j]].members.append(pid)
    return clusters


def _run_heads(values: np.ndarray) -> np.ndarray:
    """Mask of the entries of sorted ``values`` that differ from the one before."""
    head = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=head[1:])
    return head


def _representatives(seqs: list[str], k: int, threshold: float) -> list[int]:
    """Greedy representative of each sequence, as an index into ``seqs``.

    Sequence j joins the earliest representative i < j whose k-mer
    Jaccard with it reaches ``threshold``, else represents itself.
    """
    reps = list(range(len(seqs)))
    is_rep = np.ones(len(seqs), dtype=bool)
    for j0, j1, later, earlier in _passing_pairs(kmer_codes(seqs, k), threshold):
        bounds = np.searchsorted(later, np.arange(j0, j1 + 1)).tolist()
        for j in range(j0, j1):
            lo, hi = bounds[j - j0], bounds[j - j0 + 1]
            if lo == hi:
                continue
            candidates = earlier[lo:hi]
            hits = candidates[is_rep[candidates]]
            if len(hits):
                reps[j] = int(hits[0])
                is_rep[j] = False
    return reps


def _passing_pairs(sets: list[np.ndarray], threshold: float):
    """Every pair i < j with ``|A & B| / |A | B| >= threshold``, by blocks of j.

    Yields ``(j0, j1, later, earlier)``: the passing pairs (earlier, later)
    with later in [j0, j1), sorted by later, then earlier.
    Intersections come from one table of (code, owner) entries sorted by
    code, then owner: an entry shares its k-mer with the entries before it
    in its run. Pairs that share no k-mer are never formed. A block of
    later owners holds at most ``PAIR_BLOCK`` counts, and generates its
    pair instances at most ``PAIR_BLOCK`` at a time.
    """
    n = len(sets)
    sizes = np.array([len(s) for s in sets])
    entry_start = np.concatenate(([0], np.cumsum(sizes)))
    codes = np.concatenate(sets)
    del sets
    total = len(codes)
    if int(codes.max()) * total + total - 1 > _INT64_MAX:
        codes = np.unique(codes, return_inverse=True)[1].reshape(-1)
    # code * total + entry sorts by code, then by entry: a stable argsort
    codes *= total
    codes += np.arange(total)
    codes.sort()
    order = codes % total
    codes //= total
    run_start = np.where(_run_heads(codes), np.arange(total), 0)
    del codes
    np.maximum.accumulate(run_start, out=run_start)
    # per entry, in owner order: where its run starts in the sorted table,
    # and how many entries of earlier owners precede it there
    index = np.int32 if total <= np.iinfo(np.int32).max else np.int64
    first = np.empty(total, dtype=index)
    first[order] = run_start
    earlier_count = np.empty(total, dtype=index)
    earlier_count[order] = np.arange(total) - run_start
    del run_start
    owner = np.repeat(np.arange(n, dtype=index), sizes)
    sorted_owner = owner[order]
    del order

    j0 = 0
    while j0 < n:
        # the most rows whose (rows x j1) count matrix fits PAIR_BLOCK
        rows = max(1, (math.isqrt(j0 * j0 + 4 * PAIR_BLOCK) - j0) // 2)
        j1 = min(n, j0 + rows)
        cells = (j1 - j0) * j1
        shared = np.zeros(cells, dtype=np.intp)
        base = entry_start[j0]
        pairs_before = np.concatenate(
            ([0], np.cumsum(earlier_count[base:entry_start[j1]])))
        e0, e_end = 0, len(pairs_before) - 1
        while e0 < e_end:
            e1 = np.searchsorted(pairs_before, pairs_before[e0] + PAIR_BLOCK,
                                 side="right") - 1
            e1 = min(max(e1, e0 + 1), e_end)
            chunk = slice(base + e0, base + e1)
            counts = earlier_count[chunk]
            offset = first[chunk] - (pairs_before[e0:e1] - pairs_before[e0])
            earlier = sorted_owner[np.repeat(offset, counts)
                                   + np.arange(pairs_before[e1] - pairs_before[e0])]
            later = np.repeat(owner[chunk] - j0, counts)
            shared += np.bincount(later * j1 + earlier, minlength=cells)
            e0 = e1
        cell = np.flatnonzero(shared)
        inter = shared[cell]
        del shared
        later, earlier = np.divmod(cell, j1)
        later += j0
        passing = inter / (sizes[later] + sizes[earlier] - inter) >= threshold
        yield j0, j1, later[passing], earlier[passing]
        j0 = j1


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
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if not clusters:
        raise ConfigError("no clusters to split")
    target = val_part / (train_part + val_part)

    def cluster_weight(c: Cluster) -> int:
        if weights is None:
            return len(c.members)
        return sum(weights.get(m, 0) for m in c.members)

    rep = {m: c.representative for c in clusters for m in c.members}
    if len(clusters) == 1:
        logger.warning("single cluster: assigning everything to train")
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
    counts: dict[str, int] = {}
    for r in records:
        counts[r.protein_id] = counts.get(r.protein_id, 0) + 1
    clusters = greedy_cluster(wild_types(records), threshold, k)
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
            if not row[0]:
                raise DataError(f"{path}:{lineno}: empty protein id")
            if row[0] in out:
                raise DataError(f"{path}:{lineno}: duplicate protein {row[0]!r}")
            out[row[0]] = row[1]
    return out


def load_clusters_tsv(path) -> list[Cluster]:
    """Import externally computed clusters (representative<TAB>member rows).

    Every protein, representative or member, belongs to one cluster: a
    representative listed as another cluster's member, or a member listed
    as another cluster's representative, is rejected like a member listed
    in two clusters.
    """
    members: dict[str, list[str]] = {}
    rep_of: dict[str, str] = {}  # every protein seen -> its representative
    seen: set[str] = set()  # proteins listed as members
    with open(path, encoding="utf-8") as fh, text_errors(path):
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected rep<TAB>member")
            rep, member = parts
            if not rep or not member:
                raise DataError(f"{path}:{lineno}: empty protein id")
            for name in (rep, member):
                if rep_of.setdefault(name, rep) != rep:
                    raise DataError(f"{path}:{lineno}: {name!r} in two clusters")
            if member in seen:
                raise DataError(f"{path}:{lineno}: {member!r} listed twice")
            seen.add(member)
            members.setdefault(rep, []).append(member)
    clusters = []
    for rep in sorted(members):
        group = members[rep]
        if rep not in group:
            group.insert(0, rep)
        clusters.append(Cluster(rep, group))
    return clusters
