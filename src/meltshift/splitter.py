"""Homology-aware train/validation splitting.

Sequence identity is estimated alignment-free as the Jaccard similarity
of k-mer sets (k=5 by default), a deliberate stand-in for a full
clustering tool: the point of the split is that no similar-sequence
cluster spans train and validation. Externally produced cluster tables
(tab-separated ``representative<TAB>member`` lines) can be imported with
:func:`load_clusters_tsv` to use a real aligner's clustering instead.

A k-mer's code reads its amino acids as base-21 digits, with k from 1 to 12:
no threshold needs longer words (CD-HIT's are 2-5, Li & Godzik 2006). K-mer
codes are built over blocks of whole sequences. Clustering sorts
one table of (code, protein) entries by code and keeps only the k-mers
two or more proteins hold, so proteins that share no k-mer are never
compared (the prefilter idea of MMseqs2, Steinegger & Söding 2017, kept
exact). Both stages run their blocks in order on the calling thread, and
no result depends on where a block ends.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .data import AMINO_ACIDS, check_sequence, read_table, wild_types, write_table
from .errors import ConfigError, DataError

logger = logging.getLogger(__name__)

DEFAULT_KMER = 5
MAX_KMER = 12
DEFAULT_IDENTITY = 0.5
DEFAULT_RATIO = (8, 2)

# Most residues, dense shared-k-mer count cells and (protein, protein) pair
# instances in one block, the one block in flight at a time
PAIR_BLOCK = 1 << 17

SPLIT_HEADER = ["protein_id", "split", "cluster_rep"]
_INT64_MAX = int(np.iinfo(np.int64).max)
# a residue's k-mer digit is 1 + its index in AMINO_ACIDS: 0 pads short sequences
_BASE = len(AMINO_ACIDS) + 1
_DIGIT = np.zeros(128, np.int64)
_DIGIT[np.frombuffer(AMINO_ACIDS.encode(), np.uint8)] = np.arange(1, _BASE)


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


def _check_options(threshold: float = DEFAULT_IDENTITY, k: int = DEFAULT_KMER):
    if not (0.0 < threshold <= 1.0):
        raise ConfigError(f"identity threshold must be in (0, 1], got {threshold}")
    if k < 1:
        raise ConfigError(f"k-mer length must be >= 1, got {k}")
    if k > MAX_KMER:
        raise ConfigError(f"k-mer length must be <= {MAX_KMER}, got {k}")


def kmer_codes(seqs: list[str], k: int) -> list[np.ndarray]:
    """Each sequence's distinct k-mer codes, sorted.

    A residue's digit is 1 + its index in ``AMINO_ACIDS`` and a k-mer's
    code reads its digits in base 21, so a sequence's codes are the same in
    any corpus; a sequence shorter than k is padded with 0 to one k-mer,
    which no full k-mer equals. A sequence holding any other letter raises
    DataError, and k outside 1-12 ConfigError. Codes are rolled over blocks
    of whole sequences of at most ``PAIR_BLOCK`` residues (or one
    longer sequence), and each block sorts its ``owner * 21**k + code``
    keys once; a block holds at most ``int64 max // 21**k`` sequences (1253
    at k=12), so every key fits int64.
    """
    for seq in seqs:
        check_sequence(seq)
    if not seqs:
        return []
    codes, sizes = _kmer_table(seqs, k)
    return np.split(codes, np.cumsum(sizes[:-1]))


def _kmer_table(seqs: list[str], k: int) -> tuple[np.ndarray, np.ndarray]:
    """The codes of :func:`kmer_codes` in one array, and each sequence's
    count, for sequences that :func:`data.check_sequence` passed."""
    _check_options(k=k)
    lengths = np.array([len(seq) for seq in seqs])
    points = np.frombuffer("".join(seqs).encode("ascii"), dtype=np.uint8)
    span = _BASE ** k
    seq_start = np.concatenate(([0], np.cumsum(lengths)))
    pad_start = np.concatenate(([0], np.cumsum(np.maximum(lengths, k))))
    bounds = [0]
    while bounds[-1] < len(seqs):
        i0 = bounds[-1]
        i1 = int(np.searchsorted(pad_start, pad_start[i0] + PAIR_BLOCK, "right"))
        bounds.append(min(max(i1 - 1, i0 + 1), i0 + _INT64_MAX // span, len(seqs)))

    def block(i0, i1):
        m, p0, n = i1 - i0, pad_start[i0], pad_start[i1] - pad_start[i0]
        # digits padded with 0 to k per sequence, and k - 1 past the block
        residues, to = slice(seq_start[i0], seq_start[i1]), slice(0, n)
        if n > seq_start[i1] - seq_start[i0]:
            to = np.repeat((pad_start - seq_start)[i0:i1] - p0, lengths[i0:i1])
            to += np.arange(residues.start, residues.stop)
        digits = np.zeros(n + k - 1, np.int64)
        digits[to] = np.take(_DIGIT, points[residues])
        x = digits[:n].copy()
        for p in range(1, k):
            x *= _BASE
            x += digits[p:p + n]
        # a window crossing into the next sequence repeats its owner's first
        x[(pad_start[i0 + 1:i1 + 1] - p0)[:, None] - np.arange(1, k)] = \
            x[pad_start[i0:i1] - p0, None]
        x += np.repeat(np.arange(m) * span, np.diff(pad_start[i0:i1 + 1]))
        x.sort()  # owner * span + code: each owner's codes in order
        x = x[_run_heads(x)]
        sizes = np.diff(np.searchsorted(x, np.arange(m + 1) * span))
        x -= np.repeat(np.arange(m) * span, sizes)
        return x, sizes

    parts = list(map(block, bounds[:-1], bounds[1:]))
    return tuple(np.concatenate(part) for part in zip(*parts))


def estimate_identity(seq_a: str, seq_b: str, k: int = DEFAULT_KMER) -> float:
    """Jaccard similarity of k-mer sets: symmetric, 1.0 on identical input."""
    a, b = kmer_codes([seq_a, seq_b], k)
    inter = len(np.intersect1d(a, b, assume_unique=True))
    return inter / (len(a) + len(b) - inter)


def greedy_cluster(proteins, threshold: float,
                   k: int = DEFAULT_KMER) -> list[Cluster]:
    """Cluster (protein_id, sequence) pairs by identity to representatives.

    Proteins are processed longest-first (ties by id), joining the first
    existing cluster whose representative is at least ``threshold``
    similar, otherwise founding a new cluster. Input order never matters.
    An id given with two different sequences raises DataError.
    """
    _check_options(threshold)
    items: dict[str, str] = {}
    for pid, seq in proteins.items() if isinstance(proteins, dict) else proteins:
        if items.setdefault(pid, seq) != seq:
            raise DataError(f"{pid}: two different sequences")
    for pid, seq in items.items():
        check_sequence(seq, f"{pid}: ")
    ordered = sorted(items, key=lambda pid: (-len(items[pid]), pid))
    if not ordered:
        return []
    reps = _representatives([items[pid] for pid in ordered], k, threshold)
    founded: dict[int, Cluster] = {}  # in order of founding
    for j, pid in enumerate(ordered):
        if reps[j] == j:
            founded[j] = Cluster(pid, [pid])
        else:
            founded[reps[j]].members.append(pid)
    return list(founded.values())


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
    for j0, j1, later, earlier in _passing_pairs(*_kmer_table(seqs, k), threshold):
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


def _passing_pairs(codes: np.ndarray, sizes: np.ndarray, threshold: float):
    """Every pair i < j with ``|A & B| / |A | B| >= threshold``, by blocks of j.

    ``codes`` holds each set's distinct codes in turn, ``sizes`` their
    counts. Yields ``(j0, j1, later, earlier)``: the passing pairs (earlier,
    later) with later in [j0, j1), sorted by later, then earlier.
    Intersections come from one table of (code, entry) keys sorted by code,
    then entry, cut to its runs of two or more entries: a set's codes are
    distinct, so those are the k-mers two sets share, and an entry shares
    its k-mer with the entries before it in its run. Pairs that share no
    k-mer are never formed. A block of later owners holds at most
    ``PAIR_BLOCK`` counts, and makes its pair instances that many at a time.
    """
    n, total = len(sizes), len(codes)
    bits = (total - 1).bit_length()
    mask = (1 << bits) - 1
    if int(codes.max()) << bits | mask > _INT64_MAX:
        codes = np.unique(codes, return_inverse=True)[1].reshape(-1)
    # code << bits | entry sorts by code, then by entry: a stable argsort
    key = codes << bits
    del codes
    key |= np.arange(total)
    key.sort()
    head = _run_heads(key >> bits)
    kept = np.flatnonzero(~(head & np.append(head[1:], True)))  # runs of 2+
    entry = key.take(kept) & mask
    index = np.int32 if total <= np.iinfo(np.int32).max else np.int64
    run_start = np.flatnonzero(head.take(kept)).astype(index)
    run_start = np.repeat(run_start, np.diff(np.append(run_start, len(entry))))
    del key, head, kept
    # slot: a sorted entry's place in owner order; there, where its run starts
    # in the sorted table and how many entries of earlier owners precede it
    slot = np.zeros(total, dtype=index)
    slot[entry] = 1
    np.cumsum(slot, out=slot)
    shared_start = np.concatenate(([0], slot[np.cumsum(sizes) - 1]))
    slot = slot[entry] - 1
    first = np.empty(len(entry), dtype=index)
    first[slot] = run_start
    earlier_count = np.empty(len(entry), dtype=index)
    earlier_count[slot] = np.arange(len(entry), dtype=index) - run_start
    del run_start, entry
    owner = np.repeat(np.arange(n, dtype=index), np.diff(shared_start))
    sorted_owner = owner[slot]
    del slot

    bounds = [0]
    while bounds[-1] < n:  # the most rows whose (rows x j1) counts fit in a block
        j0 = bounds[-1]
        rows = (math.isqrt(j0 * j0 + 4 * PAIR_BLOCK) - j0) // 2
        bounds.append(min(n, j0 + max(1, rows)))

    def block(j0, j1):
        cells = (j1 - j0) * j1
        shared = np.zeros(cells, dtype=np.intp)
        base = shared_start[j0]
        pairs_before = np.concatenate(
            ([0], np.cumsum(earlier_count[base:shared_start[j1]])))
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
        return j0, j1, later[passing], earlier[passing]

    yield from map(block, bounds[:-1], bounds[1:])


def check_ratio(ratio) -> tuple[int, int]:
    """The (train, val) parts of a split ratio; both must be positive."""
    train_part, val_part = ratio
    if train_part <= 0 or val_part <= 0:
        raise ConfigError(f"ratio parts must be positive, got {train_part}:{val_part}")
    return train_part, val_part


def split_clusters(clusters: list[Cluster], ratio=DEFAULT_RATIO, seed: int = 0,
                   weights: dict[str, int] | None = None,
                   identity_threshold: float = DEFAULT_IDENTITY) -> SplitAssignment:
    """Assign whole clusters to train/val, targeting the given ratio.

    Cluster weight is its total mutation count (``weights`` per protein,
    default 1 each). Clusters are shuffled by seed, processed heaviest
    first (the shuffle breaks ties), and each goes to whichever side
    keeps the achieved validation fraction closest to the target. When all
    the weight lands on one side, a warning names the empty side. Clusters
    of total weight 0 raise ConfigError.
    """
    train_part, val_part = check_ratio(ratio)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if not clusters:
        raise ConfigError("no clusters to split")
    target = val_part / (train_part + val_part)
    rep = {m: c.representative for c in clusters for m in c.members}
    weight = [len(c.members) if weights is None
              else sum(weights.get(m, 0) for m in c.members) for c in clusters]
    if not sum(weight):
        raise ConfigError(f"the {len(clusters)} clusters have total weight 0: "
                          "none of their proteins has a record")
    rng = np.random.default_rng(seed)
    # stable: the shuffle breaks ties
    order = sorted(rng.permutation(len(clusters)).tolist(),
                   key=weight.__getitem__, reverse=True)

    assignment: dict[str, str] = {}
    val_total = 0.0
    grand_total = 0.0
    for i in order:
        c, w = clusters[i], weight[i]
        new_total = grand_total + w
        err_train = abs(val_total / new_total - target)
        err_val = abs((val_total + w) / new_total - target)
        side = "val" if err_val < err_train else "train"
        if side == "val":
            val_total += w
        grand_total = new_total
        for m in c.members:
            assignment[m] = side
    if val_total in (0.0, grand_total):
        empty, full = ("validation", "train") if not val_total else ("train", "validation")
        logger.warning("the %s side is empty: the %d cluster(s) that carry weight "
                       "are all assigned to %s", empty, sum(w > 0 for w in weight), full)
    return SplitAssignment(assignment, rep, seed, identity_threshold)


def split_records(records, threshold: float = DEFAULT_IDENTITY,
                  ratio=DEFAULT_RATIO, seed: int = 0, k: int = DEFAULT_KMER,
                  clusters: list[Cluster] | None = None) -> SplitAssignment:
    """Cluster the proteins behind ``records``, or take ``clusters``, which
    must cover them, and split by mutation count."""
    _check_options(threshold, k)
    counts: dict[str, int] = {}
    for r in records:
        counts[r.protein_id] = counts.get(r.protein_id, 0) + 1
    if clusters is None:
        clusters = greedy_cluster(wild_types(records), threshold, k)
    else:
        missing = sorted(set(counts) - {m for c in clusters for m in c.members})
        if missing:
            raise DataError(f"cluster table lacks proteins: {missing[:5]}")
    return split_clusters(clusters, ratio, seed, counts, threshold)


# ---------------------------------------------------------------------------
# manifest and import hook


def write_split(path, split: SplitAssignment) -> None:
    """Write the split manifest: one sorted row per protein."""
    write_table(path, SPLIT_HEADER, ([pid, split.assignment[pid], split.cluster_rep[pid]]
                                     for pid in sorted(split.assignment)))


def read_split(path) -> dict[str, str]:
    """Read a split manifest back to a protein_id -> side map."""
    out: dict[str, str] = {}
    for lineno, row in read_table(path, SPLIT_HEADER):
        if row[1] not in ("train", "val"):
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
    for lineno, (rep, member) in read_table(path, ["representative", "member"],
                                            header=False):
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
