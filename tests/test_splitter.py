import itertools
import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meltshift import splitter
from meltshift.data import AMINO_ACIDS
from meltshift.errors import ConfigError, DataError
from meltshift.splitter import (
    Cluster,
    estimate_identity,
    greedy_cluster,
    kmer_codes,
    load_clusters_tsv,
    read_split,
    split_clusters,
    split_records,
    write_split,
)

from conftest import random_records, records_with_homologs


def random_sequence(rng, length):
    return "".join(AMINO_ACIDS[i] for i in rng.integers(0, 20, size=length))


# ---------------------------------------------------------------------------
# quadratic reference: string k-mer sets, each protein against every
# representative in creation order


def reference_kmer_set(seq, k):
    if len(seq) < k:
        return frozenset((seq,))
    return frozenset(seq[i:i + k] for i in range(len(seq) - k + 1))


def reference_identity(seq_a, seq_b, k):
    a, b = reference_kmer_set(seq_a, k), reference_kmer_set(seq_b, k)
    inter = len(a & b)
    return inter / len(a | b) if inter else 0.0


def reference_greedy_cluster(proteins, threshold, k=5):
    items = dict(proteins)
    ordered = sorted(items, key=lambda pid: (-len(items[pid]), pid))
    clusters, rep_kmers = [], []
    for pid in ordered:
        mers = reference_kmer_set(items[pid], k)
        for cluster, rk in zip(clusters, rep_kmers):
            inter = len(mers & rk)
            if inter and inter / len(mers | rk) >= threshold:
                cluster.members.append(pid)
                break
        else:
            clusters.append(Cluster(pid, [pid]))
            rep_kmers.append(mers)
    return clusters


def as_pairs(clusters):
    return [(c.representative, c.members) for c in clusters]


# the amino acids plus letters a dataset file would reject
LETTERS = AMINO_ACIDS + "BJOUXZ*-é"


@st.composite
def corpora(draw):
    letters = draw(st.sampled_from([AMINO_ACIDS, "A", "AC", "ACDE", "ABCDEFGH",
                                    LETTERS]))
    sequences = st.text(alphabet=letters, min_size=1, max_size=30)
    return draw(st.dictionaries(st.integers(0, 999).map(lambda i: f"P{i}"),
                                sequences, min_size=1, max_size=25))


# k of 13 and up with 20 or more letters takes the path that ranks codes
# within a block or, for base**k beyond int64, the one that numbers k-mers
# by first appearance
kmer_lengths = st.sampled_from([5, 1, 2, 3, 4, 6, 13, 15, 20, 31, 40])
# every ratio of small counts, so thresholds equal to a Jaccard value
# occur, and the least positive float, which passes any pair sharing a k-mer
# (sampled_from favours its first entry, so the defaults come first)
thresholds = st.sampled_from(
    [0.5, *sorted({a / b for b in range(1, 13) for a in range(1, b + 1)}),
     5e-324])


def polya_corpus(n, length, substitutions, seed=0):
    """Poly-A proteins with scattered substitutions: every pair shares k-mers."""
    rng = np.random.default_rng(seed)
    proteins = {}
    for i in range(n):
        seq = ["A"] * length
        for pos in rng.choice(length, substitutions, replace=False):
            seq[pos] = AMINO_ACIDS[1 + int(rng.integers(0, 19))]
        proteins[f"P{i:04d}"] = "".join(seq)
    return proteins


class TestIdentity:
    def test_self_identity(self):
        assert estimate_identity("MKILQWERTY", "MKILQWERTY") == 1.0

    def test_disjoint(self):
        assert estimate_identity("AAAAAAAA", "CCCCCCCC") == 0.0

    def test_three_mer_jaccard_by_hand(self):
        # 3-mers: 6 each, 5 shared, union 7
        got = estimate_identity("ABCDEFGH", "ABCDEFGX", k=3)
        assert got == pytest.approx(5.0 / 7.0)

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        a, b = random_sequence(rng, 20), random_sequence(rng, 25)
        assert estimate_identity(a, b) == estimate_identity(b, a)

    def test_short_sequences_compare_whole(self):
        assert estimate_identity("MK", "MK") == 1.0
        assert estimate_identity("MK", "ML") == 0.0

    def test_empty_sequence(self):
        with pytest.raises(DataError):
            estimate_identity("", "MKIL")

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.text(alphabet=LETTERS, min_size=1, max_size=30),
           st.text(alphabet=LETTERS, min_size=1, max_size=30), kmer_lengths)
    def test_matches_string_jaccard(self, seq_a, seq_b, k):
        assert estimate_identity(seq_a, seq_b, k) == \
            reference_identity(seq_a, seq_b, k)


class TestGreedyCluster:
    def test_all_identical_one_cluster(self):
        proteins = {f"P{i}": "MKILQWERTYMKIL" for i in range(5)}
        clusters = greedy_cluster(proteins, 0.5)
        assert len(clusters) == 1
        assert sorted(clusters[0].members) == sorted(proteins)

    def test_all_disjoint_singletons(self):
        proteins = {"P1": "A" * 12, "P2": "C" * 12, "P3": "D" * 12}
        clusters = greedy_cluster(proteins, 0.5)
        assert len(clusters) == 3
        assert all(len(c.members) == 1 for c in clusters)

    def test_near_duplicate_pair_against_bruteforce(self):
        base = "MKILQWERTYACDEFGHKLM"
        proteins = {
            "P1": base,
            "P2": base[:-1] + "W",   # near-duplicate of P1
            "P3": "WYWYWYWYWYWYWYWYWYWY",
            "P4": "HHHHHHKKKKKKLLLLLLMM",
        }
        matrix = {
            (a, b): estimate_identity(proteins[a], proteins[b])
            for a, b in itertools.combinations(sorted(proteins), 2)
        }
        above = [pair for pair, v in matrix.items() if v >= 0.5]
        assert above == [("P1", "P2")]  # brute-force confirms the only pair
        clusters = greedy_cluster(proteins, 0.5)
        assert len(clusters) == 3
        pair = next(c for c in clusters if len(c.members) == 2)
        assert sorted(pair.members) == ["P1", "P2"]

    def test_partition_law(self):
        rng = np.random.default_rng(1)
        proteins = {f"P{i}": random_sequence(rng, 18) for i in range(20)}
        clusters = greedy_cluster(proteins, 0.5)
        seen = [m for c in clusters for m in c.members]
        assert sorted(seen) == sorted(proteins)
        for c in clusters:
            assert c.representative in c.members

    def test_input_order_does_not_matter(self):
        rng = np.random.default_rng(2)
        items = [(f"P{i}", random_sequence(rng, 15 + i % 4)) for i in range(12)]
        a = greedy_cluster(items, 0.5)
        b = greedy_cluster(list(reversed(items)), 0.5)
        assert [(c.representative, sorted(c.members)) for c in a] == \
               [(c.representative, sorted(c.members)) for c in b]

    def test_bad_threshold(self):
        with pytest.raises(ConfigError):
            greedy_cluster({"P1": "MKIL"}, 0.0)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(corpora(), kmer_lengths, thresholds)
    def test_matches_quadratic_reference(self, proteins, k, threshold):
        assert as_pairs(greedy_cluster(proteins, threshold, k)) == \
            as_pairs(reference_greedy_cluster(proteins, threshold, k))

    @pytest.mark.parametrize("k", [13, 15])
    def test_wide_kmers_match_reference(self, k):
        rng = np.random.default_rng(3)
        proteins = {f"P{i}": random_sequence(rng, int(rng.integers(10, 30)))
                    for i in range(30)}
        proteins.update({f"H{i}": seq[:-2] + "XZ"
                         for i, seq in enumerate(list(proteins.values())[:8])})
        letters = np.unique([ord(c) for c in "".join(proteins.values())])
        # 22 letters, base 23: 23**13 fits int64 but code * entries does
        # not, so codes are ranked before the sort; 23**15 does not fit,
        # so k-mers are numbered by first appearance in kmer_codes
        assert len(letters) == 22 and (23 ** k > np.iinfo(np.int64).max) == (k > 13)
        for threshold in (0.2, 0.5, 1.0):
            assert as_pairs(greedy_cluster(proteins, threshold, k)) == \
                as_pairs(reference_greedy_cluster(proteins, threshold, k))

    @pytest.mark.parametrize("block", [1, 5, 64])
    def test_small_blocks_match_reference(self, block, monkeypatch):
        monkeypatch.setattr(splitter, "PAIR_BLOCK", block)
        proteins = polya_corpus(40, 30, 4, seed=block)
        rng = np.random.default_rng(block)
        proteins.update({f"R{i}": random_sequence(rng, 25) for i in range(20)})
        for threshold in (0.3, 0.6):
            assert as_pairs(greedy_cluster(proteins, threshold, 3)) == \
                as_pairs(reference_greedy_cluster(proteins, threshold, 3))

    @pytest.mark.parametrize("block", [1, 5, 64, splitter.PAIR_BLOCK])
    @pytest.mark.parametrize("k", [1, 5, 13, 15])
    def test_kmer_blocks_keep_sequence_boundaries(self, k, block, monkeypatch):
        monkeypatch.setattr(splitter, "PAIR_BLOCK", block)
        rng = np.random.default_rng(k)
        seqs = [random_sequence(rng, n) for n in rng.integers(1, 30, size=30)]
        # a window crossing from sequence i into i + 1 is a k-mer of their
        # join; X and é make 22 letters, so k=13 takes the path that ranks
        # codes within a block of over 18 sequences, and k=15 the one that
        # numbers k-mers by first appearance
        seqs += [seqs[i] + seqs[i + 1] for i in range(0, 20, 2)]
        seqs += ["X" + seqs[0], seqs[1] + "é", "é", "X",
                 random_sequence(rng, 100)]
        sets = kmer_codes(seqs, k)
        want = [reference_kmer_set(seq, k) for seq in seqs]
        assert [len(s) for s in sets] == [len(w) for w in want]
        for a, b in itertools.combinations(range(len(seqs)), 2):
            assert len(np.intersect1d(sets[a], sets[b])) == \
                len(want[a] & want[b]), (a, b)

    def test_peak_memory_held_to_block_budget(self):
        proteins = polya_corpus(800, 150, 10)
        sets = kmer_codes(list(proteins.values()), 5)
        entries = sum(len(s) for s in sets)
        _, owners = np.unique(np.concatenate(sets), return_counts=True)
        pair_instances = int((owners * (owners - 1) // 2).sum())
        # working arrays per pair slot of a block, and table arrays per entry
        bound = 48 * splitter.PAIR_BLOCK + 64 * entries
        # one int64 per pair instance alone would be twice the bound
        assert 8 * pair_instances > 2 * bound
        tracemalloc.start()
        try:
            greedy_cluster(proteins, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


    def test_long_corpus_peak_memory_held_to_residue_budget(self):
        # 2.1M residues, eight PAIR_BLOCKs: the k-mer build holds one
        # block of int64 working arrays, not every residue's
        proteins = polya_corpus(100, 21_000, 20)
        residues = sum(map(len, proteins.values()))
        assert residues >= 8 * splitter.PAIR_BLOCK
        entries = sum(len(s) for s in kmer_codes(list(proteins.values()), 5))
        bound = 48 * splitter.PAIR_BLOCK + 64 * entries + 8 * residues
        tracemalloc.start()
        try:
            greedy_cluster(proteins, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

def equal_clusters(n, size=1):
    return [Cluster(f"R{i}", [f"R{i}"] + [f"R{i}x{j}" for j in range(size - 1)])
            for i in range(n)]


class TestSplitClusters:
    def test_ten_equal_clusters_split_8_2(self):
        for seed in range(5):
            split = split_clusters(equal_clusters(10), (8, 2), seed=seed)
            sides = [split.assignment[f"R{i}"] for i in range(10)]
            assert sides.count("train") == 8
            assert sides.count("val") == 2

    def test_sizes_8_and_2_greedy_match(self):
        # weight by member count: 8 vs 2
        clusters = [Cluster("A", ["A"] + [f"A{i}" for i in range(7)]),
                    Cluster("B", ["B", "B1"])]
        for seed in range(10):
            split = split_clusters(clusters, (8, 2), seed=seed)
            assert split.assignment["A"] == "train"
            assert split.assignment["B"] == "val"

    def test_same_seed_identical(self):
        clusters = equal_clusters(9)
        a = split_clusters(clusters, (8, 2), seed=7)
        b = split_clusters(clusters, (8, 2), seed=7)
        assert a.assignment == b.assignment

    def test_clusters_never_split(self):
        clusters = equal_clusters(6, size=3)
        split = split_clusters(clusters, (8, 2), seed=1)
        for c in clusters:
            sides = {split.assignment[m] for m in c.members}
            assert len(sides) == 1

    def test_single_cluster_warns_all_train(self, caplog):
        with caplog.at_level(logging.WARNING, logger="meltshift.splitter"):
            split = split_clusters(equal_clusters(1, size=4), (8, 2), seed=0)
        assert "single cluster: assigning everything to train" in caplog.text
        assert set(split.assignment.values()) == {"train"}

    def test_bad_ratio(self):
        with pytest.raises(ConfigError):
            split_clusters(equal_clusters(4), (0, 10), seed=0)

    def test_weighted_by_mutation_count(self):
        clusters = [Cluster("A", ["A"]), Cluster("B", ["B"])]
        weights = {"A": 8, "B": 2}
        for seed in range(10):
            split = split_clusters(clusters, (8, 2), seed=seed, weights=weights)
            assert split.assignment == {"A": "train", "B": "val"}


class TestSplitRecords:
    def test_no_leakage_and_pairs_together(self):
        records, pairs = records_with_homologs(seed=5)
        split = split_records(records, threshold=0.5, seed=3)
        ids = {r.protein_id for r in records}
        assert set(split.assignment) == ids
        for a, b in pairs:
            assert split.assignment[a] == split.assignment[b], (a, b)

    def test_val_fraction_near_target(self):
        records, _ = records_with_homologs(seed=6)
        split = split_records(records, threshold=0.5, seed=1)
        counts = {}
        for r in records:
            counts[r.protein_id] = counts.get(r.protein_id, 0) + 1
        total = sum(counts.values())
        val = sum(counts[p] for p, s in split.assignment.items() if s == "val")
        by_rep = {}
        for pid, rep in split.cluster_rep.items():
            by_rep[rep] = by_rep.get(rep, 0) + counts[pid]
        slack = max(by_rep.values())
        assert abs(val / total - 0.2) <= slack / total


class TestManifest:
    def test_roundtrip_and_byte_identical(self, tmp_path):
        records, _ = records_with_homologs(seed=9, n_proteins=12,
                                           planted_pairs=2)
        split = split_records(records, seed=4)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_split(p1, split)
        write_split(p2, split_records(records, seed=4))
        assert p1.read_bytes() == p2.read_bytes()
        assert read_split(p1) == split.assignment

    def test_manifests_match_reference_clustering(self, tmp_path):
        for seed in range(20):
            records, _ = records_with_homologs(seed=seed)
            proteins = {r.protein_id: r.wt_sequence for r in records}
            counts = {}
            for r in records:
                counts[r.protein_id] = counts.get(r.protein_id, 0) + 1
            got, want = tmp_path / f"got{seed}.csv", tmp_path / f"want{seed}.csv"
            write_split(got, split_records(records, seed=seed))
            write_split(want, split_clusters(
                reference_greedy_cluster(proteins, 0.5), (8, 2), seed, counts, 0.5))
            assert got.read_bytes() == want.read_bytes(), seed

    def test_read_rejects_bad_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("protein_id,split,cluster_rep\nP1,test,P1\n")
        with pytest.raises(DataError):
            read_split(path)

    def test_read_rejects_empty_protein_id(self, tmp_path):
        path = tmp_path / "split.csv"
        path.write_text("protein_id,split,cluster_rep\nP1,train,P1\n,train,X\n")
        with pytest.raises(DataError, match=r"split\.csv:3: empty protein id"):
            read_split(path)

    @pytest.mark.parametrize("rows", ["R1\tR1\nA\t\n", "R1\tR1\n\tB\n"],
                             ids=["empty_member", "empty_representative"])
    def test_cluster_tsv_rejects_empty_protein_id(self, tmp_path, rows):
        path = tmp_path / "clusters.tsv"
        path.write_text(rows)
        with pytest.raises(DataError, match=r"clusters\.tsv:2: empty protein id"):
            load_clusters_tsv(path)

    def test_cluster_tsv_import(self, tmp_path):
        path = tmp_path / "clusters.tsv"
        path.write_text("R1\tR1\nR1\tP9\nR2\tR2\n")
        clusters = load_clusters_tsv(path)
        assert [(c.representative, c.members) for c in clusters] == [
            ("R1", ["R1", "P9"]), ("R2", ["R2"])]

    def test_cluster_tsv_member_in_two_clusters(self, tmp_path):
        path = tmp_path / "clusters.tsv"
        path.write_text("R1\tP9\nR2\tP9\n")
        with pytest.raises(DataError):
            load_clusters_tsv(path)

    @pytest.mark.parametrize("rows", [
        "A\tB\nC\tA\n",  # a representative, then another cluster's member
        "A\tB\nB\tC\n",  # a member, then another cluster's representative
    ], ids=["rep_then_member", "member_then_rep"])
    def test_cluster_tsv_protein_in_rep_and_member_roles(self, tmp_path, rows):
        path = tmp_path / "clusters.tsv"
        path.write_text(rows)
        with pytest.raises(DataError, match=r"clusters\.tsv:2: .* in two clusters"):
            load_clusters_tsv(path)
