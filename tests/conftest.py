import numpy as np
import pytest

from meltshift.data import AMINO_ACIDS, Mutation, MutationRecord


def random_records(n_proteins, muts_per_protein, seed, seq_len=(12, 30),
                   dtm_scale=3.0):
    """Valid random mutation records for desk-scale fixtures."""
    rng = np.random.default_rng(seed)
    records = []
    for p in range(n_proteins):
        length = int(rng.integers(seq_len[0], seq_len[1] + 1))
        seq = "".join(AMINO_ACIDS[i] for i in rng.integers(0, 20, size=length))
        pid = f"P{p:03d}"
        positions = rng.choice(length, size=min(muts_per_protein, length),
                               replace=False)
        for pos0 in sorted(int(x) for x in positions):
            wild = seq[pos0]
            others = [a for a in AMINO_ACIDS if a != wild]
            mut = others[int(rng.integers(0, len(others)))]
            dtm = float(rng.normal(0.0, dtm_scale))
            records.append(
                MutationRecord(pid, seq, Mutation(pos0 + 1, wild, mut), dtm)
            )
    return records


def records_with_homologs(seed, n_proteins=50, planted_pairs=8,
                          muts_per_protein=3, seq_len=(24, 40)):
    """Random records plus planted near-duplicate proteins.

    Returns (records, pairs) where each pair (a, b) is a protein and its
    single-substitution homolog; any homology-aware split must keep the
    two on the same side.
    """
    rng = np.random.default_rng(seed)
    records = random_records(n_proteins, muts_per_protein, seed=seed,
                             seq_len=seq_len)
    proteins = {r.protein_id: r.wt_sequence for r in records}
    pids = sorted(proteins)
    pairs = []
    for i in range(planted_pairs):
        src = pids[i]
        seq = proteins[src]
        pos = int(rng.integers(0, len(seq)))
        other = next(a for a in AMINO_ACIDS if a != seq[pos])
        hom_seq = seq[:pos] + other + seq[pos + 1:]
        hom_id = f"H{i:03d}"
        mut_pos = int(rng.integers(0, len(hom_seq)))
        mut_wild = hom_seq[mut_pos]
        mut_to = next(a for a in AMINO_ACIDS if a != mut_wild)
        records.append(MutationRecord(hom_id, hom_seq,
                                      Mutation(mut_pos + 1, mut_wild, mut_to),
                                      float(rng.normal())))
        pairs.append((src, hom_id))
    return records, pairs


@pytest.fixture
def tiny_records():
    return [
        MutationRecord("P1", "MKIL", Mutation(4, "L", "A"), 1.5),
        MutationRecord("P1", "MKIL", Mutation(2, "K", "C"), -0.5),
        MutationRecord("P2", "ACDEF", Mutation(1, "A", "C"), 2.0),
    ]
