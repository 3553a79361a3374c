"""Seeded inputs for the benchmark workloads, written once per seed.

Every input is a pure function of (workload, seed): the dataset CSV and,
for training, the split manifest and the DTME embedding bundles. Files are
written with
the package's own writers, so the measured run reads exactly what the
command line would read. Generation is untimed and runs in its own
process; the measured process only reads the cached directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np

AMINO = "ACDEFGHIKLMNPQRSTVWY"
ROLES = ("seq_cls", "seq_pos", "avg")  # what `meltshift synth-embed` writes

# Recipe widths. Record counts are chosen so every batch is full (n_train
# is a multiple of the batch size) and the validation side holds 20% of
# the records.
TRAIN_SPEC = dict(d_raw=1280, d_proj=128, batch=8, epochs=2,
                  proteins=10, val_proteins=2, muts=4)
SPLIT_SPEC = dict(proteins=1000, family_count=60, family_size=5,
                  len_lo=100, len_hi=800, identity=0.97, threshold=0.5)
PROTEIN_LEN = (280, 320)


def cache_key() -> str:
    """Changes whenever this generator changes, so stale inputs are never reused."""
    return hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:12]


def input_dir(cache_root: Path, workload: str, seed: int) -> Path:
    return cache_root / f"{workload}-{seed}-{cache_key()}"


def _rng(workload: str, seed: int) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, tag])


def _sequence(rng, length: int) -> str:
    return "".join(AMINO[i] for i in rng.integers(0, 20, size=length))


def _mutations(rng, ms, pid: str, seq: str, count: int, dtm_of):
    """``count`` distinct single substitutions of ``seq`` as records."""
    positions = sorted(int(p) for p in rng.choice(len(seq), size=count,
                                                  replace=False))
    out = []
    for pos0 in positions:
        wild = seq[pos0]
        mut = AMINO[(AMINO.index(wild) + int(rng.integers(1, 20))) % 20]
        out.append(ms.MutationRecord(pid, seq, ms.Mutation(pos0 + 1, wild, mut),
                                     dtm_of(pos0)))
    return out


def _f32(x: np.ndarray) -> np.ndarray:
    return x.astype(np.float32).astype(np.float64)


def _bundles(rng, ms, records, d_raw: int):
    """WT bundle per protein plus a nearby MUT bundle per record.

    Labels are a fixed linear readout of the MUT-minus-WT position track
    plus noise, so training has signal to fit.
    """
    readout = rng.normal(size=d_raw) / np.sqrt(d_raw)
    bundles, labelled = {}, []
    for r in records:
        wt_id = r.wt_variant_id
        if wt_id not in bundles:
            bundles[wt_id] = ms.EmbeddingBundle(
                wt_id, {role: _f32(rng.normal(size=d_raw)) for role in ROLES})
        wt = bundles[wt_id].tracks
        tracks = {role: _f32(wt[role] + 0.3 * rng.normal(size=d_raw))
                  for role in ROLES}
        bundles[r.mut_variant_id] = ms.EmbeddingBundle(r.mut_variant_id, tracks)
        dtm = 2.0 * float(readout @ (tracks["seq_pos"] - wt["seq_pos"])) \
            + float(rng.normal())
        labelled.append(ms.MutationRecord(r.protein_id, r.wt_sequence,
                                          r.mutation, round(dtm, 6)))
    return bundles, labelled


def _protein_records(rng, ms, n_proteins: int, muts: int):
    records = []
    for p in range(n_proteins):
        seq = _sequence(rng, int(rng.integers(PROTEIN_LEN[0], PROTEIN_LEN[1] + 1)))
        records += _mutations(rng, ms, f"P{p:04d}", seq, muts, lambda _: 0.0)
    return records


def _gen_train(rng, ms, spec, out: Path) -> dict:
    records = _protein_records(rng, ms, spec["proteins"], spec["muts"])
    bundles, records = _bundles(rng, ms, records, spec["d_raw"])
    pids = sorted({r.protein_id for r in records})
    val = {pids[i] for i in rng.choice(len(pids), size=spec["val_proteins"],
                                       replace=False)}
    assignment = {p: ("val" if p in val else "train") for p in pids}
    ms.write_split(out / "split.csv", ms.SplitAssignment(
        assignment, {p: p for p in pids}, 0, 0.5))
    ms.write_dataset(out / "dataset.csv", records)
    ms.write_bundles(out / "bundles.dtme", bundles)
    n_train = sum(assignment[r.protein_id] == "train" for r in records)
    return {"records": len(records), "train_records": n_train,
            "val_records": len(records) - n_train,
            "mutations_per_protein": spec["muts"]}


def _family_member(rng, root: str, identity: float) -> str:
    """A copy of ``root`` at the given identity, a few residues shorter.

    Shorter keeps the root the longest member, so greedy clustering meets
    it first and makes it the representative of the family.
    """
    seq = list(root[: len(root) - int(rng.integers(1, 9))])
    n_sub = int(round((1.0 - identity) * len(seq)))
    for pos in rng.choice(len(seq), size=n_sub, replace=False):
        seq[pos] = AMINO[(AMINO.index(seq[pos]) + int(rng.integers(1, 20))) % 20]
    return "".join(seq)


def _gen_split(rng, ms, spec, out: Path) -> dict:
    n = spec["proteins"]
    # stratified lengths: the same spread on every seed, shuffled
    lengths = np.linspace(spec["len_lo"], spec["len_hi"], n).round().astype(int)
    lengths = lengths[rng.permutation(n)]
    n_fam = spec["family_count"] * spec["family_size"]
    proteins, families = {}, []
    for f in range(spec["family_count"]):
        base = f * spec["family_size"]
        root = _sequence(rng, int(lengths[base]))
        members = [f"F{f:03d}_{j}" for j in range(spec["family_size"])]
        proteins[members[0]] = root
        for pid in members[1:]:
            proteins[pid] = _family_member(rng, root, spec["identity"])
        families.append(members)
    for i in range(n_fam, n):
        proteins[f"U{i:04d}"] = _sequence(rng, int(lengths[i]))
    records = []
    for pid, seq in proteins.items():
        records += _mutations(rng, ms, pid, seq, int(rng.integers(1, 5)),
                              lambda _: round(float(rng.normal(0.0, 2.0)), 6))
    ms.write_dataset(out / "dataset.csv", records)
    (out / "families.json").write_text(json.dumps(families))
    lens = [len(s) for s in proteins.values()]
    return {"proteins": n, "records": len(records),
            "family_share": n_fam / n, "families": len(families),
            "expected_clusters": len(families) + (n - n_fam),
            "length_min": min(lens), "length_max": max(lens),
            "length_mean": float(np.mean(lens))}


def generate(workload: str, seed: int, cache_root: Path) -> Path:
    """Write the inputs of (workload, seed) unless already cached."""
    import meltshift as ms

    final = input_dir(cache_root, workload, seed)
    if (final / "properties.json").exists():
        return final
    tmp = final.with_name(final.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    rng = _rng(workload, seed)
    if workload == "train_full":
        spec = TRAIN_SPEC
        props = _gen_train(rng, ms, spec, tmp)
    elif workload == "split_corpus":
        spec = SPLIT_SPEC
        props = _gen_split(rng, ms, spec, tmp)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    props.update(workload=workload, seed=seed, spec=spec)
    (tmp / "properties.json").write_text(json.dumps(props, indent=1,
                                                    sort_keys=True))
    shutil.rmtree(final, ignore_errors=True)
    tmp.rename(final)
    return final
