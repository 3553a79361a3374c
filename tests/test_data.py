import hashlib
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from meltshift.data import (
    AMINO_ACIDS,
    EmbeddingBundle,
    Mutation,
    MutationRecord,
    apply_mutation,
    load_dataset,
    parse_mutation,
    read_bundles,
    synth_bundles,
    synth_embed,
    wild_types,
    write_bundles,
    write_dataset,
    _hash_values,
)
from meltshift.errors import DataError, FormatError
from meltshift.splitter import split_records

from conftest import random_records


class TestParseMutation:
    def test_figure_example(self):
        mu = parse_mutation("I4A")
        assert (mu.wild_aa, mu.position, mu.mut_aa) == ("I", 4, "A")

    def test_minimal_position(self):
        mu = parse_mutation("A1C")
        assert (mu.wild_aa, mu.position, mu.mut_aa) == ("A", 1, "C")

    @pytest.mark.parametrize("code", ["I4I", "I0A", "Z4A", "A4B", "i4a",
                                      "4A", "IA", "I-4A", "", "I4"])
    def test_rejects_invalid(self, code):
        with pytest.raises(DataError):
            parse_mutation(code)

    @pytest.mark.parametrize("code", ["A²G", "A٤G", "A１G", "A1²G"])
    def test_rejects_positions_not_in_ascii_digits(self, code):
        # str.isdigit() accepts these; int() rejects some and reads others
        with pytest.raises(DataError, match="malformed mutation code"):
            parse_mutation(code)

    @given(
        pos=st.integers(min_value=1, max_value=9999),
        pair=st.tuples(st.sampled_from(AMINO_ACIDS),
                       st.sampled_from(AMINO_ACIDS)).filter(lambda p: p[0] != p[1]),
    )
    def test_parse_format_roundtrip(self, pos, pair):
        mu = Mutation(pos, pair[0], pair[1])
        assert parse_mutation(mu.code) == mu


class TestApplyMutation:
    def test_substitution(self):
        assert apply_mutation("MKIL", Mutation(4, "L", "A")) == "MKIA"

    def test_boundary_position(self):
        assert apply_mutation("AC", Mutation(1, "A", "C")) == "CC"

    def test_wild_type_mismatch(self):
        with pytest.raises(DataError, match="expected I.*found K"):
            apply_mutation("MKIL", Mutation(2, "I", "A"))

    def test_out_of_range(self):
        with pytest.raises(DataError, match="out of range"):
            apply_mutation("MK", Mutation(5, "I", "A"))

    def test_hamming_distance_one(self):
        for rec in random_records(6, 2, seed=11):
            mutated = apply_mutation(rec.wt_sequence, rec.mutation)
            assert len(mutated) == len(rec.wt_sequence)
            diffs = [i for i, (a, b) in enumerate(zip(rec.wt_sequence, mutated))
                     if a != b]
            assert diffs == [rec.mutation.position - 1]


class TestDataset:
    def test_roundtrip(self, tmp_path, tiny_records):
        path = tmp_path / "data.csv"
        write_dataset(path, tiny_records)
        assert load_dataset(path) == tiny_records

    def test_three_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "protein_id,wt_sequence,mutation,dtm\n"
            "P1,MKIL,L4A,1.5\nP1,MKIL,K2C,-0.5\nP2,ACDEF,A1C,2.0\n"
        )
        assert len(load_dataset(path)) == 3

    def test_nan_label_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("protein_id,wt_sequence,mutation,dtm\nP1,MKIL,L4A,NaN\n")
        with pytest.raises(DataError, match=":2:"):
            load_dataset(path)

    def test_wt_letter_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "protein_id,wt_sequence,mutation,dtm\n"
            "P1,MKIL,L4A,1.0\nP2,MKIL,I4A,1.0\n"
        )
        with pytest.raises(DataError, match=":3:"):
            load_dataset(path)

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "protein_id,wt_sequence,mutation,dtm\n"
            "P1,MKIL,L4A,1.0\nP1,MKIL,L4A,2.0\n"
        )
        with pytest.raises(DataError, match="duplicate"):
            load_dataset(path)

    def test_duplicate_variant_under_another_spelling_rejected(self, tmp_path):
        # A01C and A1C name the one variant P1:A1C
        path = tmp_path / "d.csv"
        path.write_text(
            "protein_id,wt_sequence,mutation,dtm\n"
            "P1,AKIL,A01C,1.0\nP1,AKIL,A1C,2.0\n"
        )
        with pytest.raises(DataError, match=r":3: duplicate .* line 2"):
            load_dataset(path)

    def test_conflicting_wt_sequence_names_both_lines(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "protein_id,wt_sequence,mutation,dtm\n"
            "P1,MKIL,L4A,1.0\nP2,ACDEF,A1C,2.0\nP1,MKIV,K2C,-0.5\n"
        )
        with pytest.raises(DataError, match=r":4: P1 .*wt_sequence.* line 2"):
            load_dataset(path)

    def test_later_row_with_non_canonical_sequence_names_its_residues(self, tmp_path):
        # every row's sequence is scanned, before the rows are compared
        path = tmp_path / "d.csv"
        path.write_text(
            "protein_id,wt_sequence,mutation,dtm\n"
            "P1,MKIL,L4A,1.0\nP1,MKIL,K2C,2.0\nP1,MXIL,K2C,-0.5\n"
        )
        with pytest.raises(DataError) as caught:
            load_dataset(path)
        assert str(caught.value) == f"{path}:4: P1: non-canonical residues ['X']"

    @pytest.mark.parametrize("seq, bad", [
        ("MKéL", ["é"]), ("MkIL", ["k"]), ("MK\tIL", ["\t"]),
        ("M\x00KIé", ["\x00", "é"]), ("MKIL\x7f", ["\x7f"]),
    ])
    def test_record_names_its_non_canonical_residues(self, seq, bad):
        # non-ASCII, lowercase and control characters, sorted
        with pytest.raises(DataError) as caught:
            MutationRecord("P1", seq, Mutation(1, "M", "A"), 1.0)
        assert str(caught.value) == f"P1: non-canonical residues {bad}"

    def test_blank_row_skipped_and_still_counted_as_a_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "protein_id,wt_sequence,mutation,dtm\n"
            "P1,MKIL,L4A,1.0\n\nP1,MKIL,K2C\n"
        )
        with pytest.raises(DataError) as caught:
            load_dataset(path)
        assert str(caught.value) == f"{path}:4: expected 4 fields, got 3"

    def test_quoted_field_over_two_lines_counts_both(self, tmp_path):
        # row 2's dtm spans lines 2-3, so the three-field row is line 4
        path = tmp_path / "d.csv"
        path.write_text('protein_id,wt_sequence,mutation,dtm\n'
                        'P1,MKIL,L4A,"1.0\n"\nP1,MKIL,K2C\n')
        with pytest.raises(DataError) as caught:
            load_dataset(path)
        assert str(caught.value) == f"{path}:4: expected 4 fields, got 3"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,seq,mut,y\nP1,MKIL,L4A,1.0\n")
        with pytest.raises(DataError, match="header"):
            load_dataset(path)


def bundle_fixture(seed=0, d_raw=8):
    rng = np.random.default_rng(seed)

    def vec():
        return rng.normal(size=d_raw).astype(np.float32).astype(np.float64)

    return {
        "P1:WT": EmbeddingBundle("P1:WT", {"seq_cls": vec(), "seq_pos": vec()}),
        "P1:L4A": EmbeddingBundle("P1:L4A", {"seq_cls": vec(), "seq_pos": vec()}),
    }


class TestBundleFormat:
    def test_roundtrip_bit_exact(self, tmp_path):
        path = tmp_path / "b.dtme"
        bundles = bundle_fixture()
        write_bundles(path, bundles)
        back = read_bundles(path)
        assert set(back) == set(bundles)
        for vid, b in bundles.items():
            assert set(back[vid].tracks) == set(b.tracks)
            for role, vec in b.tracks.items():
                assert np.array_equal(back[vid].tracks[role], vec)

    def test_rewrite_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.dtme", tmp_path / "b.dtme"
        bundles = bundle_fixture()
        write_bundles(p1, bundles)
        write_bundles(p2, read_bundles(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_set(self, tmp_path):
        path = tmp_path / "empty.dtme"
        write_bundles(path, {})
        assert read_bundles(path) == {}

    def test_mixed_widths_rejected(self, tmp_path):
        bad = EmbeddingBundle("X:WT", {"seq_cls": np.ones(4), "seq_pos": np.ones(5)})
        with pytest.raises(DataError, match="inconsistent"):
            write_bundles(tmp_path / "x.dtme", {"X:WT": bad})

    def test_key_other_than_variant_id_rejected(self, tmp_path):
        bundle = bundle_fixture()["P1:WT"]
        with pytest.raises(DataError) as err:
            write_bundles(tmp_path / "k.dtme", {"P2:WT": bundle})
        assert str(err.value) == "bundle key 'P2:WT' != variant_id 'P1:WT'"

    def test_bundles_of_two_widths_rejected(self, tmp_path):
        narrow = EmbeddingBundle("P2:WT", {"seq_cls": np.ones(6), "seq_pos": np.ones(6)})
        with pytest.raises(DataError) as err:
            write_bundles(tmp_path / "w.dtme", {**bundle_fixture(), "P2:WT": narrow})
        assert str(err.value) == "P2:WT: width 6 differs from file width 8"

    def test_variant_id_over_65535_utf8_bytes_rejected(self, tmp_path):
        # 32 768 two-byte letters: 65 536 bytes in 32 768 characters
        long_id, fits = "é" * 32768, "é" * 32767 + "P"
        tracks = {"seq_cls": np.ones(2), "seq_pos": np.ones(2)}
        path = tmp_path / "long.dtme"
        with pytest.raises(DataError) as err:
            write_bundles(path, {long_id: EmbeddingBundle(long_id, tracks)})
        assert str(err.value) == f"variant_id too long: {'é' * 40}..."
        assert not path.exists()
        write_bundles(path, {fits: EmbeddingBundle(fits, tracks)})
        assert list(read_bundles(path)) == [fits]

    def test_bundle_without_tracks_rejected(self):
        with pytest.raises(DataError) as err:
            EmbeddingBundle("X:WT", {}).validate()
        assert str(err.value) == "X:WT: bundle has no tracks"

    def test_unknown_track_role_rejected(self):
        with pytest.raises(DataError) as err:
            EmbeddingBundle("X:WT", {"seq_cls": np.ones(4), "bogus": np.ones(4)}).validate()
        assert str(err.value) == "X:WT: unknown track role 'bogus'"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dtme"
        path.write_bytes(b"NOPE" + b"\0" * 12)
        with pytest.raises(FormatError, match="magic"):
            read_bundles(path)

    def test_truncated_record_reports_offset(self, tmp_path):
        path = tmp_path / "t.dtme"
        write_bundles(path, bundle_fixture())
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(FormatError, match="offset"):
            read_bundles(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.dtme"
        write_bundles(path, bundle_fixture())
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(FormatError, match="trailing"):
            read_bundles(path)

    def test_duplicate_track_rejected(self, tmp_path):
        path = tmp_path / "dup.dtme"
        ident = b"X:WT"
        rec = struct.pack("<H", len(ident)) + ident + struct.pack("<B", 0)
        rec += np.ones(2, dtype="<f4").tobytes()
        blob = b"DTME" + struct.pack("<III", 1, 2, 2) + rec + rec
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="duplicate"):
            read_bundles(path)

    def test_non_utf8_variant_id_reports_offset(self, tmp_path):
        path = tmp_path / "u.dtme"
        ident = b"\xff\xfe"
        rec = struct.pack("<H", len(ident)) + ident + struct.pack("<B", 0)
        rec += np.ones(2, dtype="<f4").tobytes()
        path.write_bytes(b"DTME" + struct.pack("<III", 1, 2, 1) + rec)
        with pytest.raises(FormatError, match="UTF-8 at offset 18"):
            read_bundles(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v.dtme"
        path.write_bytes(b"DTME" + struct.pack("<III", 9, 2, 0))
        with pytest.raises(FormatError, match="version"):
            read_bundles(path)


ROLES = ("seq_cls", "seq_pos", "avg")


def recipe_width_file(path, n_variants, d_raw=1280):
    rng = np.random.default_rng(3)
    write_bundles(path, {
        f"P{i:03d}:WT": EmbeddingBundle(f"P{i:03d}:WT", {
            role: rng.normal(size=d_raw).astype(np.float32).astype(np.float64)
            for role in ROLES})
        for i in range(n_variants)})


class TestBundleTables:
    def test_tracks_are_rows_of_one_table_per_role(self, tmp_path):
        path = tmp_path / "b.dtme"
        recipe_width_file(path, 5, d_raw=4)
        back = read_bundles(path)
        for role in ROLES:
            table = back["P000:WT"].tracks[role].base
            assert table.shape == (5, 4) and table.dtype == np.float64
            for row, bundle in enumerate(back.values()):
                assert bundle.tracks[role].base is table
                assert np.shares_memory(bundle.tracks[role], table[row])

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_unmappable_file_is_format_error(self, tmp_path):
        path = tmp_path / "b.dtme"
        recipe_width_file(path, 1, d_raw=2)
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, path.read_bytes())
            os.close(write_end)
            with pytest.raises(FormatError, match="cannot map the file"):
                read_bundles(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)

    def test_read_peak_is_the_tables_plus_one_block(self, tmp_path):
        # the float64 tables are 2x the float32 payload; beyond them the
        # read holds the index and the bundle objects, under 320 bytes a
        # record (about 250 measured), plus a fixed 64 KiB
        n_variants, records, d_raw = 120, 360, 1280
        path = tmp_path / "b.dtme"
        recipe_width_file(path, n_variants, d_raw)
        read_bundles(path)  # warm imports and caches out of the measurement
        tracemalloc.start()
        try:
            back = read_bundles(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(back) == n_variants
        table_bytes = records * d_raw * 8
        assert peak <= table_bytes + 320 * records + (64 << 10)
        assert peak <= 2.1 * path.stat().st_size


class TestSynthEmbed:
    def test_deterministic(self, tiny_records):
        a = synth_embed(tiny_records[0], "MUT", 16, seed=3)
        b = synth_embed(tiny_records[0], "MUT", 16, seed=3)
        assert a.variant_id == b.variant_id
        for role in a.tracks:
            assert np.array_equal(a.tracks[role], b.tracks[role])

    def test_different_sequences_differ(self, tiny_records):
        a = synth_embed(tiny_records[0], "WT", 16, seed=3)
        b = synth_embed(tiny_records[2], "WT", 16, seed=3)
        assert any(not np.array_equal(a.tracks[r], b.tracks[r]) for r in a.tracks)

    def test_mut_differs_from_wt_on_seq_pos(self, tiny_records):
        wt = synth_embed(tiny_records[0], "WT", 16, seed=3)
        mut = synth_embed(tiny_records[0], "MUT", 16, seed=3)
        assert not np.array_equal(wt.tracks["seq_pos"], mut.tracks["seq_pos"])

    def test_values_are_float32_representable(self, tiny_records):
        b = synth_embed(tiny_records[0], "WT", 32, seed=5)
        for vec in b.tracks.values():
            assert np.array_equal(vec, vec.astype(np.float32).astype(np.float64))

    def test_struct_modality_tracks(self, tiny_records):
        b = synth_embed(tiny_records[0], "WT", 8, seed=1,
                        modalities=("seq", "struct"))
        assert set(b.tracks) == {"seq_cls", "seq_pos", "struct_cls",
                                 "struct_pos", "avg"}

    def test_wt_dedup_counts(self, tiny_records):
        bundles = synth_bundles(tiny_records, 8, seed=2)
        # 2 proteins -> 2 WT bundles; 3 records -> 3 MUT bundles
        assert len(bundles) == 5
        wt = [v for v in bundles if v.endswith(":WT")]
        assert sorted(wt) == ["P1:WT", "P2:WT"]

    def test_bundles_survive_file_roundtrip_bit_exact(self, tmp_path, tiny_records):
        bundles = synth_bundles(tiny_records, 8, seed=2)
        path = tmp_path / "s.dtme"
        write_bundles(path, bundles)
        back = read_bundles(path)
        for vid, b in bundles.items():
            for role, vec in b.tracks.items():
                assert np.array_equal(back[vid].tracks[role], vec)

    def test_invalid_d_raw(self, tiny_records):
        with pytest.raises(DataError):
            synth_embed(tiny_records[0], "WT", 0, seed=1)

    def test_invalid_variant(self, tiny_records):
        with pytest.raises(DataError) as caught:
            synth_embed(tiny_records[0], "wt", 8, seed=1)
        assert str(caught.value) == "variant must be WT or MUT, got 'wt'"

    @pytest.mark.parametrize("n", [1, 3, 4, 5, 8, 31, 1280, 1281])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_hash_values_match_the_digest_loop(self, n, seed):
        # one value per 8 digest bytes, read and scaled in Python
        key = f"{seed}|WT|seq_cls|MKIL".encode("utf-8")
        vals, counter = [], 0
        while len(vals) < n:
            digest = hashlib.sha256(key + b"#" + counter.to_bytes(8, "little"))
            for k in range(0, 32, 8):
                u = int.from_bytes(digest.digest()[k:k + 8], "little")
                vals.append(u / 2.0**63 - 1.0)
            counter += 1
        want = np.array(vals[:n]).astype(np.float32).astype(np.float64)
        got = _hash_values(seed, "WT", "seq_cls", "MKIL", n)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_one_wild_type_per_protein_in_memory():
    records = [MutationRecord("P2", "ACDEF", Mutation(1, "A", "C"), 2.0),
               MutationRecord("P1", "MKIL", Mutation(4, "L", "A"), 1.5),
               MutationRecord("P2", "ACDEF", Mutation(2, "C", "D"), 0.5)]
    assert list(wild_types(records).items()) == [("P2", "ACDEF"), ("P1", "MKIL")]
    # the helper is the one conflict check behind bundles and splits
    records.append(MutationRecord("P1", "MKIV", Mutation(2, "K", "C"), -0.5))
    for reader in (wild_types, split_records,
                   lambda records: synth_bundles(records, 4, seed=0)):
        with pytest.raises(DataError, match="P1: conflicting wild-type sequences"):
            reader(records)
