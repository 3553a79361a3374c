"""Fuzz the DTME reader: any bytes give bundles or a MeltshiftError."""

import math
import struct

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from meltshift.data import EmbeddingBundle, read_bundles, write_bundles
from meltshift.errors import DataError, FormatError, MeltshiftError

D_RAW = 3
HEADER_BYTES = 16
BUNDLES = {
    vid: EmbeddingBundle(vid, {role: np.arange(D_RAW) + 10.0 * i + j
                               for j, role in enumerate(roles)})
    for i, (vid, roles) in enumerate([("P1:L4A", ("seq_cls", "avg")),
                                      ("P1:WT", ("seq_cls", "avg")),
                                      ("P10:WT", ("seq_cls", "seq_pos", "avg"))])
}


def _valid_file(tmp_path) -> bytes:
    path = tmp_path / "valid.dtme"
    write_bundles(path, BUNDLES)
    return path.read_bytes()


def _records(blob: bytes) -> list[tuple[int, int, int]]:
    """(record start, tag offset, vector offset) of every record."""
    out, offset = [], HEADER_BYTES
    while offset < len(blob):
        (id_len,) = struct.unpack_from("<H", blob, offset)
        tag_at = offset + 2 + id_len
        out.append((offset, tag_at, tag_at + 1))
        offset = tag_at + 1 + 4 * D_RAW
    return out


FUZZ = settings(derandomize=True, max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _read(tmp_path, blob: bytes):
    """The bundles, or the MeltshiftError the reader raised."""
    path = tmp_path / "f.dtme"
    path.write_bytes(blob)
    try:
        return read_bundles(path)
    except MeltshiftError as exc:
        return exc


def test_valid_file_reads_back(tmp_path):
    back = _read(tmp_path, _valid_file(tmp_path))
    assert list(back) == sorted(BUNDLES)
    for vid, bundle in BUNDLES.items():
        assert list(back[vid].tracks) == list(bundle.tracks)
        for role, vec in bundle.tracks.items():
            assert np.array_equal(back[vid].tracks[role], vec)


@FUZZ
@given(blob=st.binary(max_size=300))
def test_arbitrary_bytes(blob, tmp_path):
    _read(tmp_path, blob)


@FUZZ
@given(blob=st.binary(max_size=200))
def test_arbitrary_bytes_after_a_valid_header(blob, tmp_path):
    _read(tmp_path, b"DTME" + struct.pack("<II", 1, D_RAW) + blob)


@FUZZ
@given(data=st.data(), insert=st.binary(min_size=1, max_size=8))
def test_bytes_inserted(data, insert, tmp_path):
    valid = _valid_file(tmp_path)
    at = data.draw(st.integers(0, len(valid)))
    _read(tmp_path, valid[:at] + insert + valid[at:])


@FUZZ
@given(data=st.data())
def test_byte_dropped(data, tmp_path):
    valid = _valid_file(tmp_path)
    at = data.draw(st.integers(0, len(valid) - 1))
    _read(tmp_path, valid[:at] + valid[at + 1:])


@FUZZ
@given(data=st.data(), mask=st.integers(1, 255))
def test_byte_flipped(data, mask, tmp_path):
    valid = bytearray(_valid_file(tmp_path))
    valid[data.draw(st.integers(0, len(valid) - 1))] ^= mask
    _read(tmp_path, bytes(valid))


@FUZZ
@given(data=st.data())
def test_truncated_at_a_record_boundary(data, tmp_path):
    valid = _valid_file(tmp_path)
    starts = [start for start, _, _ in _records(valid)]
    cut = data.draw(st.sampled_from(starts))
    result = _read(tmp_path, valid[:cut])
    assert isinstance(result, FormatError)
    assert str(result).endswith(f"truncated record at offset {cut}")


@FUZZ
@given(data=st.data(), value=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_non_finite_payload_names_its_track(data, value, tmp_path):
    valid = bytearray(_valid_file(tmp_path))
    records = _records(bytes(valid))
    k = data.draw(st.integers(0, len(records) - 1))
    at = records[k][2] + 4 * data.draw(st.integers(0, D_RAW - 1))
    valid[at:at + 4] = struct.pack("<f", value)
    result = _read(tmp_path, bytes(valid))
    vid, role = [(vid, role) for vid in sorted(BUNDLES)
                 for role in BUNDLES[vid].tracks][k]
    assert type(result) is DataError
    assert str(result) == f"{vid}/{role}: non-finite entries"


@FUZZ
@given(data=st.data(), tag=st.integers(5, 255))
def test_unknown_tag_names_its_offset(data, tag, tmp_path):
    valid = bytearray(_valid_file(tmp_path))
    _, tag_at, _ = data.draw(st.sampled_from(_records(bytes(valid))))
    valid[tag_at] = tag
    result = _read(tmp_path, bytes(valid))
    assert isinstance(result, FormatError)
    assert str(result).endswith(f"unknown track tag {tag} at offset {tag_at}")
