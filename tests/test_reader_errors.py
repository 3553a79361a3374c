"""The errors of dataset rows and DTME records, word for word.

A row error names its line; a DTME error names its byte offset, or the
``variant/role`` it is about. The expected texts are exact, so a change
to how the readers work cannot change what they report.
"""

import struct

import numpy as np
import pytest

from meltshift.data import load_dataset, read_bundles
from meltshift.errors import DataError, FormatError

HEADER = "protein_id,wt_sequence,mutation,dtm\n"
GOOD_ROW = "P1,MKIL,L4A,1.0\n"  # line 2; every bad row below is line 3

DATASET_ERRORS = {
    "non_canonical_residues": ("P2,MBXL,M1A,1.0\n",
                               "3: P2: non-canonical residues ['B', 'X']"),
    "position_out_of_range": ("P2,MKIL,L9A,1.0\n",
                              "3: mutation L9A out of range for sequence of "
                              "length 4"),
    "wild_type_mismatch": ("P2,MKIL,I4A,1.0\n",
                           "3: mutation I4A: expected I at position 4, found L"),
    "non_finite_dtm": ("P2,MKIL,L4A,inf\n", "3: P2 L4A: non-finite dtm"),
    "nan_dtm": ("P2,MKIL,L4A,nan\n", "3: P2 L4A: non-finite dtm"),
    "duplicate_row": ("P1,MKIL,L04A,2.0\n",
                      "3: duplicate record P1 L04A, same variant as line 2"),
    "conflicting_wt_sequence": ("P1,MKIV,K2C,2.0\n",
                                "3: P1 has another wt_sequence than on line 2"),
}


@pytest.mark.parametrize("row, message", DATASET_ERRORS.values(),
                         ids=DATASET_ERRORS.keys())
def test_dataset_row_error(row, message, tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(HEADER + GOOD_ROW + row, encoding="utf-8")
    with pytest.raises(DataError) as caught:
        load_dataset(path)
    assert str(caught.value) == f"{path}:{message}"


def header(count, d_raw=2, version=1):
    return b"DTME" + struct.pack("<III", version, d_raw, count)


def record(ident: bytes, tag=0, values=(1.0, 2.0)):
    return (struct.pack("<H", len(ident)) + ident + bytes([tag])
            + np.asarray(values, dtype="<f4").tobytes())


NAN, INF = float("nan"), float("inf")

# name -> (file bytes, error class, message after "<path>: ", or the whole
# message where it names a variant rather than the file)
DTME_ERRORS = {
    "empty_file": (b"", FormatError, "bad magic b'' at offset 0"),
    "three_bytes": (b"DTM", FormatError, "bad magic b'DTM' at offset 0"),
    "bad_magic": (b"NOPE" + b"\0" * 12, FormatError,
                  "bad magic b'NOPE' at offset 0"),
    "truncated_header": (b"DTME\x01\x00", FormatError,
                         "truncated header at offset 6"),
    "unknown_version": (header(0, version=9), FormatError,
                        "unsupported version 9 at offset 4"),
    "truncated_id_length": (header(1) + b"\x04", FormatError,
                            "truncated record at offset 16"),
    "truncated_vector": (header(2) + record(b"X:WT") + record(b"X:WT", 1)[:-1],
                         FormatError, "truncated record at offset 33"),
    "count_past_end": (header(2) + record(b"X:WT"), FormatError,
                       "truncated record at offset 31"),
    "non_utf8_id": (header(1) + record(b"\xff\xfe"), FormatError,
                    "variant id is not UTF-8 at offset 18"),
    "unknown_tag": (header(2) + record(b"X:WT") + record(b"X:WT", 7),
                    FormatError, "unknown track tag 7 at offset 37"),
    "duplicate_track": (header(3) + record(b"X:WT") + record(b"Y:WT")
                        + record(b"X:WT"), FormatError,
                        "duplicate track X:WT/seq_cls"),
    "trailing_bytes": (header(1) + record(b"X:WT") + b"junk", FormatError,
                       "4 trailing bytes at 31"),
    "non_finite_value": (header(3) + record(b"B:WT") + record(b"B:WT", 1)
                         + record(b"A:WT", 0, (1.0, NAN)), DataError,
                         "A:WT/seq_cls: non-finite entries"),
    # the first bad variant in file order wins over the first bad role
    "first_bad_variant_named": (header(4) + record(b"B:WT", 0)
                                + record(b"B:WT", 4, (INF, 0.0))
                                + record(b"A:WT", 0, (-INF, 0.0))
                                + record(b"A:WT", 4), DataError,
                                "B:WT/avg: non-finite entries"),
    "empty_variant_id": (header(2) + record(b"X:WT") + record(b"", 0, (NAN, 0)),
                         DataError, "bundle with empty variant_id"),
    "zero_width": (header(1, d_raw=0) + record(b"X:WT", 2, ()), DataError,
                   "X:WT/struct_cls: track must be 1-D"),
}


@pytest.mark.parametrize("blob, error, message", DTME_ERRORS.values(),
                         ids=DTME_ERRORS.keys())
def test_dtme_error(blob, error, message, tmp_path):
    path = tmp_path / "b.dtme"
    path.write_bytes(blob)
    with pytest.raises(error) as caught:
        read_bundles(path)
    expected = message if error is DataError else f"{path}: {message}"
    assert type(caught.value) is error
    assert str(caught.value) == expected
