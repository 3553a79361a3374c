"""Fuzz the text readers: any bytes give a valid result or a MeltshiftError."""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from meltshift.data import load_dataset
from meltshift.errors import DataError, MeltshiftError
from meltshift.splitter import load_clusters_tsv, read_split

VALID = {
    load_dataset: b"protein_id,wt_sequence,mutation,dtm\n"
                  b"P1,MKIL,L4A,1.5\nP1,MKIL,K2C,-0.5\nP2,ACDEF,A1C,2.0\n",
    read_split: b"protein_id,split,cluster_rep\nP1,train,P1\nP2,val,P2\n",
    load_clusters_tsv: b"R1\tR1\nR1\tP9\nR2\tR2\n",
}
READERS = [pytest.param(reader, id=reader.__name__) for reader in VALID]

FUZZ = settings(derandomize=True, max_examples=80, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _read(reader, path, content: bytes):
    path.write_bytes(content)
    try:
        reader(path)
    except MeltshiftError:
        pass


@pytest.mark.parametrize("reader", READERS)
def test_valid_seed_files_read(reader, tmp_path):
    path = tmp_path / "f"
    path.write_bytes(VALID[reader])
    assert reader(path)


@pytest.mark.parametrize("reader", READERS)
@FUZZ
@given(content=st.binary(max_size=200))
def test_arbitrary_bytes(reader, content, tmp_path):
    _read(reader, tmp_path / "f", content)


@pytest.mark.parametrize("reader", READERS)
@FUZZ
@given(data=st.data(), insert=st.binary(min_size=1, max_size=8))
def test_bytes_inserted_into_a_valid_file(reader, data, insert, tmp_path):
    valid = VALID[reader]
    at = data.draw(st.integers(0, len(valid)))
    _read(reader, tmp_path / "f", valid[:at] + insert + valid[at:])


@pytest.mark.parametrize("reader", READERS)
def test_non_utf8_byte_names_the_path(reader, tmp_path):
    path = tmp_path / "f"
    path.write_bytes(VALID[reader] + b"\xff\n")
    with pytest.raises(DataError, match=re.escape(f"{path}: not UTF-8 text")):
        reader(path)


def test_csv_field_past_the_size_limit_is_data_error(tmp_path):
    path = tmp_path / "f"
    path.write_bytes(b"protein_id,wt_sequence,mutation,dtm\nP1," + b"M" * 200_000
                     + b",M1A,1.0\n")
    with pytest.raises(DataError, match="field limit"):
        load_dataset(path)
