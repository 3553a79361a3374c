"""The text readers: any bytes give a valid result or a MeltshiftError, and a
fault of one kind is worded alike in every table."""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from meltshift.data import DATASET_HEADER, load_dataset
from meltshift.errors import DataError, MeltshiftError
from meltshift.splitter import SPLIT_HEADER, Cluster, load_clusters_tsv, read_split

VALID = {
    load_dataset: b"protein_id,wt_sequence,mutation,dtm\n"
                  b"P1,MKIL,L4A,1.5\nP1,MKIL,K2C,-0.5\nP2,ACDEF,A1C,2.0\n",
    read_split: b"protein_id,split,cluster_rep\nP1,train,P1\nP2,val,P2\n",
    load_clusters_tsv: b"R1\tR1\nR1\tP9\nR2\tR2\n",
}
READERS = [pytest.param(reader, id=reader.__name__) for reader in VALID]
HEADERS = {load_dataset: DATASET_HEADER, read_split: SPLIT_HEADER}
CSV_READERS = [pytest.param(reader, id=reader.__name__) for reader in HEADERS]

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


@pytest.mark.parametrize("reader", READERS)
def test_csv_field_past_the_size_limit_is_data_error(reader, tmp_path):
    path = tmp_path / "f"
    path.write_bytes(VALID[reader] + b"M" * 200_000 + b"\n")
    with pytest.raises(DataError) as caught:
        reader(path)
    assert str(caught.value) == f"{path}: field larger than field limit (131072)"


@pytest.mark.parametrize("reader", CSV_READERS)
def test_wrong_header_worded_alike(reader, tmp_path):
    path = tmp_path / "f"
    path.write_bytes(b"protein_id,split\nP1,train\n")
    with pytest.raises(DataError) as caught:
        reader(path)
    assert str(caught.value) == (f"{path}: bad header ['protein_id', 'split'], "
                                 f"expected {HEADERS[reader]!r}")


@pytest.mark.parametrize("reader", CSV_READERS)
def test_empty_file_worded_alike(reader, tmp_path):
    path = tmp_path / "f"
    path.write_bytes(b"")
    with pytest.raises(DataError) as caught:
        reader(path)
    assert str(caught.value) == f"{path}: empty file, expected {HEADERS[reader]!r}"


@pytest.mark.parametrize("reader", READERS)
def test_row_of_another_width_worded_alike(reader, tmp_path):
    # the valid file with one more field on its second line
    sep = b"\t" if reader is load_clusters_tsv else b","
    lines = VALID[reader].split(b"\n")
    width = len(lines[1].split(sep))
    lines[1] += sep + b"X"
    path = tmp_path / "f"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(DataError) as caught:
        reader(path)
    assert str(caught.value) == f"{path}:2: expected {width} fields, got {width + 1}"


def test_crlf_cluster_table_reads_as_its_lf_twin(tmp_path):
    # quote characters are part of an id, and a PDB chain id holds a colon
    lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
    lf.write_bytes(b'1ABC:A\t1ABC:A\n1ABC:A\t"P2"\n\nP3\tP4\n')
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    assert load_clusters_tsv(crlf) == load_clusters_tsv(lf) == [
        Cluster("1ABC:A", ["1ABC:A", '"P2"']), Cluster("P3", ["P3", "P4"])]


@pytest.mark.parametrize("reader,content", [
    pytest.param(load_dataset, VALID[load_dataset], id="load_dataset"),
    pytest.param(read_split, VALID[read_split], id="read_split"),
    # read as a character, the mark would name a phantom first protein
    pytest.param(load_clusters_tsv, b"A\tA\nB\tB\n", id="load_clusters_tsv"),
])
def test_leading_bom_reads_as_nothing(reader, content, tmp_path):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(content)
    marked.write_bytes(b"\xef\xbb\xbf" + content)
    assert reader(marked) == reader(plain)
