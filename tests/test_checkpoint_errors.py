"""The errors of the MSCK checkpoint reader and of ``train --config``.

Every layout fault of a checkpoint is a FormatError whose text names the
file and the offset, and through the CLI it is exit 3. The fuzz tests
feed arbitrary bytes and mutations of a valid checkpoint to the reader,
and arbitrary bytes to ``--config``: each input gives a Checkpoint or a
MeltshiftError, and the CLI an exit code, never a traceback.
"""

import json
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from meltshift.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from meltshift.cli import main
from meltshift.data import synth_bundles, write_bundles, write_dataset
from meltshift.errors import FormatError, MeltshiftError
from meltshift.heads import build_model
from meltshift.optim import AdamState

from conftest import random_records

D_RAW, D_PROJ = 6, 4
RECORDS = random_records(2, 1, seed=3)
SPEC = f"{RECORDS[0].protein_id}:{RECORDS[0].mutation.code}"


@pytest.fixture(scope="module")
def valid(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("ckpt") / "valid.ckpt"
    model = build_model("ensemble", D_RAW, D_PROJ, 0)
    save_checkpoint(path, model, {"seed": 0},
                    AdamState.init(dict(model.named_parameters())))
    return path.read_bytes()


def _header_len(blob: bytes) -> int:
    return struct.unpack_from("<I", blob, 8)[0]


# name -> (file bytes made from the valid file, message after "<path>: ")
MSCK_ERRORS = {
    "empty_file": (lambda b: b"", "bad magic b'' at offset 0"),
    "bad_magic": (lambda b: b"XXXX" + b[4:], "bad magic b'XXXX' at offset 0"),
    "truncated_header": (lambda b: b[:6], "truncated header at offset 6"),
    "unsupported_version": (lambda b: b[:4] + struct.pack("<I", 2) + b[8:],
                            "unsupported version 2 at offset 4"),
    "header_len_past_end": (
        lambda b: b[:8] + struct.pack("<I", len(b)) + b[12:],
        "truncated header at offset 12"),
    "trailing_bytes": (lambda b: b + b"\0\0\0",
                       lambda b: f"3 trailing bytes at {len(b)}"),
    "array_cut_short": (
        lambda b: b[:-9],
        lambda b: f"truncated array data: arrays end at {len(b)}, "
                  f"file at {len(b) - 9}"),
}


@pytest.mark.parametrize("make, message", MSCK_ERRORS.values(),
                         ids=MSCK_ERRORS.keys())
def test_msck_error(make, message, valid, tmp_path, capsys):
    path = tmp_path / "m.ckpt"
    path.write_bytes(make(valid))
    expected = f"{path}: {message(valid) if callable(message) else message}"
    with pytest.raises(FormatError) as caught:
        load_checkpoint(path)
    assert str(caught.value) == expected
    assert main(["predict", str(path), str(tmp_path / "b.dtme"),
                 "--mutations", SPEC]) == 3
    assert capsys.readouterr().err == f"data error: {expected}\n"


@pytest.mark.parametrize("header", [b"{x}", b"\xff", b"[1, 2"],
                         ids=["not_json", "not_utf8", "cut_json"])
def test_unreadable_header(header, tmp_path, capsys):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"MSCK" + struct.pack("<II", 1, len(header)) + header)
    with pytest.raises(FormatError) as caught:
        load_checkpoint(path)
    assert str(caught.value).startswith(f"{path}: unreadable header: ")
    assert main(["predict", str(path), str(tmp_path / "b.dtme"),
                 "--mutations", SPEC]) == 3
    assert f"data error: {path}: unreadable header: " in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fuzz


FUZZ = settings(derandomize=True, max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A dataset and bundles of the valid checkpoint's width."""
    root = tmp_path_factory.mktemp("inputs")
    dataset, bundles = root / "d.csv", root / "b.dtme"
    write_dataset(dataset, RECORDS)
    write_bundles(bundles, synth_bundles(RECORDS, D_RAW, 1))
    return dataset, bundles


def _load_and_predict(tmp_path, blob: bytes, bundles) -> None:
    path = tmp_path / "f.ckpt"
    path.write_bytes(blob)
    try:
        loaded = load_checkpoint(path)
    except MeltshiftError as exc:
        loaded = exc
    code = main(["predict", str(path), str(bundles), "--mutations", SPEC])
    if isinstance(loaded, Checkpoint):
        assert code in (0, 2, 3, 4)
    else:
        assert isinstance(loaded, FormatError)
        assert code == 3


@FUZZ
@given(blob=st.binary(max_size=300))
def test_arbitrary_bytes(blob, tmp_path, cli_inputs, capsys):
    _load_and_predict(tmp_path, blob, cli_inputs[1])


@FUZZ
@given(blob=st.binary(max_size=200))
def test_arbitrary_bytes_after_a_valid_preamble(blob, tmp_path, cli_inputs,
                                                capsys):
    _load_and_predict(tmp_path, b"MSCK" + struct.pack("<II", 1, len(blob)) + blob,
                      cli_inputs[1])


@FUZZ
@given(data=st.data(), insert=st.binary(min_size=1, max_size=8))
def test_bytes_inserted(data, insert, valid, tmp_path, cli_inputs, capsys):
    at = data.draw(st.integers(0, len(valid)))
    _load_and_predict(tmp_path, valid[:at] + insert + valid[at:], cli_inputs[1])


@FUZZ
@given(data=st.data())
def test_byte_dropped(data, valid, tmp_path, cli_inputs, capsys):
    at = data.draw(st.integers(0, len(valid) - 1))
    _load_and_predict(tmp_path, valid[:at] + valid[at + 1:], cli_inputs[1])


@FUZZ
@given(data=st.data(), mask=st.integers(1, 255))
def test_byte_flipped(data, mask, valid, tmp_path, cli_inputs, capsys):
    blob = bytearray(valid)
    # half the draws land in the JSON header, where a flip changes a value
    end = 12 + _header_len(valid) if data.draw(st.booleans()) else len(valid)
    blob[data.draw(st.integers(0, end - 1))] ^= mask
    _load_and_predict(tmp_path, bytes(blob), cli_inputs[1])


@FUZZ
@given(data=st.data())
def test_truncated(data, valid, tmp_path, cli_inputs, capsys):
    cut = data.draw(st.integers(0, len(valid) - 1))
    _load_and_predict(tmp_path, valid[:cut], cli_inputs[1])


@FUZZ
@given(blob=st.one_of(
    st.binary(max_size=120),
    st.dictionaries(st.sampled_from(["epochs", "max_lr", "seed", "head",
                                     "modalities", "freeze_projection",
                                     "bogus"]),
                    st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                              st.floats(), st.text(max_size=4),
                              st.lists(st.text(max_size=6), max_size=2)),
                    max_size=3).map(lambda d: json.dumps(d).encode())))
def test_config_file(blob, tmp_path, cli_inputs, capsys):
    # the bundle file does not exist: a config that passes is exit 3 at the
    # bundle read, so no input trains
    dataset, _ = cli_inputs
    config = tmp_path / "c.json"
    config.write_bytes(blob)
    code = main(["train", str(dataset), str(tmp_path / "absent.dtme"),
                 "--out", str(tmp_path / "run"), "--config", str(config)])
    assert code in (2, 3, 4)
