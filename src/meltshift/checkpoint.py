"""Versioned binary checkpoints ("MSCK") with bit-exact round-trips.

Layout (little-endian)::

    magic      4 bytes  b"MSCK"
    version    u32      1
    header_len u32
    header     canonical JSON (sorted keys, compact separators)
    arrays     raw float64 bytes, in the order header["arrays"] declares

The header carries the model kind, widths, modalities, seed, the
training-config snapshot and Adam's step count; every value is
type-checked on load. The array section holds every model parameter
(prefix ``model.``) in ``heads.model_layout`` order and, when optimizer
state is included, the Adam moments of the trained parameters (prefixes
``adam_m.``, ``adam_v.``), each prefix in name order. One function,
``_array_section``, gives that list; the writer writes through it and
the reader accepts exactly it.

Arrays stream both ways without copies: the writer hands each array's
own buffer to the file, and the reader, once the header agrees with the
array section and with the file length, reads each array straight into
the array the model or the Adam state will own, and rejects a
non-finite value naming the array.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .data import _read_header, check_track_set
from .errors import FormatError
from .heads import MODEL_KINDS, EnsembleModel, assemble_model, model_layout
from .optim import AdamState

CKPT_MAGIC = b"MSCK"
CKPT_VERSION = 1

HEADER_KEYS = ("arrays", "kind", "d_raw", "d_proj", "modalities", "seed")


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


@dataclass
class Checkpoint:
    model: EnsembleModel
    config: dict | None
    adam: AdamState | None


def _array_section(kind: str, d_raw: int, d_proj: int, modalities: tuple,
                   moments) -> list[tuple[str, tuple]]:
    """The array section as ``(name, shape)`` in file order: every model
    parameter in layout order, then ``adam_m.*`` and then ``adam_v.*`` of
    the parameters that ``moments`` names (a frozen projection has none),
    each in name order. Nothing the size of the model is allocated, and
    ``model_layout`` raises ConfigError for a track set outside the format."""
    shapes = {name: shape for name, shape, _ in
              model_layout(kind, d_raw, d_proj, modalities)}
    trained = sorted(set(moments) & set(shapes))
    return ([(f"model.{name}", shape) for name, shape in shapes.items()]
            + [(f"{prefix}.{name}", shapes[name])
               for prefix in ("adam_m", "adam_v") for name in trained])


def save_checkpoint(path, model: EnsembleModel, config: dict | None = None,
                    adam: AdamState | None = None) -> None:
    proj = model.projection
    header = {"kind": model.kind_name, "d_raw": proj.d_raw, "d_proj": proj.d_proj,
              "modalities": list(proj.modalities), "seed": model.seed,
              "config": config, "adam": None if adam is None else {"t": adam.t}}
    sources = {"model": dict(model.named_parameters()), "adam_m": {}, "adam_v": {}}
    if adam is not None:
        sources.update(adam_m=adam.m, adam_v=adam.v)
    section = _array_section(header["kind"], header["d_raw"], header["d_proj"],
                             tuple(header["modalities"]), sources["adam_m"])
    header["arrays"] = [{"name": n, "shape": list(s)} for n, s in section]
    blob = canonical_json(header)
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<II", CKPT_VERSION, len(blob)))
        fh.write(blob)
        for name, _ in section:
            group, _, param = name.partition(".")
            # the array's own buffer for C-contiguous float64 on a
            # little-endian host; a converted copy only otherwise
            fh.write(np.ascontiguousarray(sources[group][param], dtype="<f8"))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_array_entry(entry) -> bool:
    return (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(_is_int(n) and n >= 0 for n in entry["shape"]))


def _check_header(path, header) -> None:
    """Raise FormatError unless every header field has its documented type."""
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is not a JSON object")
    missing = [key for key in HEADER_KEYS if key not in header]
    if missing:
        raise FormatError(f"{path}: header lacks {missing}")
    if header["kind"] not in MODEL_KINDS:
        raise FormatError(f"{path}: unknown model kind {header['kind']!r}")
    for key, low in (("d_raw", 1), ("d_proj", 1), ("seed", 0)):
        if not (_is_int(header[key]) and header[key] >= low):
            raise FormatError(
                f"{path}: header {key} must be an int >= {low}, got {header[key]!r}"
            )
    check_track_set(header["modalities"], FormatError, f"{path}: header ")
    arrays = header["arrays"]
    if not (isinstance(arrays, list) and all(map(_is_array_entry, arrays))):
        raise FormatError(
            f"{path}: header arrays must be a list of {{name, shape}} entries "
            "with non-negative int dimensions"
        )
    # other adam keys (the recipe constants older files carry) are ignored
    adam = header.get("adam")
    if adam is not None and not (isinstance(adam, dict) and _is_int(adam.get("t"))
                                 and adam["t"] >= 0):
        raise FormatError(f"{path}: bad adam header {adam!r}")


def _describe(section, i: int) -> str:
    if i >= len(section):
        return "no array"
    name, shape = section[i]
    return f"{name} shape {list(shape)}"


def _read_array(fh, path, name: str, arr: np.ndarray) -> None:
    """Fill ``arr`` from the file's next ``<f8`` bytes; reject non-finite values."""
    if fh.readinto(arr) != arr.nbytes:
        raise FormatError(f"{path}: truncated array data in {name}")
    if sys.byteorder != "little":
        arr.byteswap(inplace=True)
    # min and max carry any NaN or inf, and allocate nothing the array's size
    if not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
        raise FormatError(f"{path}: array {name} has a non-finite value")


def load_checkpoint(path) -> Checkpoint:
    """Check the header against the file, then read each array straight
    into the model or Adam state that owns it, in file order."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        (header_len,) = _read_header(path, fh, CKPT_MAGIC, CKPT_VERSION, 1)
        start = fh.tell()
        if size < start + header_len:
            raise FormatError(f"{path}: truncated header at offset {start}")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{path}: unreadable header: {exc}") from None
        _check_header(path, header)

        # header, arrays and file length must agree before anything the
        # size of the model is allocated, so memory follows the file
        meta = (header["kind"], header["d_raw"], header["d_proj"],
                tuple(header["modalities"]))
        found = [(e["name"], tuple(e["shape"])) for e in header["arrays"]]
        adam_meta = header.get("adam")
        moments = () if adam_meta is None else [
            name[len("adam_m."):] for name, _ in found if name.startswith("adam_m.")]
        section = _array_section(*meta, moments)
        if found != section:
            i = next((i for i, (a, b) in enumerate(zip(found, section)) if a != b),
                     min(len(found), len(section)))
            raise FormatError(f"{path}: header array {i} is {_describe(found, i)}, "
                              f"expected {_describe(section, i)}")
        end = start + header_len + 8 * sum(math.prod(s) for _, s in section)
        if end > size:
            raise FormatError(
                f"{path}: truncated array data: arrays end at {end}, file at {size}")
        if end < size:
            raise FormatError(f"{path}: {size - end} trailing bytes at {end}")

        arrays: dict[str, dict] = {"model": {}, "adam_m": {}, "adam_v": {}}
        for name, shape in section:
            group, _, param = name.partition(".")
            arrays[group][param] = np.empty(shape)
            _read_array(fh, path, name, arrays[group][param])

    model = assemble_model(*meta, header["seed"], arrays["model"])
    adam = None
    if adam_meta is not None:
        adam = AdamState(adam_meta["t"], arrays["adam_m"], arrays["adam_v"])
    return Checkpoint(model, header.get("config"), adam)
