"""Versioned binary checkpoints ("MSCK") with bit-exact round-trips.

Layout (little-endian)::

    magic      4 bytes  b"MSCK"
    version    u32      1
    header_len u32
    header     canonical JSON (sorted keys, compact separators)
    arrays     raw float64 bytes, in the order header["arrays"] declares

The header carries the model kind, widths, seed, the training-config
snapshot and its hash, and Adam hyperparameters; the array section holds
every model parameter (prefix ``model.``) and, when optimizer state is
included, the Adam moments (prefixes ``adam_m.``, ``adam_v.``).
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError
from .heads import MODEL_KINDS, Model, build_model
from .optim import AdamState

CKPT_MAGIC = b"MSCK"
CKPT_VERSION = 1

HEADER_KEYS = ("arrays", "kind", "d_raw", "d_proj", "modalities", "seed",
               "ln_eps", "loss_weights")


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def sha256_hex(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


@dataclass
class Checkpoint:
    model: Model
    config: dict | None
    adam: AdamState | None


def _model_meta(model: Model) -> dict:
    proj = model.projection
    weights = model.loss_weights
    return {
        "kind": model.kind_name,
        "d_raw": proj.d_raw,
        "d_proj": proj.d_proj,
        "modalities": list(proj.modalities),
        "seed": model.seed,
        "ln_eps": model.ln_eps,
        "loss_weights": list(weights) if weights is not None else None,
    }


def save_checkpoint(path, model: Model, config: dict | None = None,
                    adam: AdamState | None = None) -> None:
    arrays: list[tuple[str, np.ndarray]] = [
        (f"model.{name}", arr) for name, arr in model.named_parameters()
    ]
    header = _model_meta(model)
    header["config"] = config
    header["config_hash"] = sha256_hex(canonical_json(config)) if config else None
    if adam is not None:
        header["adam"] = {"beta1": adam.beta1, "beta2": adam.beta2,
                          "eps": adam.eps, "t": adam.t}
        for name in sorted(adam.m):
            arrays.append((f"adam_m.{name}", adam.m[name]))
        for name in sorted(adam.v):
            arrays.append((f"adam_v.{name}", adam.v[name]))
    else:
        header["adam"] = None
    header["arrays"] = [{"name": n, "shape": list(a.shape)} for n, a in arrays]
    blob = canonical_json(header)
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<II", CKPT_VERSION, len(blob)))
        fh.write(blob)
        for _, arr in arrays:
            fh.write(np.asarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != CKPT_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r} at offset 0")
    if len(data) < 12:
        raise FormatError(f"{path}: truncated header at offset {len(data)}")
    version, header_len = struct.unpack_from("<II", data, 4)
    if version != CKPT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if len(data) < 12 + header_len:
        raise FormatError(f"{path}: truncated header at offset 12")
    try:
        header = json.loads(data[12 : 12 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: unreadable header: {exc}") from None
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is not a JSON object")
    missing = [key for key in HEADER_KEYS if key not in header]
    if missing:
        raise FormatError(f"{path}: header lacks {missing}")
    if header["kind"] not in MODEL_KINDS:
        raise FormatError(f"{path}: unknown model kind {header['kind']!r}")

    offset = 12 + header_len
    loaded: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        nbytes = 8 * count
        if offset + nbytes > len(data):
            raise FormatError(f"{path}: truncated array data at offset {offset}")
        arr = np.frombuffer(data, dtype="<f8", count=count, offset=offset)
        loaded[entry["name"]] = arr.reshape(shape).astype(np.float64)
        offset += nbytes
    if offset != len(data):
        raise FormatError(f"{path}: {len(data) - offset} trailing bytes at {offset}")

    model = build_model(
        header["kind"], header["d_raw"], header["d_proj"], header["seed"],
        tuple(header["modalities"]),
        tuple(header["loss_weights"] or (1.0, 1.0, 1.0)),
        header["ln_eps"],
    )
    expected = {f"model.{n}" for n, _ in model.named_parameters()}
    present = {n for n in loaded if n.startswith("model.")}
    if expected != present:
        raise FormatError(
            f"{path}: parameter set mismatch: {sorted(expected ^ present)[:4]}"
        )
    for name, arr in model.named_parameters():
        src = loaded[f"model.{name}"]
        if src.shape != arr.shape:
            raise FormatError(
                f"{path}: {name} shape {src.shape} != expected {arr.shape}"
            )
        np.copyto(arr, src)

    adam = None
    if header.get("adam"):
        meta = header["adam"]
        m = {n[len("adam_m."):]: a for n, a in loaded.items()
             if n.startswith("adam_m.")}
        v = {n[len("adam_v."):]: a for n, a in loaded.items()
             if n.startswith("adam_v.")}
        adam = AdamState(meta["beta1"], meta["beta2"], meta["eps"],
                         meta["t"], m, v)
    return Checkpoint(model, header.get("config"), adam)
