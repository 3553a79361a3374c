"""Mutation records, dataset files, embedding bundles, and synthetic features.

File formats owned by this module
---------------------------------
Dataset (text): comma-delimited with header ``protein_id,wt_sequence,mutation,dtm``.
One row per labeled single-point mutation; ``mutation`` uses codes like
``I4A`` (wild-type residue, 1-based position, mutant residue) and ``dtm``
is the melting-temperature change in degrees Celsius.

Bundles (binary, "DTME", little-endian): a versioned container of named
embedding vectors. Layout::

    magic    4 bytes  b"DTME"
    version  u32      1
    d_raw    u32      width of every vector in the file
    count    u32      number of track records
    record   u16 id_len | id utf8 | u8 role_tag | d_raw * f32

Track roles and tags: seq_cls=0, seq_pos=1, struct_cls=2, struct_pos=3,
avg=4. Values are stored as float32 and upcast to float64 in memory.

:func:`read_bundles` maps the file read-only and indexes every record in
one pass, then copies each role's vectors into one ``(variants, d_raw)``
float64 table; a bundle's tracks are row views into those tables. The
non-finite check runs once per table. The read peaks at about the tables'
bytes (twice the file) plus a few hundred bytes per record. The file must
not be rewritten or truncated while it is mapped.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import math
import mmap
import struct
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, FormatError

AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"
_AA_SET = frozenset(AMINO_ACIDS)
_AA_BYTES = AMINO_ACIDS.encode()

TRACK_ROLES = ("seq_cls", "seq_pos", "struct_cls", "struct_pos", "avg")
_ROLE_TO_TAG = {role: i for i, role in enumerate(TRACK_ROLES)}
_TAG_TO_ROLE = {i: role for i, role in enumerate(TRACK_ROLES)}

# the ``--tracks`` names and the modalities each one declares
TRACK_SETS = {"seq": ("seq",), "seq+struct": ("seq", "struct")}


def check_track_set(modalities, error=ConfigError, where: str = "") -> tuple[str, ...]:
    """``modalities`` as a tuple; raise ``error`` unless it is a track set."""
    if not (isinstance(modalities, (list, tuple))
            and tuple(modalities) in TRACK_SETS.values()):
        shown = list(modalities) if isinstance(modalities, tuple) else modalities
        raise error(f"{where}modalities must be a track set, one of "
                    f"{[list(m) for m in TRACK_SETS.values()]}, got {shown!r}")
    return tuple(modalities)


def track_roles(modalities: tuple[str, ...], suffix: str) -> list[str]:
    """Track roles behind one fused vector: ``avg``, or one per modality."""
    return ["avg"] if suffix == "avg" else [f"{m}_{suffix}" for m in modalities]


DATASET_HEADER = ["protein_id", "wt_sequence", "mutation", "dtm"]

DTME_MAGIC = b"DTME"
DTME_VERSION = 1


def _read_header(path, fh, magic: bytes, version: int,
                 n_fields: int) -> list[int]:
    """Check magic, length and u32 version; return the u32 fields after."""
    size = 8 + 4 * n_fields
    head = fh.read(size)
    if head[:4] != magic:
        raise FormatError(f"{path}: bad magic {head[:4]!r} at offset 0")
    if len(head) < size:
        raise FormatError(f"{path}: truncated header at offset {len(head)}")
    found, *fields = struct.unpack_from(f"<{1 + n_fields}I", head, 4)
    if found != version:
        raise FormatError(f"{path}: unsupported version {found} at offset 4")
    return fields


# ---------------------------------------------------------------------------
# mutations


@dataclass(frozen=True)
class Mutation:
    """Single-point substitution: 1-based position, wild and mutant residues."""

    position: int
    wild_aa: str
    mut_aa: str

    def __post_init__(self):
        if self.position < 1:
            raise DataError(f"mutation position must be >= 1, got {self.position}")
        for aa, what in ((self.wild_aa, "wild-type"), (self.mut_aa, "mutant")):
            if aa not in _AA_SET:
                raise DataError(f"non-canonical {what} residue {aa!r}")
        if self.wild_aa == self.mut_aa:
            raise DataError(
                f"no-op substitution {self.wild_aa}{self.position}{self.mut_aa}"
            )

    @property
    def code(self) -> str:
        return f"{self.wild_aa}{self.position}{self.mut_aa}"


def parse_mutation(code: str) -> Mutation:
    """Parse a code like ``I4A`` into a :class:`Mutation`."""
    digits = code[1:-1]
    if len(code) < 3 or not (digits.isascii() and digits.isdigit()):
        raise DataError(f"malformed mutation code {code!r}")
    try:
        return Mutation(int(digits), code[0], code[-1])
    except DataError as exc:
        raise DataError(f"bad mutation code {code!r}: {exc}") from None


def _check_site(seq: str, mu: Mutation) -> None:
    """Raise DataError unless ``seq`` holds ``mu.wild_aa`` at ``mu.position``."""
    if mu.position > len(seq):
        raise DataError(
            f"mutation {mu.code} out of range for sequence of length {len(seq)}"
        )
    found = seq[mu.position - 1]
    if found != mu.wild_aa:
        raise DataError(
            f"mutation {mu.code}: expected {mu.wild_aa} at position "
            f"{mu.position}, found {found}"
        )


def apply_mutation(seq: str, mu: Mutation) -> str:
    """Substitute the residue at the mutation position (1-based)."""
    _check_site(seq, mu)
    return seq[: mu.position - 1] + mu.mut_aa + seq[mu.position:]


# ---------------------------------------------------------------------------
# labeled records


def check_sequence(seq: str, where: str = "") -> None:
    """Raise DataError, its message led by ``where``, unless ``seq`` is a
    nonempty string of the 20 amino acids."""
    if not seq:
        raise DataError(f"{where}empty sequence")
    # ASCII, and nothing left once the amino-acid bytes are deleted
    if not seq.isascii() or seq.encode().translate(None, _AA_BYTES):
        raise DataError(f"{where}non-canonical residues {sorted(set(seq) - _AA_SET)}")


def variant_ids(protein_id: str, code: str) -> tuple[str, str]:
    """The bundle ids of a mutation's wild type and mutant: ``P:WT``, ``P:CODE``."""
    return f"{protein_id}:WT", f"{protein_id}:{code}"


@dataclass(frozen=True)
class MutationRecord:
    """One labeled sample: protein, wild-type sequence, mutation, dTm in C."""

    protein_id: str
    wt_sequence: str
    mutation: Mutation
    dtm: float

    def __post_init__(self):
        if not self.protein_id:
            raise DataError("empty protein_id")
        check_sequence(self.wt_sequence, f"{self.protein_id}: ")
        _check_site(self.wt_sequence, self.mutation)
        if not math.isfinite(self.dtm):
            raise DataError(f"{self.protein_id} {self.mutation.code}: non-finite dtm")

    @property
    def mut_sequence(self) -> str:
        return apply_mutation(self.wt_sequence, self.mutation)

    @property
    def wt_variant_id(self) -> str:
        return variant_ids(self.protein_id, self.mutation.code)[0]

    @property
    def mut_variant_id(self) -> str:
        return variant_ids(self.protein_id, self.mutation.code)[1]


@contextlib.contextmanager
def text_errors(path):
    """Turn a read of ``path`` that is not UTF-8 text, or a CSV field past
    the csv module's size limit, into a DataError naming the path."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from None


def wild_types(records) -> dict[str, str]:
    """protein_id -> wild-type sequence; a protein whose records give two
    sequences raises DataError."""
    seqs: dict[str, str] = {}
    for r in records:
        if seqs.setdefault(r.protein_id, r.wt_sequence) != r.wt_sequence:
            raise DataError(
                f"{r.protein_id}: conflicting wild-type sequences across records")
    return seqs


def load_dataset(path) -> list[MutationRecord]:
    """Read a dataset file, validating every record. Errors carry line numbers."""
    records: list[MutationRecord] = []
    seen: dict[tuple[str, str], int] = {}  # (protein, normalized code) -> line
    wt_line: dict[str, tuple[str, int]] = {}  # protein -> (sequence, first line)
    with open(path, encoding="utf-8", newline="") as fh, text_errors(path):
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty dataset file") from None
        if header != DATASET_HEADER:
            raise DataError(
                f"{path}: bad header {header!r}, expected {DATASET_HEADER!r}"
            )
        for row in reader:
            lineno = reader.line_num  # a quoted field may span lines
            if not row:
                continue
            if len(row) != 4:
                raise DataError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            pid, seq, code, dtm_text = row
            try:
                dtm = float(dtm_text)
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad dtm {dtm_text!r}") from None
            try:
                record = MutationRecord(pid, seq, parse_mutation(code), dtm)
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            key = (pid, record.mutation.code)
            if key in seen:
                raise DataError(f"{path}:{lineno}: duplicate record {pid} {code}, "
                                f"same variant as line {seen[key]}")
            seen[key] = lineno
            wt_seq, first = wt_line.setdefault(pid, (seq, lineno))
            if wt_seq != seq:
                raise DataError(f"{path}:{lineno}: {pid} has another wt_sequence "
                                f"than on line {first}")
            records.append(record)
    return records


def write_dataset(path, records) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DATASET_HEADER)
        for r in records:
            writer.writerow([r.protein_id, r.wt_sequence, r.mutation.code,
                             repr(float(r.dtm))])


# ---------------------------------------------------------------------------
# embedding bundles


@dataclass
class EmbeddingBundle:
    """Named embedding tracks for one protein variant, all of width d_raw."""

    variant_id: str
    tracks: dict[str, np.ndarray]

    def validate(self) -> None:
        if not self.variant_id:
            raise DataError("bundle with empty variant_id")
        if not self.tracks:
            raise DataError(f"{self.variant_id}: bundle has no tracks")
        widths = set()
        for role, vec in self.tracks.items():
            if role not in _ROLE_TO_TAG:
                raise DataError(f"{self.variant_id}: unknown track role {role!r}")
            v = np.asarray(vec)
            if v.ndim != 1 or v.size == 0:
                raise DataError(f"{self.variant_id}/{role}: track must be 1-D")
            if not np.all(np.isfinite(v)):
                raise DataError(f"{self.variant_id}/{role}: non-finite entries")
            widths.add(v.shape[0])
        if len(widths) != 1:
            raise DataError(
                f"{self.variant_id}: inconsistent track widths {sorted(widths)}"
            )

    @property
    def d_raw(self) -> int:
        return next(iter(self.tracks.values())).shape[0]


def write_bundles(path, bundles: dict[str, EmbeddingBundle]) -> None:
    """Write a DTME file. Deterministic: records sorted by (id, role tag)."""
    d_raw = None
    for vid in sorted(bundles):
        b = bundles[vid]
        b.validate()
        if b.variant_id != vid:
            raise DataError(f"bundle key {vid!r} != variant_id {b.variant_id!r}")
        if len(vid.encode("utf-8")) > 0xFFFF:
            raise DataError(f"variant_id too long: {vid[:40]}...")
        if d_raw is None:
            d_raw = b.d_raw
        elif b.d_raw != d_raw:
            raise DataError(
                f"{vid}: width {b.d_raw} differs from file width {d_raw}"
            )
    count = sum(len(bundles[vid].tracks) for vid in bundles)
    with open(path, "wb") as fh:
        fh.write(DTME_MAGIC)
        fh.write(struct.pack("<III", DTME_VERSION, d_raw or 0, count))
        for vid in sorted(bundles):
            b = bundles[vid]
            ident = vid.encode("utf-8")
            for role in sorted(b.tracks, key=lambda r: _ROLE_TO_TAG[r]):
                fh.write(struct.pack("<H", len(ident)))
                fh.write(ident)
                fh.write(struct.pack("<B", _ROLE_TO_TAG[role]))
                fh.write(np.asarray(b.tracks[role], dtype="<f4").tobytes())


def read_bundles(path) -> dict[str, EmbeddingBundle]:
    """Read a DTME file back into float64 bundles keyed by variant_id.

    One pass over a read-only map of the file indexes the records; then
    each role's vectors are copied into one float64 table, and every
    bundle's track is a row view into its role's table.
    """
    with open(path, "rb") as fh:
        d_raw, count = _read_header(path, fh, DTME_MAGIC, DTME_VERSION, 2)
        try:
            data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError) as exc:  # a pipe, say
            raise FormatError(f"{path}: cannot map the file: {exc}") from None
        with data:
            rows, offsets = _index_records(path, data, d_raw, count, fh.tell())
            tables = _role_tables(data, offsets, d_raw)
    out = {}
    for vid, per in rows.items():
        for role, row in per.items():
            per[role] = tables[role][row]
        out[vid] = EmbeddingBundle(vid, per)
    # Each bundle's own check words the first failure in file order; run
    # them only when a whole-file test finds one. A float32 is below 2**128
    # and a table holds under 2**64 of them, so a table's float64 sum cannot
    # overflow: it is finite exactly when every entry is. An empty variant
    # id and zero width are the other failures the bundle check reports.
    if d_raw == 0 or "" in out or not all(
            math.isfinite(t.sum()) for t in tables.values()):
        for bundle in out.values():
            bundle.validate()
    return out


def _index_records(path, data, d_raw: int, count: int, offset: int):
    """One pass over the records from ``offset``, where the header ends:
    variant -> role -> row in the role's table, in file order, and role ->
    the file offset of each row's vector."""
    size = len(data)
    vec_bytes = 4 * d_raw
    rows: dict[str, dict[str, int]] = {}
    offsets = {role: array("q") for role in TRACK_ROLES}
    for _ in range(count):
        if offset + 2 > size:
            raise FormatError(f"{path}: truncated record at offset {offset}")
        (id_len,) = struct.unpack_from("<H", data, offset)
        offset += 2
        tag_at = offset + id_len
        if tag_at + 1 + vec_bytes > size:
            raise FormatError(f"{path}: truncated record at offset {offset}")
        try:
            vid = data[offset:tag_at].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(
                f"{path}: variant id is not UTF-8 at offset {offset}") from None
        tag = data[tag_at]
        role = _TAG_TO_ROLE.get(tag)
        if role is None:
            raise FormatError(f"{path}: unknown track tag {tag} at offset {tag_at}")
        per = rows.setdefault(vid, {})
        if role in per:
            raise FormatError(f"{path}: duplicate track {vid}/{role}")
        at = offsets[role]
        per[role] = len(at)
        at.append(tag_at + 1)
        offset = tag_at + 1 + vec_bytes
    if offset != size:
        raise FormatError(f"{path}: {size - offset} trailing bytes at {offset}")
    return rows, offsets


def _role_tables(data, offsets, d_raw: int) -> dict[str, np.ndarray]:
    """Upcast each role's float32 vectors, at the given file offsets, into
    the rows of one float64 table."""
    raw = np.frombuffer(data, dtype=np.uint8)
    vec_bytes = 4 * d_raw
    tables = {}
    for role, at in offsets.items():
        if at:
            table = tables[role] = np.empty((len(at), d_raw))
            for row, offset in enumerate(at):
                table[row] = raw[offset : offset + vec_bytes].view("<f4")
    return tables


# ---------------------------------------------------------------------------
# deterministic synthetic embeddings


def _hash_values(seed: int, variant: str, role: str, sequence: str,
                 n: int) -> np.ndarray:
    """Counter-mode SHA-256 expansion into float32-representable values.

    Pure function of its arguments: byte-identical on every platform and
    numpy version, unlike Generator distribution methods.
    """
    key = f"{seed}|{variant}|{role}|{sequence}".encode("utf-8")
    digests = b"".join(
        hashlib.sha256(key + b"#" + counter.to_bytes(8, "little")).digest()
        for counter in range(-(-n // 4)))  # four u64 per digest
    u = np.frombuffer(digests, dtype="<u8")[:n]
    # uniform in [-1, 1); u64 -> float64 rounds as Python's int -> float does
    return (u / 2.0**63 - 1.0).astype(np.float32).astype(np.float64)


def synth_embed(record: MutationRecord, variant: str, d_raw: int, seed: int,
                modalities: tuple[str, ...] = ("seq",)) -> EmbeddingBundle:
    """Build a stand-in embedding bundle for desk-scale runs.

    ``variant`` is ``"WT"`` or ``"MUT"``. Tracks are a pure function of
    (sequence content, variant, role, seed); wild-type bundles therefore do
    not depend on which mutation a record carries, so one WT bundle serves
    every mutation of a protein. Real embeddings enter the pipeline through
    :func:`write_bundles` instead.
    """
    if d_raw < 1:
        raise DataError(f"d_raw must be >= 1, got {d_raw}")
    if variant not in ("WT", "MUT"):
        raise DataError(f"variant must be WT or MUT, got {variant!r}")
    seq = record.wt_sequence if variant == "WT" else record.mut_sequence
    vid = record.wt_variant_id if variant == "WT" else record.mut_variant_id
    tracks = {role: _hash_values(seed, variant, role, seq, d_raw)
              for suffix in ("cls", "pos", "avg")
              for role in track_roles(modalities, suffix)}
    return EmbeddingBundle(vid, tracks)


def synth_bundles(records, d_raw: int, seed: int,
                  modalities: tuple[str, ...] = ("seq",)) -> dict[str, EmbeddingBundle]:
    """WT bundle per protein (deduplicated) plus MUT bundle per record."""
    wild_types(records)  # one WT bundle per protein needs one sequence
    bundles: dict[str, EmbeddingBundle] = {}
    for r in records:
        for variant, vid in (("WT", r.wt_variant_id), ("MUT", r.mut_variant_id)):
            if vid not in bundles:
                bundles[vid] = synth_embed(r, variant, d_raw, seed, modalities)
    return bundles
