"""Regression heads over projected embedding tracks, and their ensemble.

Feature path: each raw embedding track is passed through its own linear
projection to width ``d_proj``; per-variant vectors (cls, mutated-position,
avg-pool) are the concatenation of the projected tracks over the declared
modalities. A batch is the unit of the forward pass: the tracks of a
batch's bundles are stacked into one ``(B, d_raw)`` leaf per role, so every
fused vector and every head output is a block of rows, one per pair. Heads
consume these fused rows:

* ``head1``: flattened outer product of mutant and wild-type position
  embeddings, mixed back down to width d, then a linear output.
* ``head2``: LayerNorm of the cls difference concatenated with LayerNorm
  of the position difference, then a linear output.
* ``mut_concat``: linear output over the concatenated position embeddings.
* ``mut_lincomb`` / ``cls_lincomb`` / ``avgpool_lincomb``: learned scalar
  mix ``alpha * x_w + beta * x_m`` followed by a linear output.

The ensemble model runs head1 and head2 on one shared projection and
averages their predictions. Both model classes share one interface: a
single head is an ensemble of one, predicting ``(y, y, y)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .data import EmbeddingBundle
from .errors import ConfigError, DataError
from .tape import Array, Node, Tape


class HeadKind(str, enum.Enum):
    HEAD1_OUTER = "head1"
    HEAD2_LNDIFF = "head2"
    MUT_CONCAT = "mut_concat"
    MUT_LINCOMB = "mut_lincomb"
    CLS_LINCOMB = "cls_lincomb"
    AVGPOOL_LINCOMB = "avgpool_lincomb"


LINCOMB_KINDS = (HeadKind.MUT_LINCOMB, HeadKind.CLS_LINCOMB,
                 HeadKind.AVGPOOL_LINCOMB)


class EnsemblePrediction(NamedTuple):
    y1: float
    y2: float
    y_ens: float


# ---------------------------------------------------------------------------
# parameter containers


def _uniform_init(n_out: int, n_in: int, rng: np.random.Generator) -> Array:
    bound = 1.0 / np.sqrt(n_in)
    return rng.uniform(-bound, bound, size=(n_out, n_in))


@dataclass
class LinearParams:
    weight: Array  # (n_out, n_in)
    bias: Array    # (n_out,)

    @classmethod
    def create(cls, n_out: int, n_in: int, rng: np.random.Generator):
        return cls(_uniform_init(n_out, n_in, rng), np.zeros(n_out))

    def bind(self, tape: Tape, prefix: str) -> tuple[Node, Node]:
        return (tape.leaf(self.weight, f"{prefix}.weight"),
                tape.leaf(self.bias, f"{prefix}.bias"))

    def named(self, prefix: str) -> Iterator[tuple[str, Array]]:
        yield f"{prefix}.weight", self.weight
        yield f"{prefix}.bias", self.bias


@dataclass
class LayerNormParams:
    gamma: Array
    beta: Array

    @classmethod
    def create(cls, width: int):
        return cls(np.ones(width), np.zeros(width))

    def bind(self, tape: Tape, prefix: str) -> tuple[Node, Node]:
        return (tape.leaf(self.gamma, f"{prefix}.gamma"),
                tape.leaf(self.beta, f"{prefix}.beta"))

    def named(self, prefix: str) -> Iterator[tuple[str, Array]]:
        yield f"{prefix}.gamma", self.gamma
        yield f"{prefix}.beta", self.beta


@dataclass
class TrackProjection:
    """One linear layer per declared track role, all mapping d_raw -> d_proj."""

    modalities: tuple[str, ...]
    d_raw: int
    d_proj: int
    layers: dict[str, LinearParams]

    @classmethod
    def create(cls, modalities: tuple[str, ...], d_raw: int, d_proj: int,
               rng: np.random.Generator, suffixes: tuple[str, ...]):
        """One layer per role behind the fused vectors named by ``suffixes``."""
        if d_raw < 1 or d_proj < 1:
            raise ConfigError(f"bad projection widths d_raw={d_raw}, d_proj={d_proj}")
        if not modalities:
            raise ConfigError("projection needs at least one modality")
        proj = cls(tuple(modalities), d_raw, d_proj, {})
        roles = sorted(r for suffix in suffixes for r in proj.roles(suffix))
        proj.layers = {role: LinearParams.create(d_proj, d_raw, rng)
                       for role in roles}
        return proj

    def roles(self, suffix: str) -> list[str]:
        """Track roles behind one fused vector: ``avg``, or one per modality."""
        if suffix == "avg":
            return ["avg"]
        return [f"{m}_{suffix}" for m in self.modalities]

    def named_parameters(self, prefix: str = "proj") -> Iterator[tuple[str, Array]]:
        for role in sorted(self.layers):
            yield from self.layers[role].named(f"{prefix}.{role}")

    def project(self, tape: Tape, bundles: list[EmbeddingBundle],
                role: str) -> Node:
        """Project one role of every bundle: a ``(B, d_proj)`` row block."""
        if role not in self.layers:
            raise ConfigError(f"projection has no layer for track role {role!r}")
        W, b = self.layers[role].bind(tape, f"proj.{role}")
        x = tape.leaf(np.stack([bundle.tracks[role] for bundle in bundles]))
        return tape.linear(W, x, b)

    def fuse(self, tape: Tape, bundles: list[EmbeddingBundle],
             suffix: str) -> Node:
        """Concatenate the projections of the roles behind ``suffix``."""
        parts = [self.project(tape, bundles, role) for role in self.roles(suffix)]
        return parts[0] if len(parts) == 1 else tape.concat(parts)


def fuse_pair(tape: Tape, proj: TrackProjection,
              bundles_w: list[EmbeddingBundle], bundles_m: list[EmbeddingBundle],
              suffixes: tuple[str, ...]) -> list[Node]:
    """Fused wild-type and mutant rows, ``(w, m)`` per suffix in tape order.

    Row ``i`` belongs to the pair ``(bundles_w[i], bundles_m[i])``.
    ``("cls", "pos")`` gives ``[cls_w, cls_m, a_w, a_m]``. Every bundle must
    have the projection's width ``d_raw``, and every track role behind the
    vectors must be on both bundles of each pair; both are checked pair by
    pair, and roles modality by modality, before anything is projected.
    """
    for bundle_w, bundle_m in zip(bundles_w, bundles_m):
        for bundle in (bundle_w, bundle_m):
            if bundle.d_raw != proj.d_raw:
                raise DataError(
                    f"bundle {bundle.variant_id} has width {bundle.d_raw}, "
                    f"but the model's d_raw is {proj.d_raw}"
                )
        for roles in zip(*(proj.roles(s) for s in suffixes)):
            for role in roles:
                in_w = role in bundle_w.tracks
                in_m = role in bundle_m.tracks
                if in_w != in_m:
                    missing = bundle_m if in_w else bundle_w
                    raise DataError(
                        f"track-set mismatch: {missing.variant_id} lacks {role!r}"
                    )
                if not in_w:
                    raise DataError(
                        f"{bundle_w.variant_id}/{bundle_m.variant_id}: "
                        f"missing track {role!r}"
                    )
    return [proj.fuse(tape, bundles, s) for s in suffixes
            for bundles in (bundles_w, bundles_m)]


# ---------------------------------------------------------------------------
# head parameters


@dataclass
class HeadParams:
    """Learnable parameters of one regression head; fields vary by kind."""

    kind: HeadKind
    out: LinearParams
    mix: LinearParams | None = None        # head1: d^2 -> d stage
    ln_cls: LayerNormParams | None = None  # head2
    ln_pos: LayerNormParams | None = None  # head2
    alpha: Array | None = None             # lincomb heads, shape (1,)
    beta: Array | None = None

    @classmethod
    def create(cls, kind: HeadKind, width: int, rng: np.random.Generator):
        if width < 1:
            raise ConfigError(f"head width must be >= 1, got {width}")
        kind = HeadKind(kind)
        if kind == HeadKind.HEAD1_OUTER:
            return cls(kind, mix=LinearParams.create(width, width * width, rng),
                       out=LinearParams.create(1, width, rng))
        if kind == HeadKind.HEAD2_LNDIFF:
            return cls(kind, out=LinearParams.create(1, 2 * width, rng),
                       ln_cls=LayerNormParams.create(width),
                       ln_pos=LayerNormParams.create(width))
        if kind == HeadKind.MUT_CONCAT:
            return cls(kind, out=LinearParams.create(1, 2 * width, rng))
        if kind in LINCOMB_KINDS:
            # difference-style start: alpha=1, beta=-1
            return cls(kind, out=LinearParams.create(1, width, rng),
                       alpha=np.array([1.0]), beta=np.array([-1.0]))
        raise ConfigError(f"unknown head kind {kind!r}")

    def named_parameters(self, prefix: str = "head") -> Iterator[tuple[str, Array]]:
        if self.mix is not None:
            yield from self.mix.named(f"{prefix}.mix")
        if self.ln_cls is not None:
            yield from self.ln_cls.named(f"{prefix}.ln_cls")
        if self.ln_pos is not None:
            yield from self.ln_pos.named(f"{prefix}.ln_pos")
        if self.alpha is not None:
            yield f"{prefix}.alpha", self.alpha
            yield f"{prefix}.beta", self.beta
        yield from self.out.named(f"{prefix}.out")


# ---------------------------------------------------------------------------
# head forward passes (tape level)


def head1_forward(tape: Tape, a_w: Node, a_m: Node, params: HeadParams,
                  prefix: str = "head") -> Node:
    """Outer-product head: N1(mix(flatten(a_m (x) a_w)))."""
    if params.kind != HeadKind.HEAD1_OUTER or params.mix is None:
        raise ConfigError(f"head1_forward needs HEAD1_OUTER params, got {params.kind}")
    flat = tape.outer_flatten(a_m, a_w)
    Wm, bm = params.mix.bind(tape, f"{prefix}.mix")
    hidden = tape.linear(Wm, flat, bm)
    Wo, bo = params.out.bind(tape, f"{prefix}.out")
    return tape.linear(Wo, hidden, bo)


def head2_forward(tape: Tape, cls_w: Node, cls_m: Node, a_w: Node, a_m: Node,
                  params: HeadParams, prefix: str = "head") -> Node:
    """Difference head: N2(LN(cls_w - cls_m) ++ LN(a_w - a_m))."""
    if params.kind != HeadKind.HEAD2_LNDIFF or params.ln_cls is None:
        raise ConfigError(f"head2_forward needs HEAD2_LNDIFF params, got {params.kind}")
    gc, bc = params.ln_cls.bind(tape, f"{prefix}.ln_cls")
    gp, bp = params.ln_pos.bind(tape, f"{prefix}.ln_pos")
    norm_cls = tape.layernorm(tape.sub(cls_w, cls_m), gc, bc)
    norm_pos = tape.layernorm(tape.sub(a_w, a_m), gp, bp)
    feature = tape.concat([norm_cls, norm_pos])
    Wo, bo = params.out.bind(tape, f"{prefix}.out")
    return tape.linear(Wo, feature, bo)


def mut_concat_forward(tape: Tape, a_w: Node, a_m: Node, params: HeadParams,
                       prefix: str = "head") -> Node:
    if params.kind != HeadKind.MUT_CONCAT:
        raise ConfigError(f"mut_concat_forward needs MUT_CONCAT params, got {params.kind}")
    Wo, bo = params.out.bind(tape, f"{prefix}.out")
    return tape.linear(Wo, tape.concat([a_w, a_m]), bo)


def lincomb_forward(tape: Tape, x_w: Node, x_m: Node, params: HeadParams,
                    prefix: str = "head") -> Node:
    if params.kind not in LINCOMB_KINDS or params.alpha is None:
        raise ConfigError(f"lincomb_forward needs a lincomb head, got {params.kind}")
    alpha = tape.leaf(params.alpha, f"{prefix}.alpha")
    beta = tape.leaf(params.beta, f"{prefix}.beta")
    mixed = tape.add(tape.scale(alpha, x_w), tape.scale(beta, x_m))
    Wo, bo = params.out.bind(tape, f"{prefix}.out")
    return tape.linear(Wo, mixed, bo)


# per single-head kind: the fused vectors it reads, and its forward pass
SINGLE_HEADS = {
    HeadKind.HEAD1_OUTER: (("pos",), head1_forward),
    HeadKind.HEAD2_LNDIFF: (("cls", "pos"), head2_forward),
    HeadKind.MUT_CONCAT: (("pos",), mut_concat_forward),
    HeadKind.MUT_LINCOMB: (("pos",), lincomb_forward),
    HeadKind.CLS_LINCOMB: (("cls",), lincomb_forward),
    HeadKind.AVGPOOL_LINCOMB: (("avg",), lincomb_forward),
}

MODEL_KINDS = ("ensemble",) + tuple(k.value for k in HeadKind)


# ---------------------------------------------------------------------------
# models


class _ModelBase:
    """The interface both models share: a single head is an ensemble of one.

    ``forward_nodes`` gives the (y1, y2, y_ens) nodes of a batch of pairs,
    each a ``(B, 1)`` row block, and ``batch_loss`` reports the ``head1``,
    ``head2``, ``ensemble`` and ``total`` loss terms.
    """

    def param_count(self) -> int:
        return sum(arr.size for _, arr in self.named_parameters())

    def predict(self, bundle_w: EmbeddingBundle,
                bundle_m: EmbeddingBundle) -> EnsemblePrediction:
        nodes = self.forward_nodes(Tape(), [bundle_w], [bundle_m])
        return EnsemblePrediction(*(float(y.value[0, 0]) for y in nodes))

    def _batch_forward(self, tape: Tape, samples):
        """Forward nodes and the ``(B, 1)`` label target of a batch of samples."""
        if not samples:
            raise ConfigError("batch_loss: empty batch")
        bundles_w, bundles_m, labels = zip(*samples)
        target = np.array(labels, dtype=np.float64).reshape(-1, 1)
        return self.forward_nodes(tape, list(bundles_w), list(bundles_m)), target


@dataclass
class EnsembleModel(_ModelBase):
    """Shared projection feeding head1 and head2; prediction is their mean."""

    projection: TrackProjection
    head1: HeadParams
    head2: HeadParams
    seed: int = 0

    kind_name = "ensemble"

    def named_parameters(self) -> Iterator[tuple[str, Array]]:
        yield from self.projection.named_parameters("proj")
        yield from self.head1.named_parameters("head1")
        yield from self.head2.named_parameters("head2")

    def forward_nodes(self, tape: Tape, bundles_w: list[EmbeddingBundle],
                      bundles_m: list[EmbeddingBundle]) -> tuple[Node, Node, Node]:
        cls_w, cls_m, a_w, a_m = fuse_pair(tape, self.projection, bundles_w,
                                           bundles_m, ("cls", "pos"))
        y1 = head1_forward(tape, a_w, a_m, self.head1, "head1")
        y2 = head2_forward(tape, cls_w, cls_m, a_w, a_m, self.head2, "head2")
        y_ens = tape.const_scale(0.5, tape.add(y1, y2))
        return y1, y2, y_ens

    def batch_loss(self, tape: Tape, samples) -> tuple[Node, dict[str, float]]:
        """Mean per-head MSE terms plus the halved ensemble term.

        ``samples`` is a list of (bundle_w, bundle_m, label) triples.
        """
        (y1, y2, y_ens), target = self._batch_forward(tape, samples)
        l1 = tape.mse(y1, target)
        l2 = tape.mse(y2, target)
        le = tape.const_scale(0.5, tape.mse(y_ens, target))
        total = tape.add(tape.add(l1, l2), le)
        components = {
            "head1": float(l1.value[0]),
            "head2": float(l2.value[0]),
            "ensemble": float(le.value[0]),
            "total": float(total.value[0]),
        }
        return total, components


@dataclass
class SingleHeadModel(_ModelBase):
    """One projection plus one head; used for the ablation architectures."""

    projection: TrackProjection
    head: HeadParams
    seed: int = 0

    @property
    def kind_name(self) -> str:
        return self.head.kind.value

    def named_parameters(self) -> Iterator[tuple[str, Array]]:
        yield from self.projection.named_parameters("proj")
        yield from self.head.named_parameters("head")

    def forward_nodes(self, tape: Tape, bundles_w: list[EmbeddingBundle],
                      bundles_m: list[EmbeddingBundle]) -> tuple[Node, Node, Node]:
        suffixes, forward = SINGLE_HEADS[self.head.kind]
        inputs = fuse_pair(tape, self.projection, bundles_w, bundles_m, suffixes)
        y = forward(tape, *inputs, self.head)
        return y, y, y

    def batch_loss(self, tape: Tape, samples) -> tuple[Node, dict[str, float]]:
        """Mean MSE of the one head, reported as the ``head1`` term."""
        (y, _, _), target = self._batch_forward(tape, samples)
        total = tape.mse(y, target)
        mse = float(total.value[0])
        return total, {"head1": mse, "head2": 0.0, "ensemble": 0.0, "total": mse}


Model = EnsembleModel | SingleHeadModel


# ---------------------------------------------------------------------------
# factories


def build_ensemble(d_raw: int, d_proj: int, seed: int,
                   modalities: tuple[str, ...] = ("seq",)) -> EnsembleModel:
    rng = np.random.default_rng(seed)
    proj = TrackProjection.create(modalities, d_raw, d_proj, rng, ("cls", "pos"))
    width = len(modalities) * d_proj
    head1 = HeadParams.create(HeadKind.HEAD1_OUTER, width, rng)
    head2 = HeadParams.create(HeadKind.HEAD2_LNDIFF, width, rng)
    return EnsembleModel(proj, head1, head2, seed=seed)


def build_single_head(kind: HeadKind, d_raw: int, d_proj: int, seed: int,
                      modalities: tuple[str, ...] = ("seq",)) -> SingleHeadModel:
    kind = HeadKind(kind)
    rng = np.random.default_rng(seed)
    suffixes, _ = SINGLE_HEADS[kind]
    proj = TrackProjection.create(modalities, d_raw, d_proj, rng, suffixes)
    width = d_proj if suffixes == ("avg",) else len(modalities) * d_proj
    head = HeadParams.create(kind, width, rng)
    return SingleHeadModel(proj, head, seed=seed)


def build_model(kind_name: str, d_raw: int, d_proj: int, seed: int,
                modalities: tuple[str, ...] = ("seq",)) -> Model:
    """Build by name: ``ensemble`` or any :class:`HeadKind` value."""
    if kind_name == "ensemble":
        return build_ensemble(d_raw, d_proj, seed, modalities)
    return build_single_head(HeadKind(kind_name), d_raw, d_proj, seed,
                             modalities)


def _head_shapes(kind: HeadKind, width: int,
                 prefix: str) -> dict[str, tuple[int, ...]]:
    """Shapes of the parameters ``HeadParams.create(kind, width)`` makes."""
    out_in = 2 * width if kind in (HeadKind.HEAD2_LNDIFF,
                                   HeadKind.MUT_CONCAT) else width
    shapes = {f"{prefix}.out.weight": (1, out_in), f"{prefix}.out.bias": (1,)}
    if kind == HeadKind.HEAD1_OUTER:
        shapes[f"{prefix}.mix.weight"] = (width, width * width)
        shapes[f"{prefix}.mix.bias"] = (width,)
    if kind == HeadKind.HEAD2_LNDIFF:
        for ln in ("ln_cls", "ln_pos"):
            shapes[f"{prefix}.{ln}.gamma"] = (width,)
            shapes[f"{prefix}.{ln}.beta"] = (width,)
    if kind in LINCOMB_KINDS:
        shapes[f"{prefix}.alpha"] = (1,)
        shapes[f"{prefix}.beta"] = (1,)
    return shapes


def param_shapes(kind_name: str, d_raw: int, d_proj: int,
                 modalities: tuple[str, ...] = ("seq",)) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter ``build_model`` would make.

    Pure arithmetic, nothing the size of the model is allocated, so a
    checkpoint header can be checked against its arrays before the model
    it describes is built.
    """
    if kind_name == "ensemble":
        suffixes = ("cls", "pos")
        heads = (("head1", HeadKind.HEAD1_OUTER), ("head2", HeadKind.HEAD2_LNDIFF))
    else:
        kind = HeadKind(kind_name)
        suffixes = SINGLE_HEADS[kind][0]
        heads = (("head", kind),)
    proj = TrackProjection(tuple(modalities), d_raw, d_proj, {})
    shapes: dict[str, tuple[int, ...]] = {}
    for role in {r for suffix in suffixes for r in proj.roles(suffix)}:
        shapes[f"proj.{role}.weight"] = (d_proj, d_raw)
        shapes[f"proj.{role}.bias"] = (d_proj,)
    width = d_proj if suffixes == ("avg",) else len(modalities) * d_proj
    for prefix, kind in heads:
        shapes.update(_head_shapes(kind, width, prefix))
    return shapes
