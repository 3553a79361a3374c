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

Each head kind is one row of ``HEADS``: the fused vectors it reads, its
parameters and its forward pass. One class, :class:`EnsembleModel`, runs
every model kind; ``MODEL_HEADS``, derived from ``HEADS``, names each
kind's shared fused vectors and heads. The ``ensemble`` kind runs head1
and head2 on one shared projection and averages their predictions; every
other kind is an ensemble of one head, predicting ``(y, y, y)``.

:func:`model_layout` lists every parameter (name, shape, start) of a model
kind in ``named_parameters`` and checkpoint order; ``build_model`` and the
checkpoint reader fill it in that order (:func:`assemble_model`).

Parameters are plain arrays, bound to a tape once per forward by their
owner: :func:`fuse_pair` binds each projection layer and projects both
sides of the pair with it, and ``EnsembleModel.forward_nodes`` binds each
head's arrays under the head's name and hands its forward a
``name -> Node`` dict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .data import EmbeddingBundle, check_track_set, track_roles
from .errors import ConfigError, DataError
from .tape import Array, Node, Tape

EVAL_CHUNK = 64  # pairs per forward in predict_batch


class HeadKind(str, enum.Enum):
    HEAD1_OUTER = "head1"
    HEAD2_LNDIFF = "head2"
    MUT_CONCAT = "mut_concat"
    MUT_LINCOMB = "mut_lincomb"
    CLS_LINCOMB = "cls_lincomb"
    AVGPOOL_LINCOMB = "avgpool_lincomb"


class EnsemblePrediction(NamedTuple):
    y1: float
    y2: float
    y_ens: float


@dataclass
class LossBreakdown:
    """Per-term training losses in (degrees C)^2.

    Single-head runs report their MSE as ``l_head1`` with the other two
    terms zero, so ``l_total == l_head1`` there.
    """

    l_head1: float
    l_head2: float
    l_ensemble: float
    l_total: float


# ---------------------------------------------------------------------------
# parameter containers


# (name, shape, start): start is a fill value, or None for a uniform draw
LayoutEntry = tuple[str, tuple[int, ...], float | None]


def _linear_layout(prefix: str, n_out: int, n_in: int) -> list[LayoutEntry]:
    return [(f"{prefix}.weight", (n_out, n_in), None),
            (f"{prefix}.bias", (n_out,), 0.0)]


@dataclass
class LinearParams:
    weight: Array  # (n_out, n_in)
    bias: Array    # (n_out,)


@dataclass
class TrackProjection:
    """One linear layer per declared track role, all mapping d_raw -> d_proj."""

    modalities: tuple[str, ...]
    d_raw: int
    d_proj: int
    layers: dict[str, LinearParams]

    def named_parameters(self) -> Iterator[tuple[str, Array]]:
        for role in sorted(self.layers):
            yield f"proj.{role}.weight", self.layers[role].weight
            yield f"proj.{role}.bias", self.layers[role].bias

    def project(self, tape: Tape, bundles: list[EmbeddingBundle], role: str,
                weight: Node, bias: Node) -> Node:
        """Project one role of every bundle through the bound layer of that
        role: a ``(B, d_proj)`` row block."""
        x = tape.leaf(np.stack([bundle.tracks[role] for bundle in bundles]))
        return tape.linear(weight, x, bias)

    def check_bundles(self, bundles) -> None:
        """Raise DataError naming the first bundle without a track role that
        this projection has a layer for, or of another width."""
        for bundle in bundles:
            missing = [r for r in self.layers if r not in bundle.tracks]
            if missing:
                raise DataError(f"bundle {bundle.variant_id} lacks track {missing[0]!r}")
            if bundle.d_raw != self.d_raw:
                raise DataError(f"bundle {bundle.variant_id} has width {bundle.d_raw}, "
                                f"but the model's d_raw is {self.d_raw}")


def fuse_pair(tape: Tape, proj: TrackProjection,
              bundles_w: list[EmbeddingBundle], bundles_m: list[EmbeddingBundle],
              suffixes: tuple[str, ...]) -> dict[str, tuple[Node, Node]]:
    """Fused wild-type and mutant rows, ``{suffix: (w, m)}``.

    Row ``i`` belongs to the pair ``(bundles_w[i], bundles_m[i])``. Each
    role's layer is bound once and projects both sides; the wild-type
    side of a suffix is recorded before its mutant side. Every bundle is
    checked (``TrackProjection.check_bundles``) before any is projected.
    """
    proj.check_bundles(b for pair in zip(bundles_w, bundles_m) for b in pair)
    fused = {}
    for s in suffixes:
        layers = {}
        for role in track_roles(proj.modalities, s):
            if role not in proj.layers:
                raise ConfigError(f"projection has no layer for track role {role!r}")
            layer = proj.layers[role]
            layers[role] = (tape.leaf(layer.weight, f"proj.{role}.weight"),
                            tape.leaf(layer.bias, f"proj.{role}.bias"))
        sides = []
        for bundles in (bundles_w, bundles_m):
            parts = [proj.project(tape, bundles, role, *nodes)
                     for role, nodes in layers.items()]
            sides.append(parts[0] if len(parts) == 1 else tape.concat(parts))
        fused[s] = tuple(sides)
    return fused


# ---------------------------------------------------------------------------
# head forward passes (tape level): each reads its fused rows and its
# parameter nodes, keyed by their name inside the head (``mix.weight``,
# ``ln_cls.gamma``, ``alpha``, ...)


def head1_forward(tape: Tape, a_w: Node, a_m: Node, p: dict[str, Node]) -> Node:
    """Outer-product head: N1(mix(flatten(a_m (x) a_w)))."""
    flat = tape.outer_flatten(a_m, a_w)
    hidden = tape.linear(p["mix.weight"], flat, p["mix.bias"])
    return tape.linear(p["out.weight"], hidden, p["out.bias"])


def head2_forward(tape: Tape, cls_w: Node, cls_m: Node, a_w: Node, a_m: Node,
                  p: dict[str, Node]) -> Node:
    """Difference head: N2(LN(cls_w - cls_m) ++ LN(a_w - a_m))."""
    norm_cls = tape.layernorm(tape.sub(cls_w, cls_m), p["ln_cls.gamma"],
                              p["ln_cls.beta"])
    norm_pos = tape.layernorm(tape.sub(a_w, a_m), p["ln_pos.gamma"],
                              p["ln_pos.beta"])
    feature = tape.concat([norm_cls, norm_pos])
    return tape.linear(p["out.weight"], feature, p["out.bias"])


def mut_concat_forward(tape: Tape, a_w: Node, a_m: Node,
                       p: dict[str, Node]) -> Node:
    return tape.linear(p["out.weight"], tape.concat([a_w, a_m]), p["out.bias"])


def lincomb_forward(tape: Tape, x_w: Node, x_m: Node, p: dict[str, Node]) -> Node:
    mixed = tape.add(tape.scale(p["alpha"], x_w), tape.scale(p["beta"], x_m))
    return tape.linear(p["out.weight"], mixed, p["out.bias"])


def _head1_layout(width: int) -> list[LayoutEntry]:
    return (_linear_layout("mix", width, width * width)
            + _linear_layout("out", 1, width))


def _head2_layout(width: int) -> list[LayoutEntry]:
    return [(f"{ln}.{name}", (width,), start) for ln in ("ln_cls", "ln_pos")
            for name, start in (("gamma", 1.0), ("beta", 0.0))
            ] + _linear_layout("out", 1, 2 * width)


def _mut_concat_layout(width: int) -> list[LayoutEntry]:
    return _linear_layout("out", 1, 2 * width)


def _lincomb_layout(width: int) -> list[LayoutEntry]:
    # difference-style start: alpha=1, beta=-1
    return ([("alpha", (1,), 1.0), ("beta", (1,), -1.0)]
            + _linear_layout("out", 1, width))


# per head kind: the fused vectors it reads, its parameters inside the head
# as layout(width) for fused vectors of that width, and its forward pass
HEADS = {
    HeadKind.HEAD1_OUTER: (("pos",), _head1_layout, head1_forward),
    HeadKind.HEAD2_LNDIFF: (("cls", "pos"), _head2_layout, head2_forward),
    HeadKind.MUT_CONCAT: (("pos",), _mut_concat_layout, mut_concat_forward),
    HeadKind.MUT_LINCOMB: (("pos",), _lincomb_layout, lincomb_forward),
    HeadKind.CLS_LINCOMB: (("cls",), _lincomb_layout, lincomb_forward),
    HeadKind.AVGPOOL_LINCOMB: (("avg",), _lincomb_layout, lincomb_forward),
}

# per model kind: the fused vectors its heads share, and its heads as
# (prefix, kind) in forward, parameter and checkpoint order
MODEL_HEADS = {
    "ensemble": (("cls", "pos"), (("head1", HeadKind.HEAD1_OUTER),
                                  ("head2", HeadKind.HEAD2_LNDIFF))),
    **{kind.value: (reads, (("head", kind),))
       for kind, (reads, _, _) in HEADS.items()},
}

MODEL_KINDS = tuple(MODEL_HEADS)


# ---------------------------------------------------------------------------
# the model


@dataclass
class EnsembleModel:
    """One shared projection feeding the heads of a model kind.

    The ``ensemble`` kind runs head1 and head2 and averages them; every
    other kind is an ensemble of one head. ``forward_nodes`` gives the
    (y1, y2, y_ens) nodes of a batch of pairs, each a ``(B, 1)`` row block,
    and ``batch_loss`` reports the loss terms as a :class:`LossBreakdown`.
    """

    kind_name: str
    projection: TrackProjection
    # prefix -> {name inside the head: array}, in MODEL_HEADS order; the
    # head kind's HEADS layout says which names a head has
    heads: dict[str, dict[str, Array]]
    seed: int = 0

    def named_parameters(self) -> Iterator[tuple[str, Array]]:
        yield from self.projection.named_parameters()
        for prefix, arrays in self.heads.items():
            for name, arr in arrays.items():
                yield f"{prefix}.{name}", arr

    def param_count(self) -> int:
        return sum(arr.size for _, arr in self.named_parameters())

    def forward_nodes(self, tape: Tape, bundles_w: list[EmbeddingBundle],
                      bundles_m: list[EmbeddingBundle]) -> tuple[Node, Node, Node]:
        suffixes, heads = MODEL_HEADS[self.kind_name]
        fused = fuse_pair(tape, self.projection, bundles_w, bundles_m, suffixes)
        ys = []
        for prefix, kind in heads:
            reads, _, forward = HEADS[kind]
            params = {name: tape.leaf(arr, f"{prefix}.{name}")
                      for name, arr in self.heads[prefix].items()}
            ys.append(forward(tape, *(n for s in reads for n in fused[s]), params))
        if len(ys) == 1:
            return ys[0], ys[0], ys[0]
        y1, y2 = ys
        return y1, y2, tape.const_scale(0.5, tape.add(y1, y2))

    def predict_batch(self, pairs) -> list[EnsemblePrediction]:
        """One prediction per ``(bundle_w, bundle_m)`` pair of the list
        ``pairs``, in order, from one forward per ``EVAL_CHUNK`` pairs."""
        chunks = (self.forward_nodes(Tape(), *map(list, zip(*pairs[i:i + EVAL_CHUNK])))
                  for i in range(0, len(pairs), EVAL_CHUNK))
        return [EnsemblePrediction(*map(float, row)) for nodes in chunks
                for row in np.hstack([y.value for y in nodes])]

    def predict(self, bundle_w: EmbeddingBundle,
                bundle_m: EmbeddingBundle) -> EnsemblePrediction:
        return self.predict_batch([(bundle_w, bundle_m)])[0]

    def batch_loss(self, tape: Tape, samples) -> tuple[Node, LossBreakdown]:
        """Mean per-head MSE terms plus the halved ensemble term; a single
        head's one MSE is reported as the ``l_head1`` term.

        ``samples`` is a list of (bundle_w, bundle_m, label) triples.
        """
        if not samples:
            raise ConfigError("batch_loss: empty batch")
        bundles_w, bundles_m, labels = zip(*samples)
        target = np.array(labels, dtype=np.float64).reshape(-1, 1)
        ys = self.forward_nodes(tape, list(bundles_w), list(bundles_m))
        return loss_terms(tape, ys[:1] if len(self.heads) == 1 else ys, target)


def loss_terms(tape: Tape, ys, target) -> tuple[Node, LossBreakdown]:
    """The training loss of prediction rows against ``target``: for
    ``(y1, y2, y_ens)`` the two heads' MSEs plus half the ensemble's MSE,
    and for one head's ``(y,)`` its MSE, reported as the ``l_head1`` term."""
    if len(ys) == 1:
        total = tape.mse(ys[0], target)
        mse = float(total.value[0])
        return total, LossBreakdown(mse, 0.0, 0.0, mse)
    y1, y2, y_ens = ys
    l1 = tape.mse(y1, target)
    l2 = tape.mse(y2, target)
    le = tape.const_scale(0.5, tape.mse(y_ens, target))
    total = tape.add(tape.add(l1, l2), le)
    return total, LossBreakdown(*(float(node.value[0])
                                  for node in (l1, l2, le, total)))


# ---------------------------------------------------------------------------
# layout and factories


def model_layout(kind_name: str, d_raw: int, d_proj: int,
                 modalities: tuple[str, ...]) -> list[LayoutEntry]:
    """Every parameter of a model as ``(name, shape, start)``, in
    ``named_parameters`` and checkpoint order.

    ``start`` is the value the parameter starts at, or None for a uniform
    draw in +-1/sqrt(fan-in): the projection's layers, then each head's
    :data:`HEADS` layout under the head's name. Nothing the size of the
    model is allocated. A bad width, track set or kind raises ConfigError.
    """
    if d_raw < 1 or d_proj < 1:
        raise ConfigError(f"bad projection widths d_raw={d_raw}, d_proj={d_proj}")
    check_track_set(modalities)
    if kind_name not in MODEL_HEADS:
        raise ConfigError(f"unknown model kind {kind_name!r}, "
                          f"expected one of {MODEL_KINDS}")
    suffixes, heads = MODEL_HEADS[kind_name]
    roles = sorted(r for s in suffixes for r in track_roles(modalities, s))
    layout = [e for role in roles
              for e in _linear_layout(f"proj.{role}", d_proj, d_raw)]
    width = d_proj if suffixes == ("avg",) else len(modalities) * d_proj
    return layout + [(f"{prefix}.{name}", shape, start) for prefix, kind in heads
                     for name, shape, start in HEADS[kind][1](width)]


def assemble_model(kind_name: str, d_raw: int, d_proj: int,
                   modalities: tuple[str, ...], seed: int,
                   arrays: dict[str, Array]) -> EnsembleModel:
    """The model that holds ``arrays`` (full names, in layout order) as its
    parameters, without copying them."""
    def part(prefix: str) -> dict[str, Array]:
        return {name[len(prefix) + 1:]: arr for name, arr in arrays.items()
                if name.startswith(prefix + ".")}

    proj = part("proj")
    roles = [name[:-len(".weight")] for name in proj if name.endswith(".weight")]
    projection = TrackProjection(tuple(modalities), d_raw, d_proj, {
        role: LinearParams(proj[f"{role}.weight"], proj[f"{role}.bias"])
        for role in roles})
    heads = {prefix: part(prefix) for prefix, _ in MODEL_HEADS[kind_name][1]}
    return EnsembleModel(kind_name, projection, heads, seed)


def build_model(kind_name: str, d_raw: int, d_proj: int, seed: int,
                modalities: tuple[str, ...] = ("seq",)) -> EnsembleModel:
    """Build by name: ``ensemble`` or any :class:`HeadKind` value.

    Parameters are made in layout order from one ``default_rng(seed)``.
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, shape, start in model_layout(kind_name, d_raw, d_proj, modalities):
        if start is None:
            bound = 1.0 / np.sqrt(shape[-1])
            arrays[name] = rng.uniform(-bound, bound, size=shape)
        else:
            arrays[name] = np.full(shape, start)
    return assemble_model(kind_name, d_raw, d_proj, modalities, seed, arrays)


def build_ensemble(d_raw: int, d_proj: int, seed: int,
                   modalities: tuple[str, ...] = ("seq",)) -> EnsembleModel:
    return build_model("ensemble", d_raw, d_proj, seed, modalities)


def build_single_head(kind: HeadKind, d_raw: int, d_proj: int, seed: int,
                      modalities: tuple[str, ...] = ("seq",)) -> EnsembleModel:
    return build_model(HeadKind(kind).value, d_raw, d_proj, seed, modalities)
