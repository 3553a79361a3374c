"""Reverse-mode gradient tape over dense float64 numpy arrays.

All model arithmetic runs through this module: each primitive records its
inputs and a backward closure on a :class:`Tape`, and ``Tape.backward``
replays the records in exact reverse order. One finite-difference proof of
this machinery covers every head architecture built on top of it.

Conventions
-----------
* Everything is float64. Scalars are shape-``(1,)`` arrays so they
  compose with the other ops.
* An activation is a vector ``(d,)`` or a block of rows ``(B, d)``, one
  sample per row. Primitives act on the last axis, so one code path
  serves both, and parameter gradients are summed over the rows.
* Parameters enter a tape via :meth:`Tape.leaf` with a unique name, once
  per tape: the owner of an array binds it and hands the node to every
  op that reads it, so all its uses accumulate into one gradient. A
  second binding under the same name raises ConfigError.
* A backward closure returns its inputs' gradients, in the order of the
  record's inputs, and touches no node. ``Tape.backward`` is the one place
  that sums them, and it sums out of place, so no gradient array is
  written after it is made and closures may hand on ``g`` or a view of it.
* Only unnamed (input) leaves are scanned for non-finite entries.
  Parameters are finite where they enter (``build_model`` makes them so,
  ``load_checkpoint`` checks them) and stay finite, because
  ``optim.clip_scale`` rejects a non-finite gradient before the update.
* LayerNorm uses the population (divide-by-n) variance.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericError, StateError

Array = np.ndarray

DEFAULT_LAYERNORM_EPS = 1e-5


class Node:
    """One value in the computation graph. Leaves may carry a name."""

    __slots__ = ("value", "grad", "name")

    def __init__(self, value: Array, name: str | None = None):
        self.value = value
        self.grad: Array | None = None
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover
        tag = f" name={self.name!r}" if self.name else ""
        return f"<Node shape={self.value.shape}{tag}>"


class Tape:
    """Records primitive operations for one forward pass.

    A tape is single-use: run the forward by calling primitives, then
    call :meth:`backward` exactly once. Parameters persist outside the
    tape as plain arrays; a fresh tape is built per training step.
    """

    def __init__(self):
        self._records: list[tuple[Node, tuple[Node, ...], object]] = []
        self._leaves: list[Node] = []
        self._names: set[str] = set()
        self._consumed = False

    # ------------------------------------------------------------------
    # graph construction

    def leaf(self, value, name: str | None = None) -> Node:
        """Register an input or parameter array and return its node.

        Each call makes a new node, so a parameter must be bound once per
        tape and its node reused; a name already on the tape raises
        ConfigError. Unnamed (input) arrays are checked for non-finite
        entries; named parameters are checked where they enter instead.
        """
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if name is None and not np.all(np.isfinite(arr)):
            raise NumericError("leaf <input>: non-finite entries")
        if name is not None:
            if name in self._names:
                raise ConfigError(f"duplicate parameter name on tape: {name!r}")
            self._names.add(name)
        node = Node(arr, name)
        self._leaves.append(node)
        return node

    def _emit(self, value: Array, inputs: tuple[Node, ...], backward) -> Node:
        out = Node(value)
        self._records.append((out, inputs, backward))
        return out

    # ------------------------------------------------------------------
    # primitives

    def add(self, a: Node, b: Node) -> Node:
        if a.value.shape != b.value.shape:
            raise ConfigError(f"add: shape mismatch {a.value.shape} vs {b.value.shape}")
        return self._emit(a.value + b.value, (a, b), lambda g: (g, g))

    def sub(self, a: Node, b: Node) -> Node:
        if a.value.shape != b.value.shape:
            raise ConfigError(f"sub: shape mismatch {a.value.shape} vs {b.value.shape}")
        return self._emit(a.value - b.value, (a, b), lambda g: (g, -g))

    def scale(self, s: Node, x: Node) -> Node:
        """Learned scalar times tensor: ``s`` must have shape (1,)."""
        if s.value.shape != (1,):
            raise ConfigError(f"scale: scalar must have shape (1,), got {s.value.shape}")
        sval, xval = s.value, x.value

        def backward(g: Array) -> tuple[Array, ...]:
            return np.array([np.sum(g * xval)]), sval[0] * g

        return self._emit(sval[0] * xval, (s, x), backward)

    def const_scale(self, c: float, x: Node) -> Node:
        """Fixed constant times tensor; no gradient flows to ``c``."""
        c = float(c)
        return self._emit(c * x.value, (x,), lambda g: (c * g,))

    def linear(self, W: Node, x: Node, b: Node) -> Node:
        """Affine map ``x @ W.T + b`` with W (m,n), x (n,) or (B,n), b (m,)."""
        if W.value.ndim != 2 or b.value.ndim != 1:
            raise ConfigError(
                f"linear: need W 2-D, b 1-D; got {W.value.shape}, "
                f"{x.value.shape}, {b.value.shape}"
            )
        m, n = W.value.shape
        if x.value.shape[-1] != n or b.value.shape[0] != m:
            raise ConfigError(
                f"linear: W {W.value.shape} expects x rows of {n} and b ({m},); "
                f"got x {x.value.shape}, b {b.value.shape}"
            )
        Wval, xval = W.value, x.value

        def backward(g: Array) -> tuple[Array, ...]:
            rows = g.reshape(-1, m)
            return rows.T @ xval.reshape(-1, n), g @ Wval, rows.sum(axis=0)

        return self._emit(xval @ Wval.T + b.value, (W, x, b), backward)

    def outer_flatten(self, u: Node, v: Node) -> Node:
        """Per-row flattened outer product: out[.., i*d + j] = u[.., i] * v[.., j]."""
        if u.value.shape != v.value.shape:
            raise ConfigError(
                f"outer_flatten: need equal shapes, got {u.value.shape} "
                f"vs {v.value.shape}"
            )
        *lead, d = u.value.shape
        uval, vval = u.value, v.value

        def backward(g: Array) -> tuple[Array, ...]:
            G = g.reshape(*lead, d, d)
            return (G @ vval[..., None])[..., 0], (uval[..., None, :] @ G)[..., 0, :]

        out = (uval[..., :, None] * vval[..., None, :]).reshape(*lead, d * d)
        return self._emit(out, (u, v), backward)

    def layernorm(self, x: Node, gamma: Node, beta: Node,
                  eps: float = DEFAULT_LAYERNORM_EPS) -> Node:
        """gamma * (x - mean) / sqrt(var + eps) + beta per row, population variance."""
        if not (x.value.shape[-1:] == gamma.value.shape == beta.value.shape):
            raise ConfigError(
                f"layernorm: shape mismatch x {x.value.shape}, gamma "
                f"{gamma.value.shape}, beta {beta.value.shape}"
            )
        if eps <= 0:
            raise ConfigError(f"layernorm: eps must be positive, got {eps}")
        n = x.value.shape[-1]
        mu = x.value.mean(axis=-1, keepdims=True)
        var = x.value.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = (x.value - mu) * inv_std
        gval = gamma.value

        def backward(g: Array) -> tuple[Array, ...]:
            dgamma = (g * xhat).reshape(-1, n).sum(axis=0)
            dbeta = g.reshape(-1, n).sum(axis=0)
            dxhat = g * gval
            # standard layernorm input gradient with population variance
            dx = (inv_std / n) * (
                n * dxhat - dxhat.sum(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True)
            )
            return dx, dgamma, dbeta

        return self._emit(gval * xhat + beta.value, (x, gamma, beta), backward)

    def concat(self, parts: list[Node]) -> Node:
        """Lay parts end to end along the last axis; leading shapes must agree."""
        if not parts:
            raise ConfigError("concat: empty part list")
        lead = parts[0].value.shape[:-1]
        for p in parts:
            if p.value.shape[:-1] != lead:
                raise ConfigError(f"concat: parts of different batch shapes, got "
                                  f"{[q.value.shape for q in parts]}")
        offsets = np.cumsum([0] + [p.value.shape[-1] for p in parts])

        def backward(g: Array) -> tuple[Array, ...]:
            return tuple(g[..., lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:]))

        return self._emit(np.concatenate([p.value for p in parts], axis=-1),
                          tuple(parts), backward)

    def mse(self, x: Node, target) -> Node:
        """Mean squared error over all entries (a batch's rows); scalar output."""
        t = np.asarray(target, dtype=np.float64)
        if t.ndim == 0:
            t = t.reshape(1)
        if t.shape != x.value.shape:
            raise ConfigError(f"mse: target shape {t.shape} vs value {x.value.shape}")
        diff = x.value - t
        n = diff.size

        return self._emit(np.array([np.mean(diff * diff)]), (x,),
                          lambda g: ((2.0 / n) * diff * g[0],))

    # ------------------------------------------------------------------
    # reverse pass

    def backward(self, output: Node) -> dict[str, Array]:
        """Run the reverse pass from a scalar output node.

        Returns gradients for every named leaf (zeros if the forward never
        touched it). Unnamed leaves keep their gradient on ``node.grad``.
        A returned array may be shared with another leaf or be a view of a
        larger gradient, so callers must not write into it.
        Gradients are not checked for finiteness here: the training step
        checks them once, in ``optim.clip_scale``.
        """
        if self._consumed:
            raise StateError("backward already ran on this tape")
        if not self._records:
            raise StateError("backward before forward: tape has no recorded ops")
        if output.value.shape != (1,):
            raise ConfigError(
                f"backward: output must be scalar shape (1,), got {output.value.shape}"
            )
        self._consumed = True
        output.grad = np.array([1.0])
        for out, inputs, bwd in reversed(self._records):
            if out.grad is None:
                continue
            for node, g in zip(inputs, bwd(out.grad)):
                node.grad = g if node.grad is None else node.grad + g
        grads: dict[str, Array] = {}
        for node in self._leaves:
            if node.name is None:
                continue
            g = node.grad if node.grad is not None else np.zeros_like(node.value)
            grads[node.name] = g
        return grads
