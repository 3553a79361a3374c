"""Adam optimizer, global-norm gradient clipping, one-cycle LR schedule.

Gradients and parameters travel as ``dict[str, ndarray]`` maps keyed by
parameter name; ``adam_step`` updates the parameter arrays in place so a
model holding the same arrays sees the update without copying.

Clipping and Adam share one walk over memory: ``clip_scale`` reads the
gradients for their norm and returns the scale that clipping would apply,
and ``adam_step`` applies that scale while it updates the moments and the
parameters in place, ``CHUNK`` elements at a time through a few chunk-sized
scratch buffers. No gradient is copied or written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError
from .tape import Array

# elements per block of the norm and the Adam update: a few blocks of the
# parameter, its moments and the scratch buffers stay in cache together
CHUNK = 32768

# the fixed recipe: Adam's decay rates and epsilon, and the one-cycle
# schedule's warmup share and start and end divisors of max_lr
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
PCT_START = 0.3
DIV_FACTOR = 25.0
FINAL_DIV_FACTOR = 1e4


def _chunks(n: int):
    """``(start, stop)`` of each block of ``n`` elements."""
    return ((start, min(start + CHUNK, n)) for start in range(0, n, CHUNK))


# ---------------------------------------------------------------------------
# gradient clipping


@dataclass
class ClipConfig:
    max_norm: float = 0.1

    def __post_init__(self):
        if not (self.max_norm > 0):
            raise ConfigError(f"clip max_norm must be > 0, got {self.max_norm}")


def global_grad_norm(grads: dict[str, Array], scale: float = 1.0) -> float:
    """L2 norm of all gradients jointly, each multiplied by ``scale``.

    Squares are summed block by block (``CHUNK`` elements) in sorted-name
    order with ``np.sum``, never BLAS, so the result does not depend on the
    BLAS thread count; ``global_grad_norm(g, s)`` equals the norm of
    ``{k: v * s}`` bit for bit.
    """
    buf = np.empty(min(CHUNK, max((g.size for g in grads.values()), default=0)))
    total = 0.0
    for name in sorted(grads):
        flat = grads[name].reshape(-1)
        for start, stop in _chunks(flat.size):
            g, out = flat[start:stop], buf[: stop - start]
            if scale != 1.0:
                g = np.multiply(g, scale, out=out)
            total += float(np.sum(np.multiply(g, g, out=out)))
    return math.sqrt(total)


def clip_scale(grads: dict[str, Array], cfg: ClipConfig) -> tuple[float, float]:
    """The factor that brings the joint L2 norm to at most ``max_norm``.

    Returns ``(scale, norm)`` with the pre-clip norm; ``scale`` is 1.0 when
    the norm is within the bound. The scale is nudged down by ulps if float
    rounding leaves the scaled norm above the threshold, which makes
    clipping exactly idempotent. The norm is the step's finiteness check: a
    non-finite one raises NumericError, naming the first parameter with a
    non-finite entry, if any.
    """
    with np.errstate(over="ignore"):  # an overflow shows as an infinite norm
        norm = global_grad_norm(grads)
    if not math.isfinite(norm):
        for name in sorted(grads):
            if not np.all(np.isfinite(grads[name])):
                raise NumericError(f"non-finite gradient for parameter {name!r}")
        raise NumericError(f"gradient norm overflows to {norm}")
    if norm <= cfg.max_norm:
        return 1.0, norm
    scale = cfg.max_norm / norm
    while global_grad_norm(grads, scale) > cfg.max_norm:
        scale = float(np.nextafter(scale, 0.0))
    return scale, norm


def clip_global_norm(grads: dict[str, Array],
                     cfg: ClipConfig) -> tuple[dict[str, Array], float]:
    """Scaled copies of ``grads`` per :func:`clip_scale`, and the pre-clip norm."""
    scale, norm = clip_scale(grads, cfg)
    return {k: v * scale for k, v in grads.items()}, norm


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """Moment estimates and step count; shapes mirror the parameters.
    The decay rates and epsilon are the fixed recipe's ``ADAM_*``."""

    t: int = 0
    m: dict[str, Array] = field(default_factory=dict)
    v: dict[str, Array] = field(default_factory=dict)

    @classmethod
    def init(cls, params: dict[str, Array]) -> "AdamState":
        return cls(m={k: np.zeros_like(p) for k, p in params.items()},
                   v={k: np.zeros_like(p) for k, p in params.items()})


def adam_step(params: dict[str, Array], grads: dict[str, Array],
              state: AdamState, lr: float,
              grad_scale: float = 1.0) -> tuple[dict[str, Array], AdamState]:
    """One bias-corrected Adam update on ``grad_scale * grads``, in place.

    ``params`` and the moments in ``state`` are updated block by block;
    ``grads`` is only read. Each block follows the textbook order of
    operations, ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*(g*g)``,
    ``p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)``, so the result equals that
    formula on whole arrays bit for bit.
    """
    if lr <= 0:
        raise ConfigError(f"learning rate must be > 0, got {lr}")
    if set(params) != set(grads) or set(params) != set(state.m):
        raise ConfigError("adam_step: parameter/gradient/state key mismatch")
    for name in sorted(params):
        p, g = params[name], grads[name]
        if p.shape != g.shape:
            raise ConfigError(
                f"adam_step: {name} param {p.shape} vs grad {g.shape}"
            )
        for kind, arr in (("param", p), ("m", state.m[name]), ("v", state.v[name])):
            if arr.shape != p.shape or not arr.flags.c_contiguous:
                raise ConfigError(
                    f"adam_step: {name} {kind} must be C-contiguous of shape {p.shape}"
                )
    state.t += 1
    b1, b2, eps, t = ADAM_BETA1, ADAM_BETA2, ADAM_EPS, state.t
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    size = min(CHUNK, max((p.size for p in params.values()), default=0))
    g_buf, update, denom = np.empty(size), np.empty(size), np.empty(size)
    for name in sorted(params):
        p = params[name].reshape(-1)
        m = state.m[name].reshape(-1)
        v = state.v[name].reshape(-1)
        g_all = grads[name].reshape(-1)
        for start, stop in _chunks(p.size):
            n = stop - start
            pc, mc, vc = p[start:stop], m[start:stop], v[start:stop]
            g, a, b = g_all[start:stop], update[:n], denom[:n]
            if grad_scale != 1.0:
                g = np.multiply(g, grad_scale, out=g_buf[:n])
            np.multiply(mc, b1, out=mc)
            np.multiply(g, 1.0 - b1, out=a)
            np.add(mc, a, out=mc)
            np.multiply(g, g, out=a)
            np.multiply(a, 1.0 - b2, out=a)
            np.multiply(vc, b2, out=vc)
            np.add(vc, a, out=vc)
            np.divide(mc, bc1, out=a)
            np.multiply(a, lr, out=a)
            np.divide(vc, bc2, out=b)
            np.sqrt(b, out=b)
            np.add(b, eps, out=b)
            np.divide(a, b, out=a)
            np.subtract(pc, a, out=pc)
    return params, state


# ---------------------------------------------------------------------------
# one-cycle schedule


@dataclass
class OneCycleSchedule:
    """Cosine warmup to ``max_lr``, then cosine anneal to a small final lr.

    Stepped once per optimizer step; ``total_steps`` is the full run length
    (epochs times batches per epoch). Boundary values are exact:
    lr(0) = max_lr / DIV_FACTOR, lr(peak) = max_lr,
    lr(total_steps) = max_lr / FINAL_DIV_FACTOR.
    """

    max_lr: float
    total_steps: int

    def __post_init__(self):
        if self.max_lr <= 0:
            raise ConfigError(f"max_lr must be > 0, got {self.max_lr}")
        if self.total_steps < 1:
            raise ConfigError(f"total_steps must be >= 1, got {self.total_steps}")

    @property
    def peak_step(self) -> int:
        return int(math.floor(PCT_START * self.total_steps))


def _cosine(start: float, end: float, frac: float) -> float:
    if frac <= 0.0:
        return start
    if frac >= 1.0:
        return end
    return end + (start - end) * (1.0 + math.cos(math.pi * frac)) / 2.0


def onecycle_lr(step: int, sched: OneCycleSchedule) -> float:
    """Learning rate at an integer step in [0, total_steps]."""
    if not 0 <= step <= sched.total_steps:
        raise ConfigError(
            f"step {step} outside schedule range [0, {sched.total_steps}]"
        )
    initial = sched.max_lr / DIV_FACTOR
    final = sched.max_lr / FINAL_DIV_FACTOR
    peak = sched.peak_step
    if step <= peak:
        # peak == 0 means the run is too short for a warmup phase
        if peak == 0:
            return sched.max_lr
        return _cosine(initial, sched.max_lr, step / peak)
    return _cosine(sched.max_lr, final, (step - peak) / (sched.total_steps - peak))
