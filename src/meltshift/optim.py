"""Adam optimizer, global-norm gradient clipping, one-cycle LR schedule.

Gradients and parameters travel as ``dict[str, ndarray]`` maps keyed by
parameter name; ``adam_step`` updates the parameter arrays in place so a
model holding the same arrays sees the update without copying.

Clipping and Adam share one walk over memory: ``clip_scale`` reads the
gradients (a ``tape.Factored`` one through its factors) for their norm and
returns the scale that clipping would apply, and ``adam_step`` applies it
while it updates the moments and parameters in place, a block at a time
through block-sized scratch buffers, in two shares, one per worker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import operator
from functools import partial, reduce

import numpy as np

from .errors import ConfigError, NumericError
from .tape import CHUNK, Array, Factored, _run_pair

# the fixed recipe: Adam's decay rates and epsilon, and the one-cycle
# schedule's warmup share and start and end divisors of max_lr
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
PCT_START = 0.3
DIV_FACTOR = 25.0
FINAL_DIV_FACTOR = 1e4


def _map_shares(maps: list[dict[str, Array]], job) -> None:
    """``job(blocks, *buffers)`` for two contiguous shares of about equal size, each
    with three scratch buffers and its own worker, of the blocks in sorted-name order:
    ``CHUNK`` elements of each map's array, or whole rows where the last is factored."""
    blocks = []
    for name in sorted(maps[0]):
        *rest, g = (m[name] for m in maps)
        if isinstance(g, Factored):
            step = max(1, CHUNK // g.shape[1])
            blocks += [(*(a[r:r + step] for a in rest), Factored(g.rows[:, r:r + step], g.x))
                       for r in range(0, g.shape[0], step)]
        else:
            flat = [a.reshape(-1) for a in (*rest, g)]
            blocks += [tuple(a[i:i + CHUNK] for a in flat) for i in range(0, g.size, CHUNK)]
    ends = np.cumsum([0] + [block[0].size for block in blocks])
    size, cut = int(ends[-1]), int(np.searchsorted(ends, ends[-1] / 2))
    buffers = np.empty((2, 3, np.diff(ends).max(initial=0)))
    _run_pair(size, partial(job, blocks[:cut], *buffers[0]),
              partial(job, blocks[cut:], *buffers[1]))


# ---------------------------------------------------------------------------
# gradient clipping


@dataclass
class ClipConfig:
    max_norm: float

    def __post_init__(self):
        if not (math.isfinite(self.max_norm) and self.max_norm > 0):
            raise ConfigError(
                f"clip max_norm must be finite and > 0, got {self.max_norm}")


def _ghost_square(g: Factored) -> float:
    """||rows.T @ x||**2 as sum_ab (R R^T)_ab (X X^T)_ab, the ghost norm
    (arXiv:1510.01799), kept where its rounding is below 2**-32 of it, else from the
    built gradient. With R and X scaled by powers of two to entries below 1, the
    Gram entries, their products and their sum err by at most (m + n + 1 + B**2)
    * 2**-53 * W**2, W = sum_a ||r_a|| ||x_a||, however they cancel; underflow
    adds under 2**-1000 (B**2*m*n < 2**70); the test doubles the first, for second order."""
    e = [int(np.frexp(np.max(np.abs(a), initial=0.0))[1]) for a in (g.rows, g.x)]
    r, x = np.ldexp(g.rows, -e[0]), np.ldexp(g.x, -e[1])
    gram = (r @ r.T) * (x @ x.T)
    square, w = float(gram.sum()), float(np.sqrt(gram.diagonal()).sum())
    if (sum(g.shape) + 1 + gram.size) * 2.0**-52 * w * w + 2.0**-1000 <= 2.0**-32 * square:
        return float(np.ldexp(square, 2 * sum(e)))
    built = np.asarray(g).reshape(-1)
    return float(np.add.reduce(np.square(built, out=built)))


def global_grad_norm(grads: dict[str, Array]) -> float:
    """L2 norm of all gradients jointly.

    Squares are summed per ``CHUNK`` block by ``np.add.reduce``, never BLAS, and
    added one by one in sorted-name block order, then each factored one's
    (:func:`_ghost_square`).
    """
    named = sorted(grads.items())
    dense = [np.reshape(g, -1) for _, g in named if not isinstance(g, Factored)]
    squares = [float(np.add.reduce(np.multiply(b, b))) for g in dense
               for b in (g[i:i + CHUNK] for i in range(0, g.size, CHUNK))]
    squares += [_ghost_square(g) for _, g in named if isinstance(g, Factored)]
    # one by one: sum() compensates from Python 3.12 on
    return math.sqrt(reduce(operator.add, squares, 0.0))


def clip_scale(grads: dict[str, Array], cfg: ClipConfig) -> tuple[float, float]:
    """The factor that brings the joint L2 norm to at most ``max_norm``.

    Returns ``(scale, norm)`` with the pre-clip norm; ``scale`` is 1.0 when
    the norm is within the bound, else ``max_norm / norm * (1 - 2**-30)``.
    A computed norm is off by at most about ``(30 + blocks) * 2**-53`` relative
    (a rounding per square, the pairwise sum in a block, an addition per block,
    the square root) plus ``2**-33`` from ghost squares; the margin exceeds that
    error on the norm and on the clipped copy's norm together for up to about
    10**6 blocks, so the copy's computed norm is at most ``max_norm`` and
    clipping is exactly idempotent. A non-finite norm (the step's finiteness
    check) raises NumericError naming the first parameter with a non-finite entry.
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
    return cfg.max_norm / norm * (1 - 2**-30), norm


def clip_global_norm(grads: dict[str, Array],
                     cfg: ClipConfig) -> tuple[dict[str, Array], float]:
    """Scaled dense copies of ``grads`` per :func:`clip_scale`, and the pre-clip norm."""
    scale, norm = clip_scale(grads, cfg)
    return {k: np.asarray(v) * scale for k, v in grads.items()}, norm


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
    ``grads`` is only read. Each block computes ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + (1-b2)*(g*g)`` and Kingma & Ba's one-divide form (ICLR 2015,
    section 2), ``p -= (m / (sqrt(v) + eps*sqrt(bc2))) * (lr*sqrt(bc2)/bc1)``,
    so the result equals that formula on whole arrays bit for bit.
    """
    if not (math.isfinite(lr) and lr > 0):
        raise ConfigError(f"learning rate must be finite and > 0, got {lr}")
    if not (math.isfinite(grad_scale) and grad_scale > 0):
        raise ConfigError(f"grad_scale must be finite and > 0, got {grad_scale}")
    if not set(params) == set(grads) == set(state.m) == set(state.v):
        raise ConfigError("adam_step: parameter/gradient/state key mismatch")
    for name in sorted(params):
        p, g = params[name], grads[name]
        if p.shape != g.shape:
            raise ConfigError(f"adam_step: {name} param {p.shape} vs grad {g.shape}")
        for kind, arr in (("param", p), ("m", state.m[name]), ("v", state.v[name])):
            if arr.shape != p.shape or not arr.flags.c_contiguous:
                raise ConfigError(
                    f"adam_step: {name} {kind} must be C-contiguous of shape {p.shape}"
                )
    state.t += 1
    b1, b2, root_bc2 = ADAM_BETA1, ADAM_BETA2, math.sqrt(1.0 - ADAM_BETA2 ** state.t)
    step, eps_hat = lr * root_bc2 / (1.0 - b1 ** state.t), ADAM_EPS * root_bc2

    def update(blocks, g_buf, a_buf, b_buf):
        for pc, mc, vc, g in blocks:
            a, b, g_out = (buf[:pc.size].reshape(pc.shape) for buf in (a_buf, b_buf, g_buf))
            g = np.multiply(g, grad_scale, out=g_out)
            np.multiply(mc, b1, out=mc)
            np.multiply(g, 1.0 - b1, out=a)
            np.add(mc, a, out=mc)
            np.multiply(g, g, out=a)
            np.multiply(a, 1.0 - b2, out=a)
            np.multiply(vc, b2, out=vc)
            np.add(vc, a, out=vc)
            np.sqrt(vc, out=b)
            np.add(b, eps_hat, out=b)
            np.divide(mc, b, out=a)
            np.multiply(a, step, out=a)
            np.subtract(pc, a, out=pc)

    _map_shares([params, state.m, state.v, grads], update)
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
        if not (math.isfinite(self.max_lr) and self.max_lr > 0):
            raise ConfigError(f"max_lr must be finite and > 0, got {self.max_lr}")
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
        raise ConfigError(f"step {step} outside schedule range [0, {sched.total_steps}]")
    initial = sched.max_lr / DIV_FACTOR
    final = sched.max_lr / FINAL_DIV_FACTOR
    peak = sched.peak_step
    if step <= peak:
        # peak == 0 means the run is too short for a warmup phase
        if peak == 0:
            return sched.max_lr
        return _cosine(initial, sched.max_lr, step / peak)
    return _cosine(sched.max_lr, final, (step - peak) / (sched.total_steps - peak))
