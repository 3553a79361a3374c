"""Adam optimizer, global-norm gradient clipping, one-cycle LR schedule.

Gradients and parameters travel as ``dict[str, ndarray]`` maps keyed by
parameter name; ``adam_step`` updates the parameter arrays in place so a
model holding the same arrays sees the update without copying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError
from .tape import Array


# ---------------------------------------------------------------------------
# gradient clipping


@dataclass
class ClipConfig:
    max_norm: float = 0.1

    def __post_init__(self):
        if not (self.max_norm > 0):
            raise ConfigError(f"clip max_norm must be > 0, got {self.max_norm}")


def global_grad_norm(grads: dict[str, Array]) -> float:
    """L2 norm over all gradients jointly, summed in sorted-name order."""
    total = 0.0
    for name in sorted(grads):
        g = grads[name]
        total += float(np.sum(g * g))
    return math.sqrt(total)


def clip_global_norm(grads: dict[str, Array],
                     cfg: ClipConfig) -> tuple[dict[str, Array], float]:
    """Scale all gradients so their joint L2 norm is at most ``max_norm``.

    Returns new arrays (inputs untouched) and the pre-clip norm. The scale
    is nudged down by ulps if float rounding leaves the post-clip norm
    above the threshold, which makes clipping exactly idempotent. The norm
    is the step's finiteness check: a non-finite one raises NumericError,
    naming the first parameter with a non-finite entry, if any.
    """
    with np.errstate(over="ignore"):  # an overflow shows as an infinite norm
        norm = global_grad_norm(grads)
    if not math.isfinite(norm):
        for name in sorted(grads):
            if not np.all(np.isfinite(grads[name])):
                raise NumericError(f"non-finite gradient for parameter {name!r}")
        raise NumericError(f"gradient norm overflows to {norm}")
    if norm <= cfg.max_norm:
        return {k: v.copy() for k, v in grads.items()}, norm
    scale = cfg.max_norm / norm
    scaled = {k: v * scale for k, v in grads.items()}
    while global_grad_norm(scaled) > cfg.max_norm:
        scale = np.nextafter(scale, 0.0)
        scaled = {k: v * scale for k, v in grads.items()}
    return scaled, norm


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """Moment estimates and step count; shapes mirror the parameters."""

    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict[str, Array] = field(default_factory=dict)
    v: dict[str, Array] = field(default_factory=dict)

    @classmethod
    def init(cls, params: dict[str, Array], beta1: float = 0.9,
             beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ConfigError(f"bad Adam betas ({beta1}, {beta2})")
        if not (eps > 0):
            raise ConfigError(f"Adam eps must be > 0, got {eps}")
        return cls(beta1, beta2, eps, 0,
                   {k: np.zeros_like(p) for k, p in params.items()},
                   {k: np.zeros_like(p) for k, p in params.items()})


def adam_step(params: dict[str, Array], grads: dict[str, Array],
              state: AdamState, lr: float) -> tuple[dict[str, Array], AdamState]:
    """One bias-corrected Adam update, applied to ``params`` in place."""
    if lr <= 0:
        raise ConfigError(f"learning rate must be > 0, got {lr}")
    if set(params) != set(grads) or set(params) != set(state.m):
        raise ConfigError("adam_step: parameter/gradient/state key mismatch")
    state.t += 1
    b1, b2, eps, t = state.beta1, state.beta2, state.eps, state.t
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for name in sorted(params):
        p, g = params[name], grads[name]
        if p.shape != g.shape:
            raise ConfigError(
                f"adam_step: {name} param {p.shape} vs grad {g.shape}"
            )
        m = state.m[name]
        v = state.v[name]
        state.m[name] = b1 * m + (1.0 - b1) * g
        state.v[name] = b2 * v + (1.0 - b2) * (g * g)
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return params, state


# ---------------------------------------------------------------------------
# one-cycle schedule


@dataclass
class OneCycleSchedule:
    """Cosine warmup to ``max_lr``, then cosine anneal to a small final lr.

    Stepped once per optimizer step; ``total_steps`` is the full run length
    (epochs times batches per epoch). Boundary values are exact:
    lr(0) = max_lr / div_factor, lr(peak) = max_lr,
    lr(total_steps) = max_lr / final_div_factor.
    """

    max_lr: float
    total_steps: int
    pct_start: float = 0.3
    div_factor: float = 25.0
    final_div_factor: float = 1e4

    def __post_init__(self):
        if self.max_lr <= 0:
            raise ConfigError(f"max_lr must be > 0, got {self.max_lr}")
        if self.total_steps < 1:
            raise ConfigError(f"total_steps must be >= 1, got {self.total_steps}")
        if not (0.0 <= self.pct_start < 1.0):
            raise ConfigError(f"pct_start must be in [0, 1), got {self.pct_start}")
        if self.div_factor <= 0 or self.final_div_factor <= 0:
            raise ConfigError("div factors must be > 0")

    @property
    def peak_step(self) -> int:
        return int(math.floor(self.pct_start * self.total_steps))


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
    initial = sched.max_lr / sched.div_factor
    final = sched.max_lr / sched.final_div_factor
    peak = sched.peak_step
    if step <= peak:
        # peak == 0 means the run is too short for a warmup phase
        if peak == 0:
            return sched.max_lr
        return _cosine(initial, sched.max_lr, step / peak)
    return _cosine(sched.max_lr, final, (step - peak) / (sched.total_steps - peak))
