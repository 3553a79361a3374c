"""Central finite-difference gradient verification.

The numeric route evaluates the forward pass only, so it stays fully
independent of the tape's backward kernels it is used to check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .tape import Array, Tape

DEFAULT_FD_STEP = 1e-4

# Relative-error denominators are floored at 1e-3, so the 1e-4 relative
# threshold degrades to a 1e-7 absolute threshold for near-zero gradients.
REL_ERR_FLOOR = 1e-3
GRAD_TOLERANCE = 1e-4


@dataclass
class GradCheckResult:
    max_rel_err: float
    worst_param: str
    worst_index: tuple
    n_checked: int

    def ok(self) -> bool:
        return self.max_rel_err < GRAD_TOLERANCE


def finite_diff(loss_fn: Callable[[], float], params: dict[str, Array],
                step: float = DEFAULT_FD_STEP) -> dict[str, Array]:
    """Central differences of ``loss_fn`` w.r.t. every element of ``params``.

    Perturbs each entry in place (restoring it afterwards), so ``loss_fn``
    must read the live arrays in ``params``.
    """
    grads: dict[str, Array] = {}
    for name, arr in params.items():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            f_plus = loss_fn()
            arr[idx] = orig - step
            f_minus = loss_fn()
            arr[idx] = orig
            g[idx] = (f_plus - f_minus) / (2.0 * step)
        grads[name] = g
    return grads


def compare_grads(analytic: dict[str, Array],
                  numeric: dict[str, Array]) -> GradCheckResult:
    """Worst floored relative error between two gradient maps."""
    if set(analytic) != set(numeric):
        missing = set(analytic) ^ set(numeric)
        raise KeyError(f"gradient maps disagree on parameters: {sorted(missing)}")
    worst = 0.0
    worst_param = ""
    worst_index: tuple = ()
    n = 0
    for name in sorted(analytic):
        a, f = analytic[name], numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), REL_ERR_FLOOR)
        with np.errstate(invalid="ignore"):  # inf / inf
            err = np.abs(a - f) / denom
        # a NaN would lose every comparison below and pass as no error
        err[~np.isfinite(err)] = np.inf
        n += err.size
        idx = np.unravel_index(np.argmax(err), err.shape)
        if err[idx] >= worst:
            worst = float(err[idx])
            worst_param = name
            worst_index = tuple(int(i) for i in idx)
    return GradCheckResult(worst, worst_param, worst_index, n)


def check_model(model, samples, step: float = DEFAULT_FD_STEP) -> GradCheckResult:
    """Check a model's analytic batch-loss gradients against central differences.

    ``model`` needs ``named_parameters()`` and ``batch_loss(tape, samples)``,
    as every :class:`~meltshift.heads.EnsembleModel` has.
    """
    params = dict(model.named_parameters())

    def loss_fn() -> float:
        t = Tape()
        loss, _ = model.batch_loss(t, samples)
        return float(loss.value[0])

    t = Tape()
    loss, _ = model.batch_loss(t, samples)
    analytic = t.backward(loss)
    numeric = finite_diff(loss_fn, params, step)
    return compare_grads(analytic, numeric)
