"""Adam, gradient clipping, and the one-cycle learning-rate schedule.

The training recipe is: Adam steps once per batch, the learning rate
follows a cosine warmup/anneal cycle over the whole run, and gradients
are clipped to a global L2 norm of 0.1 beforehand.
"""

from meltshift import (
    AdamState,
    ClipConfig,
    OneCycleSchedule,
    adam_step,
    clip_global_norm,
    global_grad_norm,
    onecycle_lr,
)

import numpy as np  # after meltshift, whose import pins BLAS to one thread

# --- Adam walks a quadratic to its minimum -----------------------------
params = {"w": np.array([1.0])}
state = AdamState.init(params)
trace = []
for step in range(120):
    grads = {"w": 2.0 * params["w"]}  # f(w) = w^2
    adam_step(params, grads, state, lr=0.1)
    if step % 20 == 0:
        trace.append(float(params["w"][0]))
print("Adam on f(w)=w^2, w sampled every 20 steps:")
print("  " + "  ".join(f"{w:+.4f}" for w in trace))

# --- clipping rescales the whole gradient map jointly -------------------
grads = {"a": np.array([0.3, 0.4]), "b": np.array([1.2])}
clipped, pre = clip_global_norm(grads, ClipConfig(max_norm=0.1))
print(f"\nglobal norm {pre:.3f} -> {global_grad_norm(clipped):.3f} "
      f"(threshold 0.1)")
print("direction preserved:", clipped["a"] / grads["a"])

# --- the one-cycle shape, rendered as a crude sparkline -----------------
sched = OneCycleSchedule(max_lr=1e-2, total_steps=60)
lrs = [onecycle_lr(i, sched) for i in range(61)]
levels = " .:-=+*#"
lo, hi = min(lrs), max(lrs)
line = "".join(levels[int((lr - lo) / (hi - lo) * (len(levels) - 1))]
               for lr in lrs)
print(f"\none-cycle lr over {sched.total_steps} steps "
      f"(start {lrs[0]:.2e}, peak {max(lrs):.2e}, end {lrs[-1]:.2e}):")
print("  " + line)
print(f"  peak at step {sched.peak_step}")
