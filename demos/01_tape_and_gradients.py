"""A tour of the gradient tape: record a forward pass, replay it backward.

Every model in this package is a composition of a handful of primitives
(linear, outer product, layernorm, concat, ...) recorded on a Tape. The
backward pass walks the records in reverse and accumulates exact
gradients, which we verify here against central finite differences.
"""

from meltshift import Tape
from meltshift.gradcheck import compare_grads, finite_diff

import numpy as np  # after meltshift, whose import pins BLAS to one thread

rng = np.random.default_rng(0)

# --- a scalar chain: loss = (w * x)^2 at w=3, x=2 ----------------------
w = np.array([3.0])
tape = Tape()
wx = tape.scale(tape.leaf(w, "w"), tape.leaf(np.array([2.0])))
loss = tape.mse(wx, np.array([0.0]))
grads = tape.backward(loss)
print("loss (w*x)^2 at w=3, x=2  ->", loss.value[0])      # 36
print("analytic dloss/dw         ->", grads["w"][0])      # 2*6*2 = 24

# --- a vector pipeline closer to what the heads do ---------------------
params = {
    "W": rng.normal(size=(3, 4)),
    "b": rng.normal(size=3),
    "gamma": np.ones(3),
    "beta": np.zeros(3),
}
x = rng.normal(size=4)
target = rng.normal(size=3)


def forward():
    t = Tape()
    h = t.linear(t.leaf(params["W"], "W"), t.leaf(x), t.leaf(params["b"], "b"))
    y = t.layernorm(h, t.leaf(params["gamma"], "gamma"),
                    t.leaf(params["beta"], "beta"))
    return t, t.mse(y, target)


tape, loss = forward()
print("\nlinear -> layernorm -> mse loss:", loss.value[0])

analytic = tape.backward(loss)
numeric = finite_diff(lambda: float(forward()[1].value[0]), params)
result = compare_grads(analytic, numeric)
print(f"finite-difference check over {result.n_checked} parameter entries")
print(f"max relative error: {result.max_rel_err:.2e} "
      f"(worst: {result.worst_param})")
assert result.ok()

# --- gradients accumulate when a value is used twice -------------------
v = rng.normal(size=3)
tape = Tape()
vn = tape.leaf(v, "v")
both = tape.add(vn, vn)  # v contributes through two paths
loss = tape.mse(both, np.zeros(3))  # mean(4 v^2) -> dloss/dv = 8v/3
grads = tape.backward(loss)
print("\nshared-input gradient (should be 8v/3):")
print("  analytic:", grads["v"])
print("  expected:", 8.0 * v / 3.0)
