"""Forward oracles and finite-difference checks for every tape primitive."""

import itertools

import numpy as np
import pytest

from meltshift.errors import ConfigError, NumericError, StateError
from meltshift.gradcheck import GRAD_TOLERANCE, compare_grads, finite_diff
from meltshift.tape import Tape


def run_linear(x, W, b):
    t = Tape()
    return t.linear(t.leaf(W), t.leaf(x), t.leaf(b)).value


class TestLinearForward:
    def test_identity(self):
        y = run_linear([1.0, 2.0], np.eye(2), [0.0, 0.0])
        assert np.array_equal(y, [1.0, 2.0])

    def test_hand_arithmetic(self):
        y = run_linear([1.0, 1.0], [[2.0, 3.0]], [-1.0])
        assert np.array_equal(y, [4.0])

    def test_zero_input_returns_bias(self):
        W = np.array([[1.7, -2.2], [0.4, 9.0]])
        y = run_linear([0.0, 0.0], W, [5.0, 7.0])
        assert np.array_equal(y, [5.0, 7.0])

    def test_shape_mismatch_names_shapes(self):
        t = Tape()
        with pytest.raises(ConfigError, match=r"\(1, 2\)"):
            t.linear(t.leaf([[1.0, 2.0]]), t.leaf([1.0, 2.0, 3.0]), t.leaf([0.0]))


class TestOuterFlatten:
    def test_hand_arithmetic(self):
        t = Tape()
        y = t.outer_flatten(t.leaf([1.0, 2.0]), t.leaf([3.0, 4.0])).value
        assert np.array_equal(y, [3.0, 4.0, 6.0, 8.0])

    def test_basis_case(self):
        t = Tape()
        y = t.outer_flatten(t.leaf([1.0, 0.0]), t.leaf([1.0, 0.0])).value
        assert np.array_equal(y, [1.0, 0.0, 0.0, 0.0])

    def test_output_length_is_d_squared(self):
        rng = np.random.default_rng(0)
        t = Tape()
        y = t.outer_flatten(t.leaf(rng.normal(size=16)), t.leaf(rng.normal(size=16)))
        assert y.value.shape == (256,)

    def test_swap_is_index_transpose(self):
        rng = np.random.default_rng(1)
        u, v = rng.normal(size=5), rng.normal(size=5)
        t = Tape()
        uv = t.outer_flatten(t.leaf(u), t.leaf(v)).value
        vu = t.outer_flatten(t.leaf(v), t.leaf(u)).value
        assert sorted(uv) == sorted(vu)
        d = 5
        for i in range(d):
            for j in range(d):
                assert uv[i * d + j] == vu[j * d + i]

    def test_length_mismatch(self):
        t = Tape()
        with pytest.raises(ConfigError):
            t.outer_flatten(t.leaf([1.0, 2.0]), t.leaf([1.0, 2.0, 3.0]))


def run_layernorm(x, gamma, beta, eps):
    t = Tape()
    return t.layernorm(t.leaf(x), t.leaf(gamma), t.leaf(beta), eps).value


def layernorm_oracle(x, gamma, beta, eps):
    x = np.asarray(x, dtype=float)
    core = (x - x.mean()) / np.sqrt(x.var() + eps)
    return gamma * core + beta


class TestLayerNorm:
    def test_constant_input_normalizes_to_zero(self):
        y = run_layernorm([5.0, 5.0, 5.0], np.ones(3), np.zeros(3), 1e-5)
        assert np.array_equal(y, [0.0, 0.0, 0.0])

    def test_already_normalized(self):
        y = run_layernorm([1.0, -1.0], np.ones(2), np.zeros(2), 1e-12)
        assert np.allclose(y, [1.0, -1.0], atol=1e-9)

    def test_matches_oracle_formula(self):
        x = np.array([1.0, 2.0, 3.0])
        y = run_layernorm(x, np.ones(3), np.ones(3), 1e-5)
        assert np.allclose(y, layernorm_oracle(x, 1.0, 1.0, 1e-5), atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_core_mean_and_variance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=9)
        core = run_layernorm(x, np.ones(9), np.zeros(9), 1e-10)
        assert abs(core.mean()) < 1e-9
        assert 1.0 - 1e-6 <= core.var() <= 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_core_oddness(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = rng.normal(size=7)
        g, b = np.ones(7), np.zeros(7)
        pos = run_layernorm(x, g, b, 1e-5)
        neg = run_layernorm(-x, g, b, 1e-5)
        assert np.allclose(neg, -pos, atol=1e-9)

    def test_bad_eps(self):
        t = Tape()
        with pytest.raises(ConfigError):
            t.layernorm(t.leaf([1.0]), t.leaf([1.0]), t.leaf([0.0]), 0.0)


class TestConcat:
    def test_lays_parts_end_to_end(self):
        t = Tape()
        y = t.concat([t.leaf([1.0]), t.leaf([2.0, 3.0])]).value
        assert np.array_equal(y, [1.0, 2.0, 3.0])

    def test_two_length_d_gives_2d(self):
        rng = np.random.default_rng(2)
        t = Tape()
        y = t.concat([t.leaf(rng.normal(size=6)), t.leaf(rng.normal(size=6))])
        assert y.value.shape == (12,)

    def test_single_part_identity(self):
        v = np.array([4.0, 5.0])
        t = Tape()
        assert np.array_equal(t.concat([t.leaf(v)]).value, v)

    def test_preserves_entries_and_order(self):
        rng = np.random.default_rng(3)
        parts = [rng.normal(size=n) for n in (3, 1, 4)]
        t = Tape()
        y = t.concat([t.leaf(p) for p in parts]).value
        assert np.array_equal(y, np.concatenate(parts))

    def test_empty_list(self):
        with pytest.raises(ConfigError):
            Tape().concat([])


class TestBackward:
    def test_hand_chain_rule(self):
        # loss = (w*x)^2 at w=3, x=2 -> dloss/dw = 2*(6)*2 = 24
        w = np.array([3.0])
        t = Tape()
        wx = t.scale(t.leaf(w, "w"), t.leaf(np.array([2.0])))
        loss = t.mse(wx, np.array([0.0]))
        assert loss.value[0] == 36.0
        grads = t.backward(loss)
        assert grads["w"][0] == pytest.approx(24.0, abs=1e-12)

    def test_untouched_parameter_gets_zero_grad(self):
        t = Tape()
        unused = t.leaf(np.array([1.0, 2.0]), "unused")
        assert unused is not None
        a = t.leaf(np.array([1.0]), "a")
        loss = t.mse(a, np.array([0.0]))
        grads = t.backward(loss)
        assert np.array_equal(grads["unused"], [0.0, 0.0])

    def test_backward_before_forward_raises(self):
        t = Tape()
        out = t.leaf(np.array([1.0]))
        with pytest.raises(StateError):
            t.backward(out)

    def test_double_backward_raises(self):
        t = Tape()
        loss = t.mse(t.leaf(np.array([1.0])), np.array([0.0]))
        t.backward(loss)
        with pytest.raises(StateError):
            t.backward(loss)

    def test_non_scalar_output_rejected(self):
        t = Tape()
        y = t.add(t.leaf(np.array([1.0, 2.0])), t.leaf(np.array([3.0, 4.0])))
        with pytest.raises(ConfigError):
            t.backward(y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_leaf_rejected(self, bad):
        with pytest.raises(NumericError, match="<input>"):
            Tape().leaf(np.array([1.0, bad]))

    def test_binding_a_name_twice_rejected(self):
        # a parameter is bound once per tape; its node serves every use
        w = np.array([1.0, 2.0])
        t = Tape()
        t.leaf(w, "w")
        with pytest.raises(ConfigError, match="duplicate parameter name on tape: 'w'"):
            t.leaf(w, "w")

    def test_shared_leaf_accumulates(self):
        # loss = mean((x + x - t)^2); dx = 2*2*(2x - t)/n
        x = np.array([1.0, 2.0])
        t = Tape()
        xn = t.leaf(x, "x")
        loss = t.mse(t.add(xn, xn), np.array([0.0, 0.0]))
        grads = t.backward(loss)
        assert np.allclose(grads["x"], 2.0 * 2.0 * (2.0 * x) / 2.0)

    def test_shared_gradient_array_is_not_written(self):
        # the outer add hands one array to (a + b) and to a; a's second
        # contribution must not leak into b's gradient through that array
        a, b = np.array([1.0, -2.0]), np.array([0.5, 3.0])
        target = np.array([1.0, 1.0])
        t = Tape()
        an, bn = t.leaf(a, "a"), t.leaf(b, "b")
        loss = t.mse(t.add(t.add(an, bn), an), target)
        grads = t.backward(loss)
        dy = (2.0 / 2) * (2.0 * a + b - target)
        assert np.array_equal(grads["b"], dy)
        assert np.array_equal(grads["a"], 2.0 * dy)


# ---------------------------------------------------------------------------
# finite-difference agreement for every kernel


def _kernel_graph(kind, t, nodes):
    if kind == "add":
        return t.add(nodes["a"], nodes["b"])
    if kind == "sub":
        return t.sub(nodes["a"], nodes["b"])
    if kind == "scale":
        return t.scale(nodes["s"], nodes["a"])
    if kind == "const_scale":
        return t.const_scale(-1.7, nodes["a"])
    if kind == "linear":
        return t.linear(nodes["W"], nodes["a"], nodes["bias"])
    if kind == "outer_flatten":
        return t.outer_flatten(nodes["a"], nodes["b"])
    if kind == "layernorm":
        return t.layernorm(nodes["a"], nodes["gamma"], nodes["beta"], 1e-5)
    if kind == "concat":
        return t.concat([nodes["a"], nodes["b"]])
    raise AssertionError(kind)


def _kernel_params(kind, shape, rng):
    """Inputs ``a``/``b`` of ``shape``, a vector or rows; parameters of its width."""
    d = shape[-1]
    params = {"a": rng.normal(size=shape)}
    if kind in ("add", "sub", "outer_flatten", "concat"):
        params["b"] = rng.normal(size=shape)
    if kind == "scale":
        params["s"] = rng.normal(size=1)
    if kind == "linear":
        params["W"] = rng.normal(size=(d, d))
        params["bias"] = rng.normal(size=d)
    if kind == "layernorm":
        params["gamma"] = rng.normal(size=d)
        params["beta"] = rng.normal(size=d)
    return params


KERNELS = ["add", "sub", "scale", "const_scale", "linear",
           "outer_flatten", "layernorm", "concat"]


@pytest.mark.parametrize("kind", KERNELS)
@pytest.mark.parametrize("d", [3, 8, 16])
def test_kernel_gradients_match_finite_differences(kind, d):
    for seed, shape in itertools.product(range(5), [(d,), (3, d)]):
        rng = np.random.default_rng(1000 * d + seed)
        params = _kernel_params(kind, shape, rng)
        # target makes the scalarized loss sensitive to each output coordinate
        t0 = Tape()
        nodes0 = {k: t0.leaf(v) for k, v in params.items()}
        probe = _kernel_graph(kind, t0, nodes0)
        target = rng.normal(size=probe.value.shape)

        def loss_fn():
            t = Tape()
            nodes = {k: t.leaf(v, k) for k, v in params.items()}
            return float(t.mse(_kernel_graph(kind, t, nodes), target).value[0])

        t = Tape()
        nodes = {k: t.leaf(v, k) for k, v in params.items()}
        loss = t.mse(_kernel_graph(kind, t, nodes), target)
        analytic = t.backward(loss)
        numeric = finite_diff(loss_fn, params)
        result = compare_grads(analytic, numeric)
        assert result.ok(), (
            f"{kind} shape={shape} seed={seed}: rel err {result.max_rel_err:.2e} "
            f"at {result.worst_param}{result.worst_index}"
        )
        assert result.max_rel_err < GRAD_TOLERANCE


def test_mse_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    params = {"x": rng.normal(size=6)}
    target = rng.normal(size=6)

    def loss_fn():
        t = Tape()
        return float(t.mse(t.leaf(params["x"], "x"), target).value[0])

    t = Tape()
    loss = t.mse(t.leaf(params["x"], "x"), target)
    analytic = t.backward(loss)
    result = compare_grads(analytic, finite_diff(loss_fn, params))
    assert result.ok()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_compare_grads_reports_non_finite_error(bad):
    # a NaN once lost every comparison and passed as zero error
    result = compare_grads({"p": np.array([bad, 1.0]), "q": np.array([0.5])},
                           {"p": np.array([0.0, 0.0]), "q": np.array([0.0])})
    assert result.max_rel_err == np.inf
    assert (result.worst_param, result.worst_index) == ("p", (0,))
    assert not result.ok()
