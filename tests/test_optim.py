import math

import numpy as np
import pytest

from meltshift.errors import ConfigError, NumericError
from meltshift.optim import (
    CHUNK,
    AdamState,
    ClipConfig,
    OneCycleSchedule,
    adam_step,
    clip_global_norm,
    clip_scale,
    global_grad_norm,
    onecycle_lr,
)


class TestClipping:
    def test_hand_scaled_example(self):
        grads = {"w": np.array([0.3, 0.4])}  # norm 0.5 -> scale 0.2
        clipped, norm = clip_global_norm(grads, ClipConfig(0.1))
        assert norm == pytest.approx(0.5)
        assert np.allclose(clipped["w"], [0.06, 0.08], atol=1e-15)

    def test_under_threshold_unchanged(self):
        grads = {"w": np.array([0.03, 0.04])}
        clipped, norm = clip_global_norm(grads, ClipConfig(0.1))
        assert norm == pytest.approx(0.05)
        assert np.array_equal(clipped["w"], grads["w"])

    def test_zero_gradients(self):
        grads = {"w": np.zeros(3), "b": np.zeros(1)}
        clipped, norm = clip_global_norm(grads, ClipConfig(0.1))
        assert norm == 0.0
        assert np.array_equal(clipped["w"], np.zeros(3))

    @pytest.mark.parametrize("seed", range(10))
    def test_idempotent_exactly(self, seed):
        rng = np.random.default_rng(seed)
        grads = {f"p{i}": rng.normal(size=s) for i, s in enumerate([(3, 4), (5,), (1,)])}
        cfg = ClipConfig(0.1)
        once, _ = clip_global_norm(grads, cfg)
        twice, _ = clip_global_norm(once, cfg)
        for k in grads:
            assert np.array_equal(once[k], twice[k])
        assert global_grad_norm(once) <= 0.1

    def test_direction_preserved(self):
        rng = np.random.default_rng(3)
        grads = {"w": rng.normal(size=6)}
        clipped, norm = clip_global_norm(grads, ClipConfig(0.1))
        ratio = clipped["w"] / grads["w"]
        assert np.all(ratio > 0)
        assert np.allclose(ratio, ratio[0])

    def test_non_finite_names_parameter(self):
        grads = {"ok": np.ones(2), "broken": np.array([1.0, np.nan])}
        with pytest.raises(NumericError, match="broken"):
            clip_global_norm(grads, ClipConfig(0.1))

    def test_overflowing_norm_is_numeric_error(self):
        # every entry is finite, but the sum of squares overflows
        grads = {"w": np.array([1e200, 1.0])}
        with pytest.raises(NumericError, match="norm overflows"):
            clip_global_norm(grads, ClipConfig(0.1))

    def test_bad_max_norm(self):
        with pytest.raises(ConfigError):
            ClipConfig(0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_wrapper_scales_by_clip_scale(self, seed):
        rng = np.random.default_rng(seed)
        grads = {"a": rng.normal(size=(7, 3)), "b": rng.normal(size=2 * CHUNK + 1)}
        cfg = ClipConfig(0.1)
        scale, norm = clip_scale(grads, cfg)
        clipped, wrapper_norm = clip_global_norm(grads, cfg)
        assert scale < 1.0 and wrapper_norm == norm
        for k in grads:
            assert np.array_equal(clipped[k], grads[k] * scale)
        assert global_grad_norm(grads, scale) == global_grad_norm(clipped)

    def test_scale_is_one_within_the_bound(self):
        grads = {"w": np.array([0.03, 0.04])}
        assert clip_scale(grads, ClipConfig(0.1)) == (1.0, global_grad_norm(grads))

    @pytest.mark.parametrize("grads,message", [
        ({"ok": np.ones(2), "broken": np.array([1.0, np.nan])}, "broken"),
        ({"w": np.array([1e200, 1.0])}, "norm overflows"),
    ])
    def test_scale_raises_like_the_wrapper(self, grads, message):
        with pytest.raises(NumericError, match=message):
            clip_scale(grads, ClipConfig(0.1))


def scalar_adam_trajectory(w0, grad_fn, lr, steps, beta1=0.9, beta2=0.999,
                           eps=1e-8):
    """Independent scalar Adam oracle (pure python floats)."""
    w, m, v = w0, 0.0, 0.0
    out = []
    for t in range(1, steps + 1):
        g = grad_fn(w)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        w -= lr * m_hat / (math.sqrt(v_hat) + eps)
        out.append(w)
    return out


class TestAdam:
    def test_first_step_magnitude(self):
        # at t=1 bias corrections cancel: step ~= lr * g / (|g| + eps')
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.array([0.5, 0.5])}
        state = AdamState.init(params)
        before = params["w"].copy()
        adam_step(params, grads, state, lr=0.1)
        delta = before - params["w"]
        assert np.allclose(delta, 0.1 * 0.5 / (0.5 + 1e-8 / math.sqrt(1 - 0.999)),
                           rtol=1e-6)
        assert state.t == 1

    def test_zero_gradient_never_moves(self):
        params = {"w": np.array([1.0, 2.0, 3.0])}
        state = AdamState.init(params)
        for _ in range(10):
            adam_step(params, {"w": np.zeros(3)}, state, lr=0.5)
        assert np.array_equal(params["w"], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("steps", [5, 100])
    def test_matches_scalar_oracle_on_quadratic(self, steps):
        # f(w) = w^2, grad = 2w, from w=1 with lr=0.1
        params = {"w": np.array([1.0])}
        state = AdamState.init(params)
        mine = []
        for _ in range(steps):
            g = {"w": 2.0 * params["w"]}
            adam_step(params, g, state, lr=0.1)
            mine.append(float(params["w"][0]))
        oracle = scalar_adam_trajectory(1.0, lambda w: 2.0 * w, 0.1, steps)
        assert np.allclose(mine, oracle, rtol=0, atol=1e-12)

    def test_elementwise_matches_scalar_oracle_exactly(self):
        # multi-dim stepper == scalar oracle applied per element, bit for bit
        rng = np.random.default_rng(5)
        w0 = rng.normal(size=4)
        params = {"w": w0.copy()}
        state = AdamState.init(params)
        for _ in range(20):
            adam_step(params, {"w": 2.0 * params["w"]}, state, lr=0.05)
        for i in range(4):
            oracle = scalar_adam_trajectory(float(w0[i]), lambda w: 2.0 * w,
                                            0.05, 20)
            assert params["w"][i] == oracle[-1]

    def test_quadratic_converges_toward_zero(self):
        params = {"w": np.array([1.0])}
        state = AdamState.init(params)
        for _ in range(300):
            adam_step(params, {"w": 2.0 * params["w"]}, state, lr=0.1)
        assert abs(params["w"][0]) < 1e-3

    def test_shape_mismatch(self):
        params = {"w": np.ones(3)}
        state = AdamState.init(params)
        with pytest.raises(ConfigError):
            adam_step(params, {"w": np.ones(4)}, state, lr=0.1)

    def test_updates_in_place(self):
        arr = np.array([1.0])
        params = {"w": arr}
        state = AdamState.init(params)
        adam_step(params, {"w": np.array([1.0])}, state, lr=0.1)
        assert arr[0] != 1.0  # the original array object was updated

    def test_non_contiguous_parameter_rejected(self):
        # a copy would take the update and the parameter would never move
        params = {"w": np.ones((3, 4)).T}
        state = AdamState.init({"w": np.ones((4, 3))})
        with pytest.raises(ConfigError, match="contiguous"):
            adam_step(params, {"w": np.ones((4, 3))}, state, lr=0.1)

    @pytest.mark.parametrize("scale", [0.37, 1e-3])
    def test_grad_scale_equals_prescaled_gradients(self, scale):
        rng = np.random.default_rng(11)
        w0 = {"a": rng.normal(size=(5, 4)), "b": rng.normal(size=CHUNK + 3)}
        fused = {k: v.copy() for k, v in w0.items()}
        plain = {k: v.copy() for k, v in w0.items()}
        fused_state, plain_state = AdamState.init(fused), AdamState.init(plain)
        for _ in range(4):
            grads = {k: rng.normal(size=v.shape) for k, v in w0.items()}
            before = {k: v.copy() for k, v in grads.items()}
            adam_step(fused, grads, fused_state, 0.01, grad_scale=scale)
            adam_step(plain, {k: v * scale for k, v in grads.items()},
                      plain_state, 0.01)
            for k in grads:
                assert np.array_equal(grads[k], before[k])
        for k in w0:
            assert np.array_equal(fused[k], plain[k])
            assert np.array_equal(fused_state.m[k], plain_state.m[k])
            assert np.array_equal(fused_state.v[k], plain_state.v[k])

    def test_blocks_match_whole_array_formula(self):
        # 3 full blocks and a tail: every block boundary is crossed
        rng = np.random.default_rng(12)
        w = rng.normal(size=3 * CHUNK + 5)
        params = {"w": w.copy()}
        state = AdamState.init(params)
        m, v = np.zeros_like(w), np.zeros_like(w)
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.02
        for t in range(1, 6):
            g = rng.normal(size=w.size)
            adam_step(params, {"w": g}, state, lr)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            w -= lr * m_hat / (np.sqrt(v_hat) + eps)
        assert np.array_equal(params["w"], w)
        assert np.array_equal(state.m["w"], m)
        assert np.array_equal(state.v["w"], v)


class TestOneCycle:
    def test_boundary_values_exact(self):
        s = OneCycleSchedule(max_lr=1e-3, total_steps=100)
        assert onecycle_lr(0, s) == 1e-3 / 25.0
        assert onecycle_lr(s.peak_step, s) == 1e-3
        assert onecycle_lr(100, s) == 1e-3 / 1e4
        assert s.peak_step == 30

    def test_monotone_up_then_down(self):
        s = OneCycleSchedule(max_lr=0.01, total_steps=200)
        lrs = [onecycle_lr(i, s) for i in range(201)]
        peak = s.peak_step
        for i in range(peak):
            assert lrs[i + 1] >= lrs[i]
        for i in range(peak, 200):
            assert lrs[i + 1] <= lrs[i]
        assert all(lr > 0 for lr in lrs)

    def test_short_run_skips_warmup(self):
        s = OneCycleSchedule(max_lr=0.01, total_steps=2)
        assert s.peak_step == 0
        assert onecycle_lr(0, s) == 0.01
        assert onecycle_lr(2, s) == 0.01 / 1e4

    def test_step_out_of_range(self):
        s = OneCycleSchedule(max_lr=0.01, total_steps=10)
        with pytest.raises(ConfigError):
            onecycle_lr(11, s)
        with pytest.raises(ConfigError):
            onecycle_lr(-1, s)

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            OneCycleSchedule(max_lr=0.0, total_steps=10)
        with pytest.raises(ConfigError):
            OneCycleSchedule(max_lr=0.1, total_steps=0)
