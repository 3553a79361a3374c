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

    def test_clipped_norm_within_bound_at_any_scale(self):
        # the margin covers the norm's rounding: 1-5 parameters of up to
        # three blocks, magnitudes 1e-140 to 1e140, bounds 1e-5 to 1e5
        clipped = 0
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            grads = {f"p{i}": rng.uniform(-1.0, 1.0, int(rng.integers(1, 3 * CHUNK + 1)))
                     * 10.0 ** rng.uniform(-140, 140) for i in range(rng.integers(1, 6))}
            cfg = ClipConfig(10.0 ** rng.uniform(-5, 5))
            once, norm = clip_global_norm(grads, cfg)
            twice, _ = clip_global_norm(once, cfg)
            assert global_grad_norm(once) <= cfg.max_norm, seed
            assert all(np.array_equal(once[k], twice[k]) for k in grads), seed
            clipped += norm > cfg.max_norm
        assert clipped > 500

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

    def test_bound_has_no_default(self):
        with pytest.raises(TypeError):
            ClipConfig()

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


B1, B2, EPS = 0.9, 0.999, 1e-8


def textbook_update(m, v, t, lr):
    """Kingma & Ba's Algorithm 1: ``lr * m_hat / (sqrt(v_hat) + eps)``."""
    m_hat = m / (1.0 - B1 ** t)
    v_hat = v / (1.0 - B2 ** t)
    return lr * m_hat / (np.sqrt(v_hat) + EPS)


def efficient_update(m, v, t, lr):
    """The same in exact arithmetic, with one divide per element (Kingma &
    Ba, section 2): ``(m / (sqrt(v) + eps_hat)) * step``."""
    root = math.sqrt(1.0 - B2 ** t)
    return (m / (np.sqrt(v) + EPS * root)) * (lr * root / (1.0 - B1 ** t))


def scalar_adam_trajectory(w0, grad_fn, lr, steps, update=textbook_update):
    """Independent scalar Adam oracle (python floats)."""
    w, m, v = w0, 0.0, 0.0
    out = []
    for t in range(1, steps + 1):
        g = grad_fn(w)
        m = B1 * m + (1.0 - B1) * g
        v = B2 * v + (1.0 - B2) * (g * g)
        w -= update(m, v, t, lr)
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
                                            0.05, 20, efficient_update)
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
        b1, b2, lr = 0.9, 0.999, 0.02
        for t in range(1, 6):
            g = rng.normal(size=w.size)
            adam_step(params, {"w": g}, state, lr)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            w -= efficient_update(m, v, t, lr)
        assert np.array_equal(params["w"], w)
        assert np.array_equal(state.m["w"], m)
        assert np.array_equal(state.v["w"], v)

    def test_update_stays_near_textbook_update(self):
        # from the same state, the efficient form's update differs from the
        # textbook's by at most their rounding: about 5.5 roundings of 2**-53
        # each for the textbook and 8 for the efficient form, to first order;
        # the worst measured is 7 ulps (here and in a 300-step probe)
        rng = np.random.default_rng(14)
        scale = 10.0 ** rng.uniform(-10, 2, size=CHUNK + 7)  # eps matters below 1e-8
        params = {"w": np.zeros(scale.size)}
        state = AdamState.init(params)
        m, v = np.zeros(scale.size), np.zeros(scale.size)
        for t in [*range(1, 41), 1000, 1001, 20000]:
            g = rng.normal(size=scale.size) * scale
            lr = 10.0 ** rng.uniform(-5, -1)
            params["w"][:], state.t = 0.0, t - 1  # the update is then -w exactly
            adam_step(params, {"w": g}, state, lr)
            m = B1 * m + (1.0 - B1) * g
            v = B2 * v + (1.0 - B2) * (g * g)
            assert np.array_equal(state.m["w"], m) and np.array_equal(state.v["w"], v)
            want = textbook_update(m, v, t, lr)
            assert np.all(np.abs(-params["w"] - want) <= 14 * 2.0 ** -53 * np.abs(want))

    def test_state_v_key_mismatch_is_config_error(self):
        params = {"w": np.ones(3)}
        state = AdamState.init(params)
        state.v = {"u": np.zeros(3)}
        with pytest.raises(ConfigError, match="key mismatch"):
            adam_step(params, {"w": np.ones(3)}, state, lr=0.1)

    @pytest.mark.parametrize("lr", [math.nan, math.inf])
    def test_non_finite_lr_is_config_error(self, lr):
        params = {"w": np.ones(3)}
        state = AdamState.init(params)
        with pytest.raises(ConfigError, match="learning rate"):
            adam_step(params, {"w": np.ones(3)}, state, lr=lr)
        assert np.array_equal(params["w"], np.ones(3)) and state.t == 0


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
