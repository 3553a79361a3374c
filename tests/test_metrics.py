import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from meltshift.errors import ConfigError, NumericError
from meltshift.metrics import compute_report, format_report, mae, pearson, rmse


def pearson_bruteforce(p, y):
    """Direct covariance-formula evaluation."""
    p, y = np.asarray(p, float), np.asarray(y, float)
    n = p.size
    cov = np.sum((p - p.mean()) * (y - y.mean())) / n
    sp = np.sqrt(np.sum((p - p.mean()) ** 2) / n)
    sy = np.sqrt(np.sum((y - y.mean()) ** 2) / n)
    return cov / (sp * sy)


class TestPearson:
    def test_identity_is_one(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_negation_is_minus_one(self):
        assert pearson([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0)

    def test_hand_case(self):
        assert pearson([1, 2, 3], [2, 1, 4]) == pytest.approx(
            pearson_bruteforce([1, 2, 3], [2, 1, 4]), abs=1e-12)

    def test_constant_input_raises(self):
        with pytest.raises(NumericError, match="constant"):
            pearson([1.0, 1.0, 1.0], [1, 2, 3])
        with pytest.raises(NumericError, match="constant"):
            pearson([1, 2, 3], [5.0, 5.0, 5.0])

    def test_too_short(self):
        with pytest.raises(ConfigError):
            pearson([1.0], [2.0])

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        p, y = rng.normal(size=30), rng.normal(size=30)
        assert pearson(p, y) == pytest.approx(pearson_bruteforce(p, y), abs=1e-12)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(9)
        p, y = rng.normal(size=14), rng.normal(size=14)
        assert pearson(p, y) == pytest.approx(pearson(y, p), abs=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_affine_invariance(self, seed):
        rng = np.random.default_rng(100 + seed)
        p, y = rng.normal(size=25), rng.normal(size=25)
        r = pearson(p, y)
        assert pearson(2.5 * p + 1.0, y) == pytest.approx(r, abs=1e-12)
        assert pearson(-0.7 * p + 3.0, y) == pytest.approx(-r, abs=1e-12)


class TestMaeRmse:
    def test_zero_on_equal(self):
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_cases(self):
        assert mae([1.0, 3.0], [2.0, 2.0]) == pytest.approx(1.0)
        assert mae([5.0], [2.0]) == pytest.approx(3.0)
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))

    def test_constant_offset_rmse(self):
        y = np.arange(7, dtype=float)
        assert rmse(y + 2.5, y) == pytest.approx(2.5)
        assert rmse(y - 2.5, y) == pytest.approx(2.5)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(4)
        p, y = rng.normal(size=12), rng.normal(size=12)
        assert mae(p, y) == mae(y, p)
        assert rmse(p, y) == rmse(y, p)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
           st.integers(0, 2**32 - 1))
    def test_rmse_at_least_mae(self, values, seed):
        p = np.asarray(values)
        y = np.random.default_rng(seed).normal(size=p.size) * 10
        assert rmse(p, y) >= mae(p, y) - 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            mae([1.0], [1.0, 2.0])
        with pytest.raises(ConfigError):
            rmse([1.0], [1.0, 2.0])


@pytest.mark.parametrize("pred,label,error,words", [
    ([], [], ConfigError, "metric inputs must be nonempty"),
    ([1.0, np.nan], [1.0, 2.0], NumericError, "metric inputs contain non-finite values"),
    ([1.0, 2.0], [np.inf, 2.0], NumericError, "metric inputs contain non-finite values"),
], ids=["empty", "nan_pred", "inf_label"])
def test_bad_metric_inputs_worded(pred, label, error, words):
    for metric in (pearson, mae, rmse):
        with pytest.raises(error) as caught:
            metric(pred, label)
        assert str(caught.value) == words


class TestReport:
    def test_fields(self):
        rng = np.random.default_rng(6)
        p, y = rng.normal(size=15), rng.normal(size=15)
        rep = compute_report(p, y)
        assert rep.n == 15
        assert rep.r == pytest.approx(pearson(p, y))
        assert rep.mae == pytest.approx(mae(p, y))
        assert rep.rmse == pytest.approx(rmse(p, y))
        assert rep.rmse >= rep.mae >= 0
        assert -1 <= rep.r <= 1

    def test_format_has_columns(self):
        rep = compute_report([1.0, 2.0, 4.0], [1.1, 2.2, 3.3])
        text = format_report(rep)
        assert "r(up)" in text and "MAE(down)" in text and "RMSE(down)" in text
        assert text.count("\n") == 1
