"""Regression metrics: Pearson correlation, MAE, RMSE (both in degrees C)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError


@dataclass
class MetricsReport:
    r: float
    mae: float
    rmse: float
    n: int


def _pair(pred, label) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(pred, dtype=np.float64)
    y = np.asarray(label, dtype=np.float64)
    if p.ndim != 1 or y.ndim != 1 or p.shape != y.shape:
        raise ConfigError(f"metric inputs must be equal-length 1-D, got "
                          f"{p.shape} vs {y.shape}")
    if p.size == 0:
        raise ConfigError("metric inputs must be nonempty")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(y))):
        raise NumericError("metric inputs contain non-finite values")
    return p, y


def pearson(pred, label) -> float:
    """Sample Pearson correlation; undefined (raises) for constant input."""
    p, y = _pair(pred, label)
    if p.size < 2:
        raise ConfigError("pearson needs at least 2 samples")
    dp = p - p.mean()
    dy = y - y.mean()
    ssp = float(np.sum(dp * dp))
    ssy = float(np.sum(dy * dy))
    if ssp == 0.0 or ssy == 0.0:
        raise NumericError("pearson undefined for constant input")
    return float(np.sum(dp * dy)) / math.sqrt(ssp * ssy)


def mae(pred, label) -> float:
    p, y = _pair(pred, label)
    return float(np.mean(np.abs(p - y)))


def rmse(pred, label) -> float:
    p, y = _pair(pred, label)
    d = p - y
    return math.sqrt(float(np.mean(d * d)))


def compute_report(pred, label) -> MetricsReport:
    p, y = _pair(pred, label)
    return MetricsReport(pearson(p, y), mae(p, y), rmse(p, y), int(p.size))


def format_report(report: MetricsReport) -> str:
    """Fixed-width text block with the usual metric column layout."""
    header = f"{'r(up)':>10} {'MAE(down)':>12} {'RMSE(down)':>12} {'n':>6}"
    row = (f"{report.r:>10.4f} {report.mae:>12.4f} "
           f"{report.rmse:>12.4f} {report.n:>6d}")
    return header + "\n" + row
