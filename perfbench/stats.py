"""Small statistics helpers shared by the benchmark's modes."""

from __future__ import annotations

import math

import numpy as np


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def geomean(values) -> float:
    vals = [float(v) for v in values]
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def tail_level(n: int, level: float = 0.99, beyond: int = 10) -> float:
    """The highest percentile level <= ``level`` that still has at least
    ``beyond`` of ``n`` samples above it, floored at the median."""
    return max(0.5, min(level, 1.0 - beyond / max(n, 1)))


def percentile(values, level: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), 100 * level))


def spearman(xs, ys) -> float:
    """Spearman rank correlation (average ranks for ties); 0 when either
    side is constant or there are fewer than two pairs."""
    if len(xs) < 2:
        return 0.0

    def ranks(v):
        v = np.asarray(v, dtype=float)
        order = np.argsort(v, kind="stable")
        r = np.empty(len(v))
        r[order] = np.arange(len(v), dtype=float)
        for val in np.unique(v):
            tie = v == val
            r[tie] = r[tie].mean()
        return r

    rx, ry = ranks(xs), ranks(ys)
    if rx.std() == 0 or ry.std() == 0:
        return 0.0
    return float(np.corrcoef(rx, ry)[0, 1])


def rel_error(C: np.ndarray, ref: np.ndarray) -> float:
    """Norm-wise relative error ``||C - ref||_F / ||ref||_F``."""
    scale = float(np.linalg.norm(ref))
    err = float(np.linalg.norm(np.asarray(C, dtype=float) - ref))
    return err / scale if scale > 0 else err
