"""Log-log power-law fitting shared by all experiments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FitResult", "loglog_fit", "flatness_factor"]


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    max_log_residual: float
    point_count: int


def loglog_fit(points) -> FitResult:
    """Least-squares line through (log x, log y).

    points: iterable of (x, y) pairs, all strictly positive; at least 3.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points for a slope fit")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ValueError("loglog_fit requires strictly positive coordinates")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return FitResult(
        slope=float(slope),
        intercept=float(intercept),
        max_log_residual=float(np.max(np.abs(resid))),
        point_count=len(pts),
    )


def flatness_factor(values) -> float:
    """max/min of a positive sequence; the 'varies by at most a factor' statistic.

    At least 2 values: one value is flat by definition, so a flatness check
    on it would pass vacuously."""
    v = np.asarray(list(values), dtype=float)
    if v.size < 2:
        raise ValueError("a flatness factor needs at least 2 values, got %d" % v.size)
    if np.any(v <= 0):
        raise ValueError("flatness_factor needs positive values")
    return float(np.max(v) / np.min(v))
