"""Lorentz quasi-norms of sampled fields via the decreasing rearrangement.

The rearrangement of a sampled field is a finite step function, so the
quasi-norm integral has a closed form per step (power rule) and no
numerical quadrature is involved. The s = infinity norm is a maximum over
step right-endpoints, where t^(1/p) f*(t) peaks on each constancy
interval.

The computed quantity is the quasi-norm itself; no renormalization is
applied, and nothing here asserts a triangle inequality for s < p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import SampledField

__all__ = [
    "LorentzExponent",
    "lorentz_norm",
    "lorentz_norm_values",
    "indicator_lorentz_norm",
]


@dataclass(frozen=True)
class LorentzExponent:
    """Pair (p, s) with 0 < p < infinity and 0 < s <= infinity."""

    p: float
    s: float

    def __post_init__(self):
        if not (self.p > 0 and math.isfinite(self.p)):
            raise ValueError("p must be finite and positive")
        if not (self.s > 0):
            raise ValueError("s must be positive (math.inf allowed)")


def lorentz_norm_values(values: np.ndarray, cell_volume: float, p: float, s: float) -> float:
    """Lorentz quasi-norm of raw samples with a uniform cell volume.

    The norm is computed on a normalized core (values scaled by their
    maximum) so that rescaling the input by a power of two rescales the
    result exactly.
    """
    a = np.sort(np.abs(np.asarray(values)).ravel())[::-1]
    a = a[a > 0]
    if a.size == 0:
        return 0.0
    vmax = a[0]
    core = a / vmax
    t = cell_volume * np.arange(1, a.size + 1, dtype=float)
    if math.isinf(s):
        return float(vmax * np.max(core * t ** (1.0 / p)))
    tp = t ** (s / p)
    tp_prev = np.concatenate([[0.0], tp[:-1]])
    total = np.sum(core**s * (p / s) * (tp - tp_prev))
    return float(vmax * total ** (1.0 / s))


def lorentz_norm(f: SampledField, e: LorentzExponent) -> float:
    """Quasi-norm (integral of (t^(1/p) f*(t))^s dt/t)^(1/s); sup form for s = inf."""
    return lorentz_norm_values(f.values, f.cell_volume, e.p, e.s)


def indicator_lorentz_norm(p: float, s: float, measure: float) -> float:
    """Closed form for an indicator of a set of the given measure."""
    if measure < 0:
        raise ValueError("measure must be nonnegative")
    if measure == 0:
        return 0.0
    if math.isinf(s):
        return measure ** (1.0 / p)
    return (p / s) ** (1.0 / s) * measure ** (1.0 / p)
