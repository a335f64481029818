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
from typing import Sequence, Tuple, Union

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


def lorentz_norm_values(
    values: np.ndarray, cell_volume: float, p: float, s: Union[float, Sequence[float]]
) -> Union[float, Tuple[float, ...]]:
    """Lorentz quasi-norm of raw samples with a uniform cell volume.

    s is one exponent, giving one norm, or a sequence of them, giving a
    tuple with one norm per entry; the samples are rearranged once for all
    of them. The norm is computed on a normalized core (values scaled by
    their maximum) so that rescaling the input by a power of two rescales
    the result exactly.
    """
    single = np.ndim(s) == 0
    s_values = (s,) if single else tuple(s)
    # decreasing rearrangement in one buffer: sort -|v| ascending, keep the
    # entries below zero (|v| > 0), negate back
    a = np.abs(np.asarray(values)).ravel()
    if a.dtype.kind != "f":  # integer samples divide as float64, as in a / vmax
        a = a.astype(float)
    np.negative(a, out=a)
    a.sort()
    a = a[: int(np.searchsorted(a, 0.0))]
    np.negative(a, out=a)
    if a.size == 0:
        norms = [0.0] * len(s_values)
    else:
        vmax = a[0]
        core = a
        core /= vmax
        t = np.arange(1, a.size + 1, dtype=float)
        t *= cell_volume
        # every exponent reuses these two buffers; the in-place operators
        # take the same ufunc loops, ** its scalar fast paths included, as
        # the expressions in the comments
        work = np.empty_like(t)
        step = np.empty_like(t)
        norms = []
        for s_k in s_values:
            np.copyto(work, t)
            if math.isinf(s_k):
                work **= 1.0 / p
                work *= core  # core * t ** (1/p)
                norms.append(float(vmax * np.max(work)))
                continue
            work **= s_k / p  # tp = t ** (s/p)
            step[0] = work[0]
            np.subtract(work[1:], work[:-1], out=step[1:])  # tp - tp_prev, tp_prev[0] = 0
            np.copyto(work, core)
            work **= s_k
            work *= p / s_k
            work *= step  # core**s * (p/s) * (tp - tp_prev)
            total = np.sum(work)
            norms.append(float(vmax * total ** (1.0 / s_k)))
    return norms[0] if single else tuple(norms)


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
