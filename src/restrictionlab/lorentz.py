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
from typing import Sequence, Tuple, Union

import numpy as np

__all__ = [
    "lorentz_norm_values",
    "indicator_lorentz_norm",
]


def _check_exponents(p: float, s_values: Sequence[float], name: str = "p") -> None:
    """Reject a pair (p, s) outside 0 < p < infinity, 0 < s <= infinity for
    any s in s_values; NaN fails both comparisons. `name` is what the caller
    calls its first exponent, so that the message names it."""
    if not (p > 0 and math.isfinite(p)):
        raise ValueError("%s must be finite and positive, got %g" % (name, p))
    for s in s_values:
        if not s > 0:
            raise ValueError("s must be positive (math.inf allowed), got %g" % s)


# steps per block of the integral in lorentz_norm_values
_BLOCK = 1 << 16


def lorentz_norm_values(
    values: np.ndarray, cell_volume: float, p: float, s: Union[float, Sequence[float]]
) -> Union[float, Tuple[float, ...]]:
    """Lorentz quasi-norm (integral of (t^(1/p) f*(t))^s dt/t)^(1/s), sup
    form for s = inf, of raw samples with a uniform cell volume.

    Needs 0 < p < infinity and 0 < s <= infinity. s is one exponent, giving
    one norm, or a sequence of them, giving a tuple with one norm per entry;
    the samples are rearranged once for all of them. The norm is computed
    on a normalized core (values scaled by their maximum) so that rescaling
    the input by a power of two rescales the result exactly.

    Memory: beyond the samples the call holds one n-element float buffer,
    the sorted moduli (float64 for integer samples), plus block buffers of
    at most 2^16 + 1 entries. The last finite s writes its summands over
    that buffer once every other s has read it, so a second n-element
    float64 buffer is allocated only when two or more s are finite (or when
    the moduli are not float64, whose summands are float64 all the same).
    The caller's array is not modified.
    """
    single = np.ndim(s) == 0
    s_values = (s,) if single else tuple(s)
    _check_exponents(p, s_values)
    # decreasing rearrangement in one buffer: sort -|v| ascending, keep the
    # entries below zero (|v| > 0), negate back; order="K" ravels a Fortran
    # ordered field without a copy, and the sort makes the order irrelevant.
    # Integer samples give float64 moduli in one step (np.abs of the dtype
    # minimum overflows); the moduli divide as float64 anyway (a / vmax)
    v = np.asarray(values)
    a = np.absolute(v, dtype=np.float64) if v.dtype.kind in "biu" else np.abs(v)
    a = a.ravel(order="K")
    np.negative(a, out=a)
    a.sort()
    a = a[: int(np.searchsorted(a, 0.0))]
    np.negative(a, out=a)
    if a.size == 0:
        return 0.0 if single else (0.0,) * len(s_values)
    n = a.size
    vmax = a[0]
    core = a
    core /= vmax
    # the integral runs over blocks of at most _BLOCK steps, in buffers of
    # at most _BLOCK + 1 entries: tb holds t_k = k * cell_volume for the
    # block's k = start..stop, so each step has both endpoints. The in-place
    # operators take the same ufunc loops, ** its scalar fast paths
    # included, as the expressions in the comments, so every summand has
    # the bits it would have from whole-array expressions
    size = min(_BLOCK, n) + 1
    ks = np.arange(size, dtype=float)
    t = np.empty(size)
    step = np.empty(size - 1)
    # every s reads core, so the infinite s run first, and the last finite s
    # writes its summands over core, this call's own copy of the moduli
    order = sorted(range(len(s_values)), key=lambda i: not math.isinf(s_values[i]))
    finite = [i for i in order if not math.isinf(s_values[i])]
    in_place = finite[-1:] if core.dtype == np.float64 else []
    summand = np.empty(n) if len(finite) > len(in_place) else None
    norms = [0.0] * len(s_values)
    for i in order:
        s_k = s_values[i]
        out = core if i in in_place else summand
        peak = -math.inf
        for start in range(0, n, _BLOCK):
            c = core[start : start + _BLOCK]
            tb = t[: c.size + 1]
            np.add(ks[: tb.size], start, out=tb)
            tb *= cell_volume  # t = k * cell_volume
            if math.isinf(s_k):
                tb = tb[1:]
                tb **= 1.0 / p
                tb *= c  # core * t ** (1/p)
                peak = np.maximum(peak, np.max(tb))
                continue
            tb **= s_k / p  # tp = t ** (s/p), so tp_prev = 0 at k = 0
            st = step[: c.size]
            np.subtract(tb[1:], tb[:-1], out=st)  # tp - tp_prev
            w = out[start : start + c.size]
            if out is not core:
                np.copyto(w, c)
            w **= s_k
            w *= p / s_k
            w *= st  # core**s * (p/s) * (tp - tp_prev)
        if math.isinf(s_k):
            norms[i] = float(vmax * peak)
        else:
            # one pairwise sum over the whole buffer, in numpy's order
            norms[i] = float(vmax * np.sum(out) ** (1.0 / s_k))
    return norms[0] if single else tuple(norms)


def indicator_lorentz_norm(p: float, s: float, measure: float) -> float:
    """Closed form for an indicator of a set of the given measure."""
    _check_exponents(p, (s,))
    if measure < 0:
        raise ValueError("measure must be nonnegative")
    if measure == 0:
        return 0.0
    if math.isinf(s):
        return measure ** (1.0 / p)
    return (p / s) ** (1.0 / s) * measure ** (1.0 / p)
