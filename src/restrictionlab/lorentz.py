"""Lorentz quasi-norms of sampled fields via the decreasing rearrangement.

The rearrangement of a sampled field is a finite step function, so the
quasi-norm integral has a closed form per step (power rule) and no
numerical quadrature is involved. The s = infinity norm is a maximum over
step right-endpoints, where t^(1/p) f*(t) peaks on each constancy
interval.

The computed quantity is the quasi-norm itself; no renormalization is
applied, and nothing here asserts a triangle inequality for s < p.

The passes over the samples (the moduli, the sort and the finite-s
summands) are split across worker threads once each gets a whole block of
samples; every norm has the same bits at every worker count.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Sequence, Tuple, Union

import numpy as np

from ._workers import _parts, _run

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


def _check_range(p: float, s_values: Sequence[float], t_max: float, name: str = "p") -> None:
    """Reject a pair (p, s) whose integral leaves the float range on steps
    t up to t_max, the volume of all the samples an experiment rearranges.
    The integral raises t to s/p (to 1/p for s = inf) and its sum to 1/s;
    the sum is at most (p/s) t_max^(s/p), since the normalized moduli are
    at most 1, so that bound's root, t_max^(1/p) for s = inf, must be
    finite. An experiment calls this once on entry, after _check_exponents;
    the norms themselves do not."""
    t = np.float64(t_max)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN are refused below
        for s in s_values:
            bound = t ** (1.0 / p) if math.isinf(s) else (p / s * t ** (s / p)) ** (1.0 / s)
            if not np.isfinite(bound):
                raise ValueError(
                    "%s = %g and s = %g take the Lorentz integral out of the float range on steps up to "
                    "t = %g" % (name, p, s, t_max)
                )


# samples per block of the split passes of lorentz_norm_values, and steps
# per block of its integral on one worker
_BLOCK = 1 << 16


def lorentz_norm_values(
    values: np.ndarray,
    cell_volume: float,
    p: float,
    s: Union[float, Sequence[float]],
    *,
    owned: bool = False,
) -> Union[float, Tuple[float, ...]]:
    """Lorentz quasi-norm (integral of (t^(1/p) f*(t))^s dt/t)^(1/s), sup
    form for s = inf, of raw samples with a uniform cell volume.

    Needs 0 < p < infinity and 0 < s <= infinity. s is one exponent, giving
    one norm, or a sequence of them, giving a tuple with one norm per entry;
    the samples are rearranged once for all of them. The norm is computed
    on a normalized core (values scaled by their maximum) so that rescaling
    the input by a power of two rescales the result exactly.

    Memory: by default the call holds, beyond the samples, one n-element
    float buffer, the sorted moduli (float64 for integer samples), plus
    three block buffers of at most 2^16 + 1 entries (split across W
    workers: two per worker and one shared, of 2^16 / W + 1 entries), and
    the caller's array is not modified. A caller that has no further use
    for a float64 array passes owned=True to hand it over: the moduli are
    then formed, sorted and integrated in that array itself, so no
    n-element buffer is allocated (unless the array is not contiguous: it
    is then raveled through one copy), and the array is left holding
    scratch values. Any other dtype takes the default path and is left
    unmodified whatever owned says. The last finite s writes its summands
    over the moduli once every other s has read them, so a
    further n-element float64 buffer is allocated only when two or more s
    are finite (or when the moduli are not float64, whose summands are
    float64 all the same). Both paths give the same bits.

    Work: with W = _workers._WORKERS > 1 and at least W blocks of 2^16
    samples, the negated moduli and the normalization run on a range of
    whole blocks per worker. The sort partitions the negated moduli at
    the first rank of each range, one suffix at a time, and sorts each
    range in a worker: a whole sort's bits, since the equal entries that
    sort could order differently are zeros, all -0.0. The integral of each
    finite s runs on the same ranges, each worker in blocks of 2^16 / W
    steps in its own buffers; the s = inf pass and the final pairwise sum
    run on the calling thread. A pass with one range (every pass of a
    small call) calls its step once on the whole array.
    """
    single = np.ndim(s) == 0
    s_values = (s,) if single else tuple(s)
    _check_exponents(p, s_values)
    # decreasing rearrangement in one buffer: sort -|v| ascending, keep the
    # entries below zero (|v| > 0), divide by -vmax; order="K" ravels a
    # contiguous field in either order without a copy, and the sort makes
    # the order irrelevant. Integer samples give float64 moduli in one step
    # (np.abs of the dtype minimum overflows); the moduli divide as float64
    # anyway (a / -vmax). An owned float64 array takes its moduli in place
    v = np.asarray(values)
    integer = v.dtype.kind in "biu"
    take = partial(np.absolute, dtype=np.float64) if integer else np.abs
    if owned and v.dtype == np.float64:
        a = v
    else:
        a = np.empty_like(v, dtype=np.float64 if integer else v.real.dtype)
    # a pass of one part calls its step directly on the whole array: a
    # small call then builds no task list and makes no _run call
    parts = _parts(a.size, _BLOCK)
    if len(parts) > 1 and v.flags.forc:  # a contiguous field is split as its raveled views
        src, a = v.ravel(order="K"), a.ravel(order="K")
        _run([[partial(_negated_moduli, take, src[r], a[r]) for r in parts]])
    else:
        _negated_moduli(take, v, a)
        a = a.ravel(order="K")
    if len(parts) == 1:
        a.sort()
    else:
        for before, r in zip(parts, parts[1:]):  # then each part sorts alone
            a[before.start :].partition(r.start - before.start)
        _run([[a[r].sort for r in parts]])
    a = a[: int(np.searchsorted(a, 0.0))]
    if a.size == 0:
        return 0.0 if single else (0.0,) * len(s_values)
    n = a.size
    vmax = -a[0]
    parts = _parts(n, _BLOCK)
    core = a
    # -|v| / -vmax has the bits of |v| / vmax: negation is exact
    if len(parts) == 1:
        np.divide(core, -vmax, out=core)
    else:
        _run([[partial(np.divide, core[r], -vmax, out=core[r]) for r in parts]])
    # each worker's buffers for blocks of `size` steps: t (size + 1
    # entries) and step (size), beside the shared ks
    size = max(1, min(_BLOCK // len(parts), n))
    ks = np.arange(size + 1, dtype=float)
    buffers = [(np.empty(size + 1), np.empty(size)) for _ in parts]
    # every s reads core, so the infinite s run first, and the last finite s
    # writes its summands over core, this call's own copy of the moduli or
    # the caller's array handed over with owned=True
    order = sorted(range(len(s_values)), key=lambda i: not math.isinf(s_values[i]))
    finite = [i for i in order if not math.isinf(s_values[i])]
    in_place = finite[-1:] if core.dtype == np.float64 else []
    summand = np.empty(n) if len(finite) > len(in_place) else None
    norms = [0.0] * len(s_values)
    for i in order:
        s_k = s_values[i]
        if math.isinf(s_k):
            norms[i] = float(vmax * _sup(core, cell_volume, p, ks, buffers[0][0]))
            continue
        out = core if i in in_place else summand
        if len(parts) == 1:
            _summands(core, None if out is core else out, 0, cell_volume, p, s_k, ks, *buffers[0])
        else:
            tasks = [
                partial(_summands, core[r], None if out is core else out[r], r.start, cell_volume, p, s_k, ks, *b)
                for r, b in zip(parts, buffers)
            ]
            _run([tasks])
        # one pairwise sum over the whole buffer, in numpy's order
        norms[i] = float(vmax * np.sum(out) ** (1.0 / s_k))
    return norms[0] if single else tuple(norms)


def _negated_moduli(take, v: np.ndarray, out: np.ndarray) -> None:
    # -|v| into out, which may be v itself
    take(v, out=out)
    np.negative(out, out=out)


# The block loops of the integral. tb holds t_k = k * cell_volume for the
# block's k = start..stop, so each step has both endpoints. The in-place
# operators take the same ufunc loops, ** its scalar fast paths included, as
# the expressions in the comments, so every summand has the bits it would
# have from whole-array expressions, whatever the block


def _sup(core, cell_volume, p, ks, t) -> float:
    """max over the steps k of core[k] * t_k^(1/p), serially in blocks of
    len(t) - 1 steps."""
    peak = -math.inf
    for start in range(0, core.size, t.size - 1):
        c = core[start : start + t.size - 1]
        # core decreases and t^(1/p) increases, so no product of the block
        # exceeds t_stop^(1/p) core[start]: a block whose bound, with a
        # relative margin of 1e-12 for rounding, is below the peak cannot
        # hold the maximum. A bound that overflows is inf and skips nothing
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN are refused below
            bound = np.float64((start + c.size) * cell_volume) ** (1.0 / p) * c[0]
        if bound * (1.0 + 1e-12) < peak:
            continue
        tb = t[: c.size]
        np.add(ks[1 : c.size + 1], start, out=tb)
        tb *= cell_volume  # t = k * cell_volume
        tb **= 1.0 / p
        tb *= c  # core * t ** (1/p)
        peak = np.maximum(peak, np.max(tb))
    return peak


def _summands(core, out, first, cell_volume, p, s, ks, t, step) -> None:
    """core**s * (p/s) * (tp - tp_prev), tp = t^(s/p), for the steps first
    + k of core, into out or, if out is None, over core, in blocks of
    len(step) steps."""
    for start in range(0, core.size, step.size):
        c = core[start : start + step.size]
        tb = t[: c.size + 1]
        np.add(ks[: tb.size], first + start, out=tb)
        tb *= cell_volume  # t = k * cell_volume
        tb **= s / p  # tp = t ** (s/p), so tp_prev = 0 at k = 0
        st = step[: c.size]
        np.subtract(tb[1:], tb[:-1], out=st)  # tp - tp_prev
        w = c
        if out is not None:
            w = out[start : start + c.size]
            np.copyto(w, c)
        w **= s
        w *= p / s
        w *= st  # core**s * (p/s) * (tp - tp_prev)


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
