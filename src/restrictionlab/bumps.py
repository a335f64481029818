"""Smooth compactly supported cutoff profiles.

All experiments in this package share one explicit C-infinity bump family,
built from the classical exp(-1/t) smoothstep. Exact plateau and support
intervals are part of each profile's contract; several verification
routines (cap disjointness, telescoping partitions, kernel vanishing)
depend on them, so the constants below are load-bearing.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "smoothstep",
    "bump",
    "radial_plateau",
    "dyadic_ring",
    "annulus_window",
    "plateau_window",
    "wide_plateau",
    "kernel_ring",
]


def smoothstep(t):
    """C-infinity monotone step: 0 for t <= 0, 1 for t >= 1.

    Realized as e(t)/(e(t)+e(1-t)) with e(t) = exp(-1/t) extended by 0.
    Vectorized; accepts scalars or arrays, and a scalar gives np.float64.
    exp is evaluated only where 0 < t < 1 or t is NaN; elsewhere the result
    is exactly 0.0 or 1.0, the value the quotient takes there (0/(0+b) and
    a/(a+0)). NaN stays NaN.
    """
    t = np.asarray(t, dtype=float)
    out = np.asarray(t >= 1.0, dtype=float)
    inside = ~((t <= 0.0) | (t >= 1.0))
    s = t[inside]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.exp(-1.0 / np.maximum(s, 1e-300))
        b = np.exp(-1.0 / np.maximum(1.0 - s, 1e-300))
    out[inside] = a / (a + b)
    return out if out.ndim else out[()]


def bump(t):
    """Even bump: 1 on |t| <= 1/2, supported in |t| < 1."""
    return smoothstep(2.0 * (1.0 - np.abs(t)))


def radial_plateau(u):
    """Radial plateau in the squared-radius variable u = |x|^2.

    Equals 1 for |x| <= 1/2 (u <= 1/4) and vanishes for |x| >= 1 (u >= 1).
    Working in u keeps the profile smooth through the origin.
    """
    return smoothstep((1.0 - np.asarray(u, dtype=float)) / 0.75)


def dyadic_ring(u, j):
    """Ring j of the radial dyadic partition, in squared radius u = |x|^2.

    j = 0 returns the central plateau; j >= 1 returns the difference
    radial_plateau(u/4^j) - radial_plateau(u/4^(j-1)), supported where
    2^(j-1) < |x| < 2^j. The family telescopes exactly:
    sum_{j=0}^{J} ring_j(u) = radial_plateau(u/4^J), which is 1 for
    |x| <= 2^(J-1).

    For j >= 1 the difference is evaluated only where 4^(j-2) < u < 4^j or
    u is NaN. Outside that band both plateaus are exactly 1 or both exactly
    0 (dividing by a power of 4 is exact), so the ring there is exactly 0.0.
    A scalar u gives np.float64.
    """
    u = np.asarray(u, dtype=float)
    if j == 0:
        return radial_plateau(u)
    out = np.zeros(u.shape)
    inside = ~((u <= 4.0 ** (j - 2)) | (u >= 4.0**j))
    v = u[inside]
    out[inside] = radial_plateau(v / 4.0**j) - radial_plateau(v / 4.0 ** (j - 1))
    return out if out.ndim else out[()]


def annulus_window(t):
    """One-sided ring window: supported in t in (3/4, 5/4), equals 1 at t = 1."""
    t = np.asarray(t, dtype=float)
    return smoothstep((t - 0.75) / 0.25) * smoothstep((1.25 - t) / 0.25)


def plateau_window(t):
    """Narrow even plateau: 1 on |t| <= 1/16, supported in |t| < 1/4.

    The tight support is what keeps cap constructions on the sphere from
    picking up antipodal arcs; see the Knapp module.
    """
    return smoothstep((0.25 - np.abs(t)) * 16.0 / 3.0)


def wide_plateau(t):
    """Even plateau: 1 on |t| <= 3/4, supported in |t| < 1.

    Used by the oscillatory kernel decomposition, whose vanishing
    thresholds require the plateau to reach 3/4.
    """
    return smoothstep((1.0 - np.abs(t)) / 0.25)


def kernel_ring(t, j):
    """Telescoping dyadic family on the line built from wide_plateau.

    j = 0 is wide_plateau itself; j >= 1 is
    wide_plateau(t/2^j) - wide_plateau(t/2^(j-1)), supported in
    3*2^(j-3) < |t| < 2^j with plateau 2^(j-1) <= |t| <= 3*2^(j-2).
    Partial sums telescope exactly to wide_plateau(t/2^J).
    """
    t = np.asarray(t, dtype=float)
    if j == 0:
        return wide_plateau(t)
    return wide_plateau(t / 2.0**j) - wide_plateau(t / 2.0 ** (j - 1))
