"""Cutoff profiles: plateau values, support bounds, partition telescoping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restrictionlab.bumps import (
    annulus_window,
    bump,
    dyadic_ring,
    kernel_ring,
    plateau_window,
    radial_plateau,
    smoothstep,
    wide_plateau,
)


def test_smoothstep_endpoints_and_midpoint():
    assert smoothstep(np.array(-1.0)) == 0.0
    assert smoothstep(np.array(0.0)) == 0.0
    assert smoothstep(np.array(1.0)) == 1.0
    assert smoothstep(np.array(2.0)) == 1.0
    assert smoothstep(np.array(0.5)) == pytest.approx(0.5, abs=1e-15)


def test_smoothstep_monotone_and_bounded():
    t = np.linspace(-0.5, 1.5, 2001)
    v = smoothstep(t)
    assert np.all(np.diff(v) >= -1e-15)
    assert np.all(v >= 0.0) and np.all(v <= 1.0)


def test_smoothstep_is_smooth_at_junctions():
    # first two finite-difference derivatives vanish at t = 0 and t = 1
    h = 1e-4
    for t0 in (0.0, 1.0):
        d1 = (smoothstep(np.array(t0 + h)) - smoothstep(np.array(t0 - h))) / (2 * h)
        assert abs(d1) < 1e-6


def test_bump_plateau_and_support():
    t = np.array([0.0, 0.25, 0.5, -0.5, 0.99, 1.0, 1.5])
    v = bump(t)
    assert np.all(v[:4] == 1.0)
    assert 0.0 < v[4] < 1.0
    assert v[5] == 0.0 and v[6] == 0.0


def test_radial_plateau_plateau_and_support():
    u = np.array([0.0, 0.1, 0.25, 0.6, 1.0, 2.0])
    v = radial_plateau(u)
    assert np.all(v[:3] == 1.0)
    assert 0.0 < v[3] < 1.0
    assert v[4] == 0.0 and v[5] == 0.0


def test_dyadic_ring_telescopes_to_plateau():
    u = np.linspace(0.0, 300.0, 4001)
    total = sum(dyadic_ring(u, j) for j in range(0, 6))
    assert np.max(np.abs(total - radial_plateau(u / 4.0**5))) < 1e-14


def test_dyadic_ring_partition_of_unity_on_ball():
    # squared-radius variable: sum over j <= J equals 1 for |x| <= 2^(J-1)
    J = 4
    x = np.linspace(0.0, 2.0 ** (J - 1), 1001)
    u = x**2
    total = sum(dyadic_ring(u, j) for j in range(0, J + 1))
    assert np.max(np.abs(total - 1.0)) < 1e-14


def test_dyadic_ring_supports_disjoint_from_distant_scales():
    u = np.linspace(0.0, 4.0**6, 2001)
    v2 = dyadic_ring(u, 2)
    v5 = dyadic_ring(u, 5)
    assert np.max(v2 * v5) == 0.0


def test_annulus_window_support_and_center():
    t = np.array([0.5, 0.75, 1.0, 1.25, 1.5])
    v = annulus_window(t)
    assert v[0] == 0.0 and v[1] == 0.0
    assert v[2] == 1.0
    assert v[3] == 0.0 and v[4] == 0.0
    inner = annulus_window(np.array([0.9, 1.1]))
    assert np.all(inner > 0.0)


def test_plateau_window_plateau_and_support():
    t = np.array([0.0, 1.0 / 16, -1.0 / 16, 0.2, 0.25, 0.5])
    v = plateau_window(t)
    assert np.all(v[:3] == 1.0)
    assert 0.0 < v[3] < 1.0
    assert v[4] == 0.0 and v[5] == 0.0


def test_wide_plateau_plateau_and_support():
    t = np.array([0.0, 0.5, 0.75, -0.75, 0.9, 1.0, 2.0])
    v = wide_plateau(t)
    assert np.all(v[:4] == 1.0)
    assert 0.0 < v[4] < 1.0
    assert v[5] == 0.0 and v[6] == 0.0


def test_kernel_ring_telescopes_to_wide_plateau():
    t = np.linspace(-100.0, 100.0, 4001)
    J = 6
    total = sum(kernel_ring(t, j) for j in range(0, J + 1))
    assert np.max(np.abs(total - wide_plateau(t / 2.0**J))) < 1e-14


def test_kernel_ring_support_and_plateau():
    j = 4
    # vanishes inside 3 * 2^(j-3) and outside 2^j
    inside = kernel_ring(np.array([0.0, 3.0 * 2.0 ** (j - 3)]), j)
    outside = kernel_ring(np.array([2.0**j, 2.0 ** (j + 1)]), j)
    assert np.all(inside == 0.0) and np.all(outside == 0.0)
    plateau = kernel_ring(np.array([2.0 ** (j - 1), 3.0 * 2.0 ** (j - 2)]), j)
    assert np.all(plateau == 1.0)


def test_kernel_ring_j0_is_wide_plateau():
    t = np.linspace(-2.0, 2.0, 401)
    assert np.array_equal(kernel_ring(t, 0), wide_plateau(t))


# ------------------------------------------- full-array oracles of the bumps
#
# smoothstep and dyadic_ring evaluate only where the result is not provably
# constant. These are the full-array expressions they replaced; the fast
# versions must agree with them byte for byte (NaN payloads aside).


def _smoothstep_full(t):
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
        return a / (a + b)


def _radial_plateau_full(u):
    return _smoothstep_full((1.0 - np.asarray(u, dtype=float)) / 0.75)


def _dyadic_ring_full(u, j):
    u = np.asarray(u, dtype=float)
    if j == 0:
        return _radial_plateau_full(u)
    return _radial_plateau_full(u / 4.0**j) - _radial_plateau_full(u / 4.0 ** (j - 1))


_TINY = [5e-324, 1e-310, 2.2250738585072014e-308, 1e-300]
_EDGES = [0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), np.inf, -np.inf]
_T_SPECIAL = _EDGES + _TINY + [-x for x in _TINY] + [1.0 - x for x in _TINY]
# u = 4^k and its neighbours: the band edges 4^(j-2) and 4^j of every ring j <= 12
_POWERS = [4.0**k for k in range(-3, 14)]
_U_SPECIAL = (
    _EDGES
    + _TINY
    + _POWERS
    + [np.nextafter(p, 0.0) for p in _POWERS]
    + [np.nextafter(p, np.inf) for p in _POWERS]
    + [-p for p in _POWERS]
)


def _same_bytes(a, b):
    return np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _floats(special, finite_range):
    return st.one_of(
        st.floats(allow_nan=False),
        st.floats(*finite_range),
        st.sampled_from(special),
    )


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    values=st.lists(_floats(_T_SPECIAL, (-0.5, 1.5)), max_size=40),
    two_d=st.booleans(),
    scalar=_floats(_T_SPECIAL, (-0.5, 1.5)),
)
def test_smoothstep_equals_full_array_expression_bit_for_bit(values, two_d, scalar):
    t = np.array(values, dtype=float)
    if two_d:
        t = t.reshape(-1, 1)
    assert _same_bytes(smoothstep(t), _smoothstep_full(t))
    out = smoothstep(scalar)
    assert type(out) is np.float64
    assert _same_bytes(out, _smoothstep_full(scalar))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    values=st.lists(_floats(_U_SPECIAL, (-1.0, 4.0**13)), max_size=40),
    j=st.integers(0, 12),
    two_d=st.booleans(),
    scalar=_floats(_U_SPECIAL, (-1.0, 4.0**13)),
)
def test_dyadic_ring_equals_full_array_expression_bit_for_bit(values, j, two_d, scalar):
    u = np.array(values, dtype=float)
    if two_d:
        u = u.reshape(-1, 1)
    assert _same_bytes(dyadic_ring(u, j), _dyadic_ring_full(u, j))
    out = dyadic_ring(scalar, j)
    assert type(out) is np.float64
    assert _same_bytes(out, _dyadic_ring_full(scalar, j))


def test_nan_stays_nan():
    # NaN lies outside every provably constant region, so it is computed and
    # propagates; the other entries are unaffected by it
    t = np.array([np.nan, -1.0, 0.5, 2.0])
    v = smoothstep(t)
    assert np.isnan(v[0]) and _same_bytes(v[1:], _smoothstep_full(t[1:]))
    assert np.isnan(smoothstep(np.nan))
    u = np.array([np.nan, 0.0, 3.0, 1e9])
    for j in range(0, 6):
        v = dyadic_ring(u, j)
        assert np.isnan(v[0]) and _same_bytes(v[1:], _dyadic_ring_full(u[1:], j))
        assert np.isnan(dyadic_ring(np.nan, j))
