"""Grid geometry and the lattice Fourier transform."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restrictionlab.grids import (
    GridSpec,
    _sign_mesh,
    fourier_on_grid,
    inverse_fourier_on_grid,
)

from gridpoints import grid_points


def test_grid_arithmetic():
    g = GridSpec(dim=2, half_width=4.0, points_per_axis=32)
    assert g.spacing == pytest.approx(0.25)
    assert g.cell_volume == pytest.approx(0.0625)
    assert g.freq_spacing == pytest.approx(0.125)
    assert g.nyquist == pytest.approx(2.0)
    ax = g.axis()
    assert ax[0] == -4.0 and ax[-1] == pytest.approx(4.0 - 0.25)
    fx = g.freq_axis()
    assert fx[0] == -2.0 and fx[len(fx) // 2] == 0.0
    assert all(m.shape == (32, 32) for m in g.mesh())


def test_grid_validation():
    with pytest.raises(ValueError, match="dim"):
        GridSpec(dim=0, half_width=1.0, points_per_axis=16)
    for half_width in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="half_width must be finite and positive"):
            GridSpec(dim=1, half_width=half_width, points_per_axis=16)
    with pytest.raises(ValueError, match="power of two"):
        GridSpec(dim=1, half_width=1.0, points_per_axis=12)
    with pytest.raises(ValueError, match="power of two"):
        GridSpec(dim=1, half_width=1.0, points_per_axis=4)


def test_transform_matches_direct_sum_1d():
    g = GridSpec(dim=1, half_width=3.0, points_per_axis=64)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    F = fourier_on_grid(v, g)
    x = g.axis()
    for m in (0, 5, 31, 40, 63):
        xi = g.freq_axis()[m]
        direct = np.sum(v * np.exp(-2j * np.pi * x * xi)) * g.spacing
        assert abs(F[m] - direct) < 1e-10


def test_transform_matches_direct_sum_2d():
    g = GridSpec(dim=2, half_width=1.0, points_per_axis=16)
    rng = np.random.default_rng(1)
    v = rng.standard_normal((16, 16))
    F = fourier_on_grid(v, g)
    pts = grid_points(g)
    fx = g.freq_axis()
    for mi, mj in ((0, 0), (3, 12), (8, 8), (15, 1)):
        xi = np.array([fx[mi], fx[mj]])
        direct = np.sum(v.ravel() * np.exp(-2j * np.pi * pts @ xi)) * g.cell_volume
        assert abs(F[mi, mj] - direct) < 1e-10


def test_transform_of_gaussian_is_gaussian():
    # exp(-pi x^2) is its own transform; the box is wide enough that the
    # truncation error is far below the tolerance
    g = GridSpec(dim=1, half_width=8.0, points_per_axis=256)
    x = g.axis()
    F = fourier_on_grid(np.exp(-np.pi * x**2), g)
    xi = g.freq_axis()
    assert np.max(np.abs(F - np.exp(-np.pi * xi**2))) < 1e-12


def test_roundtrip_inverse_of_forward():
    g = GridSpec(dim=2, half_width=2.0, points_per_axis=32)
    rng = np.random.default_rng(2)
    v = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    back = inverse_fourier_on_grid(fourier_on_grid(v, g), g)
    assert np.max(np.abs(back - v)) < 1e-12


def test_parseval_on_lattice():
    g = GridSpec(dim=1, half_width=4.0, points_per_axis=128)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    F = fourier_on_grid(v, g)
    lhs = np.sum(np.abs(v) ** 2) * g.spacing
    rhs = np.sum(np.abs(F) ** 2) * g.freq_spacing
    assert lhs == pytest.approx(rhs, rel=1e-12)


def _lattice_input(kind, n, d, rng):
    shape = (n,) * d
    F = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if kind == "zero lines":
        # whole lines along the last axis vanish, as off the Knapp caps
        F[rng.uniform(size=shape[:-1]) < 0.7] = 0.0
    elif kind == "sparse":
        F[rng.uniform(size=shape) < 0.9] = 0.0
    elif kind == "zero":
        F[...] = 0.0
    return F


@pytest.mark.parametrize("kind", ["dense", "zero lines", "sparse", "zero"])
@pytest.mark.parametrize("d,n", [(1, 64), (2, 32), (3, 16)])
def test_inverse_transform_equals_ifftn_formula_bit_for_bit(d, n, kind):
    g = GridSpec(dim=d, half_width=3.0, points_per_axis=n)
    F = _lattice_input(kind, n, d, np.random.default_rng(7 * d + n))
    before = F.copy()
    scale = (n * g.freq_spacing) ** d
    expected = scale * np.fft.ifftn(np.fft.ifftshift(_sign_mesh(n, d) * F))
    got = inverse_fourier_on_grid(F, g)
    assert np.array_equal(got, expected)
    # the caller's array is left as it was
    assert np.array_equal(F, before)
    assert np.array_equal(np.signbit(F.view(float)), np.signbit(before.view(float)))


@settings(derandomize=True, deadline=None, max_examples=120)
@given(
    d=st.integers(1, 3),
    n=st.sampled_from([8, 16, 32]),
    lines=st.sampled_from(["random", "one", "nyquist", "none", "all"]),
    order=st.sampled_from(["C", "F"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_inverse_transform_on_zero_line_masks_equals_ifftn_formula(d, n, lines, order, seed):
    g = GridSpec(dim=d, half_width=3.0, points_per_axis=n)
    rng = np.random.default_rng(seed)
    shape = (n,) * d
    F = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # exact zeros of either sign inside the lines that are kept
    F.real[rng.uniform(size=shape) < 0.2] = -0.0
    F.imag[rng.uniform(size=shape) < 0.2] = 0.0
    rows = F.reshape(-1, n)  # a view: one row per line along the last axis
    keep = np.zeros(rows.shape[0], dtype=bool)
    if lines == "random":
        keep = rng.uniform(size=keep.size) < 0.3
    elif lines == "one":
        keep[rng.integers(keep.size)] = True
    elif lines == "nyquist":
        keep[0] = True  # frequency -N/2 on every leading axis
    elif lines == "all":
        keep[:] = True
    rows[~keep] = complex(-0.0, 0.0) if rng.uniform() < 0.5 else 0.0
    F = np.asarray(F, order=order)
    before = F.copy()
    scale = (n * g.freq_spacing) ** d
    expected = scale * np.fft.ifftn(np.fft.ifftshift(_sign_mesh(n, d) * F))
    got = inverse_fourier_on_grid(F, g)
    assert np.array_equal(got, expected)
    assert got.shape == shape and got.flags.f_contiguous
    # the caller's array is left as it was, signs of its zeros included
    assert np.array_equal(F, before)
    assert np.array_equal(np.signbit(F.real), np.signbit(before.real))
    assert np.array_equal(np.signbit(F.imag), np.signbit(before.imag))


@pytest.mark.parametrize("dtype", ["float64", "float32", "complex64"])
@pytest.mark.parametrize("kind", ["dense", "zero lines", "sparse", "zero"])
@pytest.mark.parametrize("d,n", [(1, 64), (2, 32), (3, 16)])
def test_lattice_transforms_as_its_complex128_copy_bit_for_bit(d, n, kind, dtype):
    # a real or single-precision lattice is cast line by line, not copied
    g = GridSpec(dim=d, half_width=3.0, points_per_axis=n)
    rng = np.random.default_rng(5 * d + n)
    F = _lattice_input(kind, n, d, rng)
    F = (F if dtype == "complex64" else F.real).astype(dtype)
    # zeros of both signs, which become -0 + 0j and 0 + 0j
    F.real[(F.real == 0.0) & (rng.uniform(size=F.shape) < 0.5)] = -0.0
    before = F.copy()
    got = inverse_fourier_on_grid(F, g)
    expected = inverse_fourier_on_grid(F.astype(complex), g)
    assert got.dtype == complex and got.flags.f_contiguous == expected.flags.f_contiguous
    assert got.tobytes() == expected.tobytes()
    assert before.tobytes() == F.tobytes()


def test_real_lattice_is_not_copied_to_complex():
    # a Knapp-like lattice: real, with whole lines zero. Beyond the complex
    # output the call allocates only its line blocks and index arrays
    n = 1024
    g = GridSpec(dim=2, half_width=64.0, points_per_axis=n)
    rng = np.random.default_rng(9)
    F = rng.standard_normal((n, n))
    F[rng.uniform(size=n) < 0.5] = 0.0
    expected = inverse_fourier_on_grid(F.astype(complex), g)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        got = inverse_fourier_on_grid(F, g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert got.tobytes() == expected.tobytes()
    assert peak < got.nbytes + 4 * 2**20


def test_transform_shape_check():
    g = GridSpec(dim=2, half_width=1.0, points_per_axis=16)
    with pytest.raises(ValueError, match="shape"):
        fourier_on_grid(np.zeros(16), g)
    with pytest.raises(ValueError, match="shape"):
        inverse_fourier_on_grid(np.zeros((8, 8)), g)
