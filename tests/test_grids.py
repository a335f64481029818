"""Grid geometry and the lattice Fourier transform."""

import math
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restrictionlab import _workers
from restrictionlab.grids import GridSpec, fourier_on_grid, inverse_fourier_on_grid

from gridpoints import grid_points, ifftn_formula


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
    assert np.max(np.abs(back - np.abs(v))) < 1e-12


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    d=st.integers(1, 3),
    log2_points=st.integers(3, 5),
    half_width=st.floats(0.25, 8.0),
    magnitude=st.integers(-8, 8),
    real=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_roundtrip_recovers_the_moduli_of_any_field(d, log2_points, half_width, magnitude, real, seed):
    # the forward transform's cell volume and the inverse's (N/(2L))^d cancel
    # at every grid, so the round trip returns |v| to rounding error
    n = 1 << (min(log2_points, 4) if d == 3 else log2_points)
    g = GridSpec(dim=d, half_width=half_width, points_per_axis=n)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n,) * d) * 2.0**magnitude
    if not real:
        v = v + 1j * rng.standard_normal((n,) * d) * 2.0**magnitude
    back = inverse_fourier_on_grid(fourier_on_grid(v, g), g)
    assert back.shape == v.shape
    assert np.max(np.abs(back - np.abs(v))) <= 1e-13 * np.max(np.abs(v))


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
    expected = np.abs(ifftn_formula(F, g))
    got = inverse_fourier_on_grid(F, g)
    assert got.tobytes() == expected.tobytes()
    # the caller's array is left as it was
    assert np.array_equal(F, before)
    assert np.array_equal(np.signbit(F.view(float)), np.signbit(before.view(float)))


def _peak_bytes(call):
    """call() and the peak of the memory it allocated beyond what was held
    before, by tracemalloc (numpy reports its buffers to it)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    d=st.integers(1, 3),
    n=st.sampled_from([8, 16, 32, 64]),
    lines=st.sampled_from(["random", "one", "nyquist", "none", "all"]),
    order=st.sampled_from(["C", "F"]),
    real=st.booleans(),
    workers=st.sampled_from([1, 2, 4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_moduli_equal_abs_of_ifftn_formula_bit_for_bit(d, n, lines, order, real, workers, seed):
    g = GridSpec(dim=d, half_width=3.0, points_per_axis=n)
    rng = np.random.default_rng(seed)
    shape = (n,) * d
    F = rng.standard_normal(shape)
    if not real:
        F = F + 1j * rng.standard_normal(shape)
        F.imag[rng.uniform(size=shape) < 0.2] = 0.0
    # exact zeros of either sign inside the lines that are kept
    F.real[rng.uniform(size=shape) < 0.2] = -0.0
    rows = F.reshape(-1, n)  # a view: one row per line along the last axis
    keep = np.zeros(rows.shape[0], dtype=bool)
    if lines == "random":
        keep = rng.uniform(size=keep.size) < rng.uniform()
    elif lines == "one":
        keep[rng.integers(keep.size)] = True
    elif lines == "nyquist":
        keep[0] = True  # frequency -N/2 on every leading axis
    elif lines == "all":
        keep[:] = True
    rows[~keep] = -0.0 if rng.uniform() < 0.5 else 0.0
    kept = int(np.count_nonzero(rows.any(axis=1)))
    F = np.asarray(F, order=order)
    before = F.copy()
    expected = np.abs(ifftn_formula(F, g))
    with mock.patch.object(_workers, "_WORKERS", workers):
        got, peak = _peak_bytes(lambda: inverse_fourier_on_grid(F, g))
    assert got.tobytes() == expected.tobytes()
    assert got.dtype == np.float64 and got.shape == shape and got.flags.f_contiguous
    # the caller's array is left as it was, signs of its zeros included
    assert before.tobytes() == F.tobytes()
    # one buffer, the larger of the moduli and the kept lines' compact
    # buffer, one block of 16 kept lines and one slab of 16 output lines
    # shared out among the workers, plus index arrays and numpy's buffers;
    # the complex field (16 n^d bytes) exceeds this whenever it is much
    # larger than one slab. A
    # lattice in either memory order is read in place, never copied
    compact = 16 * kept * n
    block = 16 * min(16, kept) * n
    slab = 16 * min(16, n) * n ** (d - 1)
    assert peak < max(got.nbytes, compact) + block + slab + 2**18


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    d=st.integers(1, 3),
    n=st.sampled_from([8, 16, 32]),
    bounds=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    zero_lines=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_box_values_transform_as_their_materialized_lattice_bit_for_bit(
    d, n, bounds, zero_lines, seed
):
    # the box path: fill writes F times a window on the box [lo, hi)^d, a
    # block of the box's lines at a time, and the moduli are those of the
    # lattice that holds that product on the box and 0 elsewhere. Whole
    # lines of the window vanish inside the box: the box path transforms
    # them anyway, which changes only the signs of zeros
    n = min(n, 16) if d == 3 else n
    lo = int(bounds[0] * (n - 1))
    hi = lo + 1 + int(bounds[1] * (n - 1 - lo))
    g = GridSpec(dim=d, half_width=3.0, points_per_axis=n)
    rng = np.random.default_rng(seed)
    shape = (n,) * d
    F = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    box = (slice(lo, hi),) * d
    window = rng.uniform(-1.0, 1.0, (hi - lo,) * d)
    window[rng.uniform(size=window.shape[:-1]) < zero_lines] = 0.0
    window[rng.uniform(size=window.shape) < 0.1] = -0.0
    product = np.zeros(shape, dtype=complex)
    product[box] = F[box] * window
    seen = []

    def fill(lattice, lead, out):
        seen.extend(zip(*lead) if lead else [()])
        rel = tuple(i - lo for i in lead)
        np.multiply(lattice[lead + (slice(lo, hi),)], window[rel], out=out)

    before = F.copy()
    got = inverse_fourier_on_grid(F, g, box=(lo, hi, fill))
    expected = inverse_fourier_on_grid(product, g)
    assert got.tobytes() == expected.tobytes()
    assert got.dtype == np.float64 and got.shape == shape and got.flags.f_contiguous
    assert before.tobytes() == F.tobytes()
    # every line of the box, once each, in C order of its leading indices
    assert [tuple(int(i) - lo for i in t) for t in seen] == list(np.ndindex((hi - lo,) * (d - 1)))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    d=st.integers(1, 3),
    n=st.sampled_from([16, 32, 64, 128]),
    lines=st.sampled_from(["random", "none", "all", "few"]),
    order=st.sampled_from(["C", "F"]),
    real=st.booleans(),
    box=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_moduli_have_the_same_bits_at_every_worker_count(d, n, lines, order, real, box, seed):
    # the scan, the blocks of pass 1 and the slabs are split across 1 to 4
    # workers once each gets a whole block of 16 lines (up to 128 output
    # lines and 128 kept lines here); every split gives the serial bits. A
    # box is filled on the calling thread, once per line in C order
    n = min(n, 32) if d == 3 else n
    g = GridSpec(dim=d, half_width=3.0, points_per_axis=n)
    rng = np.random.default_rng(seed)
    shape = (n,) * d
    F = rng.standard_normal(shape)
    if not real:
        F = F + 1j * rng.standard_normal(shape)
    rows = F.reshape(-1, n)  # a view: one row per line along the last axis
    share = {"random": 0.5, "none": 0.0, "all": 1.0, "few": 0.05}[lines]
    rows[rng.uniform(size=rows.shape[0]) >= share] = 0.0
    F = np.asarray(F, order=order)
    lo, hi = n // 4, n - n // 8
    caller, calls = threading.get_ident(), []

    def fill(lattice, lead, out):
        calls.append((threading.get_ident(), [tuple(map(int, t)) for t in zip(*lead)] if lead else [()]))
        np.multiply(lattice[lead + (slice(lo, hi),)], 0.5, out=out)

    def moduli(workers):
        calls.clear()
        with mock.patch.object(_workers, "_WORKERS", workers):
            got = inverse_fourier_on_grid(F, g, box=(lo, hi, fill) if box else None)
        return got, list(calls)

    serial, serial_calls = moduli(1)
    for workers in (2, 3, 4):
        got, got_calls = moduli(workers)
        assert got.tobytes() == serial.tobytes()
        assert got_calls == serial_calls
        assert all(ident == caller for ident, _ in got_calls)


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
    assert got.dtype == np.float64 and got.flags.f_contiguous
    assert got.tobytes() == expected.tobytes()
    assert before.tobytes() == F.tobytes()


@pytest.mark.parametrize("kept_share", [2, 8], ids=["half", "eighth"])
def test_knapp_like_lattice_is_never_held_as_complex(kept_share):
    # a real lattice with whole lines zero, as off the Knapp caps. The call
    # holds one buffer, the larger of the float64 moduli and the compact
    # buffer of the transformed kept lines, with one block, one slab and
    # index arrays, at the default worker count and at 4: neither the
    # complex field nor a complex copy of the input (16 MiB each here)
    n = 1024
    g = GridSpec(dim=2, half_width=64.0, points_per_axis=n)
    rng = np.random.default_rng(9)
    F = rng.standard_normal((n, n))
    F[rng.permutation(n)[: n - n // kept_share]] = 0.0
    expected = np.abs(ifftn_formula(F, g))
    for workers in (_workers._WORKERS, 4):
        with mock.patch.object(_workers, "_WORKERS", workers):
            got, peak = _peak_bytes(lambda: inverse_fourier_on_grid(F, g))
        assert got.tobytes() == expected.tobytes()
        compact = 16 * (n // kept_share) * n
        assert peak < max(got.nbytes, compact) + 4 * 2**20


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("kept_share", [0.25, 0.75], ids=["quarter", "three-quarters"])
def test_kept_lines_share_the_output_buffer(kept_share, order):
    # the moduli (n^d / 2 complex entries) and the kept lines (n per line)
    # share one buffer, so the call holds the larger of the two, not their
    # sum, with kept lines below or above half the lines: a compact buffer
    # allocated beside the output adds the smaller (1 MiB or 2 MiB here).
    # The workers' blocks and slabs hold one block and one slab in all, at
    # the default worker count and at 4
    n = 512
    g = GridSpec(dim=2, half_width=32.0, points_per_axis=n)
    rng = np.random.default_rng(11)
    F = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    F[rng.permutation(n)[: n - int(kept_share * n)]] = 0.0
    F = np.asarray(F, order=order)
    expected = np.abs(ifftn_formula(F, g))
    for workers in (_workers._WORKERS, 4):
        with mock.patch.object(_workers, "_WORKERS", workers):
            got, peak = _peak_bytes(lambda: inverse_fourier_on_grid(F, g))
        assert got.tobytes() == expected.tobytes()
        out, compact = got.nbytes, 16 * int(kept_share * n) * n
        block, slab = 16 * 16 * n, 16 * 16 * n  # of all workers together
        assert peak < max(out, compact) + block + slab + 2**18
        assert min(out, compact) >= 2**20  # the sum would break the bound


def test_transform_shape_check():
    g = GridSpec(dim=2, half_width=1.0, points_per_axis=16)
    with pytest.raises(ValueError, match="shape"):
        fourier_on_grid(np.zeros(16), g)
    with pytest.raises(ValueError, match="shape"):
        inverse_fourier_on_grid(np.zeros((8, 8)), g)
