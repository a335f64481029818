"""Uniform grids and the lattice Fourier transform.

A GridSpec describes the symmetric box [-L, L)^d sampled at N points per
axis. Its frequency lattice has spacing 1/(2L) and reaches the Nyquist
frequency N/(4L); transforming a field on the grid to that lattice is an
exact rearrangement of the DFT (checkerboard signs absorb the -L offset),
so grid transforms and direct summation agree to rounding error. A field
on a grid is an (N,)*d array of its samples; the GridSpec holds the
lattice, and no other type restates it.

The module also holds the package's one separable sum on a product
lattice, sum_j c_j prod_k M_k[j, a_k], its transpose, and the one builder
of their phase matrices M_k = exp(scale a (x) b); the measure transforms
of measures and operators and the oscillatory fast path run them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["GridSpec", "fourier_on_grid", "inverse_fourier_on_grid"]


@dataclass(frozen=True)
class GridSpec:
    """Symmetric uniform grid on [-L, L)^d with N (power of two) points per axis."""

    dim: int
    half_width: float
    points_per_axis: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not 0 < self.half_width < np.inf:  # NaN fails every comparison
            raise ValueError("half_width must be finite and positive, got %g" % self.half_width)
        n = self.points_per_axis
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError("points_per_axis must be a power of two, at least 8")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def freq_spacing(self) -> float:
        return 1.0 / (2.0 * self.half_width)

    @property
    def nyquist(self) -> float:
        return self.points_per_axis / (4.0 * self.half_width)

    def axis(self) -> np.ndarray:
        """Sample points -L + k*spacing, k = 0..N-1."""
        return -self.half_width + self.spacing * np.arange(self.points_per_axis)

    def freq_axis(self) -> np.ndarray:
        """Frequency lattice m/(2L), m = -N/2..N/2-1."""
        n = self.points_per_axis
        return (np.arange(n) - n // 2) * self.freq_spacing

    def mesh(self) -> tuple:
        return np.meshgrid(*([self.axis()] * self.dim), indexing="ij")


# lines per block of the last-axis pass of inverse_fourier_on_grid
_LINE_BLOCK = 16


def _sign_vector(n: int) -> np.ndarray:
    # (-1)^m for m = -N/2..N/2-1; parity of |m| = parity of m
    return (-1.0) ** np.abs(np.arange(n) - n // 2)


def _sign_mesh(n: int, d: int) -> np.ndarray:
    s = _sign_vector(n)
    out = s
    for _ in range(d - 1):
        out = np.multiply.outer(out, s)
    return out


def fourier_on_grid(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Riemann-sum Fourier transform sampled on the frequency lattice.

    Returns F(xi_m) = sum_k f(x_k) exp(-2 pi i <x_k, xi_m>) h^d for
    xi_m = m/(2L), m = -N/2..N/2-1 per axis, as an N^d array in that order.
    """
    v = np.asarray(values, dtype=complex)
    n, d = grid.points_per_axis, grid.dim
    if v.shape != (n,) * d:
        raise ValueError("value shape does not match grid")
    f = np.fft.fftshift(np.fft.fftn(v))
    return grid.cell_volume * _sign_mesh(n, d) * f


def inverse_fourier_on_grid(freq_values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Inverse of fourier_on_grid (frequency lattice back to the spatial grid).

    Equals scale * ifftn(ifftshift(signs * F)), scale = (N/(2L))^d, bit for
    bit up to the sign of exact zeros: the 1-D inverse transforms run in
    ifftn's order, last axis first, and each line goes through the same
    pocketfft call on the same data. On the last axis only the lines of F
    that are not all zero are transformed, since a zero line transforms to
    zero; they are shifted, signed and transformed in contiguous blocks and
    written transposed into a zeroed buffer whose axes are reversed, so the
    later passes run on contiguous lines as well. The result is the
    transpose of that buffer: the same values and indexing as ifftn's, in
    Fortran memory order for d >= 2. The caller's array is not touched.

    Any real or complex lattice is taken as it is, not copied to complex as
    a whole: each kept line is cast to complex as it is copied into its
    block, which gives the values the complex copy would hold, so a float64
    lattice has the same bits as its complex copy at half the input memory.
    """
    F = np.asarray(freq_values)
    n, d = grid.points_per_axis, grid.dim
    if F.shape != (n,) * d:
        raise ValueError("value shape does not match grid")
    h = n // 2
    signs = np.fft.ifftshift(_sign_vector(n))
    lines = F.reshape(-1, n)
    keep = np.flatnonzero(lines.any(axis=1))
    # the shift moves each of a line's d-1 leading indices by n/2; digits[k]
    # is the shifted index on axis k, and col the line's column in `columns`
    digits = [(keep // n ** (d - 2 - k) + h) % n for k in range(d - 1)]
    col = sum((i * n**k for k, i in enumerate(digits)), np.zeros_like(keep))
    work = np.zeros((n,) * d, dtype=complex)
    columns = work.reshape(n, -1)
    block = np.empty((min(_LINE_BLOCK, keep.size), n), dtype=complex)
    for start in range(0, keep.size, _LINE_BLOCK):
        rows = slice(start, start + _LINE_BLOCK)
        idx = keep[rows]
        b = block[: idx.size]
        b[:, :h] = lines[idx, h:]  # the shift along each line
        b[:, h:] = lines[idx, :h]
        for i in digits:  # the sign of each axis in turn, axis 0 first
            b *= signs[i[rows], None]
        b *= signs
        np.fft.ifft(b, axis=1, out=b)
        columns[:, col[rows]] = b.T
    out = work.T
    for axis in range(d - 2, -1, -1):
        np.fft.ifft(out, axis=axis, out=out)
    out *= (n * grid.freq_spacing) ** d  # = (N/(2L))^d
    return out


def _phase_matrix(a: np.ndarray, b: np.ndarray, scale: complex) -> np.ndarray:
    """exp(scale * a (x) b), shape (len(a), len(b)), built in place in one
    complex buffer: the phase matrices of every separable sum below."""
    buf = np.empty((len(a), len(b)), dtype=complex)
    np.multiply.outer(a, b, out=buf)
    buf *= scale
    return np.exp(buf, out=buf)


def _separable_sum(c: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    """sum_j c_j prod_k mats[k][j, a_k] at every index (a_0, ..., a_{d-1}),
    shaped (mats[0].shape[1], ..., mats[-1].shape[1]).

    With no matrix this is c.sum(), with one a GEMV. With two or more, each
    index of the remaining axes scales c by those matrices' columns, and the
    first two axes are then one GEMM."""
    if not mats:
        return c.sum()
    if len(mats) == 1:
        return mats[0].T @ c
    m0, m1, rest = mats[0], mats[1], mats[2:]
    if not rest:
        return (m0 * c[:, None]).T @ m1
    out = np.empty(tuple(m.shape[1] for m in mats), dtype=complex)
    for idx in np.ndindex(*(m.shape[1] for m in rest)):
        coef = c
        for m, k in zip(rest, idx):
            coef = coef * m[:, k]
        out[(slice(None), slice(None)) + idx] = (m0 * coef[:, None]).T @ m1
    return out


def _separable_sum_transpose(values: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    """sum_a values[a] prod_k mats[k][j, a_k] for each row j, the transpose
    of _separable_sum: the first axis by one tensordot, then each further
    axis by a product and a sum."""
    out = np.tensordot(mats[0], values, axes=(1, 0))
    for m in mats[1:]:
        out = (out * m[(slice(None), slice(None)) + (None,) * (out.ndim - 2)]).sum(axis=1)
    return out
