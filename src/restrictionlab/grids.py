"""Uniform grids and the lattice Fourier transform.

A GridSpec describes the symmetric box [-L, L)^d sampled at N points per
axis. Its frequency lattice has spacing 1/(2L) and reaches the Nyquist
frequency N/(4L); transforming a field on the grid to that lattice is an
exact rearrangement of the DFT (checkerboard signs absorb the -L offset),
so grid transforms and direct summation agree to rounding error. A field
on a grid is an (N,)*d array of its samples; the GridSpec holds the
lattice, and no other type restates it. The inverse transform returns only
the moduli |field| as float64, built without ever holding the complex
field, since every experiment reads |field| alone; it runs in one buffer
that becomes its output, the moduli at its front and the transformed kept
lines at its back, so it holds the larger of the two, not their sum. A
caller may instead name the lines that are not zero and supply their
values a block of lines at a time, so that a lattice it transforms is
never held. Its passes over lines are split across worker threads, with
the same bits at every worker count. The tests check it against the
complex ifftn formula.

The module also holds the package's one separable sum on a product
lattice, sum_j c_j prod_k M_k[j, a_k], its transpose, and the one builder
of their phase matrices M_k = exp(scale a (x) b); the measure transforms
of measures and operators and the oscillatory fast path run them. The sum
can build its last matrix itself, a column block at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from ._workers import _parts, _run

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
        # the cell volume, the transform scale (N/(2L))^d and the squared
        # extents of the grid axis (L^2) and the frequency axis (nyquist^2)
        # must be finite and positive: a float ** raises on overflow, and an
        # underflow to 0 leaves no cell
        try:
            sizes = (self.cell_volume, (n * self.freq_spacing) ** self.dim, self.half_width**2, self.nyquist**2)
        except OverflowError:
            sizes = (math.inf,)
        if not all(0 < v < math.inf for v in sizes):
            raise ValueError(
                "half_width %g with %d points per axis in %d dimensions: the cell volume, the transform "
                "scale or a squared axis extent is not a finite positive float" % (self.half_width, n, self.dim)
            )

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


# lines per block of the last-axis pass of inverse_fourier_on_grid, and
# output lines per slab of its later passes
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


def inverse_fourier_on_grid(freq_values: np.ndarray, grid: GridSpec, lines=None) -> np.ndarray:
    """Moduli of the inverse of fourier_on_grid (frequency lattice back to
    the spatial grid), as float64 in Fortran memory order.

    Returns |scale * ifftn(ifftshift(signs * F))|, scale = (N/(2L))^d, bit
    for bit, with that formula's shape and indexing; the formula itself is
    the tests' oracle. Every caller reads only the moduli, so the complex
    field is never held: the 1-D inverse transforms run in ifftn's order,
    last axis first, and each line goes through the same pocketfft call on
    the same data (up to the sign of exact zeros, which the moduli drop).

    The work runs in one complex buffer, which becomes the output. Its
    first max(N^d/2, N kept) entries hold the moduli, a float64 view of its
    front, and the kept lines; each worker's block and slab follow, so no
    worker allocates anything of a line's size. Only the lines of F along
    the last axis that are not all zero are transformed (a zero line
    transforms to zero), in blocks: shifted, signed, transformed and
    written transposed into the back of the first part, stored by output
    line as (N, kept). The later passes then run on slabs of output lines,
    in buffers with reversed axes (zeroed, filled with the slab's lines so
    that every pass runs on contiguous lines, then scaled), and put each
    slab's moduli in the front. Output line i's moduli end at (i+1) o
    bytes, no further than its kept lines at N max(o, k) - N k + (i+1) k
    (o and k the bytes of one line's moduli and of its kept entries), so
    writing them overwrites only lines of rows up to i. So the call holds
    the larger of the moduli and the kept lines, not their sum, plus the
    blocks and slabs, which the returned moduli view the front of.

    The work is split across the worker threads of _workers: the kept-line
    scan by ranges of F's first axis; the blocks of pass 1 by ranges of
    whole blocks of _LINE_BLOCK kept lines, each worker transforming its
    range _LINE_BLOCK / workers lines at a time in its own block; the
    later passes in rounds of one slab of _LINE_BLOCK output lines, a
    1/workers share of it per worker in its own slab. A round reads all its
    lines before any of its moduli are written, and the moduli of a round
    overwrite only lines of that round or earlier ones, so the one buffer
    stays safe; the blocks and slabs of all workers hold as many lines as
    one block and one slab. Each line goes through the same numpy calls
    however the lines are grouped, so the moduli have the same bits at
    every worker count.

    The caller's array is not touched and is never copied: the kept lines
    are found by F.any on the last axis and copied in line by line by
    their leading indices, whatever F's memory order. Any real or complex
    lattice is taken as it is: each kept line is cast to complex as it is
    copied in, so a float64 lattice has the bits of its complex copy at
    half the input memory.

    lines = (keep, fill) transforms instead the lattice whose lines along
    the last axis are what fill makes of F on the kept lines and zero on
    every other, so a caller can transform values it never holds as a
    lattice: F times a window on a box (dyadic_piece), or a sum of outer
    products built a block of rows at a time (knapp_function). keep, an
    integer array, holds the kept lines' flat indices over the d - 1
    leading axes, increasing (C order; [0] or [] when d = 1). Pass 1 then runs on the calling
    thread, _LINE_BLOCK kept lines at a time: fill(F, lead, out) gets lead,
    the block's indices on the leading axes (d - 1 integer arrays), and
    writes each of its lines across its whole width, in the order of the
    frequency lattice, into out, a complex (lines, N) view of a source
    block, one more block in the buffer; fill may use out as scratch for a
    line before writing it. The source is then shifted into the block as
    F is without the callback. A kept line that fill leaves all zero is
    transformed too, which changes only the signs of zeros. F is read only
    by fill, so it may have any shape and layout fill reads (dyadic_piece
    passes the half lattice of mu_hat, knapp_function the caps' factors).
    """
    F = np.asarray(freq_values)
    n, d = grid.points_per_axis, grid.dim
    if lines is None and F.shape != (n,) * d:
        raise ValueError("value shape does not match grid")
    h = n // 2
    scale = (n * grid.freq_spacing) ** d  # = (N/(2L))^d
    axis_signs = _sign_vector(n)
    signs = np.fft.ifftshift(axis_signs)
    if lines is None:
        # the kept-line scan, a range of the first axis per worker
        flags = np.empty(F.shape[:-1], dtype=bool)
        parts = _parts(n, _LINE_BLOCK) if d > 1 else [...]
        _run([[partial(np.any, F[r], axis=-1, out=flags[r]) for r in parts]])
        keep = np.flatnonzero(flags)
        first = _parts(keep.size, _LINE_BLOCK)
    else:
        keep, fill = lines
        first = [slice(0, keep.size)]  # fill runs on this thread
    # lead[k] is each kept line's index on axis k < d-1; the shift moves it
    # by n/2, which gives the line's column col in a slab
    lead = [keep // n ** (d - 2 - k) % n for k in range(d - 1)]
    col = sum(((i + h) % n * n**k for k, i in enumerate(lead)), np.zeros_like(keep))
    # pass 1 gives each worker a range of whole blocks, which it runs a
    # 1/workers block at a time; the later passes run in rounds of one
    # slab, a 1/workers slab per worker
    block_lines = _LINE_BLOCK // len(first)
    slab_workers = len(_parts(n, _LINE_BLOCK))
    slab_lines = min(_LINE_BLOCK, n) // slab_workers
    span = slab_lines * slab_workers  # output lines per round
    # the call's one buffer: the moduli and the kept lines in its first
    # part, then each worker's block, fill's source and each worker's slab
    part = max(n**d // 2, n * keep.size)
    block_size = min(block_lines, keep.size) * n
    source_size = 0 if lines is None else block_size
    slab_shape = (slab_lines,) + (n,) * (d - 1)
    sizes = [block_size] * len(first) + [source_size] + [math.prod(slab_shape)] * slab_workers
    buf = np.empty(part + sum(sizes), dtype=complex)
    out = buf.view(np.float64)[: n**d].reshape((n,) * d)  # reversed axes
    compact = buf[part - n * keep.size : part].reshape(n, keep.size)
    pieces = np.split(buf[part:], np.cumsum(sizes)[:-1])
    blocks = [b.reshape(-1, n) for b in pieces[: len(first)]]
    source = pieces[len(first)].reshape(-1, n)
    slabs = [s.reshape(slab_shape) for s in pieces[len(first) + 1 :]]

    def first_pass(kept, block):
        for start in range(kept.start, kept.stop, block_lines):
            rows = slice(start, min(start + block_lines, kept.stop))
            idx = tuple(i[rows] for i in lead)
            b = block[: rows.stop - start]
            if lines is None:
                # each line by its leading indices, shifted along the line
                # and cast as it is copied into the block
                for r, at in enumerate(zip(*idx) if d > 1 else [()]):
                    np.copyto(b[r, :h], F[at + (slice(h, None),)])
                    np.copyto(b[r, h:], F[at + (slice(None, h),)])
            else:
                src = source[: b.shape[0]]
                fill(F, idx, src)
                b[:, :h] = src[:, h:]
                b[:, h:] = src[:, :h]
            for i in idx:  # each axis's sign in turn, axis 0 first, at the unshifted index
                b *= axis_signs[i, None]
            b *= signs
            np.fft.ifft(b, axis=1, out=b)
            compact[:, rows] = b.T

    _run([[partial(first_pass, kept, block) for kept, block in zip(first, blocks)]])

    def slab_step(w, r):
        # worker w puts the moduli of its slab of round r - 1 in the front,
        # then runs the later passes on its slab of round r
        s, at = slabs[w], r * span + w * slab_lines
        if r > 0:
            done = out[at - span : at - span + slab_lines]
            np.abs(s[: len(done)], out=done)
        todo = compact[at : at + slab_lines]
        if len(todo):
            s = s[: len(todo)]
            s.fill(0.0)
            s.reshape(len(todo), -1)[:, col] = todo
            for axis in range(1, d):  # buffer axis 1 holds the input's axis d-2
                np.fft.ifft(s, axis=axis, out=s)
            s *= scale

    steps = [[partial(slab_step, w, r) for w in range(slab_workers)] for r in range(-(-n // span) + 1)]
    _run(steps)
    return out.T


def _phase_matrix(a: np.ndarray, b: np.ndarray, scale: complex, out=None) -> np.ndarray:
    """exp(scale * a (x) b), shape (len(a), len(b)), built in place in one
    complex buffer, a new one or out: the phase matrices of every separable
    sum below."""
    buf = np.empty((len(a), len(b)), dtype=complex) if out is None else out
    np.multiply.outer(a, b, out=buf)
    buf *= scale
    return np.exp(buf, out=buf)


# columns per block of a last phase matrix that _separable_sum builds itself;
# a power of two, so that each block starts at a multiple of the GEMM
# kernel's column unroll (with 5-column blocks, every fifth column of a
# block rounded differently from the whole product)
_PHASE_BLOCK = 256


def _phase_blocks(a: np.ndarray, b: np.ndarray, scale: complex):
    """(first column, block) pairs of exp(scale * a (x) b), _PHASE_BLOCK
    columns at a time with the remainder merged into the last block, each
    built in the front of one buffer as a C-ordered matrix; every entry has
    the bits of the whole matrix's."""
    count = max(1, len(b) // _PHASE_BLOCK)
    edges = [k * _PHASE_BLOCK for k in range(count)] + [len(b)]
    buf = np.empty(len(a) * (edges[-1] - edges[-2]), dtype=complex)
    for start, stop in zip(edges, edges[1:]):
        block = buf[: len(a) * (stop - start)].reshape(len(a), stop - start)
        yield start, _phase_matrix(a, b[start:stop], scale, out=block)


def _separable_sum(
    c: np.ndarray, mats: Sequence[np.ndarray], *, owned: bool = False, last=None
) -> np.ndarray:
    """sum_j c_j prod_k mats[k][j, a_k] at every index (a_0, ..., a_{d-1}),
    shaped (mats[0].shape[1], ..., mats[-1].shape[1]).

    With no matrix this is c.sum(), with one a GEMV. With two or more, each
    index of the axes after the second scales c by those matrices' columns,
    and the first two axes are then one GEMM.

    last = (a, b, scale) appends to mats (which must then hold at least
    one matrix) the matrix exp(scale * a (x) b) without ever holding it:
    it is built _PHASE_BLOCK columns at a time in one reused buffer, and
    each block goes through the same products as the whole matrix would,
    one GEMM per block for the last axis of two, so the sum has the same
    bits. The remainder is merged into the last block, so the last block
    ends in the whole matrix's own tail columns: a block of one column
    would be a GEMV, which rounds differently.

    Ownership: the matrices are read only, unless the caller passes
    owned=True to hand them over; then, with exactly two axes, mats[0] is
    scaled by c in place instead of in a scaled copy (the same products,
    so the same bits) and holds that scaled matrix afterwards. A caller that
    keeps its matrices, such as apply_T_lambda_product with the phase
    factors it reuses, leaves owned at False."""
    if last is not None:
        size, blocks = len(last[1]), _phase_blocks(*last)
    elif len(mats) < 2:
        return mats[0].T @ c if mats else c.sum()
    else:
        size, blocks, mats = mats[-1].shape[1], [(0, mats[-1])], mats[:-1]
    out = np.empty(tuple(m.shape[1] for m in mats) + (size,), dtype=complex)
    m0 = mats[0]
    if len(mats) == 1:
        m0 = np.multiply(m0, c[:, None], out=m0 if owned else None)
        for start, m in blocks:
            np.matmul(m0.T, m, out=out[:, start : start + m.shape[1]])
        return out
    m1, rest = mats[1], list(mats[2:])
    for start, m in blocks:
        for idx in np.ndindex(*(x.shape[1] for x in rest), m.shape[1]):
            coef = c
            for x, k in zip(rest + [m], idx):
                coef = coef * x[:, k]
            at = (slice(None), slice(None)) + idx[:-1] + (start + idx[-1],)
            out[at] = (m0 * coef[:, None]).T @ m1
    return out


def _separable_sum_transpose(values: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    """sum_a values[a] prod_k mats[k][j, a_k] for each row j, the transpose
    of _separable_sum: the first axis by one tensordot, then each further
    axis by a product and a sum."""
    out = np.tensordot(mats[0], values, axes=(1, 0))
    for m in mats[1:]:
        out = (out * m[(slice(None), slice(None)) + (None,) * (out.ndim - 2)]).sum(axis=1)
    return out
