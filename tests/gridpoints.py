"""Point sets and formulas of a GridSpec that only the tests use, to build
oracles: every sample point as a list, the frequency lattice as a mesh, the
complex inverse lattice transform as one ifftn, and the lines argument that
passes a whole lattice through the line form of the inverse transform."""

import numpy as np

from restrictionlab.grids import _sign_mesh


def grid_points(grid):
    """All sample points of the grid as an (N^d, d) array, in the index
    order of grid.mesh()."""
    return np.stack([m.ravel() for m in grid.mesh()], axis=1)


def freq_mesh(grid):
    """The frequency lattice as d arrays of shape (N,)*d, indexing="ij"."""
    return np.meshgrid(*([grid.freq_axis()] * grid.dim), indexing="ij")


def ifftn_formula(freq_values, grid):
    """The complex inverse of fourier_on_grid, scale * ifftn(ifftshift(signs
    * F)) with scale = (N/(2L))^d: inverse_fourier_on_grid returns its
    moduli bit for bit."""
    n, d = grid.points_per_axis, grid.dim
    scale = (n * grid.freq_spacing) ** d
    return scale * np.fft.ifftn(np.fft.ifftshift(_sign_mesh(n, d) * freq_values))


def lattice_lines(F):
    """(keep, fill) for inverse_fourier_on_grid's line form that transform
    the whole lattice F, in either memory order and any real or complex
    dtype: its lines along the last axis that are not all zero, each copied
    into the source block by its leading indices and cast to complex as it
    is copied, so F is never copied whole."""
    keep = np.flatnonzero(np.asarray(F).any(axis=-1))

    def fill(values, lead, out):
        for r, at in enumerate(zip(*lead) if lead else [()]):
            np.copyto(out[r], values[at])

    return keep, fill
