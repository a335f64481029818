"""Point sets of a GridSpec that only the tests use, to build direct-sum
oracles: every sample point as a list, and the frequency lattice as a mesh."""

import numpy as np


def grid_points(grid):
    """All sample points of the grid as an (N^d, d) array, in the index
    order of grid.mesh()."""
    return np.stack([m.ravel() for m in grid.mesh()], axis=1)


def freq_mesh(grid):
    """The frequency lattice as d arrays of shape (N,)*d, indexing="ij"."""
    return np.meshgrid(*([grid.freq_axis()] * grid.dim), indexing="ij")
