"""Multi-scale cap superpositions on the circle and the sharpness experiment.

The frequency-side function is a sum over k = 1..N of caps at the north
pole: tangential width ~2^-k (annulus window in |xi_1|), radial thickness
~2^{-2k+5} (plateau window in |xi_2 - 1|), weighted by 2^{k/q}. Its
q-norm against the circle measure grows like N^{1/q} while the Lorentz
(p, s) norm of the inverse transform grows only like N^{1/s}; for s > q the
fitted slope gap witnesses that no restriction bound with those exponents
can hold.

The radial window deliberately has a plateau much narrower than its
support: caps must sample the measure only near the pole, and a wide
profile at small k would also pick up antipodal arcs and flatten the
fitted q-norm slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .bumps import annulus_window, plateau_window
from .fitting import FitResult, loglog_fit
from .grids import GridSpec, inverse_fourier_on_grid
from .lorentz import _check_exponents, lorentz_norm_values
from .measures import DiscreteMeasure, make_sphere_measure

__all__ = ["KnappSpec", "ExperimentReport", "knapp_g_values", "knapp_function",
           "knapp_sharpness_experiment"]


@dataclass(frozen=True)
class KnappSpec:
    """Parameters of the cap superposition on the circle (d = 2): N caps,
    weighted for the q-norm."""

    N: int
    q: float

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("need N >= 1")
        if not self.q > 0:
            raise ValueError("need q > 0")

    def weights(self) -> np.ndarray:
        """2^{k/q} for k = 1..N."""
        k = np.arange(1, self.N + 1)
        return 2.0 ** (k / self.q)


def _cap_factors(k: int, xi1, xi2) -> Tuple[np.ndarray, np.ndarray]:
    """Cap k as its two factors: the tangential annulus_window(2^k |xi_1|)
    and the radial plateau_window(2^{2k-5} |xi_2 - 1|)."""
    return annulus_window(2.0**k * np.abs(xi1)), plateau_window(2.0 ** (2 * k - 5) * np.abs(xi2 - 1.0))


def knapp_g_values(spec: KnappSpec, xi_points) -> np.ndarray:
    """The superposition evaluated at arbitrary frequency points (m, 2)."""
    xi = np.atleast_2d(np.asarray(xi_points, dtype=float))
    if xi.shape[-1] != 2:
        raise ValueError("frequency points must be 2-dimensional")
    out = np.zeros(xi.shape[0])
    w = spec.weights()
    for k in range(1, spec.N + 1):
        tang, rad = _cap_factors(k, xi[:, 0], xi[:, 1])
        out += w[k - 1] * tang * rad
    return out


def _max_resolvable_caps(grid: GridSpec) -> int:
    # finest cap thickness 2^{-2N+5} must span >= 4 frequency cells of width 1/(2L)
    return int(math.floor((math.log2(2.0 * grid.half_width / 4.0) + 5.0) / 2.0))


def knapp_function(
    spec: KnappSpec, grid: GridSpec, sphere: DiscreteMeasure
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample the superposition on the atoms of the circle measure `sphere`
    and on the grid's frequency lattice, and return (values at atoms,
    inverse transform on the grid).

    The frequency lattice must resolve the finest cap: its spacing 1/(2L)
    must be at most a quarter of the thickness 2^{-2N+5}, and the lattice
    must reach past the outer cap edge |xi| = 5/4.
    """
    if grid.dim != 2:
        raise ValueError("need a 2-dimensional grid")
    max_n = _max_resolvable_caps(grid)
    if spec.N > max_n:
        raise ValueError(
            "grid resolves at most N = %d caps (finest thickness 2^{-2N+5} vs "
            "frequency spacing %g)" % (max_n, grid.freq_spacing)
        )
    if grid.nyquist < 1.25:
        raise ValueError("grid Nyquist radius %g < 5/4; caps clipped" % grid.nyquist)
    g_atoms = knapp_g_values(spec, sphere.atoms)
    fax = grid.freq_axis()
    w = spec.weights()
    # the caps are real, and the transform takes a real lattice as it is
    G = np.zeros((fax.size, fax.size))
    for k in range(1, spec.N + 1):
        tang, rad = _cap_factors(k, fax, fax)
        # a row where tang vanishes would add w * (0 * rad) = +-0, which
        # leaves G unchanged, so only the cap's own rows are accumulated
        rows = np.flatnonzero(tang)
        term = np.multiply.outer(tang[rows], rad)
        term *= w[k - 1]
        G[rows] += term
    return g_atoms, inverse_fourier_on_grid(G, grid)


@dataclass(frozen=True)
class ExperimentReport:
    """Norms and fitted slopes of the sharpness experiment.

    norms_f[i][j] is the Lorentz (p, s_values[j]) norm at N = n_values[i].
    The `knapp` subcommand decides the unboundedness verdict from the gaps
    fit_g.slope - fits_f[j].slope with s_values[j] > q.
    """

    n_values: Tuple[int, ...]
    norm_g: Tuple[float, ...]
    s_values: Tuple[float, ...]
    norms_f: Tuple[Tuple[float, ...], ...]
    fit_g: FitResult
    fits_f: Tuple[FitResult, ...]


def knapp_sharpness_experiment(
    q: float,
    p: float,
    s_list: Sequence[float],
    N_list: Sequence[int],
    grid: GridSpec,
    sphere_n: int = 16384,
) -> ExperimentReport:
    """Fit the growth in N of the cap-sum q-norm on the circle against the
    Lorentz (p, s) norms of its inverse transform.

    The exponents must satisfy the duality relation q = p'/3, which is
    q = (d-1) p'/(d+1) at d = 2, tying the cap geometry to the Lorentz
    scale probed.
    """
    n_values = sorted(int(n) for n in N_list)
    if len(n_values) < 3:
        raise ValueError("need at least 3 N values")
    s_values = tuple(float(s) for s in s_list)
    _check_exponents(p, s_values)  # every (p, s), before any field is built
    if not p > 1.0:
        raise ValueError("need p > 1 for the dual exponent p'; got p=%g" % p)
    p_conj = p / (p - 1.0)
    if abs(q - p_conj / 3) > 1e-9:
        raise ValueError("exponents must satisfy q = p'/3; got q=%g, p=%g" % (q, p))
    sphere = make_sphere_measure(2, sphere_n)
    norm_g = []
    norms_f = []
    for n in n_values:
        spec = KnappSpec(N=n, q=q)
        g_atoms, f = knapp_function(spec, grid, sphere)
        norm_g.append(float(np.sum(sphere.weights * np.abs(g_atoms) ** q) ** (1.0 / q)))
        # one rearrangement of the field serves every s
        norms_f.append(lorentz_norm_values(f, grid.cell_volume, p, s_values))
        # free this field before the next N builds its own
        del f
    fit_g = loglog_fit(list(zip(n_values, norm_g)))
    fits_f = tuple(
        loglog_fit([(n_values[i], norms_f[i][j]) for i in range(len(n_values))])
        for j in range(len(s_values))
    )
    return ExperimentReport(
        n_values=tuple(n_values),
        norm_g=tuple(norm_g),
        s_values=s_values,
        norms_f=tuple(norms_f),
        fit_g=fit_g,
        fits_f=fits_f,
    )
