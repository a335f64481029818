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
from .grids import _LINE_BLOCK, GridSpec, inverse_fourier_on_grid
from .lorentz import _check_exponents, _check_range, lorentz_norm_values
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


def _check_caps(n_caps: int, grid: GridSpec) -> None:
    """Refuse a grid that cannot hold n_caps caps: it must be 2-dimensional,
    resolve the finest cap (_max_resolvable_caps) and reach past the outer
    cap edge |xi| = 5/4. knapp_function checks its N with it, and the
    sharpness experiment its largest N before the first field."""
    if grid.dim != 2:
        raise ValueError("need a 2-dimensional grid")
    max_n = _max_resolvable_caps(grid)
    if n_caps > max_n:
        raise ValueError(
            "grid resolves at most N = %d caps (finest thickness 2^{-2N+5} vs "
            "frequency spacing %g)" % (max_n, grid.freq_spacing)
        )
    if grid.nyquist < 1.25:
        raise ValueError("grid Nyquist radius %g < 5/4; caps clipped" % grid.nyquist)


def knapp_function(
    spec: KnappSpec, grid: GridSpec, sphere: DiscreteMeasure
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample the superposition on the atoms of the circle measure `sphere`
    and on the grid's frequency lattice, and return (values at atoms,
    moduli of the inverse transform on the grid).

    The moduli are float64 in the transform's Fortran order, built without
    holding the complex field (see inverse_fourier_on_grid); every norm of
    the experiment reads |f| alone. Nor is the cap lattice G =
    sum_k w_k outer(tang_k, rad_k) ever held: its nonzero rows, those where
    some cap's tangential window tang_k is nonzero (996 of 4096 at
    criterion 8's size, since the caps lie in |xi_1| < 5/8 and the lattice
    reaches 5/4), are the transform's kept lines, and its callback builds
    them a block of rows at a time from the caps' factors. Each row starts
    at +0.0 and, for k = 1..N where tang_k is nonzero on it, adds
    outer(tang_k, rad_k) * w_k in float64, then is cast to complex as it
    is copied in: the bits of the real lattice G. The kept lines share the
    memory of the moduli, so the call peaks at the transform's one buffer
    (the moduli, half a complex lattice), one block and one slab of it, and
    the callback's float64 row block.

    The frequency lattice must resolve the finest cap: its spacing 1/(2L)
    must be at most a quarter of the thickness 2^{-2N+5}, and the lattice
    must reach past the outer cap edge |xi| = 5/4.
    """
    _check_caps(spec.N, grid)
    g_atoms = knapp_g_values(spec, sphere.atoms)
    fax = grid.freq_axis()
    w = spec.weights()
    # factors[k - 1] = (tang_k, rad_k), the values the callback reads
    factors = np.array([_cap_factors(k, fax, fax) for k in range(1, spec.N + 1)])
    keep = np.flatnonzero(factors[:, 0].any(axis=0))
    # the callback's float64 row block, and one cap's term on those rows
    row_block, term = np.empty((2, _LINE_BLOCK, fax.size))

    def cap_rows(factors, lead, out):
        (rows,) = lead
        acc = row_block[: rows.size]
        acc.fill(0.0)
        for k, (tang, rad) in enumerate(factors):
            # a row where tang vanishes would add w * (0 * rad) = +-0, which
            # leaves it unchanged, so each cap is added on its own rows only
            r = np.flatnonzero(tang[rows])
            t = term[: r.size]
            np.multiply.outer(tang[rows[r]], rad, out=t)
            t *= w[k]
            acc[r] += t
        np.copyto(out, acc)

    return g_atoms, inverse_fourier_on_grid(factors, grid, lines=(keep, cap_rows))


def _moduli_oracle_deviation(spec: KnappSpec, grid: GridSpec, moduli: np.ndarray) -> float:
    """The largest deviation of the moduli of knapp_function from |f_N| by
    direct summation at eight fixed grid points, relative to f_N(0), the
    maximum modulus (the caps are nonnegative).

    The direct sum is separable, f_N(x) = (1/(2L))^2 sum_k w_k
    (sum_{m1} tang_k e^{2 pi i xi_m1 x_1}) (sum_{m2} rad_k e^{2 pi i xi_m2 x_2}),
    and needs neither the lattice nor the FFT; at grid index i the phase
    xi_m x_i is (m - N/2)(i - N/2)/N, reduced mod 1 in integers before
    exp, so every term is exact to rounding."""
    n = grid.points_per_axis
    h = n // 2
    # the points as index offsets from x = 0: near the origin, where |f_N|
    # peaks, and out to 3/8 of the grid
    offsets = [(0, 0), (1, 0), (0, 1), (-3, 2), (5, -7), (n // 8, -n // 16), (-n // 4, n // 8), (3 * n // 8, -h)]
    at = np.array(offsets) + h
    m = np.arange(n) - h
    e1, e2 = (np.exp(2j * np.pi / n * (np.multiply.outer(i - h, m) % n)) for i in at.T)
    fax = grid.freq_axis()
    direct = np.zeros(len(at), dtype=complex)
    for k, w in enumerate(spec.weights(), 1):
        tang, rad = _cap_factors(k, fax, fax)
        direct += w * (e1 * tang).sum(axis=1) * (e2 * rad).sum(axis=1)
    direct *= grid.freq_spacing**2
    return float(np.abs(moduli[at[:, 0], at[:, 1]] - np.abs(direct)).max() / abs(direct[0]))


@dataclass(frozen=True)
class ExperimentReport:
    """Norms and fitted slopes of the sharpness experiment.

    norms_f[i][j] is the Lorentz (p, s_values[j]) norm at N = n_values[i].
    The `knapp` subcommand decides the unboundedness verdict from the gaps
    fit_g.slope - fits_f[j].slope with s_values[j] > q. oracle_dev is the
    largest _moduli_oracle_deviation over the N values.
    """

    n_values: Tuple[int, ...]
    norm_g: Tuple[float, ...]
    s_values: Tuple[float, ...]
    norms_f: Tuple[Tuple[float, ...], ...]
    fit_g: FitResult
    fits_f: Tuple[FitResult, ...]
    oracle_dev: float


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
    scale probed. The N values (at least 3) and the s values must each be
    distinct, and each (p, s) must keep the Lorentz integral within the
    float range on the grid; every entry is checked before any field is
    built.
    """
    n_values = sorted(int(n) for n in N_list)
    s_values = tuple(float(s) for s in s_list)
    # a repeated N would be fitted twice, a repeated s gives a repeated column
    for name, values in (("N", n_values), ("s", s_values)):
        if len(set(values)) != len(values):
            raise ValueError("%s values must be distinct, got %s" % (name, list(values)))
    if len(n_values) < 3:
        raise ValueError("need at least 3 N values")
    _check_exponents(p, s_values)  # every (p, s), before any field is built
    if not p > 1.0:
        raise ValueError("need p > 1 for the dual exponent p'; got p=%g" % p)
    p_conj = p / (p - 1.0)
    if abs(q - p_conj / 3) > 1e-9:
        raise ValueError("exponents must satisfy q = p'/3; got q=%g, p=%g" % (q, p))
    _check_range(p, s_values, grid.points_per_axis**grid.dim * grid.cell_volume)
    _check_caps(n_values[-1], grid)  # the largest N, before any field is built
    sphere = make_sphere_measure(2, sphere_n)
    norm_g = []
    norms_f = []
    oracle_dev = 0.0
    for n in n_values:
        spec = KnappSpec(N=n, q=q)
        g_atoms, f = knapp_function(spec, grid, sphere)
        norm_g.append(float(np.sum(sphere.weights * np.abs(g_atoms) ** q) ** (1.0 / q)))
        # read before the rearrangement sorts the moduli in place
        oracle_dev = max(oracle_dev, _moduli_oracle_deviation(spec, grid, f))
        # one rearrangement of the moduli serves every s, and sorts them in
        # place: they are handed over (owned), since nothing reads them after
        norms_f.append(lorentz_norm_values(f, grid.cell_volume, p, s_values, owned=True))
        # free these moduli before the next N builds its own
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
        oracle_dev=oracle_dev,
    )
