"""Extension, restriction, and convolution-by-mu_hat operators on grids.

All atom-vs-grid transforms are axis-separable complex matrix contractions,
so they are exact reorganizations of the defining double sums: the pairing
identity between the squared restriction integral and the convolution
operator holds to rounding, not just to quadrature error. The atom sums
on a grid (extend, the second half of convolve_mu_hat) run the separable
sum of grids, as measures.mu_hat_on_lattice does; restrict_at_atoms and
the first half of convolve_mu_hat run its transpose, in any dimension.
A field is an (N,)*d array of samples on a GridSpec, which holds its
lattice; restrict_at_atoms and convolve_mu_hat check it once on entry
(the grid's dimension, the shape, finite values), and the fields computed
here are arrays on the same grid. The test families return lists of
(label, values) pairs: lists, because a repeated scale repeats a label.

Conventions match measures.fourier_transform_at: forward transforms carry
exp(-2 pi i <x, xi>), the extension (adjoint) carries exp(+2 pi i <x_j, x>).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .bumps import bump
from .grids import GridSpec, _separable_sum_transpose
from .lorentz import lorentz_norm_values
from .measures import DiscreteMeasure, _atom_sum, _check_dimension, _phase_matrices

__all__ = [
    "extend",
    "restrict_at_atoms",
    "restrict_sq_integral",
    "convolve_mu_hat",
    "stein_tomas_ratio",
    "gaussian_dilate_family",
    "random_smooth_family",
    "knapp_cap_family",
]


def extend(g, measure: DiscreteMeasure, grid: GridSpec) -> np.ndarray:
    """Extension (adjoint restriction): x -> sum_j g_j w_j exp(+2 pi i <x_j, x>)
    sampled on the grid, as an (N,)*d complex array."""
    g = np.asarray(g, dtype=complex).ravel()
    if g.size != measure.n_atoms:
        raise ValueError("g has %d entries, measure has %d atoms" % (g.size, measure.n_atoms))
    _check_dimension(measure, grid)
    axes = [grid.axis()] * grid.dim
    return _atom_sum(g * measure.weights, measure.atoms, axes, +1.0)


def _check_field(values, measure: DiscreteMeasure, grid: GridSpec) -> np.ndarray:
    """values as a complex array, once they are finite samples on the grid
    and the grid has the measure's dimension: the one check of a field
    entering restrict_at_atoms or convolve_mu_hat."""
    _check_dimension(measure, grid)
    v = np.asarray(values, dtype=complex)
    shape = (grid.points_per_axis,) * grid.dim
    if v.shape != shape:
        raise ValueError("field shape %s does not match the grid's %s" % (v.shape, shape))
    if not np.isfinite(v).all():
        raise ValueError("field values must be finite")
    return v


def restrict_at_atoms(values, measure: DiscreteMeasure, grid: GridSpec) -> np.ndarray:
    """f_hat evaluated at the atoms by direct Riemann quadrature over the
    grid (no interpolation: atoms may be off-lattice)."""
    v = _check_field(values, measure, grid)
    axes = [grid.axis()] * grid.dim
    return _separable_sum_transpose(v, _phase_matrices(measure.atoms, axes, -1.0)) * grid.cell_volume


def restrict_sq_integral(values, measure: DiscreteMeasure, grid: GridSpec) -> float:
    """integral of |f_hat|^2 against the measure: sum_j w_j |f_hat(x_j)|^2."""
    fh = restrict_at_atoms(values, measure, grid)
    return float(np.sum(measure.weights * np.abs(fh) ** 2))


def _check_inner_half_support(values: np.ndarray, grid: GridSpec) -> None:
    ax = grid.axis()
    half = grid.half_width / 2.0  # box is [-L, L); inner half is |x| <= L/2
    mask = np.abs(values) > 0
    if not mask.any():
        return
    for k, idx in enumerate(np.nonzero(mask)):
        span = np.abs(ax[idx]).max()
        if span > half + 1e-12:
            raise ValueError(
                "field support reaches |x_%d| = %g, beyond the inner half %g "
                "of the box; enlarge or recenter the grid" % (k, span, half)
            )


def convolve_mu_hat(values, measure: DiscreteMeasure, grid: GridSpec) -> np.ndarray:
    """f convolved with mu_hat, sampled on the grid (an (N,)*d array).

    The transform of mu_hat is the reflected atomic measure, so the
    convolution has the exact rank-n form
        sum_j w_j f_hat(-x_j) exp(-2 pi i <x_j, x>),
    with f_hat(-x_j) computed by the same Riemann quadrature as the
    restriction path. No periodization enters, but the inner-half support
    precondition is enforced so results stay comparable with grid-transform
    implementations of the same operator.
    """
    v = _check_field(values, measure, grid)
    _check_inner_half_support(v, grid)
    axes = [grid.axis()] * grid.dim
    fh = _separable_sum_transpose(v, _phase_matrices(measure.atoms, axes, +1.0)) * grid.cell_volume
    return _atom_sum(measure.weights * fh, measure.atoms, axes, -1.0)


def stein_tomas_ratio(values, measure: DiscreteMeasure, grid: GridSpec, profile) -> float:
    """sqrt(restriction square integral) over the (p0, 2) Lorentz norm of f.

    The endpoint estimate bounds this ratio by a constant depending only on
    the measure's regularity and decay; families of test fields probe its
    flatness."""
    rsq = restrict_sq_integral(values, measure, grid)  # checks the field first
    denom = lorentz_norm_values(values, grid.cell_volume, float(profile.p0), 2.0)
    if denom == 0.0:
        raise ValueError("zero field has no ratio")
    return float(np.sqrt(rsq) / denom)


def gaussian_dilate_family(grid: GridSpec, scales: Sequence[float]) -> List[Tuple[str, np.ndarray]]:
    """Isotropic dilates g(t x) of the Gaussian g = exp(-2 pi |x|^2).

    The base width is chosen so that every dilate with t >= 1 keeps
    substantial Fourier mass on the unit sphere; a much wider profile
    would leave the t = 1 member exponentially small there and wreck
    any flatness comparison across the family. The exponent -2 pi t^2 |x|^2
    must be finite up to the grid's corner, |x|^2 = d L^2."""
    for t in scales:
        # t * t, since a float ** raises on overflow; an infinite t would read
        # inf * 0 at the origin, and a NaN t fails the comparison too
        exponent = 2.0 * np.pi * float(t) * float(t) * grid.dim * grid.half_width**2
        if not exponent < np.inf:
            why = "overflows its exponent" if exponent == np.inf else "has a NaN exponent"
            raise ValueError("scale %g: exp(-2 pi t^2 |x|^2) %s on this grid" % (t, why))
    mesh = grid.mesh()
    r2 = sum(m**2 for m in mesh)
    out = []
    for t in scales:
        vals = np.exp(-2.0 * np.pi * (float(t) ** 2) * r2)
        out.append(("gauss-t%g" % t, vals))
    return out


def random_smooth_family(grid: GridSpec, count: int, seed: int = 0) -> List[Tuple[str, np.ndarray]]:
    """Random band-limited trigonometric polynomials (modes |k_j| <= 3 per
    axis) under a fixed bump envelope, supported in the inner half of the
    box. Deterministic for a given seed; the workhorse inputs for identity
    and ratio spot checks."""
    if count < 1:
        raise ValueError("need count >= 1")
    rng = np.random.default_rng(seed)
    mesh = grid.mesh()
    L = grid.half_width
    envelope = np.ones_like(mesh[0])
    for m in mesh:
        envelope = envelope * bump(np.abs(m) / (0.45 * L))
    kvals = range(-3, 4)
    kvecs = np.stack(
        [g.ravel() for g in np.meshgrid(*([list(kvals)] * grid.dim), indexing="ij")],
        axis=-1,
    )
    out = []
    for idx in range(count):
        coef = rng.standard_normal(len(kvecs)) + 1j * rng.standard_normal(len(kvecs))
        vals = np.zeros(mesh[0].shape, dtype=complex)
        for c, k in zip(coef, kvecs):
            angle = sum(k[j] * mesh[j] for j in range(grid.dim)) / L
            vals = vals + c * np.exp(1j * np.pi * angle)
        out.append(("rand-%d" % idx, vals * envelope))
    return out


def knapp_cap_family(grid: GridSpec, deltas: Sequence[float]) -> List[Tuple[str, np.ndarray]]:
    """Modulated anisotropic caps adapted to the unit sphere near its
    north pole: frequency support of width ~delta tangentially and a fixed
    box-limited thickness radially.

    Spatially: exp(+2 pi i x_d) times a bump of half-width 1/delta along
    each tangential axis and L/2 along the radial (last) one, so the fields
    stay supported in the inner half of the box (needs delta >= 2/L)."""
    axis = grid.dim - 1
    L = grid.half_width
    mesh = grid.mesh()
    out = []
    for delta in deltas:
        d = float(delta)
        if d == np.inf:  # the bump of |x| * delta would read 0 * inf at the origin
            raise ValueError("delta = inf leaves the cap no width")
        if not d >= 2.0 / L:  # a NaN delta fails it too
            raise ValueError("delta = %g: the cap needs delta >= 2/L = %g on box half-width %g" % (d, 2.0 / L, L))
        vals = np.exp(2j * np.pi * mesh[axis])
        for k in range(grid.dim):
            if k == axis:
                vals = vals * bump(np.abs(mesh[k]) * (2.0 / L))
            else:
                vals = vals * bump(np.abs(mesh[k]) * d)
        out.append(("knapp-d%g" % d, vals))
    return out
