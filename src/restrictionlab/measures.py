"""Discrete probability measures and their regularity / decay diagnostics.

A DiscreteMeasure is an atomic approximation of a continuous measure: atoms,
nonnegative weights summing to one, and a label. Constructors record an
aliasing radius: the atomic transform is trusted as a stand-in for the
continuum transform only for |xi| below it. Profiles fit the ball-growth
exponent (mass of balls ~ r^a) and the Fourier-decay exponent
(sup_{|xi|=R} |mu_hat| ~ R^{-b}) from log-log slopes.

Transform convention: mu_hat(xi) = sum_j w_j exp(-2 pi i <x_j, xi>).
mu_hat_on_lattice runs the separable sum of grids on the atoms' phase
matrices; fourier_transform_at, the direct sum, is its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

from .bumps import dyadic_ring
from .fitting import loglog_fit
from .grids import GridSpec, _phase_matrix, _separable_sum, inverse_fourier_on_grid

__all__ = [
    "DiscreteMeasure",
    "RegularityProfile",
    "DecayProfile",
    "DyadicPiece",
    "make_sphere_measure",
    "make_cantor_measure",
    "make_random_cantor_measure",
    "make_point_mass",
    "fourier_transform_at",
    "mu_hat_on_lattice",
    "ball_regularity_profile",
    "fourier_decay_profile",
    "dyadic_piece",
    "save_measure",
    "load_measure",
]

_GOLDEN = 2.0 / (1.0 + math.sqrt(5.0))


@dataclass(frozen=True)
class DiscreteMeasure:
    """Atomic probability measure on R^d.

    alias_radius is metadata set by constructors: the largest |xi| at which
    the atomic Fourier transform tracks the intended continuum one. It is
    math.inf for genuinely atomic measures (point masses, loaded files).
    """

    dim: int
    atoms: np.ndarray
    weights: np.ndarray
    label: str = ""
    alias_radius: float = math.inf

    def __post_init__(self):
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        w = np.asarray(self.weights, dtype=float).ravel()
        if atoms.shape != (w.size, self.dim):
            raise ValueError(
                "atoms must have shape (n, %d), got %r" % (self.dim, atoms.shape)
            )
        if w.size < 1:
            raise ValueError("need at least one atom")
        if not (np.all(np.isfinite(atoms)) and np.all(np.isfinite(w))):
            raise ValueError("atoms and weights must be finite (no nan or inf)")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12 (got %.17g)" % w.sum())
        atoms.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", w)

    @property
    def n_atoms(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class RegularityProfile:
    """Ball-growth fit: max ball mass ~ A r^a over the probed radii."""

    radii: Tuple[float, ...]  # strictly decreasing
    max_ball_ratios: Tuple[float, ...]  # max-mass / r^a_fit, aligned with radii
    a_fit: float
    A_fit: float


@dataclass(frozen=True)
class DecayProfile:
    """Fourier-decay fit: sup over sampled directions of |mu_hat(R w)| ~ B R^-b."""

    annulus_radii: Tuple[float, ...]  # increasing, all >= 1
    annulus_sups: Tuple[float, ...]
    b_fit: float
    B_fit: float


@dataclass(frozen=True)
class DyadicPiece:
    """One dyadic frequency piece of a measure on a sampling grid.

    The piece at scale j is the inverse transform of mu_hat times a smooth
    ring cutoff living on |xi| ~ 2^j; values holds it on the grid. Sup values
    are exact maxima of absolute values over the stored lattices.
    """

    values: np.ndarray
    sup_mu_j: float
    sup_mu_hat_j: float


def make_point_mass(location: Sequence[float]) -> DiscreteMeasure:
    """Unit point mass; its transform is identically 1."""
    loc = np.atleast_1d(np.asarray(location, dtype=float))
    return DiscreteMeasure(
        dim=loc.size,
        atoms=loc.reshape(1, -1),
        weights=np.array([1.0]),
        label="point-mass",
    )


def make_sphere_measure(d: int, n_atoms: int) -> DiscreteMeasure:
    """Equidistributed atoms on the unit sphere S^{d-1} with equal weights.

    d=2: equispaced angles on the circle, trusted for |xi| <= n/(8 pi).
    d=3: golden-ratio lattice (equal-area), trusted for |xi| <= sqrt(n)/8;
    the d=3 point set is a quadrature rule, not a product grid, and its
    transform error decays like 1/n only inside that radius.
    """
    if d not in (2, 3):
        raise ValueError("only d = 2 (circle) and d = 3 (sphere) are supported")
    n = int(n_atoms)
    if n < 16:
        raise ValueError("need n_atoms >= 16")
    if d == 2:
        ang = 2.0 * np.pi * np.arange(n) / n
        atoms = np.column_stack([np.cos(ang), np.sin(ang)])
        alias = n / (8.0 * np.pi)
        label = "circle-n%d" % n
    else:
        k = np.arange(n)
        z = -1.0 + (2.0 * k + 1.0) / n
        phi = 2.0 * np.pi * k * _GOLDEN
        r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        atoms = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
        alias = math.sqrt(n) / 8.0
        label = "sphere-n%d" % n
    return DiscreteMeasure(
        dim=d, atoms=atoms, weights=np.full(n, 1.0 / n), label=label, alias_radius=alias
    )


def _cantor_measure(
    contraction_ratio: float, levels: int, digit_one: Callable, label: str
) -> DiscreteMeasure:
    """The construction both Cantor measures share. digit_one(c, levels)
    gives each level's digit-1 offset as a fraction of its parent cell, so
    the level-j offset is digit_one(c, levels)[j-1] c^{j-1}; label is
    formatted with (c, levels)."""
    c = float(contraction_ratio)
    if not (0.0 < c <= 0.5):
        raise ValueError("contraction_ratio must lie in (0, 1/2]")
    levels = int(levels)
    if not (1 <= levels <= 25):
        raise ValueError("need 1 <= levels <= 25 (atom count 2^levels)")
    offsets = digit_one(c, levels) * c ** np.arange(levels)
    # all 0/1 digit strings against the per-level offsets
    idx = np.arange(1 << levels, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(levels)[None, :]) & 1
    atoms = bits.astype(float) @ offsets + 0.5 * c**levels
    n = atoms.size
    return DiscreteMeasure(
        dim=1,
        atoms=atoms.reshape(-1, 1),
        weights=np.full(n, 1.0 / n),
        label=label % (c, levels),
        alias_radius=(1.0 / c) ** levels / 4.0,
    )


def make_cantor_measure(contraction_ratio: float, levels: int) -> DiscreteMeasure:
    """Level-`levels` self-similar Cantor measure on [0,1], equal atom weights.

    The level-j digit offset is (1-c) c^{j-1}; each atom sits at the center
    of its level-`levels` cell (half-cell shift c^levels / 2). Its transform
    is a finite cosine product, exercised by the decay tests. Trusted for
    |xi| <= (1/c)^levels / 4. Ratio 1/2 degenerates to the uniform mesh.
    """
    return _cantor_measure(
        contraction_ratio, levels, lambda c, levels: np.full(levels, 1.0 - c), "cantor-r%g-l%d"
    )


def make_random_cantor_measure(
    contraction_ratio: float, levels: int, seed: int = 0
) -> DiscreteMeasure:
    """Randomized Cantor-type measure: the digit-1 offset of each level is
    drawn uniformly among the placements that keep the children disjoint.

    Experimental: no accuracy promise for the fitted decay exponent.
    """

    def digit_one(c, levels):
        # one offset per level, uniform in [c, 1-c] of the parent cell
        return np.random.default_rng(seed).uniform(c, 1.0 - c, size=levels)

    return _cantor_measure(
        contraction_ratio, levels, digit_one, "random-cantor-r%g-l%d" + "-s%d" % seed
    )


def fourier_transform_at(measure: DiscreteMeasure, xi_points) -> np.ndarray:
    """mu_hat(xi) = sum_j w_j exp(-2 pi i <x_j, xi>) by direct summation.

    Accepts an (m, d) array of frequency points; for d = 1 a flat array is
    accepted too. Exact up to rounding, used as the oracle for every
    grid-accelerated path.
    """
    xi = np.asarray(xi_points, dtype=float)
    if measure.dim == 1 and xi.ndim == 1:
        xi = xi.reshape(-1, 1)
    if xi.ndim == 1:
        xi = xi.reshape(1, -1)
    if xi.shape[-1] != measure.dim:
        raise ValueError(
            "xi points have dimension %d, measure has dimension %d"
            % (xi.shape[-1], measure.dim)
        )
    flat = xi.reshape(-1, measure.dim)
    w = measure.weights.astype(complex)
    out = np.empty(flat.shape[0], dtype=complex)
    # chunk so the phase matrix stays ~64 MB
    chunk = max(1, (1 << 22) // max(measure.n_atoms, 1))
    for start in range(0, flat.shape[0], chunk):
        block = flat[start : start + chunk]
        phase = block @ measure.atoms.T
        out[start : start + block.shape[0]] = np.exp(-2j * np.pi * phase) @ w
    return out.reshape(xi.shape[:-1])


def ball_regularity_profile(measure: DiscreteMeasure, radii: Sequence[float]) -> RegularityProfile:
    """Fit max_c mu(B(c, r)) ~ A r^a over the given radii, centers at atoms.

    For atomic measures the sup over all centers is attained within one
    radius of an atom, so probing at the atoms themselves loses at most a
    factor 2 in r.
    """
    for r in radii:
        if not 0 < r <= 1:  # NaN fails it too
            raise ValueError("radii must lie in (0, 1], got %g" % r)
    r_arr = np.asarray(sorted(set(float(r) for r in radii), reverse=True))
    if r_arr.size < 3:
        raise ValueError("need at least 3 distinct radii to fit a slope")
    tree = cKDTree(measure.atoms)
    w = measure.weights
    # equal weights: a count per ball suffices, avoiding the index lists
    uniform = bool(np.all(w == w[0]))
    max_mass = np.empty(r_arr.size)
    for i, r in enumerate(r_arr):
        if uniform:
            counts = tree.query_ball_point(measure.atoms, r, return_length=True)
            max_mass[i] = float(w[0]) * int(np.max(counts))
        else:
            neighborhoods = tree.query_ball_point(measure.atoms, r)
            max_mass[i] = max(w[idx].sum() for idx in neighborhoods)
    fit = loglog_fit(list(zip(r_arr, max_mass)))
    a_fit = min(max(fit.slope, 0.0), float(measure.dim))
    ratios = max_mass / r_arr**a_fit
    return RegularityProfile(
        radii=tuple(r_arr),
        max_ball_ratios=tuple(ratios),
        a_fit=a_fit,
        A_fit=float(ratios.max()),
    )


def _unit_directions(dim: int, n_directions: int, seed: int) -> np.ndarray:
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if n_directions < 1:
        raise ValueError("n_directions must be >= 1, got %d" % n_directions)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((int(n_directions), dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def fourier_decay_profile(
    measure: DiscreteMeasure,
    R_list: Sequence[float],
    n_directions: int = 64,
    seed: int = 0,
) -> DecayProfile:
    """Fit sup_{|xi|=R} |mu_hat(xi)| ~ B R^-b over the given annulus radii.

    The sup is over n_directions >= 1 fixed random directions (the two
    signs when d = 1, and n_directions is then unread). Radii below 1 are
    rejected, as are radii beyond the measure's aliasing radius where the
    atomic transform stops tracking the continuum.
    """
    R = np.asarray([float(r) for r in R_list])
    for r in R:
        if not math.isfinite(r):  # NaN would pass every check below
            raise ValueError("R_list must be finite, got %g" % r)
    if R.size < 3:
        raise ValueError("need at least 3 radii to fit a slope")
    if np.any(np.diff(R) <= 0):
        raise ValueError("R_list must be strictly increasing")
    if R[0] < 1.0:
        raise ValueError("decay is probed only for R >= 1")
    if R[-1] > measure.alias_radius:
        raise ValueError(
            "R = %g exceeds the aliasing radius %g of this atomic approximation"
            % (R[-1], measure.alias_radius)
        )
    dirs = _unit_directions(measure.dim, n_directions, seed)
    sups = np.empty(R.size)
    for i, r in enumerate(R):
        sups[i] = np.abs(fourier_transform_at(measure, r * dirs)).max()
    fit = loglog_fit(list(zip(R, sups)))
    b_fit = max(-fit.slope, 0.0)
    return DecayProfile(
        annulus_radii=tuple(R),
        annulus_sups=tuple(sups),
        b_fit=b_fit,
        B_fit=float((sups * R**b_fit).max()),
    )


def mu_hat_on_lattice(measure: DiscreteMeasure, grid: GridSpec) -> np.ndarray:
    """mu_hat sampled on the grid's frequency lattice, exactly.

    Returns the (N,)*d complex array whose entry at index (k_1, ..., k_d) is
    mu_hat(f_{k_1}, ..., f_{k_d}) = sum_j w_j exp(-2 pi i <x_j, xi>), with
    f = grid.freq_axis() (ascending, the layout of fourier_on_grid and
    inverse_fourier_on_grid). Axis-separable phase matrices contracted
    against the weights; fourier_transform_at at every point of the
    frequency lattice is its oracle. It does not depend on any dyadic
    scale, so a sweep over j computes it once and hands it to dyadic_piece.

    Only the rows m_1 = -N/2..0 are contracted; the rows m_1 = 1..N/2-1 are
    filled by mu_hat(-xi) = conj(mu_hat(xi)), which holds because the
    weights are real. The reflection is exact in floating point too:
    negating m negates the phase argument exactly, exp(-i y) is conj(exp(i y))
    bit for bit, and the contraction of conjugated factors rounds to the
    conjugate of the same sum. The reflection partner of m = -N/2 on the
    later axes is +N/2, which is not on the lattice, so those axes get
    +N/2 appended. Where that appended point is the source (m_1 > 0 and some
    later m_k = -N/2) the value comes from another GEMM tile and can differ
    from a direct contraction by a rounding error; every dyadic ring is
    exactly 0 there, since |xi| is at least the Nyquist radius.
    """
    if grid.dim != measure.dim:
        raise ValueError("grid dimension != measure dimension")
    n, d = grid.points_per_axis, grid.dim
    h = n // 2
    fax = grid.freq_axis()
    full = np.append(fax, h * grid.freq_spacing)
    half = _atom_sum(measure.weights, measure.atoms, [fax[: h + 1]] + [full] * (d - 1), -1.0)
    out = np.empty((n,) * d, dtype=complex)
    out[: h + 1] = half[(slice(None),) + (slice(0, n),) * (d - 1)]
    # row m_1 > 0 is row -m_1 of half; m_k -> -m_k is index n - k on the longer axes
    np.conjugate(half[(slice(h - 1, 0, -1),) + (slice(n, 0, -1),) * (d - 1)], out=out[h + 1 :])
    return out


def _phase_matrices(points: np.ndarray, axes: Sequence[np.ndarray], sign: float) -> List:
    """exp(sign 2 pi i points[:, k] (x) axes[k]): one (n, len(axes[k])) matrix per axis."""
    return [_phase_matrix(points[:, k], ax, sign * 2j * np.pi) for k, ax in enumerate(axes)]


def _atom_sum(coeffs, atoms: np.ndarray, axes: Sequence[np.ndarray], sign: float) -> np.ndarray:
    """sum_j coeffs_j exp(sign 2 pi i <atoms_j, x>) for x on the product of
    the axes (any lengths and count), shaped (len(axes[0]), ..., len(axes[-1])):
    grids._separable_sum on the atoms' phase matrices, behind
    mu_hat_on_lattice, operators.extend and operators.convolve_mu_hat."""
    return _separable_sum(np.asarray(coeffs).astype(complex), _phase_matrices(atoms, axes, sign))


def dyadic_piece(
    measure: DiscreteMeasure, j: int, grid: GridSpec, mu_hat: np.ndarray
) -> DyadicPiece:
    """The frequency-localized piece of the measure at dyadic scale j.

    Multiplies the lattice samples mu_hat = mu_hat_on_lattice(measure, grid)
    by the smooth ring cutoff supported on 2^{j-2} < |xi| < 2^j (the j = 0
    piece is the low-pass plateau) and inverse transforms. The samples are
    taken, not recomputed, so a sweep over j builds them once. The grid must
    resolve frequency 2^j: its Nyquist radius N/(4L) must be at least 2^j.
    """
    j = int(j)
    if j < 0:
        raise ValueError("j must be nonnegative")
    if grid.dim != measure.dim:
        raise ValueError("grid dimension != measure dimension")
    if grid.nyquist < (1 << j):
        need = int(4 * grid.half_width * (1 << j))
        raise ValueError(
            "grid too coarse for scale j=%d: Nyquist radius %g < 2^j; "
            "need points_per_axis >= %d at this half width" % (j, grid.nyquist, need)
        )
    lattice_shape = (grid.points_per_axis,) * grid.dim
    if np.shape(mu_hat) != lattice_shape:
        raise ValueError(
            "mu_hat has shape %r, the grid's frequency lattice is %r"
            % (np.shape(mu_hat), lattice_shape)
        )
    sq = grid.freq_axis() ** 2
    # ring j is 0 wherever u >= 4^j, so wherever some xi_k^2 >= 4^j (u is a
    # sum of nonnegative terms, and rounding a sum keeps it >= each term):
    # the ring is evaluated and multiplied only on the box of axis points
    # with xi_k^2 < 4^j; the rest of localized is 0
    inner = np.flatnonzero(sq < 4.0**j)
    box = (slice(inner[0], inner[-1] + 1),) * grid.dim
    u = sq_box = sq[box[0]]
    for _ in range(grid.dim - 1):
        u = np.add.outer(u, sq_box)
    localized = np.zeros(lattice_shape, dtype=complex)
    localized[box] = mu_hat[box] * dyadic_ring(u, j)
    values = inverse_fourier_on_grid(localized, grid)
    return DyadicPiece(
        values=values,
        sup_mu_j=float(np.abs(values).max()),
        sup_mu_hat_j=float(np.abs(localized[box]).max()),
    )


def save_measure(measure: DiscreteMeasure, path) -> None:
    """Plain-text atom file: header `d n label`, one `x_1 ... x_d w` row per
    atom, 17 significant digits (lossless for doubles)."""
    lines = ["%d %d %s" % (measure.dim, measure.n_atoms, measure.label)]
    for x, w in zip(measure.atoms, measure.weights):
        lines.append(" ".join("%.17g" % v for v in x) + " %.17g" % w)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def load_measure(path) -> DiscreteMeasure:
    """Inverse of save_measure. The aliasing radius is constructor metadata
    and is not stored; loaded measures get math.inf (trust the caller)."""
    text = Path(path).read_text(encoding="ascii")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split(maxsplit=2) if lines else []
    if len(head) < 2 or not (head[0].isdigit() and head[1].isdigit()) or int(head[1]) < 1:
        raise ValueError("%s: the header must be `d n [label]` with integers d and n >= 1" % path)
    d, n = int(head[0]), int(head[1])
    label = head[2] if len(head) > 2 else ""
    if len(lines) - 1 != n:
        raise ValueError("atom file announces %d rows, has %d" % (n, len(lines) - 1))
    rows = np.array([[float(tok) for tok in ln.split()] for ln in lines[1:]])
    if rows.shape[1] != d + 1:
        raise ValueError("rows must have d+1 = %d columns" % (d + 1))
    return DiscreteMeasure(dim=d, atoms=rows[:, :d], weights=rows[:, d], label=label)
