"""Discrete probability measures and their regularity / decay diagnostics.

A DiscreteMeasure is an atomic approximation of a continuous measure: atoms,
nonnegative weights summing to one, and a label. Constructors record an
aliasing radius: the atomic transform is trusted as a stand-in for the
continuum transform only for |xi| below it. Profiles fit the ball-growth
exponent (mass of balls ~ r^a) and the Fourier-decay exponent
(sup_{|xi|=R} |mu_hat| ~ R^{-b}) from log-log slopes.

Transform convention: mu_hat(xi) = sum_j w_j exp(-2 pi i <x_j, xi>).
mu_hat_on_lattice runs the separable sum of grids. For a measure that
equals its reflection in every axis, bit for bit (the circle when 4 divides
its atom count), it sums real cosine matrices of the atoms folded onto
x >= 0 and returns the real orthant xi >= 0, which holds the rest by even
reflection; for any other it sums the atoms' complex phase matrices and
returns the half lattice m_1 <= 0, from which _lattice_line reads the rest
by conjugate reflection. fourier_transform_at, the direct sum, is the
oracle of both, and the half path that of the orthant. dyadic_piece takes
either: the orthant's pieces are real and even, and go through the even
form of the inverse transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .bumps import dyadic_ring, radial_plateau
from .fitting import FitResult, loglog_fit
from .grids import _LINE_BLOCK, GridSpec, _phase_matrix, _separable_sum, inverse_fourier_on_grid

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
        if self.dim < 1:
            raise ValueError("the dimension must be >= 1, got %d" % self.dim)
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
    fit: FitResult  # the log-log fit whose slope, clamped to [0, d], is a_fit


@dataclass(frozen=True)
class DecayProfile:
    """Fourier-decay fit: sup over sampled directions of |mu_hat(R w)| ~ B R^-b."""

    annulus_radii: Tuple[float, ...]  # increasing, all >= 1
    annulus_sups: Tuple[float, ...]
    b_fit: float
    B_fit: float
    fit: FitResult  # the log-log fit whose negated slope, clamped at 0, is b_fit


@dataclass(frozen=True)
class DyadicPiece:
    """The two sups of one dyadic frequency piece of a measure on a grid.

    The piece at scale j is the inverse transform of mu_hat times a smooth
    ring cutoff living on |xi| ~ 2^j. sup_mu_j is the exact maximum of its
    moduli on the grid, sup_mu_hat_j that of the localized lattice samples;
    moduli_at holds the moduli at the grid points of the piece oracle.
    """

    sup_mu_j: float
    sup_mu_hat_j: float
    moduli_at: Tuple[float, ...]


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

    d=2: equispaced angles on the circle, atom k at angle 2 pi k / n,
    trusted for |xi| <= n/(8 pi). When 4 divides n the atoms are the
    quadrant's, k = 0..n/4, with the axis atoms exact (cos = 0 at n/4,
    sin = 0 at 0), reflected into the other three quadrants, so the atoms
    equal their reflection in each axis bit for bit and mu_hat_on_lattice
    takes its real orthant path; for any other n each atom is the cos and
    sin of its own angle.
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
        q = n // 4
        quadrant = 4 * q == n
        ang = 2.0 * np.pi * np.arange(q + 1 if quadrant else n) / n
        c, s = np.cos(ang), np.sin(ang)
        if quadrant:  # the axis atoms exact, then reflected in angle order
            c[q], s[0] = 0.0, 0.0
            c = np.concatenate([c, -c[q - 1 :: -1], -c[1:], c[q - 1 : 0 : -1]])
            s = np.concatenate([s, s[q - 1 :: -1], -s[1:], -s[q - 1 : 0 : -1]])
        atoms = np.column_stack([c, s])
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
    try:
        alias = (1.0 / c) ** levels / 4.0
    except OverflowError:  # a float ** raises where the finest cell c^levels underflows
        raise ValueError(
            "contraction_ratio %g: %d levels take the finest cell out of the float range" % (c, levels)
        ) from None
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
        alias_radius=alias,
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
    w = measure.weights
    # equal weights: the balls count unit weights, exactly, and the largest
    # count is scaled by the common weight
    uniform = bool(np.all(w == w[0]))
    unit, scale = (np.ones(w.size), float(w[0])) if uniform else (w, 1.0)
    max_mass = np.array([scale * np.max(_ball_masses(measure.atoms, r, unit)) for r in r_arr])
    fit = loglog_fit(list(zip(r_arr, max_mass)))
    a_fit = min(max(fit.slope, 0.0), float(measure.dim))
    ratios = max_mass / r_arr**a_fit
    return RegularityProfile(
        radii=tuple(r_arr),
        max_ball_ratios=tuple(ratios),
        a_fit=a_fit,
        A_fit=float(ratios.max()),
        fit=fit,
    )


# _ball_masses takes the atoms 64 to a chunk in every dimension: a smaller
# chunk makes more rounds of per-chunk numpy calls (the 2^14-atom Cantor
# measure's count takes about twice as long at 32), a larger one a wider
# band of atoms to test (the 8192-atom 3-D sphere's, at 128). It tests them
# in blocks of at most 2^17 float64 squared distances (1 MiB), so its
# temporaries stay small; no chunk size changes a count
_BALL_CHUNK = 64
_BALL_BLOCK = 1 << 17


def _ball_masses(atoms: np.ndarray, r: float, weights: np.ndarray) -> np.ndarray:
    """The weight of the closed ball of radius r about each atom: the total
    weight of the atoms j with sum_k (a_jk - a_ik)^2 <= r * r, summed in
    coordinate order from k = 0. That is the test cKDTree makes at a leaf,
    so with unit weights these are its query_ball_point counts.

    The atoms go in chunks of _BALL_CHUNK, ordered by a grid of cells of
    side r. A chunk's candidates lie in a window of the atoms sorted by
    first coordinate, padded by r (1 + 1e-9) and a margin for the rounding
    of the window's ends at the coordinates' scale. The window atoms nearer
    than r - band to the chunk's centre, band the centre's largest distance
    to the chunk's box plus a rounding margin, are in the ball of every
    chunk atom, those beyond r + band in none, and only the ones between
    are tested, in blocks of squared distances of at most _BALL_BLOCK
    entries.
    """
    n, dim = atoms.shape
    rr = r * r
    margin = 1e-12 * float(np.max(np.abs(atoms)))
    pad = r * (1.0 + 1e-9) + margin
    order = np.argsort(atoms[:, 0], kind="stable")
    s = atoms[order]
    x = np.ascontiguousarray(s[:, 0])
    w = weights[order]
    chunks = np.lexsort(np.floor((s - s.min(axis=0)) / r).T[::-1])
    sc = s[chunks]
    starts = np.arange(0, n, _BALL_CHUNK)
    lo = np.minimum.reduceat(sc, starts)
    hi = np.maximum.reduceat(sc, starts)
    first = np.searchsorted(x, lo[:, 0] - pad, "left").tolist()
    last = np.searchsorted(x, hi[:, 0] + pad, "right").tolist()
    centre = 0.5 * (lo + hi)
    band = np.sqrt(np.sum(np.maximum(hi - centre, centre - lo) ** 2, axis=1))
    band += 1e-8 * (band + r)
    sure_r2 = np.where(band < r, (r - band) ** 2, -1.0).tolist()
    near_r2 = ((r + band) ** 2).tolist()
    vals = np.empty(n)
    for c, start in enumerate(starts.tolist()):
        win, ww = s[first[c] : last[c]], w[first[c] : last[c]]
        diff = win - centre[c]
        dc2 = np.einsum("ij,ij->i", diff, diff)
        sure = dc2 < sure_r2[c]
        near = (dc2 <= near_r2[c]) & ~sure
        u, wu = win[near], ww[near]
        q = sc[start : start + _BALL_CHUNK]
        mass = vals[start : start + _BALL_CHUNK]
        mass[:] = ww[sure].sum()
        rows = max(1, _BALL_BLOCK // max(u.shape[0], 1))
        for i in range(0, q.shape[0], rows):
            d2 = np.subtract.outer(q[i : i + rows, 0], u[:, 0]) ** 2
            for k in range(1, dim):
                d2 += np.subtract.outer(q[i : i + rows, k], u[:, k]) ** 2
            mass[i : i + rows] += (d2 <= rr) @ wu
    out = np.empty(n)
    out[order[chunks]] = vals
    return out


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
        fit=fit,
    )


def _check_dimension(measure: DiscreteMeasure, grid: GridSpec) -> None:
    # the one check that a grid and a measure share their dimension
    if grid.dim != measure.dim:
        raise ValueError("grid dimension != measure dimension")


def mu_hat_on_lattice(measure: DiscreteMeasure, grid: GridSpec) -> np.ndarray:
    """mu_hat sampled on the grid's frequency lattice, exactly: its real
    orthant xi >= 0 when the measure equals its reflection in every axis,
    else its complex half with m_1 <= 0.

    With f = grid.freq_axis() (ascending, m = -N/2..N/2-1, the layout of
    fourier_on_grid and inverse_fourier_on_grid), f_N = N/2 / (2L) appended
    to it, and mu_hat(xi) = sum_j w_j exp(-2 pi i <x_j, xi>):

    - The orthant, when the atoms and weights equal their reflection in
      every axis bit for bit (a lexsort compare of the (atom, weight) rows,
      no tolerance; the circle of make_sphere_measure when 4 divides n):
      the float64 array of shape (N/2 + 1,)*d whose entry at
      (k_1, ..., k_d) is mu_hat at (k_1, ..., k_d) / (2L), m_k = k_k = 0..N/2.
      There mu_hat is real and even in each axis,
      sum_j w_j prod_k cos(2 pi x_jk xi_k), so each orbit of atoms under
      the reflections is folded onto its atom with every coordinate >= 0,
      at weight w 2^(nonzero coordinates), and the sum runs over those
      atoms' cosine matrices: one real GEMM when d = 2. The rest of the
      lattice is mu_hat(|m_1|, ..., |m_d|), index |m| on every axis.
    - The half, for any other measure: the complex array of shape
      (N/2 + 1,) + (N + 1,)*(d - 1) whose entry at (k_1, ..., k_d) is
      mu_hat(f_{k_1}, ..., f_{k_d}): the rows m_1 = -N/2..0, and on each
      later axis every m_k = -N/2..N/2. The other rows, m_1 = 1..N/2-1, are
      mu_hat(-xi) = conj(mu_hat(xi)), since the weights are real;
      _lattice_line reads them from the half that way, and negating m_k is
      index N - k_k on every axis, so the later axes' partner of
      m_k = -N/2 is the appended +N/2. The reflection is exact in floating
      point too: negating m negates the phase argument exactly, exp(-i y)
      is conj(exp(i y)) bit for bit, and the contraction of conjugated
      factors rounds to the conjugate of the same sum. Where the appended
      point is the source (m_1 > 0 and some later m_k = -N/2) the value
      comes from another GEMM tile and can differ from a direct
      contraction by a rounding error; every dyadic ring is exactly 0
      there, since |xi| is at least the Nyquist radius.

    fourier_transform_at is the oracle of both, and the half path that of
    the orthant. Neither depends on any dyadic scale, so a sweep over j
    computes it once and hands it to dyadic_piece.

    Memory: the orthant's sum holds its cosine matrices and the orthant,
    each padded with zeros to multiples of _GEMM_PAD rows and columns; for
    criterion 5 (1,025 folded atoms of 4,096, 2048^2) that is three real
    1056 x 1056 matrices, 27 MB. The half's contraction holds the scaled
    first phase matrix (atoms by N/2 + 1) and one column block of the last
    axis's matrix, which the kernel builds block by block (see _atom_sum),
    beside the half: for 4096 atoms on 2048^2, 67 + 17 + 34 MB. The whole
    lattice is never built.
    """
    _check_dimension(measure, grid)
    n, d = grid.points_per_axis, grid.dim
    h = n // 2
    orbits = _orbits(measure)
    if orbits is not None:
        return _orthant_sum(*orbits, np.arange(h + 1) * grid.freq_spacing)
    fax = grid.freq_axis()
    full = np.append(fax, h * grid.freq_spacing)
    return _atom_sum(measure.weights, measure.atoms, [fax[: h + 1]] + [full] * (d - 1), -1.0)


def _orbits(measure: DiscreteMeasure):
    """(atoms, weights) of the measure folded onto the orthant x >= 0 when
    its atoms and weights equal their reflection in every axis bit for bit,
    else None: the atoms with every coordinate >= 0, each at weight w 2^z
    for the 2^z atoms of its orbit, z its count of nonzero coordinates. The
    check compares the lexsorted (atom, weight) rows with those of each
    reflection, with no tolerance (-0.0 equals 0.0, and an atom on an axis
    is its own reflection in that axis)."""
    rows = np.column_stack([measure.atoms, measure.weights])
    ordered = rows[np.lexsort(rows.T)]
    for k in range(measure.dim):
        mirror = rows.copy()
        mirror[:, k] = -mirror[:, k]
        if not np.array_equal(mirror[np.lexsort(mirror.T)], ordered):
            return None
    inside = np.all(measure.atoms >= 0.0, axis=1)
    atoms = measure.atoms[inside]
    return atoms, np.ldexp(measure.weights[inside], np.count_nonzero(atoms, axis=1))


# the real orthant sum pads each GEMM dimension (the folded atoms and the
# first two axes' points) with zeros to a multiple of this: OpenBLAS's
# threaded and one-thread code paths split a dimension into different pieces,
# and on a multiple of 32 they give the same bits at every BLAS thread
# count, under the SkylakeX and the Haswell kernels (4096 atoms on 2048^2:
# 1056^3 does, 1025 folded atoms do not)
_GEMM_PAD = 32


def _orthant_sum(atoms: np.ndarray, weights: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """sum_j weights_j prod_k cos(2 pi atoms_jk xi_k) for xi on the product
    of d copies of the axis, shaped (len(axis),)*d: grids._separable_sum on
    the atoms' cosine matrices, each built in place in a zero matrix whose
    rows and first two axes' columns are padded to multiples of _GEMM_PAD,
    with the weights padded by zeros; the padding adds exact zeros, and the
    result is the unpadded corner of the padded sum."""
    count, m, d = len(weights), len(axis), atoms.shape[1]
    rows, cols = (-(-size // _GEMM_PAD) * _GEMM_PAD for size in (count, m))
    coeffs = np.zeros(rows)
    coeffs[:count] = weights
    mats = []
    for k in range(d):
        mat = np.zeros((rows, cols if k < 2 else m))
        corner = mat[:count, :m]
        np.multiply.outer(atoms[:, k], axis, out=corner)
        corner *= 2.0 * np.pi
        np.cos(corner, out=corner)
        mats.append(mat)
    return _separable_sum(coeffs, mats, owned=True)[(slice(0, m),) * d]


def _lattice_line(mu_hat: np.ndarray, at: Tuple[int, ...], lo: int, hi: int, out: np.ndarray) -> np.ndarray:
    """mu_hat on the columns [lo, hi) of the last axis of the whole lattice,
    on the line at lattice indices `at` of the leading axes, read from the
    complex half of mu_hat_on_lattice: a line with m_1 <= 0 is returned as
    a view of the half; any other is written into out, complex of length
    hi - lo, as the conjugate of its reflection (every index k to N - k),
    and out is returned. With d = 1 there is no leading axis: the one line
    joins the half's entries from lo to N/2 and the reflection of the
    rest."""
    h = mu_hat.shape[0] - 1
    n = 2 * h
    if not at:
        cut = min(max(lo, h + 1), hi)
        np.copyto(out[: cut - lo], mu_hat[lo:cut])
        np.conjugate(mu_hat[n - cut : n - hi : -1], out=out[cut - lo :])
        return out
    if at[0] <= h:
        return mu_hat[at + (slice(lo, hi),)]
    return np.conjugate(mu_hat[tuple(n - i for i in at) + (slice(n - lo, n - hi, -1),)], out=out)


def _mu_hat_oracle_deviation(measure: DiscreteMeasure, grid: GridSpec, mu_hat: np.ndarray) -> float:
    """The largest deviation of mu_hat_on_lattice's orthant or half from
    fourier_transform_at at eight fixed lattice points, relative to
    |mu_hat(0)|, which is max |mu_hat| for nonnegative weights. The points
    are given by m = k - N/2 on the first axis and on every later one: four
    with m_1 <= 0 and four with m_1 > 0, the last from the appended +N/2
    when d >= 2. The orthant is read at |m| on every axis; the half by
    _lattice_line, as the sweep reads it, the four with m_1 > 0 by
    conjugate reflection."""
    n, d = grid.points_per_axis, grid.dim
    h = n // 2
    points = [(-h, 1), (-h // 2, -h), (-1, h - 1), (0, 0), (1, -1), (2, h // 2), (h // 2 + 1, 1 - h), (h - 1, -h)]
    fax = grid.freq_axis()
    got, xi = [], []
    for m1, mk in points:
        k = (m1 + h,) + (mk + h,) * (d - 1)
        if np.iscomplexobj(mu_hat):
            got.append(_lattice_line(mu_hat, k[:-1], k[-1], k[-1] + 1, np.empty(1, dtype=complex))[0])
        else:
            got.append(mu_hat[tuple(abs(i - h) for i in k)])
        xi.append(fax[list(k)])
    dev = np.abs(np.array(got) - fourier_transform_at(measure, np.array(xi))).max()
    return float(dev / abs(got[3]))  # points[3] is xi = 0


def _phase_matrices(points: np.ndarray, axes: Sequence[np.ndarray], sign: float) -> List:
    """exp(sign 2 pi i points[:, k] (x) axes[k]): one (n, len(axes[k])) matrix per axis."""
    return [_phase_matrix(points[:, k], ax, sign * 2j * np.pi) for k, ax in enumerate(axes)]


def _atom_sum(coeffs, atoms: np.ndarray, axes: Sequence[np.ndarray], sign: float) -> np.ndarray:
    """sum_j coeffs_j exp(sign 2 pi i <atoms_j, x>) for x on the product of
    the axes (any lengths and count), shaped (len(axes[0]), ..., len(axes[-1])):
    grids._separable_sum on the atoms' phase matrices, behind
    mu_hat_on_lattice, operators.extend and operators.convolve_mu_hat. With
    two axes or more, the kernel builds the last axis's matrix itself, one
    column block at a time in one buffer, so it is never held whole (for
    the dyadic lattice, 4096 atoms by 2049 points, 134 MB); the others are
    built here and read by no one else, so the kernel owns them and scales
    the first in place."""
    coeffs = np.asarray(coeffs).astype(complex)
    if len(axes) < 2:
        return _separable_sum(coeffs, _phase_matrices(atoms, axes, sign))
    last = (atoms[:, -1], axes[-1], sign * 2j * np.pi)
    return _separable_sum(coeffs, _phase_matrices(atoms, axes[:-1], sign), owned=True, last=last)


# points per ring call in dyadic_piece and its oracle: the ring allocates
# and frees its own float64 temporaries, 32 KiB each here. At 2^14 points
# (128 KiB), glibc with a fixed mmap threshold (MALLOC_MMAP_THRESHOLD_)
# handed them back to the system after every call and faulted them in again
# for the next, about 12,000 more page faults per criterion-5 sweep than at
# 2^12
_RING_BLOCK = 1 << 12


def _check_dyadic_scale(j, grid: GridSpec) -> int:
    """The dyadic scale j as an int, refused unless it is nonnegative and the
    grid resolves frequency 2^j (Nyquist radius N/(4L) >= 2^j). dyadic_piece
    checks its j with it, and the dyadic subcommand every j of its sweep
    before the lattice transform."""
    j = int(j)
    if j < 0:
        raise ValueError("j must be nonnegative")
    if grid.nyquist < (1 << j):
        need = int(4 * grid.half_width * (1 << j))
        raise ValueError(
            "grid too coarse for scale j=%d: Nyquist radius %g < 2^j; "
            "need points_per_axis >= %d at this half width" % (j, grid.nyquist, need)
        )
    return j


def _ring_box(first: np.ndarray, sq: np.ndarray, d: int, ring) -> np.ndarray:
    """ring(u) on the box of the points whose xi^2 are `first` on the first
    axis and sq on each of the d - 1 later ones, u summing xi_k^2 in axis
    order (as every u of dyadic_piece), as a new float64 array: u, then
    ring(u) in place (_ring_in_place)."""
    u = np.array(first, dtype=float)
    for _ in range(d - 1):
        u = np.add.outer(u, sq)
    _ring_in_place(u.reshape(-1), ring)
    return u


def _ring_in_place(flat: np.ndarray, ring) -> None:
    """flat = ring(flat), _RING_BLOCK points per call of ring."""
    for a in range(0, flat.size, _RING_BLOCK):
        flat[a : a + _RING_BLOCK] = ring(flat[a : a + _RING_BLOCK])


def _ring_by_definition(u: np.ndarray, j: int) -> np.ndarray:
    """Ring j as the plateaus it is defined by, radial_plateau(u/4^j) less
    radial_plateau(u/4^(j-1)) for j >= 1, evaluated at every u: the piece
    oracle's ring, which shares nothing with dyadic_ring's band."""
    ring = radial_plateau(u / 4.0**j)
    return ring - radial_plateau(u / 4.0 ** (j - 1)) if j else ring


def _ring_support(j: int, grid: GridSpec):
    """xi^2 on the frequency axis and the index range [lo, hi) of its
    points with xi^2 < 4^j. Ring j is 0 wherever u >= 4^j, so wherever some
    xi_k^2 >= 4^j (u is a sum of nonnegative terms, and rounding a sum
    keeps it >= each term): the box of those points holds its support."""
    sq = grid.freq_axis() ** 2
    inner = np.flatnonzero(sq < 4.0**j)
    return sq, int(inner[0]), int(inner[-1]) + 1


def _piece_points(n: int, d: int) -> np.ndarray:
    """The eight grid points of the piece oracle as offsets from x = 0 in
    grid steps, an (8, d) integer array in [-N/2, N/2), each pair giving
    the first axis and every later one: near the origin, where a piece
    peaks, out to x = -L, and off the diagonal, so that a piece with its
    axes swapped shows."""
    h = n // 2
    pairs = [(0, 0), (1, 0), (0, 1), (-3, 2), (5, -7), (n // 8, -n // 16), (-n // 4, n // 8), (3 * n // 8, -h)]
    return (np.array([(a,) + (b,) * (d - 1) for a, b in pairs]) + h) % n - h


def dyadic_piece(
    measure: DiscreteMeasure, j: int, grid: GridSpec, mu_hat: np.ndarray
) -> DyadicPiece:
    """The frequency-localized piece of the measure at dyadic scale j.

    Multiplies the lattice samples of mu_hat by the smooth ring cutoff
    supported on 2^{j-2} < |xi| < 2^j (the j = 0 piece is the low-pass
    plateau) and inverse transforms it to the moduli of the piece on the
    grid; only the sups of the localized samples and of those moduli, and
    the moduli at the points of _piece_points, are returned. The samples
    are taken as mu_hat = mu_hat_on_lattice(measure, grid), not recomputed,
    so a sweep over j builds them once: the real orthant xi >= 0 of shape
    (N/2 + 1,)*d, or the complex half with m_1 <= 0 of shape
    (N/2 + 1,) + (N + 1,)*(d - 1); any other shape is refused. The grid
    must resolve frequency 2^j: its Nyquist radius N/(4L) must be at least
    2^j.

    The ring is zero outside the box xi_k^2 < 4^j, so the localized samples
    are formed on that box alone, and never as a lattice. From the orthant
    the piece is real and even in every axis: the ring is evaluated on the
    orthant's part of the box, m_k >= 0, and multiplied by mu_hat's corner
    there, and the inverse transform's even form takes that corner and
    returns the quarter of moduli, which holds every value of the piece's
    modulus. Beyond mu_hat the call holds the corner, the even form's
    per-axis transforms and the quarter, and no complex lattice. From the
    half, the inverse transform takes the box's lines as its kept lines
    from a callback, a block of them at a time (its lines argument), which
    reads the box's part of each line of mu_hat with _lattice_line (in
    place where m_1 <= 0, else as the conjugate of its reflection, written
    into the transform's source block), evaluates the ring there,
    multiplies, zeroes the line outside the box and keeps the block's
    largest modulus. Beyond mu_hat that call holds the transform's one
    buffer, max(1/2, box lines / N^(d-1)) complex lattices and a few
    blocks, and one float64 block of its own.
    """
    _check_dimension(measure, grid)
    j = _check_dyadic_scale(j, grid)
    n, d = grid.points_per_axis, grid.dim
    h = n // 2
    if np.iscomplexobj(mu_hat):
        name, shape = "half", (h + 1,) + (n + 1,) * (d - 1)
    else:
        name, shape = "orthant", (h + 1,) * d
    if np.shape(mu_hat) != shape:
        raise ValueError(
            "mu_hat has shape %r, the %s frequency lattice of mu_hat_on_lattice on this grid is %r"
            % (np.shape(mu_hat), name, shape)
        )
    sq, lo, hi = _ring_support(j, grid)
    points = _piece_points(n, d)
    if name == "orthant":
        product = _ring_box(sq[h:hi], sq[h:hi], d, partial(dyadic_ring, j=j))
        product *= mu_hat[(slice(0, hi - h),) * d]
        quarter = inverse_fourier_on_grid(product, grid)
        return DyadicPiece(
            sup_mu_j=float(quarter.max()),
            sup_mu_hat_j=float(max(product.max(), -product.min())),
            moduli_at=tuple(quarter[tuple(np.abs(points).T)].tolist()),
        )
    sq_box = sq[lo:hi]
    # one float64 buffer of this call holds, for a block of the box's
    # lines, u, then the ring, then the moduli of the product
    work = np.empty(min(_LINE_BLOCK, (hi - lo) ** (d - 1)) * (hi - lo))
    sups = []

    def ring_product(F, lead, whole):
        out = whole[:, lo:hi]
        whole[:, :lo] = 0.0
        whole[:, hi:] = 0.0
        flat = work[: out.size]
        block = flat.reshape(out.shape)
        line_u = np.zeros(out.shape[0])
        for i in lead:  # u sums xi_k^2 in axis order, the last axis over the box
            line_u += sq[i]
        np.add.outer(line_u, sq_box, out=block)
        _ring_in_place(flat, partial(dyadic_ring, j=j))
        for r in range(out.shape[0]):
            line = _lattice_line(F, tuple(i[r] for i in lead), lo, hi, out[r])
            np.multiply(line, block[r], out=out[r])
        sups.append(np.abs(out, out=block).max())

    # the box's lines, in C order of their leading indices (the one line
    # when d = 1)
    keep = np.zeros(1, dtype=np.intp)
    for _ in range(d - 1):
        keep = np.add.outer(keep * n, np.arange(lo, hi)).ravel()
    moduli = inverse_fourier_on_grid(mu_hat, grid, lines=(keep, ring_product))
    return DyadicPiece(
        sup_mu_j=float(moduli.max()),
        sup_mu_hat_j=float(max(sups)),
        moduli_at=tuple(moduli[tuple((points + h).T)].tolist()),
    )


# box points per block of _piece_oracle_deviation, in whole rows of the
# box's first axis (at least one)
_ORACLE_BLOCK = 1 << 16


def _piece_oracle_deviation(j: int, grid: GridSpec, mu_hat: np.ndarray, piece: DyadicPiece) -> float:
    """The largest deviation of the piece's moduli at the points of
    _piece_points from |f_j| by direct summation over the ring's box,
    relative to the piece's sup_mu_j (the deviation itself when that is 0).

    f_j(x) = (1/(2L))^d sum_m ring_j(xi_m) mu_hat(xi_m) exp(2 pi i <x, xi_m>),
    the ring evaluated afresh by _ring_by_definition; at offset t from
    x = 0 the phase <x, xi_m> is <t, m>/N, reduced mod N in integers before
    the cos or exp. From the orthant the sum runs over m >= 0, reading
    mu_hat at m, each axis by its cosines, weighted 2 for the two terms
    +-m > 0; from the half over the whole box, each line read by
    _lattice_line as the sweep reads it, by complex exponentials. The sum
    goes a block of the box's first axis at a time, axis by axis with ufunc
    sums, and needs neither the inverse transform nor BLAS."""
    n, d = grid.points_per_axis, grid.dim
    h = n // 2
    half = np.iscomplexobj(mu_hat)
    sq, lo, hi = _ring_support(j, grid)
    lo = lo if half else h
    m = np.arange(lo, hi) - h
    points = _piece_points(n, d)
    phase = 2.0 * np.pi / n * (np.multiply.outer(points, m) % n)  # (point, axis, m)
    factors = np.exp(1j * phase) if half else np.where(m > 0, 2.0, 1.0) * np.cos(phase)
    direct = np.zeros(len(points), dtype=factors.dtype)
    ring = partial(_ring_by_definition, j=j)
    rows = max(1, _ORACLE_BLOCK // len(m) ** (d - 1))
    for r in range(0, len(m), rows):
        count = min(rows, len(m) - r)
        if not half:
            values = mu_hat[(slice(r, r + count),) + (slice(0, len(m)),) * (d - 1)]
        elif d == 1:
            values = _lattice_line(mu_hat, (), lo + r, lo + r + count, np.empty(count, dtype=complex))
        else:
            values = np.empty((count,) + (len(m),) * (d - 1), dtype=complex)
            for at in np.ndindex(values.shape[:-1]):
                lead = (lo + r + at[0],) + tuple(lo + i for i in at[1:])
                values[at] = _lattice_line(mu_hat, lead, lo, hi, values[at])
        values = values * _ring_box(sq[lo + r : lo + r + count], sq[lo:hi], d, ring)
        for p, f in enumerate(factors):
            v = values
            for k in range(d - 1, 0, -1):
                v = (v * f[k]).sum(axis=-1)
            direct[p] += (v * f[0, r : r + count]).sum()
    dev = np.abs(np.array(piece.moduli_at) - np.abs(direct) * grid.freq_spacing**d).max()
    return float(dev / piece.sup_mu_j if piece.sup_mu_j > 0 else dev)


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
