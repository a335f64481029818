"""Cap superpositions: pointwise values, transform oracle, growth slopes."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from restrictionlab import _workers, knapp
from restrictionlab.bumps import annulus_window, plateau_window
from restrictionlab.grids import GridSpec, inverse_fourier_on_grid
from restrictionlab.knapp import (
    ExperimentReport,
    KnappSpec,
    knapp_function,
    knapp_g_values,
    knapp_sharpness_experiment,
)
from restrictionlab.measures import make_sphere_measure

from gridpoints import freq_mesh, ifftn_formula


def test_spec_validation():
    with pytest.raises(ValueError, match="N >= 1"):
        KnappSpec(N=0, q=2.0)
    with pytest.raises(ValueError, match="q > 0"):
        KnappSpec(N=2, q=0.0)


def test_weights_are_geometric():
    w = KnappSpec(N=3, q=2.0).weights()
    assert np.allclose(w, [2.0**0.5, 2.0, 2.0**1.5])


def test_g_values_at_cap_centers():
    # cap k is centered at (2^-k, 1) where both windows sit on their
    # plateaus; caps are pairwise disjoint so only one weight shows up
    spec = KnappSpec(N=4, q=2.0)
    centers = np.array([[2.0 ** (-k), 1.0] for k in range(1, 5)])
    got = knapp_g_values(spec, centers)
    assert np.allclose(got, spec.weights(), rtol=1e-14)


def test_g_values_vanish_between_caps():
    spec = KnappSpec(N=4, q=2.0)
    # tangential gaps: 5/8 * 2^-k sits between the supports of caps k, k+1
    between = np.array([[5.0 / 8.0 * 2.0 ** (-k), 1.0] for k in range(1, 4)])
    assert np.max(knapp_g_values(spec, between)) == 0.0
    # outside every window (the k = 1 cap is radially thick, so "far"
    # means far tangentially or beyond the widest radial support)
    far = np.array([[0.5, 5.0], [0.0, 1.0], [2.0, 1.0]])
    assert np.max(knapp_g_values(spec, far)) == 0.0


def test_g_values_require_planar_points():
    with pytest.raises(ValueError, match="2-dimensional"):
        knapp_g_values(KnappSpec(N=1, q=2.0), np.zeros((3, 3)))


def test_cap_supports_are_disjoint_on_lattice():
    g = GridSpec(2, 16.0, 256)
    fax = g.freq_axis()
    masks = []
    for k in (1, 2, 3):
        tang = annulus_window(2.0**k * np.abs(fax)) > 0
        rad = plateau_window(2.0 ** (2 * k - 5) * np.abs(fax - 1.0)) > 0
        masks.append(np.outer(tang, rad))
    assert not np.any(masks[0] & masks[1])
    assert not np.any(masks[1] & masks[2])


def test_field_matches_direct_lattice_quadrature():
    # the complex transform (the ifftn formula) of the test's own cap
    # lattice against direct quadrature, and knapp_function's moduli
    # against |that transform|
    grid = GridSpec(2, 16.0, 256)
    sphere = make_sphere_measure(2, 1024)
    spec = KnappSpec(N=1, q=2.0)
    fax = grid.freq_axis()
    G = spec.weights()[0] * np.outer(
        annulus_window(2.0 * np.abs(fax)),
        plateau_window(2.0 ** (-3) * np.abs(fax - 1.0)),
    )
    f = ifftn_formula(G, grid)
    _, moduli = knapp_function(spec, grid, sphere)
    assert moduli.tobytes() == np.abs(f).tobytes()
    FX, FY = freq_mesh(grid)
    ax = grid.axis()
    for i, j in ((0, 0), (40, 200), (128, 128), (17, 250)):
        direct = (
            np.sum(G * np.exp(2j * np.pi * (FX * ax[i] + FY * ax[j])))
            * grid.freq_spacing**2
        )
        assert abs(f[i, j] - direct) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_field_equals_dense_outer_product_sum_bit_for_bit(n):
    # knapp_function accumulates each cap only on the rows where its
    # tangential window is nonzero; the dense sum gives the same bits
    grid = GridSpec(2, 16.0, 128)
    sphere = make_sphere_measure(2, 256)
    spec = KnappSpec(N=n, q=2.0)
    fax = grid.freq_axis()
    G = np.zeros((fax.size, fax.size))
    w = spec.weights()
    for k in range(1, n + 1):
        tang = annulus_window(2.0**k * np.abs(fax))
        rad = plateau_window(2.0 ** (2 * k - 5) * np.abs(fax - 1.0))
        assert 0 < np.count_nonzero(tang) < fax.size
        G += w[k - 1] * np.outer(tang, rad)
    g_atoms, moduli = knapp_function(spec, grid, sphere)
    assert moduli.tobytes() == inverse_fourier_on_grid(G, grid).tobytes()
    assert np.array_equal(g_atoms, knapp_g_values(spec, sphere.atoms))


def test_knapp_function_peak_memory_stays_below_0_65_lattices():
    # the cap lattice G is never built: the transform takes its nonzero rows
    # from a callback, a block of rows at a time, so the call holds the
    # transform's one buffer (the float64 moduli, half a complex lattice),
    # one block and one slab, and the callback's row block; the real G (half
    # a complex lattice, as tracemalloc counts it) on top would break the
    # bound
    grid = GridSpec(2, 128.0, 1024)
    sphere = make_sphere_measure(2, 4096)
    lattice = 16 * 1024**2  # bytes of one complex lattice
    for workers in (_workers._WORKERS, 4):
        for n in (2, 3, 4):
            with mock.patch.object(_workers, "_WORKERS", workers):
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                    knapp_function(KnappSpec(N=n, q=2.0), grid, sphere)
                    peak = tracemalloc.get_traced_memory()[1] - base
                finally:
                    tracemalloc.stop()
            assert peak <= 0.65 * lattice


def test_doubling_caps_doubles_squared_mass():
    # disjoint caps with q = 2 contribute equal squared mass, so N = 2
    # carries about twice the squared circle norm of N = 1
    grid = GridSpec(2, 16.0, 256)
    sphere = make_sphere_measure(2, 4096)
    sq = []
    for n in (1, 2):
        g_atoms, _ = knapp_function(KnappSpec(N=n, q=2.0), grid, sphere)
        sq.append(float(np.sum(sphere.weights * g_atoms**2)))
    assert 1.6 <= sq[1] / sq[0] <= 2.4


def test_sup_bounded_by_l1_of_frequency_profile():
    grid = GridSpec(2, 16.0, 256)
    sphere = make_sphere_measure(2, 1024)
    for n in (1, 2, 3):
        spec = KnappSpec(N=n, q=2.0)
        _, f = knapp_function(spec, grid, sphere)
        fax = grid.freq_axis()
        G = np.zeros((fax.size, fax.size))
        w = spec.weights()
        for k in range(1, n + 1):
            G += w[k - 1] * np.outer(
                annulus_window(2.0**k * np.abs(fax)),
                plateau_window(2.0 ** (2 * k - 5) * np.abs(fax - 1.0)),
            )
        l1 = np.sum(np.abs(G)) * grid.freq_spacing**2
        assert f.max() <= l1 + 1e-12  # knapp_function returns the moduli |f|


def test_resolution_guards():
    sphere = make_sphere_measure(2, 256)
    grid = GridSpec(2, 16.0, 256)  # resolves at most 4 caps
    with pytest.raises(ValueError, match="resolves at most"):
        knapp_function(KnappSpec(N=5, q=2.0), grid, sphere)
    small = GridSpec(2, 16.0, 64)  # Nyquist radius 1 < 5/4
    with pytest.raises(ValueError, match="caps clipped"):
        knapp_function(KnappSpec(N=1, q=2.0), small, sphere)
    with pytest.raises(ValueError, match="2-dimensional"):
        knapp_function(KnappSpec(N=1, q=2.0), GridSpec(1, 16.0, 256), sphere)


def test_experiment_checks_its_largest_n_before_the_first_field(monkeypatch):
    # the largest N goes through knapp_function's own check before any
    # field is built, not after the smaller ones
    def refuse(*args, **kwargs):
        pytest.fail("a field was built despite an unresolvable N")

    monkeypatch.setattr(knapp, "knapp_function", refuse)
    grid = GridSpec(2, 16.0, 256)  # resolves at most 4 caps
    with pytest.raises(ValueError, match="resolves at most N = 4 caps"):
        knapp_sharpness_experiment(2.0, 1.2, [2.0], [2, 3, 5], grid)
    small = GridSpec(2, 16.0, 64)  # Nyquist radius 1 < 5/4
    with pytest.raises(ValueError, match="caps clipped"):
        knapp_sharpness_experiment(2.0, 1.2, [2.0], [1, 2, 3], small)


@pytest.mark.parametrize(
    "s_list,N_list,match",
    [
        ([2.0, 2.0], [2, 3, 4], "s values must be distinct"),
        ([2.0, math.inf, math.inf], [2, 3, 4], "s values must be distinct"),
        ([2.0], [2, 2, 3], "N values must be distinct"),
        ([2.0], [2, 3, 4, 4], "N values must be distinct"),
    ],
)
def test_experiment_rejects_repeated_entries_before_the_first_field(monkeypatch, s_list, N_list, match):
    # a repeated s would give a repeated CSV column, a repeated N a point
    # fitted twice (and [2, 2, 3] only two distinct N)
    def refuse(*args, **kwargs):
        pytest.fail("a field was built despite a repeated entry")

    monkeypatch.setattr(knapp, "knapp_function", refuse)
    with pytest.raises(ValueError, match=match):
        knapp_sharpness_experiment(2.0, 1.2, s_list, N_list, GridSpec(2, 128.0, 1024))


def test_experiment_exponent_relation_enforced():
    grid = GridSpec(2, 128.0, 1024)
    with pytest.raises(ValueError, match="must satisfy"):
        knapp_sharpness_experiment(2.0, 4.0 / 3.0, [2.0], [2, 3, 4], grid)
    with pytest.raises(ValueError, match="3 N values"):
        knapp_sharpness_experiment(2.0, 1.2, [2.0], [2, 3], grid)


@pytest.mark.parametrize(
    "p,s_list,match",
    [
        (1.2, [2.0, 0.0], "s must be positive"),
        (1.2, [-1.0, math.inf], "s must be positive"),
        (1.2, [math.nan], "s must be positive"),
        (math.inf, [2.0], "p must be finite"),
        (-2.0, [2.0], "p must be finite"),
        (1.0, [2.0], "need p > 1"),
        (0.5, [2.0], "need p > 1"),
    ],
)
def test_experiment_rejects_bad_lorentz_exponents(p, s_list, match):
    # every (p, s) is checked as lorentz_norm_values checks it, before any
    # field is built
    grid = GridSpec(2, 128.0, 1024)
    with pytest.raises(ValueError, match=match):
        knapp_sharpness_experiment(2.0, p, s_list, [2, 3, 4], grid)


def test_experiment_slopes_and_verdicts():
    # circle-norm of the cap sum grows like N^(1/q); the weak-type norm of
    # the inverse transform stays flat, so the s > q gap is decisive
    grid = GridSpec(2, 128.0, 1024)
    rep = knapp_sharpness_experiment(
        2.0, 1.2, [2.0, math.inf], [2, 3, 4], grid, sphere_n=4096
    )
    assert isinstance(rep, ExperimentReport)
    assert 0.40 <= rep.fit_g.slope <= 0.55
    assert 0.40 <= rep.fits_f[0].slope <= 0.55
    assert abs(rep.fits_f[1].slope) < 0.05
    assert rep.fit_g.slope - rep.fits_f[1].slope > 0.35
    # norms table is indexed [n][s]
    assert len(rep.norms_f) == 3 and len(rep.norms_f[0]) == 2
    assert rep.n_values == (2, 3, 4)
    # g-norms grow monotonically
    assert rep.norm_g[0] < rep.norm_g[1] < rep.norm_g[2]


def test_experiment_peak_memory_stays_below_0_75_lattices():
    # one field is live at a time, and never as complex values or as a cap
    # lattice: its float64 moduli (half a complex lattice), the transform's
    # compact buffer sharing the moduli's memory, then the moduli alone,
    # which the rearrangement sorts in place
    grid = GridSpec(2, 128.0, 1024)
    lattice = 16 * 1024**2  # bytes of one complex lattice
    for workers in (_workers._WORKERS, 4):
        with mock.patch.object(_workers, "_WORKERS", workers):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                knapp_sharpness_experiment(2.0, 1.2, [2.0, math.inf], [2, 3, 4], grid)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert peak <= 0.75 * lattice
