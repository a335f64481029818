"""Extension/restriction operators, the convolution identity, and the
structured test families."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restrictionlab.bumps import dyadic_ring
from restrictionlab.exponents import exponent_profile
from restrictionlab.fitting import loglog_fit
from restrictionlab.grids import GridSpec, fourier_on_grid
from restrictionlab.measures import (
    DiscreteMeasure,
    fourier_transform_at,
    make_point_mass,
    make_sphere_measure,
)
from restrictionlab.operators import (
    convolve_mu_hat,
    extend,
    gaussian_dilate_family,
    knapp_cap_family,
    random_smooth_family,
    restrict_at_atoms,
    restrict_sq_integral,
    stein_tomas_ratio,
)

from gridpoints import grid_points

PROFILE = exponent_profile(2, 1, "1/2")


def test_extension_of_point_mass_is_constant_one():
    g = GridSpec(1, 2.0, 32)
    field = extend([1.0], make_point_mass([0.0]), g)
    assert field.shape == (32,)
    assert np.max(np.abs(field - 1.0)) < 1e-14


def test_extension_of_unit_density_is_conjugate_transform():
    g = GridSpec(2, 2.0, 16)
    m = make_sphere_measure(2, 32)
    field = extend(np.ones(32), m, g)
    pred = np.conj(fourier_transform_at(m, grid_points(g))).reshape(16, 16)
    assert np.max(np.abs(field - pred)) < 1e-12


def test_extension_input_validation():
    g = GridSpec(2, 2.0, 16)
    m = make_sphere_measure(2, 32)
    with pytest.raises(ValueError, match="atoms"):
        extend(np.ones(31), m, g)
    with pytest.raises(ValueError, match="dimension"):
        extend(np.ones(32), m, GridSpec(1, 2.0, 16))


def test_restriction_of_zero_field_is_zero():
    g = GridSpec(2, 2.0, 16)
    m = make_sphere_measure(2, 32)
    f = np.zeros((16, 16))
    assert np.max(np.abs(restrict_at_atoms(f, m, g))) == 0.0
    assert restrict_sq_integral(f, m, g) == 0.0


def test_restriction_dimension_check():
    g = GridSpec(1, 2.0, 16)
    with pytest.raises(ValueError, match="dimension"):
        restrict_at_atoms(np.zeros(16), make_sphere_measure(2, 32), g)


def test_operators_check_the_field_on_entry():
    # the shape must be the grid's, and NaN or inf must not reach a sum,
    # whatever the memory layout of the samples
    g = GridSpec(2, 4.0, 8)
    m = make_point_mass([0.0, 0.0])
    rng = np.random.default_rng(4)
    v = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    for op in (restrict_at_atoms, convolve_mu_hat):
        for bad in (np.zeros(8), v[:, ::2], np.zeros((16, 16))):
            with pytest.raises(ValueError, match="shape"):
                op(bad, m, g)
        for value in (complex(np.nan, 0.0), complex(0.0, np.inf), complex(-np.inf, 0.0)):
            w = v.copy()
            w[2, 5] = value
            strided = np.zeros((16, 16), dtype=complex)
            strided[::2, ::2] = w
            for vals in (w, w.T, np.asfortranarray(w), strided[::2, ::2]):
                with pytest.raises(ValueError, match="finite"):
                    op(vals, m, g)


def test_operators_accept_non_contiguous_fields():
    # transposed, Fortran-ordered and strided samples are the same field
    # as their contiguous copies
    g = GridSpec(2, 4.0, 16)
    m = make_sphere_measure(2, 32)
    rng = np.random.default_rng(4)
    big = np.zeros((32, 32), dtype=complex)
    big[8:24, 8:24] = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    v = big[::2, ::2]  # nonzero on grid indices 4..11, inside |x| <= L/2
    for vals in (v, v.T, np.asfortranarray(v)):
        ref = np.ascontiguousarray(vals)
        got = restrict_at_atoms(vals, m, g)
        assert np.allclose(got, restrict_at_atoms(ref, m, g), rtol=1e-13, atol=0.0)
        got = convolve_mu_hat(vals, m, g)
        assert np.allclose(got, convolve_mu_hat(ref, m, g), rtol=1e-13, atol=1e-15)


def test_extension_restriction_adjointness():
    # <E g, f>_grid = <g, R f>_mu: both are the same double sum reorganized
    g = GridSpec(2, 4.0, 64)
    m = make_sphere_measure(2, 96)
    _, f = random_smooth_family(g, 1, seed=3)[0]
    rng = np.random.default_rng(9)
    gv = rng.standard_normal(96) + 1j * rng.standard_normal(96)
    lhs = np.sum(extend(gv, m, g) * np.conj(f)) * g.cell_volume
    rhs = np.sum(m.weights * gv * np.conj(restrict_at_atoms(f, m, g)))
    assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)


def test_pairing_identity_with_reflected_measure():
    # integral |f_hat|^2 dmu equals the pairing of f with f convolved by
    # the transform of the reflected measure, to rounding
    g = GridSpec(2, 4.0, 64)
    m = make_sphere_measure(2, 96)
    refl = DiscreteMeasure(dim=2, atoms=-m.atoms, weights=m.weights, label="refl")
    for seed in (3, 5):
        _, f = random_smooth_family(g, 1, seed=seed)[0]
        conv = convolve_mu_hat(f, refl, g)
        pair = np.real(np.sum(conv * np.conj(f)) * g.cell_volume)
        direct = restrict_sq_integral(f, m, g)
        assert abs(pair - direct) < 1e-10 * direct


def test_convolution_with_point_mass_gives_mean():
    g = GridSpec(2, 4.0, 32)
    _, f = random_smooth_family(g, 1, seed=4)[0]
    conv = convolve_mu_hat(f, make_point_mass([0.0, 0.0]), g)
    integral = np.sum(f) * g.cell_volume
    assert np.max(np.abs(conv - integral)) < 1e-12


def test_convolution_of_spike_samples_the_kernel():
    # a single-cell spike convolves to cell * mu_hat(x - x0)
    g = GridSpec(2, 4.0, 64)
    m = make_sphere_measure(2, 96)
    spike = np.zeros((64, 64))
    spike[36, 30] = 1.0
    conv = convolve_mu_hat(spike, m, g)
    x0 = np.array([g.axis()[36], g.axis()[30]])
    X, Y = g.mesh()
    pts = np.stack([(X - x0[0]).ravel(), (Y - x0[1]).ravel()], axis=1)
    pred = g.cell_volume * fourier_transform_at(m, pts).reshape(64, 64)
    assert np.max(np.abs(conv - pred)) < 1e-14


def test_convolution_matches_direct_quadrature():
    g = GridSpec(2, 4.0, 32)
    m = make_sphere_measure(2, 48)
    _, f = random_smooth_family(g, 1, seed=4)[0]
    conv = convolve_mu_hat(f, m, g)
    P = grid_points(g)
    diffs = (P[:, None, :] - P[None, :, :]).reshape(-1, 2)
    K = fourier_transform_at(m, diffs).reshape(P.shape[0], P.shape[0])
    oracle = (K @ f.ravel()) * g.cell_volume
    assert np.max(np.abs(conv.ravel() - oracle)) < 1e-10


# 50 examples: with d = 4 among them, the derandomized draw still holds as
# many d = 3 cases (10) as 30 examples held over d = 1..3
@settings(derandomize=True, deadline=None, max_examples=50)
@given(
    d=st.integers(1, 4),
    n_atoms=st.integers(1, 12),
    points=st.sampled_from([8, 16]),
    seed=st.integers(0, 2**32 - 1),
)
def test_separable_kernel_matches_direct_sums(d, n_atoms, points, seed):
    # extend, restrict_at_atoms and convolve_mu_hat against the double sums
    # they reorganize, in dimensions 1 to 4 (from d = 3 on, the kernel loops
    # over the trailing axes), each on a grid of its own half width
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 1.0, n_atoms)
    m = DiscreteMeasure(dim=d, atoms=rng.uniform(-1.0, 1.0, (n_atoms, d)), weights=w / w.sum())

    def rel_err(got, oracle):
        return np.max(np.abs(got - oracle)) / np.max(np.abs(oracle))

    def draw_grid():
        return GridSpec(d, float(rng.uniform(0.5, 2.0)), points if d < 3 else 8)

    grid = draw_grid()
    g = rng.standard_normal(n_atoms) + 1j * rng.standard_normal(n_atoms)
    oracle = np.exp(2j * np.pi * grid_points(grid) @ m.atoms.T) @ (g * m.weights)
    assert rel_err(extend(g, m, grid).ravel(), oracle) <= 1e-12

    # restriction of a nonnegative field f = total * nu, nu a probability
    # measure on the grid's lattice, so f_hat = cell * total * nu_hat
    grid = draw_grid()
    shape = (grid.points_per_axis,) * d
    P = grid_points(grid)
    f = rng.uniform(0.1, 1.0, shape)
    total = float(np.sum(f))
    nu = DiscreteMeasure(dim=d, atoms=P, weights=f.ravel() / total)
    oracle = grid.cell_volume * total * fourier_transform_at(nu, m.atoms)
    assert rel_err(restrict_at_atoms(f, m, grid), oracle) <= 1e-12

    # convolution: sum_y mu_hat(x - y) f(y) cell over a field supported in
    # the inner half of the box. The oracle sums over that support only
    # (every other term is an exact zero), at 512 random x (every x for d <= 3)
    grid = draw_grid()
    P = grid_points(grid)
    inner = np.all(np.abs(P) <= grid.half_width / 2.0, axis=1)
    vals = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * inner.reshape(shape)
    rows = np.sort(rng.permutation(len(P))[:512])
    K = fourier_transform_at(m, (P[rows, None, :] - P[None, inner, :]).reshape(-1, d))
    oracle = K.reshape(len(rows), -1) @ vals.ravel()[inner] * grid.cell_volume
    assert rel_err(convolve_mu_hat(vals, m, grid).ravel()[rows], oracle) <= 1e-12


def test_convolution_enforces_inner_half_support():
    g = GridSpec(1, 2.0, 32)
    with pytest.raises(ValueError, match="inner half"):
        convolve_mu_hat(np.ones(32), make_point_mass([0.0]), g)


def test_dyadic_kernel_symbol_growth():
    # truncating mu_hat to |x| ~ 2^j gives convolution kernels whose
    # symbol sup grows like 2^(j(d-a)) = 2^j for the circle
    g = GridSpec(2, 24.0, 256)
    m = make_sphere_measure(2, 512)
    X, Y = g.mesh()
    mu_hat_space = fourier_transform_at(
        m, np.stack([X.ravel(), Y.ravel()], axis=1)
    ).reshape(X.shape)
    u = X**2 + Y**2
    sups = []
    for j in (2, 3, 4):
        symbol = fourier_on_grid(mu_hat_space * dyadic_ring(u, j), g)
        sups.append(float(np.abs(symbol).max()))
    fit = loglog_fit(list(zip([4.0, 8.0, 16.0], sups)))
    assert 0.9 <= fit.slope <= 1.1


def test_restriction_ratio_vanishes_off_the_sphere():
    # a packet whose transform concentrates at |xi| = 1/4 has nearly no
    # mass on the unit circle, so the ratio is tiny
    g = GridSpec(2, 8.0, 128)
    X, Y = g.mesh()
    vals = np.exp(-np.pi * (X**2 + Y**2) / 8.0) * np.exp(2j * np.pi * 0.25 * X)
    r = stein_tomas_ratio(vals, make_sphere_measure(2, 256), g, PROFILE)
    assert r < 1e-4


def test_restriction_ratio_rejects_zero_field():
    g = GridSpec(2, 2.0, 16)
    with pytest.raises(ValueError, match="zero field"):
        stein_tomas_ratio(np.zeros((16, 16)), make_sphere_measure(2, 32), g, PROFILE)


def test_restriction_ratio_translation_invariance():
    # rolling the samples translates the field on the torus; support stays
    # inside the box, the Lorentz norm is rearrangement invariant, and the
    # transform modulus is unchanged
    g = GridSpec(2, 4.0, 64)
    m = make_sphere_measure(2, 128)
    _, f = random_smooth_family(g, 1, seed=6)[0]
    r0 = stein_tomas_ratio(f, m, g, PROFILE)
    r1 = stein_tomas_ratio(np.roll(f, (5, -7), axis=(0, 1)), m, g, PROFILE)
    assert r0 == pytest.approx(r1, rel=1e-8)


def test_gaussian_dilates_have_flat_ratio():
    g = GridSpec(2, 16.0, 256)
    m = make_sphere_measure(2, 1024)
    fam = gaussian_dilate_family(g, [1.0, 2.0, 4.0, 8.0])
    assert [label for label, _ in fam] == ["gauss-t1", "gauss-t2", "gauss-t4", "gauss-t8"]
    ratios = [stein_tomas_ratio(f, m, g, PROFILE) for _, f in fam]
    assert max(ratios) / min(ratios) < 4.0


def test_knapp_caps_have_flat_ratio():
    g = GridSpec(2, 64.0, 512)
    m = make_sphere_measure(2, 1024)
    fam = knapp_cap_family(g, [2.0 ** (-k) for k in range(2, 6)])
    ratios = [stein_tomas_ratio(f, m, g, PROFILE) for _, f in fam]
    assert max(ratios) / min(ratios) < 3.0


def test_knapp_caps_reject_unresolvable_widths():
    g = GridSpec(2, 4.0, 32)
    with pytest.raises(ValueError, match="too small"):
        knapp_cap_family(g, [0.25])


def test_random_family_is_deterministic_and_supported():
    g = GridSpec(2, 4.0, 32)
    a = random_smooth_family(g, 2, seed=11)
    b = random_smooth_family(g, 2, seed=11)
    assert [label for label, _ in a] == ["rand-0", "rand-1"]
    assert np.array_equal(a[0][1], b[0][1])
    assert np.array_equal(a[1][1], b[1][1])
    # envelope keeps the support strictly inside the inner half of the box
    X, Y = g.mesh()
    outside = (np.abs(X) > 0.45 * 4.0) | (np.abs(Y) > 0.45 * 4.0)
    assert np.max(np.abs(a[0][1][outside])) == 0.0
    with pytest.raises(ValueError, match="count"):
        random_smooth_family(g, 0)
