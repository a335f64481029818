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
from restrictionlab.grids import (
    GridSpec,
    SampledField,
    fourier_on_grid,
)
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
    f = SampledField.on_grid(g, np.zeros((16, 16)))
    assert np.max(np.abs(restrict_at_atoms(f, m))) == 0.0
    assert restrict_sq_integral(f, m) == 0.0


def test_restriction_dimension_check():
    g = GridSpec(1, 2.0, 16)
    f = SampledField.on_grid(g, np.zeros(16))
    with pytest.raises(ValueError, match="dimension"):
        restrict_at_atoms(f, make_sphere_measure(2, 32))


def test_extension_restriction_adjointness():
    # <E g, f>_grid = <g, R f>_mu: both are the same double sum reorganized
    g = GridSpec(2, 4.0, 64)
    m = make_sphere_measure(2, 96)
    f = random_smooth_family(g, 1, seed=3)[0]
    rng = np.random.default_rng(9)
    gv = rng.standard_normal(96) + 1j * rng.standard_normal(96)
    lhs = np.sum(extend(gv, m, g) * np.conj(f.values)) * g.cell_volume
    rhs = np.sum(m.weights * gv * np.conj(restrict_at_atoms(f, m)))
    assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)


def test_pairing_identity_with_reflected_measure():
    # integral |f_hat|^2 dmu equals the pairing of f with f convolved by
    # the transform of the reflected measure, to rounding
    g = GridSpec(2, 4.0, 64)
    m = make_sphere_measure(2, 96)
    refl = DiscreteMeasure(dim=2, atoms=-m.atoms, weights=m.weights, label="refl")
    for seed in (3, 5):
        f = random_smooth_family(g, 1, seed=seed)[0]
        conv = convolve_mu_hat(f, refl)
        pair = np.real(np.sum(conv * np.conj(f.values)) * g.cell_volume)
        direct = restrict_sq_integral(f, m)
        assert abs(pair - direct) < 1e-10 * direct


def test_convolution_with_point_mass_gives_mean():
    g = GridSpec(2, 4.0, 32)
    f = random_smooth_family(g, 1, seed=4)[0]
    conv = convolve_mu_hat(f, make_point_mass([0.0, 0.0]))
    integral = np.sum(f.values) * g.cell_volume
    assert np.max(np.abs(conv - integral)) < 1e-12


def test_convolution_of_spike_samples_the_kernel():
    # a single-cell spike convolves to cell * mu_hat(x - x0)
    g = GridSpec(2, 4.0, 64)
    m = make_sphere_measure(2, 96)
    spike = np.zeros((64, 64))
    spike[36, 30] = 1.0
    f = SampledField.on_grid(g, spike)
    conv = convolve_mu_hat(f, m)
    x0 = np.array([g.axis()[36], g.axis()[30]])
    X, Y = g.mesh()
    pts = np.stack([(X - x0[0]).ravel(), (Y - x0[1]).ravel()], axis=1)
    pred = g.cell_volume * fourier_transform_at(m, pts).reshape(64, 64)
    assert np.max(np.abs(conv - pred)) < 1e-14


def test_convolution_matches_direct_quadrature():
    g = GridSpec(2, 4.0, 32)
    m = make_sphere_measure(2, 48)
    f = random_smooth_family(g, 1, seed=4)[0]
    conv = convolve_mu_hat(f, m)
    P = grid_points(g)
    diffs = (P[:, None, :] - P[None, :, :]).reshape(-1, 2)
    K = fourier_transform_at(m, diffs).reshape(P.shape[0], P.shape[0])
    oracle = (K @ f.values.ravel()) * g.cell_volume
    assert np.max(np.abs(conv.ravel() - oracle)) < 1e-10


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    d=st.integers(1, 3),
    n_atoms=st.integers(1, 12),
    sizes=st.lists(st.integers(2, 7), min_size=3, max_size=3),
    points=st.sampled_from([8, 16]),
    seed=st.integers(0, 2**32 - 1),
)
def test_separable_kernel_matches_direct_sums(d, n_atoms, sizes, points, seed):
    # extend, restrict_at_atoms and convolve_mu_hat against the double sums
    # they reorganize, in every supported dimension; the fields have a
    # different number of points (and spacing) on each axis
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 1.0, n_atoms)
    m = DiscreteMeasure(dim=d, atoms=rng.uniform(-1.0, 1.0, (n_atoms, d)), weights=w / w.sum())

    def rel_err(got, oracle):
        return np.max(np.abs(got - oracle)) / np.max(np.abs(oracle))

    grid = GridSpec(d, float(rng.uniform(0.5, 2.0)), points if d < 3 else 8)
    g = rng.standard_normal(n_atoms) + 1j * rng.standard_normal(n_atoms)
    oracle = np.exp(2j * np.pi * grid_points(grid) @ m.atoms.T) @ (g * m.weights)
    assert rel_err(extend(g, m, grid).ravel(), oracle) <= 1e-12

    # restriction of a nonnegative field f = total * nu, nu a probability
    # measure on the field's lattice, so f_hat = cell * total * nu_hat
    shape = tuple(sizes[:d])
    half = rng.uniform(0.5, 2.0, d)
    spacing = tuple(2.0 * half / shape)
    axes = [-h + s * np.arange(n) for h, s, n in zip(half, spacing, shape)]
    P = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    f = SampledField(values=rng.uniform(0.1, 1.0, shape), origin=tuple(-half), spacing=spacing)
    total = float(np.sum(f.values.real))
    nu = DiscreteMeasure(dim=d, atoms=P, weights=f.values.real.ravel() / total)
    oracle = f.cell_volume * total * fourier_transform_at(nu, m.atoms)
    assert rel_err(restrict_at_atoms(f, m), oracle) <= 1e-12

    # convolution: sum_y mu_hat(x - y) f(y) cell over a field supported in
    # the inner half of the box
    inner = np.all(np.abs(P) <= half / 2.0, axis=1).reshape(shape)
    vals = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * inner
    f = SampledField(values=vals, origin=tuple(-half), spacing=spacing)
    K = fourier_transform_at(m, (P[:, None, :] - P[None, :, :]).reshape(-1, d))
    oracle = K.reshape(len(P), len(P)) @ vals.ravel() * f.cell_volume
    assert rel_err(convolve_mu_hat(f, m).ravel(), oracle) <= 1e-12


def test_convolution_enforces_inner_half_support():
    g = GridSpec(1, 2.0, 32)
    f = SampledField.on_grid(g, np.ones(32))
    with pytest.raises(ValueError, match="inner half"):
        convolve_mu_hat(f, make_point_mass([0.0]))


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
    f = SampledField.on_grid(g, vals)
    r = stein_tomas_ratio(f, make_sphere_measure(2, 256), PROFILE)
    assert r < 1e-4


def test_restriction_ratio_rejects_zero_field():
    g = GridSpec(2, 2.0, 16)
    f = SampledField.on_grid(g, np.zeros((16, 16)))
    with pytest.raises(ValueError, match="zero field"):
        stein_tomas_ratio(f, make_sphere_measure(2, 32), PROFILE)


def test_restriction_ratio_translation_invariance():
    # rolling the samples translates the field on the torus; support stays
    # inside the box, the Lorentz norm is rearrangement invariant, and the
    # transform modulus is unchanged
    g = GridSpec(2, 4.0, 64)
    m = make_sphere_measure(2, 128)
    f = random_smooth_family(g, 1, seed=6)[0]
    shifted = SampledField.on_grid(g, np.roll(f.values, (5, -7), axis=(0, 1)))
    r0 = stein_tomas_ratio(f, m, PROFILE)
    r1 = stein_tomas_ratio(shifted, m, PROFILE)
    assert r0 == pytest.approx(r1, rel=1e-8)


def test_gaussian_dilates_have_flat_ratio():
    g = GridSpec(2, 16.0, 256)
    m = make_sphere_measure(2, 1024)
    fam = gaussian_dilate_family(g, [1.0, 2.0, 4.0, 8.0])
    assert [f.label for f in fam] == ["gauss-t1", "gauss-t2", "gauss-t4", "gauss-t8"]
    ratios = [stein_tomas_ratio(f, m, PROFILE) for f in fam]
    assert max(ratios) / min(ratios) < 4.0


def test_knapp_caps_have_flat_ratio():
    g = GridSpec(2, 64.0, 512)
    m = make_sphere_measure(2, 1024)
    fam = knapp_cap_family(g, [2.0 ** (-k) for k in range(2, 6)])
    ratios = [stein_tomas_ratio(f, m, PROFILE) for f in fam]
    assert max(ratios) / min(ratios) < 3.0


def test_knapp_caps_reject_unresolvable_widths():
    g = GridSpec(2, 4.0, 32)
    with pytest.raises(ValueError, match="too small"):
        knapp_cap_family(g, [0.25])


def test_random_family_is_deterministic_and_supported():
    g = GridSpec(2, 4.0, 32)
    a = random_smooth_family(g, 2, seed=11)
    b = random_smooth_family(g, 2, seed=11)
    assert np.array_equal(a[0].values, b[0].values)
    assert np.array_equal(a[1].values, b[1].values)
    # envelope keeps the support strictly inside the inner half of the box
    X, Y = g.mesh()
    outside = (np.abs(X) > 0.45 * 4.0) | (np.abs(Y) > 0.45 * 4.0)
    assert np.max(np.abs(a[0].values[outside])) == 0.0
    with pytest.raises(ValueError, match="count"):
        random_smooth_family(g, 0)
