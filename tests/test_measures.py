"""Atomic measures: transforms against classical oracles, regularity and
decay fits, dyadic frequency pieces, file round trip."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.spatial import cKDTree

from restrictionlab import grids, measures
from restrictionlab.bumps import dyadic_ring
from restrictionlab.fitting import loglog_fit
from restrictionlab.grids import GridSpec
from restrictionlab.measures import (
    DiscreteMeasure,
    ball_regularity_profile,
    dyadic_piece,
    fourier_decay_profile,
    fourier_transform_at,
    load_measure,
    make_cantor_measure,
    make_point_mass,
    make_random_cantor_measure,
    make_sphere_measure,
    mu_hat_on_lattice,
    save_measure,
)

from gridpoints import freq_mesh, ifftn_formula


def test_measure_validation():
    with pytest.raises(ValueError, match="shape"):
        DiscreteMeasure(dim=2, atoms=np.zeros((3, 1)), weights=np.full(3, 1 / 3))
    with pytest.raises(ValueError, match="nonnegative"):
        DiscreteMeasure(dim=1, atoms=np.zeros((2, 1)), weights=np.array([1.5, -0.5]))
    with pytest.raises(ValueError, match="sum to 1"):
        DiscreteMeasure(dim=1, atoms=np.zeros((2, 1)), weights=np.array([0.7, 0.7]))
    with pytest.raises(ValueError, match="need at least one atom"):
        DiscreteMeasure(dim=2, atoms=np.zeros((0, 2)), weights=np.zeros(0))


@pytest.mark.parametrize(
    "atoms, weights",
    [
        ([[0.0, 0.0], [np.nan, 1.0]], [0.5, 0.5]),
        ([[0.0, 0.0], [np.inf, 1.0]], [0.5, 0.5]),
        ([[0.0, 0.0], [1.0, -np.inf]], [0.5, 0.5]),
        # nan slips past both the sign and the unit-sum checks
        ([[0.0, 0.0], [1.0, 1.0]], [np.nan, 1.0]),
    ],
    ids=["nan-atom", "inf-atom", "minus-inf-atom", "nan-weight"],
)
def test_measure_rejects_non_finite_values(atoms, weights):
    with pytest.raises(ValueError, match="finite"):
        DiscreteMeasure(dim=2, atoms=np.array(atoms), weights=np.array(weights))


def test_constructor_validation():
    with pytest.raises(ValueError, match="d = 2 .* d = 3"):
        make_sphere_measure(4, 64)
    with pytest.raises(ValueError, match="n_atoms >= 16"):
        make_sphere_measure(2, 8)
    with pytest.raises(ValueError, match="contraction_ratio"):
        make_cantor_measure(0.6, 4)
    with pytest.raises(ValueError, match="levels"):
        make_cantor_measure(0.3, 0)
    with pytest.raises(ValueError, match="levels"):
        make_cantor_measure(0.3, 26)


def test_circle_measure_basic_shape():
    m = make_sphere_measure(2, 16)
    assert m.n_atoms == 16
    assert np.allclose(np.linalg.norm(m.atoms, axis=1), 1.0)
    assert np.all(m.weights == 1.0 / 16)


def test_point_mass_transform_is_one():
    pm = make_point_mass([0.0, 0.0])
    xi = np.array([[0.0, 0.0], [3.0, -1.0], [10.0, 7.5]])
    assert np.max(np.abs(fourier_transform_at(pm, xi) - 1.0)) < 1e-15


def test_transform_at_zero_is_total_mass():
    for m in (make_sphere_measure(2, 64), make_cantor_measure(1 / 3, 6)):
        xi = np.zeros((1, m.dim))
        assert fourier_transform_at(m, xi)[0] == pytest.approx(1.0, abs=1e-14)


def test_circle_transform_matches_bessel():
    # the equispaced rule is spectrally accurate well past the quoted
    # trust radius; probe random points of radius up to 100
    m = make_sphere_measure(2, 1024)
    rng = np.random.default_rng(0)
    ang = rng.uniform(0.0, 2.0 * np.pi, 200)
    rad = rng.uniform(0.0, 100.0, 200)
    xi = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    got = fourier_transform_at(m, xi)
    assert np.max(np.abs(got - special.j0(2.0 * np.pi * rad))) < 1e-6


def test_circle_transform_axis_point():
    m = make_sphere_measure(2, 1024)
    v = fourier_transform_at(m, np.array([[10.0, 0.0]]))[0]
    assert abs(v - special.j0(20.0 * np.pi)) < 1e-6


def test_transform_takes_one_flat_point_in_two_dimensions():
    # a flat array in d = 2 is one frequency point, not a list of them
    m = make_sphere_measure(2, 64)
    point = np.array([3.0, -1.5])
    assert fourier_transform_at(m, point).shape == (1,)
    assert fourier_transform_at(m, point)[0] == fourier_transform_at(m, point[None])[0]


def test_sphere_transform_matches_sinc():
    # surface measure of S^2 transforms to sin(2 pi R)/(2 pi R)
    rng = np.random.default_rng(1)
    for n, r_max, tol in ((4096, 8.0, 5e-4), (16384, 16.0, 1e-4)):
        m = make_sphere_measure(3, n)
        rad = np.linspace(0.5, r_max, 120)
        dirs = rng.standard_normal((120, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        got = fourier_transform_at(m, rad[:, None] * dirs)
        assert np.max(np.abs(got - np.sinc(2.0 * rad))) < tol


def test_cantor_transform_is_cosine_product():
    # |mu_hat(xi)| = prod_k |cos(pi (1-c) c^(k-1) xi)| for the level-L set
    for c, levels in ((1 / 3, 10), (1 / 4, 8), (1 / 2, 6)):
        m = make_cantor_measure(c, levels)
        xi = np.linspace(0.3, min(m.alias_radius, 200.0), 250)
        got = np.abs(fourier_transform_at(m, xi))
        k = np.arange(1, levels + 1)
        pred = np.prod(
            np.abs(np.cos(np.pi * np.outer(xi, (1.0 - c) * c ** (k - 1)))), axis=1
        )
        assert np.max(np.abs(got - pred)) < 1e-8


def test_half_ratio_cantor_is_uniform_mesh():
    m = make_cantor_measure(0.5, 3)
    assert np.allclose(np.sort(m.atoms.ravel()), np.arange(8) / 8.0 + 1.0 / 16.0)


def test_transform_modulus_bounded_by_one():
    m = make_cantor_measure(1 / 3, 8)
    xi = np.linspace(-50.0, 50.0, 1001)
    assert np.max(np.abs(fourier_transform_at(m, xi))) <= 1.0 + 1e-12


def test_transform_hermitian_symmetry():
    m = make_sphere_measure(2, 128)
    rng = np.random.default_rng(2)
    xi = rng.uniform(-5.0, 5.0, (50, 2))
    f_pos = fourier_transform_at(m, xi)
    f_neg = fourier_transform_at(m, -xi)
    assert np.max(np.abs(f_neg - np.conj(f_pos))) < 1e-12


def test_translation_changes_only_phase():
    base = make_cantor_measure(1 / 3, 6)
    shifted = DiscreteMeasure(
        dim=1, atoms=base.atoms + 0.37, weights=base.weights, label="shifted"
    )
    xi = np.linspace(0.5, 20.0, 100)
    a = fourier_transform_at(base, xi)
    b = fourier_transform_at(shifted, xi)
    assert np.max(np.abs(np.abs(a) - np.abs(b))) < 1e-12
    # and the phase factor is exactly exp(-2 pi i 0.37 xi)
    assert np.max(np.abs(b - a * np.exp(-2j * np.pi * 0.37 * xi))) < 1e-12


def test_transform_dimension_mismatch():
    m = make_sphere_measure(2, 64)
    with pytest.raises(ValueError, match="dimension"):
        fourier_transform_at(m, np.zeros((3, 3)))


def test_ball_profile_circle_is_one_regular():
    m = make_sphere_measure(2, 4096)
    prof = ball_regularity_profile(m, [2.0 ** (-k) for k in range(2, 9)])
    assert 0.9 <= prof.a_fit <= 1.1
    ratios = np.array(prof.max_ball_ratios)
    assert np.max(ratios) / np.min(ratios) < 1.3
    # the profile keeps the fit it clamps, residual and point count included
    assert prof.a_fit == min(max(prof.fit.slope, 0.0), 2.0)
    assert prof.fit.point_count == 7 and 0.0 < prof.fit.max_log_residual < 0.1


def test_ball_profile_cantor_matches_similarity_dimension():
    m = make_cantor_measure(1 / 3, 14)
    prof = ball_regularity_profile(m, [3.0 ** (-k) for k in range(2, 9)])
    assert abs(prof.a_fit - math.log(2.0) / math.log(3.0)) < 0.01
    ratios = np.array(prof.max_ball_ratios)
    assert np.max(ratios) / np.min(ratios) < 1.01


def test_ball_profile_quarter_ratio_cantor():
    m = make_cantor_measure(0.25, 8)
    prof = ball_regularity_profile(m, [4.0 ** (-k) for k in range(2, 7)])
    assert abs(prof.a_fit - 0.5) < 0.02


@pytest.mark.parametrize("dim", [1, 2])
def test_ball_profile_weighted_masses_match_brute_force(dim):
    # unequal weights take the weighted branch; the oracle sums the weight
    # of every atom within r of each atom, over all O(n^2) pairs
    rng = np.random.default_rng(dim)
    atoms = rng.uniform(0.0, 1.0, (60, dim))
    w = rng.uniform(0.1, 1.0, 60)
    m = DiscreteMeasure(dim=dim, atoms=atoms, weights=w / w.sum())
    radii = [0.5, 0.25, 0.125, 0.0625]
    prof = ball_regularity_profile(m, radii)
    d2 = np.sum((atoms[:, None, :] - atoms[None, :, :]) ** 2, axis=-1)
    brute = [np.max((d2 <= r * r) @ m.weights) for r in radii]
    masses = np.array(prof.max_ball_ratios) * np.array(prof.radii) ** prof.a_fit
    assert prof.radii == tuple(radii)
    assert np.allclose(masses, brute, rtol=1e-12, atol=0.0)


_BALL_RADII = [2.0**-k for k in range(1, 9)] + [3.0**-k for k in range(2, 9)]


@pytest.mark.parametrize(
    "measure",
    [
        make_sphere_measure(2, 8192),
        make_sphere_measure(3, 8192),
        make_cantor_measure(1 / 3, 14),
        make_cantor_measure(0.25, 10),
        make_random_cantor_measure(1 / 3, 14, seed=0),
    ],
    ids=lambda m: m.label,
)
def test_ball_counts_equal_the_kd_tree_counts_at_every_atom(measure):
    # the radii of criteria 3 (2^-1..2^-8) and 4 (3^-2..3^-8); the tree's
    # counts are the ones the pinned CSVs of both criteria were written from
    tree = cKDTree(measure.atoms)
    unit = np.ones(measure.n_atoms)
    for r in _BALL_RADII:
        expected = tree.query_ball_point(measure.atoms, r, return_length=True)
        assert np.array_equal(measures._ball_masses(measure.atoms, r, unit), expected), r


@st.composite
def _lattice_with_ties(draw):
    # atoms on the lattice 2^-m Z^d and a radius r = 2^-k: every difference
    # and square is exact, and some atoms sit at distance exactly r from
    # another along an axis, so that their test is d^2 == r * r
    dim = draw(st.integers(1, 3))
    m = draw(st.integers(0, 5))
    k = draw(st.integers(0, m))
    points = draw(st.lists(st.tuples(*[st.integers(-(2**m), 2**m)] * dim), min_size=1, max_size=60))
    atoms = np.array(points, dtype=float) / 2.0**m
    moved = atoms[: draw(st.integers(1, len(points)))].copy()
    moved[:, draw(st.integers(0, dim - 1))] += 2.0**-k
    return np.concatenate([atoms, moved]), 2.0**-k


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=_lattice_with_ties(), shift=st.sampled_from([0.0, 1.0, -7.0]))
def test_ball_counts_equal_the_kd_tree_counts_on_exact_ties(case, shift):
    atoms, r = case
    atoms = atoms + shift
    d2 = np.sum((atoms[:, None, :] - atoms[None, :, :]) ** 2, axis=-1)
    assert np.any(d2 == r * r)
    expected = cKDTree(atoms).query_ball_point(atoms, r, return_length=True)
    assert np.array_equal(measures._ball_masses(atoms, r, np.ones(len(atoms))), expected)
    assert np.array_equal(expected, np.count_nonzero(d2 <= r * r, axis=1))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(case=_lattice_with_ties())
def test_ball_counts_do_not_depend_on_the_chunk_size(case):
    # the chunk size sets only which atoms share a window and a band, so
    # every size, one atom a chunk and more than the atoms included, gives
    # the tree's counts
    atoms, r = case
    expected = cKDTree(atoms).query_ball_point(atoms, r, return_length=True)
    for chunk in (1, 7, 32, 64, 256):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measures, "_BALL_CHUNK", chunk)
            assert np.array_equal(measures._ball_masses(atoms, r, np.ones(len(atoms))), expected), chunk


def test_ball_profile_point_mass_clamps_to_zero():
    prof = ball_regularity_profile(make_point_mass([0.3]), [0.5, 0.25, 0.125])
    assert prof.a_fit == 0.0
    assert np.allclose(prof.max_ball_ratios, 1.0)


def test_ball_profile_radius_validation():
    m = make_sphere_measure(2, 64)
    with pytest.raises(ValueError, match="3 distinct radii"):
        ball_regularity_profile(m, [0.5, 0.25])
    with pytest.raises(ValueError, match="lie in"):
        ball_regularity_profile(m, [2.0, 0.5, 0.25])


def test_decay_profile_circle_has_half_power():
    m = make_sphere_measure(2, 8192)
    prof = fourier_decay_profile(m, [2.0**k for k in range(1, 9)])
    assert 0.45 <= prof.b_fit <= 0.55
    # the profile keeps its fit through (R, sup) with residual and point count
    assert prof.fit == loglog_fit(list(zip(prof.annulus_radii, prof.annulus_sups)))
    assert prof.b_fit == -prof.fit.slope and prof.fit.point_count == 8


def test_decay_profile_cantor_along_scaling_sequence_is_flat():
    # at xi = 3^m every factor with k <= m equals 1, so the sup along the
    # powers of three never decays
    m = make_cantor_measure(1 / 3, 16)
    prof = fourier_decay_profile(m, [3.0**k for k in range(0, 8)])
    assert prof.b_fit < 0.01
    sups = np.array(prof.annulus_sups)
    assert np.max(sups) / np.min(sups) < 1.01


def test_decay_profile_point_mass_has_no_decay():
    prof = fourier_decay_profile(make_point_mass([0.2]), [1.0, 2.0, 4.0, 8.0])
    assert prof.b_fit == 0.0
    assert np.allclose(prof.annulus_sups, 1.0, atol=1e-12)


def test_decay_profile_validation():
    m = make_sphere_measure(2, 256)
    with pytest.raises(ValueError, match="3 radii"):
        fourier_decay_profile(m, [1.0, 2.0])
    with pytest.raises(ValueError, match="increasing"):
        fourier_decay_profile(m, [4.0, 2.0, 1.0])
    with pytest.raises(ValueError, match="R >= 1"):
        fourier_decay_profile(m, [0.5, 2.0, 4.0])
    with pytest.raises(ValueError, match="aliasing radius"):
        fourier_decay_profile(m, [1.0, 2.0, 1e6])


def _random_measure(dim, n_atoms, seed, spread=1.0):
    """Atoms uniform in [-spread, spread]^dim with random positive weights."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 1.0, n_atoms)
    atoms = rng.uniform(-spread, spread, (n_atoms, dim))
    return DiscreteMeasure(dim=dim, atoms=atoms, weights=w / w.sum(), label="random")


def _assert_lattice_matches_direct_sum(measure, grid):
    # every point of the frequency lattice, the Nyquist hyperplanes
    # m_k = -N/2 included, against the direct sum
    lattice = mu_hat_on_lattice(measure, grid)
    assert lattice.shape == (grid.points_per_axis,) * grid.dim
    mesh = freq_mesh(grid)
    points = np.stack([m.ravel() for m in mesh], axis=1)
    direct = fourier_transform_at(measure, points).reshape(mesh[0].shape)
    assert np.max(np.abs(lattice - direct)) <= 1e-12


_LATTICE_CASES = [
    (make_cantor_measure(1 / 3, 6), GridSpec(1, 2.0, 64)),
    (make_sphere_measure(2, 64), GridSpec(2, 2.0, 32)),
    (make_sphere_measure(3, 64), GridSpec(3, 2.0, 8)),
    # odd atom counts and unequal weights
    (_random_measure(1, 63, 1), GridSpec(1, 1.5, 128)),
    (_random_measure(2, 65, 2), GridSpec(2, 2.0, 32)),
    (_random_measure(3, 33, 3), GridSpec(3, 1.0, 16)),
]
_LATTICE_IDS = ["d1-cantor", "d2-circle", "d3-sphere", "d1-random", "d2-random", "d3-random"]


@pytest.mark.parametrize("measure, grid", _LATTICE_CASES, ids=_LATTICE_IDS)
def test_mu_hat_on_lattice_matches_direct_sum(measure, grid):
    # the separable lattice contraction against its oracle, the direct sum
    _assert_lattice_matches_direct_sum(measure, grid)


@pytest.mark.parametrize("measure, grid", _LATTICE_CASES, ids=_LATTICE_IDS)
def test_mu_hat_on_lattice_is_exactly_conjugate_symmetric(measure, grid):
    # real weights: mu_hat(-xi) = conj(mu_hat(xi)) bit for bit wherever -xi
    # is on the lattice, i.e. off the hyperplanes m_k = -N/2 (index 0)
    lattice = mu_hat_on_lattice(measure, grid)
    inner = lattice[(slice(1, None),) * grid.dim]
    mirrored = lattice[(slice(None, 0, -1),) * grid.dim]
    assert np.array_equal(inner, np.conj(mirrored))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    dim=st.integers(1, 4),
    n_atoms=st.integers(1, 40),
    log2_points=st.integers(3, 5),
    half_width=st.floats(0.25, 4.0),
    spread=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_mu_hat_on_lattice_matches_direct_sum_on_random_measures(
    dim, n_atoms, log2_points, half_width, spread, seed
):
    # d = 4 on 8-point axes: the kernel loops over two trailing indices
    grid = GridSpec(dim, half_width, 1 << log2_points if dim < 4 else 8)
    _assert_lattice_matches_direct_sum(_random_measure(dim, n_atoms, seed, spread), grid)


def _peak_bytes(call):
    """call() and the peak of the memory it allocated beyond what was held
    before, by tracemalloc (numpy reports its buffers to it)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


def test_lattice_transform_peak_memory_stays_near_its_phase_matrices():
    # criterion 5's ratio, 2 atoms per axis point: 1024 atoms on 512^2. The
    # half-lattice contraction holds the first phase matrix (257 columns,
    # scaled in place), one column block of the last (the kernel builds its
    # 513 columns in blocks of 256 and 257) and the half lattice; then the
    # half and the full lattice. The whole last matrix would exceed the
    # bound by about 4 MB
    m = make_sphere_measure(2, 1024)
    grid = GridSpec(2, 2.0, 512)
    first, block = 16 * m.n_atoms * 257, 16 * m.n_atoms * 257
    half, lattice = 16 * 257 * 513, 16 * 512**2
    _, peak = _peak_bytes(lambda: mu_hat_on_lattice(m, grid))
    assert peak <= max(first + block + half, half + lattice) + 2**19


def _whole_last_matrix_half_lattice(measure, grid):
    # the half lattice of mu_hat_on_lattice as one GEMM against the whole
    # last phase matrix, as before the kernel built it in blocks
    h = grid.points_per_axis // 2
    fax = grid.freq_axis()
    full = np.append(fax, h * grid.freq_spacing)
    first = grids._phase_matrix(measure.atoms[:, 0], fax[: h + 1], -2j * np.pi)
    last = grids._phase_matrix(measure.atoms[:, 1], full, -2j * np.pi)
    return (first * measure.weights.astype(complex)[:, None]).T @ last


@pytest.mark.parametrize("block", [64, 16, 8], ids=["one-block", "two-blocks", "four-blocks"])
def test_blocked_lattice_transform_equals_the_whole_matrix_product_bit_for_bit(block, monkeypatch):
    # the last axis has 33 columns (N + 1 on 32-point axes): one block, or
    # two or four blocks whose 1-column remainder is merged into the last
    # (a 1-column block would be a GEMV, which rounds differently)
    monkeypatch.setattr(grids, "_PHASE_BLOCK", block)
    m = _random_measure(2, 65, 8)
    grid = GridSpec(2, 2.0, 32)
    n, h = 32, 16
    half = _whole_last_matrix_half_lattice(m, grid)
    lattice = mu_hat_on_lattice(m, grid)
    assert lattice[: h + 1].tobytes() == np.ascontiguousarray(half[:, :n]).tobytes()
    mirrored = np.conjugate(half[h - 1 : 0 : -1, n:0:-1])
    assert lattice[h + 1 :].tobytes() == mirrored.tobytes()


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_blocked_atom_sum_equals_the_whole_matrix_sum_bit_for_bit(dim, monkeypatch):
    # with more than two axes each column of the last matrix scales the
    # weights; built 4 columns at a time, it gives the sum's bits
    monkeypatch.setattr(grids, "_PHASE_BLOCK", 4)
    m = _random_measure(dim, 33, 9 + dim)
    axes = [np.linspace(-1.0, 1.0, 11)] * (dim - 1) + [np.linspace(-2.0, 1.0, 9)]
    coeffs = m.weights.astype(complex)
    got = measures._atom_sum(m.weights, m.atoms, axes, -1.0)
    whole = grids._separable_sum(coeffs, measures._phase_matrices(m.atoms, axes, -1.0))
    assert got.shape == tuple(len(ax) for ax in axes)
    assert got.tobytes() == whole.tobytes()


def test_mu_hat_on_lattice_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        mu_hat_on_lattice(make_sphere_measure(2, 64), GridSpec(1, 2.0, 64))


def test_dyadic_piece_rejects_mis_shaped_lattice():
    g = GridSpec(2, 2.0, 32)
    m = make_sphere_measure(2, 64)
    good = mu_hat_on_lattice(m, g)
    for bad in (good[:16], good.ravel(), good[:, :, None]):
        with pytest.raises(ValueError, match="frequency lattice"):
            dyadic_piece(m, 2, g, bad)
    # the lattice of a coarser grid has the wrong shape as well
    coarse = mu_hat_on_lattice(m, GridSpec(2, 2.0, 16))
    with pytest.raises(ValueError, match="frequency lattice"):
        dyadic_piece(m, 2, g, coarse)


def test_dyadic_piece_of_point_mass_is_pure_ring():
    # mu_hat = 1, so the localized lattice samples are exactly the ring
    g = GridSpec(1, 2.0, 128)
    m = make_point_mass([0.0])
    piece = dyadic_piece(m, 3, g, mu_hat_on_lattice(m, g))
    assert piece.sup_mu_hat_j == pytest.approx(1.0, abs=1e-15)
    ring = dyadic_ring(g.freq_axis() ** 2, 3)
    assert piece.sup_mu_j == float(np.abs(ifftn_formula(ring, g)).max())


@pytest.mark.parametrize(
    "measure, grid, J",
    [
        (_random_measure(1, 31, 4), GridSpec(1, 2.0, 256), 5),
        (make_sphere_measure(2, 128), GridSpec(2, 2.0, 64), 3),
        (_random_measure(2, 65, 5), GridSpec(2, 1.0, 64), 4),
        (_random_measure(3, 33, 6), GridSpec(3, 1.0, 16), 2),
    ],
    ids=["d1", "d2-circle", "d2-random", "d3"],
)
@pytest.mark.parametrize("ring_block", [measures._RING_BLOCK, 7], ids=["block", "row-blocks"])
def test_dyadic_piece_equals_full_lattice_product(measure, grid, J, ring_block, monkeypatch):
    # dyadic_piece multiplies only inside the box that holds the ring's
    # support, a block of the box's lines at a time inside the inverse
    # transform, and evaluates the ring ring_block points at a time; both
    # sups must be those of the full product and of its complex transform,
    # bit for bit (7-point pieces split the lines of every box but j = 0's)
    monkeypatch.setattr(measures, "_RING_BLOCK", ring_block)
    mu_hat = mu_hat_on_lattice(measure, grid)
    sq = grid.freq_axis() ** 2
    u = sq
    for _ in range(grid.dim - 1):
        u = np.add.outer(u, sq)
    for j in range(J + 1):
        full = mu_hat * dyadic_ring(u, j)
        piece = dyadic_piece(measure, j, grid, mu_hat)
        assert piece.sup_mu_hat_j == float(np.abs(full).max())
        assert piece.sup_mu_j == float(np.abs(ifftn_formula(full, grid)).max())


def test_dyadic_sweep_holds_only_the_transform_buffer_above_mu_hat():
    # beyond mu_hat, a piece holds the inverse transform's one buffer: the
    # larger of the moduli (half a complex lattice) and the box's lines,
    # then one block, the box's source block and one slab of 16 lines,
    # and its own float64 block of 16 box lines; never the localized
    # lattice (4 MiB here), which with the moduli would exceed the bound
    # at every scale
    m = make_sphere_measure(2, 1024)
    grid = GridSpec(2, 2.0, 512)
    n = grid.points_per_axis
    mu_hat = mu_hat_on_lattice(m, grid)
    sq = grid.freq_axis() ** 2
    for j in range(1, 7):
        box = int(np.count_nonzero(sq < 4.0**j))
        stages = 16 * (max(n * n // 2, n * box) + 3 * 16 * n) + 8 * 16 * box
        _, peak = _peak_bytes(lambda: dyadic_piece(m, j, grid, mu_hat))
        assert peak <= stages + 2**19


def test_dyadic_piece_resolution_check():
    g = GridSpec(1, 2.0, 128)  # Nyquist radius 16
    point = make_point_mass([0.0])
    lattice = mu_hat_on_lattice(point, g)
    with pytest.raises(ValueError, match="too coarse"):
        dyadic_piece(point, 5, g, lattice)
    with pytest.raises(ValueError, match="nonnegative"):
        dyadic_piece(point, -1, g, lattice)
    with pytest.raises(ValueError, match="dimension"):
        dyadic_piece(make_sphere_measure(2, 64), 2, g, lattice)


def test_save_load_round_trip(tmp_path):
    m = make_cantor_measure(1 / 3, 5)
    path = tmp_path / "atoms.txt"
    save_measure(m, path)
    back = load_measure(path)
    assert back.dim == m.dim
    assert back.label == m.label
    assert np.array_equal(back.atoms, m.atoms)
    assert np.array_equal(back.weights, m.weights)
    assert back.alias_radius == math.inf


def test_load_rejects_malformed_files(tmp_path):
    # the header message names the file, formatted in below
    header = "{}: the header must be `d n [label]` with integers d and n >= 1"
    cases = [
        ("1 3 short\n0.0 1.0\n", "announces"),
        ("2 1 cols\n0.0 1.0\n", "columns"),
        # an empty file, a one-token header, and zero atoms
        ("", header),
        ("2\n", header),
        ("1 0 x\n", header),
    ]
    for k, (text, message) in enumerate(cases):
        bad = tmp_path / ("bad%d.txt" % k)
        bad.write_text(text, encoding="ascii")
        with pytest.raises(ValueError, match=re.escape(message.format(bad))):
            load_measure(bad)


def test_load_rejects_non_finite_rows(tmp_path):
    path = tmp_path / "nan.txt"
    path.write_text("1 2 holes\n0.0 0.5\nnan 0.5\n", encoding="ascii")
    with pytest.raises(ValueError, match="finite"):
        load_measure(path)


def test_random_cantor_is_reproducible_and_valid():
    a = make_random_cantor_measure(1 / 3, 6, seed=5)
    b = make_random_cantor_measure(1 / 3, 6, seed=5)
    assert np.array_equal(a.atoms, b.atoms)
    assert a.n_atoms == 64
    assert np.all(a.atoms >= 0.0) and np.all(a.atoms <= 1.0)
