"""Oscillatory integral operators: quadrature paths, hypothesis checkers,
kernel decomposition, scaling experiments, and the phase type and its
coefficient-file loader."""

import dataclasses
import functools
import inspect
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restrictionlab import oscillatory as osc
from restrictionlab.fitting import loglog_fit
from restrictionlab.oscillatory import (
    ConditionReport,
    PhaseSpec,
    apply_T_lambda,
    apply_T_lambda_product,
    check_curvature_rank,
    check_fold,
    check_rank_mixed_hessian,
    constant_family,
    derivative_consistency,
    dyadic_kernel_entry,
    dyadic_kernel_sup,
    fold_scaling_family,
    parabola_scaling_family,
    phase_catalog,
    phase_factors,
    polynomial_phase_from_file,
    scaling_experiment,
    tstar_kernel_entry,
)

CAT = phase_catalog()
CAT1 = phase_catalog(1.0)


def _rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------- derivatives


def test_catalog_derivatives_match_finite_differences():
    for name, spec in CAT.items():
        worst = derivative_consistency(spec, n_probes=40)
        assert worst < 1e-6, "%s deviates by %g" % (name, worst)


# ------------------------------------------------------------ dense quadrature


def test_zero_phase_output_is_rank_one_and_lambda_free():
    spec = CAT1["zero"]
    y_axes = [np.linspace(-1.2, 1.2, 512)]
    x_axes = [np.linspace(-1.0, 1.0, 9), np.linspace(-1.0, 1.0, 9)]
    y = y_axes[0]
    f = np.exp(-3.0 * y**2)
    a = apply_T_lambda(spec, 10.0, f, y_axes, x_axes)
    b = apply_T_lambda(spec, 1000.0, f, y_axes, x_axes)
    assert np.array_equal(a, b)
    # output factors as zeta1(x) * integral(zeta2 f)
    dy = y[1] - y[0]
    from restrictionlab.bumps import bump

    weight = np.sum(bump(np.abs(y) / 1.0) * f) * dy
    X0, X1 = np.meshgrid(x_axes[0], x_axes[1], indexing="ij")
    pred = bump(np.sqrt(X0**2 + X1**2) / 1.0) * weight
    assert np.max(np.abs(a - pred)) < 1e-12


def test_dense_quadrature_is_linear():
    spec = CAT1["parabola"]
    y_axes = [np.linspace(-1.2, 1.2, 512)]
    x_axes = [np.linspace(-1.0, 1.0, 7), np.linspace(-1.0, 1.0, 7)]
    y = y_axes[0]
    f = np.exp(-(y**2)) + 0.3j * y
    g = np.cos(2.0 * y)
    lam = 30.0
    lhs = apply_T_lambda(spec, lam, 2.0 * f + g, y_axes, x_axes)
    rhs = (
        2.0 * apply_T_lambda(spec, lam, f, y_axes, x_axes)
        + apply_T_lambda(spec, lam, g, y_axes, x_axes)
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_stationary_phase_decay_rate():
    # at x = (0, 0.04) the phase x0 y + x1 y^2/2 has one nondegenerate
    # stationary point, so |T 1| ~ lambda^(-1/2)
    spec = CAT1["parabola"]
    y_axes = [np.linspace(-1.2, 1.2, 4096)]
    x_axes = [np.array([0.0, 0.01]), np.array([0.04, 0.05])]
    f = np.ones(4096)
    pts = []
    for k in range(6, 13):
        lam = 2.0**k
        fld = apply_T_lambda(spec, lam, f, y_axes, x_axes)
        pts.append((lam, abs(fld[0, 0])))
    fit = loglog_fit(pts)
    assert -0.65 <= fit.slope <= -0.35


def test_sup_bound_by_amplitude_mass():
    spec = CAT1["parabola"]
    y_axes = [np.linspace(-1.2, 1.2, 512)]
    x_axes = [np.linspace(-1.0, 1.0, 9), np.linspace(-1.0, 1.0, 9)]
    y = y_axes[0]
    rng = np.random.default_rng(0)
    f = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    fld = apply_T_lambda(spec, 40.0, f, y_axes, x_axes)
    dy = y[1] - y[0]
    X0, X1 = np.meshgrid(x_axes[0], x_axes[1], indexing="ij")
    xpts = np.stack([X0.ravel(), X1.ravel()], axis=1)
    amp_mass = max(np.sum(np.abs(spec.amp(x, y.reshape(-1, 1)))) * dy for x in xpts)
    assert np.abs(fld).max() <= np.abs(f).max() * amp_mass + 1e-12


def test_axis_count_validation():
    spec = CAT1["parabola"]
    with pytest.raises(ValueError, match="axis count"):
        apply_T_lambda(
            spec,
            10.0,
            np.ones(8),
            [np.linspace(-1, 1, 8)] * 2,
            [np.linspace(-1, 1, 8)] * 2,
        )
    # the fast path checks the same counts, with one y axis too many
    y_axes, x_axes = [np.linspace(-1, 1, 8)] * 2, [np.linspace(-1, 1, 8)] * 2
    with pytest.raises(ValueError, match="axis count"):
        phase_factors(spec, 10.0, y_axes, x_axes)
    factors = phase_factors(spec, 10.0, y_axes[:1], x_axes)
    with pytest.raises(ValueError, match="axis count"):
        apply_T_lambda_product(spec, [(np.ones(8), np.ones(8))], y_axes, x_axes, factors)


def test_resolution_guard_fires_for_coarse_grids():
    spec = CAT1["parabola"]
    y_axes = [np.linspace(-1.2, 1.2, 32)]
    x_axes = [np.linspace(-1.0, 1.0, 5), np.linspace(-1.0, 1.0, 5)]
    with pytest.raises(ValueError, match="under-resolved"):
        apply_T_lambda(spec, 1e5, np.ones(32), y_axes, x_axes)


# ------------------------------------------------------------------ fast path


# x1 y + x2 y^2/2 + x3 y^3/3: three x couplings on the one y axis
CUBIC = PhaseSpec(
    "cubic", 3, 1, [(1.0, (1, 0, 0), (1,)), (0.5, (0, 1, 0), (2,)), (1 / 3, (0, 0, 1), (3,))], 1.0
)


@st.composite
def separable_phases(draw):
    # a catalog phase or CUBIC, or a random term table in which every term
    # is linear in one x variable and touches at most one y axis
    if draw(st.booleans()):
        return draw(st.sampled_from([CAT1[name] for name in sorted(CAT1)] + [CUBIC]))
    x_dim, y_dim = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, x_dim - 1)), draw(st.integers(0, y_dim - 1))
        power = draw(st.integers(0, 3))
        px = tuple(int(k == i) for k in range(x_dim))
        py = tuple(power if k == j else 0 for k in range(y_dim))
        terms.append((draw(st.floats(-2.0, 2.0)), px, py))
    return PhaseSpec("random", x_dim, y_dim, terms, draw(st.floats(0.5, 1.5)))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    spec=separable_phases(),
    x_lens=st.lists(st.integers(2, 5), min_size=3, max_size=3),
    y_lens=st.lists(st.integers(8, 40), min_size=2, max_size=2),
    n_terms=st.integers(1, 3),
    resolved=st.floats(0.05, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
def test_fast_path_matches_dense_oracle(spec, x_lens, y_lens, n_terms, resolved, seed):
    # 1-3 random sampled product terms against the dense quadrature of the
    # sum of their outer products, at a lambda the y grid resolves (that
    # fraction of the largest one the 10-points-per-period rule admits)
    assert spec.separable is not None
    r = spec.amp_radius
    x_axes = [np.linspace(-1.1 * r, 1.1 * r, n) for n in x_lens[: spec.x_dim]]
    y_axes = [np.linspace(-1.2 * r, 1.2 * r, n) for n in y_lens[: spec.y_dim]]
    G = osc._max_y_gradient(spec, x_axes, y_axes)
    widest = max(y[1] - y[0] for y in y_axes)
    lam = 50.0 * resolved if G == 0.0 else resolved * 2.0 * np.pi / (10.0 * G * widest)
    rng = np.random.default_rng(seed)
    terms = [
        tuple(rng.standard_normal(len(y)) + 1j * rng.standard_normal(len(y)) for y in y_axes)
        for _ in range(n_terms)
    ]
    F = sum(functools.reduce(np.multiply.outer, term) for term in terms)
    dense = apply_T_lambda(spec, lam, F, y_axes, x_axes)
    fast = apply_T_lambda_product(spec, terms, y_axes, x_axes, phase_factors(spec, lam, y_axes, x_axes))
    assert np.max(np.abs(dense - fast)) < 1e-12


def test_fast_path_sums_terms():
    spec = CAT1["parabola"]
    y_axes = [np.linspace(-1.2, 1.2, 512)]
    x_axes = [np.linspace(-1.1, 1.1, 10)] * 2
    t1 = (np.exp(-(y_axes[0] ** 2)),)
    t2 = (np.cos(y_axes[0]),)
    factors = phase_factors(spec, 20.0, y_axes, x_axes)
    both = apply_T_lambda_product(spec, [t1, t2], y_axes, x_axes, factors)
    split = (
        apply_T_lambda_product(spec, [t1], y_axes, x_axes, factors)
        + apply_T_lambda_product(spec, [t2], y_axes, x_axes, factors)
    )
    assert np.max(np.abs(both - split)) < 1e-12


def test_fast_path_requires_separable_structure(tmp_path):
    # the cross term x1^2 y is not linear in x, so the phase has no fast path
    path = tmp_path / "square.phase"
    path.write_text("x_dim 2\ny_dim 1\nradius 1.0\nterm 1.0  1 0  1\nterm 1.0  2 0  1\n")
    spec = polynomial_phase_from_file(path)
    y_axes = [np.linspace(-1, 1, 64)]
    x_axes = [np.linspace(-1, 1, 8)] * 2
    with pytest.raises(ValueError, match="separable"):
        phase_factors(spec, 10.0, y_axes, x_axes)
    # factors built for a separable phase do not make this one separable
    factors = phase_factors(CAT1["parabola"], 10.0, y_axes, x_axes)
    with pytest.raises(ValueError, match="separable"):
        apply_T_lambda_product(spec, [(y_axes[0],)], y_axes, x_axes, factors)


@pytest.mark.parametrize("name", ["parabola", "fold-curved", "cone"])
def test_phase_factors_are_the_phase_matrices(name):
    spec = CAT1[name]
    y_axes = [np.linspace(-1.2, 1.2, 96 + 2 * j) for j in range(spec.y_dim)]
    x_axes = [np.linspace(-1.1, 1.1, 5 + i) for i in range(spec.x_dim)]
    factors = phase_factors(spec, 37.0, y_axes, x_axes)
    assert set(factors) == set(spec.separable)
    for (i, j), fn in spec.separable.items():
        expected = np.exp(1j * 37.0 * np.outer(x_axes[i], fn(y_axes[j])))
        assert np.array_equal(factors[(i, j)], expected)


@pytest.mark.parametrize("name", ["parabola", "fold-curved"])
def test_shared_factors_match_per_call_factors(name):
    # one factors dict serves every member and term at its lambda (the fold
    # family's random member has 9 product terms); the result is the same
    # array as building the factors afresh for each call
    spec = CAT1[name]
    lam = 64.0
    y_axes = [np.linspace(-1.2, 1.2, 512)] * spec.y_dim
    x_axes = [np.linspace(-1.1, 1.1, 12)] * spec.x_dim
    family = (parabola_scaling_family if spec.y_dim == 1 else fold_scaling_family)(seed=3)
    shared = phase_factors(spec, lam, y_axes, x_axes)
    kept = {key: U.copy() for key, U in shared.items()}
    for member in family(lam, y_axes):
        fresh = phase_factors(spec, lam, y_axes, x_axes)
        a = apply_T_lambda_product(spec, member, y_axes, x_axes, shared)
        b = apply_T_lambda_product(spec, member, y_axes, x_axes, fresh)
        assert np.array_equal(a, b)
    # the caller keeps the factors: the kernel never writes to them
    assert all(shared[key].tobytes() == kept[key].tobytes() for key in kept)


def test_fast_path_rejects_foreign_factors():
    spec = CAT1["fold-curved"]
    y_axes = [np.linspace(-1.2, 1.2, 128)] * 2
    x_axes = [np.linspace(-1.1, 1.1, 10)] * 2
    term = [(np.exp(-(y_axes[0] ** 2)), np.exp(-(y_axes[1] ** 2)))]
    good = phase_factors(spec, 20.0, y_axes, x_axes)
    missing = {k: v for k, v in good.items() if k != (1, 1)}
    with pytest.raises(ValueError, match="couplings"):
        apply_T_lambda_product(spec, term, y_axes, x_axes, missing)
    other_x = phase_factors(spec, 20.0, y_axes, [np.linspace(-1.1, 1.1, 11)] * 2)
    with pytest.raises(ValueError, match="shape"):
        apply_T_lambda_product(spec, term, y_axes, x_axes, other_x)
    other_y = phase_factors(spec, 20.0, [np.linspace(-1.2, 1.2, 130)] * 2, x_axes)
    with pytest.raises(ValueError, match="shape"):
        apply_T_lambda_product(spec, term, y_axes, x_axes, other_y)
    # another phase's couplings
    parabola = phase_factors(CAT1["parabola"], 20.0, y_axes[:1], x_axes)
    with pytest.raises(ValueError, match="couplings"):
        apply_T_lambda_product(spec, term, y_axes, x_axes, parabola)


@pytest.mark.parametrize("length", [1, 255], ids=["constant", "short"])
def test_fast_path_rejects_terms_of_another_length(length):
    # a length-1 term would broadcast against the amplitude as a constant
    spec = CAT1["parabola"]
    y_axes = [np.linspace(-1.2, 1.2, 256)]
    x_axes = [np.linspace(-1.1, 1.1, 10)] * 2
    factors = phase_factors(spec, 20.0, y_axes, x_axes)
    good = (np.exp(-(y_axes[0] ** 2)),)
    bad = (np.full(length, 2.0),)
    with pytest.raises(ValueError, match=r"y axis 0 have shape \(%d,\) but the axis has 256" % length):
        apply_T_lambda_product(spec, [good, bad], y_axes, x_axes, factors)


# ---------------------------------------------------------- hypothesis checks


def _probes(rng, x_dim, y_dim, n=5, r=0.05):
    return [(rng.uniform(-r, r, x_dim), rng.uniform(-r, r, y_dim)) for _ in range(n)]


def test_mixed_hessian_rank_of_catalog_phases():
    rng = np.random.default_rng(3)
    rep = check_rank_mixed_hessian(CAT["parabola"], _probes(rng, 2, 1))
    assert rep.verdict and all(r == 1 for r in rep.values)
    assert rep.condition == "mixed-hessian-rank>=1"
    rep3 = check_rank_mixed_hessian(CAT["cone"], _probes(rng, 3, 2))
    assert rep3.verdict and all(r == 2 for r in rep3.values)


def test_mixed_hessian_rank_detects_degeneracy():
    # phase x1 y^2/2 loses all coupling at y = 0
    spec = PhaseSpec("degenerate", 2, 1, [(0.5, (0, 1), (2,))], 0.09)
    x = np.array([0.02, 0.01])
    rep = check_rank_mixed_hessian(spec, [(x, np.array([0.0])), (x, np.array([0.03]))])
    assert rep.values[0] == 0 and not rep.verdict


def test_curvature_rank_catalog_verdicts():
    rng = np.random.default_rng(4)
    assert check_curvature_rank(CAT["parabola"], _probes(rng, 2, 1), 1).verdict
    probes3 = _probes(rng, 3, 2)
    assert check_curvature_rank(CAT["cone"], probes3, 1).verdict
    assert not check_curvature_rank(CAT["cone"], probes3, 2).verdict


def test_curvature_rank_rejects_ambiguous_kernel():
    # x is 3-dimensional but only x0 couples: kernel dimension 2
    spec = PhaseSpec("thin", 3, 2, [(1.0, (1, 0, 0), (1, 0))], 0.09)
    probes = [(np.array([0.01, 0.0, 0.0]), np.array([0.0, 0.0]))]
    with pytest.raises(ValueError, match="ambiguous"):
        check_curvature_rank(spec, probes, 1)


def test_curvature_rank_rejects_vanishing_hessian():
    probes = [(np.array([0.01, 0.01]), np.array([0.0]))]
    with pytest.raises(ValueError, match="vanishes"):
        check_curvature_rank(CAT["zero"], probes, 0)


def test_verdicts_invariant_under_rotation(tmp_path):
    rng = np.random.default_rng(5)
    probes = _probes(rng, 2, 1)
    Qx = _rotation(0.7)
    # the parabola x1 y + x2 y^2/2 precomposed with x -> Qx x, as a phase file
    c, s = float(np.cos(0.7)), float(np.sin(0.7))
    path = tmp_path / "rotated.phase"
    path.write_text(
        "x_dim 2\ny_dim 1\nradius 0.09\n"
        "term %r  1 0  1\nterm %r  0 1  1\nterm %r  1 0  2\nterm %r  0 1  2\n"
        % (c, -s, s / 2.0, c / 2.0)
    )
    rot = polynomial_phase_from_file(path)
    probes_rot = [(Qx.T @ x, y) for x, y in probes]
    r0 = check_rank_mixed_hessian(CAT["parabola"], probes)
    r1 = check_rank_mixed_hessian(rot, probes_rot)
    assert r0.values == r1.values and r0.verdict == r1.verdict
    c0 = check_curvature_rank(CAT["parabola"], probes, 1)
    c1 = check_curvature_rank(rot, probes_rot, 1)
    assert c0.values == c1.values and c0.verdict == c1.verdict


FOLD_PROBES = [
    (np.array([0.02, 0.03]), np.array([0.01, -0.05])),
    (np.array([0.02, 0.03]), np.array([0.01, 0.05])),
]


def test_fold_with_straight_singular_image_fails_curvature():
    rep = check_fold(CAT["fold-flat"], FOLD_PROBES, 1)
    assert not rep.verdict
    assert "1 singular points located" in rep.notes
    dval, sff_rank, curv = rep.values[0]
    # det d_xy = y1 for both fold phases and the kernel vector is (0, 1):
    # the exact gradient gives <b, grad_y det> = 1 to the last bit
    assert dval == 1.0 and sff_rank == 0 and curv < 1e-4


def test_fold_flat_passes_without_curvature_demand():
    assert check_fold(CAT["fold-flat"], FOLD_PROBES, 0).verdict


def test_fold_with_curved_singular_image_passes():
    rep = check_fold(CAT["fold-curved"], FOLD_PROBES, 1)
    assert rep.verdict
    dval, sff_rank, curv = rep.values[0]
    assert dval == 1.0 and sff_rank == 1 and curv > 0.5


# a square phase whose det d_xy is not a coordinate: off-diagonal and
# higher-order couplings; its fold crosses FOLD_PROBES too
FOLD_FILE = """x_dim 2
y_dim 2
radius 0.09
term 1.0  1 0  1 0
term 0.5  0 1  0 2
term 0.3  1 0  0 2
term 0.7  1 1  2 0
term 0.4  0 1  1 2
term 0.2  0 1  1 1
"""


def _fd_grad_y_det(spec, x, y, h=1e-5):
    # truncation error h^2/6 |d^3 det| ~ 1e-11 for FOLD_FILE's quartic det
    def det(yy):
        return np.linalg.det(spec.d_xy(x, yy))

    return np.array([(det(y + h * e) - det(y - h * e)) / (2 * h) for e in np.eye(spec.y_dim)])


def test_exact_fold_gradient_matches_central_differences(tmp_path):
    # Jacobi's formula on cofactors against differences of det d_xy, at
    # random points and at the singular points (det = 0) the check locates
    path = tmp_path / "fold-mixed.phase"
    path.write_text(FOLD_FILE)
    rng = np.random.default_rng(8)
    for spec in (CAT["fold-flat"], CAT["fold-curved"], polynomial_phase_from_file(path)):
        singular = check_fold(spec, FOLD_PROBES, 0).probes
        assert len(singular) == 1
        x0, y0 = (np.array(v) for v in singular[0])
        assert abs(np.linalg.det(spec.d_xy(x0, y0))) < 1e-15
        points = [(x0, y0)]
        points += [(rng.uniform(-0.09, 0.09, 2), rng.uniform(-0.09, 0.09, 2)) for _ in range(30)]
        for x, y in points:
            exact = osc._grad_y_det(spec, x, y)
            assert np.abs(exact - _fd_grad_y_det(spec, x, y)).max() < 1e-9


def test_fold_fails_where_the_determinant_gradient_vanishes():
    # det d_xy = y2^3/3 vanishes to third order on y2 = 0, so grad_y det is
    # zero at the singular point the fold probes of the CLI cross, and
    # |<b, grad_y det>| = 0 fails the nondegeneracy bound
    spec = PhaseSpec("cubic-fold", 2, 2, [(1.0, (1, 0), (1, 0)), (1 / 12, (0, 1), (0, 4))], 0.09)
    r = spec.amp_radius
    probes = [((0.2 * r, 0.5 * r), (0.1 * r, t)) for t in np.linspace(-r / 2, r / 2, 9)]
    rep = check_fold(spec, probes, 0)
    assert not rep.verdict
    assert rep.notes == "1 singular points located"
    assert rep.values[0][0] == 0.0


def test_fold_vacuous_when_no_singular_points():
    spec = PhaseSpec(
        "linear-square", 2, 2, [(1.0, (1, 0), (1, 0)), (1.0, (0, 1), (0, 1))], 0.09
    )
    rep = check_fold(spec, FOLD_PROBES, 1)
    assert rep.verdict
    assert "vacuous" in rep.notes


def test_fold_requires_square_phase():
    with pytest.raises(ValueError, match="square"):
        check_fold(CAT["parabola"], FOLD_PROBES, 1)


def test_fold_curvature_sampling_needs_two_dimensions():
    # x1 y1 + x2 y2 + x3 y3^2/2: det d_xy = y3, singular on y3 = 0, which the
    # middle probe hits; the singular image is sampled only for x_dim = 2
    spec = PhaseSpec(
        "cube", 3, 3, [(1.0, (1, 0, 0), (1, 0, 0)), (1.0, (0, 1, 0), (0, 1, 0)), (0.5, (0, 0, 1), (0, 0, 2))], 1.0
    )
    probes = [((0.1, 0.1, 0.1), (0.1, 0.1, t)) for t in np.linspace(-0.5, 0.5, 9)]
    with pytest.raises(NotImplementedError, match="x_dim = 2 only"):
        check_fold(spec, probes, kappa_target=1)
    report = check_fold(spec, probes, kappa_target=0)
    assert report.verdict and report.notes == "1 singular points located"


def _curve_scan(x, base, ghat):
    # one of check_fold's 17-point scans across the singular curve, at radius 0.09
    return [(x, base + s * ghat) for s in np.linspace(-0.09 / 4.0, 0.09 / 4.0, 17)]


def test_singular_scan_keeps_a_zero_at_a_sample_with_its_own_bits():
    # det d_xy = y2 for fold-flat; the scan's last sample lands on y2 = 0
    # exactly, and a zero at a sample is that sample's own point
    x = np.array([0.02, 0.03])
    curve = _curve_scan(x, np.array([0.01, -0.0225]), np.array([0.0, 1.0]))
    assert osc._det_xy(CAT["fold-flat"], *curve[-1]) == 0.0
    assert all(osc._det_xy(CAT["fold-flat"], *p) < 0 for p in curve[:-1])
    roots = osc._singular_points(CAT["fold-flat"], curve)
    assert len(roots) == 1 and roots[0][0] is x and roots[0][1] is curve[-1][1]
    # a zero at an inner sample, with a sign change across it
    probes = [FOLD_PROBES[0], (x, np.array([0.01, 0.0])), FOLD_PROBES[1]]
    roots = osc._singular_points(CAT["fold-flat"], probes)
    assert len(roots) == 1 and roots[0][1] is probes[1][1]


def test_singular_scan_bisects_a_sign_change_on_its_segment():
    # det = y2 changes sign between (0.01, -0.05) and (0.03, 0.03), whose
    # segment crosses y2 = 0 at the parameter 5/8, the point (0.0225, 0)
    x = np.array([0.02, 0.03])
    segment = [(x, np.array([0.01, -0.05])), (x, np.array([0.03, 0.03]))]
    roots = osc._singular_points(CAT["fold-flat"], segment)
    assert len(roots) == 1 and roots[0][0].tolist() == x.tolist()
    assert np.abs(roots[0][1] - [0.0225, 0.0]).max() < 1e-15


# det d_xy = y2^2 + e y2 + y1^2 - c^2 for the phase x1 y1 + x2 g(y) with
# g = y2^3/3 + e y2^2/2 + (y1^2 - c^2) y2: two singular branches
# y2 = (-e -+ sqrt(e^2 + 4 (c^2 - y1^2)))/2, whose images (y1, g) under
# gradient_x phi bend differently
TWO_ROOT_C, TWO_ROOT_E = 0.008, 0.004
TWO_ROOT = PhaseSpec(
    "two-root",
    2,
    2,
    [
        (1.0, (1, 0), (1, 0)),
        (1 / 3, (0, 1), (0, 3)),
        (TWO_ROOT_E / 2, (0, 1), (0, 2)),
        (1.0, (0, 1), (2, 1)),
        (-TWO_ROOT_C**2, (0, 1), (0, 1)),
    ],
    0.09,
)


def _two_root_image(y1, sign):
    c, e = TWO_ROOT_C, TWO_ROOT_E
    y2 = (-e + sign * np.sqrt(e * e + 4 * (c * c - y1 * y1))) / 2
    return np.array([y1, y2**3 / 3 + e * y2**2 / 2 + (y1**2 - c * c) * y2])


def test_singular_scan_finds_both_roots_and_the_fold_check_keeps_the_first():
    # both branches at y1 = 0, in scan order
    x = np.array([0.02, 0.03])
    roots = osc._singular_points(TWO_ROOT, _curve_scan(x, np.array([0.0, 0.0]), np.array([0.0, 1.0])))
    branch = [(-TWO_ROOT_E + sign * np.sqrt(TWO_ROOT_E**2 + 4 * TWO_ROOT_C**2)) / 2 for sign in (-1, 1)]
    assert len(roots) == 2 and [y[0] for _, y in roots] == [0.0, 0.0]
    assert np.abs([y[1] for _, y in roots] - np.array(branch)).max() < 1e-15
    # the probes cross the upper branch at y1 = 0, so the curve scans run
    # along y2 at y1 = -t; each crosses the lower branch first, and the
    # three scans with a root give the curvature of the lower branch's image
    rep = check_fold(TWO_ROOT, [(x, np.array([0.0, 0.0])), (x, np.array([0.0, 0.02]))], 0)
    assert rep.probes[0][1][0] == 0.0 and abs(rep.probes[0][1][1] - branch[1]) < 1e-15
    t = np.linspace(-0.09 / 4.0, 0.09 / 4.0, 9)[3:6]
    curv = {sign: osc._menger_curvature(*(_two_root_image(-v, sign) for v in t)) for sign in (-1, 1)}
    assert rep.values[0][2] == pytest.approx(curv[-1], rel=1e-9)
    assert abs(curv[-1] - curv[1]) > 0.1 * curv[-1]


@pytest.mark.parametrize(
    "name, kappa, verdict, singular",
    [
        ("fold-flat", 1, False, ((0.02, 0.03), (0.01, 0.0))),
        ("fold-curved", 1, True, ((0.02, 0.03), (0.01, 0.0))),
        ("fold-file", 0, True, ((0.02, 0.03), (0.01, -0.001983990968163707))),
        ("cubic-fold", 0, False, ((0.018, 0.045), (0.009, 0.0))),
    ],
    ids=["fold-flat", "fold-curved", "fold-file", "cubic-fold"],
)
def test_fold_check_singular_points_are_pinned(tmp_path, name, kappa, verdict, singular):
    # the verdict, notes and singular point of the fold test phases, bit for
    # bit, on the probes their tests use
    if name == "fold-file":
        path = tmp_path / "fold-mixed.phase"
        path.write_text(FOLD_FILE)
        spec, probes = polynomial_phase_from_file(path), FOLD_PROBES
    elif name == "cubic-fold":
        spec = PhaseSpec("cubic-fold", 2, 2, [(1.0, (1, 0), (1, 0)), (1 / 12, (0, 1), (0, 4))], 0.09)
        r = spec.amp_radius
        probes = [((0.2 * r, 0.5 * r), (0.1 * r, t)) for t in np.linspace(-r / 2, r / 2, 9)]
    else:
        spec, probes = CAT[name], FOLD_PROBES
    rep = check_fold(spec, probes, kappa)
    assert (rep.verdict, rep.notes, rep.probes) == (verdict, "1 singular points located", (singular,))


def test_condition_report_is_structured():
    rng = np.random.default_rng(6)
    rep = check_rank_mixed_hessian(CAT["parabola"], _probes(rng, 2, 1, n=3))
    assert isinstance(rep, ConditionReport)
    assert len(rep.probes) == 3 and len(rep.values) == 3
    # the report is its own verdict check
    assert rep.notes == "ranks 1,1,1"
    assert rep.check == (rep.condition, rep.verdict, rep.notes)


# --------------------------------------------------------- kernel decomposition


def test_kernel_entry_hermitian_symmetry():
    spec = CAT["parabola"]
    w = np.array([0.01, 0.02])
    z = np.array([0.01, -0.03])
    a = tstar_kernel_entry(spec, 40.0, w, z)
    b = tstar_kernel_entry(spec, 40.0, z, w)
    assert abs(a - np.conj(b)) < 1e-14


def test_dyadic_pieces_reconstruct_the_kernel():
    # summing near+far over j telescopes to the plain kernel entry once the
    # widest window covers the offset
    spec = CAT["parabola"]
    lam = 40.0
    w = np.array([0.01, 0.02])
    z = np.array([0.01, -0.03])
    K = tstar_kernel_entry(spec, lam, w, z)
    total = 0.0 + 0.0j
    for j in range(0, 4):
        near, far = dyadic_kernel_entry(spec, lam, j, w, z)
        total += near + far
    assert abs(total - K) < 1e-12


def test_kernel_sup_vanishes_beyond_support():
    spec = CAT["parabola"]
    # scale window beyond what the amplitude support allows
    assert dyadic_kernel_sup(spec, 1024.0, 9) == 0.0
    assert dyadic_kernel_sup(spec, 1024.0, 8) > 0.0
    with pytest.raises(ValueError, match="nonnegative"):
        dyadic_kernel_sup(spec, 64.0, -1)
    # 2^j beyond eps * lambda, with the window still inside the amplitude's
    # reach (3 * 2^{j-3} < 2 r lambda): zero by the second rule
    assert 3.0 * 2.0 ** (2 - 3) < 2.0 * spec.amp_radius * 10.0
    assert dyadic_kernel_sup(spec, 10.0, 2) == 0.0


def test_kernel_sup_samples_inside_the_support_off_the_plateau():
    # radius 0.05 at lambda = 35: the largest reachable offset 2 r lambda =
    # 3.5 lies below the window's plateau [4, 6] at j = 3, so the sup is
    # sampled between the window's lower edge 3 and that offset
    spec = phase_catalog(0.05)["parabola"]
    sup = dyadic_kernel_sup(spec, 35.0, 3)
    assert sup == pytest.approx(1.8031224124317377e-07, rel=1e-9)


def test_zero_phase_kernel_sup_is_lambda_independent():
    spec = CAT["zero"]
    a = dyadic_kernel_sup(spec, 64.0, 1)
    b = dyadic_kernel_sup(spec, 256.0, 1)
    assert a == pytest.approx(b, rel=1e-12)
    assert a > 0.0


def test_kernel_sup_decays_dyadically():
    # fixed lambda: pieces at larger separation scales are smaller sups
    spec = CAT["parabola"]
    lam = 600.0
    sups = [dyadic_kernel_sup(spec, lam, j) for j in (1, 4, 6)]
    assert sups[0] > sups[1] > sups[2] > 0.0


# ------------------------------------------------------------------- scaling


def test_zero_phase_scaling_is_flat():
    rep = scaling_experiment(
        CAT1["zero"],
        [8.0, 16.0, 32.0, 64.0],
        constant_family(1.0),
        q=2.0,
        s=2.0,
        x_points=48,
        y_points=512,
    )
    assert abs(rep.fit.slope) < 0.05
    assert rep.dropped == ()
    assert rep.target_slope == -1.0


def test_scaling_experiment_skips_members_of_zero_norm():
    # a zero member has no ratio; the others give the same sweep without it
    def with_zero(lam, y_axes):
        yield [tuple(np.zeros_like(y) for y in y_axes)]
        yield from constant_family(1.0)(lam, y_axes)

    run = functools.partial(
        scaling_experiment, CAT1["zero"], [8.0, 16.0, 32.0, 64.0], q=2.0, s=2.0, x_points=16, y_points=64
    )
    assert run(family=with_zero).ratios == run(family=constant_family(1.0)).ratios


def test_operator_norm_decays_with_lambda():
    # direct singular values of the dense kernel matrix: the L2 -> L2 norm
    # strictly decreases along a geometric lambda sweep
    spec = CAT1["parabola"]
    y = np.linspace(-1.2, 1.2, 512)
    dy = y[1] - y[0]
    xg = np.linspace(-1.1, 1.1, 20)
    dx = xg[1] - xg[0]
    X0, X1 = np.meshgrid(xg, xg, indexing="ij")
    xpts = np.stack([X0.ravel(), X1.ravel()], axis=1)
    Y = y.reshape(-1, 1)
    norms = []
    for lam in (50.0, 800.0):
        M = np.empty((xpts.shape[0], y.size), dtype=complex)
        for k, x in enumerate(xpts):
            M[k] = spec.amp(x, Y) * np.exp(1j * lam * spec.phase(x, Y))
        top = np.linalg.svd(M, compute_uv=False)[0]
        norms.append(top * np.sqrt(dx * dx * dy))
    assert norms[0] > norms[1] > 0.0


@pytest.mark.parametrize(
    "lams, message",
    [
        ([8.0, 16.0, 32.0], "4 lambda"),
        ([8.0, 16.0, 32.0, 70.0], "geometric"),
        ([0.0, 8.0, 16.0, 32.0], "finite and positive"),
        ([8.0, 16.0, 32.0, float("inf")], "finite and positive"),
    ],
)
def test_scaling_experiment_checks_lambdas_first(monkeypatch, lams, message):
    # too few, non-positive or non-geometric lambdas are rejected before
    # the gradient bound and the first phase matrices, so a bad list costs
    # no sweep
    def refuse(*args, **kwargs):
        pytest.fail("the sweep started despite a bad lambda list")

    monkeypatch.setattr(osc, "_max_y_gradient", refuse)
    monkeypatch.setattr(osc, "phase_factors", refuse)
    fam = constant_family(1.0)
    with pytest.raises(ValueError, match=message):
        scaling_experiment(CAT1["zero"], lams, fam, q=2.0, s=2.0, x_points=48, y_points=512)


def test_scaling_experiment_input_guards():
    fam = constant_family(1.0)
    sizes = {"x_points": 48, "y_points": 512}
    with pytest.raises(ValueError, match="4 lambda"):
        scaling_experiment(CAT1["zero"], [8.0, 16.0, 32.0], fam, q=2.0, s=2.0, **sizes)
    # coarse y grid: every lambda is dropped by the resolution rule
    with pytest.raises(ValueError, match="survive"):
        scaling_experiment(
            CAT1["parabola"],
            [1e4, 2e4, 4e4, 8e4],
            parabola_scaling_family(seed=0, radius=1.0),
            q=6.0,
            s=2.0,
            x_points=16,
            y_points=128,
        )
    # fewer than two points on an axis: rejected
    for points in (
        {"x_points": 1, "y_points": 512},
        {"x_points": 48, "y_points": 0},
        {"x_points": 0, "y_points": 64},
    ):
        with pytest.raises(ValueError, match=">= 2"):
            scaling_experiment(CAT1["zero"], [8.0, 16.0, 32.0, 64.0], fam, q=2.0, s=2.0, **points)


@pytest.mark.parametrize(
    "q, s, message",
    [
        (0.0, 2.0, "q must be finite and positive"),
        (-1.0, 2.0, "q must be finite and positive"),
        (float("inf"), 2.0, "q must be finite and positive"),
        (float("nan"), 2.0, "q must be finite and positive"),
        (2.0, 0.0, "s must be positive"),
        (2.0, -2.0, "s must be positive"),
        (2.0, float("nan"), "s must be positive"),
    ],
)
def test_scaling_experiment_checks_lorentz_exponents_first(monkeypatch, q, s, message):
    # the exponents are checked before the gradient bound and the first
    # phase matrices, so a bad pair costs no sweep
    def refuse(*args, **kwargs):
        pytest.fail("the sweep started despite a bad Lorentz exponent")

    monkeypatch.setattr(osc, "_max_y_gradient", refuse)
    monkeypatch.setattr(osc, "phase_factors", refuse)
    fam = constant_family(1.0)
    with pytest.raises(ValueError, match=message):
        scaling_experiment(
            CAT1["zero"], [8.0, 16.0, 32.0, 64.0], fam, q=q, s=s, x_points=48, y_points=512
        )


def test_family_members_are_reproducible():
    fam = parabola_scaling_family(seed=7, radius=1.0)
    y = np.linspace(-1.0, 1.0, 65)
    a = list(fam(64.0, [y]))
    b = list(fam(64.0, [y]))
    assert len(a) == len(b) == 6
    for ma, mb in zip(a, b):
        for ta, tb in zip(ma, mb):
            assert np.array_equal(ta[0], tb[0])
    fam2 = fold_scaling_family(seed=7, radius=1.0)
    members = list(fam2(64.0, [y, y]))
    assert len(members) == 6
    assert len(members[-1]) == 9  # random product member carries 3x3 terms


@pytest.mark.parametrize("lam", [16.0, 512.0])
def test_family_members_are_samples_on_the_y_axes(lam):
    # the family contract: family(lam, y_axes) yields its members one at a
    # time, and a member is a list of terms, each a tuple of 1-D arrays
    # with term[j] sampled on y_axes[j]
    cases = [
        (parabola_scaling_family(seed=1), 1),
        (fold_scaling_family(seed=1), 2),
        (constant_family(1.0), 1),
        (constant_family(1.0), 2),
    ]
    for family, y_dim in cases:
        y_axes = [np.linspace(-1.2, 1.2, 300 + 20 * j) for j in range(y_dim)]
        members = family(lam, y_axes)
        assert inspect.isgenerator(members)
        for member in members:
            assert isinstance(member, list) and member
            for term in member:
                assert isinstance(term, tuple) and len(term) == y_dim
                for v, y in zip(term, y_axes):
                    assert isinstance(v, np.ndarray) and v.shape == y.shape


# ------------------------------------------------------------- file loading


def _same_phase(a, b, rng, n=20):
    # the two specs agree point for point: phase, amplitude, derivatives,
    # and the separable couplings
    assert (a.x_dim, a.y_dim, a.amp_radius) == (b.x_dim, b.y_dim, b.amp_radius)
    assert set(a.separable) == set(b.separable)
    r = a.amp_radius
    for _ in range(n):
        x = rng.uniform(-r, r, a.x_dim)
        Y = rng.uniform(-1.2 * r, 1.2 * r, (16, a.y_dim))
        assert np.array_equal(a.phase(x, Y), b.phase(x, Y))
        assert np.array_equal(a.amp(x, Y), b.amp(x, Y))
        for d in ("d_x", "d_y", "d_xy", "d_xyy"):
            assert np.array_equal(getattr(a, d)(x, Y[0]), getattr(b, d)(x, Y[0])), d
        for key, fn in a.separable.items():
            assert np.array_equal(fn(Y[:, 0]), b.separable[key](Y[:, 0]))


# Each catalog phase written out by hand, with its separable couplings; the
# term tables must reproduce these bit for bit. fold-curved,
# x0 y0 + x1 (y0^2 + y1^2)/2, is written as the sum of its terms in the
# order the table adds them, because the factored form rounds differently.
CLOSED_FORMS = {
    "parabola": (
        lambda x, Y: x[0] * Y[:, 0] + x[1] * Y[:, 0] ** 2 / 2.0,
        {(0, 0): lambda t: t, (1, 0): lambda t: t**2 / 2.0},
    ),
    "cone": (
        lambda x, Y: x[0] * Y[:, 0] + x[1] * Y[:, 1] + x[2] * Y[:, 0] ** 2 / 2.0,
        {(0, 0): lambda t: t, (1, 1): lambda t: t, (2, 0): lambda t: t**2 / 2.0},
    ),
    "fold-flat": (
        lambda x, Y: x[0] * Y[:, 0] + x[1] * Y[:, 1] ** 2 / 2.0,
        {(0, 0): lambda t: t, (1, 1): lambda t: t**2 / 2.0},
    ),
    "fold-curved": (
        lambda x, Y: x[0] * Y[:, 0] + x[1] * Y[:, 0] ** 2 / 2.0 + x[1] * Y[:, 1] ** 2 / 2.0,
        {(0, 0): lambda t: t, (1, 0): lambda t: t**2 / 2.0, (1, 1): lambda t: t**2 / 2.0},
    ),
    "zero": (lambda x, Y: np.zeros(Y.shape[0]), {}),
}


@pytest.mark.parametrize("radius", [0.09, 1.0])
def test_catalog_term_tables_match_the_closed_forms(radius):
    cat = phase_catalog(radius)
    assert set(cat) == set(CLOSED_FORMS)
    rng = np.random.default_rng(8)
    for name, (phase, separable) in CLOSED_FORMS.items():
        spec = cat[name]
        assert spec.name == name and spec.amp_radius == radius
        assert set(spec.separable) == set(separable)
        for _ in range(20):
            x = rng.uniform(-radius, radius, spec.x_dim)
            Y = rng.uniform(-1.2 * radius, 1.2 * radius, (64, spec.y_dim))
            assert np.array_equal(spec.phase(x, Y), phase(x, Y)), name
            for key, fn in separable.items():
                assert np.array_equal(spec.separable[key](Y[:, 0]), fn(Y[:, 0])), (name, key)


def test_polynomial_file_reproduces_catalog_parabola(tmp_path):
    # the example of the README's "Phase files" section, so the format it
    # documents cannot drift
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.search(r"```\n(.*?)```", readme.split("### Phase files", 1)[1], re.S).group(1)
    path = tmp_path / "para.phase"
    path.write_text(example, encoding="ascii")
    spec = polynomial_phase_from_file(path)
    assert spec.name == "poly:para"
    assert (spec.x_dim, spec.y_dim) == (2, 1)
    assert spec.amp_radius == 1.0
    # the same value as the catalog's parabola, up to its name
    parabola = CAT1["parabola"]
    assert (spec.x_dim, spec.y_dim, spec.terms, spec.amp_radius) == (
        parabola.x_dim,
        parabola.y_dim,
        parabola.terms,
        parabola.amp_radius,
    )
    assert derivative_consistency(spec, n_probes=30) < 1e-6
    # point for point the catalog's parabola (whose term table is pinned to
    # the closed forms by test_catalog_term_tables_match_the_closed_forms)
    _same_phase(spec, CAT1["parabola"], np.random.default_rng(8))
    # fast path populated and equal to the dense one
    assert set(spec.separable) == {(0, 0), (1, 0)}
    y_axes = [np.linspace(-1.2, 1.2, 512)]
    x_axes = [np.linspace(-1.0, 1.0, 8)] * 2
    term = (np.exp(-y_axes[0] ** 2),)
    dense = apply_T_lambda(spec, 30.0, term[0], y_axes, x_axes)
    factors = phase_factors(spec, 30.0, y_axes, x_axes)
    fast = apply_T_lambda_product(spec, [term], y_axes, x_axes, factors)
    assert np.max(np.abs(dense - fast)) < 1e-12


def test_phase_is_a_value():
    # a phase is its term table and radius: two builds of the catalog are
    # equal and hash alike, and another radius is another phase
    assert [f.name for f in dataclasses.fields(PhaseSpec)] == [
        "name",
        "x_dim",
        "y_dim",
        "terms",
        "amp_radius",
    ]
    a, b = phase_catalog(1.0), phase_catalog(1.0)
    assert a == b
    assert [hash(spec) for spec in a.values()] == [hash(spec) for spec in b.values()]
    assert len(set(a.values()) | set(b.values())) == len(a)
    assert a["parabola"] != phase_catalog(0.09)["parabola"]
    # a table given as lists and ints is normalized to the same hashable value
    listed = PhaseSpec("parabola", 2.0, 1, [[1, [1, 0], [1]], [0.5, [0, 1], [2]]], 1)
    assert listed == a["parabola"] and hash(listed) == hash(a["parabola"])
    assert isinstance(listed.x_dim, int) and isinstance(listed.amp_radius, float)


@pytest.mark.parametrize(
    "x_dim, radius, terms, message",
    [
        (2, float("nan"), [], "radius must be finite and positive"),
        (2, float("inf"), [], "radius must be finite and positive"),
        (2, 0.0, [], "radius must be finite and positive"),
        (2, -1.0, [], "radius must be finite and positive"),
        (2, 1.0, [(float("nan"), (1, 0), (1,))], "coefficients must be finite"),
        (2, 1.0, [(float("-inf"), (1, 0), (1,))], "coefficients must be finite"),
        (2, 1.0, [(1.0, (1,), (1,))], "2 x powers and 1 y powers"),
        (2, 1.0, [(1.0, (1, -1), (1,))], "nonnegative"),
        (0, 1.0, [], "must be positive"),
    ],
)
def test_builder_rejects_bad_input(x_dim, radius, terms, message):
    with pytest.raises(ValueError, match=message):
        PhaseSpec("bad", x_dim, 1, terms, radius)


def test_polynomial_file_nonseparable_falls_back_to_dense(tmp_path):
    path = tmp_path / "mixed.phase"
    path.write_text(
        "x_dim 2\ny_dim 2\nradius 0.5\nterm 1.0  2 0  1 0\n", encoding="ascii"
    )
    spec = polynomial_phase_from_file(path)
    assert spec.separable is None
    assert derivative_consistency(spec, n_probes=20) < 1e-6


def test_polynomial_file_error_reporting(tmp_path):
    bad = tmp_path / "bad.phase"
    bad.write_text("x_dim 2\ny_dim 1\nterm 1.0 1 0\n", encoding="ascii")
    with pytest.raises(ValueError, match="line 3"):
        polynomial_phase_from_file(bad)
    bad2 = tmp_path / "bad2.phase"
    bad2.write_text("term 1.0 1\n", encoding="ascii")
    with pytest.raises(ValueError, match="must precede"):
        polynomial_phase_from_file(bad2)
    bad3 = tmp_path / "bad3.phase"
    bad3.write_text("x_dim 2\nwhat 4\n", encoding="ascii")
    with pytest.raises(ValueError, match="unknown directive"):
        polynomial_phase_from_file(bad3)
    empty = tmp_path / "empty.phase"
    empty.write_text("x_dim 2\ny_dim 1\n", encoding="ascii")
    with pytest.raises(ValueError, match="no term lines"):
        polynomial_phase_from_file(empty)
    undeclared = tmp_path / "undeclared.phase"
    undeclared.write_text("radius 0.5\n", encoding="ascii")
    with pytest.raises(ValueError, match="x_dim and y_dim must be declared"):
        polynomial_phase_from_file(undeclared)
