"""Oscillatory integral operators with curved and folding phases.

The central object is T f(x) = integral of zeta(x,y) exp(i lambda phi(x,y))
f(y) dy, realized by trapezoid-free uniform Riemann quadrature. The module
provides:

  * PhaseSpec: a polynomial phase as its term table and bump radius, a
    value that derives its phase, amplitude, power-rule derivatives and
    separable couplings (the built-in catalog and phase files alike), with
    a finite-difference consistency check;
  * hypothesis checkers: mixed-Hessian rank, curvature count along the
    kernel direction, and fold nondegeneracy with second-fundamental-form
    sampling of the singular image;
  * the dyadic pieces of the T T* kernel split by the distance
    |w_d - z_d| ~ 2^j / lambda, with their sup-norm scaling;
  * lambda-scaling experiments fitting the operator-norm decay rate
    against adapted slab families, whose test functions are their samples
    on the y axes.

Two quadrature paths coexist: a dense path (any sampled f, any phase;
cost grows with the full x-y product) and a fast path for phases whose
exponent is a sum of terms x_i * (function of a single y coordinate) and
whose amplitude factors across axes. The fast path reorganizes the same
Riemann sum by axis-separability, so the two agree to rounding; tests
cross-validate them. Its phase matrices exp(i lambda x_i (x) f_ij(y_j))
depend only on lambda and the grids: phase_factors builds them once, with
the phase-matrix builder of grids, and apply_T_lambda_product takes them
for every f at that lambda, given as per-axis samples. On each y axis it
runs the separable sum of grids, the kernel of the lattice transform, for
any number of x couplings.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .bumps import bump, kernel_ring, wide_plateau
from .fitting import FitResult, loglog_fit
from .grids import _phase_matrix, _separable_sum
from .lorentz import _check_exponents, _check_range, lorentz_norm_values

__all__ = [
    "PhaseSpec",
    "ConditionReport",
    "ScalingReport",
    "phase_catalog",
    "derivative_consistency",
    "apply_T_lambda",
    "phase_factors",
    "apply_T_lambda_product",
    "check_rank_mixed_hessian",
    "check_curvature_rank",
    "check_fold",
    "tstar_kernel_entry",
    "dyadic_kernel_entry",
    "dyadic_kernel_sup",
    "scaling_experiment",
    "parabola_scaling_family",
    "fold_scaling_family",
    "constant_family",
    "polynomial_phase_from_file",
]

FD_STEP = 1e-4
# relative singular-value cutoff of the rank checks
RANK_TOL = 1e-6
# the fold check's bound on |<b, grad_y det>| and its curve samples per point
FOLD_DERIV_TOL = 1e-4
FOLD_CURVE_SAMPLES = 9
# quadrature points per y axis of a T T* kernel entry, and the transverse
# scale epsilon of its near/far split
KERNEL_QUAD_POINTS = 2048
KERNEL_EPS = 0.3


@dataclass(frozen=True)
class PhaseSpec:
    """A polynomial phase with a radial bump amplitude: the sum over terms
    (coef, px, py) of coef * prod_i x_i^{px_i} * prod_j y_j^{py_j}.

    px holds one nonnegative integer power per x variable and py one per y
    variable; an empty term list is the zero phase. amp_radius must be
    finite and positive, every coefficient finite, and every term finite
    within twice amp_radius, which holds every grid and probe.

    phase(x, Y) and amp(x, Y) take one x point (shape (x_dim,)) and a batch
    of y points (shape (m, y_dim)) and return shape (m,). The derivatives
    come from the power rule and take single points (x, y): d_x -> (x_dim,),
    d_y -> (y_dim,), d_xy -> (x_dim, y_dim), d_xyy -> (x_dim, y_dim, y_dim).

    The amplitude is a product of bumps of support radius amp_radius in
    |x| and in every |y_j|; amp_x and amp_y are its per-axis factors.
    separable, when every term is linear in a single x variable and touches
    at most one y axis, expresses the phase as sum over (i, j) of
    x_i * separable[(i, j)](y_j); it enables the fast quadrature path.
    """

    name: str
    x_dim: int
    y_dim: int
    terms: Tuple[Tuple[float, Tuple[int, ...], Tuple[int, ...]], ...]
    amp_radius: float

    def __post_init__(self):
        x_dim = int(self.x_dim)
        y_dim = int(self.y_dim)
        if x_dim < 1 or y_dim < 1:
            raise ValueError("x_dim and y_dim must be positive, got %d and %d" % (x_dim, y_dim))
        radius = float(self.amp_radius)
        if not (math.isfinite(radius) and radius > 0):
            raise ValueError("radius must be finite and positive, got %r" % radius)
        terms = tuple((float(c), tuple(px), tuple(py)) for c, px, py in self.terms)
        for c, px, py in terms:
            if not math.isfinite(c):
                raise ValueError("term coefficients must be finite, got %r" % c)
            if len(px) != x_dim or len(py) != y_dim:
                raise ValueError("a term needs %d x powers and %d y powers" % (x_dim, y_dim))
            if any(p < 0 for p in px + py):
                raise ValueError("powers must be nonnegative")
            # every grid and probe lies within twice the radius, where each
            # term must be a finite float (a float ** raises on overflow)
            degree = sum(px + py)
            with np.errstate(over="ignore"):
                if not np.isfinite(c * np.float64(2.0 * radius) ** degree):
                    raise ValueError(
                        "radius %g: a term of degree %d overflows within twice the radius" % (radius, degree)
                    )
        object.__setattr__(self, "x_dim", x_dim)
        object.__setattr__(self, "y_dim", y_dim)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "amp_radius", radius)

    def phase(self, x, Y) -> np.ndarray:
        x = np.asarray(x, float)
        Y = np.asarray(Y, float)
        out = np.zeros(Y.shape[0])
        for c, px, py in self.terms:
            fac = c
            for i, p in enumerate(px):
                if p:
                    fac = fac * x[i] ** p
            term = np.full(Y.shape[0], fac)
            for j, p in enumerate(py):
                if p:
                    term = term * Y[:, j] ** p
            out += term
        return out

    def amp(self, x, Y) -> np.ndarray:
        x = np.asarray(x, float)
        Y = np.asarray(Y, float)
        zy = np.ones(Y.shape[0])
        for j in range(Y.shape[1]):
            zy = zy * bump(np.abs(Y[:, j]) / self.amp_radius)
        return bump(np.linalg.norm(x) / self.amp_radius) * zy

    def amp_x(self, pts) -> np.ndarray:
        return bump(np.linalg.norm(np.atleast_2d(pts), axis=-1) / self.amp_radius)

    def amp_y(self, t) -> np.ndarray:
        """The amplitude's factor on any one y axis."""
        return bump(np.abs(t) / self.amp_radius)

    def _derivatives(self, nx: int, ny: int, x, y) -> np.ndarray:
        # every derivative with nx x- and ny y-differentiations at (x, y), in
        # an array of shape (x_dim,) * nx + (y_dim,) * ny
        orders, shape = _derivative_orders(self.x_dim, self.y_dim, nx, ny)
        # scalar arithmetic is faster on Python floats than on numpy's
        x = [float(t) for t in x]
        y = [float(t) for t in y]
        values = []
        for ax, ay in orders:
            total = 0.0
            for c, px, py in self.terms:
                v = c
                for t, p, k in zip(x, px, ax):
                    v *= _dpow(t, p, k)
                for t, p, k in zip(y, py, ay):
                    v *= _dpow(t, p, k)
                total += v
            values.append(total)
        return np.array(values).reshape(shape)

    d_x = functools.partialmethod(_derivatives, 1, 0)
    d_y = functools.partialmethod(_derivatives, 0, 1)
    d_xy = functools.partialmethod(_derivatives, 1, 1)
    d_xyy = functools.partialmethod(_derivatives, 1, 2)

    @functools.cached_property
    def separable(self) -> Optional[Dict[Tuple[int, int], Callable]]:
        if not all(sum(px) == 1 for _, px, _ in self.terms) or not all(
            sum(1 for p in py if p) <= 1 for _, _, py in self.terms
        ):
            return None
        groups: Dict[Tuple[int, int], list] = {}
        for c, px, py in self.terms:
            i = px.index(1)
            nz = [j for j, p in enumerate(py) if p]
            j = nz[0] if nz else 0
            groups.setdefault((i, j), []).append((c, py[j]))
        return {key: _monomial_sum(parts) for key, parts in groups.items()}


def _central(fn, x, y, wrt: str) -> np.ndarray:
    # central differences of fn(x, y) in each coordinate of x (wrt "x") or
    # of y (wrt "y"), on a new last axis
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    diffs = []
    for e in np.eye(x.size if wrt == "x" else y.size) * FD_STEP:
        hi, lo = ((x + e, y), (x - e, y)) if wrt == "x" else ((x, y + e), (x, y - e))
        diffs.append((fn(*hi) - fn(*lo)) / (2 * FD_STEP))
    return np.stack(diffs, axis=-1)


def derivative_consistency(spec: PhaseSpec, n_probes: int = 100, seed: int = 0) -> float:
    """Max deviation of the derivative evaluators from finite differences,
    over random probes in the amplitude box: d_x and d_y against
    differences of the phase, d_xy against differences in y of those in x,
    d_xyy against differences of d_xy in y."""

    def phase(x, y):
        return spec.phase(x, y[None])[0]

    fd_x = functools.partial(_central, phase, wrt="x")
    rng = np.random.default_rng(seed)
    r = spec.amp_radius
    worst = 0.0
    for _ in range(int(n_probes)):
        x = rng.uniform(-r, r, spec.x_dim)
        y = rng.uniform(-r, r, spec.y_dim)
        for declared, fn, wrt in (
            (spec.d_x, phase, "x"),
            (spec.d_y, phase, "y"),
            (spec.d_xy, fd_x, "y"),
            (spec.d_xyy, spec.d_xy, "y"),
        ):
            worst = max(worst, float(np.abs(declared(x, y) - _central(fn, x, y, wrt)).max()))
    return worst


def _dpow(t: float, p: int, order: int) -> float:
    # order-th derivative of t^p at t, power rule
    if order > p:
        return 0.0
    c = 1.0
    for k in range(order):
        c *= p - k
    return c * t ** (p - order)


@functools.lru_cache(maxsize=64)
def _derivative_orders(x_dim: int, y_dim: int, nx: int, ny: int):
    # per entry of the derivative array, how often each x_i and each y_j is
    # differentiated, and the array's shape
    orders = tuple(
        (tuple(idx[:nx].count(i) for i in range(x_dim)), tuple(idx[nx:].count(j) for j in range(y_dim)))
        for idx in itertools.product(*[range(x_dim)] * nx + [range(y_dim)] * ny)
    )
    return orders, (x_dim,) * nx + (y_dim,) * ny


def _monomial_sum(parts) -> Callable:
    def fn(t, parts=tuple(parts)):
        t = np.asarray(t, float)
        out = np.zeros_like(t)
        for c, p in parts:
            out = out + c * t**p
        return out

    return fn


# (x_dim, y_dim, terms) of each built-in phase, in PhaseSpec's format
_CATALOG = {
    "parabola": (2, 1, [(1.0, (1, 0), (1,)), (0.5, (0, 1), (2,))]),
    "cone": (3, 2, [(1.0, (1, 0, 0), (1, 0)), (1.0, (0, 1, 0), (0, 1)), (0.5, (0, 0, 1), (2, 0))]),
    "fold-flat": (2, 2, [(1.0, (1, 0), (1, 0)), (0.5, (0, 1), (0, 2))]),
    "fold-curved": (2, 2, [(1.0, (1, 0), (1, 0)), (0.5, (0, 1), (2, 0)), (0.5, (0, 1), (0, 2))]),
    "zero": (2, 1, []),
}


def phase_catalog(amp_radius: float = 0.09) -> Dict[str, PhaseSpec]:
    """Built-in phases, each a PhaseSpec of its term table.

    parabola: x1 y + x2 y^2/2 (one curvature direction);
    cone: <x', y> + x3 y1^2/2 in d = 3 (one flat direction);
    fold-flat / fold-curved: square phases with a fold along y2 = 0 whose
    singular image is a line / a parabola;
    zero: no oscillation at all.

    The default support radius matches the kernel-decomposition experiments
    (epsilon = 0.3, radius epsilon^2); scaling experiments rebuild the
    catalog with unit radius so the lambda range is genuinely oscillatory.
    """
    return {
        name: PhaseSpec(name, x_dim, y_dim, terms, amp_radius)
        for name, (x_dim, y_dim, terms) in _CATALOG.items()
    }


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a hypothesis check over a probe set. probes holds the
    points checked (for check_fold, the singular points it located) and
    values one diagnostic per point; the verdict is the conjunction of the
    per-point checks at the check's fixed tolerance (RANK_TOL or
    FOLD_DERIV_TOL), and notes sums the values up in words."""

    condition: str
    probes: tuple
    values: tuple
    verdict: bool
    notes: str

    @property
    def check(self) -> Tuple[str, bool, str]:
        """The report as one verdict check: (condition, verdict, notes)."""
        return self.condition, self.verdict, self.notes


def _numeric_rank(M: np.ndarray) -> int:
    sv = np.linalg.svd(np.atleast_2d(M), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_TOL * sv[0]))


def _rank_report(name: str, target: int, probes: Sequence, ranks: List[int], extra="") -> ConditionReport:
    # extra is appended to the notes
    return ConditionReport(
        condition="%s>=%d" % (name, target),
        probes=tuple((tuple(np.atleast_1d(x)), tuple(np.atleast_1d(y))) for x, y in probes),
        values=tuple(ranks),
        verdict=bool(all(r >= target for r in ranks)),
        notes="ranks " + ",".join(str(v) for v in ranks) + extra,
    )


def check_rank_mixed_hessian(spec: PhaseSpec, probes: Sequence) -> ConditionReport:
    """Numeric rank of the mixed second derivative matrix at each probe;
    passes when every rank reaches x_dim - 1."""
    ranks = [_numeric_rank(spec.d_xy(np.asarray(x, float), np.asarray(y, float))) for x, y in probes]
    return _rank_report("mixed-hessian-rank", spec.x_dim - 1, probes, ranks)


def check_curvature_rank(spec: PhaseSpec, probes: Sequence, kappa_target: int) -> ConditionReport:
    """Curvature count: at each probe, take the one-dimensional left kernel
    direction u of the mixed Hessian and report the rank of the y-Hessian
    of <u, gradient_x phi>; passes when rank >= kappa_target everywhere.

    A probe where the mixed Hessian vanishes or its left kernel is not
    one-dimensional (at the tolerance) violates the hypothesis: it has no
    kernel direction and counts as rank 0, and the notes then give every
    probe's kernel dimension."""
    ranks = []
    kernels = []
    for x, y in probes:
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        M = spec.d_xy(x, y)
        rank = _numeric_rank(M)
        kernels.append(spec.x_dim - rank)
        if rank == 0 or kernels[-1] != 1:
            ranks.append(0)
            continue
        u = np.linalg.svd(M)[0][:, rank]
        H = np.einsum("i,ijk->jk", u, spec.d_xyy(x, y))
        ranks.append(_numeric_rank(H))
    extra = "" if all(k == 1 for k in kernels) else "; kernel dimensions " + ",".join(str(k) for k in kernels)
    return _rank_report("curvature-rank", kappa_target, probes, ranks, extra)


def _det_xy(spec: PhaseSpec, x: np.ndarray, y: np.ndarray) -> float:
    return float(np.linalg.det(spec.d_xy(x, y)))


def _grad_y_det(spec: PhaseSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """grad_y det(d_xy) by Jacobi's formula, sum_ij cof(M)_ij d_xyy[i, j, :].
    Cofactors, not the inverse: det M = 0 at the points the fold check visits."""
    M = spec.d_xy(x, y)
    n = M.shape[0]
    cof = np.empty_like(M)
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(M, i, axis=0), j, axis=1)
            cof[i, j] = (-1.0) ** (i + j) * np.linalg.det(minor)
    return np.einsum("ij,ijk->k", cof, spec.d_xyy(x, y))


def _bisect_root(fn, lo: float, hi: float) -> float:
    flo = fn(lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _singular_points(spec: PhaseSpec, pts: Sequence) -> List[Tuple[np.ndarray, np.ndarray]]:
    """The zeros of det d_xy along the polyline through the points (x, y),
    in order: a point where |det| < 1e-14 is a zero, kept with its own bits,
    and a sign change between consecutive points is bisected on their
    segment's parameter in [0, 1]. A zero within 1e-8 of a kept one is
    dropped."""
    dets = [_det_xy(spec, x, y) for x, y in pts]
    found = []
    for k, ((x0, y0), f0) in enumerate(zip(pts, dets)):
        if abs(f0) < 1e-14:
            found.append((x0, y0))
        elif k + 1 < len(pts) and f0 * dets[k + 1] < 0:
            x1, y1 = pts[k + 1]
            t = _bisect_root(lambda t: _det_xy(spec, x0 + t * (x1 - x0), y0 + t * (y1 - y0)), 0.0, 1.0)
            found.append((x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
    kept: List[Tuple[np.ndarray, np.ndarray]] = []
    for x, y in found:
        if all(np.linalg.norm(y - yk) + np.linalg.norm(x - xk) > 1e-8 for xk, yk in kept):
            kept.append((x, y))
    return kept


def _menger_curvature(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    area2 = abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
    denom = np.linalg.norm(b - a) * np.linalg.norm(c - b) * np.linalg.norm(c - a)
    return 0.0 if denom == 0 else float(2.0 * area2 / denom)


def check_fold(spec: PhaseSpec, probes: Sequence, kappa_target: int) -> ConditionReport:
    """Fold nondegeneracy for square phases (y_dim == x_dim).

    Scans the probe list for zeros of det of the mixed Hessian
    (_singular_points) to locate singular points. At each: the kernel
    vector b (smallest right singular direction) must satisfy
    |<b, grad_y det>| > FOLD_DERIV_TOL, with grad_y det exact (Jacobi's
    formula on the cofactors of d_xy and on d_xyy, no differencing), and
    the image of the nearby singular set under gradient_x phi must have
    second-fundamental-form rank at least kappa_target (estimated from
    triple curvatures of FOLD_CURVE_SAMPLES points of the singular curve,
    each the first zero of a 17-point scan across it; x_dim = 2
    supported). No singular points at all yields a vacuous pass.
    """
    if spec.y_dim != spec.x_dim:
        raise ValueError("fold check needs a square phase (y_dim == x_dim)")
    pts = [(np.asarray(x, float), np.asarray(y, float)) for x, y in probes]
    singular = _singular_points(spec, pts)
    if not singular:
        return ConditionReport(
            condition="fold-nondegeneracy",
            probes=tuple((tuple(x), tuple(y)) for x, y in pts),
            values=(),
            verdict=True,
            notes="fold hypothesis vacuous here: no singular points located",
        )
    values = []
    ok = True
    r = spec.amp_radius
    for x, y in singular:
        M = spec.d_xy(x, y)
        _, _, Vt = np.linalg.svd(M)
        b = Vt[-1]
        grad = _grad_y_det(spec, x, y)
        dval = float(abs(b @ grad))
        if dval <= FOLD_DERIV_TOL:
            ok = False
        # sample the singular curve near y and push it through gradient_x phi
        sff_rank = 0
        curv = 0.0
        if spec.x_dim == 2 and np.linalg.norm(grad) > 0:
            ghat = grad / np.linalg.norm(grad)
            tang = np.array([-ghat[1], ghat[0]])
            image = []
            for t in np.linspace(-r / 4.0, r / 4.0, FOLD_CURVE_SAMPLES):
                base = y + t * tang
                curve = [(x, base + s * ghat) for s in np.linspace(-r / 4.0, r / 4.0, 17)]
                roots = _singular_points(spec, curve)
                if roots:
                    image.append(spec.d_x(x, roots[0][1]))
            if len(image) >= 3:
                curv = max(
                    _menger_curvature(image[k], image[k + 1], image[k + 2])
                    for k in range(len(image) - 2)
                )
                sff_rank = 1 if curv > 1e-4 else 0
        elif kappa_target > 0:
            raise NotImplementedError(
                "second-fundamental-form sampling implemented for x_dim = 2 only"
            )
        if sff_rank < kappa_target:
            ok = False
        values.append((dval, sff_rank, curv))
    return ConditionReport(
        condition="fold-nondegeneracy+curvature>=%d" % kappa_target,
        probes=tuple((tuple(x), tuple(y)) for x, y in singular),
        values=tuple(values),
        verdict=ok,
        notes="%d singular points located" % len(singular),
    )


def _mesh(axes: Sequence[np.ndarray]) -> np.ndarray:
    # the tensor grid of the axes as points, shape (n_points, len(axes))
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


def _y_mesh(y_axes: Sequence[np.ndarray]) -> Tuple[np.ndarray, float]:
    return _mesh(y_axes), float(np.prod([ax[1] - ax[0] for ax in y_axes]))


def _max_y_gradient(
    spec: PhaseSpec, x_axes: Sequence[np.ndarray], y_axes: Sequence[np.ndarray]
) -> float:
    def probe(ax):
        # about 7 points per axis
        return ax if len(ax) <= 7 else ax[:: max(1, len(ax) // 7)]

    ypts = _mesh([probe(ay) for ay in y_axes])
    G = 0.0
    for x in _mesh([probe(ax) for ax in x_axes]):
        mask = spec.amp(x, ypts) > 0
        for y in ypts[mask]:
            G = max(G, float(np.linalg.norm(spec.d_y(x, y))))
    return G


def _under_resolved(G: float, lam: float, y_axes) -> Optional[str]:
    """Why the y grid fails the 10-points-per-period rule at lam, or None
    when it passes: its widest spacing must be at most 2 pi / (10 lam G),
    for the gradient bound G = _max_y_gradient(...), which depends on the
    phase and the grids only."""
    worst = max(float(ax[1] - ax[0]) for ax in y_axes)
    required = 2.0 * np.pi / (10.0 * lam * G) if G else math.inf
    return None if worst <= required else "spacing %g > required %g" % (worst, required)


def _check_axes(spec: PhaseSpec, y_axes: Sequence, x_axes: Sequence) -> None:
    if len(y_axes) != spec.y_dim or len(x_axes) != spec.x_dim:
        raise ValueError("axis count does not match the phase dimensions")


def apply_T_lambda(
    spec: PhaseSpec,
    lam: float,
    f_values: np.ndarray,
    y_axes: Sequence[np.ndarray],
    x_axes: Sequence[np.ndarray],
) -> np.ndarray:
    """Dense quadrature of the oscillatory operator at every x lattice point,
    as an array on the tensor grid of x_axes.

    f_values are samples of f on the tensor grid of y_axes. The y spacing
    must put at least 10 quadrature points per oscillation period
    (spacing <= 2 pi / (10 lambda G), G the amplitude-supported max of
    |grad_y phase|); a coarser grid is rejected.
    """
    _check_axes(spec, y_axes, x_axes)
    reason = _under_resolved(_max_y_gradient(spec, x_axes, y_axes), lam, y_axes)
    if reason:
        raise ValueError("y grid under-resolved for lambda=%g: %s" % (lam, reason))
    f = np.asarray(f_values)
    ypts, cell = _y_mesh(y_axes)
    ff = f.ravel()
    xpts = _mesh(x_axes)
    out = np.empty(xpts.shape[0], dtype=complex)
    for k, x in enumerate(xpts):
        integrand = spec.amp(x, ypts) * np.exp(1j * lam * spec.phase(x, ypts)) * ff
        out[k] = integrand.sum() * cell
    return out.reshape(tuple(len(ax) for ax in x_axes))


def phase_factors(
    spec: PhaseSpec,
    lam: float,
    y_axes: Sequence[np.ndarray],
    x_axes: Sequence[np.ndarray],
) -> Dict[Tuple[int, int], np.ndarray]:
    """The fast path's phase matrices exp(i lam x_axes[i] (x) f_ij(y_axes[j])),
    one per coupling (i, j) of spec.separable, each of shape
    (len(x_axes[i]), len(y_axes[j])).

    They depend on lam and the grids only, so one build serves every f that
    apply_T_lambda_product is given at this lam. grids._phase_matrix builds
    each in place in one complex buffer.
    """
    if spec.separable is None:
        raise ValueError("phase lacks the separable structure for the fast path")
    _check_axes(spec, y_axes, x_axes)
    return {
        (i, j): _phase_matrix(x_axes[i], fn(y_axes[j]), 1j * lam)
        for (i, j), fn in spec.separable.items()
    }


def apply_T_lambda_product(
    spec: PhaseSpec,
    terms: Sequence[Tuple[np.ndarray, ...]],
    y_axes: Sequence[np.ndarray],
    x_axes: Sequence[np.ndarray],
    factors: Dict[Tuple[int, int], np.ndarray],
) -> np.ndarray:
    """Fast path: same Riemann sum as apply_T_lambda, reorganized for
    separable phases and amplitudes, for f given as a sum of per-axis
    products, as an array on the tensor grid of x_axes. terms is a list of
    tuples of 1-D samples, term[j] on y_axes[j] with one sample per point
    of that axis (checked), as the scaling families yield them; factors is
    phase_factors(spec, lam, y_axes, x_axes), which fixes lambda. The
    amplitude is sampled once per y axis for all terms.

    Precondition, not checked here: the y grid resolves that lambda by
    apply_T_lambda's 10-points-per-period rule. scaling_experiment applies
    the rule before it calls this.
    """
    if spec.separable is None:
        raise ValueError("phase lacks the separable structure for the fast path")
    _check_axes(spec, y_axes, x_axes)
    if set(factors) != set(spec.separable):
        raise ValueError(
            "phase factors cover couplings %s but the phase has %s"
            % (sorted(factors), sorted(spec.separable))
        )
    for (i, j), U in factors.items():
        if np.shape(U) != (len(x_axes[i]), len(y_axes[j])):
            raise ValueError(
                "phase factor %s has shape %s but the grids need (%d, %d)"
                % ((i, j), np.shape(U), len(x_axes[i]), len(y_axes[j]))
            )
    shape = tuple(len(ax) for ax in x_axes)
    # per y axis: the matrices of the x axes it couples to, ascending, with
    # rows along y as the separable sum takes them, and the broadcast shape
    # of its sum over the x lattice
    coupled = [[i for i, jj in sorted(factors) if jj == j] for j in range(spec.y_dim)]
    mats = [[factors[(i, j)].T for i in xs] for j, xs in enumerate(coupled)]
    shapes = [[n if i in xs else 1 for i, n in enumerate(shape)] for xs in coupled]
    amps = [(spec.amp_y(y), float(y[1] - y[0])) for y in y_axes]
    out = np.zeros(shape, dtype=complex)
    for term in terms:
        acc = None
        for j, (amp, dy) in enumerate(amps):
            # a shorter array would broadcast, a length-1 one as a constant
            if np.shape(term[j]) != amp.shape:
                raise ValueError(
                    "term samples on y axis %d have shape %s but the axis has %d points"
                    % (j, np.shape(term[j]), amp.size)
                )
            w = amp * term[j] * dy
            arr = np.reshape(_separable_sum(w, mats[j]), shapes[j])
            acc = arr if acc is None else acc * arr
        out = out + acc
    return out * spec.amp_x(_mesh(x_axes)).reshape(shape)


def tstar_kernel_entry(spec: PhaseSpec, lam: float, w, z) -> complex:
    """One entry K(w, z) of the T T* kernel: the y integral of
    zeta(w,y) conj(zeta(z,y)) exp(i lam (phi(w,y) - phi(z,y))), by Riemann
    quadrature on KERNEL_QUAD_POINTS points per y axis over the amplitude box."""
    w = np.asarray(w, float)
    z = np.asarray(z, float)
    r = spec.amp_radius
    axes = [np.linspace(-r, r, KERNEL_QUAD_POINTS) for _ in range(spec.y_dim)]
    ypts, cell = _y_mesh(axes)
    vals = (
        spec.amp(w, ypts)
        * np.conj(spec.amp(z, ypts))
        * np.exp(1j * lam * (spec.phase(w, ypts) - spec.phase(z, ypts)))
    )
    return complex(vals.sum() * cell)


def dyadic_kernel_entry(spec: PhaseSpec, lam: float, j: int, w, z) -> Tuple[complex, complex]:
    """The scale-j near and far kernel pieces at (w, z).

    The T T* kernel is cut by a dyadic window in lam |w_d - z_d| at scale
    2^j, then split by whether the transverse offset |w' - z'| is small
    (<= ~ KERNEL_EPS 2^j / lam, the near piece, which carries the
    stationary-phase decay) or not (the far piece). Summing both pieces
    over j telescopes back to the kernel exactly.
    """
    w = np.asarray(w, float)
    z = np.asarray(z, float)
    K = tstar_kernel_entry(spec, lam, w, z)
    ring = float(kernel_ring(lam * (w[-1] - z[-1]), j))
    perp = float(np.linalg.norm(w[:-1] - z[:-1]))
    near = float(wide_plateau(lam * perp / (KERNEL_EPS * 2.0**j)))
    return K * ring * near, K * ring * (1.0 - near)


def dyadic_kernel_sup(spec: PhaseSpec, lam: float, j: int) -> float:
    """Max of the near piece |S_j| over a sample of the supporting slab
    lam |w_d - z_d| ~ 2^j, |w' - z'| <= 3 eps 2^j / (4 lam), eps = KERNEL_EPS.

    Identically zero once the dyadic window's support outruns the largest
    offset the amplitude allows (lower window edge 3*2^{j-3} above
    2 * amp_radius * lam), and in particular whenever 2^j > eps * lam for
    the default radius epsilon^2.
    """
    j = int(j)
    if j < 0:
        raise ValueError("j must be nonnegative")
    r = spec.amp_radius
    if j >= 1 and 3.0 * 2.0 ** (j - 3) >= 2.0 * r * lam:
        return 0.0
    if 2.0**j > KERNEL_EPS * lam:
        return 0.0
    # offsets on the window plateau when reachable, else inside the support
    plateau = [2.0 ** (j - 1), 2.5 * 2.0 ** (j - 2), 3.0 * 2.0 ** (j - 2)]
    reach = 2.0 * r * lam
    tvals = [t for t in plateau if t < reach] or list(
        np.linspace(3.0 * 2.0 ** (j - 3), min(2.0**j, reach), 7)[1:-1]
    )
    perp_max = 0.75 * KERNEL_EPS * 2.0**j / lam
    perps = [0.0, 0.5 * perp_max, 0.99 * perp_max]
    bases = [-r / 2.0, 0.0, r / 3.0]
    best = 0.0
    e_first, e_last = np.eye(spec.x_dim)[[0, -1]]
    for t in tvals:
        dlt = t / lam
        for p in perps:
            for b_para in bases:
                for b_perp in bases:
                    mid = b_perp * e_first + b_para * e_last
                    w = mid + 0.5 * (dlt * e_last + p * e_first)
                    z = mid - 0.5 * (dlt * e_last + p * e_first)
                    S, _ = dyadic_kernel_entry(spec, lam, j, w, z)
                    best = max(best, abs(S))
    return best


@dataclass(frozen=True)
class ScalingReport:
    """Fitted decay of the family-maximized Lorentz ratio against lambda."""

    lam_values: Tuple[float, ...]
    ratios: Tuple[float, ...]
    fit: FitResult
    target_slope: float
    dropped: Tuple[str, ...] = ()


def _member_l2(member, y_axes: Sequence[np.ndarray]) -> float:
    # the double loop over term pairs, on the member's samples
    total = 0.0 + 0.0j
    for v1 in member:
        for v2 in member:
            prod = 1.0 + 0.0j
            for jax, y in enumerate(y_axes):
                dy = float(y[1] - y[0])
                prod *= np.sum(v1[jax] * np.conj(v2[jax])) * dy
            total += prod
    return float(np.sqrt(max(total.real, 0.0)))


def scaling_experiment(
    spec: PhaseSpec,
    lam_list: Sequence[float],
    family: Callable[[float, Sequence[np.ndarray]], Iterable],
    q: float,
    s: float,
    x_points: int,
    y_points: int,
) -> ScalingReport:
    """Fit the decay in lambda of max over the family of
    |T f|_{Lorentz(q, s)} / |f|_{L^2}; the target slope is -x_dim / q.

    family(lam, y_axes) yields members for the fast path one at a time: a
    member is a list of product terms, each a tuple of 1-D samples with
    term[j] on y_axes[j] (lambda-adapted slabs, fixed bumps, random mode
    sums). Both the quadrature and the L^2 norm read those samples, so each
    test function is evaluated once per lambda.
    Under-resolved lambdas (10-points-per-period rule) are dropped with a
    notice; at least 4 must survive. The x and y grids have x_points and
    y_points per axis, at least 2 each; the x cells must have a positive
    volume, and each grid a point inside the amplitude's support. (q, s)
    must keep the Lorentz integral within the float range on the x grid.
    """
    lams = [float(v) for v in lam_list]
    if len(lams) < 4:
        raise ValueError("need >= 4 lambda values")
    if not all(0 < lam < math.inf for lam in lams):
        raise ValueError("lambda values must be finite and positive, got %s" % lams)
    # the resolution rule drops only the largest lambdas, so the kept ones
    # stay geometric when these are
    steps = [b / a for a, b in zip(lams, lams[1:])]
    if any(abs(r - steps[0]) > 1e-9 * steps[0] for r in steps):
        raise ValueError("lambda values must be geometric")
    # a step ratio of 1 repeats one lambda, which the fit cannot take
    if len(set(lams)) != len(lams):
        raise ValueError("lambda values must be distinct, got %s" % lams)
    q, s = float(q), float(s)
    _check_exponents(q, (s,), "q")
    nx, ny = int(x_points), int(y_points)
    if nx < 2 or ny < 2:
        raise ValueError("x_points and y_points must be >= 2, got %d and %d" % (nx, ny))
    r = spec.amp_radius
    x_axes = [np.linspace(-1.1 * r, 1.1 * r, nx) for _ in range(spec.x_dim)]
    y_axes = [np.linspace(-1.2 * r, 1.2 * r, ny) for _ in range(spec.y_dim)]
    # math.prod, not np.prod: a cell volume that overflows is inf with no
    # RuntimeWarning, and _check_range refuses it
    cell_x = math.prod(float(ax[1] - ax[0]) for ax in x_axes)
    if not cell_x > 0:
        raise ValueError("radius %g with x_points = %d gives an x cell volume of 0" % (r, nx))
    _check_range(q, (s,), nx**spec.x_dim * cell_x, "q")
    # a grid that misses the amplitude's support makes every ratio 0
    if not np.any(spec.amp_x(_mesh(x_axes))):
        raise ValueError("x_points = %d puts no x grid point inside the amplitude's support, radius %g" % (nx, r))
    if not all(np.any(spec.amp_y(y)) for y in y_axes):
        raise ValueError("y_points = %d puts no y grid point inside the amplitude's support, radius %g" % (ny, r))
    G = _max_y_gradient(spec, x_axes, y_axes)
    kept_lams = []
    ratios = []
    dropped = []
    for lam in lams:
        reason = _under_resolved(G, lam, y_axes)
        if reason:
            dropped.append("lambda=%g dropped: %s" % (lam, reason))
            continue
        factors = phase_factors(spec, lam, y_axes, x_axes)
        best = 0.0
        for member in family(lam, y_axes):
            values = apply_T_lambda_product(spec, member, y_axes, x_axes, factors)
            denom = _member_l2(member, y_axes)
            if denom == 0.0:
                continue
            num = lorentz_norm_values(values, cell_x, p=q, s=s)
            best = max(best, num / denom)
        # free this lambda's factors before the next lambda builds its own:
        # two sets alive at once would raise the peak memory
        del factors
        kept_lams.append(lam)
        ratios.append(best)
    if len(kept_lams) < 4:
        raise ValueError(
            "only %d lambda values survive the resolution rule; need 4" % len(kept_lams)
        )
    fit = loglog_fit(list(zip(kept_lams, ratios)))
    return ScalingReport(
        lam_values=tuple(kept_lams),
        ratios=tuple(ratios),
        fit=fit,
        target_slope=-float(spec.x_dim) / q,
        dropped=tuple(dropped),
    )


def _mode_sum(coef: np.ndarray, period: float, y: np.ndarray, window: np.ndarray) -> np.ndarray:
    # sum_k coef[k] exp(2 pi i k y / period), times the window's samples
    out = np.zeros(y.shape, dtype=complex)
    for k, c in enumerate(coef):
        out += c * np.exp(2j * np.pi * k * y / period)
    return out * window


def parabola_scaling_family(seed: int = 0, radius: float = 1.0) -> Callable:
    """Members for one-dimensional y: slabs of width ~ c / sqrt(lambda)
    (the stationary-phase extremizers), one wide bump, and two fixed
    random mode sums. All single-term products, sampled on the one y axis
    by family(lam, y_axes)."""
    rng = np.random.default_rng(seed)
    coef1 = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    coef2 = rng.standard_normal(7) + 1j * rng.standard_normal(7)

    def family(lam: float, y_axes: Sequence[np.ndarray]):
        (y,) = y_axes
        s = lam**-0.5
        for c in (0.5, 1.0, 2.0):
            yield [(bump(np.abs(y) / (c * s)),)]
        yield [(bump(np.abs(y) / (0.9 * radius)),)]
        yield [(_mode_sum(coef1, 2.4 * radius, y, bump(np.abs(y) / (0.45 * radius))),)]
        yield [(_mode_sum(coef2, 2.4 * radius, y, bump(np.abs(y) / (0.9 * radius))),)]

    return family


def fold_scaling_family(seed: int = 0, radius: float = 1.0) -> Callable:
    """Members for two-dimensional y: balls sitting on the fold at several
    fixed scales (these saturate the fold rate), a lambda-adapted slab and
    box, and one random 3x3 mode-product sum, sampled on the two y axes by
    family(lam, y_axes)."""
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal((3, 3, 2)) @ np.array([1.0, 1.0j])
    period = 2.4 * radius

    def family(lam: float, y_axes: Sequence[np.ndarray]):
        y0, y1 = y_axes
        s = lam**-0.5
        for delta in (0.2 * radius, 0.45 * radius, 0.9 * radius):
            yield [(bump(np.abs(y0) / delta), bump(np.abs(y1) / delta))]
        win0, win1 = (bump(np.abs(y) / (0.9 * radius)) for y in y_axes)
        yield [(bump(np.abs(y0) / s), win1)]
        yield [(bump(np.abs(y0) / (2.0 * s)), bump(np.abs(y1) / (2.0 * s)))]
        # random member: one product term per mode pair, coefficient folded
        # into the first factor; the terms share the three second factors
        waves1 = [np.exp(2j * np.pi * k1 * y1 / period) * win1 for k1 in range(3)]
        yield [
            (coef[k0, k1] * np.exp(2j * np.pi * k0 * y0 / period) * win0, waves1[k1])
            for k0 in range(3)
            for k1 in range(3)
        ]

    return family


def constant_family(radius: float = 1.0) -> Callable:
    """Two lambda-independent members on any number of y axes: the
    constant 1 and a wide bump."""

    def family(lam: float, y_axes: Sequence[np.ndarray]):
        yield [tuple(np.ones_like(y) for y in y_axes)]
        yield [tuple(bump(np.abs(y) / (0.9 * radius)) for y in y_axes)]

    return family


def polynomial_phase_from_file(path) -> PhaseSpec:
    """Load a polynomial phase from a plain-text coefficient file.

    Format, one directive per line ('#' starts a comment):

        x_dim <int>
        y_dim <int>
        radius <float>              optional, default 0.09
        term <coef> <x powers> <y powers>

    Each term line contributes coef * prod_i x_i^{px_i} * prod_j y_j^{py_j};
    it carries one integer power per x variable followed by one per y
    variable. The terms make a PhaseSpec, as the built-in catalog's do,
    under the name poly:<file stem>.
    """
    x_dim = y_dim = None
    radius = 0.09
    terms = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            key = parts[0]
            try:
                if key == "x_dim":
                    x_dim = int(parts[1])
                elif key == "y_dim":
                    y_dim = int(parts[1])
                elif key == "radius":
                    radius = float(parts[1])
                elif key == "term":
                    if x_dim is None or y_dim is None:
                        raise ValueError("x_dim and y_dim must precede term lines")
                    if len(parts) != 2 + x_dim + y_dim:
                        raise ValueError(
                            "term needs coef + %d x powers + %d y powers" % (x_dim, y_dim)
                        )
                    px = tuple(int(v) for v in parts[2 : 2 + x_dim])
                    py = tuple(int(v) for v in parts[2 + x_dim :])
                    terms.append((float(parts[1]), px, py))
                else:
                    raise ValueError("unknown directive %r" % key)
            except (IndexError, ValueError) as exc:
                raise ValueError("%s line %d: %s" % (path, lineno, exc)) from None
    if x_dim is None or y_dim is None:
        raise ValueError("%s: x_dim and y_dim must be declared" % path)
    if not terms:
        raise ValueError("%s: no term lines" % path)
    stem = os.path.splitext(os.path.basename(str(path)))[0]
    try:
        return PhaseSpec("poly:%s" % stem, x_dim, y_dim, terms, radius)
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, exc)) from None
