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
    against adapted slab families.

Two quadrature paths coexist: a dense path (any sampled f, any phase;
cost grows with the full x-y product) and a fast path for phases whose
exponent is a sum of terms x_i * (function of a single y coordinate) and
whose amplitude factors across axes. The fast path reorganizes the same
Riemann sum by axis-separability, so the two agree to rounding; tests
cross-validate them. Its phase matrices exp(i lambda x_i (x) f_ij(y_j))
depend only on lambda and the grids: phase_factors builds them once, with
the phase-matrix builder of grids, and apply_T_lambda_product takes them
for every f at that lambda. On each y axis it runs the separable sum of
grids, the kernel of the lattice transform, for any number of x couplings.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bumps import bump, kernel_ring, wide_plateau
from .fitting import FitResult, loglog_fit
from .grids import _phase_matrix, _separable_sum
from .lorentz import _check_exponents, lorentz_norm_values

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
    finite and positive and every coefficient finite.

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
        return _axis_bump(self.amp_radius)(t)

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


def _phase_point(spec: PhaseSpec, x: np.ndarray, y: np.ndarray) -> float:
    return float(spec.phase(np.asarray(x, float), np.asarray(y, float).reshape(1, -1))[0])


def _fd_d_x(spec: PhaseSpec, x, y) -> np.ndarray:
    x = np.asarray(x, float)
    out = np.empty(spec.x_dim)
    for i in range(spec.x_dim):
        e = np.zeros(spec.x_dim)
        e[i] = FD_STEP
        out[i] = (_phase_point(spec, x + e, y) - _phase_point(spec, x - e, y)) / (2 * FD_STEP)
    return out


def _fd_d_y(spec: PhaseSpec, x, y) -> np.ndarray:
    y = np.asarray(y, float)
    out = np.empty(spec.y_dim)
    for j in range(spec.y_dim):
        e = np.zeros(spec.y_dim)
        e[j] = FD_STEP
        out[j] = (_phase_point(spec, x, y + e) - _phase_point(spec, x, y - e)) / (2 * FD_STEP)
    return out


def _fd_d_xy(spec: PhaseSpec, x, y) -> np.ndarray:
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    out = np.empty((spec.x_dim, spec.y_dim))
    for i in range(spec.x_dim):
        ex = np.zeros(spec.x_dim)
        ex[i] = FD_STEP
        for j in range(spec.y_dim):
            ey = np.zeros(spec.y_dim)
            ey[j] = FD_STEP
            out[i, j] = (
                _phase_point(spec, x + ex, y + ey)
                - _phase_point(spec, x + ex, y - ey)
                - _phase_point(spec, x - ex, y + ey)
                + _phase_point(spec, x - ex, y - ey)
            ) / (4 * FD_STEP**2)
    return out


def derivative_consistency(spec: PhaseSpec, n_probes: int = 100, seed: int = 0) -> float:
    """Max deviation of the derivative evaluators from finite differences,
    over random probes in the amplitude box: d_x, d_y and d_xy against
    differences of the phase, d_xyy against differences of d_xy in y."""
    rng = np.random.default_rng(seed)
    r = spec.amp_radius
    worst = 0.0
    for _ in range(int(n_probes)):
        x = rng.uniform(-r, r, spec.x_dim)
        y = rng.uniform(-r, r, spec.y_dim)
        fd_xyy = np.empty((spec.x_dim, spec.y_dim, spec.y_dim))
        for k in range(spec.y_dim):
            e = np.zeros(spec.y_dim)
            e[k] = FD_STEP
            fd_xyy[:, :, k] = (spec.d_xy(x, y + e) - spec.d_xy(x, y - e)) / (2 * FD_STEP)
        for declared, oracle in (
            (spec.d_x(x, y), _fd_d_x(spec, x, y)),
            (spec.d_y(x, y), _fd_d_y(spec, x, y)),
            (spec.d_xy(x, y), _fd_d_xy(spec, x, y)),
            (spec.d_xyy(x, y), fd_xyy),
        ):
            worst = max(worst, float(np.abs(declared - oracle).max()))
    return worst


def _axis_bump(radius: float) -> Callable:
    return lambda t: bump(np.abs(np.asarray(t, float)) / radius)


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
    FOLD_DERIV_TOL)."""

    condition: str
    probes: tuple
    values: tuple
    verdict: bool
    notes: str = ""


def _numeric_rank(M: np.ndarray) -> int:
    sv = np.linalg.svd(np.atleast_2d(M), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_TOL * sv[0]))


def check_rank_mixed_hessian(spec: PhaseSpec, probes: Sequence) -> ConditionReport:
    """Numeric rank of the mixed second derivative matrix at each probe;
    passes when every rank reaches x_dim - 1."""
    target = spec.x_dim - 1
    ranks = []
    for x, y in probes:
        ranks.append(_numeric_rank(spec.d_xy(np.asarray(x, float), np.asarray(y, float))))
    return ConditionReport(
        condition="mixed-hessian-rank>=%d" % target,
        probes=tuple((tuple(np.atleast_1d(x)), tuple(np.atleast_1d(y))) for x, y in probes),
        values=tuple(ranks),
        verdict=bool(all(r >= target for r in ranks)),
    )


def check_curvature_rank(spec: PhaseSpec, probes: Sequence, kappa_target: int) -> ConditionReport:
    """Curvature count: at each probe, take the one-dimensional left kernel
    direction u of the mixed Hessian and report the rank of the y-Hessian
    of <u, gradient_x phi>; passes when rank >= kappa_target everywhere.

    An ambiguous kernel (dimension != 1 at the tolerance) is an error, not
    a failed verdict."""
    ranks = []
    for idx, (x, y) in enumerate(probes):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        M = spec.d_xy(x, y)
        U, S, _ = np.linalg.svd(M, full_matrices=True)
        if S.size == 0 or S[0] == 0.0:
            raise ValueError("mixed Hessian vanishes at probe %d; kernel ambiguous" % idx)
        rank = int(np.sum(S > RANK_TOL * S[0]))
        if spec.x_dim - rank != 1:
            raise ValueError(
                "left kernel direction ambiguous at probe %d (kernel dimension %d)"
                % (idx, spec.x_dim - rank)
            )
        u = U[:, rank]
        H = np.einsum("i,ijk->jk", u, spec.d_xyy(x, y))
        ranks.append(_numeric_rank(H))
    return ConditionReport(
        condition="curvature-rank>=%d" % kappa_target,
        probes=tuple((tuple(x), tuple(y)) for x, y in probes),
        values=tuple(ranks),
        verdict=bool(all(r >= kappa_target for r in ranks)),
    )


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


def _menger_curvature(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    area2 = abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
    denom = np.linalg.norm(b - a) * np.linalg.norm(c - b) * np.linalg.norm(c - a)
    return 0.0 if denom == 0 else float(2.0 * area2 / denom)


def check_fold(spec: PhaseSpec, probes: Sequence, kappa_target: int) -> ConditionReport:
    """Fold nondegeneracy for square phases (y_dim == x_dim).

    Walks the probe list pairwise and bisects each sign change of
    det of the mixed Hessian to locate singular points. At each: the kernel
    vector b (smallest right singular direction) must satisfy
    |<b, grad_y det>| > FOLD_DERIV_TOL, with grad_y det exact (Jacobi's
    formula on the cofactors of d_xy and on d_xyy, no differencing), and
    the image of the nearby singular set under gradient_x phi must have
    second-fundamental-form rank at least kappa_target (estimated from
    triple curvatures of FOLD_CURVE_SAMPLES sampled points; x_dim = 2
    supported). No singular points at all yields a vacuous pass.
    """
    if spec.y_dim != spec.x_dim:
        raise ValueError("fold check needs a square phase (y_dim == x_dim)")
    pts = [(np.asarray(x, float), np.asarray(y, float)) for x, y in probes]
    singular: List[Tuple[np.ndarray, np.ndarray]] = []
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        f0 = _det_xy(spec, x0, y0)
        f1 = _det_xy(spec, x1, y1)
        if abs(f0) < 1e-14:
            singular.append((x0, y0))
            continue
        if f0 * f1 < 0:
            t = _bisect_root(
                lambda t: _det_xy(spec, x0 + t * (x1 - x0), y0 + t * (y1 - y0)), 0.0, 1.0
            )
            singular.append((x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
    if abs(_det_xy(spec, *pts[-1])) < 1e-14:
        singular.append(pts[-1])
    # dedupe
    kept: List[Tuple[np.ndarray, np.ndarray]] = []
    for x, y in singular:
        if all(np.linalg.norm(y - yk) + np.linalg.norm(x - xk) > 1e-8 for xk, yk in kept):
            kept.append((x, y))
    if not kept:
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
    for x, y in kept:
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

                def along(s, base=base):
                    return _det_xy(spec, x, base + s * ghat)

                span = r / 4.0
                ss = np.linspace(-span, span, 17)
                vals = [along(s) for s in ss]
                root = None
                for k in range(len(ss) - 1):
                    if vals[k] == 0.0:
                        root = ss[k]
                        break
                    if vals[k] * vals[k + 1] < 0:
                        root = _bisect_root(along, ss[k], ss[k + 1])
                        break
                if root is not None:
                    ys = base + root * ghat
                    image.append(spec.d_x(x, ys))
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
        probes=tuple((tuple(x), tuple(y)) for x, y in kept),
        values=tuple(values),
        verdict=ok,
        notes="%d singular points located" % len(kept),
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


def _resolution(G: float, lam: float, y_axes) -> Tuple[bool, float, float]:
    """(resolved, widest y spacing, required spacing) at lam for the
    gradient bound G = _max_y_gradient(...), which depends on the phase and
    the grids only."""
    worst = max(float(ax[1] - ax[0]) for ax in y_axes)
    if G == 0.0:
        return True, worst, math.inf
    required = 2.0 * np.pi / (10.0 * lam * G)
    return worst <= required, worst, required


def _require_resolution(spec, lam, x_axes, y_axes) -> None:
    ok, worst, required = _resolution(_max_y_gradient(spec, x_axes, y_axes), lam, y_axes)
    if not ok:
        raise ValueError(
            "y grid under-resolved for lambda=%g: spacing %g > required %g"
            % (lam, worst, required)
        )


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
    if len(y_axes) != spec.y_dim or len(x_axes) != spec.x_dim:
        raise ValueError("axis count does not match the phase dimensions")
    _require_resolution(spec, lam, x_axes, y_axes)
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
    if len(y_axes) != spec.y_dim or len(x_axes) != spec.x_dim:
        raise ValueError("axis count does not match the phase dimensions")
    return {
        (i, j): _phase_matrix(x_axes[i], fn(y_axes[j]), 1j * lam)
        for (i, j), fn in spec.separable.items()
    }


def apply_T_lambda_product(
    spec: PhaseSpec,
    terms: Sequence[Tuple[Callable, ...]],
    y_axes: Sequence[np.ndarray],
    x_axes: Sequence[np.ndarray],
    factors: Dict[Tuple[int, int], np.ndarray],
) -> np.ndarray:
    """Fast path: same Riemann sum as apply_T_lambda, reorganized for
    separable phases and amplitudes, for f given as a sum of per-axis
    products, as an array on the tensor grid of x_axes. terms is a list of
    tuples of 1-D callables, one per y axis; factors is
    phase_factors(spec, lam, y_axes, x_axes), which fixes lambda.

    Precondition, not checked here: the y grid resolves that lambda by
    apply_T_lambda's 10-points-per-period rule. scaling_experiment applies
    the rule before it calls this.
    """
    if spec.separable is None:
        raise ValueError("phase lacks the separable structure for the fast path")
    if len(y_axes) != spec.y_dim or len(x_axes) != spec.x_dim:
        raise ValueError("axis count does not match the phase dimensions")
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
    out = np.zeros(shape, dtype=complex)
    for term in terms:
        acc = None
        for j, y in enumerate(y_axes):
            dy = float(y[1] - y[0])
            w = spec.amp_y(y) * np.asarray(term[j](y)) * dy
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
    e_last = np.zeros(spec.x_dim)
    e_last[-1] = 1.0
    e_first = np.zeros(spec.x_dim)
    e_first[0] = 1.0
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
    # each term's per-axis samples once, then the double loop over term pairs
    samples = [[np.asarray(t[jax](y)) for jax, y in enumerate(y_axes)] for t in member]
    total = 0.0 + 0.0j
    for v1 in samples:
        for v2 in samples:
            prod = 1.0 + 0.0j
            for jax, y in enumerate(y_axes):
                dy = float(y[1] - y[0])
                prod *= np.sum(v1[jax] * np.conj(v2[jax])) * dy
            total += prod
    return float(np.sqrt(max(total.real, 0.0)))


def scaling_experiment(
    spec: PhaseSpec,
    lam_list: Sequence[float],
    family: Callable[[float], Sequence],
    q: float,
    s: float,
    x_points: int,
    y_points: int,
) -> ScalingReport:
    """Fit the decay in lambda of max over the family of
    |T f|_{Lorentz(q, s)} / |f|_{L^2}; the target slope is -x_dim / q.

    family(lam) returns members for the fast path: lists of per-axis
    product terms (lambda-adapted slabs, fixed bumps, random mode sums).
    Under-resolved lambdas (10-points-per-period rule) are dropped with a
    notice; at least 4 must survive. The x and y grids have x_points and
    y_points per axis, at least 2 each.
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
    q, s = float(q), float(s)
    _check_exponents(q, (s,), "q")
    nx, ny = int(x_points), int(y_points)
    if nx < 2 or ny < 2:
        raise ValueError("x_points and y_points must be >= 2, got %d and %d" % (nx, ny))
    r = spec.amp_radius
    x_axes = [np.linspace(-1.1 * r, 1.1 * r, nx) for _ in range(spec.x_dim)]
    y_axes = [np.linspace(-1.2 * r, 1.2 * r, ny) for _ in range(spec.y_dim)]
    cell_x = float(np.prod([ax[1] - ax[0] for ax in x_axes]))
    G = _max_y_gradient(spec, x_axes, y_axes)
    kept_lams = []
    ratios = []
    dropped = []
    for lam in lams:
        ok, worst, required = _resolution(G, lam, y_axes)
        if not ok:
            dropped.append(
                "lambda=%g dropped: spacing %g > required %g" % (lam, worst, required)
            )
            continue
        factors = phase_factors(spec, lam, y_axes, x_axes)
        best = 0.0
        for member in family(lam):
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


def _mode_sum(coef: np.ndarray, period: float, window: Callable) -> Callable:
    def g(y):
        y = np.asarray(y, float)
        out = np.zeros(y.shape, dtype=complex)
        for k, c in enumerate(coef):
            out += c * np.exp(2j * np.pi * k * y / period)
        return out * window(y)

    return g


def parabola_scaling_family(seed: int = 0, radius: float = 1.0) -> Callable:
    """Members for one-dimensional y: slabs of width ~ c / sqrt(lambda)
    (the stationary-phase extremizers), one wide bump, and two fixed
    random mode sums. All single-term products."""
    rng = np.random.default_rng(seed)
    coef1 = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    coef2 = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    rand1 = _mode_sum(coef1, 2.4 * radius, _axis_bump(0.45 * radius))
    rand2 = _mode_sum(coef2, 2.4 * radius, _axis_bump(0.9 * radius))
    wide = _axis_bump(0.9 * radius)

    def family(lam: float):
        s = lam**-0.5
        members = []
        for c in (0.5, 1.0, 2.0):
            members.append([(_axis_bump(c * s),)])
        members.append([(wide,)])
        members.append([(rand1,)])
        members.append([(rand2,)])
        return members

    return family


def fold_scaling_family(seed: int = 0, radius: float = 1.0) -> Callable:
    """Members for two-dimensional y: balls sitting on the fold at several
    fixed scales (these saturate the fold rate), a lambda-adapted slab and
    box, and one random 3x3 mode-product sum."""
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal((3, 3, 2)) @ np.array([1.0, 1.0j])
    window = _axis_bump(0.9 * radius)
    period = 2.4 * radius

    def family(lam: float):
        s = lam**-0.5
        members = []
        for delta in (0.2 * radius, 0.45 * radius, 0.9 * radius):
            members.append([(_axis_bump(delta), _axis_bump(delta))])
        members.append([(_axis_bump(s), window)])
        members.append([(_axis_bump(2.0 * s), _axis_bump(2.0 * s))])
        # random member: one product term per mode pair, coefficient folded
        # into the first factor
        rand_terms = []
        for k0 in range(3):
            for k1 in range(3):
                c = coef[k0, k1]

                def g0(y, k0=k0, c=c):
                    y = np.asarray(y, float)
                    return c * np.exp(2j * np.pi * k0 * y / period) * window(y)

                def g1(y, k1=k1):
                    y = np.asarray(y, float)
                    return np.exp(2j * np.pi * k1 * y / period) * window(y)

                rand_terms.append((g0, g1))
        members.append(rand_terms)
        return members

    return family


def constant_family(radius: float = 1.0, y_dim: int = 1) -> Callable:
    """Two lambda-independent members: the constant 1 and a wide bump."""
    wide = _axis_bump(0.9 * radius)

    def ones(y):
        return np.ones_like(np.asarray(y, float))

    def family(lam: float):
        return [[tuple(ones for _ in range(y_dim))], [tuple(wide for _ in range(y_dim))]]

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
