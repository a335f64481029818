"""Command-line harness.

Subcommands: exponents, measure, decay, dyadic, lorentz, knapp, restrict,
oscillatory, fold, accept. Every run validates its flags against the
subcommand schema, resolves defaults, writes a CSV table plus a verdict
text file that echoes the full effective configuration, and exits 0 when
all verdict checks pass, 1 when any fails, and 2 for an invalid
configuration (unknown flags, bad values, violated preconditions, IO
failure). No other exit codes occur.

Each rule of a valid configuration lives in one place. The parser checks
a flag's own range: its type converts the value and refuses it with the
value expected and the value typed (`_at_least` for the integer floors,
`_threshold` for a NaN verdict bound). A handler checks what depends on
which flags its run reads (`_check_flatness_count`, `_drop_unread`). The
library checks what every caller must meet, and raises ValueError; `main`
reports a ValueError or an OSError as an invalid configuration and lets
any other exception escape, since it is a fault, not a configuration.

Verdict thresholds (slope windows, flatness factors, gaps) are flags with
defaults pinned here, not constants buried in the computation modules.
Each experiment subcommand returns a `reporting.Result`: its table, its
checks, the report it fitted, and its side files as (file name, writer)
pairs. It writes no file itself; `main` writes them all under --out with
`reporting.write_report`, the writer that `accept` uses for every
criterion. Acceptance criteria 3-5 and 7-10 run the `decay`, `measure`,
`dyadic`, `lorentz`, `knapp`, `oscillatory` and `fold` experiments and
read their reports.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np

from .acceptance import run_acceptance
from .exponents import critical_q, exponent_profile, oscillatory_exponents, verify_identities
from .fitting import flatness_factor
from .grids import GridSpec
from .knapp import knapp_sharpness_experiment
from .lorentz import indicator_lorentz_norm, lorentz_norm_values
from .measures import (
    _check_dyadic_scale,
    _mu_hat_oracle_deviation,
    ball_regularity_profile,
    dyadic_piece,
    fourier_decay_profile,
    load_measure,
    make_cantor_measure,
    make_point_mass,
    make_random_cantor_measure,
    make_sphere_measure,
    mu_hat_on_lattice,
    save_measure,
)
from .operators import (
    gaussian_dilate_family,
    knapp_cap_family,
    random_smooth_family,
    stein_tomas_ratio,
)
from .oscillatory import (
    check_curvature_rank,
    check_fold,
    check_rank_mixed_hessian,
    constant_family,
    fold_scaling_family,
    parabola_scaling_family,
    phase_catalog,
    polynomial_phase_from_file,
    scaling_experiment,
)
from .reporting import ExperimentConfig, ReportTable, Result, _check_line, emit_csv, write_report
from .reporting import _flatness_check, _window_check

__all__ = ["main", "build_parser"]


def _parsed(text: str, convert, expected: str, valid=None):
    """convert(text), if it converts and valid accepts it; otherwise a parser
    error that names the value expected and the value typed (argparse would
    print a ValueError as "invalid <converter name> value")."""
    try:
        value = convert(text)
    except ValueError:
        pass
    else:
        if valid is None or valid(value):
            return value
    raise argparse.ArgumentTypeError("expected %s, got %r" % (expected, text))


def _floats(text: str) -> List[float]:
    return _parsed(
        text, lambda t: [float(v) for v in t.split(",") if v], "a comma-separated list of numbers", bool
    )


def _ints(text: str) -> List[int]:
    return _parsed(
        text, lambda t: [int(v) for v in t.split(",") if v], "a comma-separated list of integers", bool
    )


def _threshold(text: str) -> float:
    # a verdict window bound; NaN would fail its check only after the whole
    # run, so it is refused at entry (an infinite bound leaves the window open)
    return _parsed(text, float, "a number other than NaN", lambda value: not math.isnan(value))


def _at_least(floor: int):
    """The parser type of an integer flag whose range starts at floor."""
    return lambda text: _parsed(text, int, "an integer >= %d" % floor, lambda value: value >= floor)


# the measure flags that each --kind reads and its measure's builder; a run
# drops the other kinds' flags from args (_drop_unread)
_KINDS = {
    "circle": (("n",), lambda args: make_sphere_measure(2, args.n)),
    "sphere": (("n",), lambda args: make_sphere_measure(3, args.n)),
    "cantor": (("ratio", "levels"), lambda args: make_cantor_measure(args.ratio, args.levels)),
    "cantor-random": (
        ("ratio", "levels"),
        lambda args: make_random_cantor_measure(args.ratio, args.levels, seed=args.seed),
    ),
    "point": (("dim",), lambda args: make_point_mass([0.0] * args.dim)),
}
_MEASURE_FLAGS = set().union(*(flags for flags, _ in _KINDS.values()))
# the flags that each restrict --family reads, the first of them sizing its
# fields, and its fields' builder; a run drops the other families' flags
# from args (_drop_unread)
_FAMILIES = {
    "gaussian": (("scales", "spread_max"), lambda grid, args: gaussian_dilate_family(grid, args.scales)),
    "knapp": (("deltas", "spread_max"), lambda grid, args: knapp_cap_family(grid, args.deltas)),
    "random": (("count",), lambda grid, args: random_smooth_family(grid, args.count, seed=args.seed)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="restrictionlab",
        description="Numerical laboratory for restriction and oscillatory-integral scaling laws.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="subcommand")

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)
        sp.set_defaults(handler=handler)
        sp.add_argument("--out", default="reports", help="output directory (default: reports)")
        # numpy refuses a negative seed only once a run has started, and some
        # subcommands never hand theirs to numpy
        sp.add_argument("--seed", type=_at_least(0), default=0, help="random seed (default: 0)")
        return sp

    def add_measure_flags(sp: argparse.ArgumentParser, n=8192) -> None:
        sp.add_argument("--kind", default="circle", choices=list(_KINDS), help="measure to build")
        sp.add_argument("--n", type=int, default=n, help="atom count for circle/sphere")
        sp.add_argument("--ratio", type=float, default=1.0 / 3.0, help="contraction ratio for cantor kinds")
        sp.add_argument("--levels", type=int, default=14, help="level count for cantor kinds")
        sp.add_argument("--dim", type=_at_least(1), default=2, help="ambient dimension for the point mass")

    sp = add("exponents", cmd_exponents, "exact exponent profile and identity suite")
    sp.add_argument("--d", type=Fraction, default=Fraction(3))
    sp.add_argument("--a", type=Fraction, default=Fraction(2))
    sp.add_argument("--b", type=Fraction, default=Fraction(1))
    sp.add_argument("--kappa", type=int, default=None, help="also tabulate the curvature-count exponent family")

    sp = add("measure", cmd_measure, "build a measure, save it, and fit its ball-regularity exponent")
    add_measure_flags(sp)
    sp.add_argument("--radii", type=_floats, default=None, help="ball radii (default: dyadic or ratio powers)")
    sp.add_argument("--a-min", type=_threshold, default=0.0)
    sp.add_argument("--a-max", type=_threshold, default=None, help="default: ambient dimension")

    sp = add("decay", cmd_decay, "fit the Fourier decay exponent of a measure")
    add_measure_flags(sp)
    radii = [4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0]
    sp.add_argument("--r-list", type=_floats, default=radii, help="radii within the measure's aliasing radius")
    sp.add_argument("--directions", type=int, default=64)
    sp.add_argument("--b-min", type=_threshold, default=0.45)
    sp.add_argument("--b-max", type=_threshold, default=0.55)

    sp = add("dyadic", cmd_dyadic, "dyadic frequency pieces of a measure and their sup scaling")
    add_measure_flags(sp, n=4096)
    sp.add_argument("--half-width", type=float, default=2.0)
    sp.add_argument("--points", type=int, default=2048)
    sp.add_argument("--j-list", type=_ints, default=[1, 2, 3, 4, 5, 6, 7, 8])
    sp.add_argument("--flatness-max", type=_threshold, default=10.0)

    sp = add("lorentz", cmd_lorentz, "Lorentz quasi-norm consistency checks on random fields")
    # zero samples would pass every check vacuously
    sp.add_argument("--fields", type=_at_least(1), default=1000)
    sp.add_argument("--indicators", type=_at_least(1), default=50)
    sp.add_argument("--tol-diagonal", type=_threshold, default=1e-10)
    sp.add_argument("--tol-indicator", type=_threshold, default=1e-12)

    sp = add("knapp", cmd_knapp, "cap-superposition sharpness experiment")
    sp.add_argument("--q", type=float, default=2.0)
    sp.add_argument("--p", type=Fraction, default=Fraction(6, 5))
    sp.add_argument("--N-list", dest="n_list", type=_ints, default=[2, 3, 4, 5, 6])
    sp.add_argument("--s-list", type=_floats, default=[2.0, math.inf])
    sp.add_argument("--half-width", type=float, default=512.0)
    sp.add_argument("--points", type=int, default=4096)
    sp.add_argument("--sphere-n", type=int, default=16384)
    sp.add_argument("--slope-g-min", type=_threshold, default=0.4)
    sp.add_argument("--slope-g-max", type=_threshold, default=0.6)
    sp.add_argument("--gap-min", type=_threshold, default=0.3)

    sp = add("restrict", cmd_restrict, "extension-restriction ratios for a field family")
    add_measure_flags(sp, n=4096)
    sp.add_argument("--measure-file", default=None, help="load the measure from a saved file instead")
    sp.add_argument("--half-width", type=float, default=64.0)
    sp.add_argument("--points", type=int, default=512)
    sp.add_argument("--family", default="gaussian", choices=list(_FAMILIES))
    sp.add_argument(
        "--scales", type=_floats, default=[1.0, 2.0, 4.0, 8.0], help="gaussian dilate scales"
    )
    sp.add_argument("--deltas", type=_floats, default=[0.25, 0.125, 0.0625], help="knapp cap widths")
    sp.add_argument("--count", type=int, default=5, help="random family size")
    sp.add_argument("--d", type=Fraction, default=Fraction(2))
    sp.add_argument("--a", type=Fraction, default=Fraction(1))
    sp.add_argument("--b", type=Fraction, default=Fraction(1, 2))
    sp.add_argument("--spread-max", type=_threshold, default=10.0)

    def add_scaling_flags(sp: argparse.ArgumentParser, phase, q, lam_list, slope_min, slope_max) -> None:
        sp.add_argument("--phase", default=phase)
        sp.add_argument("--phase-file", default=None, help="polynomial coefficient file")
        # a negative curvature count is no hypothesis: oscillatory would skip
        # its curvature check and fold would demand nothing
        sp.add_argument("--kappa", type=_at_least(0), default=1)
        sp.add_argument("--q", type=float, default=q)
        sp.add_argument("--s", type=float, default=2.0)
        sp.add_argument("--lam-list", type=_floats, default=lam_list)
        sp.add_argument("--family", choices=["auto", "slab", "fold", "constant"], default="auto")
        sp.add_argument("--radius", type=float, default=1.0)
        sp.add_argument("--x-points", type=int, default=None)
        sp.add_argument("--y-points", type=int, default=None)
        sp.add_argument("--slope-min", type=_threshold, default=slope_min)
        sp.add_argument("--slope-max", type=_threshold, default=slope_max)

    sp = add("oscillatory", cmd_oscillatory, "hypothesis checks and lambda-scaling for a catalog phase")
    add_scaling_flags(sp, "parabola", 6.0, [16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0], -0.43, -0.23)
    sp.add_argument("--probes", type=_at_least(1), default=8)  # none would pass vacuously

    sp = add("fold", cmd_fold, "fold hypothesis check and lambda-scaling for a square phase")
    add_scaling_flags(sp, "fold-curved", 3.0, [16.0, 32.0, 64.0, 128.0, 256.0, 512.0], -0.82, -0.52)

    sp = add("accept", cmd_accept, "run the acceptance suite")
    sp.add_argument("--only", type=_ints, default=None, help="criterion indices, e.g. 1,2,5")

    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    skip = {"out", "seed", "subcommand", "handler"}
    params = tuple((k, v) for k, v in sorted(vars(args).items()) if k not in skip)
    return ExperimentConfig(args.subcommand, params, args.out, args.seed)


def _finish(args, result: Result) -> int:
    name = args.subcommand
    os.makedirs(args.out, exist_ok=True)  # only once the experiment has run
    paths = [os.path.join(args.out, name + ".csv"), os.path.join(args.out, name + "_verdict.txt")]
    ok = write_report(result, *paths, name, _config_from_args(args))
    for filename, write in result.files:
        paths.append(os.path.join(args.out, filename))
        write(paths[-1])
    for check in result.checks:
        print(_check_line(*check))
    print("wrote %s and %s" % (", ".join(paths[:-1]), paths[-1]))
    return 0 if ok else 1


def _lattice_grid(args, dim: int) -> GridSpec:
    """The --half-width/--points grid, refused before anything is allocated
    when one complex lattice on it (16 N^d bytes) exceeds physical memory."""
    grid = GridSpec(dim=dim, half_width=args.half_width, points_per_axis=args.points)
    need = 16 * args.points**dim
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ValueError(
            "--points %d: one complex lattice of %d^%d points takes %d bytes, more than "
            "the %d bytes of physical memory" % (args.points, args.points, dim, need, have)
        )
    return grid


def _check_flatness_count(flag: str, count: int) -> None:
    """A flag whose values feed a flatness factor needs two of them (one
    value is flat by definition); checked at entry, before any lattice,
    field or ratio is computed."""
    if count < 2:
        raise ValueError("%s: a flatness factor needs at least 2 values, got %d" % (flag, count))


def _drop_unread(args, flags, read=()) -> None:
    """Drop from args each of flags that the run did not read, so that its
    verdict echoes only the flags it read."""
    for flag in set(flags).difference(read):
        delattr(args, flag)


def _build_measure(args):
    flags, build = _KINDS[args.kind]
    _drop_unread(args, _MEASURE_FLAGS, flags)
    return build(args)


def cmd_exponents(args) -> Result:
    profile = exponent_profile(args.d, args.a, args.b)
    flags = verify_identities(profile)
    columns = ("d", "a", "b", "p0", "p0_prime", "theta", "gamma", "rho", "sigma")
    row = tuple(str(getattr(profile, name)) for name in columns) + (str(critical_q(profile, profile.p0)),)
    table = ReportTable(columns=columns + ("q_at_p0",), rows=(row,))
    checks = [(name, ok, "") for name, ok in flags.items()]
    files = ()
    if args.kappa is not None:
        osc = oscillatory_exponents(args.kappa)
        names = ("q0", "q1", "rho_k", "sigma_k", "rho_1", "sigma_1")
        rows = tuple((name, str(getattr(osc, name))) for name in names)
        osc_table = ReportTable(columns=("quantity", "value"), rows=rows)
        files = (("exponents_oscillatory.csv", functools.partial(emit_csv, osc_table)),)
    return Result(table, checks, profile, files)


def cmd_measure(args) -> Result:
    measure = _build_measure(args)
    # resolved here, so that the verdict echoes the radii and window used
    if args.radii is None:
        if "ratio" in _KINDS[args.kind][0]:
            args.radii = [args.ratio**k for k in range(2, 9)]
        else:
            args.radii = [2.0 ** (-k) for k in range(1, 9)]
    args.a_max = float(measure.dim) if args.a_max is None else args.a_max
    profile = ball_regularity_profile(measure, args.radii)
    detail = "a_fit=%.4f A_fit=%.4g slope=%s" % (profile.a_fit, profile.A_fit, profile.fit.detail())
    checks = [_window_check("a_fit", profile.a_fit, args.a_min, args.a_max, detail)]
    table = ReportTable(
        columns=("radius", "max_ball_ratio"),
        rows=tuple(zip(profile.radii, profile.max_ball_ratios)),
    )
    files = ((measure.label + ".measure.txt", functools.partial(save_measure, measure)),)
    return Result(table, checks, profile, files)


def cmd_decay(args) -> Result:
    measure = _build_measure(args)
    profile = fourier_decay_profile(measure, args.r_list, n_directions=args.directions, seed=args.seed)
    if measure.dim == 1:
        _drop_unread(args, ["directions"])  # the directions are the two signs
    detail = "b_fit=%.4f B_fit=%.4g slope=%s" % (profile.b_fit, profile.B_fit, profile.fit.detail())
    checks = [_window_check("b_fit", profile.b_fit, args.b_min, args.b_max, detail)]
    table = ReportTable(
        columns=("R", "annulus_sup"),
        rows=tuple(zip(profile.annulus_radii, profile.annulus_sups)),
    )
    return Result(table, checks, profile)


def cmd_dyadic(args) -> Result:
    _check_flatness_count("--j-list", len(args.j_list))
    measure = _build_measure(args)
    grid = _lattice_grid(args, measure.dim)
    for j in args.j_list:  # every scale, before the lattice transform
        _check_dyadic_scale(j, grid)
    mu_hat = mu_hat_on_lattice(measure, grid)
    rows = []
    hat_scaled = []
    mass_scaled = []
    for j in args.j_list:
        piece = dyadic_piece(measure, j, grid, mu_hat)
        hat_scaled.append(piece.sup_mu_hat_j * 2.0 ** (j / 2.0))
        mass_scaled.append(piece.sup_mu_j * 2.0 ** (-j))
        rows.append((j, piece.sup_mu_hat_j, piece.sup_mu_j, hat_scaled[-1], mass_scaled[-1]))
    # the half lattice against the direct sum, read as the sweep reads it
    oracle = _mu_hat_oracle_deviation(measure, grid, mu_hat)
    checks = [
        _flatness_check("sup|mu_hat_j| 2^{j/2} flat within", flatness_factor(hat_scaled), args.flatness_max),
        _flatness_check("sup|mu_j| 2^{-j} flat within", flatness_factor(mass_scaled), args.flatness_max),
        ("mu_hat oracle within 1e-10", oracle <= 1e-10, "%.3g" % oracle),
    ]
    table = ReportTable(
        columns=("j", "sup_mu_hat_j", "sup_mu_j", "hat_scaled", "mass_scaled"),
        rows=tuple(rows),
    )
    return Result(table, checks)


def cmd_lorentz(args) -> Result:
    rng = np.random.default_rng(args.seed)
    worst_pp = 0.0
    for _ in range(args.fields):
        n = int(rng.integers(8, 160))
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        cell = float(10.0 ** rng.uniform(-2, 2))
        p = float(rng.uniform(1.05, 4.0))
        lp = float(np.sum(np.abs(vals) ** p) * cell) ** (1.0 / p)
        worst_pp = max(worst_pp, abs(lp - lorentz_norm_values(vals, cell, p=p, s=p)) / lp)
    worst_ind = 0.0
    for _ in range(args.indicators):
        m_cells = int(rng.integers(1, 64))
        cell = float(10.0 ** rng.uniform(-2, 2))
        p = float(rng.uniform(1.05, 4.0))
        s = float(rng.uniform(0.7, 5.0)) if rng.uniform() < 0.8 else math.inf
        vals = np.zeros(128)
        vals[:m_cells] = 1.0
        closed = indicator_lorentz_norm(p, s, m_cells * cell)
        worst_ind = max(worst_ind, abs(lorentz_norm_values(vals, cell, p=p, s=s) - closed) / closed)
    vals = rng.standard_normal(200)
    base = lorentz_norm_values(vals, 0.37, p=1.5, s=2.5)
    homog = lorentz_norm_values(4.0 * vals, 0.37, p=1.5, s=2.5) == 4.0 * base
    rearr = lorentz_norm_values(rng.permutation(vals), 0.37, p=1.5, s=2.5) == base
    # (table row, check, deviation, tolerance); an exact check (tolerance
    # None) holds at deviation 0 and prints no detail
    named = (
        ("diagonal", "diagonal matches L^p within %g" % args.tol_diagonal, worst_pp, args.tol_diagonal),
        ("indicator", "indicator closed form within %g" % args.tol_indicator, worst_ind, args.tol_indicator),
        ("homogeneity", "homogeneity exact for scale 4", float(not homog), None),
        ("rearrangement", "rearrangement invariance exact", float(not rearr), None),
    )
    checks = [
        (check, dev == 0.0, "") if tol is None else (check, dev <= tol, "%.3g" % dev)
        for _, check, dev, tol in named
    ]
    rows = tuple((row, dev) for row, _, dev, _ in named)
    table = ReportTable(columns=("check", "max_rel_dev"), rows=rows)
    return Result(table, checks)


def cmd_knapp(args) -> Result:
    grid = _lattice_grid(args, 2)
    rep = knapp_sharpness_experiment(
        q=args.q,
        p=float(args.p),
        s_list=args.s_list,
        N_list=args.n_list,
        grid=grid,
        sphere_n=args.sphere_n,
    )
    fit_g = rep.fit_g
    checks = [_window_check("slope_g", fit_g.slope, args.slope_g_min, args.slope_g_max, fit_g.detail())]
    for s, fit in zip(rep.s_values, rep.fits_f):
        if s > args.q:
            gap = fit_g.slope - fit.slope
            checks.append(
                (
                    "gap slope_g - slope_f(s=%g) >= %g" % (s, args.gap_min),
                    gap >= args.gap_min,
                    "gap=%.4f slope_f=%s" % (gap, fit.detail()),
                )
            )
        else:
            checks.append(("slope_f(s=%g) reported" % s, True, fit.detail()))
    # the moduli against the direct sum of the caps, read before the sort
    checks.append(("moduli oracle within 1e-10", rep.oracle_dev <= 1e-10, "%.3g" % rep.oracle_dev))
    columns = ["N", "norm_g"] + ["norm_f_s%g" % s for s in rep.s_values]
    rows = []
    for i, N in enumerate(rep.n_values):
        rows.append((N, rep.norm_g[i]) + tuple(rep.norms_f[i]))
    table = ReportTable(columns=tuple(columns), rows=tuple(rows))
    return Result(table, checks, rep)


def cmd_restrict(args) -> Result:
    flags, build_fields = _FAMILIES[args.family]
    _drop_unread(args, set().union(*(f for f, _ in _FAMILIES.values())), flags)
    sizes = getattr(args, flags[0])  # the scales or cap widths, or a field count
    _check_flatness_count("--" + flags[0], sizes if isinstance(sizes, int) else len(sizes))
    if args.measure_file is not None:
        measure = load_measure(args.measure_file)
        _drop_unread(args, ["kind", *_MEASURE_FLAGS])
    else:
        measure = _build_measure(args)
    grid = _lattice_grid(args, measure.dim)
    profile = exponent_profile(args.d, args.a, args.b)
    fields = build_fields(grid, args)
    rows = []
    ratios = []
    for label, values in fields:
        ratio = stein_tomas_ratio(values, measure, grid, profile)
        ratios.append(ratio)
        rows.append((label, ratio))
    spread = flatness_factor(ratios)
    checks = [
        ("all ratios positive and finite", all(0 < r < math.inf for r in ratios), ""),
    ]
    if "spread_max" in flags:
        # only the structured families carry a flatness claim; random
        # fields may land anywhere relative to the sphere
        checks.append(_flatness_check("ratio spread within factor", spread, args.spread_max))
    else:
        checks.append(("ratio spread recorded", True, "factor %.3f" % spread))
    table = ReportTable(columns=("field", "ratio"), rows=tuple(rows))
    return Result(table, checks)


def _resolve_phase(args):
    if args.phase_file:
        spec = polynomial_phase_from_file(args.phase_file)
    else:
        catalog = phase_catalog(amp_radius=args.radius)
        if args.phase not in catalog:
            raise ValueError("unknown phase %r; catalog: %s" % (args.phase, ", ".join(sorted(catalog))))
        spec = catalog[args.phase]
    # so that the verdict echoes the phase that runs: a phase file brings its
    # own name and radius, and --phase and --radius are then unused
    args.phase, args.radius = spec.name, spec.amp_radius
    return spec


def _resolve_family(args, spec):
    kind = args.family
    if kind == "auto":
        kind = "slab" if spec.y_dim == 1 else "fold"
    if kind == "constant":
        return constant_family(radius=spec.amp_radius)
    if kind == "slab":
        if spec.y_dim != 1:
            raise ValueError("slab family needs a one-dimensional y variable")
        return parabola_scaling_family(seed=args.seed, radius=spec.amp_radius)
    if spec.y_dim != 2:
        raise ValueError("fold family needs a two-dimensional y variable")
    return fold_scaling_family(seed=args.seed, radius=spec.amp_radius)


def _scaling(args, spec, checks) -> Result:
    """The lambda-scaling tail shared by `oscillatory` and `fold`: the fit
    against the slope window, after the subcommand's hypothesis checks."""
    # the default sizes are resolved here, so that the verdict echoes the
    # grid actually used
    if args.x_points is None:
        args.x_points = 192 if spec.y_dim == 1 else 160
    if args.y_points is None:
        args.y_points = 8192 if spec.y_dim == 1 else 4096
    rep = scaling_experiment(
        spec,
        lam_list=args.lam_list,
        family=_resolve_family(args, spec),
        q=args.q,
        s=args.s,
        x_points=args.x_points,
        y_points=args.y_points,
    )
    fit = rep.fit
    name, ok, detail = _window_check("fitted slope", fit.slope, args.slope_min, args.slope_max, fit.detail())
    checks.append((name + " (target %g)" % rep.target_slope, ok, detail))
    checks.append(("T oracle within 1e-10", rep.oracle_dev <= 1e-10, "%.3g" % rep.oracle_dev))
    for note in rep.dropped:
        checks.append(("resolution notice", True, note))
    table = ReportTable(columns=("lambda", "ratio"), rows=tuple(zip(rep.lam_values, rep.ratios)))
    return Result(table, checks, rep)


def cmd_oscillatory(args) -> Result:
    spec = _resolve_phase(args)
    rng = np.random.default_rng(args.seed)
    r = spec.amp_radius
    probes = [
        (rng.uniform(-r / 2, r / 2, spec.x_dim), rng.uniform(-r / 2, r / 2, spec.y_dim))
        for _ in range(args.probes)
    ]
    checks = [check_rank_mixed_hessian(spec, probes).check]
    if args.kappa >= 1 and spec.x_dim == spec.y_dim + 1:
        checks.append(check_curvature_rank(spec, probes, args.kappa).check)
    else:
        checks.append(("curvature check skipped (square phase or kappa = 0)", True, ""))
    return _scaling(args, spec, checks)


def cmd_fold(args) -> Result:
    spec = _resolve_phase(args)
    # the probes and the fold check's curvature sampling are two-dimensional
    if (spec.x_dim, spec.y_dim) != (2, 2):
        raise ValueError("fold needs x_dim = y_dim = 2, got %d and %d" % (spec.x_dim, spec.y_dim))
    r = spec.amp_radius
    probes = [((0.2 * r, 0.5 * r), (0.1 * r, t)) for t in np.linspace(-r / 2, r / 2, 9)]
    return _scaling(args, spec, [check_fold(spec, probes, kappa_target=args.kappa).check])


def cmd_accept(args) -> int:
    summary = run_acceptance(args.out, seed=args.seed, only=args.only)
    for label, passed, elapsed in summary:
        print("%s %s (%s)" % ("PASS" if passed else "FAIL", label, elapsed))
    ok = all(passed for _, passed, _ in summary)
    print("acceptance: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on schema violations and 0 for --help
        return 0 if exc.code in (0, None) else 2
    try:
        result = args.handler(args)  # accept writes its own files and returns its exit code
        return result if isinstance(result, int) else _finish(args, result)
    except (ValueError, OSError) as exc:
        print("invalid configuration: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
