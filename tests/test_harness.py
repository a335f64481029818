"""Command-line harness and report writers: exit codes, file layout,
bytewise determinism, and the canonical value rendering."""

import importlib.util
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from restrictionlab import _workers, cli, knapp
from restrictionlab import oscillatory as osc
from restrictionlab.cli import main
from restrictionlab.reporting import (
    ExperimentConfig,
    ReportTable,
    emit_csv,
    format_cell,
    render_value,
    render_verdict,
    write_verdict,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = PERFBENCH / "reference"

# ------------------------------------------------------------------ rendering


def test_render_value_canonical_forms():
    assert render_value(True) == "true"
    assert render_value(np.bool_(False)) == "false"
    assert render_value(7) == "7"
    assert render_value(np.int64(-5)) == "-5"
    assert render_value(0.1) == "0.10000000000000001"
    assert render_value(1.0 + 2.0j) == "1+2j"
    assert render_value((1, 2.5, "x")) == "1,2.5,x"
    assert render_value("plain") == "plain"


def test_format_cell_rejects_separators():
    assert format_cell(3.5) == "3.5"
    with pytest.raises(ValueError, match="separator"):
        format_cell([1, 2])
    with pytest.raises(ValueError, match="separator"):
        format_cell("two\nlines")


def test_report_table_enforces_row_arity():
    with pytest.raises(ValueError, match="row 0 has 2 cells but the header has 3"):
        ReportTable(columns=("a", "b", "c"), rows=((1, 2),))


def test_emit_csv_layout(tmp_path):
    path = str(tmp_path / "t.csv")
    emit_csv(ReportTable(columns=("x", "y"), rows=()), path)
    assert open(path, "rb").read() == b"x,y\n"
    emit_csv(ReportTable(columns=("x", "y"), rows=((1, 0.5),)), path)
    assert open(path, "rb").read() == b"x,y\n1,0.5\n"


def test_config_echo_lines():
    params = (
        ("alpha", 2),
        ("beta", 0.5),
        ("gamma", 0.3),
        ("delta", np.float64(-0.43)),
        ("tol", 1e-12),
        ("lams", [16.0, 0.1, 2]),
        ("flag", True),
    )
    cfg = ExperimentConfig("demo", params, "outdir", 7)
    # floats echo in their shortest round-trip form; CSV cells keep %.17g
    assert cfg.echo_lines() == (
        "subcommand=demo",
        "alpha=2",
        "beta=0.5",
        "gamma=0.3",
        "delta=-0.43",
        "tol=1e-12",
        "lams=16.0,0.1,2",
        "flag=true",
        "out=outdir",
        "seed=7",
    )


def test_verdict_rendering_and_overall(tmp_path):
    cfg = ExperimentConfig("demo", (), "o", 0)
    text = render_verdict("title", cfg, [("good", True, ""), ("bad", False, "why")])
    assert "PASS good" in text and "FAIL bad: why" in text
    assert text.rstrip().endswith("overall: FAIL")
    path = str(tmp_path / "v.txt")
    assert write_verdict(path, "t", cfg, [("good", True, "")]) is True
    assert "overall: PASS" in open(path).read()
    assert write_verdict(path, "t", cfg, [("bad", False, "")]) is False


# ----------------------------------------------------------------- exit codes


def test_exponents_run_passes_and_writes_reports(tmp_path):
    out = str(tmp_path / "r")
    assert main(["exponents", "--out", out]) == 0
    csv = open(os.path.join(out, "exponents.csv"), "rb").read()
    lines = csv.decode("ascii").splitlines()
    assert lines[0] == "d,a,b,p0,p0_prime,theta,gamma,rho,sigma,q_at_p0"
    assert "4/3" in lines[1]
    assert csv.endswith(b"\n")
    verdict = open(os.path.join(out, "exponents_verdict.txt")).read()
    assert "subcommand=exponents" in verdict
    assert verdict.rstrip().endswith("overall: PASS")


def test_invalid_configuration_exits_2(tmp_path):
    out = str(tmp_path / "r")
    # violated exponent constraint
    assert main(["exponents", "--a", "5", "--d", "3", "--out", out]) == 2
    # missing measure file
    assert main(["restrict", "--measure-file", str(tmp_path / "no.txt"), "--out", out]) == 2
    # unknown catalog phase
    assert main(["oscillatory", "--phase", "nope", "--out", out]) == 2
    # fold check demands a square phase
    assert main(["fold", "--phase", "parabola", "--out", out]) == 2
    # acceptance criterion index out of range
    assert main(["accept", "--only", "0", "--out", out]) == 2
    # scaling grids need at least two points per axis; 0 is not the default
    for cmd in ("oscillatory", "fold"):
        for flag in ("--x-points", "--y-points"):
            for value in ("0", "1"):
                assert main([cmd, flag, value, "--out", out]) == 2, (cmd, flag, value)
    # --out is created only when a file is about to be written
    assert not os.path.exists(out)


def test_write_failure_exits_2_and_names_the_path_once(tmp_path, capsys):
    # a directory where the CSV belongs: main reports the OSError as it is
    # raised, one message naming the path once
    target = tmp_path / "D" / "exponents.csv"
    target.mkdir(parents=True)
    assert main(["exponents", "--out", str(tmp_path / "D")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration: ") and err.count(str(target)) == 1


def test_non_finite_measure_file_exits_2(tmp_path, capsys):
    holes = tmp_path / "nan.txt"
    holes.write_text("2 2 holes\n1.0 0.0 0.5\nnan 1.0 0.5\n", encoding="ascii")
    out = str(tmp_path / "r")
    assert main(["restrict", "--measure-file", str(holes), "--out", out]) == 2
    assert "finite" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("text", ["", "2\n", "1 0 x\n"], ids=["empty", "one-token", "zero-atoms"])
def test_malformed_measure_header_exits_2(tmp_path, capsys, text):
    # unchecked, each header ended in an IndexError traceback and exit 1
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="ascii")
    out = tmp_path / "r"
    assert main(["restrict", "--measure-file", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "%s: the header must be `d n [label]` with integers d and n >= 1" % path in err
    assert not out.exists()


@pytest.mark.parametrize("dim", ["0", "-1"])
@pytest.mark.parametrize("subcommand", ["measure", "decay", "dyadic", "restrict"])
def test_zero_dimensional_point_mass_exits_2(tmp_path, capsys, subcommand, dim):
    # unchecked, `measure` ended in an IndexError traceback and exit 1, and
    # `decay` exited 2 on a reshape error that named no dimension; the
    # parser refuses the flag, and the message names the value typed
    out = tmp_path / "r"
    assert main([subcommand, "--kind", "point", "--dim", dim, "--out", str(out)]) == 2
    assert "argument --dim: expected an integer >= 1, got '%s'\n" % dim in capsys.readouterr().err
    assert not out.exists()


def test_zero_dimensional_measure_file_exits_2(tmp_path, capsys):
    path = tmp_path / "flat.txt"
    path.write_text("0 1\n1.0\n", encoding="ascii")
    out = tmp_path / "r"
    assert main(["restrict", "--measure-file", str(path), "--out", str(out)]) == 2
    assert "the dimension must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_non_separable_phase_file_exits_2(tmp_path, capsys):
    # x1^2 y is not linear in x, so the scaling experiment has no fast path
    path = tmp_path / "square.phase"
    path.write_text("x_dim 2\ny_dim 1\nradius 1.0\nterm 1.0  1 0  1\nterm 0.5  0 2  2\n")
    out = str(tmp_path / "r")
    assert main(["oscillatory", "--phase-file", str(path), "--out", out]) == 2
    assert "phase lacks the separable structure for the fast path" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("subcommand", ["oscillatory", "fold"])
@pytest.mark.parametrize(
    "flags, phase_lines, message",
    [
        (["--radius", "nan"], None, "radius must be finite and positive, got nan"),
        (["--radius", "inf"], None, "radius must be finite and positive, got inf"),
        (["--radius", "0"], None, "radius must be finite and positive, got 0.0"),
        (["--radius", "-1"], None, "radius must be finite and positive, got -1.0"),
        ([], "radius inf\nterm 1.0 1 0 1\n", "radius must be finite and positive, got inf"),
        ([], "radius nan\nterm 1.0 1 0 1\n", "radius must be finite and positive, got nan"),
        ([], "radius 0\nterm 1.0 1 0 1\n", "radius must be finite and positive, got 0.0"),
        ([], "term nan 1 0 1\n", "term coefficients must be finite, got nan"),
        ([], "term -inf 1 0 1\n", "term coefficients must be finite, got -inf"),
    ],
)
def test_bad_radius_or_coefficient_exits_2(tmp_path, capsys, subcommand, flags, phase_lines, message):
    # the catalog and phase files share the builder's one check
    argv = [subcommand] + flags
    if phase_lines is not None:
        path = tmp_path / "bad.phase"
        path.write_text("x_dim 2\ny_dim 1\n" + phase_lines, encoding="ascii")
        argv += ["--phase-file", str(path)]
    out = tmp_path / "r"
    assert main(argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_fold_needs_a_two_dimensional_phase(tmp_path, capsys):
    # a square phase file with x_dim = y_dim = 3: refused before any probe
    path = tmp_path / "cube.phase"
    path.write_text(
        "x_dim 3\ny_dim 3\nradius 1.0\n"
        "term 1.0  1 0 0  1 0 0\nterm 1.0  0 1 0  0 1 0\nterm 0.5  0 0 1  0 0 2\n",
        encoding="ascii",
    )
    out = tmp_path / "r"
    assert main(["fold", "--phase-file", str(path), "--out", str(out)]) == 2
    assert "fold needs x_dim = y_dim = 2, got 3 and 3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("probes", ["0", "-3"])
def test_oscillatory_needs_at_least_one_probe(tmp_path, capsys, probes):
    # zero probes would pass both hypothesis checks vacuously
    out = tmp_path / "r"
    assert main(["oscillatory", "--probes", probes, "--out", str(out)]) == 2
    assert "argument --probes: expected an integer >= 1, got '%s'\n" % probes in capsys.readouterr().err
    assert not out.exists()


# small scaling grids, so that a flag the harness fails to reject costs
# little before the assertion catches it
_SMALL_SCALING = ["--lam-list", "16,32,64,128", "--x-points", "24", "--y-points", "2048"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["oscillatory", "--q", "0"], "q must be finite and positive, got 0"),
        (["oscillatory", "--q", "-1"], "q must be finite and positive, got -1"),
        (["oscillatory", "--q", "inf"], "q must be finite and positive, got inf"),
        (["oscillatory", "--q", "nan"], "q must be finite and positive, got nan"),
        (["oscillatory", "--s", "0"], "s must be positive (math.inf allowed), got 0"),
        (["oscillatory", "--s", "nan"], "s must be positive (math.inf allowed), got nan"),
        (["fold", "--q", "0"], "q must be finite and positive, got 0"),
        (["fold", "--q", "inf"], "q must be finite and positive, got inf"),
        (["fold", "--s", "-2"], "s must be positive (math.inf allowed), got -2"),
        (["fold", "--s", "0"], "s must be positive (math.inf allowed), got 0"),
    ],
)
def test_bad_lorentz_exponents_exit_2(tmp_path, capsys, argv, message):
    # the scaling experiment checks (q, s) as a Lorentz pair before its sweep;
    # unchecked, q = 0 or s = 0 divides by zero, and q = inf or s < 0 fails
    # only in the fit after the whole sweep. The message names the flag's
    # exponent, q or s, and is the whole of stderr
    out = tmp_path / "r"
    assert main(argv + _SMALL_SCALING + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "invalid configuration: %s\n" % message
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["oscillatory", "fold"])
def test_negative_kappa_exits_2(tmp_path, capsys, subcommand):
    # with kappa = -1, oscillatory would skip its curvature check and fold
    # would demand nothing of the singular image: a vacuous pass
    out = tmp_path / "r"
    assert main([subcommand, "--kappa", "-1"] + _SMALL_SCALING + ["--out", str(out)]) == 2
    assert "argument --kappa: expected an integer >= 0, got '-1'\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--phase", "cone", "--family", "slab"], "slab family needs a one-dimensional y variable"),
        (["--phase", "parabola", "--family", "fold"], "fold family needs a two-dimensional y variable"),
    ],
    ids=["slab-on-2d-y", "fold-on-1d-y"],
)
def test_scaling_family_must_fit_the_phase(tmp_path, capsys, argv, message):
    out = tmp_path / "r"
    assert main(["oscillatory"] + argv + _SMALL_SCALING + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "invalid configuration: %s\n" % message
    assert not out.exists()


@pytest.mark.parametrize(
    "subcommand, required", [("oscillatory", "0.00194341"), ("fold", "0.00174525")]
)
def test_scaling_notes_each_dropped_lambda(tmp_path, capsys, subcommand, required):
    # 1024 y points resolve lambda up to 128 but not 256, which the sweep
    # drops with a notice and leaves out of the table and the fit
    out = tmp_path / "r"
    argv = ["--lam-list", "16,32,64,128,256", "--x-points", "24", "--y-points", "1024"]
    assert main([subcommand] + argv + ["--out", str(out)]) == 0
    notice = "PASS resolution notice: lambda=256 dropped: spacing 0.00234604 > required %s" % required
    assert notice in capsys.readouterr().out.splitlines()
    assert notice in (out / (subcommand + "_verdict.txt")).read_text().splitlines()
    table = (out / (subcommand + ".csv")).read_text().splitlines()
    assert [line.split(",")[0] for line in table[1:]] == ["16", "32", "64", "128"]


@pytest.mark.parametrize("flag", ["--fields", "--indicators"])
def test_lorentz_needs_samples(tmp_path, capsys, flag):
    # zero samples would pass every check with a deviation of 0
    out = tmp_path / "r"
    assert main(["lorentz", flag, "0", "--out", str(out)]) == 2
    assert "argument %s: expected an integer >= 1, got '0'\n" % flag in capsys.readouterr().err
    assert not out.exists()


def test_decay_needs_a_direction(tmp_path, capsys):
    out = tmp_path / "r"
    assert main(["decay", "--directions", "0", "--out", str(out)]) == 2
    assert "n_directions must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["cantor", "cantor-random"])
def test_cantor_measure_defaults_to_ratio_power_radii(kind):
    # without --radii, a Cantor kind's balls shrink by its --ratio, from
    # ratio^2 to ratio^8; they are resolved into args, which the verdict echoes
    args = cli.build_parser().parse_args(["measure", "--kind", kind, "--ratio", "0.25", "--levels", "6"])
    result = cli.cmd_measure(args)
    assert args.radii == [0.25**k for k in range(2, 9)]
    assert [row[0] for row in result.table.rows] == args.radii


def test_one_dimensional_decay_ignores_directions(tmp_path):
    # a one-dimensional measure's directions are the two signs, so the
    # --directions it never reads is not validated either
    argv = ["decay", "--kind", "cantor", "--r-list", "3,9,27", "--b-min", "0", "--b-max", "0.05"]
    assert main(argv + ["--directions", "0", "--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    csv_a, csv_b = ((tmp_path / run / "decay.csv").read_bytes() for run in "ab")
    assert csv_a == csv_b


@pytest.mark.parametrize(
    "argv, message",
    [
        (["measure", "--radii", "nan,0.5,0.25,0.125"], "radii must lie in (0, 1], got nan"),
        (["decay", "--r-list", "nan,8,16,32"], "R_list must be finite, got nan"),
    ],
)
def test_non_finite_radii_exit_2_before_any_fit(tmp_path, capfd, argv, message):
    # NaN passes every range comparison: unchecked, the whole profile was
    # computed and the fit failed, in decay after six LAPACK error lines
    out = tmp_path / "r"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capfd.readouterr()
    assert message in captured.err
    assert "DLASCL" not in captured.out + captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "subcommand, flag",
    [
        ("measure", "--a-min"),
        ("measure", "--a-max"),
        ("decay", "--b-min"),
        ("decay", "--b-max"),
        ("dyadic", "--flatness-max"),
        ("lorentz", "--tol-diagonal"),
        ("lorentz", "--tol-indicator"),
        ("knapp", "--slope-g-min"),
        ("knapp", "--slope-g-max"),
        ("knapp", "--gap-min"),
        ("restrict", "--spread-max"),
        ("oscillatory", "--slope-min"),
        ("oscillatory", "--slope-max"),
        ("fold", "--slope-min"),
        ("fold", "--slope-max"),
    ],
)
def test_nan_verdict_threshold_exits_2_at_entry(tmp_path, capsys, subcommand, flag):
    # every comparison with NaN is false: unchecked, the whole experiment ran
    # and its check failed with exit 1 ("within nan"); an infinite bound
    # leaves the window open and stays legal
    out = tmp_path / "r"
    assert main([subcommand, flag, "nan", "--out", str(out)]) == 2
    assert "argument %s" % flag in capsys.readouterr().err
    assert not out.exists()
    for bound in ("inf", "-inf"):
        args = cli.build_parser().parse_args([subcommand, "%s=%s" % (flag, bound)])
        assert getattr(args, flag[2:].replace("-", "_")) == float(bound)


_SMALL_RESTRICT = ["restrict", "--points", "128", "--half-width", "16", "--n", "256"]


@pytest.mark.parametrize(
    "argv",
    [
        ["dyadic", "--kind", "point", "--dim", "2", "--points", "256", "--j-list", "3"],
        _SMALL_RESTRICT + ["--scales", "1"],
        _SMALL_RESTRICT + ["--family", "knapp", "--deltas", "0.25"],
        _SMALL_RESTRICT + ["--family", "random", "--count", "1"],
        ["dyadic", "--j-list", "3"],
    ],
)
def test_single_value_flatness_exits_2(tmp_path, capsys, monkeypatch, argv):
    # max/min of one value is 1, so a flatness check on one j, scale, cap
    # width or random field would pass vacuously. The flag is counted at
    # entry: neither the lattice transform of dyadic nor a ratio of restrict
    # is computed (at the default 2048^2 lattice the transform alone takes
    # seconds)
    def refuse(*args, **kwargs):
        pytest.fail("the experiment started despite a single-value flatness flag")

    for name in ("mu_hat_on_lattice", "dyadic_piece", "stein_tomas_ratio"):
        monkeypatch.setattr(cli, name, refuse)
    out = tmp_path / "r"
    assert main(argv + ["--out", str(out)]) == 2
    flag = argv[-2]
    err = capsys.readouterr().err
    assert err == "invalid configuration: %s: a flatness factor needs at least 2 values, got 1\n" % flag
    assert not out.exists()


def test_non_geometric_lam_list_exits_2_before_the_sweep(tmp_path, capsys, monkeypatch):
    # the fit assumes geometric lambdas; the list is checked before the
    # gradient bound and the first phase matrices, not after the sweep
    def refuse(*args, **kwargs):
        pytest.fail("the sweep started despite a non-geometric lambda list")

    monkeypatch.setattr(osc, "_max_y_gradient", refuse)
    monkeypatch.setattr(osc, "phase_factors", refuse)
    out = tmp_path / "r"
    assert main(["oscillatory", "--lam-list", "16,32,64,200", "--out", str(out)]) == 2
    assert "lambda values must be geometric" in capsys.readouterr().err
    assert not out.exists()


_DEGENERATE_GRIDS = [
    (["--x-points", "2"], "x_points = 2 puts no x grid point inside the amplitude's support, radius 1"),
    (["--y-points", "2"], "y_points = 2 puts no y grid point inside the amplitude's support, radius 1"),
    (["--radius", "1e-300"], "radius 1e-300 with x_points = {x_points} gives an x cell volume of 0"),
]


@pytest.mark.parametrize("subcommand, x_points", [("oscillatory", 192), ("fold", 160)])
@pytest.mark.parametrize("flags, message", _DEGENERATE_GRIDS, ids=[" ".join(f) for f, _ in _DEGENERATE_GRIDS])
def test_degenerate_scaling_grid_exits_2_before_the_sweep(
    tmp_path, capsys, monkeypatch, subcommand, x_points, flags, message
):
    # two points per axis sit at +-1.1 r or +-1.2 r, outside the amplitude's
    # support, and at radius 1e-300 the x cell volume underflows to 0; each
    # made every ratio 0, and the run exited 2 only at the fit, after the
    # whole sweep, with a message that named no flag
    def refuse(*args, **kwargs):
        pytest.fail("the sweep started despite a degenerate grid")

    monkeypatch.setattr(osc, "_max_y_gradient", refuse)
    monkeypatch.setattr(osc, "phase_factors", refuse)
    out = tmp_path / "r"
    assert main([subcommand, *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "invalid configuration: %s\n" % message.format(x_points=x_points)
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["oscillatory", "fold"])
def test_repeated_lam_list_exits_2_before_the_sweep(tmp_path, capsys, monkeypatch, subcommand):
    # a step ratio of 1 passes the geometric check; unchecked, the sweep ran
    # at one lambda four times and the fit of four equal x values exited 1
    def refuse(*args, **kwargs):
        pytest.fail("the sweep started despite a repeated lambda")

    monkeypatch.setattr(osc, "_max_y_gradient", refuse)
    monkeypatch.setattr(osc, "phase_factors", refuse)
    out = tmp_path / "r"
    assert main([subcommand, "--lam-list", "16,16,16,16", "--out", str(out)]) == 2
    assert "lambda values must be distinct, got [16.0, 16.0, 16.0, 16.0]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "family, read",
    [
        ("gaussian", ["scales", "spread_max"]),
        ("knapp", ["deltas", "spread_max"]),
        ("random", ["count"]),
    ],
)
def test_restrict_echoes_only_its_family_flags(tmp_path, family, read):
    # each family reads its own size flag, and only the structured ones
    # check --spread-max
    out = tmp_path / "r"
    argv = _SMALL_RESTRICT + ["--family", family, "--deltas", "0.25,0.125", "--count", "2"]
    assert main(argv + ["--out", str(out)]) in (0, 1)
    echo = (out / "restrict_verdict.txt").read_text()
    assert re.findall(r"^  (scales|deltas|count|spread_max)=", echo, re.M) == read


@pytest.mark.parametrize(
    "j_list, message",
    [
        ("1,2,12", "grid too coarse for scale j=12: Nyquist radius 256 < 2^j"),
        ("1,-1", "j must be nonnegative"),
    ],
)
def test_unresolvable_scale_exits_2_before_the_transform(tmp_path, capsys, monkeypatch, j_list, message):
    # every j is checked at entry, with dyadic_piece's own condition and
    # message: at the default 2048^2 lattice the transform and the pieces
    # before the bad scale take seconds and the run's whole peak memory
    def refuse(*args, **kwargs):
        pytest.fail("the sweep started despite an unresolvable scale")

    for name in ("mu_hat_on_lattice", "dyadic_piece"):
        monkeypatch.setattr(cli, name, refuse)
    out = tmp_path / "r"
    assert main(["dyadic", "--j-list", j_list, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_unresolvable_cap_count_exits_2_before_the_first_field(tmp_path, capsys, monkeypatch):
    # the default 4096^2 grid resolves N <= 6; the largest N is checked
    # before the sphere measure and the first 4096^2 field are built
    def refuse(*args, **kwargs):
        pytest.fail("the experiment built a field despite an unresolvable N")

    for name in ("knapp_function", "make_sphere_measure", "inverse_fourier_on_grid"):
        monkeypatch.setattr(knapp, name, refuse)
    out = tmp_path / "r"
    assert main(["knapp", "--N-list", "2,3,4,5,6,7", "--out", str(out)]) == 2
    assert "grid resolves at most N = 6 caps" in capsys.readouterr().err
    assert not out.exists()


def test_dyadic_sweep_peak_memory_stays_below_four_lattices(tmp_path):
    # the sweep holds mu_hat and the inverse transform's one buffer (the
    # moduli, or the box's lines when they are more, then one block, the
    # source block and one slab); the ring product is formed inside the
    # transform a block of the box's lines at a time, so no localized
    # lattice is built, and a piece keeps only its two sups (few atoms: the
    # transform's phase matrices are small). About 2.3 lattices here, 3.2
    # when each piece built its localized lattice
    lattice = 16 * 512**2  # bytes of one complex lattice
    argv = ["dyadic", "--points", "512", "--n", "256", "--j-list", "1,2,3,4,5,6"]
    for workers in (_workers._WORKERS, 4):
        with mock.patch.object(_workers, "_WORKERS", workers):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                assert main(argv + ["--out", str(tmp_path / str(workers))]) == 0
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert peak <= 4.0 * lattice


def test_accept_of_the_ball_profiles_loads_no_scipy(tmp_path):
    # the lab runs on numpy alone: the ball counts of criteria 3 and 4 are
    # its own, so an accept that runs them leaves no scipy module loaded
    code = (
        "import sys; from restrictionlab.cli import main; "
        "rc = main(['accept', '--only', '3,4', '--out', sys.argv[1]]); "
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"


@pytest.mark.parametrize("subcommand", ["dyadic", "knapp", "restrict"])
def test_oversized_points_exit_2_before_any_lattice(tmp_path, capsys, monkeypatch, subcommand):
    # one complex lattice of N^2 points takes 16 N^2 bytes; at N = 2^30 that
    # is 16 EiB, beyond any physical memory, so the run must stop before the
    # experiment starts (every entry point below fails the test if reached)
    def refuse(*args, **kwargs):
        pytest.fail("the experiment started despite the oversized lattice")

    for name in (
        "mu_hat_on_lattice",
        "dyadic_piece",
        "knapp_sharpness_experiment",
        "gaussian_dilate_family",
        "knapp_cap_family",
        "random_smooth_family",
    ):
        monkeypatch.setattr(cli, name, refuse)
    n = 1 << 30
    out = str(tmp_path / "r")
    assert main([subcommand, "--points", str(n), "--out", out]) == 2
    err = capsys.readouterr().err
    assert "physical memory" in err and "takes %d bytes" % (16 * n**2) in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("subcommand", ["dyadic", "knapp", "restrict"])
def test_non_finite_half_width_exits_2(tmp_path, capsys, subcommand, value):
    # unchecked, NaN passed `half_width <= 0` and failed later with an
    # IndexError or a NaN-to-integer message, and inf with an OverflowError
    out = tmp_path / "r"
    assert main([subcommand, "--half-width", value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "half_width must be finite and positive, got %s" % value in err
    assert not out.exists()


def test_argparse_schema_errors_exit_2():
    assert main(["not-a-subcommand"]) == 2
    assert main(["exponents", "--bogus-flag", "1"]) == 2
    assert main(["--help"]) == 0


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["measure", "--a-min", "x"], "expected a number other than NaN, got 'x'"),
        (["measure", "--a-min", "nan"], "expected a number other than NaN, got 'nan'"),
        (["knapp", "--N-list", "a"], "expected a comma-separated list of integers, got 'a'"),
        (["knapp", "--s-list", ","], "expected a comma-separated list of numbers, got ','"),
        (["measure", "--kind", "point", "--dim", "abc"], "expected an integer >= 1, got 'abc'"),
    ],
)
def test_unparsable_flag_value_names_the_expected_value(tmp_path, capsys, argv, expected):
    # argparse prints a converter's ValueError as "invalid <function name>
    # value" and drops its message, so the converters raise parser errors
    out = tmp_path / "r"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "argument %s: %s\n" % (argv[-2], expected) in err
    assert "invalid _" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["accept", "--only", "1"], ["exponents"]])
def test_negative_seed_exits_2_at_the_parser(tmp_path, capsys, argv):
    # numpy refused it only once accept had created --out, and exponents,
    # which draws nothing, ran and echoed seed=-1
    out = tmp_path / "r"
    assert main(argv + ["--seed", "-1", "--out", str(out)]) == 2
    assert "argument --seed: expected an integer >= 0, got '-1'\n" in capsys.readouterr().err
    assert not out.exists()


def test_failed_verdict_exits_1(tmp_path):
    # the flat phase has no mixed-curvature coupling, so the rank check and
    # the decay window both fail while the configuration itself is valid
    out = str(tmp_path / "r")
    rc = main(
        [
            "oscillatory",
            "--phase",
            "zero",
            "--kappa",
            "0",
            "--family",
            "constant",
            "--q",
            "2",
            "--lam-list",
            "8,16,32,64",
            "--x-points",
            "24",
            "--y-points",
            "256",
            "--out",
            out,
        ]
    )
    assert rc == 1
    verdict = open(os.path.join(out, "oscillatory_verdict.txt")).read()
    assert "FAIL mixed-hessian-rank>=1" in verdict
    assert verdict.rstrip().endswith("overall: FAIL")


def test_zero_phase_fails_its_hypotheses_at_the_defaults(tmp_path, capsys):
    # the zero phase violates the curvature hypothesis: its mixed Hessian
    # vanishes, so no probe has a kernel direction; that is a FAIL (exit 1),
    # not an invalid configuration
    out = tmp_path / "r"
    assert main(["oscillatory", "--phase", "zero", "--out", str(out)]) == 1
    line = "FAIL curvature-rank>=1: ranks 0,0,0,0,0,0,0,0; kernel dimensions 2,2,2,2,2,2,2,2"
    assert line in capsys.readouterr().out.splitlines()
    assert line in (out / "oscillatory_verdict.txt").read_text().splitlines()


_GRID_RANGE = (
    " points per axis in 2 dimensions: the cell volume, the transform scale or a squared axis extent"
    " is not a finite positive float"
)
_SMALL_KNAPP = ["--points", "512", "--half-width", "64", "--N-list", "2,3,4", "--sphere-n", "1024"]
# the largest step t of the Lorentz integral is the sample volume: 5.27002
# for the x box of _SMALL_SCALING, (2L)^2 = 16384 for _SMALL_KNAPP
_LORENTZ_RANGE = " take the Lorentz integral out of the float range on steps up to t = %g"
_GAUSS = ": exp(-2 pi t^2 |x|^2) overflows its exponent on this grid"
_DEGREE_2 = "radius 1e+300: a term of degree 2 overflows within twice the radius"
# each flag value that takes a float out of its range, and its message; the
# scaling runs and knapp run on their small grids
_OVERFLOWS = [
    (["dyadic", "--half-width", "1e-300"], "half_width 1e-300 with 2048" + _GRID_RANGE),
    (["restrict", "--half-width", "1e300"], "half_width 1e+300 with 512" + _GRID_RANGE),
    (["restrict", "--scales", "1e300,1,2,3"], "scale 1e+300" + _GAUSS),
    (["restrict", "--scales", "inf,1,2,3"], "scale inf" + _GAUSS),
    (["restrict", "--family", "knapp", "--deltas", "inf,1"], "delta = inf leaves the cap no width"),
    (["restrict", "--scales", "nan,1,2,3"], "scale nan: exp(-2 pi t^2 |x|^2) has a NaN exponent on this grid"),
    (
        ["restrict", "--family", "knapp", "--deltas", "nan,1"],
        "delta = nan: the cap needs delta >= 2/L = 0.03125 on box half-width 64",
    ),
    (
        ["measure", "--kind", "cantor", "--ratio", "1e-300"],
        "contraction_ratio 1e-300: 14 levels take the finest cell out of the float range",
    ),
    (["fold", "--radius", "1e300"], _DEGREE_2),
    (["oscillatory", "--radius", "1e300"], _DEGREE_2),
    (["oscillatory", "--q", "1e-300"], "q = 1e-300 and s = 2" + _LORENTZ_RANGE % 5.27002),
    (["oscillatory", "--s", "1e-300"], "q = 6 and s = 1e-300" + _LORENTZ_RANGE % 5.27002),
    (["oscillatory", "--s", "1e300"], "q = 6 and s = 1e+300" + _LORENTZ_RANGE % 5.27002),
    (["fold", "--q", "1e-300"], "q = 1e-300 and s = 2" + _LORENTZ_RANGE % 5.27002),
    (["fold", "--s", "1e-300"], "q = 3 and s = 1e-300" + _LORENTZ_RANGE % 5.27002),
    (["fold", "--s", "1e300"], "q = 3 and s = 1e+300" + _LORENTZ_RANGE % 5.27002),
    # s/p = 1e600 is inf, and (p/s) t^(s/p) reads 0 * inf
    (["fold", "--q", "1e-300", "--s", "1e300"], "q = 1e-300 and s = 1e+300" + _LORENTZ_RANGE % 5.27002),
    (["knapp", "--s-list", "1e300,inf"], "p = 1.2 and s = 1e+300" + _LORENTZ_RANGE % 16384),
    (["knapp", "--s-list", "1e-300,inf"], "p = 1.2 and s = 1e-300" + _LORENTZ_RANGE % 16384),
    # 16384^(128/1.2) overflows, on the grid's whole area t = (2L)^2
    (["knapp", "--s-list", "2,128"], "p = 1.2 and s = 128" + _LORENTZ_RANGE % 16384),
]
_SMALL = {"oscillatory": _SMALL_SCALING, "fold": _SMALL_SCALING, "knapp": _SMALL_KNAPP}


@pytest.mark.parametrize("argv, message", _OVERFLOWS, ids=[" ".join(argv) for argv, _ in _OVERFLOWS])
def test_float_range_overflow_exits_2_at_entry(tmp_path, capsys, monkeypatch, argv, message):
    # unchecked, each of these ended in an OverflowError traceback (exit 1,
    # the code of a FAIL), or in a RuntimeWarning of numpy where the Tier-1
    # filters make it an error; none reaches the experiment's first lattice,
    # field or sweep step
    def refuse(*args, **kwargs):
        pytest.fail("the experiment started despite the overflow")

    monkeypatch.setattr(cli, "mu_hat_on_lattice", refuse)
    monkeypatch.setattr(osc, "apply_T_lambda_product", refuse)
    monkeypatch.setattr(knapp, "knapp_function", refuse)
    out = tmp_path / "r"
    assert main(argv + _SMALL.get(argv[0], []) + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "invalid configuration: %s\n" % message
    assert not out.exists()


# --------------------------------------------------------------- subcommands


def test_dyadic_point_mass_scaling(tmp_path):
    out = str(tmp_path / "r")
    rc = main(
        [
            "dyadic",
            "--kind",
            "point",
            "--dim",
            "2",
            "--points",
            "256",
            "--half-width",
            "2",
            "--j-list",
            "1,2,3",
            "--out",
            out,
        ]
    )
    assert rc == 0
    lines = open(os.path.join(out, "dyadic.csv")).read().splitlines()
    assert lines[0] == "j,sup_mu_hat_j,sup_mu_j,hat_scaled,mass_scaled"
    assert len(lines) == 4
    # a point mass reads --dim alone of the measure flags
    echo = open(os.path.join(out, "dyadic_verdict.txt")).read()
    assert re.findall(r"^  (kind|n|ratio|levels|dim)=", echo, re.M) == ["dim", "kind"]


def _perfbench_module(name, monkeypatch):
    """perfbench/<name>.py, executed (read only) as a private module that is
    registered in sys.modules for the duration of the test."""
    spec = importlib.util.spec_from_file_location("perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _traced_stats(monkeypatch, workload_name, runs):
    """Run each argv through cli.main under the benchmark's tracer; return
    the workload's expected spans and the aggregated stats."""
    tracing = _perfbench_module("tracer", monkeypatch)
    workload = _perfbench_module("workloads", monkeypatch).WORKLOADS[workload_name]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [cli.main(argv) for argv in runs]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(runs)
    return workload.expected_spans, tracer.aggregate()


def test_traced_dyadic_run_records_every_expected_span(tmp_path, monkeypatch):
    # The benchmark's tracer wraps public functions at their module bindings
    # and binds measure, grid, u and freq_values by parameter name. A sweep
    # that bypasses dyadic_piece or dyadic_ring, or renames those parameters,
    # makes every traced `dyadic` benchmark run report a missing span.
    argv = ["dyadic", "--points", "64", "--n", "64", "--j-list", "1,2,3", "--out", str(tmp_path)]
    expected, stats = _traced_stats(monkeypatch, "dyadic", [argv])
    expected = [s for s in expected if s != "acceptance.criterion_05"]
    assert "bumps.dyadic_ring" in expected and "measures.dyadic_piece" in expected
    assert [s for s in expected if stats.get(s, {}).get("calls", 0) == 0] == []
    assert stats["measures.dyadic_piece"]["calls"] == 3
    assert stats["bumps.dyadic_ring"]["points"] == 15**2 + 31**2 + 63**2
    assert sum(s["exceptions"] for s in stats.values()) == 0


def test_traced_knapp_run_records_every_expected_span(tmp_path, monkeypatch):
    # the tracer binds arguments by parameter name; a `knapp` run must record
    # every span the workload expects, with its work counts
    argv = ["knapp", "--points", "512", "--half-width", "64", "--N-list", "2,3,4"]
    argv += ["--sphere-n", "1024", "--out", str(tmp_path)]
    expected, stats = _traced_stats(monkeypatch, "knapp", [argv])
    expected = [s for s in expected if s != "acceptance.criterion_08"]
    assert "knapp.knapp_function" in expected and "lorentz.lorentz_norm_values" in expected
    assert [s for s in expected if stats.get(s, {}).get("calls", 0) == 0] == []
    assert stats["knapp.knapp_function"]["calls"] == 3
    # one inverse transform and one rearrangement of 512^2 samples per N
    assert stats["grids.inverse_fourier_on_grid"]["points"] == 3 * 512**2
    assert stats["lorentz.lorentz_norm_values"]["elements"] == 3 * 512**2
    assert sum(s["exceptions"] for s in stats.values()) == 0


def test_traced_oscillatory_and_fold_runs_record_the_expected_spans(tmp_path, monkeypatch):
    # the `oscillatory` workload runs criteria 9 and 10 through these two
    # subcommands; the spans they reach must record calls and work counts
    window = ["--slope-min", "-5", "--slope-max", "5"]
    runs = [
        [cmd] + _SMALL_SCALING + window + ["--out", str(tmp_path / cmd)]
        for cmd in ("oscillatory", "fold")
    ]
    expected, stats = _traced_stats(monkeypatch, "oscillatory", runs)
    reached = [
        "cli.main",
        "reporting.emit_csv",
        "reporting.write_verdict",
        "oscillatory.scaling_experiment",
        "oscillatory.apply_T_lambda_product",
        "oscillatory.check_fold",
        "lorentz.lorentz_norm_values",
        "fitting.loglog_fit",
    ]
    assert set(reached) <= set(expected)
    assert [s for s in reached if stats.get(s, {}).get("calls", 0) == 0] == []
    assert stats["oscillatory.scaling_experiment"]["calls"] == 2
    assert stats["oscillatory.apply_T_lambda_product"]["phase_entries"] > 0
    assert stats["lorentz.lorentz_norm_values"]["elements"] > 0
    assert sum(s["exceptions"] for s in stats.values()) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["exponents", "--kappa", "2"],
        ["measure", "--n", "256"],
        ["decay", "--n", "256", "--directions", "8", "--r-list", "2,4,8"],
        ["dyadic", "--points", "256", "--n", "256", "--j-list", "1,2,3"],
        ["lorentz", "--fields", "20", "--indicators", "5"],
        ["knapp", "--points", "1024", "--half-width", "128", "--N-list", "2,3,4", "--sphere-n", "1024"],
        ["restrict", "--n", "256", "--points", "128", "--half-width", "16"],
        ["oscillatory", "--phase", "zero", "--kappa", "0", "--family", "constant", "--q", "2"]
        + ["--lam-list", "8,16,32,64", "--x-points", "24", "--y-points", "256"],
        ["fold"] + _SMALL_SCALING,
    ],
    ids=lambda argv: argv[0],
)
def test_printed_check_lines_are_the_verdict_lines(tmp_path, capsys, argv):
    # the console and the verdict file print every check through one format
    out = tmp_path / "r"
    assert main(argv + ["--out", str(out)]) in (0, 1)
    printed = capsys.readouterr().out.splitlines()[:-1]  # the last names the files
    verdict = (out / (argv[0] + "_verdict.txt")).read_text().splitlines()
    # title, config echo and checks are separated by blank lines
    blanks = [k for k, line in enumerate(verdict) if line == ""]
    assert printed and printed == verdict[blanks[1] + 1 : blanks[2]]


def test_side_files_of_measure_and_exponents(tmp_path, capsys):
    # the documented workflow: `measure` saves its measure beside its table,
    # and `restrict --measure-file` on that file gives the bytes of
    # `restrict` on the same measure built from flags
    assert main(["measure", "--n", "256", "--out", str(tmp_path / "m")]) == 0
    saved = tmp_path / "m" / "circle-n256.measure.txt"
    assert (tmp_path / "m" / "measure.csv").exists() and saved.exists()
    stdout = capsys.readouterr().out
    assert str(saved) in stdout.splitlines()[-1] and "measure saved" not in stdout
    grid = ["--points", "128", "--half-width", "16", "--scales", "1,2,4"]
    assert main(["restrict", "--measure-file", str(saved)] + grid + ["--out", str(tmp_path / "a")]) == 0
    assert main(["restrict", "--kind", "circle", "--n", "256"] + grid + ["--out", str(tmp_path / "b")]) == 0
    lines = (tmp_path / "a" / "restrict.csv").read_text().splitlines()
    assert lines[0] == "field,ratio"
    assert len(lines) == 4 and lines[1].startswith("gauss-t1")
    assert (tmp_path / "a" / "restrict.csv").read_bytes() == (tmp_path / "b" / "restrict.csv").read_bytes()
    # the file replaces every measure flag, so the echo names none of them
    echo = (tmp_path / "a" / "restrict_verdict.txt").read_text()
    assert not re.search(r"^  (kind|n|ratio|levels|dim)=", echo, re.M)
    assert re.search(r"^  measure_file=", echo, re.M)
    # exponents --kappa writes its second table beside its first
    assert main(["exponents", "--kappa", "2", "--out", str(tmp_path / "e")]) == 0
    osc = (tmp_path / "e" / "exponents_oscillatory.csv").read_text().splitlines()
    assert osc[0] == "quantity,value"
    assert "q0,4" in osc


def test_knapp_subcommand_flags(tmp_path):
    out = str(tmp_path / "r")
    rc = main(
        [
            "knapp",
            "--points",
            "1024",
            "--half-width",
            "128",
            "--sphere-n",
            "4096",
            "--N-list",
            "2,3,4",
            "--out",
            out,
        ]
    )
    assert rc == 0
    lines = open(os.path.join(out, "knapp.csv")).read().splitlines()
    assert lines[0] == "N,norm_g,norm_f_s2,norm_f_sinf"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["2", "3", "4"]


def test_knapp_bad_exponents_exit_2_before_any_field(tmp_path):
    # p = 1 has no dual exponent; s must be positive
    out = tmp_path / "r"
    assert main(["knapp", "--p", "1", "--out", str(out)]) == 2
    assert main(["knapp", "--s-list", "2,0", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--s-list", "2,2"], ["--N-list", "2,2,3"]])
def test_knapp_repeated_entries_exit_2_before_any_field(tmp_path, capsys, monkeypatch, flags):
    # a repeated s would write its CSV column twice, and 2,2,3 has only two
    # distinct N for the slope fit
    def refuse(*args, **kwargs):
        pytest.fail("the experiment built a field despite a repeated entry")

    monkeypatch.setattr(knapp, "knapp_function", refuse)
    out = tmp_path / "r"
    argv = ["knapp", "--N-list", "2,3,4", "--points", "512", "--half-width", "64", "--sphere-n", "1024"]
    assert main(argv + flags + ["--out", str(out)]) == 2
    assert "values must be distinct" in capsys.readouterr().err
    assert not out.exists()


def test_oscillatory_accepts_phase_file(tmp_path):
    phase = tmp_path / "para.phase"
    phase.write_text(
        "x_dim 2\ny_dim 1\nradius 1.0\nterm 1.0 1 0 1\nterm 0.5 0 1 2\n",
        encoding="ascii",
    )
    out = str(tmp_path / "r")
    rc = main(
        [
            "oscillatory",
            "--phase-file",
            str(phase),
            "--radius",
            "5",
            "--q",
            "6",
            "--lam-list",
            "16,32,64,128",
            "--x-points",
            "48",
            "--y-points",
            "2048",
            "--slope-min",
            "-0.6",
            "--slope-max",
            "-0.1",
            "--out",
            out,
        ]
    )
    assert rc == 0
    verdict = open(os.path.join(out, "oscillatory_verdict.txt")).read()
    assert "PASS curvature-rank>=1" in verdict
    # the file's phase and radius ran, so the echo names them, not --radius 5
    echo = verdict.splitlines()
    assert "  phase=poly:para" in echo and "  radius=1.0" in echo
    bad = tmp_path / "bad.phase"
    bad.write_text("x_dim 2\nterm 1 1 1\n", encoding="ascii")
    assert main(["oscillatory", "--phase-file", str(bad), "--out", out]) == 2


def test_scaling_verdict_echoes_the_grid_used(tmp_path):
    # --x-points given, --y-points left to its default: the echo names the
    # effective size of both, not the unset flag
    out = tmp_path / "r"
    rc = main(
        [
            "oscillatory",
            "--lam-list",
            "16,32,64,128",
            "--x-points",
            "48",
            "--slope-min",
            "-0.6",
            "--slope-max",
            "-0.1",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    echo = (out / "oscillatory_verdict.txt").read_text().splitlines()
    assert "  x_points=48" in echo and "  y_points=8192" in echo


def test_accept_only_selection_writes_summary(tmp_path):
    out = str(tmp_path / "r")
    assert main(["accept", "--only", "1,2", "--out", out]) == 0
    names = sorted(os.listdir(out))
    assert names == [
        "accept_verdict.txt",
        "criterion_01.csv",
        "criterion_01_verdict.txt",
        "criterion_02.csv",
        "criterion_02_verdict.txt",
        "summary.csv",
    ]
    summary = open(os.path.join(out, "summary.csv")).read().splitlines()
    assert summary[0] == "criterion,name,passed"
    assert summary[1] == "1,exponent-identities,true"
    assert summary[2] == "2,exponent-cross-checks,true"


def test_accept_writes_only_under_its_out(tmp_path, monkeypatch):
    # criteria 3 and 4 run `measure`, whose --out default is reports/; the
    # subcommands a criterion runs write nothing, so an empty working
    # directory gets only the suite's --out
    monkeypatch.chdir(tmp_path)
    assert main(["accept", "--only", "3,4", "--seed", "7", "--out", "acc"]) == 0
    assert os.listdir(tmp_path) == ["acc"]
    for base in ("criterion_03.csv", "criterion_04.csv"):
        reference = REFERENCE / "oscillatory" / "seed7" / base
        assert (tmp_path / "acc" / base).read_bytes() == reference.read_bytes()
    # each run's flags are echoed under its subcommand's name
    echo = (tmp_path / "acc" / "criterion_03_verdict.txt").read_text().splitlines()
    assert "  decay.r_list=4.0,8.0,16.0,32.0,64.0,128.0,256.0" in echo
    assert "  measure.a_min=0.9" in echo and "  measure.a_max=1.1" in echo
    # and only the flags the run read: a circle reads --n, not --ratio,
    # --levels or --dim, and the one-dimensional Cantor measure reads
    # --ratio and --levels but neither --n, --dim nor --directions (its
    # directions are the two signs)
    assert _echoed_run_flags(tmp_path / "acc" / "criterion_03_verdict.txt") == {
        "decay": {"b_max", "b_min", "directions", "kind", "n", "r_list"},
        "measure": {"a_max", "a_min", "kind", "n", "radii"},
    }
    assert _echoed_run_flags(tmp_path / "acc" / "criterion_04_verdict.txt") == {
        "decay": {"b_max", "b_min", "kind", "levels", "r_list", "ratio"},
        "measure": {"a_max", "a_min", "kind", "levels", "radii", "ratio"},
    }


def _echoed_run_flags(path):
    # {subcommand: flags} of the run.flag=value lines of a verdict echo
    flags = {}
    for line in path.read_text().splitlines():
        key = line.strip().split("=", 1)[0]
        if line.startswith("  ") and "." in key:
            run, flag = key.split(".", 1)
            flags.setdefault(run, set()).add(flag)
    return flags


# -------------------------------------------------------------- determinism


def test_repeat_runs_emit_identical_csv_bytes(tmp_path):
    args = ["lorentz", "--fields", "30", "--indicators", "10", "--seed", "3"]
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(args + ["--out", out_a]) == 0
    assert main(args + ["--out", out_b]) == 0
    csv_a = open(os.path.join(out_a, "lorentz.csv"), "rb").read()
    csv_b = open(os.path.join(out_b, "lorentz.csv"), "rb").read()
    assert csv_a == csv_b
    # verdicts agree up to the echoed output directory
    va = [
        ln
        for ln in open(os.path.join(out_a, "lorentz_verdict.txt")).read().splitlines()
        if not ln.strip().startswith("out=")
    ]
    vb = [
        ln
        for ln in open(os.path.join(out_b, "lorentz_verdict.txt")).read().splitlines()
        if not ln.strip().startswith("out=")
    ]
    assert va == vb


def test_lorentz_defaults_match_criterion_7_reference(tmp_path):
    # acceptance criterion 7 is this subcommand at its defaults
    out = tmp_path / "r"
    assert main(["lorentz", "--out", str(out)]) == 0
    reference = REFERENCE / "oscillatory" / "seed0" / "criterion_07.csv"
    assert (out / "lorentz.csv").read_bytes() == reference.read_bytes()


def test_seed_changes_noise_driven_output(tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    base = ["lorentz", "--fields", "30", "--indicators", "10"]
    assert main(base + ["--seed", "1", "--out", out_a]) == 0
    assert main(base + ["--seed", "2", "--out", out_b]) == 0
    csv_a = open(os.path.join(out_a, "lorentz.csv"), "rb").read()
    csv_b = open(os.path.join(out_b, "lorentz.csv"), "rb").read()
    assert csv_a != csv_b
