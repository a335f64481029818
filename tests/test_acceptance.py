"""Acceptance gate: one test per pinned criterion, all reading two runs.

The session fixture `runs` runs `accept --seed 0` twice, at the same time,
and asserts nothing: run A in process through `cli.main` at the default
BLAS thread count and worker count, and run B through `cli.main` in a child
process limited to one BLAS thread and, by its CPU affinity, to one worker
of `_workers`. Criteria 1 through 11 are the
cases of `test_criterion`, which reads run A: the exit code, the summary
row, the verdict (whose check lines are the failure message, so a red line
is diagnosable from the pytest output alone), the runtime budget, which is
the verdict's last check, and the emitted CSV against its pin in
tests/pins/seed0, byte for byte except criterion 6's two rounding-residual
columns, so any change to the arithmetic shows (tools/pins.py rewrites the
pins after a change that is meant to move them).
Criterion 12 compares the CSV bytes of the two runs: two same-seed runs,
at the default and at one BLAS thread and lab worker, so it also pins every
criterion's table across thread and worker counts. The labels of every verdict's check lines are
pinned from run A as well.
"""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from restrictionlab import cli
from restrictionlab.fitting import loglog_fit

ROOT = Path(__file__).resolve().parent.parent
PINS = ROOT / "tests" / "pins" / "seed0"

# run B's child: pinned to one CPU before the lab is imported, so that
# _workers._WORKERS is 1 there
ONE_CPU = (
    "import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
    "from restrictionlab import _workers; from restrictionlab.cli import main; "
    "assert _workers._WORKERS == 1, _workers._WORKERS; sys.exit(main(sys.argv[1:]))"
)

# (index, name, runtime budget in seconds or None), written out here so
# that the pins hold independently of acceptance.GATES
CRITERIA = [
    (1, "exponent-identities", 1),
    (2, "exponent-cross-checks", None),
    (3, "circle-dimensions", 10),
    (4, "cantor-dimensions", 10),
    (5, "dyadic-piece-bounds", 60),
    (6, "tomas-identity", None),
    (7, "lorentz-suite", None),
    (8, "knapp-sharpness", 300),
    (9, "parabola-scaling", 600),
    (10, "fold-scaling", 600),
    (11, "dyadic-kernel-sup", None),
]


@pytest.fixture(scope="session")
def runs(tmp_path_factory):
    """The two `accept --seed 0` runs, each as its exit code, stdout,
    stderr and output directory."""
    out_a = tmp_path_factory.mktemp("accept_a")
    out_b = tmp_path_factory.mktemp("accept_b")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # run B works in its child process while run A works in this one; the
    # with block waits for B even when A raises
    with subprocess.Popen(
        [sys.executable, "-c", ONE_CPU, "accept", "--seed", "0", "--out", str(out_b)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    ) as proc:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(["accept", "--seed", "0", "--out", str(out_a)])
        b_stdout, b_stderr = proc.communicate(timeout=1800)
    a = SimpleNamespace(code=code, stdout=stdout.getvalue(), stderr=stderr.getvalue(), out=out_a)
    b = SimpleNamespace(code=proc.returncode, stdout=b_stdout, stderr=b_stderr, out=out_b)
    return a, b


@pytest.mark.parametrize("index, name, budget", CRITERIA, ids=["%02d-%s" % (c[0], c[1]) for c in CRITERIA])
def test_criterion(runs, index, name, budget):
    run = runs[0]
    assert run.code != 2, "invalid configuration: " + run.stderr
    lines = (run.out / ("criterion_%02d_verdict.txt" % index)).read_text().splitlines()
    checks = [line for line in lines if line.startswith(("PASS ", "FAIL "))]
    detail = "criterion %d (%s) failed:\n%s" % (index, name, "\n".join(checks))
    assert lines[-1] == "overall: PASS", detail
    assert (run.out / "summary.csv").read_text().splitlines()[index] == "%d,%s,true" % (index, name)
    if budget is None:
        assert not any("runtime" in check for check in checks)
    else:
        assert re.fullmatch(r"PASS runtime < %d s: \d+\.\d\d s" % budget, checks[-1]), checks[-1]
    base = "criterion_%02d.csv" % index
    emitted = (run.out / base).read_bytes()
    pinned = (PINS / base).read_bytes()
    if index != 6:
        assert emitted == pinned
    else:
        # field and restrict_sq are pinned byte for byte; identity_rel_err and
        # adjoint_rel_err are rounding residuals of exact identities, so they
        # are held to the criterion's own 1e-8 window instead
        rows = [line.split(",") for line in emitted.decode().splitlines()]
        ref = [line.split(",") for line in pinned.decode().splitlines()]
        assert rows[0] == ref[0] and len(rows) == len(ref)
        for row, cells in zip(rows[1:], ref[1:]):
            assert row[:2] == cells[:2]
            assert all(abs(float(a) - float(b)) <= 1e-8 for a, b in zip(row[2:], cells[2:]))
    # the verdicts of the scaling criteria name the grid actually used, not
    # the unset flags
    grids = {9: (192, 8192), 10: (160, 4096)}
    if index in grids:
        assert "  x_points=%d" % grids[index][0] in lines
        assert "  y_points=%d" % grids[index][1] in lines


@pytest.mark.parametrize("index", [9, 10])
def test_scaling_verdict_reports_the_fit_quality(runs, index):
    # the fitted-slope detail of criteria 9 and 10 is the fit through the
    # CSV's (lambda, ratio) rows with its largest log residual and point count
    out = runs[0].out
    rows = (out / ("criterion_%02d.csv" % index)).read_text().splitlines()[1:]
    fit = loglog_fit([tuple(float(v) for v in row.split(",")) for row in rows])
    lines = (out / ("criterion_%02d_verdict.txt" % index)).read_text().splitlines()
    slope = [line for line in lines if line.startswith("PASS fitted slope in ")]
    assert len(slope) == 1 and slope[0].endswith(": " + fit.detail()), slope
    assert re.search(r": -?\d+\.\d{4} resid=\S+ n=%d$" % len(rows), slope[0]), slope


@pytest.mark.parametrize("index", [3, 4])
def test_dimension_verdicts_report_the_fit_quality(runs, index):
    # the a_fit and b_fit details of criteria 3 and 4 end with their
    # log-log fit's slope, largest log residual and point count; the decay
    # fit runs through the CSV's (R, annulus_sup) rows themselves
    out = runs[0].out
    rows = [row.split(",") for row in (out / ("criterion_%02d.csv" % index)).read_text().splitlines()[1:]]
    sups = [(float(r), float(v)) for name, r, v in rows if name == "annulus_sup"]
    n_radii = sum(name == "max_ball_ratio" for name, _, _ in rows)
    lines = (out / ("criterion_%02d_verdict.txt" % index)).read_text().splitlines()
    b_line = [line for line in lines if line.startswith("PASS b_fit in ")]
    a_line = [line for line in lines if line.startswith("PASS a_fit in ")]
    assert len(b_line) == 1 and b_line[0].endswith(" slope=" + loglog_fit(sups).detail()), b_line
    assert len(a_line) == 1 and re.search(r" slope=-?\d+\.\d{4} resid=\S+ n=%d$" % n_radii, a_line[0]), a_line


# the check labels of each criterion's verdict, in order: the text of every
# PASS or FAIL line before ": "
LABELS = {
    1: ("all identities hold exactly on 102 triples", "runtime < 1 s"),
    2: (
        "p0(3,2,1) = 4/3",
        "theta(3,2,1) = 1/2",
        "gamma(3,2,1) = 1/3",
        "rho(3,2,1) = 6/5",
        "sigma(3,2,1) = 3",
        "q0(kappa=2) = 4 = (2d+2)/(d-1) at d=3",
        "q1(kappa=1) = 3",
    ),
    3: ("b_fit in [0.45, 0.55]", "a_fit in [0.9, 1.1]", "runtime < 10 s"),
    4: ("a_fit in [0.58, 0.68]", "b_fit in [0, 0.05]", "b_fit < 0.05", "runtime < 10 s"),
    5: (
        "sup|mu_hat_j| 2^{j/2} flat within 10",
        "sup|mu_j| 2^{-j} flat within 10",
        "mu_hat oracle within 1e-10",
        "runtime < 60 s",
    ),
    6: ("identity relative error <= 1e-8 on 20 fields", "adjointness relative error <= 1e-8"),
    7: (
        "diagonal matches L^p within 1e-10",
        "indicator closed form within 1e-12",
        "homogeneity exact for scale 4",
        "rearrangement invariance exact",
    ),
    8: (
        "slope_g in [0.4, 0.6]",
        "slope_f(s=2) reported",
        "gap slope_g - slope_f(s=inf) >= 0.3",
        "moduli oracle within 1e-10",
        "slope_f(s=inf) in [-0.1, 0.1]",
        "slope_f(s=2) in [0.35, 0.65]",
        "runtime < 300 s",
    ),
    9: (
        "mixed-hessian-rank>=1",
        "curvature-rank>=1",
        "fitted slope in [-0.43, -0.23] (target -0.333333)",
        "T oracle within 1e-10",
        "runtime < 600 s",
    ),
    10: (
        "fold-nondegeneracy+curvature>=1",
        "fitted slope in [-0.82, -0.52] (target -0.666667)",
        "T oracle within 1e-10",
        "runtime < 600 s",
    ),
    11: ("all sampled sups positive", "sup|S_j| 2^{j/2} flat within factor 10"),
}


def test_verdict_check_labels(runs):
    for index, labels in LABELS.items():
        lines = (runs[0].out / ("criterion_%02d_verdict.txt" % index)).read_text().splitlines()
        found = tuple(line[5:].split(": ")[0] for line in lines if line.startswith(("PASS ", "FAIL ")))
        assert found == labels, "criterion %d" % index


def test_criterion_12_bytewise_determinism(runs):
    a, b = runs
    assert a.code == 0, a.stdout + a.stderr
    assert b.code == 0, b.stdout + b.stderr
    assert "acceptance: PASS" in a.stdout and "acceptance: PASS" in b.stdout
    names_a = sorted(p for p in os.listdir(a.out) if p.endswith(".csv"))
    names_b = sorted(p for p in os.listdir(b.out) if p.endswith(".csv"))
    # 11 criterion tables plus the summary
    assert names_a == names_b and len(names_a) == 12
    for name in names_a:
        # run B has one BLAS thread and one lab worker, so this is also the
        # pin across thread and worker counts
        assert (a.out / name).read_bytes() == (b.out / name).read_bytes(), (
            "%s differs between the default and the one-thread, one-worker run" % name
        )
