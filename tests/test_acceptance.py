"""Acceptance gate: one test per pinned criterion, all reading two runs.

The session fixture `runs` runs `accept --seed 0` twice, at the same time,
and asserts nothing: run A in process through `cli.main` at the default
BLAS thread count, and run B through `python -m restrictionlab.cli` in a
child process limited to one BLAS thread. Criteria 1 through 11 are the
cases of `test_criterion`, which reads run A: the exit code, the summary
row, the verdict (whose check lines are the failure message, so a red line
is diagnosable from the pytest output alone), the runtime budget, which is
the verdict's last check, and the emitted CSV against the stored benchmark
reference (seed 0), byte for byte except criterion 6's two
rounding-residual columns, so any change to the arithmetic shows.
Criterion 12 compares the CSV bytes of the two runs: two same-seed runs,
at the default and at one BLAS thread, so it also pins every criterion's
table across thread counts.
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

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "perfbench" / "reference"

# (index, name, reference directory, runtime budget in seconds or None),
# written out here so that the pins hold independently of acceptance.GATES
CRITERIA = [
    (1, "exponent-identities", "oscillatory/seed0", 1),
    (2, "exponent-cross-checks", "oscillatory/seed0", None),
    (3, "circle-dimensions", "oscillatory/seed0", 10),
    (4, "cantor-dimensions", "oscillatory/seed0", 10),
    (5, "dyadic-piece-bounds", "dyadic/any", 60),
    (6, "tomas-identity", "oscillatory/seed0", None),
    (7, "lorentz-suite", "oscillatory/seed0", None),
    (8, "knapp-sharpness", "knapp/any", 300),
    (9, "parabola-scaling", "oscillatory/seed0", 600),
    (10, "fold-scaling", "oscillatory/seed0", 600),
    (11, "dyadic-kernel-sup", "oscillatory/seed0", None),
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
        [sys.executable, "-m", "restrictionlab.cli", "accept", "--seed", "0", "--out", str(out_b)],
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


@pytest.mark.parametrize(
    "index, name, reference, budget", CRITERIA, ids=["%02d-%s" % (c[0], c[1]) for c in CRITERIA]
)
def test_criterion(runs, index, name, reference, budget):
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
    pinned = (REFERENCE / reference / base).read_bytes()
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
        # run B has one BLAS thread, so this is also the thread-count pin
        assert (a.out / name).read_bytes() == (b.out / name).read_bytes(), (
            "%s differs between the default and the one-thread run" % name
        )
