"""Acceptance gate: one test per pinned criterion.

Criteria 1 through 11 each run in-process through `accept --only N`, and
the test asserts the exit code, the summary row, the verdict (whose check
lines are the failure message, so a red line is diagnosable from the
pytest output alone) and the runtime budget, which is the verdict's last
check. Every criterion also compares its emitted CSV with the stored
benchmark reference (seed 0), byte for byte except criterion 6's two
rounding-residual columns, so any change to the arithmetic shows;
criteria 5, 8, 9 and 10 are compared once more from a child process
limited to one BLAS thread.
Criterion 12 runs the complete suite twice through
`python -m restrictionlab.cli` and compares the emitted CSV bytes.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

from restrictionlab import cli

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


def _echo(tmp_path, index):
    return (tmp_path / ("criterion_%02d_verdict.txt" % index)).read_text().splitlines()


def _accept(tmp_path, index, name, budget):
    # `accept` runs the one criterion; budget is its runtime budget in
    # seconds, or None for a criterion without one
    rc = cli.main(["accept", "--only", str(index), "--seed", "0", "--out", str(tmp_path)])
    assert rc != 2, "invalid configuration (see stderr)"
    lines = _echo(tmp_path, index)
    checks = [line for line in lines if line.startswith(("PASS ", "FAIL "))]
    detail = "criterion %d (%s) failed:\n%s" % (index, name, "\n".join(checks))
    assert rc == 0 and lines[-1] == "overall: PASS", detail
    assert (tmp_path / "summary.csv").read_text().splitlines()[1:] == ["%d,%s,true" % (index, name)]
    if budget is None:
        assert not any("runtime" in check for check in checks)
    else:
        assert re.fullmatch(r"PASS runtime < %d s: \d+\.\d\d s" % budget, checks[-1]), checks[-1]


def _run_pinned(tmp_path, index, name, reference, budget):
    # the emitted table is pinned byte for byte to the stored benchmark
    # reference
    _accept(tmp_path, index, name, budget)
    base = "criterion_%02d.csv" % index
    assert (tmp_path / base).read_bytes() == (REFERENCE / reference / base).read_bytes()


def test_criterion_01_exponent_identities(tmp_path):
    _run_pinned(tmp_path, 1, "exponent-identities", "oscillatory/seed0", 1)


def test_criterion_02_exponent_cross_checks(tmp_path):
    _run_pinned(tmp_path, 2, "exponent-cross-checks", "oscillatory/seed0", None)


def test_criterion_03_circle_dimensions(tmp_path):
    _run_pinned(tmp_path, 3, "circle-dimensions", "oscillatory/seed0", 10)


def test_criterion_04_cantor_dimensions(tmp_path):
    _run_pinned(tmp_path, 4, "cantor-dimensions", "oscillatory/seed0", 10)


def test_criterion_05_dyadic_piece_bounds(tmp_path):
    _run_pinned(tmp_path, 5, "dyadic-piece-bounds", "dyadic/any", 60)


def test_criterion_06_tomas_identity(tmp_path):
    _accept(tmp_path, 6, "tomas-identity", None)
    # field and restrict_sq are pinned byte for byte; identity_rel_err and
    # adjoint_rel_err are rounding residuals of exact identities, so they
    # are held to the criterion's own 1e-8 window instead
    rows = [line.split(",") for line in (tmp_path / "criterion_06.csv").read_text().splitlines()]
    ref = (REFERENCE / "oscillatory" / "seed0" / "criterion_06.csv").read_text().splitlines()
    ref = [line.split(",") for line in ref]
    assert rows[0] == ref[0] and len(rows) == len(ref)
    for row, pinned in zip(rows[1:], ref[1:]):
        assert row[:2] == pinned[:2]
        assert all(abs(float(a) - float(b)) <= 1e-8 for a, b in zip(row[2:], pinned[2:]))


def test_criterion_07_lorentz_suite(tmp_path):
    _run_pinned(tmp_path, 7, "lorentz-suite", "oscillatory/seed0", None)


def test_criterion_08_knapp_sharpness(tmp_path):
    _run_pinned(tmp_path, 8, "knapp-sharpness", "knapp/any", 300)


def test_criterion_09_parabola_scaling(tmp_path):
    _run_pinned(tmp_path, 9, "parabola-scaling", "oscillatory/seed0", 600)
    # the verdict names the grid actually used, not the unset flags
    echo = _echo(tmp_path, 9)
    assert "  x_points=192" in echo and "  y_points=8192" in echo


def test_criterion_10_fold_scaling(tmp_path):
    _run_pinned(tmp_path, 10, "fold-scaling", "oscillatory/seed0", 600)
    echo = _echo(tmp_path, 10)
    assert "  x_points=160" in echo and "  y_points=4096" in echo


def _assert_one_blas_thread_matches_reference(tmp_path, only, references):
    # a child process limited to one BLAS thread gives the same bytes as
    # the stored references taken with the default thread count
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "restrictionlab.cli",
            "accept",
            "--only",
            only,
            "--seed",
            "0",
            "--out",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for reference in references:
        base = reference.name
        assert (tmp_path / base).read_bytes() == reference.read_bytes(), base


def test_criteria_9_10_single_blas_thread_match_reference(tmp_path):
    # the GEMM-heavy scaling criteria
    _assert_one_blas_thread_matches_reference(
        tmp_path,
        "9,10",
        [REFERENCE / "oscillatory" / "seed0" / base for base in ("criterion_09.csv", "criterion_10.csv")],
    )


def test_criteria_5_8_single_blas_thread_match_reference(tmp_path):
    # the FFT- and sort-heavy criteria
    _assert_one_blas_thread_matches_reference(
        tmp_path,
        "5,8",
        [REFERENCE / "dyadic" / "any" / "criterion_05.csv", REFERENCE / "knapp" / "any" / "criterion_08.csv"],
    )


def test_criterion_11_dyadic_kernel_sup(tmp_path):
    _run_pinned(tmp_path, 11, "dyadic-kernel-sup", "oscillatory/seed0", None)


def test_criterion_12_bytewise_determinism(tmp_path):
    def run(out_dir):
        proc = subprocess.run(
            [sys.executable, "-m", "restrictionlab.cli", "accept", "--out", str(out_dir)],
            capture_output=True,
            text=True,
            timeout=1800,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        return proc.stdout

    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    stdout_a = run(out_a)
    run(out_b)
    assert "acceptance: PASS" in stdout_a
    names_a = sorted(p for p in os.listdir(out_a) if p.endswith(".csv"))
    names_b = sorted(p for p in os.listdir(out_b) if p.endswith(".csv"))
    # 11 criterion tables plus the summary
    assert names_a == names_b and len(names_a) == 12
    for name in names_a:
        bytes_a = (out_a / name).read_bytes()
        bytes_b = (out_b / name).read_bytes()
        assert bytes_a == bytes_b, "%s differs between same-seed runs" % name
