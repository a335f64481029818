"""Acceptance gate: one test per pinned criterion.

Criteria 1 through 11 run in-process and assert the full check list of
each CriterionResult; the failure message carries every sub-check so a
red line is diagnosable from the pytest output alone. Criterion 5 also
compares its emitted CSV with the stored benchmark reference. Criterion
12 runs the complete suite twice through the installed command-line entry
point and compares the emitted CSV bytes.
"""

import os
import subprocess
import sys
from pathlib import Path

from restrictionlab import acceptance

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


def _assert_passed(result, index, name):
    assert result.index == index and result.name == name
    detail = "\n".join(
        "%s %s%s" % ("PASS" if ok else "FAIL", label, ": " + note if note else "")
        for label, ok, note in result.checks
    )
    assert result.passed, "criterion %d (%s) failed:\n%s" % (index, name, detail)
    assert len(result.table.rows) > 0


def test_criterion_01_exponent_identities():
    _assert_passed(acceptance.criterion_1(seed=0), 1, "exponent-identities")


def test_criterion_02_exponent_cross_checks():
    _assert_passed(acceptance.criterion_2(seed=0), 2, "exponent-cross-checks")


def test_criterion_03_circle_dimensions():
    _assert_passed(acceptance.criterion_3(seed=0), 3, "circle-dimensions")


def test_criterion_04_cantor_dimensions():
    _assert_passed(acceptance.criterion_4(seed=0), 4, "cantor-dimensions")


def test_criterion_05_dyadic_piece_bounds(tmp_path):
    # run through the writer so the emitted table is pinned byte for byte to
    # the stored benchmark reference (criterion 5 takes no seed)
    (result,) = acceptance.run_acceptance(str(tmp_path), seed=0, only=[5])
    _assert_passed(result, 5, "dyadic-piece-bounds")
    emitted = (tmp_path / "criterion_05.csv").read_bytes()
    assert emitted == (REFERENCE / "dyadic" / "any" / "criterion_05.csv").read_bytes()


def test_criterion_06_tomas_identity():
    _assert_passed(acceptance.criterion_6(seed=0), 6, "tomas-identity")


def test_criterion_07_lorentz_suite():
    _assert_passed(acceptance.criterion_7(seed=0), 7, "lorentz-suite")


def test_criterion_08_knapp_sharpness():
    _assert_passed(acceptance.criterion_8(seed=0), 8, "knapp-sharpness")


def test_criterion_09_parabola_scaling():
    _assert_passed(acceptance.criterion_9(seed=0), 9, "parabola-scaling")


def test_criterion_10_fold_scaling():
    _assert_passed(acceptance.criterion_10(seed=0), 10, "fold-scaling")


def test_criterion_11_dyadic_kernel_sup():
    _assert_passed(acceptance.criterion_11(seed=0), 11, "dyadic-kernel-sup")


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
