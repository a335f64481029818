"""Rewrite the byte pins of the Tier-1 tests, the acceptance CSVs in tests/pins.

    python tools/pins.py --only 9,10

Runs, from ./src and in this process, `accept --seed 0` (every criterion,
the pins of tests/test_acceptance.py and of the `lorentz` defaults test) and
`accept --only 3,4 --seed 7` (the pins of test_accept_writes_only_under_its_out),
each into a temporary directory. When any criterion of either run fails, it
stores nothing and exits 1. Otherwise it prints, for each CSV it pins, the
largest relative deviation |new - old| / max(|new|, |old|) over the numeric
cells from the pin it replaces ("new" when there was none, "shape differs"
when the rows or their lengths changed, and a count of the other text
cells that changed), and writes the CSVs over the pins of the criteria
that --only names, which it requires: a change meant to move the pins
names the criteria it moves and quotes the output, and `git diff tests/pins`
shows (and `git checkout tests/pins` undoes) what was stored.

The pins hold the bytes of the machine that wrote them: numpy's FFT, sort and
SIMD paths and the BLAS kernel all show in them. Standard library and the
package only.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINS = ROOT / "tests" / "pins"
# (pin directory, accept arguments, the CSVs pinned from that run; None for all)
RUNS = (
    ("seed0", ["--seed", "0"], None),
    ("seed7", ["--only", "3,4", "--seed", "7"], ("criterion_03.csv", "criterion_04.csv")),
)


def deviation(new: Path, old: Path) -> str:
    """The largest relative deviation of the numeric cells of new from old,
    in words."""
    if not old.exists():
        return "new"
    rows_new = [line.split(",") for line in new.read_text().splitlines()]
    rows_old = [line.split(",") for line in old.read_text().splitlines()]
    if [len(r) for r in rows_new] != [len(r) for r in rows_old]:
        return "shape differs"
    worst, text = 0.0, 0
    for row_new, row_old in zip(rows_new, rows_old):
        for a, b in zip(row_new, row_old):
            if a == b:
                continue
            try:
                x, y = float(a), float(b)
            except ValueError:
                x = y = math.nan
            if not (math.isfinite(x) and math.isfinite(y)):
                text += 1
            elif x != y:
                worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return "max rel dev %.3g" % worst + (", %d text cells differ" % text if text else "")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--only", required=True, help="criterion indices whose pins are written, e.g. 9,10")
    args = p.parse_args(argv)
    only = {"criterion_%02d.csv" % int(k) for k in args.only.split(",")}
    sys.path.insert(0, str(ROOT / "src"))
    from restrictionlab.cli import main as lab

    with tempfile.TemporaryDirectory() as scratch:
        for name, flags, _ in RUNS:
            with contextlib.redirect_stdout(sys.stderr):
                rc = lab(["accept"] + flags + ["--out", str(Path(scratch) / name)])
            if rc != 0:
                sys.stderr.write("accept %s exited %d; no pin stored\n" % (" ".join(flags), rc))
                return 1
        for name, _, pinned in RUNS:
            out = Path(scratch) / name
            csvs = pinned or sorted(f.name for f in out.glob("criterion_*.csv"))
            for base in csvs:
                store = base in only
                dev = deviation(out / base, PINS / name / base)
                print("%s/%s: %s (%s)" % (name, base, dev, "stored" if store else "pin kept"))
                if store:
                    (PINS / name).mkdir(parents=True, exist_ok=True)
                    shutil.copy(out / base, PINS / name / base)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
