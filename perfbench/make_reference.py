"""Regenerate the reference tables the benchmark compares every pass with.

    python3 perfbench/make_reference.py [--workload NAME ...]

Run from the root of a source checkout. For each workload and each lab seed
in workloads.REFERENCE_SEEDS (one run when the workload's criteria ignore the
seed), runs ``accept`` on the workload's criteria and stores the CSVs under
perfbench/reference/<workload>/<seedN|any>/. Refuses to store a run in which
any criterion fails. Regenerating is a change to the benchmark's data, made
only together with a change that is meant to alter the CSVs.
"""

from __future__ import annotations

import argparse
import contextlib
import shutil
import sys

import run
import workloads as wl


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=sorted(wl.WORKLOADS))
    args = p.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    from restrictionlab import cli

    scratch = run.WORK / "reference-build"
    for name in args.workload or sorted(wl.WORKLOADS):
        workload = wl.WORKLOADS[name]
        for seed in wl.REFERENCE_SEEDS if workload.seeded else (0,):
            shutil.rmtree(scratch, ignore_errors=True)
            argv = ["accept", "--only", ",".join(map(str, workload.criteria))]
            argv += ["--seed", str(seed), "--out", str(scratch)]
            with contextlib.redirect_stdout(sys.stderr):
                rc = cli.main(argv)
            if rc != 0:
                sys.stderr.write("%s seed %d: accept exited %d; nothing stored\n" % (name, seed, rc))
                return 1
            dest = run.reference_dir(workload, seed)
            shutil.rmtree(dest, ignore_errors=True)
            dest.mkdir(parents=True)
            for csv_path in sorted(scratch.glob("*.csv")):
                shutil.copy(csv_path, dest / csv_path.name)
            print("stored %s" % dest.relative_to(run.ROOT))
    shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
