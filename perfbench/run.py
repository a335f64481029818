"""Benchmark of the restrictionlab acceptance lab.

    python3 perfbench/run.py --workload dyadic --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the lab is imported from ./src. One
run is one fresh process with a single caller and no threads beyond the BLAS
default. It measures set-up (fresh interpreters importing restrictionlab,
numpy and scipy; median of several, before and after the passes), calls
``restrictionlab.cli.main(["accept", "--only", <criteria>, ...])`` in a
closed loop until --seconds have passed, at least once, and checks every
pass against the verdicts and the stored reference tables. The last line of
standard output is one JSON object: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1, where passes alternate untraced and traced
and set-up is not measured. Lines before it hold
the same figures for reading, the provenance record and, when traced, the
share of each workload's wall time taken by its predicted dominant layer.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import outputs
import provenance
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference"
WORK = ROOT / ".perfbench"
# Set-up probes taken before the passes and again after them, so that the
# median samples two moments of the run and not one burst of machine noise.
SETUP_PROBES = 8

_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import numpy, scipy, restrictionlab.cli; "
    "sys.stdout.write('ready\\n'); sys.stdout.flush()"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def reference_dir(workload: wl.Workload, lab_seed: int) -> Path:
    return REFERENCE / workload.name / (("seed%d" % lab_seed) if workload.seeded else "any")


def measure_setup(warm: bool) -> list:
    """Seconds from starting a fresh interpreter until it has imported the
    lab, SETUP_PROBES times; with warm, one probe more first, untimed, to
    warm the bytecode and file caches."""
    times = []
    for k in range(SETUP_PROBES + int(warm)):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", _PROBE, str(SRC)], stdout=subprocess.PIPE, cwd=str(ROOT)
        )
        with proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line != b"ready\n":
            raise RuntimeError("set-up probe exited with code %s" % proc.returncode)
        if k or not warm:
            times.append(elapsed)
    return times


def run_passes(cli, workload: wl.Workload, lab_seed: int, seconds: float, out_dir: Path, ref: Path,
               tracer=None, traced_first=False):
    """Closed loop of accept passes until ``seconds`` have passed, at least one.

    With a tracer, passes alternate untraced and traced, the first traced if
    traced_first, until there is at least one of each. Returns (walls, traced,
    attempted, failed, dev, problems), where traced[k] tells whether pass k
    was traced.
    """
    argv = [
        "accept",
        "--only",
        ",".join(str(i) for i in workload.criteria),
        "--seed",
        str(lab_seed),
        "--out",
        str(out_dir),
    ]
    walls, traced, attempted, failed, dev, problems = [], [], 0, 0, 0.0, []
    start = time.perf_counter()
    while True:
        shutil.rmtree(out_dir, ignore_errors=True)
        log = io.StringIO()
        traced.append(tracer is not None and (len(walls) + traced_first) % 2 == 1)
        if traced[-1]:
            tracer.install()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(log):
                rc = cli.main(argv)
        except Exception:
            rc = None
            problems.append(traceback.format_exc())
        finally:
            walls.append(time.perf_counter() - t0)
            if traced[-1]:
                tracer.uninstall()
        check = outputs.check_pass(str(out_dir), workload.criteria, str(ref))
        attempted += len(workload.criteria)
        failed += len(check.failed)
        dev = max(dev, check.max_rel_dev)
        problems += check.problems
        if rc != 0 and not check.failed:
            problems.append("accept exited with %s although every criterion passed" % rc)
        if check.problems or rc != 0:
            sys.stderr.write(log.getvalue())
        if time.perf_counter() - start >= seconds and (tracer is None or len(walls) >= 2):
            return walls, traced, attempted, failed, dev, problems


def per_layer_metrics(tracer, per_call: float, walls: list, traced: list, workload: wl.Workload):
    stats = tracer.aggregate()
    traced_walls = [w for w, t in zip(walls, traced) if t]
    plain_walls = [w for w, t in zip(walls, traced) if not t]
    passes = len(traced_walls)

    def per_pass(span: str, name: str):
        total = stats.get(span, {}).get(name, 0)
        value = total / passes
        return int(value) if isinstance(total, int) and total % passes == 0 else value

    metrics = {
        name: {"value": per_pass(span, f), "unit": unit}
        for name, (span, f, unit) in wl.PER_LAYER.items()
    }
    wall, plain_wall = statistics.median(traced_walls), statistics.median(plain_walls)
    dominant = sum(per_pass(*term.rsplit(".", 1)) for term in workload.dominant)
    trace = {
        "trace.wall_s": wall,
        "trace.untraced_wall_s": plain_wall,
        # measured: traced minus untraced pass time of this run
        "trace.overhead_s": wall - plain_wall,
        # estimated: spans times a wrapper's cost on a no-op function, plus count time
        "trace.overhead_est_s": (len(tracer.spans) * per_call + tracer.count_seconds) / passes,
        "trace.dominant_share": dominant / (sum(traced_walls) / passes),
        "trace.span_exceptions": sum(int(s["exceptions"]) for s in stats.values()),
    }
    for name, value in trace.items():
        metrics[name] = {"value": value, "unit": wl.TRACE_METRICS[name]}
    missing = [s for s in workload.expected_spans if stats.get(s, {}).get("calls", 0) == 0]
    return metrics, missing


def report_dominant(workload: wl.Workload, metrics: dict) -> str:
    share = metrics["trace.dominant_share"]["value"]
    text = "dominant layer on %s: %s = %.3f of traced wall_s %.3f s" % (
        workload.name,
        " + ".join(workload.dominant),
        share,
        metrics["trace.wall_s"]["value"],
    )
    verdict = "met" if abs(share - workload.predicted_share) <= 0.1 else "MISSED"
    return text + "; predicted %.3f: %s" % (workload.predicted_share, verdict)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    lab_seed = wl.REFERENCE_SEEDS[args.seed % len(wl.REFERENCE_SEEDS)]
    ref = reference_dir(workload, lab_seed)
    if not (SRC / "restrictionlab" / "__init__.py").is_file():
        sys.stderr.write("no restrictionlab sources under %s\n" % SRC)
        return 2
    if not ref.is_dir():
        sys.stderr.write("no reference tables at %s\n" % ref)
        return 2

    # A traced run reports no set-up time, so it spends none on probes.
    setup = [] if args.trace else measure_setup(warm=True)
    sys.path.insert(0, str(SRC))
    from restrictionlab import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.stderr.write("restrictionlab was imported from %s, not %s\n" % (cli.__file__, SRC))
        return 2

    tracer = per_call = None
    if args.trace:
        import tracer as tracing

        per_call = tracing.per_call_overhead()
        tracer = tracing.Tracer()

    WORK.mkdir(exist_ok=True)
    out_dir = WORK / ("out-%d" % os.getpid())
    try:
        walls, traced, attempted, failed, dev, problems = run_passes(
            cli, workload, lab_seed, args.seconds, out_dir, ref, tracer,
            # Pass order alone can move a pass by a few percent, so the
            # order alternates with the seed and cancels over pairs of seeds.
            traced_first=args.seed % 2 == 1,
        )
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    if args.trace:
        metrics, missing = per_layer_metrics(tracer, per_call, walls, traced, workload)
        metrics["reporting.csv_max_rel_dev"] = {"value": dev, "unit": "ratio"}
        problems += ["span %s recorded no calls" % s for s in missing]
        tracer.write_csv(str(WORK / ("trace-%s-seed%d.csv" % (workload.name, args.seed))))
    else:
        setup += measure_setup(warm=False)
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }

    for line in problems:
        sys.stderr.write("problem: %s\n" % line.rstrip())
    record = provenance.record(workload.problem_sizes)
    record.update(
        workload=workload.name,
        criteria=workload.criteria,
        seed=args.seed,
        lab_seed=lab_seed,
        passes=len(walls),
        pass_walls_s=walls,
        pass_traced=traced,
        setup_probes_s=setup,
        csv_max_rel_dev=dev,
        traced=bool(args.trace),
    )
    print("provenance: " + json.dumps(record, sort_keys=True))
    for name, m in metrics.items():
        print("%-48s %r %s" % (name, m["value"], m["unit"]))
    if args.trace:
        print(report_dominant(workload, metrics))
    else:
        print("%-48s %r ratio (largest over all passes)" % ("csv_max_rel_dev", dev))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
