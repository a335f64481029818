"""Run the benchmark several times and report each metric's run-to-run spread.

    python3 perfbench/spread.py --workload knapp --runs 10 [--first-seed 0]
        [--trace 0] [--json perfbench/results/BENCH_1-set1.json]

Run from the root of a source checkout. Each run uses the next seed and the
run length from BENCHMARK.json. For every metric it prints the median and
the spread, (Q3 - Q1) / median with quartiles from
``statistics.quantiles(values, n=4)``, next to the metric's bound. It also
checks that every run is correct and prints exactly the metrics, with the
units, that BENCHMARK.json lists, and reports how long each run took. With
--json it also writes every run's result and provenance record to a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(vals):
    med = statistics.median(vals)
    if len(vals) < 2:
        return {"median": med}
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", type=Path)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    bounds = {m["name"]: m.get("bound") for m in listed}
    record = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workload:
        values = {name: [] for name in units}
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True)
            took = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: exit %d\n%s" % (workload, seed, proc.returncode, proc.stderr))
                return 1
            result = json.loads(lines[-1])
            prov = [json.loads(x[len("provenance: "):]) for x in lines if x.startswith("provenance: ")]
            runs.append({"seed": seed, "took_s": took, "result": result,
                         "provenance": prov[0] if prov else None})
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if not result["correct"] or result["failed"] or got != units:
                ok = False
                print("%s seed %d: correct=%s failed=%d, metrics match BENCHMARK.json: %s"
                      % (workload, seed, result["correct"], result["failed"], got == units))
            for name in units:
                values[name].append(result["metrics"][name]["value"])
        took = [r["took_s"] for r in runs]
        print("%s: %d runs, %.1f s to %.1f s each, %.0f s in all"
              % (workload, args.runs, min(took), max(took), sum(took)))
        summary = {}
        for name, vals in values.items():
            summary[name] = dict(summarize(vals), bound=bounds[name])
            spread, bound = summary[name].get("spread"), bounds[name]
            mark = "" if bound is None or spread is None else (
                "  bound %.3g %s" % (bound, "ok" if spread < bound / 3 else "WIDE"))
            print("  %-48s median %-12.6g spread %s%s"
                  % (name, summary[name]["median"],
                     "-" if spread is None else "%.4f" % spread, mark))
            print("  %-48s %s" % ("", " ".join("%.6g" % v for v in vals)))
        record["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
