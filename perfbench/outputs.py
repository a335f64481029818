"""Correctness of one ``accept`` pass: verdicts, summary and reference tables.

A criterion passes when ``summary.csv`` marks it passed, its verdict file
has no FAIL line and ends ``overall: PASS``, and its CSV matches the stored
reference table in shape and text cells, with every numeric cell within
``|got - ref| <= ATOL + RTOL * |ref|``. ATOL is the loosest error window of
the criteria (criterion 6, 1e-8), so cells that hold rounding-level errors
pass whenever the criterion's own window does.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

RTOL = 1e-6
ATOL = 1e-8


@dataclass
class PassCheck:
    failed: List[int] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    max_rel_dev: float = 0.0


def _read_csv(path: str) -> List[List[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def compare_tables(got_path: str, ref_path: str) -> Tuple[float, List[str]]:
    """Largest relative deviation over the finite numeric cells, and the
    cells that break the tolerance or differ in shape or text."""
    got, ref = _read_csv(got_path), _read_csv(ref_path)
    name = os.path.basename(got_path)
    if len(got) != len(ref) or any(len(a) != len(b) for a, b in zip(got, ref)):
        return 0.0, ["%s: table shape differs from the reference" % name]
    worst, problems = 0.0, []
    for r, (row, ref_row) in enumerate(zip(got, ref)):
        for c, (a, b) in enumerate(zip(row, ref_row)):
            if a == b:
                continue
            x, y = _number(a), _number(b)
            if x is None or y is None or not (math.isfinite(x) and math.isfinite(y)):
                problems.append("%s row %d col %d: %r != reference %r" % (name, r, c, a, b))
                continue
            if x == y:  # other text, same number: "-0" and "0", "1e-05" and "1.0e-5"
                continue
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
            if abs(x - y) > ATOL + RTOL * abs(y):
                problems.append("%s row %d col %d: %s vs reference %s" % (name, r, c, a, b))
    return worst, problems


def check_pass(out_dir: str, criteria: Sequence[int], ref_dir: str) -> PassCheck:
    result = PassCheck()
    summary: Dict[int, str] = {}
    summary_path = os.path.join(out_dir, "summary.csv")
    if os.path.exists(summary_path):
        summary = {int(row[0]): row[2] for row in _read_csv(summary_path)[1:]}
        dev, problems = compare_tables(summary_path, os.path.join(ref_dir, "summary.csv"))
        result.max_rel_dev = max(result.max_rel_dev, dev)
        result.problems += problems
    else:
        result.problems.append("summary.csv missing")
    for idx in criteria:
        base = "criterion_%02d" % idx
        problems = []
        if summary.get(idx) != "true":
            problems.append("%s not marked passed in summary.csv" % base)
        verdict_path = os.path.join(out_dir, base + "_verdict.txt")
        if os.path.exists(verdict_path):
            with open(verdict_path) as fh:
                lines = fh.read().splitlines()
            if any(line.startswith("FAIL") for line in lines) or lines[-1:] != ["overall: PASS"]:
                problems.append("%s verdict is not PASS" % base)
        else:
            problems.append("%s verdict missing" % base)
        csv_path = os.path.join(out_dir, base + ".csv")
        if os.path.exists(csv_path):
            dev, cell_problems = compare_tables(csv_path, os.path.join(ref_dir, base + ".csv"))
            result.max_rel_dev = max(result.max_rel_dev, dev)
            problems += cell_problems
        else:
            problems.append("%s.csv missing" % base)
        if problems:
            result.failed.append(idx)
            result.problems += problems
    return result
