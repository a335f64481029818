"""List the lines of src/restrictionlab that the Tier-1 tests never run.

Runs pytest in this process under a sys.settrace line tracer, set for the
threads the tests start too (the lab's worker threads), that records only
frames of files in src/restrictionlab, then prints, for each of those
files, every line that its compiled code can reach (the line table of each
code object, co_lines) but no test ran, as "path:line: source", and a total.
Subprocesses the tests start are not traced. Standard library only, apart
from pytest itself; Python 3.10 or newer (co_lines).

    python tools/unexecuted_lines.py [pytest arguments]

The arguments go to pytest as they are (default: -q -p no:cacheprovider).
The exit status is pytest's.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "restrictionlab"


def reachable_lines(path: Path) -> set:
    """The line numbers that the compiled code of path has instructions on."""
    lines = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced_run(pytest_args) -> tuple:
    """Run pytest under the tracer; returns (exit status, {file: executed lines})."""
    import pytest

    prefix = str(PACKAGE) + "/"
    executed = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        # a function's first line (its def or decorator) raises no line event
        executed.setdefault(filename, set()).add(frame.f_code.co_firstlineno)
        return local

    sys.settrace(calls)
    threading.settrace(calls)
    try:
        status = pytest.main(list(pytest_args))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), executed


def main(argv) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    status, executed = traced_run(argv or ["-q", "-p", "no:cacheprovider"])
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        missed = sorted(reachable_lines(path) - executed.get(str(path), set()))
        for line in missed:
            print("%s:%d: %s" % (path.relative_to(ROOT), line, source[line - 1].strip()))
        total += len(missed)
    print("%d lines of src/restrictionlab never ran under the tests" % total)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
