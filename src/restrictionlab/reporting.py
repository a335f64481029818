"""Deterministic experiment reports.

Every run of the harness produces a CSV table plus a plain-text verdict
file that echoes the full effective configuration (defaults resolved) and
one PASS/FAIL line per check. Identical configuration and seed must yield
bytewise-identical CSV output, so every CSV cell goes through one
17-significant-digit formatter and files are written in binary mode with
fixed newlines. The config echo prints floats in their shortest
round-trip form instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, NamedTuple, Sequence, Tuple

import numpy as np

__all__ = [
    "ExperimentConfig",
    "ReportTable",
    "Result",
    "render_value",
    "format_cell",
    "emit_csv",
    "render_verdict",
    "write_verdict",
    "write_report",
]


def render_value(value: Any) -> str:
    """Canonical text for one value: booleans as true/false, floats with 17
    significant digits, sequences comma-joined."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return "%d" % int(value)
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    if isinstance(value, (complex, np.complexfloating)):
        z = complex(value)
        return "%.17g%+.17gj" % (z.real, z.imag)
    if isinstance(value, (list, tuple)):
        return ",".join(render_value(v) for v in value)
    return str(value)


def _echo_value(value: Any) -> str:
    """render_value, except floats (also inside sequences) take their
    shortest round-trip form, so a flag echoes as it was typed or
    defaulted: 0.3, not 0.29999999999999999."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (list, tuple)):
        return ",".join(_echo_value(v) for v in value)
    return render_value(value)


def format_cell(value: Any) -> str:
    """render_value restricted to a single CSV cell (no separators)."""
    text = render_value(value)
    if any(c in text for c in ",\r\n"):
        raise ValueError("cell value %r contains a separator" % (text,))
    return text


@dataclass(frozen=True)
class ExperimentConfig:
    """The effective configuration of one harness run: subcommand name,
    ordered parameter pairs with defaults already resolved, output
    directory, and the seed."""

    subcommand: str
    params: Tuple[Tuple[str, Any], ...]
    out_dir: str
    seed: int

    def echo_lines(self) -> Tuple[str, ...]:
        lines = ["subcommand=%s" % self.subcommand]
        for key, value in self.params:
            lines.append("%s=%s" % (key, _echo_value(value)))
        lines.append("out=%s" % self.out_dir)
        lines.append("seed=%d" % self.seed)
        return tuple(lines)


@dataclass(frozen=True)
class ReportTable:
    """A rectangular results table."""

    columns: Tuple[str, ...]
    rows: Tuple[Tuple[Any, ...], ...]

    def __post_init__(self):
        for k, row in enumerate(self.rows):
            if len(row) != len(self.columns):
                raise ValueError(
                    "row %d has %d cells but the header has %d columns"
                    % (k, len(row), len(self.columns))
                )


class Result(NamedTuple):
    """The outcome of one run, a subcommand's or an acceptance criterion's:
    its table, its named checks, the report it fitted, and the side files
    to write beside the table as (file name, writer) pairs."""

    table: ReportTable
    checks: List[Tuple[str, bool, str]]
    report: Any = None
    files: Tuple[Tuple[str, Callable[[str], None]], ...] = ()


def emit_csv(table: ReportTable, path: str) -> None:
    """Write the table: header line first, one line per row, trailing
    newline, 17-significant-digit decimals. Bytewise deterministic."""
    lines = [",".join(table.columns)]
    for row in table.rows:
        lines.append(",".join(format_cell(v) for v in row))
    data = ("\n".join(lines) + "\n").encode("ascii")
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise OSError("failed to write CSV at %s: %s" % (path, exc)) from exc


def render_verdict(
    title: str,
    config: ExperimentConfig,
    checks: Sequence[Tuple[str, bool, str]],
) -> str:
    """One PASS/FAIL line per named check plus the overall conjunction,
    preceded by the full config echo."""
    out = [title, "", "config:"]
    out.extend("  " + line for line in config.echo_lines())
    out.append("")
    overall = True
    for name, ok, detail in checks:
        overall = overall and bool(ok)
        line = "%s %s" % ("PASS" if ok else "FAIL", name)
        if detail:
            line += ": " + detail
        out.append(line)
    out.append("")
    out.append("overall: %s" % ("PASS" if overall else "FAIL"))
    return "\n".join(out) + "\n"


def write_verdict(
    path: str,
    title: str,
    config: ExperimentConfig,
    checks: Sequence[Tuple[str, bool, str]],
) -> bool:
    """Write the verdict file and return the overall outcome."""
    text = render_verdict(title, config, checks)
    try:
        with open(path, "wb") as fh:
            fh.write(text.encode("ascii"))
    except OSError as exc:
        raise OSError("failed to write verdict at %s: %s" % (path, exc)) from exc
    return all(bool(ok) for _, ok, _ in checks)


def write_report(
    result: Result, csv_path: str, verdict_path: str, title: str, config: ExperimentConfig
) -> bool:
    """Emit the result's table and write its verdict; return the overall
    outcome. Side files are the caller's."""
    emit_csv(result.table, csv_path)
    return write_verdict(verdict_path, title, config, result.checks)
