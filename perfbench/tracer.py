"""Span tracer that wraps restrictionlab's public functions from outside.

``Tracer.install`` replaces every public function of every restrictionlab
module with one timing wrapper per function, at every binding that holds it:
module attributes (``from .grids import inverse_fourier_on_grid`` copies the
name into ``measures`` and ``knapp``) and module-level tuples, lists and dicts
(``acceptance.CRITERIA``, ``cli.HANDLERS``). Spans stay in memory; self time
comes from span nesting; work counts come from argument shapes.
"""

from __future__ import annotations

import functools
import inspect
import os
import re
import sys
import time
import types
from collections import defaultdict
from typing import Callable, Dict, List

import numpy as np

PACKAGE = "restrictionlab"


def _dyadic_piece(a, result):
    m, grid = a["measure"], a["grid"]
    # one exp(-2 pi i x_k xi) matrix of n_atoms x points_per_axis per axis
    return {"phase_entries": m.n_atoms * grid.points_per_axis * m.dim}


def _fft(a, result):
    n = int(np.size(a["freq_values"]))
    # one complex128 field of n points
    return {"points": n, "bytes": 16 * n}


def _product_entries(a, result):
    spec, x_axes, y_axes = a["spec"], a["x_axes"], a["y_axes"]
    per_term = sum(len(x_axes[i]) * len(y_axes[j]) for i, j in spec.separable)
    return {"phase_entries": len(a["terms"]) * per_term}


def _fourier_terms(a, result):
    m = a["measure"]
    return {"terms": int(np.size(a["xi_points"])) // m.dim * m.n_atoms}


# Work counts per call, from the bound arguments (and the result).
COUNTERS: Dict[str, Callable] = {
    "measures.dyadic_piece": _dyadic_piece,
    "bumps.dyadic_ring": lambda a, r: {"points": int(np.size(a["u"]))},
    "grids.inverse_fourier_on_grid": _fft,
    "lorentz.lorentz_norm_values": lambda a, r: {"elements": int(np.size(a["values"]))},
    "oscillatory.apply_T_lambda_product": _product_entries,
    "measures.fourier_transform_at": _fourier_terms,
    "reporting.emit_csv": lambda a, r: {"bytes": os.path.getsize(a["path"])},
}


def span_name(fn) -> str:
    """``<module>.<function>`` with criterion numbers zero-padded to two digits."""
    module = fn.__module__.rsplit(".", 1)[-1]
    name = re.sub(r"^criterion_(\d)$", r"criterion_0\1", fn.__name__)
    return "%s.%s" % (module, name)


class Tracer:
    """Records one span per call of a wrapped function.

    A span is ``[name, parent index, start, end, raised, counts]``; the
    parent is the innermost wrapped call active when the span started.
    """

    def __init__(self):
        self.spans: List[list] = []
        self.count_seconds = 0.0
        self._stack: List[int] = []
        self._undo: List[Callable] = []

    def wrap(self, name: str, fn: Callable, counter: Callable = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, False, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[4] = True
                raise
            finally:
                rec[3] = clock()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[5] = counter(bound.arguments, result)
                self.count_seconds += clock() - rec[3]
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the loaded restrictionlab modules at
        every binding; ``uninstall`` puts the originals back."""
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        wrappers: Dict[int, Callable] = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__.startswith(PACKAGE)
                    and not obj.__name__.startswith("_")
                    and id(obj) not in wrappers
                ):
                    name = span_name(obj)
                    wrappers[id(obj)] = self.wrap(name, obj, COUNTERS.get(name))

        def swap(obj):
            return wrappers.get(id(obj), obj) if isinstance(obj, types.FunctionType) else obj

        undo = self._undo
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and id(obj) in wrappers:
                    setattr(mod, attr, swap(obj))
                    undo.append(functools.partial(setattr, mod, attr, obj))
                elif isinstance(obj, tuple) and any(id(v) in wrappers for v in obj):
                    setattr(mod, attr, tuple(swap(v) for v in obj))
                    undo.append(functools.partial(setattr, mod, attr, obj))
                elif isinstance(obj, list) and any(id(v) in wrappers for v in obj):
                    undo.append(functools.partial(obj.__setitem__, slice(None), list(obj)))
                    obj[:] = [swap(v) for v in obj]
                elif isinstance(obj, dict):
                    for key, value in obj.items():
                        if id(value) in wrappers:
                            obj[key] = wrappers[id(value)]
                            undo.append(functools.partial(obj.__setitem__, key, value))

    def uninstall(self) -> None:
        """Restore every binding that ``install`` replaced."""
        while self._undo:
            self._undo.pop()()

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, s (busy time, recursion counted once),
        self_s (time outside wrapped callees), exceptions and summed counts."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[1] >= 0:
                child_time[rec[1]] += rec[3] - rec[2]
        stats: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "exceptions": 0}
        )
        for k, (name, parent, start, end, raised, counts) in enumerate(spans):
            st = stats[name]
            st["calls"] += 1
            st["self_s"] += end - start - child_time[k]
            st["exceptions"] += int(raised)
            if not self._inside_same_name(k):
                st["s"] += end - start
            for key, value in (counts or {}).items():
                st[key] = st.get(key, 0) + value
        return dict(stats)

    def _inside_same_name(self, k: int) -> bool:
        name, parent = self.spans[k][0], self.spans[k][1]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][1]
        return False

    def write_csv(self, path: str) -> None:
        """All spans, one line each, times relative to the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index,name,parent,start_s,end_s,raised,counts\n")
            for k, (name, parent, start, end, raised, counts) in enumerate(self.spans):
                extra = ";".join("%s=%d" % kv for kv in sorted((counts or {}).items()))
                fh.write(
                    "%d,%s,%d,%.9f,%.9f,%d,%s\n"
                    % (k, name, parent, start - t0, end - t0, raised, extra)
                )


def _noop():
    return None


def per_call_overhead(calls: int = 20000) -> float:
    """Seconds one wrapper adds to a call, timed on a no-op function."""
    probe = Tracer()
    traced = probe.wrap("noop", _noop)
    best = float("inf")
    for _ in range(3):
        del probe.spans[:]
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        t1 = time.perf_counter()
        for _ in range(calls):
            _noop()
        t2 = time.perf_counter()
        best = min(best, ((t1 - t0) - (t2 - t1)) / calls)
    return max(best, 0.0)
