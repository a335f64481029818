"""The worker threads of the inverse transform and the Lorentz
rearrangement: how a pass is split, and that only numpy calls run on them."""

import functools
import sys
import threading
import types

import numpy as np
import pytest

from restrictionlab import _workers
from restrictionlab.cli import main
from restrictionlab.grids import GridSpec, inverse_fourier_on_grid


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_parts_are_whole_blocks_or_one_range(workers, monkeypatch):
    monkeypatch.setattr(_workers, "_WORKERS", workers)
    for count in range(0, 9 * 16):
        parts = _workers._parts(count, 16)
        assert parts[0].start == 0 and parts[-1].stop == count
        assert all(a.stop == b.start for a, b in zip(parts, parts[1:]))
        if count < workers * 16:
            assert len(parts) == 1
        else:
            assert len(parts) == workers
            assert all(r.stop - r.start >= 16 and r.start % 16 == 0 for r in parts)


def test_a_failing_task_raises_on_the_caller_after_every_thread_ended(monkeypatch):
    monkeypatch.setattr(_workers, "_WORKERS", 3)
    before = threading.active_count()
    ran = []

    def fail():
        raise ArithmeticError("task failed")

    steps = [[functools.partial(ran.append, (k, w)) if (k, w) != (1, 2) else fail for w in range(3)] for k in range(4)]
    with pytest.raises(ArithmeticError, match="task failed"):
        _workers._run(steps)
    assert threading.active_count() == before
    # every worker finished step 0 before any started step 1, and none
    # started step 2 after the failure in step 1
    assert sorted(ran[:3]) == [(0, 0), (0, 1), (0, 2)]
    assert all(k < 2 for k, _ in ran)


def _record_threads(monkeypatch):
    """Wrap every public function of the loaded restrictionlab modules, at
    every module binding, so that each call records the thread it ran on;
    and count the threads started. Returns (idents, starts)."""
    idents, starts, wrappers = [], [], {}

    def wrap(fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            idents.append((fn.__qualname__, threading.get_ident()))
            return fn(*args, **kwargs)

        return recorded

    for key, module in list(sys.modules.items()):
        if module is None or key.split(".")[0] != "restrictionlab":
            continue
        for attr, obj in list(vars(module).items()):
            if (
                isinstance(obj, types.FunctionType)
                and obj.__module__.startswith("restrictionlab")
                and not obj.__name__.startswith("_")
            ):
                monkeypatch.setattr(module, attr, wrappers.setdefault(id(obj), wrap(obj)))
    start = threading.Thread.start

    def counted(thread):
        starts.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return idents, starts


@pytest.mark.parametrize("workers", [1, 4])
def test_only_numpy_runs_off_the_calling_thread(workers, tmp_path, monkeypatch):
    # a knapp run (512^2 moduli, split in both the transform and the
    # rearrangement at 4 workers), a dyadic run (the box path: its fill
    # calls dyadic_ring) and a box transform whose fill records its thread:
    # every package function and every fill runs on the calling thread;
    # with one worker no thread is started at all
    monkeypatch.setattr(_workers, "_WORKERS", workers)
    idents, starts = _record_threads(monkeypatch)
    knapp = ["knapp", "--points", "512", "--half-width", "64", "--N-list", "2,3,4", "--sphere-n", "1024"]
    dyadic = ["dyadic", "--points", "128", "--n", "64", "--j-list", "1,2,3"]
    assert main(knapp + ["--out", str(tmp_path / "knapp")]) == 0
    assert main(dyadic + ["--out", str(tmp_path / "dyadic")]) == 0
    n = 64
    F = np.random.default_rng(3).standard_normal((n, n))

    def fill(lattice, lead, out):
        idents.append(("fill", threading.get_ident()))
        np.copyto(out, lattice[lead + (slice(8, 56),)])

    inverse_fourier_on_grid(F, GridSpec(2, 4.0, n), box=(8, 56, fill))
    names = {name for name, _ in idents}
    assert {"fill", "dyadic_ring", "inverse_fourier_on_grid", "lorentz_norm_values"} <= names
    assert {ident for _, ident in idents} == {threading.get_ident()}
    if workers == 1:
        assert starts == []
    else:
        assert starts and all(not thread.is_alive() for thread in starts)
