"""Worker threads for the blocked numpy passes of the inverse lattice
transform and of the Lorentz rearrangement.

A pass is split into at most _WORKERS tasks, each on its own ranges of
buffers that the calling thread allocated: the first task runs on the
calling thread, the others on threads started for the pass and joined at
its end. A task is a loop of numpy calls, which release the interpreter
lock, over its ranges; no public function of the package and no caller's
callback runs off the calling thread. Each value goes through the same
numpy call on the same data as without the split, so it keeps its bits. A
pass that cannot give every worker one whole block, and every pass when
_WORKERS is 1, starts no thread.
"""

from __future__ import annotations

import contextvars
import os
import threading

# threads a pass is split across, the calling one included
_WORKERS = min(4, len(os.sched_getaffinity(0)))


def _parts(count: int, block: int) -> list:
    """range(count) as _WORKERS contiguous slices of whole blocks of `block`
    items (the last may end in a partial block), or as one slice when some
    worker would get no whole block."""
    if count < _WORKERS * block:
        return [slice(0, count)]
    blocks = -(-count // block)
    edges = [min(count, blocks * w // _WORKERS * block) for w in range(_WORKERS + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _run(steps) -> None:
    """Run steps, a list of equally long lists of tasks (callables without
    arguments): worker w runs task w of each step in turn, worker 0 on the
    calling thread, the others on threads started here and joined before
    the return. No worker starts a step before every worker has finished
    the one before, so a step may overwrite what the step before read. Each
    thread runs in a copy of the caller's context, so numpy's error state
    applies to its calls. The first error a task raises is raised here."""
    workers = len(steps[0])
    if workers == 1:
        for (task,) in steps:
            task()
        return
    barrier = threading.Barrier(workers)
    errors = []

    def work(w):
        try:
            for k, step in enumerate(steps):
                if k:
                    barrier.wait()
                step[w]()
        except threading.BrokenBarrierError:
            pass  # another worker failed, and its error is raised
        except BaseException as error:
            errors.append(error)
            barrier.abort()

    threads = [
        threading.Thread(target=contextvars.copy_context().run, args=(work, w))
        for w in range(1, workers)
    ]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
