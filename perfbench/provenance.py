"""Where a result was measured: library versions, BLAS threads and the CPU.

threadpoolctl is not available, so the BLAS thread count is read from each
loaded OpenBLAS library through its own ``get_num_threads`` entry point.
"""

from __future__ import annotations

import ctypes
import os
import platform
from typing import Dict, List

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_CONFIG_SYMBOLS = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _first_symbol(lib, names):
    for name in names:
        try:
            return getattr(lib, name)
        except AttributeError:
            continue
    return None


def openblas_libraries() -> List[Dict[str, object]]:
    """Each OpenBLAS library mapped into this process, with its build
    configuration and current thread count."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted(
                {
                    line.split()[-1]
                    for line in fh
                    if "openblas" in line.lower() and line.split()[-1].startswith("/")
                }
            )
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry: Dict[str, object] = {"library": os.path.basename(path)}
        get_threads = _first_symbol(lib, _THREAD_SYMBOLS)
        if get_threads is not None:
            get_threads.argtypes = []
            get_threads.restype = ctypes.c_int
            entry["threads"] = get_threads()
        get_config = _first_symbol(lib, _CONFIG_SYMBOLS)
        if get_config is not None:
            get_config.argtypes = []
            get_config.restype = ctypes.c_char_p
            entry["config"] = get_config().decode("ascii", "replace").strip()
        found.append(entry)
    return found


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _last_level_cache() -> str:
    base = "/sys/devices/system/cpu/cpu0/cache"
    best_level, best_size = -1, "unknown"
    try:
        for entry in os.listdir(base):
            if not entry.startswith("index"):
                continue
            with open(os.path.join(base, entry, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            if level > best_level:
                best_level, best_size = level, size
    except (OSError, ValueError):
        pass
    return best_size if best_level < 0 else "L%d %s" % (best_level, best_size)


def record(problem_sizes: Dict[str, object]) -> Dict[str, object]:
    """Provenance of a result; call after the workload ran, so every BLAS
    library it loaded is listed."""
    import numpy
    import scipy

    def blas_version(config_fn):
        try:
            return config_fn(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (TypeError, KeyError):
            return None

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_blas": blas_version(numpy.show_config),
        "scipy": scipy.__version__,
        "scipy_blas": blas_version(scipy.show_config),
        "openblas": openblas_libraries(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
        "problem_sizes": problem_sizes,
    }
