"""One BLAS thread per shard worker process.

A worker's chunk-sized layer GEMM is above OpenBLAS's threading threshold,
so OpenBLAS runs it on a second thread that then busy-waits through the
worker's idle gaps: a core spinning per worker.  Workers run BLAS on the
calling thread instead (bitwise the same: ``tests/kernels/
test_blas_thread_count.py``).  Every OpenBLAS mapped into the process is
found through ``/proc/self/maps`` — numpy and scipy each ship a copy,
under prefixed symbol names; with no ``/proc`` or another BLAS, nothing
changes.
"""

from __future__ import annotations

import ctypes
import os
from typing import Callable, List

_MAPS = "/proc/self/maps"

#: ``{}`` is ``set`` / ``get``: numpy's ILP64 copy, scipy's LP64 copy, then
#: a system OpenBLAS with and without the ILP64 suffix.
_NAMES = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
          "openblas_{}_num_threads64_", "openblas_{}_num_threads")


def _openblas_functions(verb: str, argtypes: list, restype) -> List[Callable]:
    """``openblas_<verb>_num_threads`` of every OpenBLAS mapped here."""
    try:
        with open(_MAPS) as maps:
            paths = [line.split(maxsplit=5)[-1].strip() for line in maps]
    except OSError:
        return []
    functions = []
    for path in dict.fromkeys(paths):
        if "openblas" not in os.path.basename(path).lower():
            continue
        try:
            library = ctypes.CDLL(path)
        except OSError:  # e.g. "(deleted)": not loadable by its path
            continue
        for name in _NAMES:
            function = getattr(library, name.format(verb), None)
            if function is not None:
                function.argtypes, function.restype = argtypes, restype
                functions.append(function)
                break
    return functions


def pin_blas_to_one_thread() -> int:
    """Run every mapped OpenBLAS on the calling thread; returns how many
    were pinned (0 where none is found)."""
    setters = _openblas_functions("set", [ctypes.c_int], None)
    for setter in setters:
        setter(1)
    return len(setters)


def blas_thread_counts() -> List[int]:
    """The thread count of every mapped OpenBLAS, in map order."""
    return [getter() for getter in _openblas_functions("get", [], ctypes.c_int)]
