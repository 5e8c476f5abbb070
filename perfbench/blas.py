"""OpenBLAS introspection through ``ctypes`` on numpy's bundled library.

BLAS threads are pinned to one through the environment
(:data:`PIN_ENV`), which every benchmark process and every process it
starts inherits.  :func:`blas_threads` reads back the count the library
actually uses, so each result can show that the pin held.
"""

from __future__ import annotations

import ctypes
import glob
import os

#: Exported before numpy loads anywhere in the benchmark's process tree.
PIN_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}

_SYMBOLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
            "openblas_get_num_threads")


def _openblas():
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def blas_threads() -> int:
    """Threads OpenBLAS will use in this process; ``-1`` if unknown."""
    lib = _openblas()
    for name in _SYMBOLS:
        fn = getattr(lib, name, None) if lib is not None else None
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return int(fn())
    return -1
