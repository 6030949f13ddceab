"""Thread counts of the OpenBLAS libraries loaded into this process.

numpy and scipy wheels each bundle an OpenBLAS whose exported names may
carry a "scipy_" prefix and an ILP64 "64_" suffix, for example
scipy_openblas_set_num_threads64_.  The libraries are found among the
shared objects mapped into the process and called through ctypes.  Where
none is found (MKL, Accelerate, a platform without /proc) both functions
do nothing.
"""

from __future__ import annotations

import ctypes
import functools
import os

_SYMBOL_FORMS = (
    "openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "scipy_openblas_{}_num_threads64_",
)


def _mapped_openblas_paths() -> list[str]:
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return []
    paths = {f[5].strip() for f in fields if len(f) == 6}
    return sorted(p for p in paths if "openblas" in os.path.basename(p).lower())


@functools.cache
def _openblas_functions() -> tuple:
    """(set, get) thread-count functions, one pair per loaded OpenBLAS."""
    found = []
    for path in _mapped_openblas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for form in _SYMBOL_FORMS:
            setter = getattr(lib, form.format("set"), None)
            getter = getattr(lib, form.format("get"), None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                found.append((setter, getter))
                break
    return tuple(found)


def set_blas_threads(n: int) -> None:
    """Limit every loaded OpenBLAS to n threads; a no-op if none is found."""
    for setter, _ in _openblas_functions():
        setter(n)


def blas_thread_counts() -> tuple[int, ...]:
    """Current thread count of each loaded OpenBLAS (empty if none is found)."""
    return tuple(getter() for _, getter in _openblas_functions())
