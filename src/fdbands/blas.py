"""Process-level numeric policy: OpenBLAS thread counts and the heap.

numpy and scipy wheels each bundle an OpenBLAS whose exported names may
carry a "scipy_" prefix and an ILP64 "64_" suffix, for example
scipy_openblas_set_num_threads64_.  The libraries are found among the
shared objects mapped into the process and called through ctypes.  Where
none is found (MKL, Accelerate, a platform without /proc) both functions
do nothing.

Importing this module (and so `import fdbands`) keeps freed heap in the
process: see keep_freed_heap.
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


def set_blas_threads(n: int | tuple[int, ...]) -> None:
    """Set every loaded OpenBLAS to n threads; a no-op if none is found.

    A tuple from blas_thread_counts() gives each library its own count, so
    saved counts are restored exactly.  A library already at its count is
    left alone: in a forked child OpenBLAS has shut its thread pool down,
    and a set call, even to the current count, starts a new pool whose
    threads spin for about 0.1 s.  The get call starts nothing.
    """
    functions = _openblas_functions()
    counts = (n,) * len(functions) if isinstance(n, int) else n
    for (setter, getter), count in zip(functions, counts, strict=True):
        if getter() != count:
            setter(count)


def blas_thread_counts() -> tuple[int, ...]:
    """Current thread count of each loaded OpenBLAS (empty if none is found)."""
    return tuple(getter() for _, getter in _openblas_functions())


# glibc's mallopt parameter numbers, and the values keep_freed_heap sets:
# 32 MiB is glibc's own ceiling for its dynamic mmap threshold.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_HEAP_POLICY = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 64 << 20))


def _process_symbols():
    """The symbols loaded into this process, or None where dlopen(NULL) fails."""
    try:
        return ctypes.CDLL(None)
    except (OSError, TypeError):
        return None


def keep_freed_heap() -> bool:
    """Serve arrays up to 32 MiB from the heap and keep up to 64 MiB of it freed.

    By default glibc raises its mmap and trim thresholds as blocks are
    freed, and trims the top of the heap whenever more than the trim
    threshold is free there, so each replicate's N x T temporaries are
    handed back to the kernel and faulted in again by the next one.  Fixed
    thresholds keep the pages in the process up to its own high-water
    mark.  Both must be set: setting either one turns the dynamic
    adjustment off.  Returns whether mallopt accepted both; without glibc's
    mallopt (musl, macOS, Windows) it does nothing and returns False.
    """
    mallopt = getattr(_process_symbols(), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return all([mallopt(param, value) == 1 for param, value in _HEAP_POLICY])


keep_freed_heap()
