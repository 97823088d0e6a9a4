"""Spectral-temporal graph forecasting toolkit."""

import ctypes
import sys

__version__ = "0.1.0"

# glibc's mallopt options (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# the ceiling of glibc's own dynamic mmap threshold on 64-bit, and twice
# that for trimming: where the dynamic thresholds end up after a large
# free, fixed from the start
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


def _pin_malloc_thresholds() -> bool:
    """Fix glibc's mmap and trim thresholds; False where that is not done.

    With the default, dynamic thresholds glibc serves the multi-hundred-KB
    arrays of a training step from fresh mappings and trims the heap after
    they are freed, so every step faults its pages in again. Pinning the
    trim threshold alone would switch the dynamic mmap threshold off at
    128 KB, so the mmap threshold is pinned first and trim only after it
    took. Other C libraries are left alone.
    """
    if not sys.platform.startswith("linux"):
        return False
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "gnu_get_libc_version"):
        return False
    mallopt = libc.mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return all(mallopt(option, value) == 1
               for option, value in ((_M_MMAP_THRESHOLD, _MMAP_THRESHOLD),
                                     (_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)))


MALLOC_PINNED = _pin_malloc_thresholds()
