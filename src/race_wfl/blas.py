"""The thread count of the OpenBLAS library that numpy loaded.

numpy has no call for it, so the library's own ``get_num_threads`` and
``set_num_threads`` symbols (``scipy_openblas_*`` in numpy's wheels,
``openblas_*`` in a system build, either with a ``64_`` suffix for
64-bit integers) are looked up among the files mapped into this process,
once, at the first call that needs them.
"""

import ctypes

_PREFIXES = ("scipy_openblas_", "openblas_")
_SUFFIXES = ("64_", "")

_calls = None   # (get, set) after the lookup; (None, None) if not found


def _lookup():
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line.lower()}
    except OSError:
        return None, None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in _PREFIXES:
            for suffix in _SUFFIXES:
                get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None, None


def _functions():
    global _calls
    if _calls is None:
        _calls = _lookup()
    return _calls


def threads():
    """OpenBLAS's thread count; None where no OpenBLAS is found."""
    get, _ = _functions()
    return None if get is None else get()


def set_threads(count: int) -> None:
    """Set OpenBLAS's thread count; only where ``threads()`` is not None."""
    _, put = _functions()
    put(count)
