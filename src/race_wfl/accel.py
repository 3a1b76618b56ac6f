"""Optional numba acceleration for hot numeric kernels.

Kernels are written as plain numpy/scalar Python and decorated with
``maybe_jit``.  When numba is importable and the environment variable
``RACE_WFL_NO_NUMBA`` is unset (or not ``1``), the decorated function is
compiled with ``numba.njit``; otherwise the original Python function runs
unchanged.  Both paths execute the same statements in the same order, so
results agree to the last bit on scalar arithmetic.

``RACE_WFL_NO_NUMBA=1 python ...`` selects the pure-numpy fallback.  The
original uncompiled function stays reachable as ``fn.py_func`` on the
jitted path.
"""

import os

USE_NUMBA = os.environ.get("RACE_WFL_NO_NUMBA", "0") != "1"

if USE_NUMBA:
    try:
        from numba import njit as _njit
    except ImportError:  # pragma: no cover - numba is a hard dependency
        USE_NUMBA = False

if USE_NUMBA:
    def maybe_jit(fn):
        return _njit(cache=True)(fn)
else:
    def maybe_jit(fn):
        fn.py_func = fn
        return fn
