"""No JIT: the package has one plain-Python/numpy code path.

``USE_NUMBA`` stays only because the benchmark's environment record
(``perfbench/envinfo.py``) reads it.
"""

USE_NUMBA = False
