"""The environment a result was measured in."""

import ctypes
import os
import platform
import subprocess
import sys

_BLAS_THREADS = ("scipy_openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
                 "openblas_get_num_threads")


def _loaded_blas():
    """Path of the BLAS library mapped into this process, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                path = line.split()[-1]
                if "blas" in os.path.basename(path).lower():
                    return path
    except OSError:
        pass
    return None


def _blas_threads(path):
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for symbol in _BLAS_THREADS:
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git(root):
    """(commit, dirty) when ``root`` is a git checkout, else (None, None).

    Git is not asked to look above ``root`` for a repository."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return None, None
    env = {**os.environ,
           "GIT_CEILING_DIRECTORIES": os.path.dirname(os.path.abspath(root))}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=30, check=True
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=root, env=env, capture_output=True, text=True, timeout=30,
            check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return commit, bool(status.strip())


def environment(root):
    """Interpreter, numpy and BLAS, numba state, CPUs and git commit.

    Call after numpy and race_wfl are imported, so the BLAS library is
    loaded and ``race_wfl.accel`` has decided on numba.
    """
    import numpy as np
    from race_wfl import accel

    try:
        import numba  # noqa: F401
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    blas = np.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    blas_path = _loaded_blas()
    commit, dirty = _git(root)
    return {
        "python": sys.version.split()[0],
        "python_implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_library": os.path.basename(blas_path) if blas_path else None,
        "blas_threads": _blas_threads(blas_path),
        "blas_thread_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
        "numba": numba_version,
        "use_numba": bool(accel.USE_NUMBA),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": commit,
        "git_dirty": dirty,
    }
