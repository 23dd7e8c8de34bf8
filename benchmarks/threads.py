"""Thread configuration of a benchmark process, set before numpy loads.

OpenBLAS reads its thread count from the environment once, when the
library is loaded, and threadpoolctl is not available, so every thread
setting here is an environment variable applied before the first numpy
import, in this process or in a fresh child.  This module imports nothing
that loads BLAS.
"""

from __future__ import annotations

import os
import sys

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
POOL_VARIABLE = "FWLAB_THREADS"

# Per workload: (BLAS threads, FWLAB_THREADS).  None for BLAS leaves the
# library default; "nproc" means the number of usable cores.
WORKLOAD_THREADS = {
    "lattice-128": ("1", None),
    "matrix-commuting-128": ("1", None),
    "sweep-32": (None, "nproc"),
}


def nproc() -> int:
    """Cores this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def thread_settings(blas: str | None, pool: str | None) -> dict:
    """Environment values for a BLAS and a sweep-pool thread count.

    "nproc" stands for the number of usable cores; None means the variable
    is removed, so the library default applies.
    """
    settings = {name: blas for name in BLAS_VARIABLES}
    settings[POOL_VARIABLE] = pool
    return {name: str(nproc()) if value == "nproc" else value
            for name, value in settings.items()}


def apply(env, settings: dict):
    """Set or remove each variable of ``settings`` in ``env``."""
    for name, value in settings.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value


def configure(workload: str):
    """Apply a workload's thread settings to this process's environment."""
    apply(os.environ, thread_settings(*WORKLOAD_THREADS[workload]))


def library_config() -> dict:
    """Library versions, BLAS builds and thread settings of this process."""
    import numpy
    import scipy

    def blas_of(module):
        try:
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{blas.get('name')} {blas.get('version')}"
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numpy_blas": blas_of(numpy),
        "scipy": scipy.__version__,
        "scipy_blas": blas_of(scipy),
        "nproc": nproc(),
        **{name: os.environ.get(name, "unset")
           for name in ("OPENBLAS_NUM_THREADS", POOL_VARIABLE)},
    }
