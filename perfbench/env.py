"""Process set-up shared by the benchmark entry points.

`prepare()` pins the BLAS thread count and puts the checkout's `src/` on
the import path; it must run before numpy is imported, because BLAS
reads its thread count once, at load.  `describe()` is the environment
record written next to every result.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# One solve at a time in one process: BLAS gets one thread, so the
# measurement does not depend on how many cores the machine lends it.
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class MissingSources(RuntimeError):
    """The checkout has no liporbit package under src/."""


def prepare() -> None:
    if not (SRC / "liporbit" / "__init__.py").is_file():
        raise MissingSources(f"no liporbit package under {SRC}")
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def describe() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }
