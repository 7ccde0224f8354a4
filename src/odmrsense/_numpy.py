"""numpy as every module of the package takes it: `from ._numpy import np`.

The first such import loads numpy with one OpenBLAS thread, unless numpy
is loaded already or OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
OMP_NUM_THREADS is set; the environment is left as it was.
"""

import os
import sys

# OpenBLAS sizes its thread pool once, as numpy loads it.  No routine here
# gains from a second thread, which costs each fresh process about 0.1 s of
# CPU, so the caller's choice is kept and otherwise the pool gets one thread.
if "numpy" not in sys.modules and not any(
        name in os.environ
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

import numpy as np  # noqa: E402
