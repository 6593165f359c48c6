"""Test-run setup: BLAS at one thread, as ``import depcox`` sets it.

The test modules load numpy before depcox, so the package's own default
comes too late for the test process; set here, before any test module is
imported, it holds for the in-process runs and for the ``python -m
depcox`` subprocesses alike, which then round and time as one thread
does. A value set in the environment is kept.
"""

import os
import sys

if "numpy" not in sys.modules:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
