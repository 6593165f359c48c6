"""Inference for dependent Cox point processes.

Observed processes share latent functions through per-process Gaussian
smoothing kernels; intensities are bounded sigmoid transforms of the
resulting functions, and inference runs an augmented-variable MCMC with
multi-level thinning.

The package re-exports nothing: import each name from the module that
defines it, so that each name has one import path and ``import depcox``
loads no numpy.

Importing the package before numpy defaults OpenBLAS, OpenMP and MKL to
one thread each: the sampler's matrices are small, and a second BLAS
thread there costs CPU time without saving wall time. A value the user
has set is kept, and once numpy is loaded its BLAS has read its thread
count, so nothing is set then.
"""

import os
import sys

if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
