"""Inference for dependent Cox point processes.

Observed processes share latent functions through per-process Gaussian
smoothing kernels; intensities are bounded sigmoid transforms of the
resulting functions, and inference runs an augmented-variable MCMC with
multi-level thinning.

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

from .convolution import (
    ConvolutionPrior,
    IndependentPrior,
    LatentFactor,
    latent_grid,
    latent_posterior,
    phi_mh_update,
    sample_latent_posterior,
)
from .engine import (
    GridSummary,
    PosteriorSample,
    RunConfig,
    RunInfo,
    diagnostics,
    effective_sample_size,
    intensity_samples,
    run_chain_with_info,
    split_psrf,
    summarize,
)
from .errors import NumericalError, ValidationError
from .gaussian import (
    ProductGrid,
    cholesky_with_jitter,
    from_precision,
    gauss_gram,
    mvn_sample,
)
from .generate import (
    GroundTruth,
    low_intensity_fraction,
    make_benchmark_bank,
    sample_events,
    sample_ground_truth,
    thin_events,
)
from .metrics import (
    Quadrature,
    diffusion_bandwidth,
    kde_intensity,
    l2_error,
    poisson_loglik,
    predictive_loglik,
    sample_logliks,
)
from .sgcp import (
    AugmentedState,
    EventSet,
    GpContext,
    PriorConfig,
    Region,
    birth_death_step,
    elliptical_slice,
    ess_function_update,
    gibbs_lambda_star,
    hmc_hyper_update,
    lambda_posterior,
    leapfrog,
    move_step,
    point_loglik,
)
from .thinning import (
    RateLadder,
    accept_delete,
    accept_insert,
    accept_move,
    assign_rate,
    estimate_total,
    thinned_prob,
)

__version__ = "0.1.0"
