"""Sweeps per second of the sampler on larger latent grids (ungated probe).

    python3 tools/grid_probe.py [--sweeps 10] [--seed 0]

Run from the root of a checkout; the program is imported from ``src/``.
Each case fits a seeded data set with BLAS pinned to one thread, ``REPEATS``
times, each in a fresh process, and prints the median and the
interquartile range of the sampler's own sweeps/s (``RunInfo``) over the
repeats: one short fit is too noisy on a shared host to show a 10 %
change. Beside them it prints the number of latent values Q*J and the
range of N, the points over all processes, across the retained sweeps.
The latent posterior is drawn through an N x N system when N < Q*J and
through the (Q*J)^2 precision otherwise, so the two columns show which
form each sweep used:

* ``2d-20x20``: two coupled processes on the unit square, J = 400, the
  latent grid of the benchmark's ``2d-grid400``;
* ``2d-40x40``: the same data on a 40x40 grid, J = 1600;
* ``3d-10x10x10``: one process on the unit cube, J = 1000.

Each case also prints the prediction cost, the median over the repeats of:
the seconds per retained sample of ``depcox eval``'s scoring of the fit's
draws (``cli._model_rows``, with no test events), which streams each
sample's intensities on ``Quadrature.for_region``'s grid (64 nodes per
axis), and how far that call raised the peak resident set (``ru_maxrss``)
of the fresh process each repeat runs in. It reads 0 when the call stayed
below the peak of the fit before it.

Last, it prints the bytes that the fit's returned draws hold per draw:
the same fit again under ``tracemalloc``, after the timed parts, less what
is still traced once its draws are deleted, over their count. Unlike the
peak resident set, this does not depend on how fast the sampler runs.

No bound is checked. The probe shows how the latent stage and prediction
scale with the grid size and the dimension, which the benchmark's
workloads do not.
"""

from __future__ import annotations

import argparse
import gc
import multiprocessing
import os
import resource
import statistics
import sys
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from depcox.cli import _model_rows  # noqa: E402
from depcox.engine import RunConfig, run_chain_with_info  # noqa: E402
from depcox.generate import sample_events, sample_ground_truth  # noqa: E402
from depcox.metrics import Quadrature  # noqa: E402
from depcox.sgcp import EventSet, PriorConfig, Region  # noqa: E402

# priors scaled to a unit region, as in the benchmark's workloads
PRIORS = PriorConfig(
    lambda_beta=0.1,
    kappa_log_sd=0.7,
    theta_log_mean=float(np.log(0.005)),
    theta_log_sd=0.7,
    phi_log_mean=float(np.log(0.01)),
    phi_log_sd=0.7,
)
# (name, dimension, processes, latent grid points per axis)
CASES = [("2d-20x20", 2, 2, 20), ("2d-40x40", 2, 2, 40), ("3d-10x10x10", 3, 1, 10)]
# fits per case, each in a fresh process
REPEATS = 5


def probe(dim: int, n_processes: int, per_axis: int, sweeps: int, seed: int) -> tuple:
    """The sampler's sweeps/s, the fewest and most points, over all
    processes, of its sweeps, the seconds per retained sample of eval's
    scoring on the quadrature grid, the MB it added to the peak RSS and the
    bytes the fit's draws hold per draw."""
    region = Region([0.0] * dim, [1.0] * dim)
    rng = np.random.default_rng([seed, dim])
    truth = sample_ground_truth(
        region, n_processes, 1, rng, grid_per_axis=8, lambda_star_range=(60.0, 60.0)
    )
    events = sample_events(truth, rng)
    config = RunConfig(
        n_iters=sweeps, burn_in=0, seed=seed, grid_per_axis=per_axis, priors=PRIORS
    )
    samples, info = run_chain_with_info(events, region, config)
    points = [sum(g.size for g in s.g_values) for s in samples]
    quad = Quadrature.for_region(region)
    no_test = [EventSet(np.zeros((0, dim)), d) for d in range(n_processes)]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    start = time.perf_counter()
    _model_rows("ours", samples, config, region, events, no_test, quad, None)
    predict = (time.perf_counter() - start) / len(samples)
    grown_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak_kb) / 1024.0
    return (info.iterations_per_second, min(points), max(points), predict, grown_mb,
            bytes_per_draw(events, region, config))


def bytes_per_draw(events, region: Region, config: RunConfig) -> float:
    """The bytes that ``tracemalloc`` finds held by the draws of a fit of
    ``events``, over their count: freed when they are deleted."""
    tracemalloc.start()
    try:
        samples = run_chain_with_info(events, region, config)[0]
        n = len(samples)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del samples
        gc.collect()
        return (held - tracemalloc.get_traced_memory()[0]) / n
    finally:
        tracemalloc.stop()


def summary_line(name: str, n_latent: int, results: list) -> str:
    """One case's line from the ``probe`` results of its repeats: the
    median sweeps/s and its interquartile range (inclusive quartiles), the
    fewest and most points over all repeats and the medians of the
    prediction's seconds per sample, its peak-RSS growth and the bytes
    held per draw."""
    rates = [r[0] for r in results]
    q1, median, q3 = statistics.quantiles(rates, n=4, method="inclusive")
    n_min, n_max = min(r[1] for r in results), max(r[2] for r in results)
    predict = statistics.median(r[3] for r in results)
    grown = statistics.median(r[4] for r in results)
    held = statistics.median(r[5] for r in results)
    return (f"{name:12s} Q*J={n_latent:5d}  N={n_min:4d}-{n_max:<4d} {median:7.2f} sweeps/s"
            f" (IQR {q1:.2f}-{q3:.2f}, {len(rates)} runs)"
            f"  {predict:8.4f} s/sample predict  +{grown:6.1f} MB peak RSS"
            f"  {held:8.0f} B/draw")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sweeps", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    for name, dim, n_processes, per_axis in CASES:
        results = []
        for _ in range(REPEATS):
            with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
                results.append(
                    pool.submit(probe, dim, n_processes, per_axis, args.sweeps, args.seed).result()
                )
        print(summary_line(name, per_axis**dim, results), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
