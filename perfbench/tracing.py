"""Span tracing of calls into the depcox layers, installed from outside.

Each traced function is replaced by a wrapper that records a span (calls,
wall seconds, self seconds) and is rebound under its name in every loaded
``depcox.*`` module that holds the original. That covers names imported
at module level (``engine`` holds the ``sgcp`` kernels) and, because the
defining module is rebound too, imports made inside functions at call
time (``tri_solve``, ``elliptical_slice``). Spans nest: a span's self time
is its duration minus the durations of the spans opened inside it.

Wrappers only read their arguments and results, so a traced chain makes
the same draws as an untraced one; the benchmark checks that.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (module, attribute path) of every traced callable, named in metrics as
# "<module>.<attribute path>".
TRACED = [
    ("sgcp", "birth_death_step"),
    ("sgcp", "move_step"),
    ("sgcp", "ess_function_update"),
    ("sgcp", "hmc_hyper_update"),
    ("sgcp", "gibbs_lambda_star"),
    ("sgcp", "elliptical_slice"),
    ("sgcp", "point_loglik"),
    ("convolution", "ConvolutionPrior.__init__"),
    ("convolution", "ConvolutionPrior.cov"),
    ("convolution", "ConvolutionPrior.mean"),
    ("convolution", "ConvolutionPrior.mean_cov_grads"),
    ("convolution", "ConvolutionPrior.coupling_matrix"),
    ("convolution", "latent_posterior"),
    ("convolution", "sample_latent_posterior"),
    ("convolution", "phi_mh_update"),
    ("convolution", "latent_logpost"),
    ("gaussian", "gauss_gram"),
    ("gaussian", "gauss_gram_dv"),
    ("gaussian", "tri_solve"),
    ("gaussian", "chol_solve"),
    ("gaussian", "cholesky_with_jitter"),
    ("gaussian", "mvn_sample"),
    ("thinning", "accept_insert"),
    ("thinning", "accept_delete"),
    ("engine", "intensity_samples"),
    ("engine", "diagnostics"),
    ("metrics", "sample_logliks"),
    ("metrics", "predictive_loglik"),
    ("io", "iter_event_rows"),
    ("io", "read_event_files"),
    ("io", "save_archive"),
    ("io", "load_archive"),
]

# Counted but not timed: a span around them would measure only the
# wrapper (generators return at once; the acceptance ratios are a few
# float operations whose timing would be mostly tracing overhead).
COUNT_ONLY = {"sgcp.point_loglik", "thinning.accept_insert", "thinning.accept_delete", "io.iter_event_rows"}


class Tracer:
    """Aggregated spans and counters of one traced run."""

    def __init__(self, now=time.perf_counter):
        self.now = now
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []  # [name, start, seconds of child spans]

    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    @contextmanager
    def span(self, name: str):
        frame = [name, self.now(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            duration = self.now() - frame[1]
            self._stack.pop()
            self.calls[name] += 1
            self.seconds[name] += duration
            self.self_seconds[name] += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount


def _resolve(owner, path: str):
    *outer, last = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, last


def _tri_solve(tracer, args, result):
    L, b = args[0], args[1]
    k = 1 if np.ndim(b) < 2 else np.shape(b)[1]
    tracer.count("gaussian.tri_solve.gflop", L.shape[0] ** 2 * k / 1e9)


def _cholesky(tracer, args, result):
    from depcox.gaussian import JITTER_SCALE

    cov = np.asarray(args[0])
    n = cov.shape[0]
    if n:
        mean_diag = float(np.trace(cov)) / n
        base = JITTER_SCALE * mean_diag if mean_diag > 0 else JITTER_SCALE
        escalations = int(round(np.log2(result[1] / base)))
        tracer.count("gaussian.cholesky_with_jitter.escalations", escalations)
        tracer.count("gaussian.cholesky_with_jitter.gflop", (escalations + 1) * n**3 / 3e9)


def _move(tracer, args, result):
    before = args[0]
    tracer.count("sgcp.move_step.attempted", before.n_thinned)
    if before.n_thinned:
        moved = np.any(result.thinned != before.thinned, axis=1)
        tracer.count("sgcp.move_step.accepted", int(moved.sum()))


def _hmc(tracer, args, result):
    tracer.count("sgcp.hmc_hyper_update.accepted", int(result[1]))


def _phi(tracer, args, result):
    tracer.count("convolution.phi_mh_update.attempted", result[1].size)
    tracer.count("convolution.phi_mh_update.accepted", int(np.sum(result[1])))


def _lambda_star(tracer, args, result):
    # once per process and sweep: the thinned points and their levels
    tracer.count("thinning.thinned", result.n_thinned)
    for level, n in enumerate(np.bincount(result.rate_idx)):
        tracer.count(f"thinning.level.{level}", int(n))


# Layer counters derived from a traced call's arguments and result.
OBSERVERS = {
    "gaussian.tri_solve": _tri_solve,
    "gaussian.cholesky_with_jitter": _cholesky,
    "sgcp.move_step": _move,
    "sgcp.hmc_hyper_update": _hmc,
    "convolution.phi_mh_update": _phi,
    "sgcp.gibbs_lambda_star": _lambda_star,
}


def _wrap(tracer: Tracer, name: str, fn):
    if name in COUNT_ONLY:
        def counted(*args, **kwargs):
            tracer.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    if name == "sgcp.elliptical_slice":
        def sliced(current, prior_dist, loglik, *args, **kwargs):
            caller = "function" if tracer.parent() == "sgcp.ess_function_update" else "latent"

            def counted_loglik(x):
                tracer.count("sgcp.elliptical_slice.loglik_calls")
                return loglik(x)

            with tracer.span(f"{name}.{caller}"):
                return fn(current, prior_dist, counted_loglik, *args, **kwargs)

        return sliced

    observe = OBSERVERS.get(name)

    def spanned(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if observe is not None:
            observe(tracer, args, result)
        return result

    return spanned


@contextmanager
def traced(tracer: Tracer):
    """Install wrappers for every ``TRACED`` callable; restore on exit."""
    restore = []
    try:
        for module_name, path in TRACED:
            module = importlib.import_module(f"depcox.{module_name}")
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            wrapper = _wrap(tracer, f"{module_name}.{path}", original)
            holders = [owner] if owner is not module else [
                m for key, m in list(sys.modules.items())
                if (key == "depcox" or key.startswith("depcox.")) and getattr(m, attr, None) is original
            ]
            for holder in holders:
                setattr(holder, attr, wrapper)
                restore.append((holder, attr, original))
        yield tracer
    finally:
        for holder, attr, original in reversed(restore):
            setattr(holder, attr, original)
