"""Full MCMC orchestration over all observed processes.

``start_chain`` draws a chain's starting ``ChainState`` and ``sweep``
moves it by one sweep: the five kernels of each process, each with its
own keyed stream, then the latent stage, which draws the latent grid
values from their joint posterior and updates the latent variances.
``run_chain_with_info`` loops over ``sweep`` and keeps the retained
draws; a copy of a chain continues exactly as the chain would.

A chain's retained draws are columnar: ``Draws`` holds one set of arrays
per chain, each field stacked over the draws, not a ``PosteriorSample``
with its own arrays per draw, filled as the chain runs. Each
``PosteriorSample`` taken from it is a read-only view of one draw;
``diagnostics`` reads the traces from the columns. Prediction is one
loop, ``intensity_rows``, which ``summarize``, ``intensity_samples`` and
eval reduce.

Each latent function's variance and grid live only in its
``convolution.LatentFactor``, which factors the latent Gram matrix per
axis. The latent state is the ``ConvolutionPrior`` of the grid values and
those factors, built once a sweep, after ``phi_mh_update`` has returned
the factors at the moved variances. Only the initial latent draw, the
slice move's prior draw and the latent prior precision go through a
factor's dense Cholesky factor; the precision is formed only when the
points, over all processes, are at least as many as the latent values
(``convolution.sample_latent_posterior``). Each process's conditional
prior lives in the workspace its ``GpContext`` owns (``sgcp._Workspace``):
the engine never projects a point set or forms or factors a residual
covariance itself, at start-up, in the sweep or in prediction.
"""

from __future__ import annotations

import operator
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .convolution import (
    ConvolutionPrior,
    LatentFactor,
    independent_prior,
    latent_grid,
    phi_mh_update,
    sample_latent_posterior,
)
from .errors import NumericalError, ValidationError
from .gaussian import ProductGrid, _as_points
from .sgcp import (
    AugmentedState,
    EventSet,
    GpContext,
    PriorConfig,
    Region,
    birth_death_step,
    ess_function_update,
    gibbs_lambda_star,
    hmc_hyper_update,
    move_step,
    sigmoid_array,
)
from .thinning import RateLadder


# Starting step sizes of the Hamiltonian hyperparameter update and of the
# latent-variance random walk. Both adapt during burn-in and are then frozen.
HMC_STEP_SIZE = 0.1
PHI_STEP_SIZE = 0.1


@dataclass
class RunConfig:
    """Everything a chain run needs besides the data and the region.

    The sampler's own settings are fixed, not configured: birth/death
    proposes an insertion with probability ``b`` and the Hamiltonian update
    takes ``n_steps`` leapfrog steps, at those kernels' defaults in
    ``sgcp``; the starting step sizes are ``HMC_STEP_SIZE`` and
    ``PHI_STEP_SIZE`` here, and both steps always adapt during burn-in.
    The latent grid extends past the region by ``convolution.GRID_PAD``
    of its length per side, and a point takes the lowest ladder level
    whose ``thinning.SLACK`` fraction covers its sigmoid.

    ``independent`` fits each process on its own: the conditional prior on
    an empty latent grid (``convolution.independent_prior``), its one
    latent variance fixed at ``exp(priors.phi_log_mean)``; ``n_latent``
    and ``grid_per_axis`` are then not read.
    """

    n_iters: int = 1000
    burn_in: int = 0
    thin_every: int = 1
    seed: int = 0
    ladder: RateLadder = field(default_factory=RateLadder)
    n_latent: int = 1
    grid_per_axis: int = 20
    priors: PriorConfig = field(default_factory=PriorConfig)
    independent: bool = False

    def __post_init__(self):
        if self.n_iters < 1 or not 0 <= self.burn_in < self.n_iters:
            raise ValidationError("need 0 <= burn_in < n_iters")
        if self.thin_every < 1:
            raise ValidationError("thin_every must be at least 1")
        if self.n_latent < 1 or self.grid_per_axis < 2:
            raise ValidationError("need at least one latent function and two grid points")


@dataclass
class PosteriorSample:
    """One retained draw of the full augmented state.

    Fields are in the key order of an archive's sample records. A draw
    taken from ``Draws`` is a read-only view of one row of its columns.
    """

    iteration: int
    lambda_stars: np.ndarray
    kappas: np.ndarray
    thetas: np.ndarray
    phis: np.ndarray
    latent_values: np.ndarray  # (Q, J); (0, 0) for independent runs
    thinned: list
    rate_idx: list
    g_values: list


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _put(flat: np.ndarray, start: int, piece: np.ndarray) -> np.ndarray:
    """``flat`` with ``piece`` at row ``start``: in a copy twice as long if it lacks room."""
    end = start + len(piece)
    if end > len(flat):
        grown = np.empty((max(end, 2 * len(flat)), *flat.shape[1:]), flat.dtype)
        grown[:start] = flat[:start]
        flat = grown
    flat[start:end] = piece
    return flat


class Draws(Sequence):
    """A chain's retained draws, stored by column: ``Draws(n)`` is an
    empty store for ``n`` draws, and ``append`` copies in the next. The
    sampler appends each retained sweep's draw as the chain runs, and
    ``io.load_archive`` each record as it reads it.

    ``iteration`` is (n,); ``lambda_stars``, ``kappas`` and ``thetas`` are
    (n, D), ``phis`` (n, Q) and ``latent_values`` (n, Q, J), at the first
    draw's shapes. Each process ``d``'s thinned points, levels and
    function values over all draws are one flat array each,
    ``thinned_flat[d]``, ``rate_idx_flat[d]`` and ``g_flat[d]``, draw
    ``i``'s part running from row ``i`` to row ``i + 1`` of column ``d``
    of ``thinned_offsets`` (points and levels) or ``g_offsets`` (function
    values). A flat array doubles when a draw does not fit and is cut to
    its length at the ``n``-th draw, which makes every column read-only.
    So a chain holds a fixed number of arrays however many draws it keeps;
    ``draws[i]`` and iteration give a ``PosteriorSample`` of views.
    """

    _COLUMNS = ("iteration", "lambda_stars", "kappas", "thetas", "phis", "latent_values")

    def __init__(self, n: int):
        self._size, self._count = n, 0

    def append(self, s: PosteriorSample) -> None:
        """Copy in ``s``, of the processes, dimension and latent grid of
        the draws before it, as the next draw."""
        i, n = self._count, self._size
        if i == 0:
            n_proc = len(s.lambda_stars)
            self.iteration = np.empty(n, dtype=int)
            self.lambda_stars, self.kappas, self.thetas = (np.empty((n, n_proc)) for _ in range(3))
            self.phis, self.latent_values = (np.empty((n, *a.shape)) for a in (s.phis, s.latent_values))
            self.thinned_offsets, self.g_offsets = (np.zeros((n + 1, n_proc), dtype=int) for _ in range(2))
            self.thinned_flat, self.rate_idx_flat, self.g_flat = (
                [np.empty((0, *a.shape[1:]), a.dtype) for a in pieces]
                for pieces in (s.thinned, s.rate_idx, s.g_values))
        for name in self._COLUMNS:
            getattr(self, name)[i] = getattr(s, name)
        t, g = self.thinned_offsets, self.g_offsets
        t[i + 1] = t[i] + [len(a) for a in s.rate_idx]
        g[i + 1] = g[i] + [len(a) for a in s.g_values]
        for d in range(t.shape[1]):
            self.thinned_flat[d] = _put(self.thinned_flat[d], t[i, d], s.thinned[d])
            self.rate_idx_flat[d] = _put(self.rate_idx_flat[d], t[i, d], s.rate_idx[d])
            self.g_flat[d] = _put(self.g_flat[d], g[i, d], s.g_values[d])
        self._count = i + 1
        if self._count == n:
            for flat, ends in ((self.thinned_flat, t[n]), (self.rate_idx_flat, t[n]), (self.g_flat, g[n])):
                flat[:] = [_frozen(a[:end].copy()) for a, end in zip(flat, ends)]
            for name in (*self._COLUMNS, "thinned_offsets", "g_offsets"):
                _frozen(getattr(self, name))

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, key):
        i = operator.index(key)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"draw {key} of {len(self)}")
        return self._draw(i)

    def __iter__(self):
        return map(self._draw, range(len(self)))

    def _draw(self, i: int) -> PosteriorSample:
        t0, t1 = self.thinned_offsets[i : i + 2].tolist()
        g0, g1 = self.g_offsets[i : i + 2].tolist()
        return PosteriorSample(
            iteration=int(self.iteration[i]),
            lambda_stars=self.lambda_stars[i],
            kappas=self.kappas[i],
            thetas=self.thetas[i],
            phis=self.phis[i],
            latent_values=self.latent_values[i],
            thinned=[pts[a:b] for pts, a, b in zip(self.thinned_flat, t0, t1)],
            rate_idx=[idx[a:b] for idx, a, b in zip(self.rate_idx_flat, t0, t1)],
            g_values=[g[a:b] for g, a, b in zip(self.g_flat, g0, g1)],
        )


@dataclass
class RunInfo:
    """Bookkeeping from a chain run that is not part of the posterior."""

    timings: dict
    iterations_per_second: float
    hmc_accept_rate: np.ndarray
    phi_accept_rate: float


def _latent_ess_move(states, A_list, prior: ConvolutionPrior, ladder, rng):
    """Joint slice move of the latent values and all function values.

    Holds each process's residual (function values minus the smoothed
    latent) fixed while the latent grid values slide along an ellipse of
    their own prior; the point likelihood is evaluated through the implied
    function values. This is the non-centered counterpart of the exact
    latent resample: when the inducing grid resolves the kernels well the
    residuals are tiny and the centered alternation alone would move the
    latent only by hairline steps per sweep. Only the function values are
    kept: the exact resample that follows redraws the latent values.
    ``A_list`` holds each process's coupling matrix. The slice's prior
    draw goes through each latent function's dense factor in turn; the
    block-diagonal prior is never assembled.
    """
    from .sgcp import elliptical_slice, point_loglik, thinned_levels

    u_flat = prior.values.ravel()
    residuals = [states[d].g_values - A_list[d] @ u_flat for d in range(len(states))]
    J = prior.values.shape[1]
    z = rng.standard_normal(u_flat.size)
    nu = np.concatenate([f.L @ z[q * J : (q + 1) * J] for q, f in enumerate(prior.factors)])
    levels = [thinned_levels(state.rate_idx, ladder) for state in states]

    def loglik(u):
        total = 0.0
        for d, state in enumerate(states):
            g = A_list[d] @ u + residuals[d]
            total += point_loglik(g, state.n_data, state.rate_idx, ladder, levels[d])
            if not np.isfinite(total):
                return -np.inf
        return total

    u_new = elliptical_slice(u_flat, 0.0, loglik, rng, nu)
    for d, state in enumerate(states):
        state.g_values = A_list[d] @ u_new + residuals[d]


@dataclass
class _StepSize:
    """A proposal step adapted in burn-in, by ``exp(0.05 (signal -
    target))`` a sweep, then frozen at its geometric mean over the second
    half of burn-in rather than at the (noisy) last value; the sweeps after
    burn-in count acceptances."""

    value: object  # a float, or one step per process
    target: float
    log_sum: float = 0.0
    accepts: object = 0.0
    tries: int = 0

    def update(self, it: int, burn_in: int, signal, accepted) -> None:
        if it >= burn_in:
            self.accepts += accepted
            self.tries += 1
            return
        self.value = self.value * np.exp(0.05 * (signal - self.target))
        if it >= burn_in // 2:
            self.log_sum += np.log(self.value)
        if it == burn_in - 1:
            self.value = np.exp(self.log_sum / (burn_in - burn_in // 2))

    @property
    def accept_rate(self):
        return self.accepts / max(self.tries, 1)


@dataclass
class ChainState:
    """Everything a sweep reads and moves: each process's augmented state
    and ``GpContext``, the shared prior, the keyed streams (one per process,
    then the latent stage's), the two adapted steps, the number of sweeps
    done and the seconds spent in each stage."""

    states: list
    contexts: list
    prior: ConvolutionPrior
    streams: list
    hmc_step: _StepSize
    phi_step: _StepSize
    sweeps: int = 0
    timings: dict = field(default_factory=lambda: {"process_updates": 0.0, "latent_updates": 0.0})

    def sample(self) -> PosteriorSample:
        """The current state as the draw of the last sweep, holding arrays
        that no sweep writes in place (see ``sgcp``), not copies."""
        coupled = self.prior.values.shape[1] > 0  # has a latent grid
        return PosteriorSample(
            iteration=self.sweeps - 1,
            thinned=[s.thinned for s in self.states],
            rate_idx=[s.rate_idx for s in self.states],
            g_values=[s.g_values for s in self.states],
            lambda_stars=np.array([s.lambda_star for s in self.states]),
            kappas=np.array([s.kappa for s in self.states]),
            thetas=np.array([s.theta for s in self.states]),
            latent_values=self.prior.values if coupled else np.zeros((0, 0)),
            phis=self.prior.phis if coupled else np.zeros(0),
        )


def start_chain(data, region: Region, config: RunConfig) -> ChainState:
    """Check the data and draw the chain's starting state: the latent grid
    values from their prior, then each process's function values from its
    conditional prior, each from its own stream."""
    data = [d if isinstance(d, EventSet) else EventSet(d) for d in data]
    n_proc = len(data)
    if n_proc == 0:
        raise ValidationError("at least one event set required")
    for d, ev in enumerate(data):
        if len(ev) and not np.all(region.contains(ev.points)):
            raise ValidationError(f"events of process {d} fall outside the region")

    priors = config.priors
    streams = [
        np.random.default_rng(s)
        for s in np.random.SeedSequence(config.seed).spawn(n_proc + 1)
    ]
    if config.independent:
        prior = independent_prior(np.exp(priors.phi_log_mean), region.dim)
    else:
        # every latent function starts at the same variance: one factor serves all
        factor = LatentFactor(latent_grid(region, config.grid_per_axis), np.exp(priors.phi_log_mean))
        factors = [factor] * config.n_latent
        values = np.stack([factor.L @ streams[n_proc].standard_normal(factor.grid.size)
                           for _ in factors])
        prior = ConvolutionPrior(values, factors)

    states, contexts = [], []
    for d, ev in enumerate(data):
        ctx = GpContext(ev.points, prior)
        state = AugmentedState(
            thinned=np.zeros((0, region.dim)),
            rate_idx=np.zeros(0, dtype=int),
            g_values=np.zeros(len(ev)),
            lambda_star=(priors.lambda_alpha + len(ev)) / (priors.lambda_beta + region.volume),
            kappa=float(np.exp(priors.kappa_log_mean)),
            theta=float(np.exp(priors.theta_log_mean)),
        )
        ws = ctx.workspace(state)
        state.g_values = ws.m + ws.prior_draw(streams[d])
        states.append(state)
        contexts.append(ctx)
    return ChainState(states, contexts, prior, streams,
                      _StepSize(np.full(n_proc, HMC_STEP_SIZE), 0.65), _StepSize(PHI_STEP_SIZE, 0.3))


def sweep(chain: ChainState, region: Region, config: RunConfig) -> None:
    """One sweep: the five kernels of each process with its own stream,
    then, for a prior with a latent grid, the latent stage with the latent
    stream. The steps adapt while fewer than ``config.burn_in`` sweeps are
    done."""
    it, ladder, priors = chain.sweeps, config.ladder, config.priors
    t0 = time.perf_counter()
    accepted, accept_prob = np.zeros((2, len(chain.states)))
    for d, (ctx, rng) in enumerate(zip(chain.contexts, chain.streams)):
        try:
            state = birth_death_step(chain.states[d], region, ladder, ctx, rng)
            state = move_step(state, region, ladder, ctx, rng)
            state = ess_function_update(state, ctx, ladder, rng)
            state, accepted[d], accept_prob[d] = hmc_hyper_update(
                state, ctx, priors, rng, float(chain.hmc_step.value[d])
            )
            state = gibbs_lambda_star(state, region, priors, ladder, rng)
            state.validate(ladder)
        except (ValidationError, NumericalError) as exc:
            raise type(exc)(f"iteration {it}, process {d}: {exc}") from exc
        chain.states[d] = state
    chain.hmc_step.update(it, config.burn_in, accept_prob, accepted)
    t1 = time.perf_counter()
    chain.timings["process_updates"] += t1 - t0

    prior = chain.prior
    if prior.values.shape[1]:  # a latent grid: the latent stage
        states, contexts, rng = chain.states, chain.contexts, chain.streams[-1]
        try:
            # each process's workspace and one coupling matrix serve both
            # latent moves: the slice move changes function values, not
            # points, kappa or theta, so the workspaces fetched again after
            # it hold the moved values and keep their factors of C
            spaces = [ctx.workspace(s) for ctx, s in zip(contexts, states)]
            A_list = [prior.coupling_matrix(ws.W, ws.kappa) for ws in spaces]
            _latent_ess_move(states, A_list, prior, ladder, rng)
            spaces = [ctx.workspace(s) for ctx, s in zip(contexts, states)]
            values = sample_latent_posterior(spaces, prior, rng, A_list)
            factors, acc = phi_mh_update(values, prior.factors, rng, step=chain.phi_step.value,
                                         log_mean=priors.phi_log_mean, log_sd=priors.phi_log_sd)
            prior = ConvolutionPrior(values, factors)
        except (ValidationError, NumericalError) as exc:
            raise type(exc)(f"iteration {it}, latent stage: {exc}") from exc
        rate = np.mean(acc)
        chain.phi_step.update(it, config.burn_in, rate, rate)
        chain.prior = prior
        for ctx in contexts:
            ctx.prior = prior
    chain.timings["latent_updates"] += time.perf_counter() - t1
    chain.sweeps += 1


def run_chain_with_info(data, region: Region, config: RunConfig):
    """Run the full sampler; returns the retained posterior samples, as
    ``Draws``, and a ``RunInfo``. Each retained sweep's draw is appended to
    the store as the chain runs; the sweeps per second leave out
    ``start_chain`` and count that fill."""
    chain = start_chain(data, region, config)
    kept = range(config.burn_in, config.n_iters, config.thin_every)
    draws = Draws(len(kept))
    t_start = time.perf_counter()
    for it in range(config.n_iters):
        sweep(chain, region, config)
        if it in kept:
            draws.append(chain.sample())
    elapsed = time.perf_counter() - t_start
    return draws, RunInfo(
        timings=chain.timings,
        iterations_per_second=config.n_iters / elapsed if elapsed > 0 else float("inf"),
        hmc_accept_rate=chain.hmc_step.accept_rate,
        phi_accept_rate=float(chain.phi_step.accept_rate),
    )


@dataclass
class GridSummary:
    grid: np.ndarray
    intensity_mean: np.ndarray  # (D, n_grid)
    intensity_sd: np.ndarray
    latent_mean: np.ndarray  # (Q, n_grid)
    latent_sd: np.ndarray


def _sample_priors(samples, region: Region, config: RunConfig):
    """Yield each sample with its conditional prior in turn, reusing a latent
    factor from one sample to the next while the latent variances stay put."""
    if config.independent:
        prior = independent_prior(np.exp(config.priors.phi_log_mean), region.dim)
        for s in samples:
            yield s, prior
        return
    grid = latent_grid(region, config.grid_per_axis)
    factors = []
    for s in samples:
        factors = [next((f for f in factors if f.phi == phi), None) or LatentFactor(grid, phi)
                   for phi in s.phis]
        yield s, ConvolutionPrior(s.latent_values, factors)


def _accumulate(acc: np.ndarray, k: int, x: np.ndarray) -> None:
    """Add the ``k``-th sample ``x`` (``k`` from 1) to ``acc``: its running
    sum, running mean and sum of squared deviations from that mean, by
    Welford's update, which keeps the digits that a sum of squares less
    ``n mean^2`` cancels where the sd is small against the mean."""
    acc[0] += x
    delta = x - acc[1]
    acc[1] += delta / k
    acc[2] += delta * (x - acc[1])


def summarize(samples, grid: ProductGrid, data, region: Region, config: RunConfig) -> GridSummary:
    """Pointwise mean and standard deviation of the intensity of every
    process and of every latent function across posterior samples, at the
    nodes of the ``ProductGrid`` ``grid``: a running reduction of
    ``intensity_rows``."""
    nodes = grid.nodes
    rows = intensity_rows(samples, nodes[:0], data, region, config, grid)
    n_latent = 0 if config.independent else config.n_latent
    lam_acc = np.zeros((3, len(data), len(nodes)))
    lat_acc = np.zeros((3, n_latent, len(nodes)))
    for k, (prior, lam) in enumerate(rows, 1):
        _accumulate(lam_acc, k, lam)
        if n_latent:
            _accumulate(lat_acc, k, prior.latent_interpolant(grid))
    n = len(samples)
    return GridSummary(nodes, lam_acc[0] / n, np.sqrt(lam_acc[2] / n),
                       lat_acc[0] / n, np.sqrt(lat_acc[2] / n))


def intensity_rows(samples, X, data, region: Region, config: RunConfig, grid=None):
    """Yield each sample's conditional prior and its intensity of every
    process at the points ``X``, (D, n): the one loop that extends draws
    to targets, which ``summarize``, ``intensity_samples`` and eval
    reduce. Given a ``ProductGrid`` ``grid``, its N nodes come first,
    (D, N + n).

    A target's function value is the conditional mean given the sample's
    state, ``m(X) + cov(X, pts) C^{-1} (g - m(pts))``: each sample and
    process gets one workspace, whose weights ``C^{-1} (g - m(pts))``
    extend to every target. A caller that reduces over the samples holds
    one sample's intensities at a time.
    """
    if len(samples) == 0:
        raise ValidationError("at least one posterior sample required")
    X = _as_points(X)
    data = [d if isinstance(d, EventSet) else EventSet(d) for d in data]
    n_grid = 0 if grid is None else grid.size
    targets = ([] if grid is None else [(grid, slice(0, n_grid))]) + [(X, slice(n_grid, None))]
    for s, prior in _sample_priors(samples, region, config):
        lam = np.empty((len(data), n_grid + X.shape[0]))
        for d, ev in enumerate(data):
            state = AugmentedState(s.thinned[d], s.rate_idx[d], s.g_values[d],
                                   s.lambda_stars[d], s.kappas[d], s.thetas[d])
            ws = GpContext(ev.points, prior).workspace(state)
            a = ws.weights()
            for target, span in targets:  # each target straight into its part of the row
                g = prior.extend(target, ws.pts, ws.W, a, ws.kappa, ws.theta)
                row = sigmoid_array(g, out=lam[d, span])
                row *= s.lambda_stars[d]
        yield prior, lam


def intensity_samples(samples, X, data, region: Region, config: RunConfig, grid=None) -> np.ndarray:
    """The intensities of ``intensity_rows`` for all samples at once,
    (S, D, n), or (S, D, N + n) given a ``grid``."""
    n = _as_points(X).shape[0] + (0 if grid is None else grid.size)
    out = np.empty((len(samples), len(data), n))
    for i, (_, lam) in enumerate(intensity_rows(samples, X, data, region, config, grid)):
        out[i] = lam
    return out


def effective_sample_size(trace) -> float:
    """Autocorrelation-time estimate with pairwise-positive truncation,
    capped at the trace length. The benchmark's ``ess_per_s`` metrics
    (``perfbench/run.py``) are this over seconds: changing it changes them."""
    x = np.asarray(trace, dtype=float)
    n = x.size
    if n < 2:
        return float(n)
    x = x - x.mean()
    var = float(x @ x) / n
    if var == 0.0:
        return float(n)
    acf = np.correlate(x, x, "full")[n - 1 :] / (n * var)
    tau = 1.0
    t = 1
    while t + 1 < n:
        pair = acf[t] + acf[t + 1]
        if pair < 0.0:
            break
        tau += 2.0 * pair
        t += 2
    return float(min(n, n / max(tau, 1e-12)))


def split_psrf(trace) -> float:
    """Potential scale reduction factor from the two halves of one trace."""
    x = np.asarray(trace, dtype=float)
    half = x.size // 2
    if half < 2:
        return 1.0
    a, b = x[:half], x[half : 2 * half]
    w = 0.5 * (np.var(a, ddof=1) + np.var(b, ddof=1))
    if w == 0.0:
        return 1.0
    means = np.array([a.mean(), b.mean()])
    bvar = half * np.var(means, ddof=1)
    var_plus = (half - 1) / half * w + bvar / half
    return float(max(1.0, np.sqrt(var_plus / w)))


def diagnostics(draws: Draws) -> dict:
    """Trace statistics per process for the bound and the mean function
    value (0.0 for a draw with no points), read from the columns."""
    if len(draws) < 2:
        raise ValidationError("diagnostics need at least two samples")
    rows = []
    for d, g in enumerate(draws.g_flat):
        lam = draws.lambda_stars[:, d]
        cuts = draws.g_offsets[:, d].tolist()
        gm = np.array([g[a:b].mean() if b > a else 0.0 for a, b in zip(cuts, cuts[1:])])
        rows.append(
            {
                "process": d,
                "ess_lambda_star": effective_sample_size(lam),
                "psrf_lambda_star": split_psrf(lam),
                "ess_g_mean": effective_sample_size(gm),
                "psrf_g_mean": split_psrf(gm),
            }
        )
    return {"processes": rows, "n_samples": len(draws)}
