"""Single-process Cox MCMC kernels.

The augmented state of one observed process holds the thinned points, the
level index of each thinned point, the function values at all observed and
thinned locations, the intensity bound and the process's kernel
hyperparameters. Five transition kernels act on it: birth/death of thinned
points, relocation moves, an elliptical slice update of the function
values, a Hamiltonian update of the hyperparameters, and a conjugate Gamma
resample of the bound. Each kernel leaves the augmented posterior
invariant on its own, so they can be composed in any order.

The conditional prior over a process's current points (projection ``W``,
mean ``m``, residual covariance ``C``) lives in one ``_Workspace`` per
process, owned by its ``GpContext`` for the whole chain, together with
the Cholesky factor of ``C``; nothing else forms or factors it. Birth/death
and move keep it in step as they add, remove and move points; the function
slice update, the engine's initial draw, the latent posterior
(``convolution.latent_posterior``) and prediction read it. ``_Workspace``
says when it is rebuilt and when its factor is.

Birth/death and move run thousands of times a sweep on arrays of tens of
entries, so their cost is mostly numpy calls and copies. A proposal's
conditional makes one call to the prior (``site``) for the site's
projection, prior moments and covariance row with the points, reading the
squared norms of the points that the workspace keeps beside them, and
returns the site with its row and solve, which the kernel passes on to
``append`` or ``update_point``. ``C`` stays exactly symmetric and ``W``
C-contiguous, the layouts that fixed-seed draws rest on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import expit

from .errors import NumericalError, ValidationError
from .gaussian import (
    _as_points,
    chol_inverse,
    chol_solve,
    cholesky_with_jitter,
    sq_norm,
    tri_solve,
)
from .thinning import (
    RateLadder,
    accept_delete,
    accept_insert,
    accept_move,
    assign_rate,
    estimate_total,
)


@dataclass
class Region:
    """Axis-aligned bounded observation window.

    ``lower`` and ``upper`` are float arrays. The bounds are also kept as
    Python floats, which ``contains_point`` compares one point against
    without a numpy call: the move kernel tests every proposal. The axis
    lengths are kept too, for ``uniform``, which the birth kernel calls
    for every insertion.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if self.lower.shape != self.upper.shape:
            raise ValidationError("lower and upper bounds must have the same length")
        if np.any(self.upper <= self.lower):
            raise ValidationError("upper bounds must strictly dominate lower bounds")
        self._bounds = tuple(zip(self.lower.tolist(), self.upper.tolist()))
        self._lengths = self.upper - self.lower

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def volume(self) -> float:
        return float(np.prod(self.upper - self.lower))

    @property
    def axis_lengths(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, X) -> np.ndarray:
        X = _as_points(X)
        return np.all((X >= self.lower) & (X <= self.upper), axis=1)

    def contains_point(self, x) -> bool:
        """Whether the point ``x`` lies in the closed window; False for NaN,
        ``ValidationError`` for a point of another dimension."""
        x = np.asarray(x, dtype=float).ravel().tolist()
        if len(x) != len(self._bounds):
            raise ValidationError(f"a point of dimension {len(x)} in a {self.dim}-D region")
        return all(lo <= v <= hi for v, (lo, hi) in zip(x, self._bounds))

    def uniform(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """``n`` uniform points, (n, dim): the numbers ``rng.uniform(lower,
        upper, (n, dim))`` gives, from the same draws, in a third of its time."""
        return self.lower + self._lengths * rng.random((n, self._lengths.size))


@dataclass
class EventSet:
    """Observed event locations for one process."""

    points: np.ndarray
    process_id: int = 0

    def __post_init__(self):
        self.points = _as_points(self.points)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass
class PriorConfig:
    """Gamma prior on the intensity bound, log-normal priors on hyperparameters."""

    lambda_alpha: float = 1.0
    lambda_beta: float = 0.1
    kappa_log_mean: float = 0.0
    kappa_log_sd: float = 1.0
    theta_log_mean: float = 0.0
    theta_log_sd: float = 1.0
    phi_log_mean: float = 0.0
    phi_log_sd: float = 1.0

    def __post_init__(self):
        for name in ("lambda_alpha", "lambda_beta", "kappa_log_sd", "theta_log_sd", "phi_log_sd"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")


@dataclass
class AugmentedState:
    """Per-process MCMC state.

    ``g_values`` stores function values at the observed points first, then
    at the thinned points in the same order as ``thinned``.
    """

    thinned: np.ndarray  # (M, dim)
    rate_idx: np.ndarray  # (M,) int level indices
    g_values: np.ndarray  # (K + M,)
    lambda_star: float
    kappa: float
    theta: float

    def __post_init__(self):
        self.thinned = _as_points(self.thinned)
        self.rate_idx = np.asarray(self.rate_idx, dtype=int)
        self.g_values = np.asarray(self.g_values, dtype=float)

    @property
    def n_thinned(self) -> int:
        return self.thinned.shape[0]

    @property
    def n_data(self) -> int:
        return self.g_values.size - self.n_thinned

    @property
    def g_data(self) -> np.ndarray:
        return self.g_values[: self.n_data]

    @property
    def g_thinned(self) -> np.ndarray:
        return self.g_values[self.n_data :]

    def copy(self) -> "AugmentedState":
        return AugmentedState(
            self.thinned.copy(),
            self.rate_idx.copy(),
            self.g_values.copy(),
            self.lambda_star,
            self.kappa,
            self.theta,
        )

    def validate(self, ladder: RateLadder) -> None:
        if self.rate_idx.size != self.n_thinned:
            raise ValidationError("one rate index per thinned point required")
        if self.n_data < 0:
            raise ValidationError("g_values inconsistent with thinned/data counts")
        if self.lambda_star <= 0 or self.kappa <= 0 or self.theta <= 0:
            raise ValidationError("lambda_star, kappa and theta must be positive")
        if self.n_thinned:
            levels = ladder.as_array()[self.rate_idx]
            if np.any(expit(self.g_thinned) > levels):
                raise ValidationError("a thinned point's sigmoid exceeds its level")

    def append_thinned(self, x, g_value: float, rate: int) -> None:
        self.thinned = np.concatenate((self.thinned, np.reshape(x, (1, -1))))
        self.rate_idx = np.concatenate((self.rate_idx, (rate,)))
        self.g_values = np.concatenate((self.g_values, (g_value,)))

    def remove_thinned(self, i: int) -> None:
        self.g_values = _without(self.g_values, self.n_data + i)
        self.thinned = _without(self.thinned, i)
        self.rate_idx = _without(self.rate_idx, i)


@dataclass
class GpContext:
    """What a process's kernels need from the outside: its observed
    locations and the (conditional) prior over its function values.

    The context owns the process's ``_Workspace`` and hands it out through
    ``workspace``, so one projection of the point set serves every kernel
    for as long as it holds (see ``_Workspace``).
    """

    data: np.ndarray
    prior: object = field(repr=False)
    _ws: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.data = _as_points(self.data)

    def points(self, state: AugmentedState) -> np.ndarray:
        return np.vstack([self.data, state.thinned])

    def workspace(self, state: AugmentedState) -> "_Workspace":
        """The conditional prior over ``state``'s points under ``prior``.

        The kept workspace is reused while its latent factors, ``kappa``,
        ``theta`` and point set still hold, and built afresh otherwise. A
        reused one takes ``state``'s function values and refreshes its mean
        if the prior changed at the same factors; it keeps ``C`` and the
        factor of ``C``.
        """
        ws = self._ws
        if ws is None or not ws.holds_for(self.prior, state):
            ws = self._ws = _Workspace(self, state)
        else:
            ws.refresh(self.prior, state)
        return ws


def point_loglik(g_values, n_data: int, rate_idx, ladder: RateLadder) -> float:
    """Log likelihood of the point pattern in the function values.

    Observed points contribute log sigmoid terms; thinned points contribute
    the log probability of being thinned at their assigned level, which
    acts as a barrier keeping each sigmoid below its level.
    """
    g = np.asarray(g_values, dtype=float)
    gd = g[:n_data]
    gt = g[n_data:]
    ll = -float(np.sum(np.logaddexp(0.0, -gd)))
    if gt.size:
        levels = ladder.as_array()[np.asarray(rate_idx, dtype=int)]
        sig = expit(gt)
        # level 1 margins computed as sigmoid(-g) to stay exact for large g
        margins = np.where(levels == 1.0, expit(-gt), levels - sig)
        if np.any(margins <= 0.0):
            return -np.inf
        ll += float(np.sum(np.log(margins) - np.log(levels)))
    return ll


def _same_factors(a, b) -> bool:
    """Whether two priors share their latent factors, object for object."""
    if a is b:
        return True
    fa, fb = getattr(a, "factors", None), getattr(b, "factors", None)
    return (
        fa is not None and fb is not None and len(fa) == len(fb)
        and all(x is y for x, y in zip(fa, fb))
    )


def _without(a: np.ndarray, i: int) -> np.ndarray:
    """``a`` without its ``i``-th entry (row, for 2-D ``a``): a new
    C-contiguous array, as ``np.delete(a, i, axis=0)`` gives, in one call."""
    return np.concatenate((a[:i], a[i + 1 :]))


def _drop(C: np.ndarray, i: int) -> np.ndarray:
    """Square ``C`` without its ``i``-th row and column, C-contiguous, copied
    block by block (``C[np.ix_(keep, keep)]`` built index arrays and took
    five times as long on the kernels' 50-point covariances)."""
    n = C.shape[0] - 1
    out = np.empty((n, n))
    out[:i, :i] = C[:i, :i]
    out[:i, i:] = C[:i, i + 1 :]
    out[i:, :i] = C[i + 1 :, :i]
    out[i:, i:] = C[i + 1 :, i + 1 :]
    return out


class _Proposal(NamedTuple):
    """The conditional of the function at a new site given a workspace's
    points, with what ``_Workspace.append`` and ``update_point`` take from
    it. It holds for the points, and the factor of ``C``, it was made at."""

    x: np.ndarray  # the site, (1, dim)
    xx: float  # its squared norm
    w: np.ndarray  # its projection, (Q*J, 1)
    prior_mean: float
    prior_var: float  # floored residual variance
    ks: np.ndarray  # residual covariance with the points, (n,)
    lks: np.ndarray | None  # L^{-1} ks for a full conditional of a C with spread
    mean: float  # given the function values at the points
    var: float


class _Workspace:
    """Dense conditional prior over the current point set with a cached
    Cholesky factor; supports cheap appends, drop-one conditionals, prior
    draws (``prior_draw``) and prediction weights (``weights``).

    Invariant: ``W == prior.project(pts, theta)``, each point's
    cross-covariance with the latent grid whitened by the latent factors,
    ``zz == (pts * pts).sum(1)``, the points' squared norms, and ``m``,
    ``C`` are ``prior.mean_cov(pts, kappa, theta, W)``: the prior mean and
    the residual covariance, its diagonal floored as the prior's ``site``
    floors a new site's variance. ``C`` is exactly symmetric and ``W``
    C-contiguous, as a fresh ``mean_cov`` and ``project`` give them: the
    products ``W^T W`` and the factorizations read them in that layout, so
    a kept ``W`` in another layout would round differently. ``append``,
    ``remove`` and ``update_point`` keep ``W``, ``zz``, ``m``, ``C``,
    ``g`` and (when formed) the factor of ``C`` in step with ``pts``.

    A new site goes through ``conditional``, which makes one call to the
    prior's ``site``: that projects only the site (O(J) per latent
    function) and forms its covariance row with the points from ``W`` and
    ``zz``, with no squared norm of a kept point recomputed. The
    conditional returns it all as a ``_Proposal``: the site, its squared
    norm, projection, prior mean and variance, its covariance ``ks`` with
    the points and, for a full conditional, ``L^{-1} ks``. The kernels
    pass the proposal to ``append`` or ``update_point``, which read the new
    row of ``C`` and the new row of the factor from it; nothing about a
    site is kept between calls, and nothing from the prior but the prior
    itself. Priors without a latent grid project to an empty (0, n) ``W``.

    Lifetime: one workspace per process lives for the whole chain, owned
    by the process's ``GpContext``. ``W`` and ``C`` depend only on the
    latent factors, ``kappa``, ``theta`` and the points, ``m`` also on the
    latent values. So the workspace survives a new prior at the same
    factors, which refreshes ``m`` only (``refresh``), and is rebuilt when
    ``kappa`` or ``theta`` changes (a Hamiltonian accept), when a factor
    changes (a latent-variance accept) or when the point set no longer
    matches (``holds_for``). The factor ``L`` of ``C`` lives as long as
    ``C``: an ``append`` extends it where it can, ``remove``,
    ``update_point`` and an ``append`` that cannot extend it drop it, and
    the next use factors ``C`` afresh. So the factor the function slice
    update draws through also serves the latent posterior and the next
    sweep's birth/death. ``L^{-1} (g - m)`` lives as long as ``g``.
    """

    def __init__(self, ctx: GpContext, state: AugmentedState):
        self.prior = ctx.prior
        self.kappa = state.kappa
        self.theta = state.theta
        self.pts = ctx.points(state)
        self.zz = (self.pts * self.pts).sum(1)
        self.W = self.prior.project(self.pts, self.theta)
        self.m, self.C = self.prior.mean_cov(self.pts, self.kappa, self.theta, self.W)
        self.g = state.g_values.copy()
        self.degenerate = self.C.size == 0 or not self.C.any()
        self._L = None
        self._v = None
        self._jitter = 0.0

    def holds_for(self, prior, state: AugmentedState) -> bool:
        """Whether ``W`` and ``C`` hold for ``prior`` and ``state``'s points
        (the observed ones are the context's and never change)."""
        return (
            state.kappa == self.kappa
            and state.theta == self.theta
            and _same_factors(prior, self.prior)
            and self.pts.shape[0] == state.g_values.size
            and np.array_equal(self.pts[state.n_data :], state.thinned)
        )

    def refresh(self, prior, state: AugmentedState) -> None:
        """Take ``state``'s function values, dropping ``L^{-1} (g - m)``; a
        new ``prior`` at the same factors also refreshes the mean. The
        factor of ``C`` stays."""
        if prior is not self.prior:
            self.prior = prior
            self.m = prior.mean(self.pts, self.W, self.kappa)
        self.g = state.g_values.copy()
        self._v = None

    @property
    def L(self) -> np.ndarray:
        """Cholesky factor of ``C``, formed on first use and kept as long as ``C``."""
        if self._L is None:
            self._L, self._jitter = cholesky_with_jitter(self.C, symmetric=True)
        return self._L

    def _factor(self):
        if self._v is None:
            self._v = tri_solve(self.L, self.g - self.m)
        return self._L, self._v

    def conditional(self, x, exclude: int | None = None) -> _Proposal:
        """The function at ``x`` given the current values, optionally
        leaving point ``exclude`` out: its ``mean`` and ``var``, and the
        site for ``append`` or, with ``exclude``, ``update_point``."""
        x = np.asarray(x, dtype=float).reshape(1, -1)
        xx = sq_norm(x)
        w_x, mstar, cstar, ks = self.prior.site(
            x, xx, self.pts, self.zz, self.W, self.kappa, self.theta
        )
        n = ks.size
        lks = None
        if n == 0:  # no points: L^{-1} of the empty row is itself
            lks, mu, var = ks, mstar, cstar
        elif self.degenerate or (exclude is not None and n == 1):
            mu, var = mstar, cstar
        elif exclude is None:
            L, v = self._factor()
            lks = tri_solve(L, ks)
            mu, var = mstar + float(lks @ v), cstar - float(lks @ lks)
        else:
            Ls, _ = cholesky_with_jitter(_drop(self.C, exclude), symmetric=True)
            w = tri_solve(Ls, _without(ks, exclude))
            vs = tri_solve(Ls, _without(self.g - self.m, exclude))
            mu, var = mstar + float(w @ vs), cstar - float(w @ w)
        return _Proposal(x, xx, w_x, mstar, cstar, ks, lks, mu, max(var, 0.0))

    def append(self, p: _Proposal, g_value: float) -> None:
        """Add the site of the proposal ``p`` with function value ``g_value``."""
        n = self.pts.shape[0]
        self.pts = np.concatenate((self.pts, p.x))
        self.zz = np.concatenate((self.zz, (p.xx,)))
        self.W = np.concatenate((self.W, p.w), axis=1)
        self.m = np.concatenate((self.m, (p.prior_mean,)))
        self.g = np.concatenate((self.g, (g_value,)))
        C_new = np.empty((n + 1, n + 1))
        C_new[:n, :n] = self.C
        C_new[n, :n] = p.ks
        C_new[:n, n] = p.ks
        C_new[n, n] = p.prior_var
        self.C = C_new
        if n == 0:  # the first point decides whether the prior has any spread
            self.degenerate = not self.C.any()
        if self.degenerate:
            return
        if self._L is not None:
            w = p.lks
            d2 = p.prior_var + self._jitter - float(w @ w)
            if d2 > 1e-12 * max(p.prior_var, 1e-12):
                L_new = np.zeros((n + 1, n + 1), order="F")
                L_new[:n, :n] = self._L
                L_new[n, :n] = w
                L_new[n, n] = np.sqrt(d2)
                self._L = L_new
                if self._v is not None:
                    self._v = np.concatenate(
                        (self._v, ((g_value - p.prior_mean - float(w @ self._v)) / L_new[n, n],))
                    )
                return
        self._L = self._v = None

    def remove(self, i: int) -> None:
        # C-contiguous, as np.delete(W, i, axis=1) gives it; W[:, mask] would not be
        self.W = np.concatenate((self.W[:, :i], self.W[:, i + 1 :]), axis=1)
        self.pts = _without(self.pts, i)
        self.zz = _without(self.zz, i)
        self.m = _without(self.m, i)
        self.g = _without(self.g, i)
        self.C = _drop(self.C, i)
        self._L = self._v = None

    def update_point(self, i: int, p: _Proposal, g_value: float) -> None:
        """Move point ``i`` to the site of the proposal ``p``, made with
        ``exclude=i``, with function value ``g_value``."""
        self.pts[i] = p.x[0]
        self.zz[i] = p.xx
        self.W[:, i] = p.w[:, 0]
        self.m[i] = p.prior_mean
        self.g[i] = g_value
        self.C[i, :] = p.ks
        self.C[:, i] = p.ks
        self.C[i, i] = p.prior_var
        self._L = self._v = None

    def prior_draw(self, rng: np.random.Generator) -> np.ndarray:
        """A draw ``L z`` from the zero-mean prior, or zeros, drawing no random
        numbers, if ``C`` has no spread."""
        if self.degenerate:
            return np.zeros(self.pts.shape[0])
        return self.L @ rng.standard_normal(self.pts.shape[0])

    def weights(self) -> np.ndarray:
        """``C^{-1} (g - m)``, which extends the conditional mean to new sites."""
        return chol_solve(self.L, self.g - self.m)


def birth_death_step(
    state: AugmentedState,
    region: Region,
    ladder: RateLadder,
    ctx: GpContext,
    rng: np.random.Generator,
    b: float = 0.5,
    attempts: int | None = None,
) -> AugmentedState:
    """Metropolis-Hastings on the thinned-point count.

    Each attempt proposes an insertion with probability ``b`` (uniform
    location, function value from the conditional prior, level assigned by
    the slack rule) or otherwise the deletion of a uniformly chosen thinned
    point. The attempt count must not depend on the thinned state itself
    (a state-dependent repetition count biases the stationary law), so the
    default is one attempt per observed event plus one.
    """
    state = state.copy()
    ws = ctx.workspace(state)
    if attempts is None:
        attempts = ctx.data.shape[0] + 1
    levels = ladder.levels
    vol = region.volume
    for _ in range(attempts):
        M = state.n_thinned
        if rng.random() < b:
            x = region.uniform(1, rng)[0]
            p = ws.conditional(x)
            g_star = p.mean + math.sqrt(p.var) * rng.standard_normal()
            sig = float(expit(g_star))
            r = ladder.assign(sig)
            a = accept_insert(M, vol, state.lambda_star, levels[r], sig, b)
            if rng.random() < a:
                state.append_thinned(x, g_star, r)
                ws.append(p, g_star)
        else:
            if M == 0:
                continue
            i = int(rng.integers(M))
            sig = float(expit(state.g_thinned[i]))
            a = accept_delete(M, vol, state.lambda_star, levels[state.rate_idx[i]], sig, b)
            if rng.random() < a:
                ws.remove(state.n_data + i)
                state.remove_thinned(i)
    return state


def move_step(
    state: AugmentedState,
    region: Region,
    ladder: RateLadder,
    ctx: GpContext,
    rng: np.random.Generator,
    scale: np.ndarray | None = None,
) -> AugmentedState:
    """Gaussian relocation proposals for every thinned point.

    The function value at the proposed site is drawn conditioned on the
    state with the moving point's value left out; proposals landing outside
    the region are rejected outright. Accepted points get a freshly
    assigned level.
    """
    state = state.copy()
    M = state.n_thinned
    if M == 0:
        return state
    if scale is None:
        scale = region.axis_lengths / 10.0
    ws = ctx.workspace(state)
    levels = ladder.levels
    for i in range(M):
        x_new = state.thinned[i] + scale * rng.standard_normal(region.dim)
        if not region.contains_point(x_new):
            continue
        j = state.n_data + i
        p = ws.conditional(x_new, exclude=j)
        g_new = p.mean + math.sqrt(p.var) * rng.standard_normal()
        sig_new = float(expit(g_new))
        r_new = ladder.assign(sig_new)
        sig_old = float(expit(state.g_values[j]))
        a = accept_move(levels[state.rate_idx[i]], sig_old, levels[r_new], sig_new)
        if rng.random() < a:
            state.thinned[i] = x_new
            state.g_values[j] = g_new
            state.rate_idx[i] = r_new
            ws.update_point(j, p, g_new)
    return state


def elliptical_slice(
    current: np.ndarray,
    mean,
    loglik,
    rng: np.random.Generator,
    nu: np.ndarray,
    max_shrink: int = 256,
) -> np.ndarray:
    """One elliptical slice transition (Murray, Adams & MacKay, 2010) for a
    vector with a Gaussian prior of mean ``mean``, an array or a scalar.
    ``nu`` is the ellipse's draw from the zero-mean prior, which the caller
    makes through its own factor of the covariance. The ellipse is drawn in
    centered coordinates; its bracket shrinks toward the current state.
    """
    ll_cur = loglik(current)
    if not np.isfinite(ll_cur):
        raise ValidationError("current state has zero likelihood; invariants violated")
    log_y = ll_cur + np.log(rng.random())
    angle = rng.uniform(0.0, 2.0 * np.pi)
    lo, hi = angle - 2.0 * np.pi, angle
    centered = current - mean
    for _ in range(max_shrink):
        proposal = mean + centered * np.cos(angle) + nu * np.sin(angle)
        if loglik(proposal) > log_y:
            return proposal
        if angle < 0.0:
            lo = angle
        else:
            hi = angle
        angle = rng.uniform(lo, hi)
    raise NumericalError("elliptical slice bracket failed to shrink")


def ess_function_update(
    state: AugmentedState,
    ctx: GpContext,
    ladder: RateLadder,
    rng: np.random.Generator,
) -> AugmentedState:
    """One elliptical slice transition of the function values under the
    conditional prior of ``ctx``'s workspace."""
    if state.g_values.size == 0:
        return state.copy()
    ws = ctx.workspace(state)
    nu = ws.prior_draw(rng)

    def loglik(g):
        return point_loglik(g, state.n_data, state.rate_idx, ladder)

    new = state.copy()
    new.g_values = elliptical_slice(state.g_values, ws.m, loglik, rng, nu)
    return new


def _hyper_energy(prior, pts, g, rho, priors: PriorConfig):
    """Negative log posterior over (log kappa, log theta) and its gradient."""
    if not np.all(np.isfinite(rho)) or np.any(np.abs(rho) > 30.0):
        raise NumericalError("hyperparameter position out of range")
    kappa, theta = float(np.exp(rho[0])), float(np.exp(rho[1]))
    mu0 = np.array([priors.kappa_log_mean, priors.theta_log_mean])
    sd0 = np.array([priors.kappa_log_sd, priors.theta_log_sd])
    z = (rho - mu0) / sd0
    nlp = 0.5 * float(z @ z)
    grad = z / sd0
    n = g.size
    if n == 0:
        return nlp, grad
    m, C, dm, dC = prior.mean_cov_grads(pts, kappa, theta)
    L, _ = cholesky_with_jitter(C)
    r = g - m
    w = tri_solve(L, r)
    alpha = tri_solve(L, w, trans="T")
    nlp += 0.5 * float(w @ w) + float(np.sum(np.log(np.diag(L)))) + 0.5 * n * np.log(2.0 * np.pi)
    Cinv = chol_inverse(L)
    for i in range(2):
        # tr(C^{-1} dC_i) as an elementwise sum, from the one inverse
        dloglik = (
            float(alpha @ dm[i])
            + 0.5 * float(alpha @ dC[i] @ alpha)
            - 0.5 * float(np.sum(Cinv * dC[i].T))
        )
        grad[i] -= dloglik
    return nlp, grad


def leapfrog(energy_and_grad, q0: np.ndarray, p0: np.ndarray, step_size: float, n_steps: int,
             start=None):
    """Standard leapfrog integration of Hamiltonian dynamics.

    ``start`` is ``energy_and_grad(q0)`` if the caller has it already.
    Returns ``(q, p, energy, ok)``; ``ok`` is False if the potential or its
    gradient became non-finite along the trajectory.
    """
    try:
        u, grad = energy_and_grad(q0) if start is None else start
    except (NumericalError, FloatingPointError, OverflowError):
        return q0, p0, np.inf, False
    q = q0.copy()
    p = p0 - 0.5 * step_size * grad
    for step in range(n_steps):
        q = q + step_size * p
        try:
            u, grad = energy_and_grad(q)
        except (NumericalError, FloatingPointError, OverflowError):
            return q, p, np.inf, False
        if not (np.all(np.isfinite(grad)) and np.isfinite(u)):
            return q, p, np.inf, False
        p = p - (0.5 if step == n_steps - 1 else 1.0) * step_size * grad
    return q, p, u, True


def hmc_hyper_update(
    state: AugmentedState,
    ctx: GpContext,
    priors: PriorConfig,
    rng: np.random.Generator,
    step_size: float = 0.1,
    n_steps: int = 10,
) -> tuple[AugmentedState, bool, float]:
    """One Hamiltonian transition over (log kappa, log theta).

    Targets the Gaussian likelihood of the current function values under
    the conditional prior plus the log-normal hyperparameter priors; the
    function values themselves are left untouched. Non-finite energies or
    gradients reject the transition. Returns the new state, whether the
    proposal was accepted, and the acceptance probability (used by step
    size adaptation).
    """
    pts = ctx.points(state)
    g = state.g_values
    rho = np.log(np.array([state.kappa, state.theta]))

    def energy_and_grad(r):
        return _hyper_energy(ctx.prior, pts, g, r, priors)

    try:
        start = energy_and_grad(rho)
    except NumericalError:
        return state.copy(), False, 0.0
    p0 = rng.standard_normal(2)
    h0 = start[0] + 0.5 * float(p0 @ p0)
    rho_new, p_new, u_new, ok = leapfrog(energy_and_grad, rho, p0, step_size, n_steps, start)
    new = state.copy()
    if not ok:
        return new, False, 0.0
    h_new = u_new + 0.5 * float(p_new @ p_new)
    accept_prob = float(min(1.0, np.exp(min(h0 - h_new, 0.0))))
    if np.log(rng.random()) < h0 - h_new:
        if not np.array_equal(rho_new, rho):  # avoid log/exp round-trip drift
            new.kappa, new.theta = float(np.exp(rho_new[0])), float(np.exp(rho_new[1]))
        return new, True, accept_prob
    return new, False, accept_prob


def lambda_posterior(
    state: AugmentedState, region: Region, priors: PriorConfig, ladder: RateLadder
) -> tuple[float, float]:
    """Gamma shape and rate of the bound's conditional posterior.

    The shape uses the level-weighted point total, with the observed
    points' notional levels assigned from their current sigmoids; with a
    one-level ladder the total is exactly K + M.
    """
    data_levels = assign_rate(expit(state.g_data), ladder)
    total = estimate_total(data_levels, state.rate_idx, ladder)
    return priors.lambda_alpha + total, priors.lambda_beta + region.volume


def gibbs_lambda_star(
    state: AugmentedState,
    region: Region,
    priors: PriorConfig,
    ladder: RateLadder,
    rng: np.random.Generator,
) -> AugmentedState:
    """Conjugate Gamma resample of the intensity bound."""
    state = state.copy()
    shape, rate = lambda_posterior(state, region, priors, ladder)
    state.lambda_star = float(rng.gamma(shape, 1.0 / rate))
    return state
