"""Single-process Cox MCMC kernels.

The augmented state of one observed process holds the thinned points, the
level index of each thinned point, the function values at all observed and
thinned locations, the intensity bound and the process's kernel
hyperparameters. Five transition kernels act on it: birth/death of thinned
points, relocation moves, an elliptical slice update of the function
values, a Hamiltonian update of the hyperparameters, and a conjugate Gamma
resample of the bound. Each kernel leaves the augmented posterior
invariant on its own, so they can be composed in any order.

No array of a state is written in place: whatever changes one of
``thinned``, ``rate_idx`` or ``g_values`` binds a new array to the
attribute. So each kernel returns a new state that shares the arrays it
left unchanged with the state it was given, and no array with the
workspace below.

The conditional prior over a process's current points (projection ``W``,
mean ``m``, residual covariance ``C``) lives in one ``_Workspace`` per
process, owned by its ``GpContext`` for the whole chain, together with
the Cholesky factor of ``C``; nothing else forms or factors it. The
function slice update, the engine's initial draw, the latent posterior
(``convolution.latent_posterior``) and prediction read it. ``_Workspace``
says when it is rebuilt and when its factor is.

Birth/death and move run thousands of times a sweep on arrays of tens of
entries, so their cost is mostly numpy calls and copies. The workspace
keeps the points, their squared norms, ``W``, ``m``, the function values
and ``C`` in capacity buffers, of which its arrays are views: an accepted
birth writes one entry past the end, a death shifts the entries after it
down one place, a move writes its entry, all in place, so no event copies
``W`` or ``C`` (a death moves ``C``'s trailing rows in one forward copy of
its flat buffer, see ``_Workspace``). While either kernel runs, the
thinned points and their function values live only in the workspace and
the levels in a list; the kernel writes its state once, at the end, as
copies. A proposal's
conditional makes one call to the prior (``site``) for the site's
projection, prior moments and covariance row with the points, reading the
squared norms the workspace keeps and the scalars of ``kappa`` and
``theta`` it forms once, and returns the site with its row and solve,
which the kernel passes on to ``append`` or ``update_point``. ``C`` stays
exactly symmetric and each row of ``W`` contiguous: ``W`` is a row-major
(Q*J, capacity) buffer read through its first n columns, on which the
products with ``W`` round as on a fresh projection, so every draw is the
one a new array per event would give.

The per-event vector products go through ``ndarray.dot``, which agrees
bit for bit with ``@`` on these shapes (in each of 23000 random trials,
OpenBLAS, one thread).

The intensity is the bound times the sigmoid of the function, and this
module owns the sigmoid, in two forms. ``sigmoid``, of one float, is
``1 / (1 + exp(-x))`` as libm rounds it, bit for bit, because the birth,
death and move acceptances read it once per proposal and a last-bit
change could flip a decision. ``sigmoid_array`` is the same formula
through numpy's ``exp``, which may round differently in the last bit; the
likelihood, the level checks and the predicted intensities read it, and
its last bits moved no draw of the benchmark's reference chains. Neither
form loads scipy's special functions, whose import took 3.6 MB of a run's
peak memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

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
    at the thinned points in the same order as ``thinned``. The arrays are
    never written in place (see the module docstring), so states may share
    them.
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

    def validate(self, ladder: RateLadder) -> None:
        if self.rate_idx.size != self.n_thinned:
            raise ValidationError("one rate index per thinned point required")
        if self.n_data < 0:
            raise ValidationError("g_values inconsistent with thinned/data counts")
        if self.lambda_star <= 0 or self.kappa <= 0 or self.theta <= 0:
            raise ValidationError("lambda_star, kappa and theta must be positive")
        if self.n_thinned:
            levels = ladder.as_array()[self.rate_idx]
            if np.any(sigmoid_array(self.g_thinned) > levels):
                raise ValidationError("a thinned point's sigmoid exceeds its level")


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


def sigmoid(x: float) -> float:
    """The sigmoid ``1 / (1 + exp(-x))`` of one float, as libm rounds it:
    scipy's ``expit`` bit for bit, since the acceptances read it (see the
    module docstring). 0.0 where ``exp(-x)`` overflows, as ``expit`` gives.
    """
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


@np.errstate(over="ignore")  # a decorator: one errstate built at import, not per call
def sigmoid_array(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The sigmoid of every entry of the float array ``x``, into ``out`` if
    given (``out`` may be ``x``).

    The same formula as ``sigmoid`` through numpy's ``exp``, which may
    round differently from libm's: an entry may differ from ``sigmoid``
    (and from scipy's ``expit``) in its last bit. ``exp(-x)`` overflows to
    inf without a warning, so an entry below about -709.78 is exactly 0.0,
    one above about 37 exactly 1.0, and NaN stays NaN.
    """
    e = np.negative(x, out=out)
    np.exp(e, out=e)
    e += 1.0
    return np.reciprocal(e, out=e)


def thinned_levels(rate_idx, ladder: RateLadder) -> tuple:
    """What ``point_loglik`` reads of the thinned points' level indices and
    the ladder: their levels, the logs of those and which are the top
    level 1, or ``None`` for the last if all are (as on a one-level
    ladder). A slice move forms them once for all its shrinks."""
    levels = ladder.as_array()[np.asarray(rate_idx, dtype=int)]
    top = levels == 1.0
    return levels, np.log(levels), None if top.all() else top


def point_loglik(g_values, n_data: int, rate_idx, ladder: RateLadder, levels=None) -> float:
    """Log likelihood of the point pattern in the function values.

    Observed points contribute log sigmoid terms; thinned points contribute
    the log probability of being thinned at their assigned level, which
    acts as a barrier keeping each sigmoid below its level. ``levels`` is
    ``thinned_levels(rate_idx, ladder)``, if the caller holds it. With
    every thinned point at level 1, each margin is ``sigmoid(-g)`` and its
    log less ``log 1 = 0`` is its log, so neither ``sigmoid(g)`` nor the
    subtraction is formed.
    """
    g = np.asarray(g_values, dtype=float)
    gd = g[:n_data]
    gt = g[n_data:]
    ll = -float(np.logaddexp(0.0, -gd).sum())
    if gt.size:
        levels, log_levels, top = thinned_levels(rate_idx, ladder) if levels is None else levels
        # level 1 margins are sigmoid(-g), not 1 - sigmoid(g), which keeps
        # their digits for large g; sigmoid(-g) is exactly 0 for g above
        # about 709.78, and log 0 is no likelihood at all. Below level 1 a
        # margin is level - sigmoid(g): one sigmoid call serves both kinds
        if top is None:
            margins = sigmoid_array(-gt)
        else:
            sig = sigmoid_array(np.where(top, -gt, gt))
            margins = np.where(top, sig, levels - sig)
        if (margins <= 0.0).any():
            return -np.inf
        logs = np.log(margins)
        if top is not None:
            logs -= log_levels
        ll += float(logs.sum())
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


# Fewer points than this are held in buffers of exactly their number: for
# a W of one to three columns, BLAS rounds ``w^T W`` and ``W^T beta``
# differently when the buffer's row stride exceeds the column count, so a
# view of a larger buffer would move draws. From four columns on they
# rounded alike in each of 8120 random trials (Q*J from 1 to 3200, 4 to 88
# columns, spare capacity from 1 to 296 columns, one BLAS thread).
_EXACT_BELOW = 4


def _moved(old: np.ndarray, shape, block) -> np.ndarray:
    """A new C-ordered buffer of ``shape`` holding ``old[block]`` at ``block``."""
    new = np.empty(shape)
    new[block] = old[block]
    return new


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
    Cholesky factor; supports appends, removals and moves of points in
    place, drop-one conditionals, prior draws (``prior_draw``) and
    prediction weights (``weights``).

    Invariant: ``W == prior.project(pts, theta)``, each point's
    cross-covariance with the latent grid whitened by the latent factors
    (to rounding: the column of a proposed point is ``site``'s projection
    of that point alone, which rounds otherwise than a whole set's),
    ``zz == (pts * pts).sum(1)``, the points' squared norms, and ``m``,
    ``C`` are ``prior.mean_cov(pts, kappa, theta, W)``: the prior mean and
    the residual covariance, its diagonal floored as the prior's ``site``
    floors a new site's variance. ``C`` is exactly symmetric. ``append``,
    ``remove`` and ``update_point`` keep ``W``, ``zz``, ``m``, ``C``,
    ``g`` and (when formed) the factor of ``C`` in step with ``pts``.

    Buffers: ``pts``, ``zz``, ``W``, ``m``, ``g`` and ``C`` are views of
    the first ``n`` entries of capacity buffers, ``W`` of a C-ordered
    (Q*J, cap) buffer read through ``W[:, :n]`` and ``C`` of a (cap, cap)
    one read through ``C[:n, :n]``. ``append`` writes one row of each (one
    column of ``W``, a row and a column of ``C``) past the end, ``remove``
    shifts the trailing entries down one place in place, keeping the
    points' order, and ``update_point`` writes its row: none copies what it
    keeps. ``C``'s trailing rows move up as one forward copy through the
    buffer's flat view, which numpy makes without a temporary; the
    trailing columns of ``C`` and of ``W`` move in a 2-D shift, which numpy
    makes through a temporary copy of the source (a flat shift would carry
    each row's first entries into the row before). A full buffer moves to
    one of twice the size. The build allocates exact sizes, so a workspace that is never appended to (the
    prediction's) holds no spare capacity, and sets of fewer than
    ``_EXACT_BELOW`` points are held at exact size too. ``W`` holds the points as columns of a
    row-major buffer, so each of its rows stays contiguous and ``w^T W``
    and ``W^T beta`` reach the BLAS kernel a fresh ``project`` reaches, with
    the same rounding: draws through a kept ``W`` are byte-identical to
    draws through a fresh one. A buffer with the points as rows would give
    an F-ordered ``W``, which rounds these products differently.

    A new site goes through ``conditional``, which makes one call to the
    prior's ``site``: that projects only the site (O(J) per latent
    function) and forms its covariance row with the points from ``W`` and
    ``zz``, with no squared norm of a kept point recomputed; the scalars it
    needs of ``kappa``, ``theta`` and the latent variances are formed once
    per workspace, on its first conditional (``site_scalars``). The
    conditional returns it all as a ``_Proposal``: the site, its squared
    norm, projection, prior mean and variance, its covariance ``ks`` with
    the points and, for a full conditional, ``L^{-1} ks``. The kernels
    pass the proposal to ``append`` or ``update_point``, which read the new
    row of ``C`` and the new row of the factor from it; nothing about a
    site is kept between calls. Priors without a latent grid project to an
    empty (0, n) ``W``.

    Lifetime: one workspace per process lives for the whole chain, owned
    by the process's ``GpContext``. ``W`` and ``C`` depend only on the
    latent factors, ``kappa``, ``theta`` and the points, ``m`` also on the
    latent values. So the workspace survives a new prior at the same
    factors, which refreshes ``m`` only (``refresh``), and is rebuilt when
    ``kappa`` or ``theta`` changes (a Hamiltonian accept), when a factor
    changes (a latent-variance accept) or when the point set no longer
    matches (``holds_for``). The buffers live as long as the workspace.
    The factor ``L`` of ``C`` lives as long as ``C``: an ``append`` extends
    it where it can, into a fresh Fortran-ordered array (``dtrtrs`` would
    copy a strided view of a larger buffer on every solve), and
    ``remove``, ``update_point`` and an ``append`` that cannot extend it
    drop it, and the next use factors ``C`` afresh. So the factor the
    function slice update draws through also serves the latent posterior
    and the next sweep's birth/death. ``L^{-1} (g - m)`` lives as long as
    ``g``.
    """

    def __init__(self, ctx: GpContext, state: AugmentedState):
        self.prior = ctx.prior
        self.kappa = state.kappa
        self.theta = state.theta
        # the build's arrays are the buffers, at exactly the points' number
        self._pts = ctx.points(state)
        self._zz = (self._pts * self._pts).sum(1)
        self._W = self.prior.project(self._pts, self.theta)
        self._m, C = self.prior.mean_cov(self._pts, self.kappa, self.theta, self._W)
        self._C = np.ascontiguousarray(C)  # ``remove`` shifts its rows through its flat view
        self._g = state.g_values.copy()
        self.n = self._zz.size
        self._resize(self.n)
        self._site = None  # formed on the first conditional: prediction makes none
        self.degenerate = self.C.size == 0 or not self.C.any()
        self._L = None
        self._v = None
        self._jitter = 0.0

    def _resize(self, n: int) -> None:
        """Make the views hold ``n`` points, moving the buffers first if
        they are too small (to twice ``n``) or ``n`` is below
        ``_EXACT_BELOW`` (to exactly ``n``)."""
        cap = self._zz.size
        if n > cap or (n < _EXACT_BELOW and n != cap):
            new_cap = n if n < _EXACT_BELOW else 2 * n
            head = slice(min(n, self.n))
            self._pts = _moved(self._pts, (new_cap, self._pts.shape[1]), head)
            self._zz = _moved(self._zz, new_cap, head)
            self._m = _moved(self._m, new_cap, head)
            self._g = _moved(self._g, new_cap, head)
            self._W = _moved(self._W, (self._W.shape[0], new_cap), (slice(None), head))
            self._C = _moved(self._C, (new_cap, new_cap), (head, head))
        self.n = n
        self.pts = self._pts[:n]
        self.zz = self._zz[:n]
        self.W = self._W[:, :n]
        self.m = self._m[:n]
        self.g = self._g[:n]
        self.C = self._C[:n, :n]

    def holds_for(self, prior, state: AugmentedState) -> bool:
        """Whether ``W`` and ``C`` hold for ``prior`` and ``state``'s points
        (the observed ones are the context's and never change)."""
        return (
            state.kappa == self.kappa
            and state.theta == self.theta
            and _same_factors(prior, self.prior)
            and self.n == state.g_values.size
            and np.array_equal(self.pts[state.n_data :], state.thinned)
        )

    def refresh(self, prior, state: AugmentedState) -> None:
        """Take ``state``'s function values, dropping ``L^{-1} (g - m)``; a
        new ``prior`` at the same factors also refreshes the mean. The
        factor of ``C`` and the site scalars stay."""
        if prior is not self.prior:
            self.prior = prior
            self._m[: self.n] = prior.mean(self.pts, self.W, self.kappa)
        self._g[: self.n] = state.g_values
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
        """The function at the site ``x``, a float array of ``dim`` entries,
        given the current values, optionally leaving point ``exclude`` out:
        its ``mean`` and ``var``, and the site for ``append`` or, with
        ``exclude``, ``update_point``."""
        x = x.reshape(1, -1)
        xx = sq_norm(x)
        if self._site is None:
            self._site = self.prior.site_scalars(self.kappa, self.theta)
        w_x, mstar, cstar, ks = self.prior.site(x, xx, self.pts, self.zz, self.W, self._site)
        n = ks.size
        lks = None
        if n == 0:  # no points: L^{-1} of the empty row is itself
            lks, mu, var = ks, mstar, cstar
        elif self.degenerate or (exclude is not None and n == 1):
            mu, var = mstar, cstar
        elif exclude is None:
            L, v = self._factor()
            lks = tri_solve(L, ks)
            mu, var = mstar + float(lks.dot(v)), cstar - float(lks.dot(lks))
        else:
            Ls, _ = cholesky_with_jitter(_drop(self.C, exclude), symmetric=True)
            w = tri_solve(Ls, _without(ks, exclude))
            vs = tri_solve(Ls, _without(self.g - self.m, exclude))
            mu, var = mstar + float(w.dot(vs)), cstar - float(w.dot(w))
        return _Proposal(x, xx, w_x, mstar, cstar, ks, lks, mu, max(var, 0.0))

    def append(self, p: _Proposal, g_value: float) -> None:
        """Add the site of the proposal ``p`` with function value ``g_value``."""
        n = self.n
        self._resize(n + 1)
        self._pts[n] = p.x[0]
        self._zz[n] = p.xx
        self._W[:, n] = p.w[:, 0]
        self._m[n] = p.prior_mean
        self._g[n] = g_value
        C = self._C
        C[n, :n] = p.ks
        C[:n, n] = p.ks
        C[n, n] = p.prior_var
        if n == 0:  # the first point decides whether the prior has any spread
            self.degenerate = not self.C.any()
        if self.degenerate:
            return
        if self._L is not None:
            w = p.lks
            d2 = p.prior_var + self._jitter - float(w.dot(w))
            if d2 > 1e-12 * max(p.prior_var, 1e-12):
                d = math.sqrt(d2)  # as numpy's square root: both round it correctly
                L_new = np.zeros((n + 1, n + 1), order="F")
                L_new[:n, :n] = self._L
                L_new[n, :n] = w
                L_new[n, n] = d
                self._L = L_new
                if self._v is not None:
                    self._v = np.concatenate(
                        (self._v, ((g_value - p.prior_mean - float(w.dot(self._v))) / d,))
                    )
                return
        self._L = self._v = None

    def remove(self, i: int) -> None:
        """Drop point ``i``: the points after it move down one place, in place
        (see the class docstring for how ``C`` and ``W`` move)."""
        n = self.n
        for buf in (self._pts, self._zz, self._m, self._g):
            buf[i : n - 1] = buf[i + 1 : n]
        # a 2-D shift: a shift of the flat buffer would carry each row's
        # first entries into the row before
        self._W[:, i : n - 1] = self._W[:, i + 1 : n]
        C = self._C
        # rows i+1 .. n-1 move up one row as one forward 1-D copy through the
        # flat view of the C-ordered buffer, which numpy makes in place
        # (junk past column n moves with them); the columns after i move
        # left in a 2-D shift, as W's do
        cap = C.shape[1]
        flat = C.reshape(-1)
        flat[i * cap : (n - 2) * cap + n] = flat[(i + 1) * cap : (n - 1) * cap + n]
        C[: n - 1, i : n - 1] = C[: n - 1, i + 1 : n]
        self._resize(n - 1)
        self._L = self._v = None

    def update_point(self, i: int, p: _Proposal, g_value: float) -> None:
        """Move point ``i`` to the site of the proposal ``p``, made with
        ``exclude=i``, with function value ``g_value``."""
        n = self.n
        self._pts[i] = p.x[0]
        self._zz[i] = p.xx
        self._W[:, i] = p.w[:, 0]
        self._m[i] = p.prior_mean
        self._g[i] = g_value
        C = self._C
        C[i, :n] = p.ks
        C[:n, i] = p.ks
        C[i, i] = p.prior_var
        self._L = self._v = None

    def prior_draw(self, rng: np.random.Generator) -> np.ndarray:
        """A draw ``L z`` from the zero-mean prior, or zeros, drawing no random
        numbers, if ``C`` has no spread."""
        if self.degenerate:
            return np.zeros(self.n)
        return self.L @ rng.standard_normal(self.n)

    def weights(self) -> np.ndarray:
        """``C^{-1} (g - m)``, which extends the conditional mean to new sites."""
        return chol_solve(self.L, self.g - self.m)


def _state_of(ws: _Workspace, state: AugmentedState, rate_idx: list) -> AugmentedState:
    """``state`` with the workspace's thinned points and function values and
    the level indices ``rate_idx``, each copied: the new state shares no
    memory with the workspace."""
    return AugmentedState(
        ws.pts[state.n_data :].copy(),
        np.array(rate_idx, dtype=int),
        ws.g.copy(),
        state.lambda_star,
        state.kappa,
        state.theta,
    )


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

    While the kernel runs the thinned points and their function values live
    only in ``ctx``'s workspace, which an accepted insertion or deletion
    updates in place, and the level indices in a list; the returned state
    copies them once, at the end.
    """
    ws = ctx.workspace(state)
    if attempts is None:
        attempts = ctx.data.shape[0] + 1
    n_data = state.n_data
    rate_idx = state.rate_idx.tolist()
    levels = ladder.levels
    vol = region.volume
    lam = state.lambda_star
    for _ in range(attempts):
        M = len(rate_idx)
        if rng.random() < b:
            x = region.uniform(1, rng)
            p = ws.conditional(x)
            g_star = p.mean + math.sqrt(p.var) * rng.standard_normal()
            sig = sigmoid(g_star)
            r = ladder.assign(sig)
            a = accept_insert(M, vol, lam, levels[r], sig, b)
            if rng.random() < a:
                ws.append(p, g_star)
                rate_idx.append(r)
        else:
            if M == 0:
                continue
            i = int(rng.integers(M))
            sig = sigmoid(ws.g[n_data + i])
            a = accept_delete(M, vol, lam, levels[rate_idx[i]], sig, b)
            if rng.random() < a:
                ws.remove(n_data + i)
                del rate_idx[i]
    return _state_of(ws, state, rate_idx)


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
    assigned level. As in ``birth_death_step``, the points and values live
    in the workspace, which an accepted move updates in place, until the
    state is written at the end.
    """
    M = state.n_thinned
    if M == 0:
        return replace(state)
    if scale is None:
        scale = region.axis_lengths / 10.0
    ws = ctx.workspace(state)
    n_data = state.n_data
    rate_idx = state.rate_idx.tolist()
    levels = ladder.levels
    shape = (1, region.dim)
    for i in range(M):
        j = n_data + i
        x_new = ws.pts[j : j + 1] + scale * rng.standard_normal(shape)
        if not region.contains_point(x_new):
            continue
        p = ws.conditional(x_new, exclude=j)
        g_new = p.mean + math.sqrt(p.var) * rng.standard_normal()
        sig_new = sigmoid(g_new)
        r_new = ladder.assign(sig_new)
        sig_old = sigmoid(ws.g[j])
        a = accept_move(levels[rate_idx[i]], sig_old, levels[r_new], sig_new)
        if rng.random() < a:
            ws.update_point(j, p, g_new)
            rate_idx[i] = r_new
    return _state_of(ws, state, rate_idx)


# Bracket shrinks an elliptical slice transition makes before it gives up.
MAX_SHRINK = 256


def elliptical_slice(
    current: np.ndarray,
    mean,
    loglik,
    rng: np.random.Generator,
    nu: np.ndarray,
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
    for _ in range(MAX_SHRINK):
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
        return replace(state)
    ws = ctx.workspace(state)
    nu = ws.prior_draw(rng)
    levels = thinned_levels(state.rate_idx, ladder)

    def loglik(g):
        return point_loglik(g, state.n_data, state.rate_idx, ladder, levels)

    return replace(state, g_values=elliptical_slice(state.g_values, ws.m, loglik, rng, nu))


def _hyper_energy(prior, pts, g, rho, priors: PriorConfig):
    """Negative log posterior over (log kappa, log theta) and its gradient.

    Each evaluation forms the prior's moments and derivatives at its
    position (``mean_cov_grads``), one Cholesky factor of ``C``, which is
    exactly symmetric and so factored as it is, and its inverse. The trace
    term ``tr(C^{-1} dC_i)`` is an elementwise sum, from the one inverse.
    The projection is formed afresh even at the state's ``theta``: the
    workspace's ``W`` holds each proposed site's column as ``site``
    projected that site alone, which rounds differently from a projection
    of the whole set.
    """
    r0, r1 = rho.tolist()
    if not (abs(r0) <= 30.0 and abs(r1) <= 30.0):  # also false for a NaN
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
    L, _ = cholesky_with_jitter(C, symmetric=True)  # C is exactly symmetric
    r = g - m
    w = tri_solve(L, r)
    alpha = tri_solve(L, w, trans="T")
    nlp += 0.5 * float(w @ w) + float(np.log(np.diag(L)).sum()) + 0.5 * n * np.log(2.0 * np.pi)
    Cinv = chol_inverse(L)
    for i in range(2):
        dloglik = (
            float(alpha @ dm[i])
            + 0.5 * float(alpha @ dC[i] @ alpha)
            - 0.5 * float((Cinv * dC[i].T).sum())
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
        return replace(state), False, 0.0
    p0 = rng.standard_normal(2)
    h0 = start[0] + 0.5 * float(p0 @ p0)
    rho_new, p_new, u_new, ok = leapfrog(energy_and_grad, rho, p0, step_size, n_steps, start)
    new = replace(state)
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
    data_levels = assign_rate(sigmoid_array(state.g_data), ladder)
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
    shape, rate = lambda_posterior(state, region, priors, ladder)
    return replace(state, lambda_star=float(rng.gamma(shape, 1.0 / rate)))
