"""Reference implementations the tests check the library against.

Each is the plain textbook form of something the library computes in a
faster or more structured way: single-pair kernel densities and
covariances, a Gaussian given by its mean and covariance with dense
conditioning, log densities and draws, the Poisson log likelihood of one
intensity sample, a prior that pins the function to a known surface, and
two test inputs: a halving rate ladder and an intensity off the model's
basis. The last group keeps the earlier formulas of primitives the
kernels call thousands of times a sweep, and of the Hamiltonian energy,
which the library now evaluates with fewer numpy calls or copies and
must match bit for bit, and the prediction loop as it once was: a
sampler's workspace per draw and process, whose weights extend to one
target at a time. ``latent_prior`` builds a coupled prior from a grid,
its values and their variances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack, solve_triangular
from scipy.special import expit

from depcox.convolution import MARGINAL_FLOOR, ConvolutionPrior, LatentFactor, SiteScalars
from depcox.engine import _sample_priors
from depcox.errors import NumericalError, ValidationError
from depcox.gaussian import (
    JITTER_SCALE,
    MAX_JITTER_DOUBLINGS,
    ProductGrid,
    _as_points,
    _khatri_rao,
    axis_gram,
    chol_inverse,
    chol_solve,
    cholesky,
    gram_matvec,
    cholesky_with_jitter,
    tri_solve,
)
from depcox.sgcp import AugmentedState, EventSet, GpContext, _Workspace, sigmoid_array
from depcox.thinning import SLACK, RateLadder


def latent_prior(grid, values, phis) -> ConvolutionPrior:
    """The ``ConvolutionPrior`` of the latent grid ``values`` (Q, J) with one
    ``LatentFactor`` per variance in ``phis``, on ``grid``: a
    ``ProductGrid``, or the (J, 1) nodes of a 1-D grid in their given order."""
    if not isinstance(grid, ProductGrid):
        assert grid.shape[1] == 1, "only a 1-D grid may be given by its nodes"
        grid = ProductGrid([grid[:, 0]])
    return ConvolutionPrior(values, [LatentFactor(grid, phi) for phi in np.atleast_1d(phis)])


def gauss_density(x, z, variance: float) -> float:
    """Isotropic Gaussian density of point ``x`` around centre ``z``.

    Product of per-axis univariate normal densities sharing one variance:
    ``(2*pi*v)**(-d/2) * exp(-|x - z|**2 / (2*v))``.
    """
    if variance <= 0:
        raise ValidationError(f"variance must be positive, got {variance}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if x.shape != z.shape:
        raise ValidationError(f"point dimensions disagree: {x.shape} vs {z.shape}")
    sq = float(np.sum((x - z) ** 2))
    d = x.size
    return float((2.0 * np.pi * variance) ** (-0.5 * d) * np.exp(-0.5 * sq / variance))


def poisson_loglik(at_events, on_grid, weights) -> float:
    """The discretized inhomogeneous-Poisson log likelihood of one
    intensity sample, term by term: the sum of the logs of the intensities
    at the events, less the quadrature sum (``weights``) of the intensity
    at the nodes; -inf if an event has intensity zero."""
    at_events, on_grid = np.asarray(at_events, dtype=float), np.asarray(on_grid, dtype=float)
    assert on_grid.shape == np.shape(weights)
    if np.any(at_events == 0.0):
        return -np.inf
    return -float(np.dot(weights, on_grid)) + float(sum(np.log(at_events)))


@dataclass
class Mvn:
    """A multivariate normal given by its mean vector and covariance matrix."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if self.cov.shape != (self.mean.size, self.mean.size):
            raise ValidationError(
                f"mean of size {self.mean.size} does not match covariance {self.cov.shape}"
            )

    @property
    def dim(self) -> int:
        return self.mean.size


def conditional_mvn(joint: Mvn, observed_indices, observed_values) -> Mvn:
    """Condition a joint Gaussian on exact observations at some indices.

    Returns the Gaussian over the remaining indices, in their original
    order. Conditioning on nothing returns the joint unchanged.
    """
    obs = np.asarray(observed_indices, dtype=int)
    if obs.size == 0:
        return Mvn(joint.mean.copy(), joint.cov.copy())
    if len(np.unique(obs)) != obs.size:
        raise ValidationError("observed indices must be distinct")
    if obs.min() < 0 or obs.max() >= joint.dim:
        raise ValidationError("observed index out of range")
    values = np.asarray(observed_values, dtype=float)
    if values.size != obs.size:
        raise ValidationError("observed values do not match indices")

    free = np.setdiff1d(np.arange(joint.dim), obs, assume_unique=False)
    S_oo = joint.cov[np.ix_(obs, obs)]
    S_fo = joint.cov[np.ix_(free, obs)]
    S_ff = joint.cov[np.ix_(free, free)]
    L, _ = cholesky_with_jitter(S_oo)
    u = solve_triangular(L, values - joint.mean[obs], lower=True)
    V = solve_triangular(L, S_fo.T, lower=True)
    mean_c = joint.mean[free] + V.T @ u
    cov_c = S_ff - V.T @ V
    return Mvn(mean_c, 0.5 * (cov_c + cov_c.T))


def mvn_logpdf(x, dist: Mvn) -> float:
    """Exact log density of ``dist`` at ``x`` via Cholesky."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size != dist.dim:
        raise ValidationError(f"x of size {x.size} does not match dimension {dist.dim}")
    if dist.dim == 0:
        return 0.0
    L, _ = cholesky_with_jitter(dist.cov)
    w = solve_triangular(L, x - dist.mean, lower=True)
    return float(
        -0.5 * dist.dim * np.log(2.0 * np.pi)
        - np.sum(np.log(np.diag(L)))
        - 0.5 * np.dot(w, w)
    )


def precision_draw_dense(P, b, z) -> np.ndarray:
    """A draw from ``N(P^{-1} b, P^{-1})`` through the covariance: the
    inverse of ``P``, its Cholesky factor without jitter and ``z``."""
    cov = np.linalg.inv(P)
    return cov @ b + np.linalg.cholesky(0.5 * (cov + cov.T)) @ z


def reversed_factor_cov(factor) -> np.ndarray:
    """The covariance ``P^{-1}`` whose precision-form factor (see
    ``gaussian.from_precision``) is ``factor``, formed densely."""
    return np.linalg.inv(factor @ factor.T)[::-1, ::-1]


def cross_cov(x, z, kappa: float, theta: float, phi: float) -> float:
    """Covariance between a process value at ``x`` and a latent value at ``z``."""
    if theta <= 0 or phi <= 0:
        raise ValidationError("theta and phi must be positive")
    return kappa * gauss_density(x, z, theta + phi)


def output_cov(x, x2, d: int, d2: int, kappas, thetas, phis) -> float:
    """Covariance between the values of processes ``d`` at ``x`` and ``d2``
    at ``x2`` (latent functions summed out); process ``d``'s smoothing
    kernel has scale ``kappas[d]`` and variance ``thetas[d]``."""
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    total = 0.0
    for phi in phis:
        total += kappas[d] * kappas[d2] * gauss_density(x, x2, thetas[d] + thetas[d2] + phi)
    return total


class FixedFunctionPrior:
    """Degenerate prior pinning the function to a known surface.

    Holds a process's function at a known value in kernel tests:
    conditional draws return that value with zero variance.
    """

    def __init__(self, func, dim: int = 1):
        self.func = func
        self.dim = dim

    def project(self, X, theta: float) -> np.ndarray:
        return np.zeros((0, np.asarray(X).shape[0]))

    def mean(self, X, W, kappa: float) -> np.ndarray:
        return np.asarray(self.func(np.asarray(X, dtype=float)), dtype=float)

    def cov(self, A, WA, B, WB, kappa: float, theta: float) -> np.ndarray:
        return np.zeros((np.asarray(A).shape[0], np.asarray(B).shape[0]))

    def mean_cov(self, X, kappa: float, theta: float, W):
        return self.mean(X, W, kappa), self.cov(X, W, X, W, kappa, theta)

    def site_scalars(self, kappa: float, theta: float) -> SiteScalars:
        return SiteScalars(kappa, theta, kappa**2, (), [], 0.0, 0.0)

    def site(self, x, xx: float, pts, zz, W, s: SiteScalars):
        """Empty projection, the known value, zero variance and a zero
        covariance row at one new site."""
        w = self.project(x, s.theta)
        return w, float(self.mean(x, w, s.kappa)[0]), 0.0, np.zeros(np.asarray(pts).shape[0])


def append_thinned(state, x, g_value: float, rate: int) -> None:
    """Add one thinned point with its function value and level index to
    ``state``, as ``AugmentedState.append_thinned`` did before the kernels
    kept the thinned set in the workspace."""
    state.thinned = np.concatenate((state.thinned, np.reshape(x, (1, -1))))
    state.rate_idx = np.concatenate((state.rate_idx, (rate,)))
    state.g_values = np.concatenate((state.g_values, (g_value,)))


def default_ladder(n_levels: int) -> RateLadder:
    """Halving ladder with ``n_levels`` entries, e.g. 3 -> (1/4, 1/2, 1)."""
    if n_levels < 1:
        raise ValidationError("n_levels must be at least 1")
    return RateLadder(tuple(2.0 ** -(n_levels - 1 - i) for i in range(n_levels)))


def bump_intensity(
    region,
    rng: np.random.Generator,
    lambda_star: float = 60.0,
    n_bumps: int = 4,
    width_range: tuple[float, float] = (0.02, 0.08),
):
    """A mismatched test intensity: sigmoid of off-grid random bumps.

    Not expressible on the model's basis; used for robustness checks.
    Returns (intensity callable, lambda_star).
    """
    centers = region.uniform(n_bumps, rng)
    lo, hi = width_range
    widths = np.exp(rng.uniform(np.log(lo), np.log(hi), size=n_bumps))  # log-uniform
    widths *= float(np.mean(region.axis_lengths))
    heights = rng.uniform(-3.0, 3.0, size=n_bumps)

    def intensity(X):
        X = _as_points(X)
        g = np.full(X.shape[0], -1.0)
        for c, w, h in zip(centers, widths, heights):
            g = g + h * np.exp(-0.5 * np.sum((X - c) ** 2, axis=1) / w**2)
        return lambda_star * expit(g)

    return intensity, lambda_star


def cholesky_with_jitter_copies(cov) -> tuple[np.ndarray, float]:
    """``cholesky_with_jitter`` as it was first written: a symmetrised copy,
    a shifted copy per attempt and LAPACK's own Fortran-order copy."""
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0]
    sym = cov + cov.T
    sym *= 0.5
    mean_diag = float(np.trace(sym)) / n
    jitter = JITTER_SCALE * mean_diag if mean_diag > 0 else JITTER_SCALE
    for _ in range(MAX_JITTER_DOUBLINGS + 1):
        shifted = sym.copy()
        shifted.flat[:: n + 1] += jitter
        try:
            return cholesky(shifted), jitter
        except np.linalg.LinAlgError:
            jitter *= 2.0
    raise NumericalError("not positive definite")


def assign_rate_searchsorted(sigmoid_value, ladder) -> int:
    """A scalar's level index by ``searchsorted`` on the slack-scaled
    levels, as ``thinning.assign_rate`` once computed it for every call."""
    scaled = ladder.as_array() * SLACK
    idx = np.searchsorted(scaled, sigmoid_value, side="left")
    return int(np.minimum(idx, ladder.n_levels - 1))


def contains_point_numpy(region, x) -> bool:
    """``Region.contains_point`` with numpy comparisons against the arrays."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return bool(np.all(x >= region.lower) and np.all(x <= region.upper))


def chol_inverse_tril(L) -> np.ndarray:
    """``gaussian.chol_inverse`` as it once mirrored ``dpotri``'s lower
    triangle, through two ``np.tril`` copies."""
    inv, _ = lapack.dpotri(L, lower=1)
    inv = np.tril(inv)
    inv += np.tril(inv, -1).T
    return inv


def _marginal_var_numpy(prior, kappa: float, theta: float) -> float:
    """``ConvolutionPrior._marginal_var`` as it once summed the numpy
    scalars of the latent variances."""
    return kappa**2 * sum(
        (2.0 * np.pi * (2.0 * theta + phi)) ** (-0.5 * prior.dim) for phi in prior.phis
    )


def site_and_row(prior, x, pts, W, kappa: float, theta: float):
    """A new site's projection, prior mean, floored variance and residual
    covariance row with ``pts`` (projection ``W``), as ``prior.site``
    once computed the first three and ``prior.cov`` the row: through
    ``whiten``, ``mean``, ``_marginal_var_numpy`` and ``gauss_gram``; on
    an empty latent grid, as the independent prior once did."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    if prior.grid.size:
        w = np.concatenate([f.whiten(x, theta + f.phi) for f in prior.factors])
        marginal = _marginal_var_numpy(prior, kappa, theta)
        var = marginal - kappa**2 * float(w[:, 0] @ w[:, 0]) + MARGINAL_FLOOR * marginal
        mean = float(prior.mean(x, w, kappa)[0])
    else:  # an empty grid: no projection, zero mean, unfloored marginal
        w, mean = np.zeros((0, 1)), 0.0
        var = kappa**2 * (2.0 * np.pi * (2.0 * theta + prior.factors[0].phi)) ** (-0.5 * prior.dim)
    return w, mean, var, prior.cov(x, w, pts, W, kappa, theta).ravel()


def gauss_gram_broadcast(X, Z, variance: float) -> np.ndarray:
    """``gaussian.gauss_gram`` as it once formed the squared distances, from
    broadcast squared norms less twice the products."""
    X, Z = (np.asarray(A, dtype=float) for A in (X, Z))
    X, Z = (A[:, None] if A.ndim == 1 else A for A in (X, Z))
    sq = (X * X).sum(axis=1)[:, None] + (Z * Z).sum(axis=1)[None, :] - 2.0 * (X @ Z.T)
    np.maximum(sq, 0.0, out=sq)
    sq *= -0.5
    sq /= variance
    np.exp(sq, out=sq)
    sq *= (2.0 * np.pi * variance) ** (-0.5 * X.shape[1])
    return sq


def gauss_gram_dv_broadcast(X, Z, variance: float):
    """``gaussian.gauss_gram_dv`` as it once summed the squared distances,
    over the (n, m, d) array of the differences."""
    X, Z = (np.asarray(A, dtype=float) for A in (X, Z))
    X, Z = (A[:, None] if A.ndim == 1 else A for A in (X, Z))
    sq = np.sum((X[:, None, :] - Z[None, :, :]) ** 2, axis=-1)
    d = X.shape[1]
    G = (2.0 * np.pi * variance) ** (-0.5 * d) * np.exp(-0.5 * sq / variance)
    dG = G * (0.5 * sq / variance**2 - 0.5 * d / variance)
    return G, dG


def floored_diag_indices(prior, C, kappa: float, theta: float) -> np.ndarray:
    """``ConvolutionPrior._floored`` as it once raised the diagonal, through
    ``np.diag_indices_from``, by ``_marginal_var_numpy``."""
    C = 0.5 * (C + C.T)
    floor = MARGINAL_FLOOR * _marginal_var_numpy(prior, kappa, theta)
    if floor > 0 and C.shape[0]:
        C[np.diag_indices_from(C)] += floor
    return C


class CopyingPointSet:
    """The point-set arrays of ``sgcp._Workspace`` (``pts``, ``zz``, ``W``,
    ``m``, ``g`` and ``C``) as it once kept them, each a new array after
    every change: an append concatenated one entry to each and copied
    ``C`` into a larger array, a removal deleted one entry (row and column
    of ``C``) by copying the rest, and a move wrote one row."""

    NAMES = ("pts", "zz", "W", "m", "g", "C")

    def __init__(self, ws):
        for name in self.NAMES:
            setattr(self, name, getattr(ws, name).copy())

    def append(self, p, g_value: float) -> None:
        n = self.g.size
        self.pts = np.concatenate((self.pts, p.x))
        self.zz = np.concatenate((self.zz, (p.xx,)))
        self.W = np.concatenate((self.W, p.w), axis=1)
        self.m = np.concatenate((self.m, (p.prior_mean,)))
        self.g = np.concatenate((self.g, (g_value,)))
        C = np.empty((n + 1, n + 1))
        C[:n, :n] = self.C
        C[n, :n] = p.ks
        C[:n, n] = p.ks
        C[n, n] = p.prior_var
        self.C = C

    def remove(self, i: int) -> None:
        for name in ("pts", "zz", "m", "g"):
            setattr(self, name, np.delete(getattr(self, name), i, axis=0))
        self.W = np.delete(self.W, i, axis=1)
        self.C = np.delete(np.delete(self.C, i, axis=0), i, axis=1)

    def update_point(self, i: int, p, g_value: float) -> None:
        self.pts[i] = p.x[0]
        self.zz[i] = p.xx
        self.W[:, i] = p.w[:, 0]
        self.m[i] = p.prior_mean
        self.g[i] = g_value
        self.C[i, :] = p.ks
        self.C[:, i] = p.ks
        self.C[i, i] = p.prior_var


def axis_gram_dv_again(x, z, variance: float):
    """``gaussian.axis_gram_dv`` as it once formed the derivative: from
    ``axis_gram``, with the squared offsets formed again and every step a
    new array."""
    E = axis_gram(x, z, variance)
    sq = (x[:, None] - z[None, :]) ** 2
    return E, E * (0.5 * sq / variance**2 - 0.5 / variance)


def _whiten_dv_again(factor, X, variance: float):
    """``LatentFactor.whiten_dv`` through ``axis_gram_dv_again``."""
    F, dF = [], []
    for qt, a, x in zip(factor.QT, factor.grid.axes, X.T):
        E, dE = axis_gram_dv_again(a, x, variance)
        F.append(qt @ E)
        dF.append(qt @ dE)
    dW = sum(_khatri_rao(F[:a] + [dF[a]] + F[a + 1 :]) for a in range(len(F)))
    return factor.s_col * _khatri_rao(F), factor.s_col * dW


def mean_cov_grads_stacked(prior, X, kappa: float, theta: float):
    """``mean_cov_grads`` of a ``ConvolutionPrior`` as it once was: sums
    started from zero matrices, ``W^T dW`` formed beside ``dW^T W``, the
    blocks of the latent functions concatenated and the derivatives
    stacked into (2, n) and (2, n, n) arrays, through
    ``axis_gram_dv_again`` and ``gauss_gram_dv_broadcast``; on an empty
    latent grid, as the independent prior once formed them."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if prior.grid.size == 0:
        G, dG = gauss_gram_dv_broadcast(X, X, 2.0 * theta + prior.factors[0].phi)
        C = kappa**2 * G
        dC = np.stack([2.0 * C, kappa**2 * theta * 2.0 * dG])
        return np.zeros(n), C, np.zeros((2, n)), dC
    C = np.zeros((n, n))
    dC_t = np.zeros((n, n))
    Ws, dWs = [], []
    for f, phi in zip(prior.factors, prior.phis):
        Wq, dWq = _whiten_dv_again(f, X, theta + phi)
        G, dG = gauss_gram_dv_broadcast(X, X, 2.0 * theta + phi)
        C += G - Wq.T @ Wq
        dC_t += 2.0 * dG - dWq.T @ Wq - Wq.T @ dWq
        Ws.append(Wq)
        dWs.append(dWq)
    m = prior.mean(X, np.concatenate(Ws), kappa)
    dm = np.stack([m, prior.mean(X, np.concatenate(dWs), kappa * theta)])
    C *= kappa**2
    dC = np.stack([2.0 * C, kappa**2 * theta * dC_t])
    return m, prior._floored(C, kappa, theta), dm, dC


def hyper_energy_stacked(prior, pts, g, rho, priors):
    """``sgcp._hyper_energy`` as it once was: through
    ``mean_cov_grads_stacked``, a symmetrised copy of the covariance for
    its factor and numpy's range checks."""
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
    m, C, dm, dC = mean_cov_grads_stacked(prior, pts, kappa, theta)
    L, _ = cholesky_with_jitter(C)
    r = g - m
    w = tri_solve(L, r)
    alpha = tri_solve(L, w, trans="T")
    nlp += 0.5 * float(w @ w) + float(np.sum(np.log(np.diag(L)))) + 0.5 * n * np.log(2.0 * np.pi)
    Cinv = chol_inverse(L)
    for i in range(2):
        dloglik = (
            float(alpha @ dm[i])
            + 0.5 * float(alpha @ dC[i] @ alpha)
            - 0.5 * float(np.sum(Cinv * dC[i].T))
        )
        grad[i] -= dloglik
    return nlp, grad


def point_loglik_where(g_values, n_data: int, levels) -> float:
    """``sgcp.point_loglik`` as it once formed every thinned point's
    margin, level 1 or not, given the thinned points' ``levels``:
    ``np.where`` between ``sigmoid(-g)`` and ``level - sigmoid(g)``, less
    the log of the level. The sigmoid is the library's ``sigmoid_array``,
    so this checks the formula and not the last bit of a sigmoid."""
    g = np.asarray(g_values, dtype=float)
    gd, gt = g[:n_data], g[n_data:]
    ll = -float(np.sum(np.logaddexp(0.0, -gd)))
    if gt.size:
        lv = np.asarray(levels, dtype=float)
        sig = sigmoid_array(gt)
        margins = np.where(lv == 1.0, sigmoid_array(-gt), lv - sig)
        if np.any(margins <= 0.0):
            return -np.inf
        ll += float(np.sum(np.log(margins) - np.log(lv)))
    return ll


def workspace_weights(prior, pts, g, kappa: float, theta: float, thinned=None):
    """The sampler's workspace over the points ``pts``, then ``thinned``
    (none if not given), with function values ``g``, and its prediction
    weights ``C^{-1} (g - m)``, as the workspace once formed them."""
    pts = _as_points(pts)
    thinned = np.zeros((0, pts.shape[1])) if thinned is None else thinned
    state = AugmentedState(thinned, np.zeros(len(thinned), dtype=int), g, 1.0, kappa, theta)
    ws = _Workspace(GpContext(pts, prior), state)
    return ws, chol_solve(ws.L, ws.g - ws.m)


def extend_per_target(prior, X, pts, W, a, kappa: float, theta: float) -> np.ndarray:
    """``ConvolutionPrior.extend`` as it once was: ``mean(X) + cov(X, pts)
    @ a`` at one target ``X``, a point array or a ``ProductGrid``, given the
    projection ``W`` of ``pts``, with ``W a`` and each latent function's
    grid vector formed again for each target."""
    J = prior.values.shape[1]
    Wa = W @ a
    out = 0.0
    for q, f in enumerate(prior.factors):
        r = f.from_eigen(f.s * Wa[q * J : (q + 1) * J])
        c = kappa * prior._alphas[q] - kappa**2 * r
        out += gram_matvec(X, f.grid, theta + f.phi, c)
        out += kappa**2 * gram_matvec(X, pts, 2.0 * theta + f.phi, a)
    return out


def intensity_rows_per_workspace(samples, X, data, region, config, grid=None):
    """``engine.intensity_rows`` as it once was: for each sample its prior
    and the intensity of every process at the nodes of ``grid`` (if given)
    and then at the points ``X``, one array for all processes, (D, N + n),
    through a workspace per sample and process and ``extend_per_target``
    per target."""
    X = _as_points(X)
    data = [d if isinstance(d, EventSet) else EventSet(d) for d in data]
    n_grid = 0 if grid is None else grid.size
    targets = ([] if grid is None else [(grid, slice(0, n_grid))]) + [(X, slice(n_grid, None))]
    for s, prior in _sample_priors(samples, region, config):
        lam = np.empty((len(data), n_grid + X.shape[0]))
        for d, ev in enumerate(data):
            ws, a = workspace_weights(prior, ev.points, s.g_values[d], s.kappas[d], s.thetas[d],
                                      s.thinned[d])
            for target, span in targets:
                g = extend_per_target(prior, target, ws.pts, ws.W, a, ws.kappa, ws.theta)
                row = sigmoid_array(g, out=lam[d, span])
                row *= s.lambda_stars[d]
        yield prior, lam
