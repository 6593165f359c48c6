"""Cross-process coupling through shared latent functions.

Each observed process smooths every latent function with its own Gaussian
kernel before summing, so all covariances reduce to Gaussian densities in
summed variances: the latent covariance uses ``phi_q``, the cross
covariance ``theta_d + phi_q`` and the output covariance
``theta_d + theta_d' + phi_q``. The latent functions are summarized by
their values on a fixed inducing grid; conditioned on those values the
processes decouple, and the residual covariance of each process is kept
dense. Cross-process covariance is never materialized, but for the
latent draw's data-space system, which spans all processes' points and
is formed only while it is smaller than the latent precision.

Each latent function is its grid values and its ``LatentFactor``, which
alone holds the function's variance ``phi_q`` and the grid, a
``ProductGrid``. A ``ConvolutionPrior`` is the values (Q, J) with their
factors, the only latent state, and ``phi_mh_update`` returns the factors
at the moved variances. The grid is a product of axes and the kernel
separable, so the latent Gram matrix ``K_q = K(grid, grid; phi_q)`` is a
Kronecker product of per-axis Gram matrices, and the factor holds one
eigendecomposition per axis: ``K_q = Q_q diag(lam_q) Q_q^T``. Everything
that whitens against ``K_q + jI`` goes through it, with ``s_q = (lam_q +
j)^{-1/2}``:

* a point set's projection ``W = [s_q * Q_q^T K(grid, X; theta + phi_q)]_q``
  (``project``), O(J) per point and latent function from the per-axis
  cross-covariances;
* the prior mean ``kappa sum_q W_q^T beta_q`` with ``beta_q = s_q * Q_q^T
  u_q`` (``mean``), the one formula behind ``mean_cov``, ``site``,
  ``mean_cov_grads`` and the per-process workspace's refreshed mean;
* one new site against a point set whose projection and squared norms the
  caller keeps (``site``, the proposal kernels' per-site call): the site's
  projection, prior mean, floored variance and residual covariance row in
  one call, each operation the one ``project``, ``mean``, ``mean_cov`` and
  ``cov`` make, in the same order, so it matches them bit for bit; the
  scalars it needs of ``kappa``, ``theta`` and the latent variances come
  from ``site_scalars``, which the caller forms once per ``kappa`` and
  ``theta``;
* the coupling matrix, ``extend`` and the latent mean coefficients, which
  apply ``Q_q (s_q * .)`` axis by axis;
* the log density of the latent values in ``phi_mh_update``, so a
  proposal costs D eigendecompositions of one axis's size.

Residual covariances are Gram matrices minus ``W_A^T W_B``. Callers that
keep ``W`` for a point set must keep it in step with the set (the
per-process workspace in ``sgcp`` does), so that a new point costs the
projection of that point alone. That workspace holds each process's one
residual covariance ``C_d`` and its Cholesky factor; ``latent_posterior``
reads them there and forms no covariance of its own.

The dense Cholesky factor ``L_q`` of ``K_q + jI`` is formed only where a
draw is made through it, the initial latent draw and the latent slice
move in ``engine``, and for the latent prior precision ``L_q^{-T}
L_q^{-1}`` of the precision form below; it is formed once per accepted
``phi_q``. The latent posterior itself is dense: it couples the grid
through every process's points. ``sample_latent_posterior`` draws it
through the smaller of two exact systems. With at least as many points
``N``, over all processes, as latent values ``Q*J``, it is drawn in
precision form (``latent_posterior``, ``gaussian.from_precision``,
``gaussian.mvn_sample``): one Cholesky factor of the (Q*J)^2 precision,
with rows and columns reversed, gives the mean and, by one triangular
solve, the draw; its covariance is never formed. With fewer points it
is drawn in whitened coordinates ``s_q * Q_q^T u_q``, in which process
``d``'s coupling is ``kappa_d W_d^T``, through an ``N x N`` system in
data space (Matheron's rule), and mapped back through the eigenfactors:
neither the precision nor ``L_q`` is formed for it.

Predictions (``extend``, ``latent_interpolant``) take either scattered
points or a ``ProductGrid``. The latent grid enters them as the factor's
``ProductGrid``, not as J scattered nodes, so its Gram-vector products
contract one per-axis factor at a time
(``gaussian.gram_matvec``) against a target grid and against scattered
targets alike; only the process's own points enter as scattered nodes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from .errors import NumericalError, ValidationError
from .gaussian import (
    JITTER_SCALE,
    ProductGrid,
    _as_points,
    _khatri_rao,
    _kron_apply,
    axis_gram,
    axis_gram_dv,
    chol_inverse,
    chol_solve,
    cholesky,
    cholesky_with_jitter,
    eigh,
    from_precision,
    gauss_gram,
    gauss_gram_dv,
    gauss_gram_sum,
    gram_matvec,
    mvn_sample,
    tri_solve,
)

# The residual covariance's diagonal is raised by this share of the
# marginal variance (see ``ConvolutionPrior._floored``).
MARGINAL_FLOOR = 1e-12


GRID_PAD = 0.1  # the latent grid's extension past each side of the region, per axis length


def latent_grid(region, per_axis: int) -> ProductGrid:
    """Evenly spaced inducing grid spanning the region extended by ``GRID_PAD`` per side."""
    if per_axis < 2:
        raise ValidationError("need at least 2 grid points per axis")
    axes = []
    for lo, hi in zip(region.lower, region.upper):
        ext = GRID_PAD * (hi - lo)
        axes.append(np.linspace(lo - ext, hi + ext, per_axis))
    return ProductGrid(axes)


class LatentFactor:
    """One latent function's grid covariance ``K = K(grid, grid; phi)``,
    diagonalized through its per-axis factors.

    The isotropic Gaussian kernel is separable and the grid a product of
    axes, so ``K`` is the Kronecker product of one small Gram matrix per
    axis, ``K^(a) = Q_a diag(lam_a) Q_a^T``. Then ``K = Q diag(lam) Q^T``
    with ``Q = kron_a Q_a`` and ``lam = kron_a lam_a``. Whitening is against
    ``K + jI``, with ``j`` the jitter ``cholesky_with_jitter`` adds to ``K``
    (``JITTER_SCALE`` times its mean diagonal), through the scale
    ``s = (lam + j)^{-1/2}``: ``s * Q^T k`` has the inner products of
    ``L^{-1} k``, and ``Q (s^2 * Q^T k)`` is ``(K + jI)^{-1} k``. A
    proposal at a new ``phi`` costs one eigendecomposition per axis.

    The dense Cholesky factor ``L`` of ``K + jI`` is formed on first use
    of ``L`` only: draws go through it (the initial latent draw and the
    latent slice move), as does ``inverse()``, the latent prior precision
    of the precision-form posterior. Each accepted ``phi`` forms ``L``
    once.

    ``grid`` is the latent grid, a ``ProductGrid``; ``phi`` must be
    positive.
    """

    def __init__(self, grid: ProductGrid, phi: float):
        self.grid = grid
        self.phi = float(phi)
        if not self.phi > 0:
            raise ValidationError(f"latent variance phi must be positive, got {self.phi}")
        eigs = [eigh(axis_gram(a, a, self.phi)) for a in grid.axes]
        self.Q = [v for _, v in eigs]
        lam = eigs[0][0]
        for w, _ in eigs[1:]:
            lam = np.multiply.outer(lam, w).ravel()
        # K's diagonal is the kernel's scale, (2 pi phi)^{-D/2}
        shifted = lam + JITTER_SCALE * (2.0 * np.pi * self.phi) ** (-0.5 * grid.dim)
        if not np.all(shifted > 0):
            raise NumericalError(f"latent Gram matrix at phi={self.phi:.3g} is not positive definite")
        self.s = shifted**-0.5
        # the transposed axis factors, the axes as columns and the scale as
        # a column, which every new site's projection reads
        self.QT = [q.T for q in self.Q]
        self.axis_cols = [a[:, None] for a in grid.axes]
        self.s_col = self.s[:, None]
        self._L = None
        self._inverse = None

    def to_eigen(self, v: np.ndarray) -> np.ndarray:
        """``Q^T v`` for ``v`` of shape (J,) or (J, n)."""
        return _kron_apply(self.QT, v)

    def from_eigen(self, v: np.ndarray) -> np.ndarray:
        """``Q v`` for ``v`` of shape (J,) or (J, n)."""
        return _kron_apply(self.Q, v)

    def whiten(self, X: np.ndarray, variance: float) -> np.ndarray:
        """``s * Q^T K(grid, X; variance)``, shape (J, n), from the per-axis
        factors ``Q_a^T E_a`` of the cross-covariance: O(J) per point."""
        if X.shape[1] != self.grid.dim:
            raise ValidationError("point sets have different dimension")
        F = [qt @ axis_gram(a, x, variance) for qt, a, x in zip(self.QT, self.grid.axes, X.T)]
        W = _khatri_rao(F)  # a new array, F[0] itself in 1D
        W *= self.s_col
        return W

    def whiten_dv(self, X: np.ndarray, variance: float) -> tuple[np.ndarray, np.ndarray]:
        """``whiten(X, variance)`` and its derivative in the variance: the
        derivative of a Kronecker product is the sum over axes of the
        products with that axis's factor differentiated."""
        if X.shape[1] != self.grid.dim:
            raise ValidationError("point sets have different dimension")
        F, dF = [], []
        for qt, a, x in zip(self.QT, self.grid.axes, X.T):
            E, dE = axis_gram_dv(a, x, variance)
            F.append(qt @ E)
            dF.append(qt @ dE)
        # summed and scaled in place, in the order sum() adds the terms
        dW = _khatri_rao(dF[:1] + F[1:])
        for a in range(1, len(F)):
            dW += _khatri_rao(F[:a] + [dF[a]] + F[a + 1 :])
        dW *= self.s_col
        W = _khatri_rao(F)
        W *= self.s_col
        return W, dW

    @property
    def L(self) -> np.ndarray:
        """Dense lower Cholesky factor of ``K + jI``, formed on first use.
        ``gauss_gram`` of the nodes with themselves is exactly symmetric
        (numpy forms ``X X^T`` of one array as one triangle mirrored), so
        the factorization skips the symmetrisation."""
        if self._L is None:
            nodes = self.grid.nodes
            self._L, _ = cholesky_with_jitter(gauss_gram(nodes, nodes, self.phi), symmetric=True)
        return self._L

    def inverse(self) -> np.ndarray:
        """``(K + jI)^{-1}`` from ``L``, formed on first use: the latent
        prior precision that ``latent_posterior`` adds to, and the only
        explicit inverse of the latent stage. A draw with fewer points than
        latent values never reads it."""
        if self._inverse is None:
            self._inverse = chol_inverse(self.L)
        return self._inverse


class SiteScalars(NamedTuple):
    """The scalars of ``site`` that depend only on ``kappa``, ``theta`` and
    the latent variances (``site_scalars``): a process's workspace forms
    them once, with the expressions ``site`` once evaluated per call, so
    they have the same bits."""

    kappa: float
    theta: float
    kappa2: float  # kappa**2
    variances: tuple  # theta + phi_q, one per latent function
    scales: tuple  # (2 pi (theta + phi_q))^{-1/2}, the axis factors' scale
    gram_variances: list  # 2 theta + phi_q, the output Gram variances
    marginal: float  # the marginal variance (unfloored for an independent prior)
    floor: float  # MARGINAL_FLOOR * marginal


class ConvolutionPrior:
    """Conditional prior over one process's function values given the latent
    functions: their grid values and their ``LatentFactor``s.

    The mean is the smoothed latent interpolant; the covariance is the
    residual left after conditioning the process on the grid values. The
    per-process kernel parameters are passed per call since they are part
    of the sampled state.

    Covariances are computed from projections: ``project(X, theta)`` is the
    stacked ``W = s_q * Q_q^T K(grid, X; theta + phi_q)`` (see
    ``LatentFactor``), and the residual covariance between two point sets
    is ``kappa^2 (G - W_A^T W_B)`` with ``G`` the summed output Gram
    matrices. A caller that keeps ``W`` for its points (the per-process
    workspace does) pays only for the projection of a new point, O(J) per
    latent function, not for the whole point set again.
    """

    def __init__(self, values, factors):
        """``values``: the latent grid values, (Q, J); ``factors``: one
        ``LatentFactor`` per latent function, all on the one grid."""
        self.values = np.atleast_2d(np.asarray(values, dtype=float))
        self.factors = list(factors)
        if not self.factors:
            raise ValidationError("at least one latent function required")
        self.grid = self.factors[0].grid
        shape = (len(self.factors), self.grid.size)
        if self.values.shape != shape:
            raise ValidationError(f"latent values of shape {self.values.shape} do not match "
                                  f"{shape[0]} latent functions on a grid of {shape[1]} nodes")
        # s_q * Q_q^T u_q, whose inner product with a projection column is
        # the mean's K(x, grid) K_q^{-1} u_q, and K_q^{-1} u_q itself; both
        # independent of kappa/theta
        self._betas = [f.s * f.to_eigen(u) for f, u in zip(self.factors, self.values)]
        self._alphas = [f.from_eigen(f.s * b) for f, b in zip(self.factors, self._betas)]

    @property
    def phis(self) -> np.ndarray:
        """The latent variances, one per latent function, read from the factors."""
        return np.array([f.phi for f in self.factors])

    @property
    def dim(self) -> int:
        return self.grid.dim

    def project(self, X, theta: float) -> np.ndarray:
        """Stacked whitened cross-covariances ``s_q * Q_q^T K(grid, X; theta + phi_q)``,
        shape (Q*J, n)."""
        X = _as_points(X)
        if len(self.factors) == 1:
            return self.factors[0].whiten(X, theta + self.factors[0].phi)
        return np.concatenate([f.whiten(X, theta + f.phi) for f in self.factors])

    def mean(self, X, W, kappa: float) -> np.ndarray:
        """Prior mean at the points ``X`` whose projection is ``W``:
        ``kappa sum_q W_q^T beta_q``, the smoothed latent interpolant."""
        J = self.values.shape[1]
        return kappa * sum(W[q * J : (q + 1) * J].T @ beta for q, beta in enumerate(self._betas))

    def cov(self, A, WA, B, WB, kappa: float, theta: float) -> np.ndarray:
        """Residual cross-covariance between point sets ``A`` and ``B``, given
        their projections ``WA`` and ``WB``."""
        G = gauss_gram(A, B, 2.0 * theta + self.factors[0].phi)
        for f in self.factors[1:]:
            G += gauss_gram(A, B, 2.0 * theta + f.phi)
        G -= WA.T @ WB
        G *= kappa**2
        return G

    def _marginal_var(self, kappa: float, theta: float) -> float:
        d = self.dim
        total = 0.0  # summed in order, as a sum of numpy scalars would be
        for f in self.factors:
            total += (2.0 * np.pi * (2.0 * theta + f.phi)) ** (-0.5 * d)
        return kappa**2 * total

    def _floored(self, C: np.ndarray, kappa: float, theta: float) -> np.ndarray:
        """A residual covariance ``C`` symmetrised, with its diagonal raised
        by ``MARGINAL_FLOOR`` of the marginal variance.

        The residual is a difference of same-sized terms; when the grid
        resolves the kernels it collapses into cancellation noise, so the
        floor is relative to the marginal (pre-subtraction) variance rather
        than the residual's own scale.
        """
        C = 0.5 * (C + C.T)
        floor = MARGINAL_FLOOR * self._marginal_var(kappa, theta)
        if floor > 0 and C.shape[0]:
            C.reshape(-1)[:: C.shape[0] + 1] += floor  # a view: C is new and C-contiguous
        return C

    def mean_cov(self, X, kappa: float, theta: float, W) -> tuple[np.ndarray, np.ndarray]:
        """Mean and floored residual covariance at ``X``, whose projection is ``W``."""
        C = self.cov(X, W, X, W, kappa, theta)
        return self.mean(X, W, kappa), self._floored(C, kappa, theta)

    def site_scalars(self, kappa: float, theta: float) -> SiteScalars:
        """What ``site`` reads of ``kappa``, ``theta`` and the latent
        variances."""
        variances = tuple(theta + f.phi for f in self.factors)
        marginal = self._marginal_var(kappa, theta)
        return SiteScalars(
            kappa, theta, kappa**2, variances,
            tuple((2.0 * np.pi * v) ** -0.5 for v in variances),
            [2.0 * theta + f.phi for f in self.factors],
            marginal, MARGINAL_FLOOR * marginal,
        )

    def site(self, x, xx: float, pts, zz, W, s: SiteScalars):
        """One new site ``x`` (1, d) against the points ``pts``, whose
        squared norms are ``zz`` and projection ``W``; ``xx`` is
        ``sq_norm(x)`` and ``s`` is ``site_scalars(kappa, theta)``. Returns
        the site's projection ``w`` (Q*J, 1), its prior mean, its residual
        variance, floored as in ``mean_cov``, and its residual covariance
        row ``ks`` (n,) with the points.

        Each operation is the one ``project``, ``mean``, ``mean_cov`` and
        ``cov`` make for the one-point set, in the same order, so the
        results equal theirs bit for bit: ``whiten``'s per-axis factors,
        one dot product for the variance and one per latent function for
        the mean, ``gauss_gram_sum`` for the Gram row. Only the calls and
        checks around them are left out, and the scalars are read from
        ``s``: the proposal kernels make this call thousands of times a
        sweep.
        """
        coords = x[0].tolist()
        ws = []
        for f, variance, scale in zip(self.factors, s.variances, s.scales):
            F = []
            for qt, a, c in zip(f.QT, f.axis_cols, coords):  # axis_gram, operation for operation
                E = a - c
                E *= E
                E *= -0.5
                E /= variance
                np.exp(E, out=E)
                E *= scale
                F.append(qt.dot(E))
            w_q = F[0] if len(F) == 1 else _khatri_rao(F)
            w_q *= f.s_col
            ws.append(w_q)
        w = ws[0] if len(ws) == 1 else np.concatenate(ws)
        flat = w[:, 0]
        var = s.marginal - s.kappa2 * float(flat.dot(flat)) + s.floor
        J = self.values.shape[1]
        mean = 0.0
        for q, beta in enumerate(self._betas):
            mean += float(flat[q * J : (q + 1) * J].dot(beta))
        ks = gauss_gram_sum(x, xx, pts, zz, s.gram_variances)
        ks -= w.T @ W
        ks *= s.kappa2
        return w, s.kappa * mean, var, ks.ravel()

    def mean_cov_grads(self, X, kappa: float, theta: float):
        """Mean, covariance and their gradients in (log kappa, log theta).

        Returns ``(m, C, dm, dC)``; ``dm`` is the pair of the mean's
        derivatives (n,) and ``dC`` that of the covariance's (n, n), used
        by the Hamiltonian hyperparameter update.

        ``C`` is floored as in ``mean_cov``, and exactly symmetric. Each
        latent function's ``W^T dW`` is read as the transpose of its
        ``dW^T W``, which holds the same products summed in the same order.
        """
        X = np.asarray(X, dtype=float)
        C = dC_t = None
        Ws, dWs = [], []
        for f in self.factors:
            Wq, dWq = f.whiten_dv(X, theta + f.phi)
            G, dG = gauss_gram_dv(X, X, 2.0 * theta + f.phi)
            G -= Wq.T @ Wq
            T = dWq.T @ Wq
            dG *= 2.0
            dG -= T
            dG -= T.T
            if C is None:
                C, dC_t = G, dG
            else:
                C += G
                dC_t += dG
            Ws.append(Wq)
            dWs.append(dWq)
        W = Ws[0] if len(Ws) == 1 else np.concatenate(Ws)
        dW = dWs[0] if len(dWs) == 1 else np.concatenate(dWs)
        m = self.mean(X, W, kappa)
        # d/dlog kappa, d/dlog theta
        dm = (m, self.mean(X, dW, kappa * theta))
        C *= kappa**2
        dC = (2.0 * C, kappa**2 * theta * dC_t)
        return m, self._floored(C, kappa, theta), dm, dC

    def coupling_matrix(self, W, kappa: float) -> np.ndarray:
        """Map from stacked latent grid values to the process mean at the
        points whose projection is ``W``: ``kappa [K(X, grid) K_q^{-1}]_q``."""
        J = self.values.shape[1]
        return np.concatenate(
            [
                kappa * f.from_eigen(f.s[:, None] * W[q * J : (q + 1) * J]).T
                for q, f in enumerate(self.factors)
            ],
            axis=1,
        )

    def extend(self, X, pts, W, a, kappa: float, theta: float) -> np.ndarray:
        """``mean(X) + cov(X, pts) @ a`` without projecting ``X``.

        ``X`` is a point array or a ``ProductGrid``; ``W`` is the
        projection of ``pts``. Each latent function's ``K(X, grid)``
        serves both the mean and the projected part of the
        cross-covariance, applied to the grid vector
        ``kappa alpha_q - kappa^2 Q_q (s_q * W_q a)`` through the grid's
        axes.
        """
        J = self.values.shape[1]
        Wa = W @ a
        out = 0.0
        for q, f in enumerate(self.factors):
            r = f.from_eigen(f.s * Wa[q * J : (q + 1) * J])
            c = kappa * self._alphas[q] - kappa**2 * r
            out += gram_matvec(X, f.grid, theta + f.phi, c)
            out += kappa**2 * gram_matvec(X, pts, 2.0 * theta + f.phi, a)
        return out

    def latent_interpolant(self, X) -> np.ndarray:
        """Conditional mean of each latent function at a point array or a
        ``ProductGrid``, (Q, n)."""
        return np.stack([gram_matvec(X, f.grid, f.phi, a)
                         for f, a in zip(self.factors, self._alphas)])


class IndependentPrior:
    """Plain zero-mean GP prior for the uncoupled single-process model.

    Squared-exponential covariance parameterized the same way as the
    coupled model's marginal, ``kappa^2 N(x; x', 2*theta + phi0)``, with a
    fixed smoothing variance ``phi0``.
    """

    def __init__(self, phi0: float = 0.01, dim: int = 1):
        if phi0 <= 0:
            raise ValidationError("phi0 must be positive")
        self.phi0 = float(phi0)
        self.dim = dim

    def project(self, X, theta: float) -> np.ndarray:
        """No latent grid: an empty (0, n) projection."""
        return np.zeros((0, np.asarray(X).shape[0]))

    def mean(self, X, W, kappa: float) -> np.ndarray:
        return np.zeros(np.asarray(X).shape[0])

    def cov(self, A, WA, B, WB, kappa: float, theta: float) -> np.ndarray:
        return kappa**2 * gauss_gram(A, B, 2.0 * theta + self.phi0)

    def mean_cov(self, X, kappa: float, theta: float, W):
        return self.mean(X, W, kappa), self.cov(X, W, X, W, kappa, theta)

    def site_scalars(self, kappa: float, theta: float) -> SiteScalars:
        """What ``site`` reads of ``kappa`` and ``theta``."""
        var = kappa**2 * (2.0 * np.pi * (2.0 * theta + self.phi0)) ** (-0.5 * self.dim)
        return SiteScalars(kappa, theta, kappa**2, (), (), (2.0 * theta + self.phi0,), var, 0.0)

    def site(self, x, xx: float, pts, zz, W, s: SiteScalars):
        """Empty projection, zero mean, the marginal variance and the
        covariance row at one new site (see ``ConvolutionPrior.site``)."""
        ks = gauss_gram_sum(x, xx, pts, zz, s.gram_variances)
        ks *= s.kappa2
        return np.zeros((0, 1)), 0.0, s.marginal, ks.ravel()

    def extend(self, X, pts, W, a, kappa: float, theta: float) -> np.ndarray:
        """``mean(X) + cov(X, pts) @ a``; ``X`` is a point array or a ``ProductGrid``."""
        return kappa**2 * gram_matvec(X, pts, 2.0 * theta + self.phi0, a)

    def mean_cov_grads(self, X, kappa: float, theta: float):
        """See ``ConvolutionPrior.mean_cov_grads``; the mean and its
        derivatives are one zero array."""
        X = np.asarray(X, dtype=float)
        G, dG = gauss_gram_dv(X, X, 2.0 * theta + self.phi0)
        C = kappa**2 * G
        zero = np.zeros(X.shape[0])
        return zero, C, (zero, zero), (2.0 * C, kappa**2 * theta * 2.0 * dG)


def latent_posterior(spaces, prior: ConvolutionPrior, A_list) -> tuple[np.ndarray, np.ndarray]:
    """Joint Gaussian posterior over the stacked latent grid values: its
    mean and the precision-form factor of its precision
    (``gaussian.from_precision``), which ``gaussian.mvn_sample`` draws
    through.

    The precision is the latent prior precision plus one quadratic
    contribution ``A_d^T C_d^{-1} A_d`` per process, from its coupling
    matrix ``A_list[d]`` and the residual covariance ``C_d`` of its
    workspace ``spaces[d]`` (``sgcp._Workspace``), whose Cholesky factor
    and function values ``g`` it reads: no process covariance is formed or
    factored here, no cross-process covariance is ever assembled, and the
    posterior covariance is never formed. Only the prior's latent factors
    enter, not its current grid values. ``sample_latent_posterior`` draws
    through it when the points are at least as many as the latent values.
    """
    Q, J = prior.values.shape
    # Latent prior precision, block diagonal over latent functions.
    P = np.zeros((Q * J, Q * J))
    for q, f in enumerate(prior.factors):
        P[q * J : (q + 1) * J, q * J : (q + 1) * J] = f.inverse()
    b = np.zeros(Q * J)
    for ws, A in zip(spaces, A_list):
        if ws.g.size == 0:
            continue
        CiA = chol_solve(ws.L, A)
        P += A.T @ CiA
        b += CiA.T @ ws.g
    # exactly symmetric: the reversed factor reads P's upper triangle
    P = 0.5 * (P + P.T)
    return from_precision(P, b)


def sample_latent_posterior(spaces, prior: ConvolutionPrior, rng: np.random.Generator,
                            A_list) -> np.ndarray:
    """Draw new latent grid values from their joint posterior, shaped (Q, J).

    Of the two exact systems the smaller is solved. With ``N`` points over
    all processes and ``N >= Q*J``, the draw is made in precision form
    from ``latent_posterior``, through the coupling matrices ``A_list``.
    With fewer points it is made in whitened coordinates
    (``_whitened_draw``) through an ``N x N`` system, and mapped back
    through the latent factors; ``A_list`` is not read then, and neither
    the precision nor a latent factor's inverse is formed for it.
    """
    Q, J = prior.values.shape
    live = [ws for ws in spaces if ws.g.size]
    if sum(ws.g.size for ws in live) < Q * J:
        v = _whitened_draw(live, Q * J, rng)
        if v is not None:
            return np.stack([f.from_eigen(v[q * J : (q + 1) * J] / f.s)
                             for q, f in enumerate(prior.factors)])
    flat = mvn_sample(*latent_posterior(spaces, prior, A_list), rng)
    return flat.reshape(Q, J)


def _whitened_draw(live, n: int, rng: np.random.Generator) -> np.ndarray | None:
    """One posterior draw of the whitened latent values ``v = s * Q^T u``,
    shape (n,), given the function values of the workspaces ``live``, each
    with at least one point; ``None``, before any normal is drawn, if the
    data-space system is not numerically positive definite.

    A priori ``v ~ N(0, I)``, and process ``d``'s values are ``g_d =
    kappa_d W_d^T v + e_d`` with ``e_d ~ N(0, C_d)``, so whitened by the
    factor ``L_d`` of ``C_d`` they read ``y = V v + eta`` with ``V_d =
    L_d^{-1} kappa_d W_d^T`` and ``eta ~ N(0, I)``. The posterior draw is
    a prior draw ``z`` corrected through the data (Matheron's rule):
    ``z + V^T (I + V V^T)^{-1} (y - V z - eta')`` with ``eta' ~ N(0, I)``.
    ``I + V V^T`` is factored without jitter: jitter would inflate the
    noise, whose whitened covariance is that ``I``. No point at all gives
    the prior draw ``z``.
    """
    if not live:
        return rng.standard_normal(n)
    V = np.concatenate([tri_solve(ws.L, ws.kappa * ws.W.T) for ws in live])
    y = np.concatenate([tri_solve(ws.L, ws.g) for ws in live])
    M = V @ V.T
    M.reshape(-1)[:: M.shape[0] + 1] += 1.0  # a view: M is new and C-contiguous
    try:
        F = cholesky(M)
    except np.linalg.LinAlgError:
        return None
    v = rng.standard_normal(n)
    v += V.T @ chol_solve(F, y - V @ v - rng.standard_normal(V.shape[0]))
    return v


def latent_logpost(factor: LatentFactor, values_q: np.ndarray,
                   log_mean: float, log_sd: float) -> float:
    """Log conditional posterior of one latent variance, ``factor.phi``,
    given that latent function's grid values, through the factor's
    eigenvalues: no dense factor is formed."""
    w = factor.s * factor.to_eigen(values_q)
    quad = -0.5 * float(np.dot(w, w))
    logdet = float(np.sum(np.log(factor.s)))
    z = (np.log(factor.phi) - log_mean) / log_sd
    return quad + logdet - 0.5 * z * z


def phi_mh_update(
    values: np.ndarray,
    factors,
    rng: np.random.Generator,
    step: float = 0.1,
    log_mean: float = 0.0,
    log_sd: float = 1.0,
) -> tuple[list, np.ndarray]:
    """One log-space random-walk Metropolis step per latent variance, given
    the latent grid values ``values`` (Q, J) and their ``factors``.

    Returns the factors at the updated variances, the current factor of each
    rejected proposal and the proposal's factor of each accepted one, and a
    boolean acceptance flag per latent function. A proposal costs one
    eigendecomposition per grid axis; only an accepted one forms its dense
    factor, which the next sweep's draws go through.
    """
    updated = list(factors)
    accepted = np.zeros(len(updated), dtype=bool)
    for q, cur in enumerate(factors):
        prop = LatentFactor(cur.grid, np.exp(np.log(cur.phi) + step * rng.standard_normal()))
        lp_cur = latent_logpost(cur, values[q], log_mean, log_sd)
        lp_prop = latent_logpost(prop, values[q], log_mean, log_sd)
        if np.isfinite(lp_prop) and np.log(rng.random()) < lp_prop - lp_cur:
            updated[q] = prop
            accepted[q] = True
            # the next sweep's draws go through L; formed here, outside the
            # slice move, it adds nothing to that move's peak memory
            _ = prop.L
    return updated, accepted
