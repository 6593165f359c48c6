"""Gaussian kernel evaluations and multivariate normal primitives.

Everything downstream (covariance assembly, conditioning, slice and
Hamiltonian updates, prediction) funnels through the handful of routines
here. Factorizations of point-set covariances are Cholesky-based with a
small diagonal jitter. Explicit inverses are formed from a Cholesky
factor (``chol_inverse``) only where the whole matrix is needed: the
latent prior precision and the trace terms of the Hamiltonian gradient.
A Gaussian given by its precision is drawn in precision form
(``from_precision``, ``mvn_sample``): one Cholesky factor of the
precision, with rows and columns reversed, gives both the mean and the
draw, and no covariance is formed.

The isotropic Gaussian kernel factorizes over axes: its Gram matrix on a
product grid (``ProductGrid``) is the Kronecker product of one small
``axis_gram`` per axis. A Gram-vector product then needs only those
factors (``gram_matvec``), in each of four pairings: points x points
(dense), grid x points, points x grid and grid x grid, contracted one
axis at a time. The latent grid's Gram matrix is diagonalized through
one symmetric eigendecomposition per axis (``eigh``; see
``convolution.LatentFactor``).

The kernel values the draws read are computed in one place: squared
offsets or distances (``sq_offsets``, ``gauss_gram_sum``) go through
``density``, in place, and their derivative in the variance through
``density_dv``. ``axis_gram``, ``axis_gram_dv``, ``gauss_gram``,
``gauss_gram_sum``, ``gauss_gram_dv`` and the proposal site
(``convolution.ConvolutionPrior.site``, which forms its one point's
offsets inline) all call them, so the draws depend bit for bit on one
order of operations. The one deliberate exception is ``gram_matvec``,
which serves only prediction and the ground truth's process functions:
it builds its factors in fewer passes and applies the kernel's scale
once, to the vector, so its results equal the dense product to rounding,
not bit for bit, and no draw reads them.

The hot factorizations and solves call LAPACK directly, through routines
resolved once at import: ``cholesky`` and ``cholesky_with_jitter``
(``dpotrf``; the latter factors its one working buffer in place),
``tri_solve`` (``dtrtrs``), ``chol_inverse`` (``dpotri``) and ``eigh``
(``dsyevd``).

The proposal kernels form one new site's covariance row against a point
set they keep thousands of times a sweep: ``gauss_gram_sum``, the
arithmetic of ``gauss_gram`` without its checks, forms it from the
squared norms the caller keeps with the points (``sq_norm`` for the
site).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .errors import NumericalError, ValidationError

# Jitter policy: 1e-8 times the mean diagonal, doubled up to 4 times before
# giving up. Gram matrices built from near-duplicate event locations are
# routinely near-singular, so this is load-bearing, not cosmetic.
JITTER_SCALE = 1e-8
MAX_JITTER_DOUBLINGS = 4

# Resolved once: scipy's solve_triangular validates and looks the routine up
# on every call, which cost ten times the solve itself for the small
# single-right-hand-side systems of the per-point updates. np.linalg.cholesky
# took three times as long as dpotrf on a 400x400 matrix, for the same factor.
# Their flags go positionally: f2py's keyword parsing cost a fifth of a small
# dtrtrs call.
_TRTRS = lapack.dtrtrs
_POTRI = lapack.dpotri
_POTRF = lapack.dpotrf
_SYEVD = lapack.dsyevd


class ProductGrid:
    """Tensor-product grid given by its axes.

    Its nodes run in ``ij`` order, the last axis fastest, as
    ``np.meshgrid(*axes, indexing="ij")`` lays them out.
    """

    def __init__(self, axes):
        self.axes = tuple(np.asarray(a, dtype=float).ravel() for a in axes)

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def size(self) -> int:
        return int(np.prod([a.size for a in self.axes]))

    @property
    def nodes(self) -> np.ndarray:
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


def gauss_gram(X, Z, variance: float) -> np.ndarray:
    """Isotropic Gaussian densities ``(2 pi v)^{-d/2} exp(-|x - z|^2 / 2v)``
    between two point sets.

    X is (n, d), Z is (m, d); returns (n, m). One-dimensional inputs are
    treated as columns of scalars.
    """
    if variance <= 0:
        raise ValidationError(f"variance must be positive, got {variance}")
    X = _as_points(X)
    Z = _as_points(Z)
    if X.shape[1] != Z.shape[1]:
        raise ValidationError("point sets have different dimension")
    return gauss_gram_sum(X, (X * X).sum(axis=1)[:, None], Z, (Z * Z).sum(axis=1), (variance,))


def gauss_gram_sum(X: np.ndarray, xx, Z: np.ndarray, zz: np.ndarray, variances) -> np.ndarray:
    """``sum(gauss_gram(X, Z, v) for v in variances)``, from the squared
    norms of the rows of ``X`` (``xx``, a column, or a float for one point)
    and of ``Z`` (``zz``), with no checks: ``gauss_gram`` is its case of
    one variance, ``ConvolutionPrior.cov`` its sum over the latent
    variances, and a covariance row formed here for a new site rounds as
    the Gram matrix of its point set does. A caller that keeps ``Z`` keeps
    ``zz`` with it (the proposal kernels' workspace), and the squared
    distances are formed once for all variances.
    """
    sq = X @ Z.T
    sq *= -2.0
    sq += xx + zz  # (xx + zz) - 2 x.z
    np.maximum(sq, 0.0, out=sq)
    G = None
    for k, variance in enumerate(variances):
        # the last variance takes sq itself
        E = density(sq if k == len(variances) - 1 else sq.copy(), variance, X.shape[1])
        if G is None:
            G = E
        else:
            G += E
    return G


def gauss_gram_dv(X, Z, variance: float) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix together with its elementwise derivative in the variance."""
    X = _as_points(X)
    Z = _as_points(Z)
    d = X.shape[1]
    # squared distances summed axis by axis, in the order a sum over the
    # last axis of the (n, m, d) differences takes, without forming them
    sq = sq_offsets(X[:, 0], Z[:, 0])
    for a in range(1, d):
        sq += sq_offsets(X[:, a], Z[:, a])
    G = density(sq.copy(), variance, d)
    return G, density_dv(sq, G, variance, d)


def sq_norm(x: np.ndarray) -> float:
    """Squared norm of one point ``x`` (1, d), summed in Python floats in
    the order ``(x * x).sum(1)`` sums it, first coordinate first: the
    ``xx`` of ``gauss_gram_sum`` for a new site."""
    total = 0.0
    for c in x[0].tolist():
        total += c * c
    return total


def sq_offsets(x, z) -> np.ndarray:
    """Squared offsets ``(x_i - z_j)^2`` between the coordinates ``x`` and
    ``z``, a new array of shape ``x.shape + z.shape``."""
    sq = np.subtract.outer(x, z)
    sq *= sq
    return sq


def density(sq: np.ndarray, variance: float, dim: int) -> np.ndarray:
    """The isotropic Gaussian density ``(2 pi v)^{-dim/2} exp(-sq / 2v)``
    of the squared distances ``sq``, formed in ``sq`` and returned: the
    one place the draws' kernel values are computed (scaling by -0.5 is
    exact)."""
    sq *= -0.5
    sq /= variance
    np.exp(sq, out=sq)
    sq *= (2.0 * np.pi * variance) ** (-0.5 * dim)
    return sq


def density_dv(sq: np.ndarray, G: np.ndarray, variance: float, dim: int) -> np.ndarray:
    """The derivative in the variance of the densities ``G`` of the
    squared distances ``sq``, ``G * (0.5 * sq / v^2 - 0.5 * dim / v)``,
    formed in ``sq`` and returned."""
    sq *= 0.5
    sq /= variance**2
    sq -= 0.5 * dim / variance
    sq *= G
    return sq


def axis_gram(x: np.ndarray, z: np.ndarray, variance: float) -> np.ndarray:
    """One axis's factor of the isotropic Gaussian kernel between the
    coordinates ``x`` and ``z``: ``(2 pi v)^{-1/2} exp(-(x_i - z_j)^2 / 2v)``,
    shape (x.size, z.size)."""
    return density(sq_offsets(x, z), variance, 1)


def axis_gram_dv(x: np.ndarray, z: np.ndarray, variance: float) -> tuple[np.ndarray, np.ndarray]:
    """``axis_gram`` together with its elementwise derivative in the
    variance, the squared offsets formed once."""
    sq = sq_offsets(x, z)
    E = density(sq.copy(), variance, 1)
    return E, density_dv(sq, E, variance, 1)


def gram_matvec(X, Z, variance: float, c) -> np.ndarray:
    """``gauss_gram(X, Z, variance) @ c`` where each of ``X`` and ``Z`` is a
    point array or a ``ProductGrid``.

    Unless both are points, the kernel factorizes over axes: axis ``a``
    gives ``E_a = exp((x_a - z_a)^2 * (-0.5 / v))`` between ``X``'s axis
    (a grid) or coordinates (points) and ``Z``'s, and the product
    contracts the ``E_a`` with ``c`` one axis at a time, never forming the
    (X x Z) matrix. The kernel's scale ``(2 pi v)^{-d/2}`` multiplies
    ``c`` once. So each ``E_a`` takes four passes where ``axis_gram``'s
    takes six, and the result equals ``gauss_gram(X, Z, v) @ c`` to
    rounding, not bit for bit: only prediction and the ground truth call
    this, and no draw reads what they give. With ``C`` the vector ``c``
    shaped as ``Z``'s grid:

    * points x points: ``gauss_gram(X, Z, v) @ c``, dense;
    * grid x points: ``(E_1 * c) @ E_2^T`` in 2D; in more dimensions the
      leading and trailing halves of the axes each give one column-wise
      Kronecker product of their ``E_a``, and one matrix product joins
      them;
    * points x grid: ``((E_1 C) * E_2)`` summed per row in 2D; in more
      dimensions the halves give row-wise Kronecker products;
    * grid x grid: ``E_1 C E_2^T`` in 2D, ``C`` multiplied by ``E_a``
      along each axis in turn in any dimension.

    A grid's result runs in ``ij`` order, as its ``nodes`` do.
    """
    x_grid, z_grid = isinstance(X, ProductGrid), isinstance(Z, ProductGrid)
    if not (x_grid or z_grid):
        return gauss_gram(X, Z, variance) @ c
    if variance <= 0:
        raise ValidationError(f"variance must be positive, got {variance}")
    xs = X.axes if x_grid else _as_points(X).T
    zs = Z.axes if z_grid else _as_points(Z).T
    if len(xs) != len(zs):
        raise ValidationError("point sets have different dimension")
    c = np.asarray(c, dtype=float) * (2.0 * np.pi * variance) ** (-0.5 * len(xs))
    factor = -0.5 / variance
    E = []
    for x, z in zip(xs, zs):
        e = np.subtract.outer(x, z)
        e *= e
        e *= factor
        E.append(np.exp(e, out=e))
    if x_grid and z_grid:
        return _kron_apply(E, c)
    if len(E) == 1:
        return E[0] @ c
    h = len(E) // 2
    if x_grid:
        return ((_khatri_rao(E[:h]) * c) @ _khatri_rao(E[h:]).T).ravel()
    # the row-wise Kronecker product of the (n, m_a) factors, shape
    # (n, prod m_a), is the transpose of their transposes' column-wise one
    left = _khatri_rao([e.T for e in E[:h]]).T
    right = _khatri_rao([e.T for e in E[h:]]).T
    return ((left @ c.reshape(left.shape[1], right.shape[1])) * right).sum(axis=1)


def _khatri_rao(F: list) -> np.ndarray:
    """Column-wise Kronecker product of per-axis factors ``F_a`` of shape
    (n_a, n): shape (prod n_a, n), rows in ``ij`` order."""
    out = F[0]
    for f in F[1:]:
        out = (out[:, None, :] * f[None, :, :]).reshape(out.shape[0] * f.shape[0], f.shape[1])
    return out


def _kron_apply(mats: list, v: np.ndarray) -> np.ndarray:
    """``(mats[0] kron mats[1] kron ...) @ v`` for per-axis ``mats`` of
    shape (n_a, m_a) and ``v`` of shape (prod m_a,) or (prod m_a, k), rows
    in ``ij`` order: shape (prod n_a,) or (prod n_a, k)."""
    if len(mats) == 1:
        return mats[0] @ v
    if v.size == 0:  # reshape cannot infer an axis of an empty array
        return np.zeros((int(np.prod([m.shape[0] for m in mats])), *v.shape[1:]))
    t, before = v, 1
    for m in mats:  # axis by axis, as one matrix product per slab of the others
        t = m @ t.reshape(before, m.shape[1], -1)
        before *= m.shape[0]
    return t.reshape(before, *v.shape[1:])


def _as_points(X) -> np.ndarray:
    """``X`` as an (n, dim) float array: a 1-D ``X``, empty or not, holds n
    scalars."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    return X


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite ``a``, with
    no jitter; raises ``LinAlgError`` if ``a`` is not positive definite.

    One LAPACK ``dpotrf`` call; the factor is Fortran-ordered, the layout
    ``tri_solve`` hands to LAPACK without a copy, with its upper triangle
    zeroed.
    """
    L, info = _POTRF(a, 1, 1)  # lower, clean
    if info > 0:
        raise np.linalg.LinAlgError(f"matrix not positive definite: pivot {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return L


def cholesky_with_jitter(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of ``cov`` plus jitter; returns (L, jitter used).

    ``cov`` must be exactly symmetric, as every caller's is: the Gram
    matrix of one point set, a floored residual covariance, and in
    ``from_precision`` the reversed precision, which ``latent_posterior``
    symmetrises. The factor is Fortran-ordered (see ``cholesky``). One n x n buffer serves every
    attempt: it is filled with a copy of ``cov``, whose transpose is, by
    the symmetry, the same matrix in Fortran order, and ``dpotrf`` factors
    that in place, with no copy, after the jitter is added to the
    diagonal. The jitter scales with ``cov``'s trace.
    """
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0]
    if n == 0:
        return np.zeros((0, 0), order="F"), 0.0
    mean_diag = float(cov.trace()) / n
    jitter = JITTER_SCALE * mean_diag if mean_diag > 0 else JITTER_SCALE
    sym = np.empty((n, n))
    diag = sym.reshape(-1)[:: n + 1]  # a view: sym is C-contiguous
    for _ in range(MAX_JITTER_DOUBLINGS + 1):
        np.copyto(sym, cov)  # a failed attempt has overwritten the buffer
        diag += jitter
        L, info = _POTRF(sym.T, 1, 1, 1)  # lower, clean, overwrite_a
        if info == 0:
            return L, jitter
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpotrf")
        jitter *= 2.0
    raise NumericalError(
        f"covariance ({n}x{n}) not positive definite after jitter {jitter / 2:.3g}"
    )


def tri_solve(L: np.ndarray, b: np.ndarray, trans: str = "N") -> np.ndarray:
    """Solve ``L x = b`` (``trans="T"``: ``L^T x = b``) for lower-triangular L.

    Calls LAPACK ``dtrtrs`` directly, without finiteness validation (hot
    path); a Fortran-ordered L is used in place. Raises ``LinAlgError`` on a
    zero pivot, as ``solve_triangular`` does.
    """
    if L.shape[0] == 0:  # dtrtrs rejects an empty system as an illegal argument
        return np.zeros(np.shape(b))
    x, info = _TRTRS(L, b, 1, 0 if trans == "N" else 1)  # lower, trans
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dtrtrs")
    return x


def chol_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = b with a lower-triangular L."""
    return tri_solve(L, tri_solve(L, b), trans="T")


def chol_inverse(L: np.ndarray) -> np.ndarray:
    """``(L L^T)^{-1}`` from its lower Cholesky factor, symmetric. ``L``'s
    upper triangle is zero, as ``cholesky`` and ``cholesky_with_jitter``
    return it.

    One LAPACK ``dpotri`` call (n^3 * 2/3 flops, against 2 n^3 for
    ``chol_solve(L, eye)``) fills the lower triangle, which is mirrored in
    place; the result is C-ordered.
    """
    if L.shape[0] == 0:
        return np.zeros((0, 0))
    inv, info = _POTRI(L, 1)  # lower
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: zero diagonal at {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotri")
    # dpotri fills one triangle and leaves L's zero one as it is, so adding
    # the transpose mirrors it in place (numpy buffers the overlapping
    # operand); halving the doubled diagonal is exact. The transpose of the
    # Fortran-ordered result is C-ordered.
    inv = inv.T
    inv += inv.T
    inv.reshape(-1)[:: inv.shape[0] + 1] *= 0.5
    return inv


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, ascending, and orthonormal eigenvectors (as columns) of
    a symmetric ``a``, read from its lower triangle.

    One LAPACK ``dsyevd`` call; ``a`` is not overwritten.
    """
    w, v, info = _SYEVD(a, compute_v=1, lower=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"eigendecomposition did not converge ({info})")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dsyevd")
    return w, v


def from_precision(P: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean ``P^{-1} b`` and precision-form factor of the Gaussian with
    symmetric positive definite precision ``P`` and linear term ``b``.

    The factor is the lower Cholesky factor ``F`` of ``R = E P E``, ``P``
    with its rows and columns in reverse order (``E`` the reversal, its
    own inverse); ``dpotrf`` reads ``R``'s lower triangle, which is
    ``P``'s upper one. Then ``E F^{-T} E`` is lower triangular with a
    positive diagonal and ``(E F^{-T} E)(E F^{-T} E)^T = P^{-1}``: it is
    the lower Cholesky factor of the covariance, which ``mvn_sample``
    applies with one triangular solve. An ``R`` that is not numerically
    positive definite is factored with jitter (``cholesky_with_jitter``).
    """
    R = P[::-1, ::-1]
    try:
        factor = cholesky(R)
    except np.linalg.LinAlgError:
        factor, _ = cholesky_with_jitter(R)
    return chol_solve(factor, b[::-1])[::-1], factor


def mvn_sample(mean: np.ndarray, factor: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw from the Gaussian with mean ``mean`` whose precision has
    the precision-form factor ``factor`` (see ``from_precision``):
    ``mean + E F^{-T} E z`` for ``z ~ N(0, I)``, which is ``mean`` plus
    the lower Cholesky factor of the covariance times ``z``, with no
    covariance formed. Draws ``mean.size`` standard normals."""
    z = rng.standard_normal(mean.size)
    return mean + tri_solve(factor, z[::-1], trans="T")[::-1]
