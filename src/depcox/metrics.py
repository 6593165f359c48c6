"""Evaluation metrics and the kernel density baseline.

The integral in the point-process log likelihood is discretized on a
tensor-product trapezoid rule over the region; held-out scores average the
per-sample likelihoods in probability space (log-mean-exp) so they are a
Monte Carlo posterior predictive. ``sample_logliks`` scores all of a
process's posterior samples in one pass over their (S, events)
intensities and their S integrals (``Quadrature.integrate``): one
row-wise sum of logs. So a caller may integrate each sample as it comes
and keep no (S, nodes) array.

The kernel density baseline is scored the same way, as a posterior of one
sample: ``kde_intensity`` evaluates it at the quadrature nodes and exactly
at the events, with one ``gaussian.gram_matvec`` call each. Its bandwidth
solvers (``scipy.fft``, ``scipy.optimize``) load in ``diffusion_bandwidth``,
on first use: only ``depcox eval --baselines`` needs them, and loaded at
import they cost every fit and eval about 17 MB.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ValidationError
from .gaussian import ProductGrid, _as_points, gram_matvec
from .sgcp import Region


@dataclass
class Quadrature:
    """Trapezoid weights over a region, one per node of ``grid`` in ``ij`` order."""

    weights: np.ndarray  # (n,)
    grid: ProductGrid

    @classmethod
    def for_region(cls, region: Region, resolution: int | None = None) -> "Quadrature":
        if resolution is None:
            resolution = 512 if region.dim == 1 else 64
        if resolution < 2:
            raise ValidationError("quadrature needs at least 2 points per axis")
        axes, axis_w = [], []
        for lo, hi in zip(region.lower, region.upper):
            x = np.linspace(lo, hi, resolution)
            w = np.full(resolution, (hi - lo) / (resolution - 1))
            w[0] *= 0.5
            w[-1] *= 0.5
            axes.append(x)
            axis_w.append(w)
        # each node's weight is the product of its axes' weights
        return cls(reduce(np.multiply.outer, axis_w).ravel(), ProductGrid(axes))

    def integrate(self, on_grid) -> np.ndarray:
        """The integral of each row of intensities on the grid, ``(..., n)``
        with one value per node, as ``(...)``. Raises ``ValidationError`` if
        the rows do not match the nodes or an intensity is negative (beyond
        rounding)."""
        on_grid = np.asarray(on_grid, dtype=float)
        if on_grid.shape[-1:] != self.weights.shape:
            raise ValidationError("grid intensity does not match quadrature")
        if on_grid.min(initial=0.0) < -1e-12:
            raise ValidationError("intensity must be nonnegative")
        return on_grid @ self.weights


def sample_logliks(per_sample_at_events, integrals) -> np.ndarray:
    """Per-posterior-sample Poisson log likelihoods of one event set, (S,):
    the sum of the logs of each row of the (S, events) intensities at the
    events, less that sample's integral of its intensity over the region
    (``integrals``, (S,), as ``Quadrature.integrate`` gives them), all rows
    at once.

    Raises ``ValidationError`` on a negative intensity at an event in any
    sample. A sample with a zero (or negative within rounding) intensity at
    an event scores -inf, without a warning.
    """
    at_events = np.asarray(per_sample_at_events, dtype=float)
    if at_events.min(initial=0.0) < -1e-12:
        raise ValidationError("intensity must be nonnegative")
    out = np.negative(integrals, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out += np.log(at_events).sum(axis=1)
    out[(at_events <= 0.0).any(axis=1)] = -np.inf
    return out


def log_mean_exp(values) -> float:
    values = np.asarray(values, dtype=float)
    m = np.max(values)
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.mean(np.exp(values - m))))


def predictive_loglik(lls) -> float:
    """Log of the posterior-sample average likelihood (max-shifted), from
    the per-sample log likelihoods ``sample_logliks`` gives."""
    if len(lls) == 0:
        raise ValidationError("at least one posterior sample required")
    if np.all(np.isneginf(lls)):
        warnings.warn("all posterior samples give zero likelihood")
        return -np.inf
    return log_mean_exp(lls)


def l2_error(estimated_on_grid, true_on_grid, quad: Quadrature) -> float:
    """Quadrature-weighted L2 distance between two intensities."""
    est = np.asarray(estimated_on_grid, dtype=float)
    tru = np.asarray(true_on_grid, dtype=float)
    if est.shape != tru.shape or est.shape != quad.weights.shape:
        raise ValidationError("intensity grids do not match quadrature")
    return float(np.sqrt(quad.weights @ (est - tru) ** 2))


def _isj_fixed_point(t, n_pts, I, a2):
    # plateau functional of the diffusion bandwidth selector
    ell = 7
    f = 2.0 * np.pi ** (2 * ell) * np.sum(I**ell * a2 * np.exp(-I * np.pi**2 * t))
    if f <= 0:
        return np.nan
    for s in range(ell - 1, 1, -1):
        k0 = np.prod(np.arange(1, 2 * s, 2)) / np.sqrt(2.0 * np.pi)
        const = (1.0 + 0.5 ** (s + 0.5)) / 3.0
        t_s = (2.0 * const * k0 / (n_pts * f)) ** (2.0 / (3.0 + 2.0 * s))
        f = 2.0 * np.pi ** (2 * s) * np.sum(I**s * a2 * np.exp(-I * np.pi**2 * t_s))
        if f <= 0:
            return np.nan
    return t - (2.0 * n_pts * np.sqrt(np.pi) * f) ** (-0.4)


def _silverman(x: np.ndarray) -> float:
    sd = np.std(x, ddof=1)
    iqr = np.subtract(*np.percentile(x, [75, 25])) / 1.34
    spread = min(sd, iqr) if iqr > 0 else sd
    if spread == 0:
        spread = max(abs(x[0]), 1.0) * 1e-3
    return 0.9 * spread * len(x) ** (-0.2)


def diffusion_bandwidth(x, n_grid: int = 2**14) -> float:
    """One-dimensional fixed-point plug-in bandwidth (diffusion rule).

    Falls back to Silverman's rule when the fixed point cannot be
    bracketed (tiny or degenerate samples).
    """
    from scipy.fft import dct
    from scipy.optimize import brentq
    x = np.asarray(x, dtype=float).ravel()
    if x.size < 2:
        raise ValidationError("bandwidth needs at least 2 points")
    n_unique = np.unique(x).size
    lo, hi = x.min(), x.max()
    span = hi - lo
    if span == 0:
        return _silverman(x)
    lo -= span / 10.0
    hi += span / 10.0
    width = hi - lo
    hist, _ = np.histogram(x, bins=n_grid, range=(lo, hi))
    density = hist / x.size
    a = dct(density, type=2)
    I = np.arange(1, n_grid, dtype=float) ** 2
    a2 = (a[1:] / 2.0) ** 2

    def objective(t):
        return _isj_fixed_point(t, n_unique, I, a2)

    t_star = None
    upper = 1e-4
    for _ in range(40):
        lo_val, hi_val = objective(upper / 100.0), objective(upper)
        if np.isfinite(lo_val) and np.isfinite(hi_val) and lo_val * hi_val < 0:
            t_star = brentq(objective, upper / 100.0, upper)
            break
        upper *= 2.0
        if upper > 1.0:
            break
    if t_star is None or not np.isfinite(t_star) or t_star <= 0:
        return _silverman(x)
    return float(np.sqrt(t_star) * width)


def kde_intensity(train_points, targets, bandwidths) -> np.ndarray:
    """Gaussian product-kernel intensity estimate at ``targets``, a
    ``ProductGrid`` (its nodes in ``ij`` order) or a point array.

    The density is scaled by the training count so its integral over the
    region approaches the count (minus boundary leakage). ``bandwidths``
    ``h`` are one per axis (``diffusion_bandwidth`` solves one from an
    axis's coordinates). The kernel of bandwidths ``h`` is the unit-variance kernel between
    coordinates divided by ``h``, over ``prod(h)``: one ``gram_matvec``
    call, with a grid's axes scaled axis by axis.
    """
    X = _as_points(train_points)
    n, dim = X.shape
    if n < 2:
        raise ValidationError("kernel density estimate needs at least 2 events")
    grid = isinstance(targets, ProductGrid)
    if not grid:
        targets = _as_points(targets)
    if dim != (targets.dim if grid else targets.shape[1]):
        raise ValidationError("training points do not match the targets' dimension")
    h = np.atleast_1d(np.asarray(bandwidths, dtype=float))
    if h.shape != (dim,):
        raise ValidationError(f"one bandwidth per axis needed: got {h.size} for {dim} axes")
    scaled = ProductGrid([axis / s for axis, s in zip(targets.axes, h)]) if grid else targets / h
    return gram_matvec(scaled, X / h, 1.0, np.ones(n)) / np.prod(h)
