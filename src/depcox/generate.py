"""Generative sampling of ground-truth intensities and exact event data.

Ground truths use the same sparse basis the model assumes: latent values
drawn on the inducing grid define basis weights, and smoothing each basis
function analytically gives a closed-form process function. Event data is
then drawn exactly by thinning a homogeneous process at the bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .convolution import LatentFactor, latent_grid
from .errors import ValidationError
from .gaussian import ProductGrid, _as_points, chol_solve, gram_matvec
from .sgcp import EventSet, Region, sigmoid_array


def _grid_axes(grid: np.ndarray) -> tuple:
    """The axes of a ground truth's latent grid, which a manifest holds as
    its nodes in ``ij`` order (as ``ProductGrid.nodes`` lays them out);
    raises ``ValidationError`` for any other node set. A 1-D grid is its
    own axis, in its given order."""
    if grid.shape[1] == 1:
        return (grid[:, 0],)
    axes = []
    for column in grid.T:
        _, first = np.unique(column, return_index=True)
        axes.append(column[np.sort(first)])
    product = ProductGrid(axes)
    if product.size != grid.shape[0] or not np.array_equal(product.nodes, grid):
        raise ValidationError("the latent grid must be a product grid with nodes in ij order")
    return tuple(axes)


@dataclass
class GroundTruth:
    """Closed-form multi-process intensity built on the sparse latent basis."""

    region: Region
    grid: np.ndarray  # (J, dim)
    weights: np.ndarray  # (Q, J) basis weights per latent function
    phis: np.ndarray  # (Q,)
    kappas: np.ndarray  # (D,)
    thetas: np.ndarray  # (D,)
    lambda_stars: np.ndarray  # (D,)
    low_fraction: float | None = field(default=None)

    def __post_init__(self):
        self.grid = _as_points(self.grid)
        self.weights = np.atleast_2d(np.asarray(self.weights, dtype=float))
        self.phis = np.atleast_1d(np.asarray(self.phis, dtype=float))
        self.kappas = np.atleast_1d(np.asarray(self.kappas, dtype=float))
        self.thetas = np.atleast_1d(np.asarray(self.thetas, dtype=float))
        self.lambda_stars = np.atleast_1d(np.asarray(self.lambda_stars, dtype=float))
        n_k, n_t, n_l = self.kappas.size, self.thetas.size, self.lambda_stars.size
        if not n_k == n_t == n_l:
            raise ValidationError(f"a ground truth needs one kappa, theta and lambda_star per process, "
                                  f"got {n_k}, {n_t} and {n_l}")
        shape = (self.phis.size, self.grid.shape[0])
        if self.weights.shape != shape:
            raise ValidationError(f"ground-truth weights of shape {self.weights.shape} do not match "
                                  f"{shape[0]} latent functions on a grid of {shape[1]} nodes")

    @property
    def n_processes(self) -> int:
        return self.kappas.size

    @property
    def n_latent(self) -> int:
        return self.phis.size

    def g(self, d: int, X) -> np.ndarray:
        """Process function: each basis kernel smoothed into variance
        theta_d, at points or, axis by axis, at a ``ProductGrid``'s nodes."""
        Z = ProductGrid(_grid_axes(self.grid)) if isinstance(X, ProductGrid) else self.grid
        out = 0.0
        for q in range(self.n_latent):
            out = out + gram_matvec(X, Z, self.thetas[d] + self.phis[q], self.weights[q])
        return self.kappas[d] * out

    def intensity(self, d: int, X) -> np.ndarray:
        return self.lambda_stars[d] * sigmoid_array(self.g(d, X))


def sample_ground_truth(
    region: Region,
    n_processes: int,
    n_latent: int,
    rng: np.random.Generator,
    grid_per_axis: int = 20,
    phi_range: tuple[float, float] = (0.004, 0.02),
    theta_range: tuple[float, float] = (0.002, 0.01),
    kappa_range: tuple[float, float] = (0.7, 1.6),
    lambda_star_range: tuple[float, float] = (50.0, 100.0),
) -> GroundTruth:
    """Draw one ground truth; ranges are sampled log-uniformly.

    Defaults are scaled for a unit region; pass ranges explicitly for
    anything else.
    """
    grid = latent_grid(region, grid_per_axis)
    phis = _log_uniform(rng, phi_range, n_latent)
    weights = np.zeros((n_latent, grid.size))
    for q in range(n_latent):
        L = LatentFactor(grid, phis[q]).L  # the sampler's factor of the latent Gram matrix
        weights[q] = chol_solve(L, L @ rng.standard_normal(grid.size))
    kappas = _log_uniform(rng, kappa_range, n_processes)
    thetas = _log_uniform(rng, theta_range, n_processes)
    lams = _log_uniform(rng, lambda_star_range, n_processes)
    return GroundTruth(region, grid.nodes, weights, phis, kappas, thetas, lams)


def _log_uniform(rng, bounds, n):
    lo, hi = bounds
    if lo == hi == 0:  # degenerate zero range, e.g. switched-off intensities
        return np.zeros(n)
    if not 0 < lo <= hi:
        raise ValidationError(f"bad positive range {bounds}")
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))


def thin_events(
    intensity,
    lambda_star: float,
    region: Region,
    rng: np.random.Generator,
    process_id: int = 0,
    n_probe: int = 512,
) -> EventSet:
    """Exact draw from an inhomogeneous process by thinning.

    ``intensity`` maps (n, dim) locations to nonnegative rates bounded by
    ``lambda_star``; the bound is spot-checked on random probes first.
    """
    if lambda_star < 0:
        raise ValidationError("lambda_star must be nonnegative")
    if lambda_star > 0 and n_probe > 0:
        probes = region.uniform(n_probe, rng)
        vals = np.asarray(intensity(probes), dtype=float)
        if np.any(vals > lambda_star * (1.0 + 1e-9)):
            raise ValidationError("intensity exceeds its bound on probe points")
    n = rng.poisson(lambda_star * region.volume)
    if n == 0:
        return EventSet(np.zeros((0, region.dim)), process_id)
    candidates = region.uniform(n, rng)
    keep = rng.random(n) * lambda_star < np.asarray(intensity(candidates), dtype=float)
    return EventSet(candidates[keep], process_id)


def sample_events(truth: GroundTruth, rng: np.random.Generator) -> list[EventSet]:
    """One event set per process of a ground truth."""
    out = []
    for d in range(truth.n_processes):
        out.append(
            thin_events(
                lambda X: truth.intensity(d, X),
                float(truth.lambda_stars[d]),
                truth.region,
                rng,
                process_id=d,
            )
        )
    return out


# About how many grid nodes ``low_intensity_fraction`` counts over.
LOW_FRACTION_NODES = 2048


def low_intensity_fraction(truth: GroundTruth) -> float:
    """Fraction of the region where the first process's intensity sits at
    or below half its bound (a bank truth has one process), over a grid of
    about ``LOW_FRACTION_NODES`` nodes."""
    region = truth.region
    per_axis = max(2, int(round(LOW_FRACTION_NODES ** (1.0 / region.dim))))
    X = ProductGrid([np.linspace(lo, hi, per_axis) for lo, hi in zip(region.lower, region.upper)]).nodes
    lam = truth.intensity(0, X)
    return float(np.mean(lam <= 0.5 * truth.lambda_stars[0]))


def make_benchmark_bank(
    n_functions: int,
    region: Region,
    rng: np.random.Generator,
    **truth_kwargs,
) -> list[GroundTruth]:
    """Reproducible single-process test intensities with their recorded
    low-intensity fractions."""
    if n_functions < 1:
        raise ValidationError("n_functions must be at least 1")
    bank = []
    for _ in range(n_functions):
        truth = sample_ground_truth(region, 1, 1, rng, **truth_kwargs)
        truth.low_fraction = low_intensity_fraction(truth)
        bank.append(truth)
    return bank

