"""Generative-sampler tests: analytic smoothing, exact thinning, banks."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expit, logit

from depcox.convolution import latent_grid
from depcox.errors import ValidationError
from depcox.gaussian import ProductGrid, chol_solve, cholesky_with_jitter, gauss_gram
from depcox.generate import (
    GroundTruth,
    low_intensity_fraction,
    make_benchmark_bank,
    sample_events,
    sample_ground_truth,
    thin_events,
)
from depcox.sgcp import Region
from oracles import bump_intensity, gauss_density

UNIT = Region([0.0], [1.0])


def _flat_truth(lam=40.0, n_grid=5):
    grid = np.linspace(-0.1, 1.1, n_grid)[:, None]
    return GroundTruth(
        region=UNIT,
        grid=grid,
        weights=np.zeros((1, n_grid)),
        phis=np.array([0.01]),
        kappas=np.array([1.0]),
        thetas=np.array([0.005]),
        lambda_stars=np.array([lam]),
    )


class TestGroundTruth:
    def test_zero_latent_gives_half_bound(self):
        truth = _flat_truth(lam=40.0)
        X = np.linspace(0, 1, 17)[:, None]
        np.testing.assert_allclose(truth.intensity(0, X), 20.0)

    def test_zero_coupling_gives_half_bound(self):
        truth = _flat_truth()
        truth.kappas = np.array([0.0])
        truth.weights = np.random.default_rng(0).standard_normal((1, 5))
        X = np.linspace(0, 1, 9)[:, None]
        np.testing.assert_allclose(truth.intensity(0, X), 0.5 * truth.lambda_stars[0])

    def test_smoothed_basis_matches_quadrature(self):
        # two basis points with hand-set weights; smoothing done numerically
        grid = np.array([[0.3], [0.7]])
        w = np.array([[1.5, -0.8]])
        kappa, theta, phi = 1.2, 0.01, 0.02
        truth = GroundTruth(UNIT, grid, w, [phi], [kappa], [theta], [30.0])
        rng = np.random.default_rng(1)
        for x in rng.uniform(0, 1, size=10):
            interp = lambda s: w[0, 0] * gauss_density(s, 0.3, phi) + w[0, 1] * gauss_density(s, 0.7, phi)
            numeric, _ = quad(
                lambda s: kappa * gauss_density(x, s, theta) * interp(s), -10, 10, limit=200
            )
            assert truth.g(0, np.array([[x]]))[0] == pytest.approx(numeric, abs=1e-6)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_intensity_on_a_grid_matches_its_nodes(self, dim):
        # a ProductGrid is contracted axis by axis, its nodes through the
        # dense (nodes x basis) Gram matrix: the same sums in another order
        region = Region([0.0] * dim, [1.0] * dim)
        truth = sample_ground_truth(region, 2, 2, np.random.default_rng(dim), grid_per_axis=4)
        grid = ProductGrid([np.linspace(0.0, 1.0, n) for n in (7, 5, 6)[:dim]])
        for d in range(2):
            np.testing.assert_allclose(truth.intensity(d, grid), truth.intensity(d, grid.nodes), rtol=1e-12)

    @pytest.mark.parametrize(
        "grid",
        [
            np.random.default_rng(32).uniform(size=(12, 2)),
            np.stack([m.ravel() for m in np.meshgrid(np.linspace(0, 1, 3), np.linspace(0, 1, 4))], -1),
        ],
        ids=["scattered", "xy-order"],
    )
    def test_non_product_grid_is_rejected(self, grid):
        # a manifest holds the latent grid as nodes; only those of a product
        # grid in ij order give the axes a prediction on a grid runs over
        truth = GroundTruth(Region([0.0, 0.0], [1.0, 1.0]), grid, np.zeros((1, grid.shape[0])),
                            [0.05], [1.0], [0.01], [10.0])
        with pytest.raises(ValidationError, match="product grid"):
            truth.g(0, ProductGrid([np.linspace(0.0, 1.0, 3)] * 2))

    def test_sampled_truth_is_reproducible(self):
        a = sample_ground_truth(UNIT, 3, 1, np.random.default_rng(5))
        b = sample_ground_truth(UNIT, 3, 1, np.random.default_rng(5))
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.lambda_stars, b.lambda_stars)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_weights_come_from_the_latent_gram_factor_bit_for_bit(self, dim):
        # sample_ground_truth draws through LatentFactor.L; the route it
        # replaces factored the nodes' Gram matrix itself
        region = Region([0.0] * dim, [1.0] * dim)
        truth = sample_ground_truth(region, 2, 2, np.random.default_rng(30 + dim), grid_per_axis=8)
        rng = np.random.default_rng(30 + dim)
        phis = np.exp(rng.uniform(np.log(0.004), np.log(0.02), size=2))  # the default phi_range
        assert phis.tobytes() == truth.phis.tobytes()
        nodes = latent_grid(region, 8).nodes
        np.testing.assert_array_equal(truth.grid, nodes)
        for q in range(2):
            L, _ = cholesky_with_jitter(gauss_gram(nodes, nodes, phis[q]))
            want = chol_solve(L, L @ rng.standard_normal(nodes.shape[0]))
            assert truth.weights[q].tobytes() == want.tobytes()


class TestThinEvents:
    def test_zero_intensity_gives_no_events(self):
        ev = thin_events(lambda X: np.zeros(len(X)), 0.0, UNIT, np.random.default_rng(0))
        assert len(ev) == 0

    def test_constant_intensity_mean_count(self):
        rng = np.random.default_rng(2)
        counts = [
            len(thin_events(lambda X: np.full(len(X), 50.0), 50.0, UNIT, rng, n_probe=8))
            for _ in range(1000)
        ]
        assert np.mean(counts) == pytest.approx(50.0, rel=0.05)

    def test_fixed_seed_is_deterministic(self):
        truth = sample_ground_truth(UNIT, 1, 1, np.random.default_rng(3))
        ev_a = thin_events(lambda X: truth.intensity(0, X), truth.lambda_stars[0], UNIT, np.random.default_rng(9))
        ev_b = thin_events(lambda X: truth.intensity(0, X), truth.lambda_stars[0], UNIT, np.random.default_rng(9))
        np.testing.assert_array_equal(ev_a.points, ev_b.points)

    def test_all_events_inside_region(self):
        rng = np.random.default_rng(4)
        truth = sample_ground_truth(UNIT, 2, 1, rng)
        for ev in sample_events(truth, rng):
            assert UNIT.contains(ev.points).all()

    def test_bound_violation_raises(self):
        with pytest.raises(ValidationError):
            thin_events(lambda X: np.full(len(X), 10.0), 5.0, UNIT, np.random.default_rng(0))

    def test_disjoint_counts_behave_like_poisson(self):
        # four equal cells: variance tracks the mean, correlations vanish
        truth = sample_ground_truth(UNIT, 1, 1, np.random.default_rng(6))
        rng = np.random.default_rng(7)
        edges = np.linspace(0, 1, 5)
        counts = np.empty((1000, 4))
        for i in range(1000):
            ev = thin_events(lambda X: truth.intensity(0, X), truth.lambda_stars[0], UNIT, rng, n_probe=0)
            counts[i] = np.histogram(ev.points[:, 0], bins=edges)[0]
        means = counts.mean(axis=0)
        ratios = counts.var(axis=0) / means
        assert np.all((ratios > 0.85) & (ratios < 1.15))
        corr = np.corrcoef(counts.T)
        off = corr[~np.eye(4, dtype=bool)]
        assert np.max(np.abs(off)) < 0.1


class TestBenchmarkBank:
    def test_count_and_determinism(self):
        bank_a = make_benchmark_bank(10, UNIT, np.random.default_rng(8))
        bank_b = make_benchmark_bank(10, UNIT, np.random.default_rng(8))
        assert len(bank_a) == 10
        for a, b in zip(bank_a, bank_b):
            np.testing.assert_array_equal(a.weights, b.weights)
            assert a.low_fraction == b.low_fraction
        weights = [tuple(t.weights.ravel()) for t in bank_a]
        assert len(set(weights)) == 10

    def test_low_fraction_for_constant_quarter(self):
        stub = SimpleNamespace(
            region=UNIT,
            lambda_stars=np.array([40.0]),
            intensity=lambda d, X: np.full(len(X), 10.0),
        )
        assert low_intensity_fraction(stub) == pytest.approx(1.0)

    def test_low_fraction_for_constant_three_quarters(self):
        stub = SimpleNamespace(
            region=UNIT,
            lambda_stars=np.array([40.0]),
            intensity=lambda d, X: np.full(len(X), 30.0),
        )
        assert low_intensity_fraction(stub) == pytest.approx(0.0)

    def test_bump_intensity_respects_bound(self):
        rng = np.random.default_rng(10)
        intensity, lam = bump_intensity(UNIT, rng, lambda_star=25.0)
        X = np.linspace(0, 1, 500)[:, None]
        vals = intensity(X)
        assert np.all(vals >= 0) and np.all(vals <= lam)
