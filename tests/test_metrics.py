"""Metric tests: quadrature, likelihoods, L2 and the density baseline."""

import warnings

import numpy as np
import pytest

from depcox.errors import ValidationError
from depcox.gaussian import ProductGrid
from depcox.metrics import (
    Quadrature,
    diffusion_bandwidth,
    kde_intensity,
    l2_error,
    log_mean_exp,
    predictive_loglik,
    sample_logliks,
)
from depcox.sgcp import Region
from oracles import gauss_density, poisson_loglik

UNIT = Region([0.0], [1.0])


class TestQuadrature:
    def test_weights_sum_to_volume_1d(self):
        quad = Quadrature.for_region(UNIT, 512)
        assert quad.weights.sum() == pytest.approx(1.0, rel=1e-9)

    def test_weights_sum_to_volume_2d(self):
        region = Region([0.0, -1.0], [2.0, 1.0])
        quad = Quadrature.for_region(region, 64)
        assert quad.weights.sum() == pytest.approx(4.0, rel=1e-9)

    def test_default_resolutions(self):
        assert Quadrature.for_region(UNIT).weights.size == 512
        assert Quadrature.for_region(Region([0, 0], [1, 1])).weights.size == 64 * 64

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_weights_are_the_row_products_of_the_axis_weight_grid(self, dim):
        # bit for bit the row products of the (n, dim) grid of axis weights
        region = Region([0.0, -1.0, 0.5][:dim], [2.0, 1.0, 0.8][:dim])
        quad = Quadrature.for_region(region, 7)
        axis_w = []
        for lo, hi in zip(region.lower, region.upper):
            w = np.full(7, (hi - lo) / 6)
            w[[0, -1]] *= 0.5
            axis_w.append(w)
        np.testing.assert_array_equal(quad.weights, ProductGrid(axis_w).nodes.prod(axis=1))
        assert quad.weights.size == quad.grid.nodes.shape[0]


class TestSampleLogliks:
    """The one-pass scorer against a loop of ``oracles.poisson_loglik``,
    and on hand values."""

    def test_constant_intensity_hand_value(self):
        quad = Quadrature.for_region(UNIT, 256)
        ll = sample_logliks([[2.0, 2.0]], quad.integrate([np.full(quad.weights.size, 2.0)]))
        assert ll[0] == pytest.approx(-2.0 + 2.0 * np.log(2.0), abs=1e-9)

    def test_invariant_under_event_reordering(self):
        quad = Quadrature.for_region(UNIT, 128)
        integrals = quad.integrate(np.stack([1.0 + quad.grid.nodes[:, 0]] * 2))
        a, b = sample_logliks([[1.2, 1.7, 1.05], [1.05, 1.2, 1.7]], integrals)
        assert a == pytest.approx(b, rel=1e-14)

    def test_refinement_changes_little_for_smooth_intensity(self):
        lam = lambda x: 2.0 + np.sin(2 * np.pi * x)
        lls = []
        for res in (256, 512):
            quad = Quadrature.for_region(UNIT, res)
            lls.append(sample_logliks([[lam(0.3)]], quad.integrate([lam(quad.grid.nodes[:, 0])]))[0])
        assert abs(lls[1] - lls[0]) < 1e-3 * abs(lls[0])

    @pytest.mark.parametrize("dim,n_events", [(1, 7), (2, 4), (1, 0)])
    def test_equals_a_loop_of_poisson_loglik(self, dim, n_events):
        rng = np.random.default_rng([dim, n_events])
        quad = Quadrature.for_region(Region([0.0] * dim, [1.0] * dim), 33 if dim == 1 else 9)
        on_grid = rng.uniform(0.1, 80.0, size=(6, quad.weights.size))
        at_events = rng.uniform(0.1, 80.0, size=(6, n_events))
        got = sample_logliks(at_events, quad.integrate(on_grid))
        want = [poisson_loglik(ev, gr, quad.weights) for ev, gr in zip(at_events, on_grid)]
        assert got.shape == (6,)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_strided_rows_of_a_larger_array(self):
        # as eval passes them: each process's columns of (S, D, nodes + events)
        rng = np.random.default_rng(3)
        quad = Quadrature.for_region(UNIT, 17)
        lams = rng.uniform(0.5, 5.0, size=(4, 2, quad.weights.size + 3))
        grid, events = lams[:, 1, : quad.weights.size], lams[:, 1, quad.weights.size :]
        want = [poisson_loglik(ev, gr, quad.weights) for ev, gr in zip(events, grid)]
        np.testing.assert_allclose(sample_logliks(events, quad.integrate(grid)), want, rtol=1e-12, atol=0)

    def test_empty_event_set_scores_minus_the_integral(self):
        quad = Quadrature.for_region(UNIT, 64)
        on_grid = np.stack([np.full(quad.weights.size, c) for c in (1.0, 2.5)])
        got = sample_logliks(np.zeros((2, 0)), quad.integrate(on_grid))
        np.testing.assert_allclose(got, -(on_grid @ quad.weights), rtol=1e-15)
        np.testing.assert_allclose(got, [-1.0, -2.5], rtol=1e-12)

    @pytest.mark.parametrize("zero", [0.0, -1e-13], ids=["zero", "negative-rounding"])
    def test_zero_event_intensity_scores_minus_inf_without_warning(self, zero):
        quad = Quadrature.for_region(UNIT, 64)
        on_grid = np.ones((3, quad.weights.size))
        at_events = np.array([[1.0, 2.0], [zero, 2.0], [3.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sample_logliks(at_events, quad.integrate(on_grid))
        assert got[1] == -np.inf
        np.testing.assert_allclose(got[[0, 2]], [-1.0 + np.log(2.0), -1.0 + np.log(3.0)], rtol=1e-12)

    @pytest.mark.parametrize("where", ["grid", "events"])
    def test_negative_intensity_in_any_sample_raises(self, where):
        quad = Quadrature.for_region(UNIT, 64)
        on_grid, at_events = np.ones((3, quad.weights.size)), np.ones((3, 2))
        (on_grid if where == "grid" else at_events)[2, 1] = -0.5
        with pytest.raises(ValidationError, match="nonnegative"):
            sample_logliks(at_events, quad.integrate(on_grid))

    def test_grid_of_the_wrong_size_raises(self):
        quad = Quadrature.for_region(UNIT, 64)
        with pytest.raises(ValidationError, match="quadrature"):
            sample_logliks(np.ones((2, 1)), quad.integrate(np.ones((2, quad.weights.size + 1))))


class TestPredictiveLoglik:
    def _const_sample(self, quad, c):
        return np.array([c]), np.full(quad.weights.size, c)

    def test_single_sample_equals_poisson_loglik(self):
        quad = Quadrature.for_region(UNIT, 128)
        ev, grid = self._const_sample(quad, 2.0)
        assert predictive_loglik(sample_logliks([ev], quad.integrate([grid]))) == pytest.approx(
            poisson_loglik(ev, grid, quad.weights), rel=1e-12
        )

    def test_identical_samples_equal_common_value(self):
        quad = Quadrature.for_region(UNIT, 128)
        ev, grid = self._const_sample(quad, 1.5)
        got = predictive_loglik(sample_logliks([ev, ev, ev], quad.integrate([grid, grid, grid])))
        assert got == pytest.approx(poisson_loglik(ev, grid, quad.weights), rel=1e-12)

    def test_log_mean_exp_hand_value(self):
        # likelihoods a and a + ln 3 average to a + ln 2
        quad = Quadrature.for_region(UNIT, 128)
        c1 = 2.0
        c2 = c1 - np.log(3.0)  # no events: loglik = -c
        grids = [np.full(quad.weights.size, c) for c in (c1, c2)]
        evs = [np.zeros(0), np.zeros(0)]
        got = predictive_loglik(sample_logliks(evs, quad.integrate(grids)))
        assert got == pytest.approx(-c1 + np.log(2.0), abs=1e-9)

    def test_bounded_by_sample_extremes(self):
        rng = np.random.default_rng(0)
        quad = Quadrature.for_region(UNIT, 128)
        evs, grids = [], []
        for _ in range(6):
            c = rng.uniform(0.5, 4.0)
            evs.append(np.array([c, c]))
            grids.append(np.full(quad.weights.size, c))
        lls = sample_logliks(evs, quad.integrate(grids))
        pred = predictive_loglik(lls)
        assert lls.min() <= pred <= lls.max()

    def test_all_impossible_flags_minus_inf(self):
        quad = Quadrature.for_region(UNIT, 64)
        with pytest.warns(UserWarning):
            got = predictive_loglik(sample_logliks([np.zeros(1)], quad.integrate([np.ones(quad.weights.size)])))
        assert got == -np.inf


class TestL2Error:
    def test_identical_is_zero(self):
        quad = Quadrature.for_region(UNIT, 256)
        lam = 1.0 + quad.grid.nodes[:, 0] ** 2
        assert l2_error(lam, lam, quad) == 0.0

    def test_unit_offset_on_unit_interval(self):
        quad = Quadrature.for_region(UNIT, 256)
        lam = 1.0 + np.sin(quad.grid.nodes[:, 0])
        assert l2_error(lam + 1.0, lam, quad) == pytest.approx(1.0, rel=1e-9)

    def test_offset_scales_linearly(self):
        quad = Quadrature.for_region(UNIT, 256)
        lam = np.ones(quad.weights.size)
        assert l2_error(lam + 2.0, lam, quad) == pytest.approx(2.0, rel=1e-9)

    def test_shape_mismatch_raises(self):
        quad = Quadrature.for_region(UNIT, 64)
        with pytest.raises(ValidationError):
            l2_error(np.ones(10), np.ones(10), quad)


def _solved(X):
    """The bandwidths ``cli._kde_rows`` solves: one diffusion bandwidth per axis."""
    return [diffusion_bandwidth(x) for x in X.T]


class TestKdeIntensity:
    def _clustered(self, rng, n=400):
        x = 0.5 + 0.07 * rng.standard_normal(n)
        return x[(x > 0.02) & (x < 0.98)][:, None]

    def test_integral_close_to_count(self):
        rng = np.random.default_rng(1)
        X = self._clustered(rng)
        quad = Quadrature.for_region(UNIT, 512)
        lam = kde_intensity(X, quad.grid, _solved(X))
        assert quad.weights @ lam == pytest.approx(len(X), rel=0.02)

    def test_mode_at_cluster_center(self):
        rng = np.random.default_rng(2)
        X = (0.37 + 0.01 * rng.standard_normal(200))[:, None]
        quad = Quadrature.for_region(UNIT, 512)
        lam = kde_intensity(X, quad.grid, _solved(X))
        cell = 1.0 / 511
        assert abs(quad.grid.nodes[np.argmax(lam), 0] - X.mean()) <= cell

    def test_duplicated_events_double_output_at_fixed_bandwidth(self):
        rng = np.random.default_rng(3)
        X = self._clustered(rng, n=100)
        quad = Quadrature.for_region(UNIT, 256)
        lam1 = kde_intensity(X, quad.grid, bandwidths=[0.05])
        lam2 = kde_intensity(np.vstack([X, X]), quad.grid, bandwidths=[0.05])
        np.testing.assert_allclose(lam2, 2.0 * lam1, rtol=1e-10)

    def test_needs_two_events(self):
        quad = Quadrature.for_region(UNIT, 64)
        with pytest.raises(ValidationError):
            kde_intensity(np.array([[0.5]]), quad.grid, [0.1])

    def test_2d_integral_close_to_count(self):
        rng = np.random.default_rng(4)
        pts = 0.5 + 0.08 * rng.standard_normal((300, 2))
        pts = pts[np.all((pts > 0.05) & (pts < 0.95), axis=1)]
        region = Region([0.0, 0.0], [1.0, 1.0])
        quad = Quadrature.for_region(region, 64)
        lam = kde_intensity(pts, quad.grid, _solved(pts))
        assert quad.weights @ lam == pytest.approx(len(pts), rel=0.02)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_at_points_is_the_sum_of_per_axis_densities_over_events(self, dim):
        rng = np.random.default_rng(dim)
        X, T = rng.uniform(size=(30, dim)), rng.uniform(size=(17, dim))
        h = [0.07, 0.2, 0.12][:dim]
        want = [sum(np.prod([gauss_density(t[a], x[a], h[a] ** 2) for a in range(dim)]) for x in X)
                for t in T]
        np.testing.assert_allclose(kde_intensity(X, T, h), want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_at_a_grid_is_its_value_at_the_grid_nodes(self, dim):
        rng = np.random.default_rng(dim)
        X = rng.uniform(size=(25, dim))
        grid = ProductGrid([np.linspace(0.0, 1.0, n) for n in (9, 6, 4)[:dim]])
        for h in ([0.05, 0.3, 0.1][:dim], _solved(X)):
            np.testing.assert_allclose(kde_intensity(X, grid, h), kde_intensity(X, grid.nodes, h),
                                       rtol=1e-12, atol=0)

    def test_targets_of_another_dimension_raise(self):
        X = np.random.default_rng(0).uniform(size=(5, 2))
        for targets in (Quadrature.for_region(UNIT, 8).grid, np.zeros((3, 1)), np.zeros((3, 3))):
            with pytest.raises(ValidationError, match="dimension"):
                kde_intensity(X, targets, [0.1, 0.1])

    @pytest.mark.parametrize("bandwidths", [[0.1], [0.1, 0.2, 0.3]])
    def test_one_bandwidth_per_axis(self, bandwidths):
        X = np.random.default_rng(0).uniform(size=(5, 2))
        with pytest.raises(ValidationError, match="one bandwidth per axis"):
            kde_intensity(X, X, bandwidths)


class TestDiffusionBandwidth:
    def test_reasonable_for_gaussian_sample(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(1000)
        h = diffusion_bandwidth(x)
        # the asymptotically optimal bandwidth for a unit normal is
        # (4/3)^0.2 * n^-0.2 ~ 0.266 at n = 1000
        assert 0.1 < h < 0.5

    def test_bimodal_bandwidth_smaller_than_silverman(self):
        rng = np.random.default_rng(6)
        x = np.concatenate([rng.normal(-2, 0.2, 500), rng.normal(2, 0.2, 500)])
        h = diffusion_bandwidth(x)
        silverman = 0.9 * min(x.std(ddof=1), np.subtract(*np.percentile(x, [75, 25])) / 1.34) * len(x) ** -0.2
        assert h < silverman

    def test_log_mean_exp_matches_direct(self):
        vals = np.array([-1000.0, -1000.0 + np.log(3.0)])
        assert log_mean_exp(vals) == pytest.approx(-1000.0 + np.log(2.0), abs=1e-9)
