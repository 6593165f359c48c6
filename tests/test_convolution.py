"""Coupling-module tests against dense-conditioning and quadrature oracles."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import block_diag

from depcox.convolution import (
    ConvolutionPrior,
    LatentFactor,
    independent_prior,
    latent_grid,
    latent_logpost,
    latent_posterior,
    phi_mh_update,
    sample_latent_posterior,
)
import depcox.convolution
from depcox.errors import ValidationError
from depcox.gaussian import (
    JITTER_SCALE,
    ProductGrid,
    cholesky_with_jitter,
    gauss_gram,
    gauss_gram_dv,
    gram_matvec,
    mvn_sample,
    sq_norm,
)
from depcox.sgcp import AugmentedState, GpContext, Region
from oracles import (
    FixedFunctionPrior,
    Mvn,
    cross_cov,
    floored_diag_indices,
    gauss_density,
    latent_prior,
    mvn_logpdf,
    output_cov,
    reversed_factor_cov,
    site_and_row,
)


def _jittered(K):
    return K + JITTER_SCALE * np.trace(K) / len(K) * np.eye(len(K))


def _floored(D, kappa, theta, phis, dim=1):
    # mirror of the cancellation floor the conditional prior applies
    marginal = kappa**2 * sum((2 * np.pi * (2 * theta + phi)) ** (-0.5 * dim) for phi in phis)
    return D + 1e-12 * marginal * np.eye(len(D))


def _joint_blocks(X_list, prior, kappas, thetas):
    """Dense joint covariance over (g_1 ... g_D, u) for small oracles.

    Built exactly as the model implies: g_d = A_d u + residual with the
    residual independent across processes.
    """
    Q, J = prior.values.shape
    grid, phis = prior.grid.nodes, prior.phis
    K_uu = np.zeros((Q * J, Q * J))
    for q in range(Q):
        K_uu[q * J : (q + 1) * J, q * J : (q + 1) * J] = _jittered(
            gauss_gram(grid, grid, phis[q])
        )
    A_list, D_list = [], []
    for d, X in enumerate(X_list):
        K_gu = np.hstack(
            [
                kappas[d] * gauss_gram(X, grid, thetas[d] + phis[q])
                for q in range(Q)
            ]
        )
        A = K_gu @ np.linalg.inv(K_uu)
        K_gg = np.zeros((len(X), len(X)))
        for q in range(Q):
            K_gg += kappas[d] ** 2 * gauss_gram(X, X, 2 * thetas[d] + phis[q])
        D = K_gg - A @ K_gu.T
        A_list.append(A)
        D_list.append(D)
    return K_uu, A_list, D_list


class TestCrossCov:
    def test_hand_value(self):
        # kappa * N(0; 0, theta + phi) with theta + phi = 1
        assert cross_cov(0.0, 0.0, 2.0, 0.3, 0.7) == pytest.approx(2.0 / np.sqrt(2 * np.pi))

    def test_zero_scale(self):
        assert cross_cov(0.4, 0.1, 0.0, 0.3, 0.7) == 0.0

    def test_vanishes_in_the_tail(self):
        assert cross_cov(100.0, 0.0, 1.0, 0.3, 0.7) < 1e-300

    def test_rejects_bad_variances(self):
        with pytest.raises(ValidationError):
            cross_cov(0.0, 0.0, 1.0, -0.1, 0.7)


class TestOutputCov:
    def test_hand_value(self):
        got = output_cov(0.0, 0.0, 0, 0, [1.0], [0.5], [1.0])
        assert got == pytest.approx(gauss_density(0.0, 0.0, 2.0), rel=1e-12)

    def test_symmetry(self):
        kappas, thetas = [1.3, 0.7], [0.2, 0.4]
        a = output_cov(0.3, -0.5, 0, 1, kappas, thetas, [0.5, 1.1])
        b = output_cov(-0.5, 0.3, 1, 0, kappas, thetas, [0.5, 1.1])
        assert a == pytest.approx(b, rel=1e-14)

    def test_duplicate_latents_double_the_value(self):
        one = output_cov(0.1, 0.4, 0, 0, [1.0], [0.5], [0.8])
        two = output_cov(0.1, 0.4, 0, 0, [1.0], [0.5], [0.8, 0.8])
        assert two == pytest.approx(2 * one, rel=1e-14)


class TestLatentGrid:
    def test_1d_span_and_count(self):
        region = Region([0.0], [1.0])
        grid = latent_grid(region, 20).nodes
        assert grid.shape == (20, 1)
        assert grid[0, 0] == pytest.approx(-0.1)
        assert grid[-1, 0] == pytest.approx(1.1)

    def test_2d_size(self):
        region = Region([0.0, 0.0], [1.0, 2.0])
        grid = latent_grid(region, 8).nodes
        assert grid.shape == (64, 2)


class TestConditionalPrior:
    def test_zero_latent_gives_zero_mean(self):
        grid = np.linspace(0, 1, 5)[:, None]
        prior = latent_prior(grid, np.zeros((1, 5)), [0.05])
        X = np.linspace(0.1, 0.9, 7)[:, None]
        np.testing.assert_array_equal(prior.mean(X, prior.project(X, 0.02), 1.3), np.zeros(7))

    def test_matches_dense_joint_conditioning(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            grid = np.sort(rng.uniform(0, 1, size=3))[:, None]
            phi = rng.uniform(0.05, 0.3)
            u = rng.standard_normal(3)
            prior = latent_prior(grid, u[None, :], [phi])
            kappa, theta = rng.uniform(0.5, 2.0), rng.uniform(0.02, 0.2)
            X = rng.uniform(0, 1, size=(4, 1))
            m, C = prior.mean_cov(X, kappa, theta, prior.project(X, theta))

            K_uu, A_list, D_list = _joint_blocks([X], prior, [kappa], [theta])
            np.testing.assert_allclose(m, A_list[0] @ u, atol=1e-8)
            np.testing.assert_allclose(C, D_list[0], atol=1e-8)

    def test_delta_kernel_limit_recovers_latent(self):
        rng = np.random.default_rng(1)
        grid = np.linspace(0, 1, 3)[:, None]
        u = rng.standard_normal(3)
        prior = latent_prior(grid, u[None, :], [0.05])
        m = prior.mean(grid, prior.project(grid, 1e-6), 1.0)
        assert np.max(np.abs(m - u)) < 1e-2

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        grid = np.linspace(0, 1, 4)[:, None]
        prior = latent_prior(grid, rng.standard_normal((1, 4)), [0.1])
        X = rng.uniform(0, 1, size=(5, 1))
        kappa, theta = 1.2, 0.07
        m, C, dm, dC = prior.mean_cov_grads(X, kappa, theta)
        h = 1e-6
        for i, (dk, dt) in enumerate([(h, 0.0), (0.0, h)]):
            kp, tp = kappa * np.exp(dk), theta * np.exp(dt)
            km, tm = kappa * np.exp(-dk), theta * np.exp(-dt)
            m_p, C_p = prior.mean_cov(X, kp, tp, prior.project(X, tp))
            m_m, C_m = prior.mean_cov(X, km, tm, prior.project(X, tm))
            np.testing.assert_allclose(dm[i], (m_p - m_m) / (2 * h), atol=1e-5)
            np.testing.assert_allclose(dC[i], (C_p - C_m) / (2 * h), atol=1e-5)

    def test_extend_matches_projected_cross_covariance(self):
        rng = np.random.default_rng(10)
        grid = latent_grid(Region([0.0, 0.0], [1.0, 1.0]), 4)
        coupled = latent_prior(grid, rng.standard_normal((2, 16)), [0.02, 0.05])
        kappa, theta = 0.9, 0.01
        pts, X = rng.uniform(size=(6, 2)), rng.uniform(size=(9, 2))
        a = rng.standard_normal(6)
        for prior in (coupled, independent_prior(0.02, 2)):
            W = prior.project(pts, theta)
            WX = prior.project(X, theta)
            want = prior.mean(X, WX, kappa) + prior.cov(X, WX, pts, W, kappa, theta) @ a
            np.testing.assert_allclose(prior.extend(X, pts, W, a, kappa, theta), want, rtol=1e-9, atol=1e-12)

    def test_site_matches_projection_and_mean_cov(self):
        rng = np.random.default_rng(11)
        grid = latent_grid(Region([0.0, 0.0], [1.0, 1.0]), 4)
        coupled = latent_prior(grid, rng.standard_normal((2, 16)), [0.02, 0.05])
        kappa, theta = 0.9, 0.01
        priors = (
            coupled,
            independent_prior(0.02, 2),
            FixedFunctionPrior(lambda X: X[:, 0] - X[:, 1], dim=2),
        )
        pts = rng.uniform(size=(3, 2))
        for x in rng.uniform(size=(5, 1, 2)):
            for prior in priors:
                Wp = prior.project(pts, theta)
                w, m, var, _ = prior.site(x, sq_norm(x), pts, (pts * pts).sum(1), Wp, prior.site_scalars(kappa, theta))
                W = prior.project(x, theta)
                m1, C1 = prior.mean_cov(x, kappa, theta, W)
                np.testing.assert_allclose(w, W, rtol=1e-12, atol=0)
                assert m == pytest.approx(m1[0], rel=1e-12, abs=1e-14)
                assert var == pytest.approx(C1[0, 0], rel=1e-10, abs=1e-14)

    def test_independent_prior_grads(self):
        rng = np.random.default_rng(3)
        prior = independent_prior(0.05, 1)
        X = rng.uniform(0, 1, size=(4, 1))
        kappa, theta = 0.8, 0.03
        _, C, _, dC = prior.mean_cov_grads(X, kappa, theta)
        h = 1e-6
        W = prior.project(X, theta)  # empty: an independent prior has no latent grid
        _, C_p = prior.mean_cov(X, kappa, theta * np.exp(h), W)
        _, C_m = prior.mean_cov(X, kappa, theta * np.exp(-h), W)
        np.testing.assert_allclose(dC[1], (C_p - C_m) / (2 * h), atol=1e-5)
        np.testing.assert_allclose(dC[0], 2 * C, atol=1e-12)


class TestEmptyGrid:
    """The prior on an empty latent grid gives the closed forms of the
    independent model, a zero-mean GP with covariance ``kappa^2 N(x; x',
    2 theta + phi0)``, bit for bit and with no floor."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_the_independent_closed_forms(self, dim):
        rng = np.random.default_rng(60 + dim)
        phi0, kappa, theta = 0.03, 1.3, 0.02
        v = 2.0 * theta + phi0
        prior = independent_prior(phi0, dim)
        X, pts, a = rng.uniform(size=(7, dim)), rng.uniform(size=(5, dim)), rng.standard_normal(5)
        W, WX = prior.project(pts, theta), prior.project(X, theta)
        assert W.shape == (0, 5) and WX.shape == (0, 7)

        zeros = np.zeros(7).tobytes()
        m, C = prior.mean_cov(X, kappa, theta, WX)
        C0 = kappa**2 * gauss_gram(X, X, v)
        assert m.tobytes() == zeros and C.tobytes() == C0.tobytes()

        x = X[:1]
        w, mean, var, ks = prior.site(x, sq_norm(x), pts, (pts * pts).sum(1), W, prior.site_scalars(kappa, theta))
        assert w.shape == (0, 1) and np.float64(mean).tobytes() == np.float64(0.0).tobytes()
        assert var == kappa**2 * (2.0 * np.pi * v) ** (-0.5 * dim)
        assert ks.tobytes() == (kappa**2 * gauss_gram(x, pts, v)).ravel().tobytes()

        m, C, dm, dC = prior.mean_cov_grads(X, kappa, theta)
        G, dG = gauss_gram_dv(X, X, v)
        C0 = kappa**2 * G
        assert m.tobytes() == dm[0].tobytes() == dm[1].tobytes() == zeros
        assert C.tobytes() == C0.tobytes()
        assert dC[0].tobytes() == (2.0 * C0).tobytes()
        assert dC[1].tobytes() == (kappa**2 * theta * 2.0 * dG).tobytes()

        target = ProductGrid([np.linspace(0.0, 1.0, 3 + k) for k in range(dim)])
        for T in (X, target):  # equal up to the sign of zero
            np.testing.assert_array_equal(prior.extend(T, pts, W, a, kappa, theta),
                                          kappa**2 * gram_matvec(T, pts, v, a))


class TestSite:
    """``site`` gives what the projection, mean and covariance route
    (``oracles.site_and_row``) gives for a one-point set, byte for byte."""

    @pytest.mark.parametrize("n", [0, 1, 2, 50])
    @pytest.mark.parametrize("n_latent", [1, 2])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_the_projection_and_covariance_route(self, dim, n_latent, n):
        rng = np.random.default_rng(100 * dim + 10 * n_latent + n)
        grid = latent_grid(Region(np.zeros(dim), np.ones(dim)), 6 if dim < 3 else 3)
        coupled = latent_prior(
            grid, rng.standard_normal((n_latent, grid.size)), rng.uniform(0.01, 0.05, n_latent)
        )
        kappa, theta = rng.uniform(0.5, 2.0), rng.uniform(0.005, 0.05)
        pts = rng.uniform(-0.1, 1.1, size=(n, dim))
        for prior in (coupled, independent_prior(0.02, dim)):
            W = prior.project(pts, theta)
            for x in rng.uniform(-0.1, 1.1, size=(4, 1, dim)):
                got = prior.site(x, sq_norm(x), pts, (pts * pts).sum(1), W, prior.site_scalars(kappa, theta))
                want = site_and_row(prior, x, pts, W, kappa, theta)
                for a, b in zip(got, want):
                    assert np.shape(a) == np.shape(b)
                    assert np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_floor_through_the_diagonal_view_matches_diag_indices(self, dim):
        rng = np.random.default_rng(40 + dim)
        grid = latent_grid(Region(np.zeros(dim), np.ones(dim)), 4)
        prior = latent_prior(grid, rng.standard_normal((2, grid.size)), [0.02, 0.04])
        X = rng.uniform(size=(9, dim))
        C = prior.cov(X, prior.project(X, 0.01), X, prior.project(X, 0.01), 1.3, 0.01)
        C += 1e-13 * rng.standard_normal(C.shape)  # not exactly symmetric
        want = floored_diag_indices(prior, C.copy(), 1.3, 0.01)
        assert prior._floored(C.copy(), 1.3, 0.01).tobytes() == want.tobytes()


class TestPerAxisFactor:
    """The per-axis eigenfactors give what the dense factor of the same
    ``K + jI`` gives, to 1e-10 relative."""

    KAPPA, THETA = 0.9, 0.015
    GRIDS = {
        "1d-unsorted": ProductGrid([np.random.default_rng(30).permutation(np.linspace(-0.1, 1.1, 7))]),
        "2d-4x5": ProductGrid([np.linspace(-0.1, 1.1, 4), np.linspace(0.0, 1.0, 5)]),
        "3d-3x4x2": ProductGrid(
            [np.linspace(0.0, 1.0, 3), np.linspace(-0.1, 1.1, 4), np.array([0.2, 0.7])]
        ),
    }

    @staticmethod
    def _close(got, want, rel=1e-10):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= rel * np.max(np.abs(want), initial=0.0)

    def _setup(self, name, phis):
        grid = self.GRIDS[name]
        rng = np.random.default_rng(31)
        prior = latent_prior(grid, rng.standard_normal((len(phis), grid.size)), phis)
        nodes = grid.nodes
        lo, hi = nodes.min(axis=0), nodes.max(axis=0)
        X = rng.uniform(lo, hi, size=(6, grid.dim))
        # dense oracle: K_q + jI with the jitter cholesky_with_jitter adds
        Ks = [_jittered(gauss_gram(nodes, nodes, phi)) for phi in phis]
        return prior, nodes, X, Ks, rng

    def _dense_project(self, prior, Ks, X, theta):
        return np.concatenate(
            [np.linalg.solve(np.linalg.cholesky(K), gauss_gram(prior.grid.nodes, X, theta + phi))
             for K, phi in zip(Ks, prior.phis)]
        )

    CASES = [("1d-unsorted", (0.04,)), ("2d-4x5", (0.05,)), ("3d-3x4x2", (0.06,)),
             ("2d-4x5", (0.03, 0.08))]

    @pytest.mark.parametrize("name,phis", CASES)
    def test_projection_site_coupling_and_extend(self, name, phis):
        prior, nodes, X, Ks, rng = self._setup(name, phis)
        kappa, theta = self.KAPPA, self.THETA
        W = prior.project(X, theta)
        Wd = self._dense_project(prior, Ks, X, theta)
        self._close(W.T @ W, Wd.T @ Wd)
        alphas = [np.linalg.solve(K, u) for K, u in zip(Ks, prior.values)]
        for a, want in zip(prior._alphas, alphas):
            self._close(a, want)
        mean = kappa * sum(gauss_gram(X, nodes, theta + phi) @ a
                           for phi, a in zip(prior.phis, alphas))
        x = X[:1]
        w, m, var, _ = prior.site(x, sq_norm(x), X, (X * X).sum(1), W, prior.site_scalars(kappa, theta))
        marginal = prior._marginal_var(kappa, theta)
        self._close(w.T @ W, Wd[:, :1].T @ Wd)
        self._close(m, mean[0])
        self._close(var, marginal - kappa**2 * float(Wd[:, 0] @ Wd[:, 0]) + 1e-12 * marginal)
        A = np.hstack([kappa * gauss_gram(X, nodes, theta + phi) @ np.linalg.inv(K)
                       for K, phi in zip(Ks, prior.phis)])
        self._close(prior.coupling_matrix(W, kappa), A)
        a = rng.standard_normal(X.shape[0])
        T = rng.uniform(X.min(axis=0), X.max(axis=0), size=(5, X.shape[1]))
        G = sum(gauss_gram(T, X, 2 * theta + phi) for phi in prior.phis)
        Wt = self._dense_project(prior, Ks, T, theta)
        want = kappa * sum(gauss_gram(T, nodes, theta + phi) @ al
                           for phi, al in zip(prior.phis, alphas))
        want = want + kappa**2 * (G - Wt.T @ Wd) @ a
        self._close(prior.extend(T, X, W, a, kappa, theta), want)

    @pytest.mark.parametrize("name,phis", CASES)
    def test_latent_logpost_matches_dense_density(self, name, phis):
        prior, nodes, _, _, _ = self._setup(name, phis)
        J = nodes.shape[0]
        for f, u in zip(prior.factors, prior.values):
            K = gauss_gram(nodes, nodes, f.phi)
            z = (np.log(f.phi) - 0.1) / 0.7
            want = mvn_logpdf(u, Mvn(np.zeros(J), K)) + 0.5 * J * np.log(2 * np.pi) - 0.5 * z * z
            self._close(latent_logpost(f, u, 0.1, 0.7), want)

    @pytest.mark.parametrize("name,phis", CASES)
    def test_prediction_on_a_product_grid_is_prediction_at_its_nodes(self, name, phis):
        prior, nodes, X, Ks, rng = self._setup(name, phis)
        kappa, theta = self.KAPPA, self.THETA
        W = prior.project(X, theta)
        a = rng.standard_normal(X.shape[0])
        lo, hi = nodes.min(axis=0), nodes.max(axis=0)
        T = ProductGrid([np.linspace(l, h, n) for l, h, n in zip(lo, hi, (9, 4, 6))])
        self._close(prior.extend(T, X, W, a, kappa, theta),
                    prior.extend(T.nodes, X, W, a, kappa, theta), rel=1e-12)
        self._close(prior.latent_interpolant(T), prior.latent_interpolant(T.nodes), rel=1e-12)
        alphas = [np.linalg.solve(K, u) for K, u in zip(Ks, prior.values)]
        want = np.stack([gauss_gram(T.nodes, nodes, phi) @ al
                         for phi, al in zip(prior.phis, alphas)])
        self._close(prior.latent_interpolant(T), want)

    @pytest.mark.parametrize("name,phis", CASES)
    def test_mean_cov_grads_match_dense_formulas(self, name, phis):
        prior, nodes, X, Ks, _ = self._setup(name, phis)
        kappa, theta = self.KAPPA, self.THETA
        m, C, dm, dC = prior.mean_cov_grads(X, kappa, theta)
        n = X.shape[0]
        m_w, dm_t, C_w, dC_t = np.zeros(n), np.zeros(n), np.zeros((n, n)), np.zeros((n, n))
        for K, phi, u in zip(Ks, prior.phis, prior.values):
            U, dU = gauss_gram_dv(X, nodes, theta + phi)
            G, dG = gauss_gram_dv(X, X, 2 * theta + phi)
            alpha = np.linalg.solve(K, u)
            m_w += U @ alpha
            dm_t += dU @ alpha
            C_w += G - U @ np.linalg.solve(K, U.T)
            dC_t += 2 * dG - dU @ np.linalg.solve(K, U.T) - U @ np.linalg.solve(K, dU.T)
        self._close(m, kappa * m_w)
        self._close(dm, np.stack([kappa * m_w, kappa * theta * dm_t]))
        # C is a difference of same-sized terms: compare on the scale of G
        G_scale = prior._marginal_var(kappa, theta)
        assert np.max(np.abs(C - prior._floored(kappa**2 * C_w, kappa, theta))) <= 1e-10 * G_scale
        want = kappa**2 * theta * dC_t
        assert np.max(np.abs(dC[1] - want)) <= 1e-10 * (np.max(np.abs(want)) + G_scale)

    @pytest.mark.parametrize("shape", [(2, 20), (0, 20), (1, 19), (1, 21), (19,)])
    def test_latent_values_must_match_the_factors_and_their_grid(self, shape):
        with pytest.raises(ValidationError, match=r"latent values of shape .* 1 latent functions on a grid of 20"):
            ConvolutionPrior(np.zeros(shape), [LatentFactor(self.GRIDS["2d-4x5"], 0.05)])

    def test_a_prior_needs_a_latent_function(self):
        with pytest.raises(ValidationError, match="at least one latent function"):
            ConvolutionPrior(np.zeros((0, 20)), [])

    @pytest.mark.parametrize("phi", [0.0, -0.05, np.nan])
    def test_latent_variance_must_be_positive(self, phi):
        with pytest.raises(ValidationError, match="phi must be positive"):
            LatentFactor(self.GRIDS["2d-4x5"], phi)

    @pytest.mark.parametrize("dim, per_axis", [(1, 10), (1, 40), (2, 20), (3, 4), (3, 10)])
    def test_dense_factor_skips_the_symmetrisation_bit_for_bit(self, dim, per_axis):
        # the Gram matrix of the nodes with themselves is exactly symmetric,
        # so the unsymmetrised factor is the symmetrised one, jitter and all
        grid = latent_grid(Region(np.zeros(dim), np.ones(dim)), per_axis)
        nodes = grid.nodes
        for phi in (0.004, 0.01, 0.05):
            K = gauss_gram(nodes, nodes, phi)
            assert np.array_equal(K, K.T)
            want, _ = cholesky_with_jitter(K)
            got = LatentFactor(grid, phi).L
            assert got.flags.f_contiguous
            assert got.tobytes(order="A") == want.tobytes(order="A")

    def test_rejected_phi_proposal_forms_no_dense_gram_or_factor(self, monkeypatch):
        grid = latent_grid(Region([0.0, 0.0], [1.0, 1.0]), 40)
        J = grid.size
        # white noise on a 40x40 grid: far too rough for any larger phi
        u = np.random.default_rng(33).standard_normal((1, J))
        prior = latent_prior(grid, u, [0.01])
        formed = []
        for name in ("gauss_gram", "cholesky_with_jitter"):
            original = getattr(depcox.convolution, name)

            def recording(*args, _original=original, **kwargs):
                out = _original(*args, **kwargs)
                shape = np.shape(out[0] if isinstance(out, tuple) else out)
                formed.extend([shape] if shape == (J, J) else [])
                return out

            monkeypatch.setattr(depcox.convolution, name, recording)
        rng = np.random.default_rng(1)
        assert rng.standard_normal() > 0  # the seed's proposal raises phi
        factors, accepted = phi_mh_update(prior.values, prior.factors, np.random.default_rng(1), step=1.0)
        assert not accepted[0] and factors[0] is prior.factors[0]
        assert formed == []


class TestImpliedJointPsd:
    def test_full_joint_factorizes(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            D = int(rng.integers(1, 4))
            J = int(rng.integers(2, 5))
            grid = np.sort(rng.uniform(0, 1, size=J))[:, None]
            prior = latent_prior(grid, rng.standard_normal((1, J)), [rng.uniform(0.05, 0.4)])
            kappas, thetas = rng.uniform(0.3, 2.0, size=D), rng.uniform(0.02, 0.3, size=D)
            X_list = [rng.uniform(0, 1, size=(int(rng.integers(1, 5)), 1)) for _ in range(D)]
            K_uu, A_list, D_list = _joint_blocks(X_list, prior, kappas, thetas)
            n_tot = sum(len(X) for X in X_list) + J
            joint = np.zeros((n_tot, n_tot))
            offs = np.cumsum([0] + [len(X) for X in X_list])
            for a in range(D):
                for b in range(D):
                    block = A_list[a] @ K_uu @ A_list[b].T
                    if a == b:
                        block = block + D_list[a]
                    joint[offs[a] : offs[a + 1], offs[b] : offs[b + 1]] = block
                joint[offs[a] : offs[a + 1], offs[D] :] = A_list[a] @ K_uu
                joint[offs[D] :, offs[a] : offs[a + 1]] = (A_list[a] @ K_uu).T
            joint[offs[D] :, offs[D] :] = K_uu
            cholesky_with_jitter(joint)  # raises if not PSD


def _spaces(prior, X_list, g_list, kappas, thetas):
    """Each process's workspace at the points ``X_list[d]`` with values
    ``g_list[d]``, and its coupling matrix, as the engine passes them to
    ``latent_posterior``."""
    spaces = [
        GpContext(X, prior).workspace(
            AugmentedState(np.zeros((0, X.shape[1])), np.zeros(0, dtype=int), g, 1.0, k, t)
        )
        for X, g, k, t in zip(X_list, g_list, kappas, thetas)
    ]
    return spaces, [prior.coupling_matrix(ws.W, ws.kappa) for ws in spaces]


def _dense_oracle_case(rng, n_grid=3, n_latent=1, sizes=(3, 3)):
    """Processes with ``sizes`` points each on an ``n_grid``-node 1-D grid
    with ``n_latent`` latent functions: their workspaces, coupling
    matrices and prior, and the latent posterior's mean and covariance by
    dense conditioning of the joint Gaussian."""
    grid = np.sort(rng.uniform(0, 1, size=n_grid))[:, None]
    prior = latent_prior(
        grid, rng.standard_normal((n_latent, n_grid)), rng.uniform(0.05, 0.3, size=n_latent)
    )
    kappas = rng.uniform(0.5, 1.5, size=len(sizes))
    thetas = rng.uniform(0.02, 0.2, size=len(sizes))
    X_list = [rng.uniform(0, 1, size=(n, 1)) for n in sizes]
    g_list = [rng.standard_normal(n) for n in sizes]
    spaces, A_ws = _spaces(prior, X_list, g_list, kappas, thetas)

    K_uu, A_list, D_list = _joint_blocks(X_list, prior, kappas, thetas)
    A = np.vstack(A_list)
    Dblk = block_diag(*[
        _jittered(_floored(D, kappa, theta, prior.phis))
        for D, kappa, theta in zip(D_list, kappas, thetas)
        if len(D)
    ])
    S_gg = A @ K_uu @ A.T + Dblk
    S_gu = A @ K_uu
    g = np.concatenate(g_list)
    inv = np.linalg.inv(S_gg)
    mean_o = S_gu.T @ inv @ g
    cov_o = K_uu - S_gu.T @ inv @ S_gu
    return spaces, A_ws, prior, mean_o, cov_o


def _assert_draws_follow(draws, mean_o, cov_o):
    """The mean and covariance of ``draws`` (n, dim) lie within 4 standard
    errors of ``mean_o`` and ``cov_o``."""
    n = draws.shape[0]
    se_mean = np.sqrt(np.diag(cov_o) / n)
    assert np.all(np.abs(draws.mean(axis=0) - mean_o) < 4 * se_mean)
    # the variance of a Gaussian sample covariance entry is (S_ii S_jj + S_ij^2) / n
    var = np.diag(cov_o)
    se_cov = np.sqrt((np.outer(var, var) + cov_o**2) / n)
    assert np.all(np.abs(np.cov(draws.T) - cov_o) < 4 * se_cov)


class TestLatentPosterior:
    def test_no_coupling_returns_prior(self):
        grid = np.linspace(0, 1, 4)[:, None]
        prior = latent_prior(grid, np.zeros((1, 4)), [0.1])
        X = [np.array([[0.2], [0.6]]), np.array([[0.4]])]
        g = [np.array([1.0, -1.0]), np.array([0.5])]
        spaces, A_list = _spaces(prior, X, g, [0.0, 0.0], [0.05, 0.05])
        mean, factor = latent_posterior(spaces, prior, A_list)
        K = _jittered(gauss_gram(grid, grid, 0.1))
        np.testing.assert_allclose(mean, np.zeros(4), atol=1e-9)
        np.testing.assert_allclose(reversed_factor_cov(factor), K, atol=1e-6)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            spaces, A_ws, prior, mean_o, cov_o = _dense_oracle_case(rng)
            mean, factor = latent_posterior(spaces, prior, A_ws)
            np.testing.assert_allclose(mean, mean_o, atol=1e-7)
            np.testing.assert_allclose(reversed_factor_cov(factor), cov_o, atol=1e-7)

    def test_draws_follow_the_dense_oracle(self):
        """20 000 draws of the latent stage: their mean and covariance lie
        within 4 standard errors of the dense oracle's."""
        spaces, A_ws, prior, mean_o, cov_o = _dense_oracle_case(np.random.default_rng(5))
        rng = np.random.default_rng(11)
        draws = np.array([sample_latent_posterior(spaces, prior, rng, A_ws)[0] for _ in range(20_000)])
        _assert_draws_follow(draws, mean_o, cov_o)

    @pytest.mark.parametrize("n_latent", [1, 2])
    def test_data_space_draws_follow_the_dense_oracle(self, n_latent):
        """Five points over three processes, one without points, on an
        eight-node grid: fewer points than latent values, so the draw goes
        through the data-space system. 20 000 draws lie within 4 standard
        errors of the dense oracle's mean and covariance. With one latent
        function the residual covariances are large and a draw without the
        noise term is too narrow; with two the smallest residual variance
        is 1.5e-8 and a jittered data-space system is off in the mean."""
        spaces, A_ws, prior, mean_o, cov_o = _dense_oracle_case(
            np.random.default_rng(5), n_grid=8, n_latent=n_latent, sizes=(3, 0, 2)
        )
        rng = np.random.default_rng(11)
        draws = np.array(
            [sample_latent_posterior(spaces, prior, rng, A_ws).ravel() for _ in range(20_000)]
        )
        _assert_draws_follow(draws, mean_o, cov_o)

    def test_many_points_draw_in_precision_form(self):
        # at least as many points as latent values: the precision-form draw,
        # byte for byte, from the same generator state
        rng = np.random.default_rng(8)
        for n_latent, sizes in [(1, (3, 3)), (2, (4, 0, 2))]:
            spaces, A_ws, prior, _, _ = _dense_oracle_case(rng, n_latent=n_latent, sizes=sizes)
            got = sample_latent_posterior(spaces, prior, np.random.default_rng(3), A_ws)
            want = mvn_sample(*latent_posterior(spaces, prior, A_ws), np.random.default_rng(3))
            assert got.tobytes() == want.tobytes()

    def test_failed_data_space_factor_falls_back_to_precision_form(self, monkeypatch):
        spaces, A_ws, prior, _, _ = _dense_oracle_case(
            np.random.default_rng(9), n_grid=8, sizes=(3, 0, 2)
        )

        def failing(a):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(depcox.convolution, "cholesky", failing)
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        got = sample_latent_posterior(spaces, prior, rng, A_ws)
        want = mvn_sample(*latent_posterior(spaces, prior, A_ws), ref)
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_no_points_draw_the_prior(self):
        grid = np.linspace(0, 1, 6)[:, None]
        prior = latent_prior(grid, np.zeros((2, 6)), [0.05, 0.2])
        empty = np.zeros((0, 1))
        spaces, A_ws = _spaces(prior, [empty, empty], [np.zeros(0)] * 2, [1.0, 1.0], [0.05, 0.05])
        got = sample_latent_posterior(spaces, prior, np.random.default_rng(4), A_ws)
        z = np.random.default_rng(4).standard_normal(12)
        want = [f.from_eigen(z[q * 6 : (q + 1) * 6] / f.s) for q, f in enumerate(prior.factors)]
        assert got.tobytes() == np.stack(want).tobytes()
        rng = np.random.default_rng(12)
        draws = np.array([sample_latent_posterior(spaces, prior, rng, A_ws)[1] for _ in range(20_000)])
        _assert_draws_follow(draws, np.zeros(6), _jittered(gauss_gram(grid, grid, 0.2)))

    def test_duplicated_data_tightens_posterior(self):
        rng = np.random.default_rng(6)
        grid = np.linspace(0, 1, 4)[:, None]
        prior = latent_prior(grid, rng.standard_normal((1, 4)), [0.1])
        X = rng.uniform(0, 1, size=(4, 1))
        g = rng.standard_normal(4)
        spaces, A_list = _spaces(prior, [X], [g], [1.0], [0.05])
        _, single = latent_posterior(spaces, prior, A_list)
        spaces, A_list = _spaces(prior, [X, X], [g, g], [1.0, 1.0], [0.05, 0.05])
        _, double = latent_posterior(spaces, prior, A_list)
        eigs = np.linalg.eigvalsh(reversed_factor_cov(single) - reversed_factor_cov(double))
        assert eigs.min() > -1e-10
        assert eigs.max() > 1e-8


class TestPhiUpdate:
    def test_identity_proposal_always_accepts(self):
        rng = np.random.default_rng(7)
        grid = np.linspace(0, 1, 5)[:, None]
        prior = latent_prior(grid, rng.standard_normal((1, 5)), [0.2])
        factors, accepted = phi_mh_update(prior.values, prior.factors, np.random.default_rng(0), step=0.0)
        assert accepted.all()
        np.testing.assert_array_equal([f.phi for f in factors], prior.phis)

    def test_logpost_matches_2x2_determinant_oracle(self):
        grid = np.array([[0.0], [0.3]])
        phi = 0.2
        u = np.array([0.7, -0.4])
        K = _jittered(gauss_gram(grid, grid, phi))
        det = K[0, 0] * K[1, 1] - K[0, 1] ** 2
        inv = np.array([[K[1, 1], -K[0, 1]], [-K[0, 1], K[0, 0]]]) / det
        expected = -0.5 * u @ inv @ u - 0.5 * np.log(det) - 0.5 * np.log(phi) ** 2
        got = latent_logpost(LatentFactor(ProductGrid(grid.T), phi), u, log_mean=0.0, log_sd=1.0)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_zero_latent_prefers_smaller_determinant(self):
        # with u = 0 the likelihood is -0.5 logdet; a large phi drives the
        # grid Gram toward singularity (small determinant) and wins
        grid = np.array([[0.0], [0.3]])
        u = np.zeros(2)
        lp_small = latent_logpost(LatentFactor(ProductGrid(grid.T), 0.05), u, 0.0, 1e6)
        lp_large = latent_logpost(LatentFactor(ProductGrid(grid.T), 0.5), u, 0.0, 1e6)
        assert lp_large > lp_small

    def test_fixed_seed_is_deterministic(self):
        rng = np.random.default_rng(8)
        grid = np.linspace(0, 1, 5)[:, None]
        prior = latent_prior(grid, rng.standard_normal((2, 5)), [0.2, 0.4])
        a, acc_a = phi_mh_update(prior.values, prior.factors, np.random.default_rng(3), step=0.3)
        b, acc_b = phi_mh_update(prior.values, prior.factors, np.random.default_rng(3), step=0.3)
        np.testing.assert_array_equal([f.phi for f in a], [f.phi for f in b])
        np.testing.assert_array_equal(acc_a, acc_b)


class TestConvolutionIdentity:
    def test_smoothing_integral_matches_quadrature(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            kappa = rng.uniform(0.5, 2.0)
            theta = rng.uniform(0.02, 0.3)
            phi = rng.uniform(0.05, 0.5)
            x = rng.uniform(-0.5, 0.5)
            z = rng.uniform(-0.5, 0.5)
            analytic = cross_cov(x, z, kappa, theta, phi)
            numeric, _ = quad(
                lambda s: kappa * gauss_density(x, s, theta) * gauss_density(s, z, phi),
                -20,
                20,
                limit=200,
            )
            assert analytic == pytest.approx(numeric, abs=1e-6)
