"""Gaussian primitive tests against closed-form and brute-force oracles."""

import numpy as np
import pytest

from depcox.errors import NumericalError, ValidationError
from depcox.gaussian import (
    JITTER_SCALE,
    ProductGrid,
    chol_inverse,
    cholesky_with_jitter,
    from_precision,
    gauss_gram,
    gauss_gram_dv,
    gauss_gram_sum,
    gram_matvec,
    mvn_sample,
    sq_norm,
    tri_solve,
)
from oracles import (
    Mvn,
    chol_inverse_tril,
    cholesky_with_jitter_copies,
    conditional_mvn,
    gauss_density,
    gauss_gram_broadcast,
    gauss_gram_dv_broadcast,
    mvn_logpdf,
    precision_draw_dense,
)


class TestGaussDensity:
    def test_standard_normal_at_mean(self):
        assert gauss_density(0.0, 0.0, 1.0) == pytest.approx(1.0 / np.sqrt(2 * np.pi))

    def test_standard_normal_one_sigma(self):
        # (2*pi)**-0.5 * exp(-0.5)
        assert gauss_density(1.0, 0.0, 1.0) == pytest.approx(0.24197072451914337, abs=1e-12)

    def test_2d_at_mean(self):
        assert gauss_density((0, 0), (0, 0), 1.0) == pytest.approx(1.0 / (2 * np.pi), abs=1e-12)

    def test_product_of_axes(self):
        v = 0.7
        d2 = gauss_density((0.3, -0.4), (0.0, 0.1), v)
        d1a = gauss_density(0.3, 0.0, v)
        d1b = gauss_density(-0.4, 0.1, v)
        assert d2 == pytest.approx(d1a * d1b, rel=1e-12)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValidationError):
            gauss_density(0.0, 0.0, 0.0)
        with pytest.raises(ValidationError):
            gauss_density(0.0, 0.0, -1.0)

    def test_gram_matches_pairs(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(4, 2))
        Z = rng.uniform(size=(3, 2))
        G = gauss_gram(X, Z, 0.5)
        for i in range(4):
            for j in range(3):
                assert G[i, j] == pytest.approx(gauss_density(X[i], Z[j], 0.5), rel=1e-12)

    def test_gram_dv_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(5, 1))
        v, h = 0.3, 1e-6
        _, dG = gauss_gram_dv(X, X, v)
        num = (gauss_gram(X, X, v + h) - gauss_gram(X, X, v - h)) / (2 * h)
        np.testing.assert_allclose(dG, num, atol=1e-6)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_gram_and_gram_dv_match_the_broadcast_formulas_bit_for_bit(self, dim):
        rng = np.random.default_rng(10 + dim)
        X, Z = rng.uniform(size=(7, dim)), rng.uniform(size=(5, dim))
        for got, want in [
            *zip(gauss_gram_dv(X, Z, 0.03), gauss_gram_dv_broadcast(X, Z, 0.03)),
            (gauss_gram(X, Z, 0.03), gauss_gram_broadcast(X, Z, 0.03)),
            (gauss_gram(X, X, 0.03), gauss_gram_broadcast(X, X, 0.03)),
        ]:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("m", [0, 1, 40])
    def test_row_matches_the_summed_grams_bit_for_bit(self, dim, m):
        rng = np.random.default_rng(20 + dim + m)
        Z = rng.uniform(size=(m, dim))
        variances = [0.02, np.float64(0.05), 0.11]
        for x in rng.uniform(size=(5, 1, dim)):
            assert sq_norm(x) == (x * x).sum(1)[0]
            for k in (1, 2, 3):
                want = sum(gauss_gram_broadcast(x, Z, v) for v in variances[:k])
                got = gauss_gram_sum(x, sq_norm(x), Z, (Z * Z).sum(1), variances[:k])
                assert got.shape == want.shape == (1, m) and got.tobytes() == want.tobytes()


class TestGramMatvec:
    @pytest.mark.parametrize("lengths", [(7,), (5, 3), (4, 2, 3)])
    def test_product_grid_matches_dense_gram(self, lengths):
        rng = np.random.default_rng(len(lengths))
        grid = ProductGrid([np.sort(rng.uniform(-1, 1, n)) for n in lengths])
        Z = rng.uniform(-1, 1, size=(6, len(lengths)))
        c = rng.standard_normal(6)
        nodes = np.stack([m.ravel() for m in np.meshgrid(*grid.axes, indexing="ij")], axis=-1)
        want = gauss_gram(nodes, Z, 0.3) @ c
        got = gram_matvec(grid, Z, 0.3, c)
        assert got.shape == (grid.size,)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))
        np.testing.assert_array_equal(grid.nodes, nodes)

    @pytest.mark.parametrize("z_grid", [False, True], ids=["z-points", "z-grid"])
    @pytest.mark.parametrize("x_grid", [False, True], ids=["x-points", "x-grid"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_every_pairing_matches_dense_gram(self, dim, x_grid, z_grid):
        rng = np.random.default_rng([dim, x_grid, z_grid])
        x_lengths, z_lengths = (5, 3, 4)[:dim], (2, 6, 3)[:dim]
        X = ProductGrid([np.sort(rng.uniform(-1, 1, n)) for n in x_lengths]) if x_grid \
            else rng.uniform(-1, 1, size=(7, dim))
        Z = ProductGrid([np.sort(rng.uniform(-1, 1, n)) for n in z_lengths]) if z_grid \
            else rng.uniform(-1, 1, size=(6, dim))
        x_nodes = X.nodes if x_grid else X
        z_nodes = Z.nodes if z_grid else Z
        c = rng.standard_normal(len(z_nodes))
        want = gauss_gram(x_nodes, z_nodes, 0.3) @ c
        got = gram_matvec(X, Z, 0.3, c)
        assert got.shape == (len(x_nodes),)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))

    def test_points_take_the_dense_product(self):
        rng = np.random.default_rng(4)
        X, Z, c = rng.uniform(size=(5, 2)), rng.uniform(size=(3, 2)), rng.standard_normal(3)
        np.testing.assert_array_equal(gram_matvec(X, Z, 0.2, c), gauss_gram(X, Z, 0.2) @ c)

    def test_empty_point_set_gives_zeros(self):
        grid = ProductGrid([np.linspace(0, 1, 4), np.linspace(0, 1, 3)])
        np.testing.assert_array_equal(gram_matvec(grid, np.zeros((0, 2)), 0.1, np.zeros(0)), np.zeros(12))
        assert gram_matvec(np.zeros((0, 2)), grid, 0.1, np.ones(12)).shape == (0,)

    def test_grids_of_different_dimension_are_rejected(self):
        two = ProductGrid([np.linspace(0, 1, 4), np.linspace(0, 1, 3)])
        three = ProductGrid([np.linspace(0, 1, 2)] * 3)
        with pytest.raises(ValidationError):
            gram_matvec(two, three, 0.1, np.ones(8))
        with pytest.raises(ValidationError):
            gram_matvec(np.zeros((5, 3)), two, 0.1, np.ones(12))


class TestCholInverse:
    def test_matches_dense_inverse_and_is_symmetric(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((7, 7))
        S = A @ A.T + 7 * np.eye(7)
        L, _ = cholesky_with_jitter(S)
        inv = chol_inverse(L)
        np.testing.assert_array_equal(inv, inv.T)
        np.testing.assert_allclose(inv @ (L @ L.T), np.eye(7), atol=1e-12)

    def test_empty_factor(self):
        assert chol_inverse(np.zeros((0, 0), order="F")).shape == (0, 0)

    @pytest.mark.parametrize("n", [1, 2, 7, 60])
    def test_in_place_mirror_gives_the_tril_copies_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n))
        L, _ = cholesky_with_jitter(A @ A.T + n * np.eye(n))
        inv = chol_inverse(L)
        assert inv.flags.c_contiguous
        np.testing.assert_array_equal(inv, chol_inverse_tril(L))


class TestCholeskyJitter:
    def test_gram_matrices_factor_after_jitter(self):
        # near-duplicate points make raw Gram matrices numerically singular
        rng = np.random.default_rng(2)
        for _ in range(20):
            base = rng.uniform(size=(8, 2))
            X = np.vstack([base, base + 1e-9])
            C = gauss_gram(X, X, 0.5)
            np.testing.assert_allclose(C, C.T, rtol=1e-12, atol=0)
            L, jit = cholesky_with_jitter(C)
            np.testing.assert_allclose(L @ L.T, C + jit * np.eye(len(C)), atol=1e-10)

    def test_empty_matrix(self):
        L, jit = cholesky_with_jitter(np.zeros((0, 0)))
        assert L.shape == (0, 0)

    def test_matches_numpy_factor_of_the_jittered_matrix(self):
        rng = np.random.default_rng(4)
        for n in (1, 7, 70):
            A = rng.standard_normal((n, n))
            S = A @ A.T + n * np.eye(n)
            L, jit = cholesky_with_jitter(S)
            sym = 0.5 * (S + S.T)
            assert jit == pytest.approx(JITTER_SCALE * np.trace(sym) / n, rel=1e-12)
            assert L.flags.f_contiguous
            want = np.linalg.cholesky(sym + jit * np.eye(n))
            assert np.max(np.abs(L - want)) <= 1e-14 * np.max(np.abs(want))

    def test_escalates_on_singular_psd_matrix(self):
        # rank 3, positive semidefinite in exact arithmetic; built through a
        # cancellation, as the residual covariance is, so rounding leaves
        # eigenvalues below minus the first jitter
        X = np.random.default_rng(0).uniform(size=(30, 3))
        S = (X @ X.T + 1e8) - 1e8
        L, jit = cholesky_with_jitter(S)
        base = JITTER_SCALE * np.trace(S) / 30
        assert jit > 1.5 * base  # at least one doubling
        np.testing.assert_allclose(L @ L.T, S + jit * np.eye(30), rtol=0, atol=1e-12)

    def test_raises_on_indefinite_matrix(self):
        with pytest.raises(NumericalError, match=r"\(2x2\) not positive definite"):
            cholesky_with_jitter(np.diag([1.0, -1.0]))

    @staticmethod
    def _needs_one_doubling(n=12):
        # smallest eigenvalue -1.5 base jitters: the first attempt fails,
        # the doubled jitter leaves it +0.5 base jitters; symmetrised, as
        # cholesky_with_jitter requires
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = np.linspace(1.0, 2.0, n)
        lam[0] = 0.0
        lam[0] = -1.5 * JITTER_SCALE * lam.sum() / n
        S = (Q * lam) @ Q.T
        return 0.5 * (S + S.T)

    @pytest.mark.parametrize("kind", ["symmetric", "escalating", "near-singular", "reversed"])
    def test_one_buffer_gives_the_copies_factor_bit_for_bit(self, kind):
        # on an exactly symmetric cov the copies' symmetrisation is the
        # identity, so the copied buffer gives their factor and jitter,
        # escalations too; "reversed" is a reversed view, as from_precision
        # passes the precision
        rng = np.random.default_rng(6)
        A = rng.standard_normal((40, 40))
        cov = {
            "symmetric": 0.5 * (A @ A.T + (A @ A.T).T) + np.eye(40),
            "escalating": self._needs_one_doubling(),
            "near-singular": gauss_gram(*[rng.uniform(size=(30, 1))] * 2, 0.05),
            "reversed": (A @ A.T + np.eye(40))[::-1, ::-1],
        }[kind]
        assert np.array_equal(cov, cov.T)
        before = cov.copy()
        L, jit = cholesky_with_jitter(cov)
        want, want_jit = cholesky_with_jitter_copies(cov)
        assert jit == want_jit
        assert L.flags.f_contiguous
        assert L.tobytes(order="A") == want.tobytes(order="A")
        np.testing.assert_array_equal(cov, before)  # the input is not written to
        if kind == "escalating":
            base = JITTER_SCALE * np.trace(cov) / cov.shape[0]
            assert jit == pytest.approx(2.0 * base, rel=1e-12)


class TestTriSolve:
    def test_matches_dense_solve_on_factor(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((6, 6))
        L, _ = cholesky_with_jitter(A @ A.T + 6 * np.eye(6))
        assert L.flags.f_contiguous
        b = rng.standard_normal((6, 2))
        np.testing.assert_allclose(L @ tri_solve(L, b), b, atol=1e-12)
        np.testing.assert_allclose(L.T @ tri_solve(L, b[:, 0], trans="T"), b[:, 0], atol=1e-12)

    def test_zero_pivot_raises(self):
        L = np.asfortranarray(np.tril(np.ones((3, 3))))
        L[1, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            tri_solve(L, np.ones(3))

    def test_empty_system_returns_empty(self):
        L = np.zeros((0, 0), order="F")
        assert tri_solve(L, np.zeros(0)).shape == (0,)
        assert tri_solve(L, np.zeros((0, 3)), trans="T").shape == (0, 3)


def _brute_conditional(mean, cov, obs_idx, obs_val):
    """Gaussian conditioning with explicit matrix inverses."""
    obs = np.asarray(obs_idx)
    free = np.setdiff1d(np.arange(len(mean)), obs)
    S_oo = cov[np.ix_(obs, obs)]
    S_fo = cov[np.ix_(free, obs)]
    S_ff = cov[np.ix_(free, free)]
    inv = np.linalg.inv(S_oo)
    mean_c = mean[free] + S_fo @ inv @ (obs_val - mean[obs])
    cov_c = S_ff - S_fo @ inv @ S_fo.T
    return mean_c, cov_c


class TestConditionalMvn:
    def _random_mvn(self, rng, n):
        A = rng.standard_normal((n, n))
        return Mvn(rng.standard_normal(n), A @ A.T + n * np.eye(n))

    def test_empty_conditioning_returns_prior(self):
        rng = np.random.default_rng(3)
        joint = self._random_mvn(rng, 4)
        cond = conditional_mvn(joint, [], [])
        np.testing.assert_array_equal(cond.mean, joint.mean)
        np.testing.assert_array_equal(cond.cov, joint.cov)

    def test_independent_blocks_leave_marginal_unchanged(self):
        cov = np.diag([1.0, 2.0, 3.0])
        joint = Mvn(np.array([0.5, -1.0, 2.0]), cov)
        cond = conditional_mvn(joint, [2], [10.0])
        np.testing.assert_allclose(cond.mean, [0.5, -1.0], atol=1e-9)
        np.testing.assert_allclose(cond.cov, np.diag([1.0, 2.0]), atol=1e-9)

    def test_matches_brute_force_3x3(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            joint = self._random_mvn(rng, 3)
            val = rng.standard_normal(1)
            cond = conditional_mvn(joint, [1], val)
            mean_b, cov_b = _brute_conditional(joint.mean, joint.cov, [1], val)
            np.testing.assert_allclose(cond.mean, mean_b, atol=1e-7)
            np.testing.assert_allclose(cond.cov, cov_b, atol=1e-7)

    def test_sequential_equals_joint_conditioning(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            joint = self._random_mvn(rng, 5)
            vals = rng.standard_normal(3)
            both = conditional_mvn(joint, [0, 2, 4], vals)
            first = conditional_mvn(joint, [0], vals[:1])
            # remaining variables of `first` are the original indices 1,2,3,4
            second = conditional_mvn(first, [1, 3], vals[1:])
            np.testing.assert_allclose(both.mean, second.mean, atol=1e-8)
            np.testing.assert_allclose(both.cov, second.cov, atol=1e-8)

    def test_rejects_duplicate_indices(self):
        joint = Mvn(np.zeros(3), np.eye(3))
        with pytest.raises(ValidationError):
            conditional_mvn(joint, [1, 1], [0.0, 0.0])

    def test_conditional_cov_is_psd(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            joint = self._random_mvn(rng, 6)
            cond = conditional_mvn(joint, [0, 3], rng.standard_normal(2))
            cholesky_with_jitter(cond.cov)  # raises if not PSD


class TestMvnLogpdf:
    def test_standard_normal_at_zero(self):
        dist = Mvn([0.0], [[1.0]])
        assert mvn_logpdf([0.0], dist) == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-7)

    def test_at_mean_equals_neg_half_logdet(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((3, 3))
        cov = A @ A.T + 3 * np.eye(3)
        dist = Mvn(rng.standard_normal(3), cov)
        expected = -0.5 * np.log(np.linalg.det(2 * np.pi * cov))
        assert mvn_logpdf(dist.mean, dist) == pytest.approx(expected, rel=1e-6)

    def test_2x2_correlated_against_explicit_inverse(self):
        # closed-form oracle: explicit 2x2 inverse and determinant
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        x = np.array([1.0, 1.0])
        det = 1.0 - 0.25
        inv = np.array([[1.0, -0.5], [-0.5, 1.0]]) / det
        expected = -np.log(2 * np.pi) - 0.5 * np.log(det) - 0.5 * x @ inv @ x
        assert mvn_logpdf(x, Mvn(np.zeros(2), cov)) == pytest.approx(expected, rel=1e-7)

    def test_integrates_to_one_on_grid(self):
        xs = np.linspace(-9, 9, 4001)
        dist = Mvn([0.3], [[0.8]])
        vals = np.array([np.exp(mvn_logpdf([x], dist)) for x in xs])
        integral = np.trapezoid(vals, xs)
        assert integral == pytest.approx(1.0, abs=1e-4)


def _data_precision(per_axis, n_points, seed):
    """The precision of a Gaussian-kernel grid prior on a ``per_axis`` x
    ``per_axis`` grid of the unit square plus a data term of ``n_points``
    noisy observations of grid interpolants, as ``latent_posterior``
    assembles it, and a linear term."""
    rng = np.random.default_rng(seed)
    axis = np.linspace(0.0, 1.0, per_axis)
    grid = ProductGrid([axis, axis]).nodes
    L, _ = cholesky_with_jitter(gauss_gram(grid, grid, 0.01))
    A = gauss_gram(rng.uniform(size=(n_points, 2)), grid, 0.02)
    P = chol_inverse(L) + A.T @ A / 0.1
    P = 0.5 * (P + P.T)
    return P, rng.standard_normal(P.shape[0])


class _FixedNormals:
    """A generator stand-in whose ``standard_normal`` returns given values."""

    def __init__(self, z):
        self.z = np.asarray(z, dtype=float)

    def standard_normal(self, size):
        assert size == self.z.size
        return self.z.copy()


class TestPrecisionForm:
    def test_factor_is_the_cholesky_factor_of_the_reversed_precision(self):
        P, b = _data_precision(3, 5, 0)
        mean, factor = from_precision(P, b)
        scale = np.abs(P).max()
        np.testing.assert_allclose(factor @ factor.T, P[::-1, ::-1], rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(mean, np.linalg.solve(P, b), rtol=1e-10)

    def test_draw_matches_dense_covariance_factor_on_a_well_conditioned_precision(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((6, 6))
        P, b, z = A @ A.T + 6 * np.eye(6), rng.standard_normal(6), rng.standard_normal(6)
        P = 0.5 * (P + P.T)
        draw = mvn_sample(*from_precision(P, b), _FixedNormals(z))
        want = precision_draw_dense(P, b, z)
        np.testing.assert_allclose(draw, want, rtol=1e-10, atol=0)

    def test_draw_matches_dense_covariance_factor_on_an_ill_conditioned_gaussian_kernel(self):
        P, b = _data_precision(20, 30, 1)
        assert np.linalg.cond(P) > 1e8
        z = np.random.default_rng(2).standard_normal(P.shape[0])
        draw = mvn_sample(*from_precision(P, b), _FixedNormals(z))
        assert np.max(np.abs(draw - precision_draw_dense(P, b, z))) <= 1e-6

    def test_falls_back_to_jitter_when_not_positive_definite(self):
        P = np.array([[1.0, 1.0], [1.0, 1.0]])  # singular: jitter makes it definite
        mean, factor = from_precision(P, np.array([1.0, 1.0]))
        assert np.all(np.isfinite(mean)) and np.all(np.diag(factor) > 0)


class TestMvnSample:
    def test_zero_covariance_returns_mean_exactly(self):
        # a zero covariance is an infinite precision, and so its factor
        factor = np.diag([np.inf, np.inf])
        out = mvn_sample(np.array([1.5, -2.0]), factor, np.random.default_rng(0))
        np.testing.assert_array_equal(out, [1.5, -2.0])

    def test_fixed_seed_is_deterministic(self):
        mean, factor = from_precision(np.eye(3), np.zeros(3))
        a = mvn_sample(mean, factor, np.random.default_rng(42))
        b = mvn_sample(mean, factor, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_law_of_large_numbers(self):
        rng = np.random.default_rng(8)
        mean, factor = from_precision(np.array([[1.0]]), np.zeros(1))
        draws = np.array([mvn_sample(mean, factor, rng)[0] for _ in range(10_000)])
        assert abs(draws.mean()) < 0.05
        assert abs(draws.var() - 1.0) < 0.1

