"""Transition-kernel tests: hand values, stationary laws, invariants."""

import copy
import warnings

import numpy as np
import pytest
from scipy.special import expit, logit
from scipy.stats import kstest, norm

import depcox.convolution
import depcox.sgcp
from depcox.convolution import (
    ConvolutionPrior,
    LatentFactor,
    independent_prior,
    latent_grid,
)
from depcox.errors import ValidationError
from depcox.gaussian import JITTER_SCALE, cholesky_with_jitter, tri_solve
from depcox.sgcp import (
    AugmentedState,
    EventSet,
    GpContext,
    PriorConfig,
    Region,
    _Workspace,
    _drop,
    _hyper_energy,
    _without,
    birth_death_step,
    elliptical_slice,
    ess_function_update,
    gibbs_lambda_star,
    hmc_hyper_update,
    lambda_posterior,
    leapfrog,
    move_step,
    point_loglik,
    sigmoid,
    sigmoid_array,
    thinned_levels,
)
from depcox.thinning import SLACK, RateLadder
from oracles import (
    CopyingPointSet,
    FixedFunctionPrior,
    Mvn,
    append_thinned,
    assign_rate_searchsorted,
    conditional_mvn,
    contains_point_numpy,
    hyper_energy_stacked,
    mean_cov_grads_stacked,
    point_loglik_where,
)

UNIT = Region([0.0], [1.0])
SINGLE = RateLadder((1.0,))
TWO_LEVEL = RateLadder((0.5, 1.0))


def _empty_state(lam=2.0, kappa=1.0, theta=0.05, n_data=0):
    return AugmentedState(
        thinned=np.zeros((0, 1)),
        rate_idx=np.zeros(0, dtype=int),
        g_values=np.zeros(n_data),
        lambda_star=lam,
        kappa=kappa,
        theta=theta,
    )


def _sigmoid_bracket(s: float) -> tuple[float, float]:
    """Adjacent floats ``lo < hi`` with ``sigmoid_array`` of ``lo`` at most
    ``s`` and of ``hi`` above it, found by bisection."""
    lo, hi = -40.0, 40.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if sigmoid_array(np.array([mid]))[0] <= s:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _moments(p):
    """A workspace proposal's conditional mean and variance."""
    return p.mean, p.var


def _fixed_ctx(func, n_data=0, rng=None):
    data = (
        np.zeros((0, 1))
        if n_data == 0
        else (rng or np.random.default_rng(0)).uniform(size=(n_data, 1))
    )
    return GpContext(data, FixedFunctionPrior(lambda X: func(X[:, 0])))


class TestRegion:
    def test_volume(self):
        assert Region([0.0, 1.0], [2.0, 4.0]).volume == pytest.approx(6.0)

    def test_rejects_degenerate_bounds(self):
        with pytest.raises(ValidationError):
            Region([0.0], [0.0])

    def test_contains_closed_bounds(self):
        r = Region([0.0], [1.0])
        assert r.contains(np.array([[0.0], [1.0], [0.5]])).all()
        assert not r.contains_point([1.0001])

    def test_contains_point_matches_the_array_comparison(self):
        r = Region([0.0, -1.0], [1.0, 2.0])
        for x in ([0.0, -1.0], [1.0, 2.0], [0.5, 2.0], [np.nextafter(1.0, 2.0), 0.0],
                  [0.5, np.nextafter(-1.0, -2.0)], [np.nan, 0.0], [0.5, np.nan]):
            assert r.contains_point(np.array(x)) is contains_point_numpy(r, x), x
        assert Region([0.0], [1.0]).contains_point(0.5)

    @pytest.mark.parametrize("x", [[0.5], [0.5, 0.5, 9.0]])
    def test_contains_point_of_another_dimension_raises(self, x):
        # a zip over the coordinates would quietly drop or ignore some
        with pytest.raises(ValidationError, match="dimension"):
            Region([0.0, 0.0], [1.0, 1.0]).contains_point(np.array(x))

    @pytest.mark.parametrize("lower, upper", [([0.0], [1.0]), ([-1.0, 0.5], [2.0, 0.75]),
                                              ([0.0, 1.0, -3.0], [0.1, 4.0, 3.0])])
    def test_uniform_matches_generator_uniform_bit_for_bit(self, lower, upper):
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        got = Region(lower, upper).uniform(7, a)
        want = b.uniform(np.array(lower), np.array(upper), size=(7, len(lower)))
        assert got.tobytes() == want.tobytes()
        assert a.random() == b.random()  # the same draws taken


class TestStateInvariants:
    def test_validate_catches_level_violation(self):
        state = _empty_state()
        append_thinned(state, [0.5], 2.0, 0)  # sigmoid(2) = 0.88 > 0.5
        with pytest.raises(ValidationError):
            state.validate(TWO_LEVEL)

    def test_validate_passes_consistent_state(self):
        state = _empty_state()
        append_thinned(state, [0.5], -1.0, 0)  # sigmoid(-1) = 0.27 <= 0.5
        state.validate(TWO_LEVEL)

    def test_kernels_keep_points_values_and_levels_aligned(self):
        # deaths at any index, births and moves keep each thinned point with
        # its own function value and level: on a known surface every value
        # is the surface at its point, its level the one its sigmoid takes,
        # and the observed values stay first and unchanged
        g_fn = lambda x: np.sin(6 * x) - 0.5
        rng = np.random.default_rng(19)
        ctx = _fixed_ctx(g_fn, n_data=2, rng=rng)
        state = _empty_state(lam=15.0, n_data=2)
        state.g_values = np.array([5.0, 6.0])
        deaths = 0
        for _ in range(100):
            before = state.n_thinned
            state = birth_death_step(state, UNIT, TWO_LEVEL, ctx, rng, attempts=10)
            deaths += state.n_thinned < before
            state = move_step(state, UNIT, TWO_LEVEL, ctx, rng)
            np.testing.assert_array_equal(state.g_data, [5.0, 6.0])
            np.testing.assert_allclose(state.g_thinned, g_fn(state.thinned[:, 0]), rtol=0, atol=1e-12)
            assert state.rate_idx.tolist() == [TWO_LEVEL.assign(float(expit(g))) for g in state.g_thinned]
        assert deaths > 10 and state.n_thinned > 3


# where exp overflows or underflows, at zero and the smallest subnormals,
# infinities and NaN
SIGMOID_EDGES = (0.0, -0.0, 5e-324, -5e-324, 36.7, -36.7, -709.78, -709.79, -745.2, 745.2,
                 1e308, -1e308, np.inf, -np.inf, np.nan)


class TestSigmoid:
    @pytest.mark.parametrize("scale", [1.0, 30.0])
    def test_float_form_is_expit_bit_for_bit(self, scale):
        # the acceptance decisions read it: not one bit may move
        x = np.random.default_rng(40).standard_normal(100_000) * scale
        got = np.array([sigmoid(v) for v in x])
        assert got.tobytes() == expit(x).tobytes()
        assert all(type(sigmoid(v)) is float for v in x[:3])

    @pytest.mark.parametrize("x", SIGMOID_EDGES)
    def test_float_form_is_expit_at_the_edges(self, x):
        assert np.float64(sigmoid(x)).tobytes() == expit(np.float64(x)).tobytes()

    def test_array_form_saturates_exactly_and_warns_of_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sigmoid_array(np.array([-800.0, 800.0, -np.inf, np.inf, np.nan]))
        assert got[:4].tolist() == [0.0, 1.0, 0.0, 1.0]
        assert np.isnan(got[4])

    def test_array_form_is_within_two_ulp_of_expit(self):
        x = np.random.default_rng(41).standard_normal(1_000_000)
        want = expit(x)
        assert np.all(np.abs(sigmoid_array(x) - want) <= 2 * np.spacing(want))

    def test_array_form_writes_into_out(self):
        x = np.random.default_rng(42).standard_normal(7)
        want = sigmoid_array(x)
        out = np.empty(9)
        assert sigmoid_array(x, out=out[1:8]).base is out
        assert out[1:8].tobytes() == want.tobytes()
        assert sigmoid_array(x, out=x) is x  # in place, as intensity_samples writes its rows
        assert x.tobytes() == want.tobytes()


class TestPointLoglik:
    def test_single_level_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        g = rng.normal(0, 2, size=7)
        got = point_loglik(g, 3, np.zeros(4, dtype=int), SINGLE)
        want = np.sum(np.log(expit(g[:3]))) + np.sum(np.log(expit(-g[3:])))
        assert got == pytest.approx(want, rel=1e-12)

    def test_level_barrier_is_minus_inf(self):
        g = np.array([1.0])  # sigmoid 0.73 above level 0.5
        assert point_loglik(g, 0, [0], TWO_LEVEL) == -np.inf

    def test_levels_formed_once_give_the_same_bits(self):
        # a slice move forms the thinned points' levels once for all its
        # shrinks; each evaluation then gives what forming them again gives
        ladder = RateLadder((0.25, 0.5, 1.0))
        rng = np.random.default_rng(20)
        idx = np.array([0, 1, 2, 2, 0, 1, 2, 0, 1])
        levels = thinned_levels(idx, ladder)
        for _ in range(20):
            g = np.concatenate((rng.normal(0, 2, size=4), logit(rng.uniform(0, 0.2, size=9))))
            want = point_loglik(g, 4, idx, ladder)
            assert np.isfinite(want) and point_loglik(g, 4, idx, ladder, levels) == want
        g[4] = logit(0.9)  # above its level 0.25: the barrier
        assert point_loglik(g, 4, idx, ladder, levels) == point_loglik(g, 4, idx, ladder) == -np.inf

    @pytest.mark.parametrize("ladder", [SINGLE, TWO_LEVEL, RateLadder((0.25, 0.5, 1.0))])
    def test_matches_the_general_formula_bit_for_bit(self, ladder):
        # every thinned point at level 1 (as on a one-level ladder) takes
        # the margins sigmoid(-g) alone; the general formula gives the same
        # bits, and so do mixed levels
        rng = np.random.default_rng(21)
        top = ladder.n_levels - 1
        for idx in (np.full(9, top), rng.integers(0, ladder.n_levels, 9)):
            levels = thinned_levels(idx, ladder)
            assert (levels[2] is None) == bool(np.all(idx == top))
            for _ in range(20):
                cap = ladder.as_array()[idx]
                g = np.concatenate((rng.normal(0, 2, size=4), logit(rng.uniform(0, 1, size=9) * cap)))
                want = point_loglik_where(g, 4, idx, ladder)
                assert np.isfinite(want)
                for got in (point_loglik(g, 4, idx, ladder), point_loglik(g, 4, idx, ladder, levels)):
                    assert _same_bits(got, want)

    def test_an_underflowing_level_one_margin_is_minus_inf(self):
        # expit(-800) underflows to 0: log 0 is no likelihood at all
        g = np.array([0.3, 800.0, -1.0])
        assert float(expit(-800.0)) == 0.0
        assert point_loglik(g, 1, [0, 0], SINGLE) == point_loglik_where(g, 1, [0, 0], SINGLE) == -np.inf
        assert point_loglik(g, 1, [1, 1], TWO_LEVEL) == -np.inf

    def test_stable_for_extreme_values(self):
        g = np.array([800.0, -800.0])
        got = point_loglik(g, 1, [0], SINGLE)
        assert np.isfinite(got)
        assert got == pytest.approx(np.log(expit(-(-800.0))) - 0.0, abs=1e-9)


class TestWorkspace:
    @pytest.mark.parametrize("i", [0, 3, 6])
    def test_drop_and_without_match_np_delete_bit_for_bit(self, i):
        A = np.random.default_rng(3).standard_normal((7, 7))
        C = A + A.T
        for got, want in [
            (_drop(C, i), np.delete(np.delete(C, i, axis=0), i, axis=1)),
            (_without(C, i), np.delete(C, i, axis=0)),
            (_without(C[0], i), np.delete(C[0], i)),
        ]:
            assert got.flags.c_contiguous
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def _setup(self, n=6, seed=1):
        rng = np.random.default_rng(seed)
        data = rng.uniform(size=(n, 1))
        ctx = GpContext(data, independent_prior(0.05, 1))
        state = _empty_state(n_data=n, kappa=1.2, theta=0.04)
        state.g_values = rng.standard_normal(n)
        return ctx, state, rng

    def test_weights_solve_c_against_the_residual(self):
        # up to the jitter of 1e-8 of C's mean diagonal
        ctx, state, _ = self._setup()
        ws = _Workspace(ctx, state)
        w = ws.weights()
        atol = 1e-7 * np.mean(np.diag(ws.C)) * np.abs(w).max()
        np.testing.assert_allclose(ws.C @ w, state.g_values - ws.m, rtol=0, atol=atol)

    def test_conditional_matches_mvn_oracle(self):
        ctx, state, rng = self._setup()
        ws = _Workspace(ctx, state)
        x = np.array([0.37])
        pts = np.vstack([ctx.data, x[None, :]])
        m, C = ctx.prior.mean_cov(pts, state.kappa, state.theta, ctx.prior.project(pts, state.theta))
        joint = Mvn(m, C)
        cond = conditional_mvn(joint, np.arange(6), state.g_values)
        mu, var = _moments(ws.conditional(x))
        assert mu == pytest.approx(cond.mean[0], abs=1e-6)
        assert var == pytest.approx(cond.cov[0, 0], abs=1e-6)

    def test_drop_one_conditional_matches_oracle(self):
        ctx, state, _ = self._setup()
        ws = _Workspace(ctx, state)
        x = np.array([0.61])
        keep = [0, 1, 2, 4, 5]  # drop index 3
        pts = np.vstack([ctx.data[keep], x[None, :]])
        m, C = ctx.prior.mean_cov(pts, state.kappa, state.theta, ctx.prior.project(pts, state.theta))
        cond = conditional_mvn(Mvn(m, C), np.arange(5), state.g_values[keep])
        mu, var = _moments(ws.conditional(x, exclude=3))
        assert mu == pytest.approx(cond.mean[0], abs=1e-6)
        assert var == pytest.approx(cond.cov[0, 0], abs=1e-6)

    def test_append_matches_fresh_workspace(self):
        ctx, state, _ = self._setup()
        ws = _Workspace(ctx, state)
        ws.conditional(np.array([0.5]))  # force factorization before append
        ws.append(ws.conditional(np.array([0.8])), -0.3)
        state2 = copy.deepcopy(state)
        append_thinned(state2, [0.8], -0.3, 0)
        ws_fresh = _Workspace(ctx, state2)
        mu_a, var_a = _moments(ws.conditional(np.array([0.15])))
        mu_b, var_b = _moments(ws_fresh.conditional(np.array([0.15])))
        assert mu_a == pytest.approx(mu_b, abs=1e-8)
        assert var_a == pytest.approx(var_b, abs=1e-8)

    def test_update_point_matches_fresh_workspace(self):
        ctx, state, _ = self._setup()
        append_thinned(state, [0.3], 0.2, 0)
        ws = _Workspace(ctx, state)
        ws.update_point(6, ws.conditional(np.array([0.9]), exclude=6), -0.1)
        state2 = copy.deepcopy(state)
        state2.thinned[0] = 0.9
        state2.g_values[6] = -0.1
        ws_fresh = _Workspace(ctx, state2)
        mu_a, var_a = _moments(ws.conditional(np.array([0.45])))
        mu_b, var_b = _moments(ws_fresh.conditional(np.array([0.45])))
        assert mu_a == pytest.approx(mu_b, abs=1e-8)
        assert var_a == pytest.approx(var_b, abs=1e-8)


class TestWorkspaceCache:
    """The cached projection, mean and covariance stay equal to fresh ones
    through any sequence of workspace updates."""

    THETA = 0.01
    KAPPA = 1.1

    def _prior(self, phis=(0.02, 0.05)):
        grid = latent_grid(Region([0.0, 0.0], [1.0, 1.0]), 4)
        values = np.random.default_rng(21).standard_normal((len(phis), grid.size))
        return ConvolutionPrior(values, [LatentFactor(grid, phi) for phi in phis])

    def _fresh(self, prior, ws):
        ctx = GpContext(ws.pts, prior)
        state = _empty_state(n_data=ws.pts.shape[0], kappa=self.KAPPA, theta=self.THETA)
        state.thinned = np.zeros((0, 2))
        state.g_values = ws.g.copy()
        return _Workspace(ctx, state)

    @staticmethod
    def _assert_rel(a, b, rel):
        assert a.shape == b.shape
        scale = max(np.max(np.abs(b)), 1e-300) if b.size else 1.0
        assert np.max(np.abs(a - b), initial=0.0) <= rel * scale

    def test_random_updates_keep_cache_fresh(self):
        rng = np.random.default_rng(22)
        prior = self._prior()
        ctx = GpContext(rng.uniform(size=(5, 2)), prior)
        state = _empty_state(n_data=5, kappa=self.KAPPA, theta=self.THETA)
        state.thinned = np.zeros((0, 2))
        state.g_values = rng.standard_normal(5)
        ws = _Workspace(ctx, state)
        for step in range(40):
            n = ws.pts.shape[0]
            op = rng.choice(["append", "remove", "update"]) if n > 2 else "append"
            if rng.random() < 0.5:
                ws.conditional(rng.uniform(size=2))  # a proposal not taken, as most are
            if op == "append":
                ws.append(ws.conditional(rng.uniform(size=2)), rng.standard_normal())
            elif op == "remove":
                ws.remove(int(rng.integers(n)))
            else:
                i = int(rng.integers(n))
                ws.update_point(i, ws.conditional(rng.uniform(size=2), exclude=i), rng.standard_normal())
            # the layouts byte-identical draws rest on, which fresh ones
            # have: C exactly symmetric, each row of W contiguous (W a view
            # of a row-major buffer), and W exactly sized below four points
            assert np.array_equal(ws.C, ws.C.T)
            assert ws.W.strides[1] == 8
            assert ws.W.shape[1] >= depcox.sgcp._EXACT_BELOW or ws.W.flags.c_contiguous
            # the kept squared norms are the ones of the points, bit for bit
            assert ws.zz.tobytes() == (ws.pts * ws.pts).sum(1).tobytes()
            self._assert_rel(ws.W, prior.project(ws.pts, self.THETA), 1e-10)
            m, C = prior.mean_cov(ws.pts, self.KAPPA, self.THETA, prior.project(ws.pts, self.THETA))
            self._assert_rel(ws.m, m, 1e-10)
            self._assert_rel(ws.C, C, 1e-10)
            fresh = self._fresh(prior, ws)
            x = rng.uniform(size=2)
            j = int(rng.integers(ws.pts.shape[0]))
            for got, want in [
                (_moments(ws.conditional(x)), _moments(fresh.conditional(x))),
                (_moments(ws.conditional(x, exclude=j)), _moments(fresh.conditional(x, exclude=j))),
            ]:
                # an extended factor keeps the jitter it was formed with and
                # a fresh one takes its own, which moves conditionals by ~1e-7
                assert got[0] == pytest.approx(want[0], rel=1e-6, abs=1e-9)
                assert got[1] == pytest.approx(want[1], rel=1e-6, abs=1e-9)

    def test_updates_keep_c_the_floored_residual_covariance(self):
        # a moved point's variance carries the floor, as a new point's does:
        # C stays what mean_cov gives at the points, to a tenth of the floor
        rng = np.random.default_rng(25)
        prior = self._prior()
        ctx = GpContext(rng.uniform(size=(5, 2)), prior)
        state = _empty_state(n_data=5, kappa=self.KAPPA, theta=self.THETA)
        state.thinned = np.zeros((0, 2))
        state.g_values = rng.standard_normal(5)
        ws = _Workspace(ctx, state)
        floor = depcox.convolution.MARGINAL_FLOOR * prior._marginal_var(self.KAPPA, self.THETA)
        for op in ["append", "update", "append", "remove", "update", "append", "update", "remove"]:
            n = ws.pts.shape[0]
            if op == "append":
                ws.append(ws.conditional(rng.uniform(size=2)), rng.standard_normal())
            elif op == "remove":
                ws.remove(int(rng.integers(n)))
            else:
                i = int(rng.integers(n))
                ws.update_point(i, ws.conditional(rng.uniform(size=2), exclude=i), rng.standard_normal())
            _, C = prior.mean_cov(ws.pts, self.KAPPA, self.THETA, ws.W)
            assert np.max(np.abs(ws.C - C)) <= 0.1 * floor, op

    def test_first_append_to_empty_set_conditions(self):
        prior = self._prior()
        ctx = GpContext(np.zeros((0, 2)), prior)
        state = _empty_state(kappa=self.KAPPA, theta=self.THETA)
        state.thinned = np.zeros((0, 2))
        ws = _Workspace(ctx, state)
        x = np.array([0.4, 0.6])
        p = ws.conditional(x)
        var_before = p.var
        ws.append(p, 0.3)
        mu, var = _moments(ws.conditional(x + 1e-3))
        want = _moments(self._fresh(prior, ws).conditional(x + 1e-3))
        assert var < 0.1 * var_before
        assert (mu, var) == pytest.approx(want, rel=1e-8)

    def test_append_at_the_conditioned_site_reuses_its_solve(self, monkeypatch):
        # the proposal carries the site's ks and L^{-1} ks: appending it
        # makes no site call (so computes no cross-covariance) and no
        # solve, and gives what an append of a proposal whose ks is solved
        # against the factor again gives
        rng = np.random.default_rng(24)
        prior = self._prior()
        ctx = GpContext(rng.uniform(size=(5, 2)), prior)
        state = _empty_state(n_data=5, kappa=self.KAPPA, theta=self.THETA)
        state.thinned = np.zeros((0, 2))
        state.g_values = rng.standard_normal(5)
        cached, recomputed = _Workspace(ctx, state), _Workspace(ctx, state)
        for step in range(6):
            x, g = rng.uniform(size=2), rng.standard_normal()
            p = cached.conditional(x)
            q = recomputed.conditional(x)
            q = q._replace(lks=tri_solve(recomputed.L, q.ks))
            with monkeypatch.context() as patched:
                patched.setattr(ConvolutionPrior, "site", lambda *a: pytest.fail("recomputed ks"))
                patched.setattr(depcox.sgcp, "tri_solve", lambda *a, **k: pytest.fail("re-solved"))
                cached.append(p, g)
            recomputed.append(q, g)
            for name in ("C", "_L", "_v", "W", "zz", "m", "g"):
                np.testing.assert_array_equal(getattr(cached, name), getattr(recomputed, name))
        # a change to the points needs a new proposal, whose conditional
        # computes ks at the new points
        cached.remove(0)
        calls = []
        site = ConvolutionPrior.site
        monkeypatch.setattr(ConvolutionPrior, "site", lambda self, *a: calls.append(1) or site(self, *a))
        cached.append(cached.conditional(x), g)
        assert calls



class TestWorkspaceBuffers:
    """The workspace keeps its point set in capacity buffers, updated in
    place, and shows it through views of their first n entries, bit for
    bit the arrays a new array per change gave (``oracles.CopyingPointSet``)."""

    THETA = 0.01
    KAPPA = 1.1
    BUFFERS = ("_pts", "_zz", "_W", "_m", "_g", "_C")

    def _setup(self, seed, n_data=5):
        rng = np.random.default_rng(seed)
        grid = latent_grid(Region([0.0, 0.0], [1.0, 1.0]), 4)
        prior = ConvolutionPrior(rng.standard_normal((2, 16)), [LatentFactor(grid, 0.02), LatentFactor(grid, 0.05)])
        ctx = GpContext(rng.uniform(size=(n_data, 2)), prior)
        state = _empty_state(n_data=n_data, kappa=self.KAPPA, theta=self.THETA)
        state.thinned = np.zeros((0, 2))
        state.g_values = rng.standard_normal(n_data)
        return _Workspace(ctx, state), rng

    def _assert_same(self, ws, oracle):
        for name in CopyingPointSet.NAMES:
            got, want = getattr(ws, name), getattr(oracle, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        assert ws.n == ws.g.size
        for name, view in zip(self.BUFFERS, (ws.pts, ws.zz, ws.W, ws.m, ws.g, ws.C)):
            assert view.base is getattr(ws, name) or view is getattr(ws, name), name
        assert ws.W.strides[1] == 8

    def test_random_updates_match_a_new_array_per_change(self):
        ws, rng = self._setup(26)
        oracle = CopyingPointSet(ws)
        built = ws._zz.size
        assert built == 5  # the build allocates exactly
        removed_at, capacities = set(), [built]

        def append():
            p = ws.conditional(rng.uniform(size=2))
            g = rng.standard_normal()
            ws.append(p, g)
            oracle.append(p, g)

        def remove(i):
            removed_at.add("first" if i == 0 else "last" if i == ws.n - 1 else "middle")
            ws.remove(i)
            oracle.remove(i)

        def update(i):
            p = ws.conditional(rng.uniform(size=2), exclude=i)
            g = rng.standard_normal()
            ws.update_point(i, p, g)
            oracle.update_point(i, p, g)

        ops = ["append"] * 12 + list(rng.choice(["append", "remove", "update"], 60, p=[0.5, 0.25, 0.25]))
        for k, op in enumerate(ops):
            n = ws.n
            i = (0, n // 2, n - 1)[k % 3]
            if op == "append":
                append()
            elif op == "remove":
                remove(i)
            else:
                update(i)
            self._assert_same(ws, oracle)
            if ws._zz.size != capacities[-1]:
                capacities.append(ws._zz.size)
        # down to one point and up again: fewer than four points are held
        # at exactly their number
        while ws.n > 1:
            remove((0, ws.n // 2, ws.n - 1)[ws.n % 3])
            self._assert_same(ws, oracle)
            if ws.n < depcox.sgcp._EXACT_BELOW:
                assert ws._zz.size == ws.n and ws.W.flags.c_contiguous
        for _ in range(6):
            append()
            self._assert_same(ws, oracle)
        grown = [b for a, b in zip(capacities, capacities[1:]) if b > a]
        assert len(grown) >= 2 and max(capacities) > 2 * built
        assert removed_at == {"first", "middle", "last"}

    def test_removal_from_a_full_buffer_at_the_first_thinned_index(self):
        # C's rows move up as one shift of the flat buffer, which at n ==
        # capacity runs to the buffer's last entry
        ws, rng = self._setup(29)
        oracle = CopyingPointSet(ws)
        while ws.n < ws._zz.size or ws.n == 5:
            p = ws.conditional(rng.uniform(size=2))
            g = rng.standard_normal()
            ws.append(p, g)
            oracle.append(p, g)
        assert ws.n == ws._zz.size == ws._C.shape[0] == 12
        for i in (5, ws.n - 2):  # the first thinned index, then the last
            ws.remove(i)
            oracle.remove(i)
            self._assert_same(ws, oracle)

    def test_empty_set_grows_from_nothing(self):
        ws, rng = self._setup(27, n_data=0)
        oracle = CopyingPointSet(ws)
        for _ in range(10):
            p = ws.conditional(rng.uniform(size=2))
            g = rng.standard_normal()
            ws.append(p, g)
            oracle.append(p, g)
            self._assert_same(ws, oracle)

    def test_kernel_states_share_no_memory_with_the_workspace(self):
        # each kernel returns a new state, writes no array of the state it
        # was given and shares none with the workspace's buffers
        ws, rng = self._setup(28)
        ctx = GpContext(ws.pts[:5].copy(), ws.prior)
        region = Region([0.0, 0.0], [1.0, 1.0])
        state = _empty_state(lam=30.0, n_data=5, kappa=self.KAPPA, theta=self.THETA)
        state.thinned = np.zeros((0, 2))
        state.g_values = ws.g.copy()
        kept = []
        for _ in range(4):
            for kernel in (
                lambda s: birth_death_step(s, region, SINGLE, ctx, rng),
                lambda s: move_step(s, region, SINGLE, ctx, rng),
                lambda s: ess_function_update(s, ctx, SINGLE, rng),
                lambda s: hmc_hyper_update(s, ctx, PriorConfig(), rng)[0],
                lambda s: gibbs_lambda_star(s, region, PriorConfig(), SINGLE, rng),
            ):
                given = [a.tobytes() for a in (state.thinned, state.rate_idx, state.g_values)]
                new = kernel(state)
                assert new is not state
                assert [a.tobytes() for a in (state.thinned, state.rate_idx, state.g_values)] == given
                state = new
                kept.append((state, [a.copy() for a in (state.thinned, state.rate_idx, state.g_values)]))
                buffers = [getattr(ctx._ws, name) for name in self.BUFFERS]
                for a in (state.thinned, state.rate_idx, state.g_values):
                    assert not any(np.shares_memory(a, b) for b in buffers)
        assert state.n_thinned > 1
        # the kernels after each state leave it as it was returned
        for s, arrays in kept:
            for a, b in zip((s.thinned, s.rate_idx, s.g_values), arrays):
                assert a.tobytes() == b.tobytes()


class TestWorkspaceLifetime:
    """The context's workspace lives across kernels: a new prior at the same
    latent factors refreshes only the mean; anything that changes ``W`` or
    ``C`` rebuilds it."""

    THETA = 0.01
    KAPPA = 1.1

    def _setup(self):
        rng = np.random.default_rng(23)
        grid = latent_grid(Region([0.0, 0.0], [1.0, 1.0]), 4)
        prior = ConvolutionPrior(rng.standard_normal((2, 16)), [LatentFactor(grid, 0.02), LatentFactor(grid, 0.05)])
        ctx = GpContext(rng.uniform(size=(5, 2)), prior)
        state = _empty_state(n_data=5, kappa=self.KAPPA, theta=self.THETA)
        state.thinned = np.zeros((0, 2))
        append_thinned(state, rng.uniform(size=2), -0.5, 0)
        state.g_values = rng.standard_normal(6)
        return ctx, state, rng

    def test_same_factors_refresh_the_mean_only(self, monkeypatch):
        ctx, state, rng = self._setup()
        ws = ctx.workspace(state)
        W, C = ws.W.copy(), ws.C.copy()
        ws.conditional(rng.uniform(size=2))  # forms the factor
        L = ws.L
        old = ctx.prior
        ctx.prior = ConvolutionPrior(rng.standard_normal((2, 16)), old.factors)
        state.g_values = rng.standard_normal(6)
        with monkeypatch.context() as patched:
            patched.setattr(ConvolutionPrior, "project", lambda *a: pytest.fail("re-projected"))
            assert ctx.workspace(state) is ws
        assert ws.prior is ctx.prior and ws.L is L and ws._v is None
        np.testing.assert_array_equal(ws.W, W)
        np.testing.assert_array_equal(ws.C, C)
        np.testing.assert_array_equal(ws.g, state.g_values)
        pts = ctx.points(state)
        m = ctx.prior.mean(pts, ctx.prior.project(pts, self.THETA), self.KAPPA)
        assert np.max(np.abs(ws.m - m)) <= 1e-10 * np.max(np.abs(m))
        x = rng.uniform(size=2)
        want = _moments(_Workspace(ctx, state).conditional(x))
        assert _moments(ws.conditional(x)) == pytest.approx(want, rel=1e-8)

    def test_refresh_after_a_prior_draw_keeps_its_factor(self, monkeypatch):
        # the factor the slice update draws through serves the next kernel:
        # its conditional factors nothing and gives a fresh workspace's
        # result bit for bit, also after a new prior at the same factors
        ctx, state, rng = self._setup()
        ws = ctx.workspace(state)
        ws.prior_draw(rng)
        L = ws.L
        old = ctx.prior
        ctx.prior = ConvolutionPrior(rng.standard_normal((2, 16)), old.factors)
        state.g_values = rng.standard_normal(6)
        x = rng.uniform(size=2)
        with monkeypatch.context() as patched:
            patched.setattr(depcox.sgcp, "cholesky_with_jitter", lambda *a: pytest.fail("refactored"))
            assert ctx.workspace(state) is ws and ws.L is L
            got = _moments(ws.conditional(x))
        assert got == _moments(_Workspace(ctx, state).conditional(x))

    def test_refreshed_proposals_match_a_fresh_workspace(self):
        # nothing the site call reads from the prior (its latent values,
        # betas, marginal variance) outlives a refresh with a new prior
        ctx, state, rng = self._setup()
        ws = ctx.workspace(state)
        ws.conditional(rng.uniform(size=2))  # forms the factor
        old = ctx.prior
        ctx.prior = ConvolutionPrior(rng.standard_normal((2, 16)), old.factors)
        state.g_values = rng.standard_normal(6)
        assert ctx.workspace(state) is ws and ws.prior is ctx.prior
        fresh = _Workspace(ctx, state)
        for exclude in (None, 5, 0):
            x = rng.uniform(size=2)
            got, want = ws.conditional(x, exclude), fresh.conditional(x, exclude)
            for name, a, b in zip(got._fields, got, want):
                assert (a is None) == (b is None), name
                if a is not None:
                    assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name

    @pytest.mark.parametrize("change", ["kappa", "theta", "phi", "points"])
    def test_changes_to_w_or_c_rebuild(self, change):
        ctx, state, rng = self._setup()
        ws = ctx.workspace(state)
        if change == "kappa":
            state.kappa *= 1.5
        elif change == "theta":
            state.theta *= 1.5
        elif change == "phi":
            old = ctx.prior
            ctx.prior = ConvolutionPrior(old.values, [old.factors[0], LatentFactor(old.grid, 0.07)])
        else:
            state.thinned[0] += 0.01
        rebuilt = ctx.workspace(state)
        assert rebuilt is not ws
        pts = ctx.points(state)
        np.testing.assert_array_equal(rebuilt.W, ctx.prior.project(pts, state.theta))
        m, C = ctx.prior.mean_cov(pts, state.kappa, state.theta, ctx.prior.project(pts, state.theta))
        np.testing.assert_array_equal(rebuilt.m, m)
        np.testing.assert_array_equal(rebuilt.C, C)

    def test_kernels_keep_the_context_workspace_in_step(self):
        ctx, state, rng = self._setup()
        region = Region([0.0, 0.0], [1.0, 1.0])
        state.lambda_star = 30.0
        ws = ctx.workspace(state)
        for _ in range(5):
            state = birth_death_step(state, region, SINGLE, ctx, rng)
            state = move_step(state, region, SINGLE, ctx, rng)
        assert state.n_thinned > 1
        assert ctx.workspace(state) is ws
        np.testing.assert_array_equal(ws.pts, ctx.points(state))
        np.testing.assert_allclose(ws.W, ctx.prior.project(ws.pts, self.THETA), rtol=0, atol=1e-10)


class TestBirthDeath:
    def test_deletion_with_no_points_is_noop(self):
        state = _empty_state()
        ctx = _fixed_ctx(lambda x: np.zeros_like(x))
        # insert probability ~0 so the proposal is a deletion
        out = birth_death_step(state, UNIT, SINGLE, ctx, np.random.default_rng(0), b=1e-12, attempts=1)
        assert out.n_thinned == 0

    def test_fixed_seed_is_deterministic(self):
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        state = _empty_state(lam=10.0)
        ctx = _fixed_ctx(lambda x: np.zeros_like(x))
        a = birth_death_step(state, UNIT, SINGLE, ctx, rng_a, attempts=20)
        b = birth_death_step(state, UNIT, SINGLE, ctx, rng_b, attempts=20)
        np.testing.assert_array_equal(a.thinned, b.thinned)
        np.testing.assert_array_equal(a.g_values, b.g_values)

    def test_stationary_count_single_level(self):
        # conditioned on g == 0 and a fixed bound, the thinned points are
        # Poisson with intensity bound * (1 - sigmoid(0))
        lam = 20.0
        state = _empty_state(lam=lam)
        ctx = _fixed_ctx(lambda x: np.zeros_like(x))
        rng = np.random.default_rng(7)
        counts = []
        for sweep in range(1500):
            state = birth_death_step(state, UNIT, SINGLE, ctx, rng, attempts=15)
            state = move_step(state, UNIT, SINGLE, ctx, rng)
            if sweep >= 300:
                counts.append(state.n_thinned)
        assert np.mean(counts) == pytest.approx(lam * 0.5, abs=1.0)

    def test_stationary_count_two_level(self):
        # sigma = 0.05 on [0, 0.75] (assigned the half level), 0.6 above
        lam = 20.0
        g_lo, g_hi = logit(0.05), logit(0.6)

        def g_true(x):
            return np.where(x < 0.75, g_lo, g_hi)

        expected = lam * (0.75 * (0.5 - 0.05) + 0.25 * (1.0 - 0.6))
        state = _empty_state(lam=lam)
        ctx = _fixed_ctx(g_true)
        rng = np.random.default_rng(8)
        counts = []
        for sweep in range(2500):
            state = birth_death_step(state, UNIT, TWO_LEVEL, ctx, rng, attempts=15)
            state = move_step(state, UNIT, TWO_LEVEL, ctx, rng)
            state.validate(TWO_LEVEL)
            if sweep >= 400:
                counts.append(state.n_thinned)
        assert np.mean(counts) == pytest.approx(expected, rel=0.08)


class TestMoveStep:
    def test_out_of_region_proposals_reject(self):
        state = _empty_state()
        append_thinned(state, [0.5], -1.0, 0)
        ctx = _fixed_ctx(lambda x: np.full_like(x, -1.0))
        out = move_step(state, UNIT, SINGLE, ctx, np.random.default_rng(0), scale=np.array([1e6]))
        np.testing.assert_array_equal(out.thinned, state.thinned)
        np.testing.assert_array_equal(out.g_values, state.g_values)

    def test_accepted_moves_respect_levels(self):
        rng = np.random.default_rng(9)
        g_fn = lambda x: np.sin(6 * x) - 0.5
        state = _empty_state(lam=15.0)
        ctx = _fixed_ctx(g_fn)
        for _ in range(200):
            state = birth_death_step(state, UNIT, TWO_LEVEL, ctx, rng, attempts=10)
            state = move_step(state, UNIT, TWO_LEVEL, ctx, rng)
            state.validate(TWO_LEVEL)


class TestEllipticalSlice:
    def test_empty_state_is_noop(self):
        state = _empty_state()
        ctx = GpContext(np.zeros((0, 1)), independent_prior(0.05, 1))
        out = ess_function_update(state, ctx, SINGLE, np.random.default_rng(0))
        assert out.g_values.size == 0

    def test_fixed_seed_is_deterministic(self):
        state = _empty_state(n_data=4)
        state.g_values = np.array([0.1, -0.2, 0.3, 0.0])
        ctx = GpContext(np.array([[0.1], [0.4], [0.5], [0.9]]), independent_prior(0.05, 1))
        a = ess_function_update(state, ctx, SINGLE, np.random.default_rng(11))
        b = ess_function_update(state, ctx, SINGLE, np.random.default_rng(11))
        np.testing.assert_array_equal(a.g_values, b.g_values)

    def test_flat_likelihood_leaves_prior_invariant(self):
        # with a constant likelihood the transition is a prior sampler
        mean = np.array([1.0, -1.0])
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        L = np.linalg.cholesky(cov)
        rng = np.random.default_rng(12)
        x = mean.copy()
        draws = np.empty((5000, 2))
        for i in range(5000):
            x = elliptical_slice(x, mean, lambda g: 0.0, rng, L @ rng.standard_normal(2))
            draws[i] = x
        for j in range(2):
            p = kstest(draws[:, j], norm(mean[j], 1.0).cdf).pvalue
            assert p > 0.01

    def test_raises_on_invalid_state(self):
        state = _empty_state()
        append_thinned(state, [0.5], 3.0, 0)  # violates the half level
        ctx = GpContext(np.zeros((0, 1)), independent_prior(0.05, 1))
        with pytest.raises(ValidationError):
            ess_function_update(state, ctx, TWO_LEVEL, np.random.default_rng(0))

    def test_update_is_the_slice_through_the_workspace_draw(self):
        # the kernel draws its ellipse through the workspace's factor of C
        # and slices around the workspace's mean, with one random stream
        rng = np.random.default_rng(16)
        ctx = GpContext(rng.uniform(size=(5, 1)), independent_prior(0.05, 1))
        state = _empty_state(n_data=5, kappa=1.2, theta=0.04)
        state.g_values = rng.standard_normal(5)
        append_thinned(state, [0.3], -1.0, 0)
        ws = _Workspace(ctx, state)
        L, _ = cholesky_with_jitter(ws.C)

        def loglik(g):
            return point_loglik(g, state.n_data, state.rate_idx, SINGLE)

        by_hand = np.random.default_rng(17)
        want = elliptical_slice(
            state.g_values, ws.m, loglik, by_hand, L @ by_hand.standard_normal(6)
        )
        got = ess_function_update(state, ctx, SINGLE, np.random.default_rng(17))
        np.testing.assert_array_equal(got.g_values, want)

    def test_degenerate_prior_draws_zeros_without_random_numbers(self):
        ctx = _fixed_ctx(lambda x: np.full(len(x), -0.5), n_data=3)
        state = _empty_state(n_data=3)
        ws = _Workspace(ctx, state)
        assert ws.degenerate
        rng = np.random.default_rng(18)
        before = rng.bit_generator.state
        np.testing.assert_array_equal(ws.prior_draw(rng), np.zeros(3))
        assert rng.bit_generator.state == before


class TestLeapfrog:
    def test_zero_step_size_keeps_position(self):
        q, p, _, ok = leapfrog(lambda q: (0.5 * q @ q, q), np.array([1.0]), np.array([0.7]), 0.0, 10)
        assert ok
        np.testing.assert_array_equal(q, [1.0])

    def test_energy_error_is_second_order(self):
        # quadratic target: halving the step divides the energy error by ~4
        def quad(q):
            return 0.5 * float(q @ q), q

        q0, p0 = np.array([1.0]), np.array([0.5])
        h0 = quad(q0)[0] + 0.5 * p0 @ p0

        def energy_error(eps, n):
            q, p, u, ok = leapfrog(quad, q0, p0, eps, n)
            assert ok
            return abs(u + 0.5 * p @ p - h0)

        ratio = energy_error(0.1, 10) / energy_error(0.05, 20)
        assert 3.0 < ratio < 5.0


class TestHmcHyperUpdate:
    def test_zero_step_size_keeps_hypers(self):
        state = _empty_state(n_data=3)
        state.g_values = np.array([0.5, -0.5, 0.2])
        ctx = GpContext(np.random.default_rng(0).uniform(size=(3, 1)), independent_prior(0.05, 1))
        out, _, _ = hmc_hyper_update(state, ctx, PriorConfig(), np.random.default_rng(1), step_size=0.0)
        assert out.kappa == state.kappa
        assert out.theta == state.theta

    def test_prior_target_with_no_points(self):
        # with no function values the target is the log-normal prior itself
        priors = PriorConfig(kappa_log_mean=0.3, kappa_log_sd=0.7)
        ctx = GpContext(np.zeros((0, 1)), independent_prior(0.05, 1))
        state = _empty_state()
        rng = np.random.default_rng(13)
        draws = np.empty(3000)
        for i in range(3000):
            state, _, _ = hmc_hyper_update(state, ctx, priors, rng, step_size=0.4, n_steps=10)
            draws[i] = np.log(state.kappa)
        p = kstest(draws[::3], norm(0.3, 0.7).cdf).pvalue
        assert p > 0.01

    def test_fixed_seed_is_deterministic(self):
        state = _empty_state(n_data=3)
        state.g_values = np.array([0.5, -0.5, 0.2])
        ctx = GpContext(np.random.default_rng(0).uniform(size=(3, 1)), independent_prior(0.05, 1))
        a, _, _ = hmc_hyper_update(state, ctx, PriorConfig(), np.random.default_rng(2), 0.2)
        b, _, _ = hmc_hyper_update(state, ctx, PriorConfig(), np.random.default_rng(2), 0.2)
        assert a.kappa == b.kappa and a.theta == b.theta

    def test_start_energy_is_evaluated_once(self, monkeypatch):
        # leapfrog takes the start energy and gradient from the caller;
        # made to evaluate them again, it gives the same transition
        state = _empty_state(n_data=3)
        state.g_values = np.array([0.5, -0.5, 0.2])
        ctx = GpContext(np.random.default_rng(0).uniform(size=(3, 1)), independent_prior(0.05, 1))
        calls = []
        energy = depcox.sgcp._hyper_energy
        monkeypatch.setattr(depcox.sgcp, "_hyper_energy", lambda *a: calls.append(1) or energy(*a))

        def run():
            calls.clear()
            out = hmc_hyper_update(state, ctx, PriorConfig(), np.random.default_rng(2), 0.2, 10)
            return out, len(calls)

        (a, accepted_a, prob_a), n_a = run()
        monkeypatch.setattr(
            depcox.sgcp, "leapfrog", lambda f, q0, p0, eps, n, start=None: leapfrog(f, q0, p0, eps, n)
        )
        (b, accepted_b, prob_b), n_b = run()
        assert n_a == 11 and n_b == n_a + 1
        assert (a.kappa, a.theta, accepted_a, prob_a) == (b.kappa, b.theta, accepted_b, prob_b)


class TestHyperEnergy:
    @pytest.mark.parametrize("coupled", [True, False])
    def test_gradient_matches_finite_differences(self, coupled):
        # points a kernel width apart keep C far from singular, so the
        # jitter the factorization adds does not enter
        rng = np.random.default_rng(0)
        pts = np.linspace(0.05, 0.95, 6)[:, None]
        g = rng.standard_normal(6)
        priors = PriorConfig(theta_log_mean=np.log(0.01), kappa_log_sd=0.7, theta_log_sd=0.7)
        grid = latent_grid(UNIT, 4)
        prior = (
            ConvolutionPrior(rng.standard_normal((1, 4)), [LatentFactor(grid, 0.02)])
            if coupled
            else independent_prior(0.02, 1)
        )
        rho, h = np.log([0.8, 0.01]), 1e-5
        _, grad = _hyper_energy(prior, pts, g, rho, priors)
        for i, e in enumerate(np.eye(2)):
            up, _ = _hyper_energy(prior, pts, g, rho + h * e, priors)
            down, _ = _hyper_energy(prior, pts, g, rho - h * e, priors)
            assert grad[i] == pytest.approx((up - down) / (2 * h), rel=1e-5)


def _same_bits(got, want) -> bool:
    """Whether two floats, arrays or (nested) tuples of them agree bit for bit."""
    if isinstance(got, tuple) or isinstance(want, tuple):
        return len(got) == len(want) and all(_same_bits(a, b) for a, b in zip(got, want))
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestHyperEnergyBits:
    """The energy and ``mean_cov_grads`` give, bit for bit, what their
    stacked forms (``oracles.hyper_energy_stacked``,
    ``oracles.mean_cov_grads_stacked``) give, so a Hamiltonian step moves
    exactly as it did."""

    PRIORS = PriorConfig(theta_log_mean=np.log(0.005), kappa_log_sd=0.7, theta_log_sd=0.7)

    @staticmethod
    def _prior(kind, dim, rng, per_axis=4, phis=(0.02, 0.05)):
        if kind == "independent":
            return independent_prior(0.02, dim)
        grid = latent_grid(Region([0.0] * dim, [1.0] * dim), per_axis)
        phis = list(phis[: 1 if kind == "one" else 2])
        return ConvolutionPrior(rng.standard_normal((len(phis), grid.size)), [LatentFactor(grid, phi) for phi in phis])

    def _assert_same(self, prior, pts, g, rho):
        kappa, theta = float(np.exp(rho[0])), float(np.exp(rho[1]))
        got = prior.mean_cov_grads(pts, kappa, theta)
        want = mean_cov_grads_stacked(prior, pts, kappa, theta)
        for a, b in zip((got[0], got[1], *got[2], *got[3]), (want[0], want[1], *want[2], *want[3])):
            assert _same_bits(a, b)
        assert _same_bits(_hyper_energy(prior, pts, g, rho, self.PRIORS),
                          hyper_energy_stacked(prior, pts, g, rho, self.PRIORS))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", ["one", "two", "independent"])
    def test_energy_and_derivatives_match_the_stacked_forms(self, dim, kind):
        rng = np.random.default_rng(40 + dim)
        prior = self._prior(kind, dim, rng)
        for n in (1, 5, 37):
            pts, g = rng.uniform(size=(n, dim)), rng.standard_normal(n)
            for rho in (np.log([1.1, 0.005]), rng.normal([0.0, np.log(0.005)], 1.0)):
                self._assert_same(prior, pts, g, rho)

    def test_a_near_singular_covariance_escalates_jitter_alike(self, monkeypatch):
        # without the marginal floor the residual covariance of a grid that
        # resolves the kernel is mostly cancellation noise, which the
        # factor takes doubled jitters to absorb
        monkeypatch.setattr(depcox.convolution, "MARGINAL_FLOOR", 0.0)
        rng = np.random.default_rng(60)
        prior = self._prior("one", 1, rng, per_axis=10, phis=(0.5,))
        pts, g = rng.uniform(size=(40, 1)), rng.standard_normal(40)
        rho = np.log([1.0, 0.0005])
        kappa, theta = float(np.exp(rho[0])), float(np.exp(rho[1]))
        _, C, _, _ = prior.mean_cov_grads(pts, kappa, theta)
        _, jitter = cholesky_with_jitter(C)
        assert jitter > 1.5 * JITTER_SCALE * np.trace(C) / 40  # at least one doubling
        self._assert_same(prior, pts, g, rho)


class TestGibbsLambda:
    def test_posterior_parameters_single_level(self):
        state = _empty_state(n_data=3)
        state.g_values = np.zeros(3)
        append_thinned(state, [0.1], -1.0, 0)
        append_thinned(state, [0.2], -1.0, 0)
        shape, rate = lambda_posterior(state, UNIT, PriorConfig(lambda_alpha=1.0, lambda_beta=1.0), SINGLE)
        assert shape == pytest.approx(6.0)
        assert rate == pytest.approx(2.0)

    def test_posterior_parameters_two_level(self):
        # two observed at the top level, four thinned at the half level
        state = _empty_state(n_data=2)
        state.g_values = np.array([logit(0.6), logit(0.7)])
        for _ in range(4):
            append_thinned(state, [0.3], logit(0.2), 0)
        shape, rate = lambda_posterior(
            state, UNIT, PriorConfig(lambda_alpha=1.0, lambda_beta=0.1), TWO_LEVEL
        )
        assert shape == pytest.approx(11.0)
        assert rate == pytest.approx(1.1)

    def test_observed_points_at_and_above_the_scaled_levels(self):
        # observed sigmoids at each slack-scaled level of (0.25, 0.5, 1),
        # that is 0.225, 0.45 and 0.9, as near as a sigmoid of a float
        # reaches from below, the next sigmoid a float reaches above each,
        # and 0.95: each counts 1 / its level in the shape
        ladder = RateLadder((0.25, 0.5, 1.0))
        g = [bound for s in ladder.as_array() * SLACK for bound in _sigmoid_bracket(s)]
        state = _empty_state(n_data=7)
        state.g_values = np.array(g + [logit(0.95)])
        sig = sigmoid_array(state.g_values)
        assert [assign_rate_searchsorted(v, ladder) for v in sig] == [0, 1, 1, 2, 2, 2, 2]
        shape, rate = lambda_posterior(state, UNIT, PriorConfig(lambda_alpha=1.5, lambda_beta=0.1), ladder)
        assert shape == 1.5 + 4 + 2 + 2 + 1 + 1 + 1 + 1
        assert rate == pytest.approx(1.1)

    def test_no_events_shifts_only_rate(self):
        state = _empty_state()
        shape, rate = lambda_posterior(state, UNIT, PriorConfig(lambda_alpha=1.3, lambda_beta=0.2), SINGLE)
        assert shape == pytest.approx(1.3)
        assert rate == pytest.approx(1.2)

    def test_draws_match_gamma_moments(self):
        state = _empty_state(n_data=3)
        state.g_values = np.zeros(3)
        append_thinned(state, [0.1], -1.0, 0)
        append_thinned(state, [0.2], -1.0, 0)
        priors = PriorConfig(lambda_alpha=1.0, lambda_beta=1.0)
        rng = np.random.default_rng(14)
        draws = np.array(
            [gibbs_lambda_star(state, UNIT, priors, SINGLE, rng).lambda_star for _ in range(20000)]
        )
        assert draws.mean() == pytest.approx(3.0, abs=0.05)
        assert draws.var() == pytest.approx(1.5, rel=0.07)


class TestFullSweepInvariants:
    def test_levels_hold_after_every_kernel(self):
        rng = np.random.default_rng(15)
        data = rng.uniform(size=(12, 1))
        ctx = GpContext(data, independent_prior(0.05, 1))
        priors = PriorConfig(theta_log_mean=np.log(0.05))
        state = _empty_state(lam=25.0, n_data=12, theta=0.05)
        state.g_values = rng.standard_normal(12) * 0.5
        ladder = TWO_LEVEL
        for _ in range(50):
            state = birth_death_step(state, UNIT, ladder, ctx, rng)
            state.validate(ladder)
            state = move_step(state, UNIT, ladder, ctx, rng)
            state.validate(ladder)
            state = ess_function_update(state, ctx, ladder, rng)
            state.validate(ladder)
            state, _, _ = hmc_hyper_update(state, ctx, priors, rng, 0.1)
            state.validate(ladder)
            state = gibbs_lambda_star(state, UNIT, priors, ladder, rng)
            state.validate(ladder)
