"""Engine orchestration tests: counting, determinism, summaries, diagnostics."""

import copy
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import ks_2samp

import depcox.convolution
import depcox.engine
import depcox.sgcp
from depcox.convolution import ConvolutionPrior, phi_mh_update
from depcox.engine import (
    PosteriorSample,
    RunConfig,
    diagnostics,
    effective_sample_size,
    intensity_samples,
    run_chain_with_info,
    split_psrf,
    start_chain,
    summarize,
    sweep,
)
from depcox.errors import NumericalError, ValidationError
from depcox.generate import sample_events, sample_ground_truth
from depcox.metrics import Quadrature
from depcox.sgcp import EventSet, PriorConfig, Region
from depcox.thinning import RateLadder
from oracles import hyper_energy_stacked, mean_cov_grads_stacked, point_loglik_where, site_and_row

UNIT = Region([0.0], [1.0])


def _small_priors():
    # scales matched to a unit region so chains settle quickly
    return PriorConfig(
        lambda_beta=0.1,
        kappa_log_mean=0.0,
        kappa_log_sd=0.7,
        theta_log_mean=np.log(0.005),
        theta_log_sd=0.7,
        phi_log_mean=np.log(0.01),
        phi_log_sd=0.7,
    )


def _small_config(**kw):
    base = dict(
        n_iters=8,
        burn_in=2,
        thin_every=1,
        seed=1,
        ladder=RateLadder((1.0,)),
        n_latent=1,
        grid_per_axis=10,
        priors=_small_priors(),
    )
    base.update(kw)
    return RunConfig(**base)


def _toy_data(seed=0, n_proc=2, lam=(20.0, 25.0)):
    rng = np.random.default_rng(seed)
    truth = sample_ground_truth(
        UNIT, n_proc, 1, rng, lambda_star_range=(min(lam), max(lam)), grid_per_axis=10
    )
    return sample_events(truth, rng), truth


class TestRunChain:
    def test_single_sample_when_iters_is_burnin_plus_one(self):
        data, _ = _toy_data()
        samples = run_chain_with_info(data, UNIT, _small_config(n_iters=4, burn_in=3))[0]
        assert len(samples) == 1
        assert samples[0].iteration == 3

    def test_thinning_counts(self):
        data, _ = _toy_data()
        samples = run_chain_with_info(data, UNIT, _small_config(n_iters=10, burn_in=4, thin_every=2))[0]
        assert [s.iteration for s in samples] == [4, 6, 8]

    def test_cached_projections_match_fresh_ones(self, monkeypatch):
        # the second chain's workspaces recompute their projection from
        # scratch at every use, so a workspace update that leaves its
        # cached projection stale makes the two chains part
        square = Region([0.0, 0.0], [1.0, 1.0])
        rng = np.random.default_rng(31)
        truth = sample_ground_truth(square, 2, 1, rng, lambda_star_range=(20.0, 25.0), grid_per_axis=6)
        data = sample_events(truth, rng)
        cfg = _small_config(n_iters=10, burn_in=0, grid_per_axis=6, seed=4)
        cached = run_chain_with_info(data, square, cfg)[0]
        monkeypatch.setattr(
            depcox.sgcp._Workspace,
            "W",
            property(lambda ws: ws.prior.project(ws.pts, ws.theta), lambda ws, value: None),
            raising=False,
        )
        fresh = run_chain_with_info(data, square, cfg)[0]
        assert len(cached) == len(fresh) == 10
        for a, b in zip(cached, fresh):
            assert [t.shape[0] for t in a.thinned] == [t.shape[0] for t in b.thinned]
            for x, y in [
                (a.latent_values, b.latent_values),
                (a.lambda_stars, b.lambda_stars),
                *zip(a.g_values, b.g_values),
                *zip(a.thinned, b.thinned),
            ]:
                assert np.max(np.abs(x - y), initial=0.0) <= 1e-6 * np.max(np.abs(y), initial=0.0)

    @pytest.mark.parametrize("independent", [False, True])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_kept_workspace_matches_one_rebuilt_at_every_use(self, monkeypatch, dim, independent):
        # the second chain builds each process's workspace afresh whenever a
        # kernel or the latent stage asks for it, as if none were kept. The
        # step sizes mix accepts and rejects, so the first chain both
        # rebuilds its workspaces and keeps them through new priors.
        region = Region([0.0] * dim, [1.0] * dim)
        rng = np.random.default_rng(32 + dim)
        truth = sample_ground_truth(region, 2, 2, rng, lambda_star_range=(20.0, 25.0), grid_per_axis=6)
        data = sample_events(truth, rng)
        cfg = _small_config(
            n_iters=10, burn_in=0, n_latent=2, grid_per_axis=6, seed=5, independent=independent
        )
        monkeypatch.setattr(depcox.engine, "HMC_STEP_SIZE", 0.3)
        monkeypatch.setattr(depcox.engine, "PHI_STEP_SIZE", 3.0)
        kept = run_chain_with_info(data, region, cfg)[0]
        monkeypatch.setattr(
            depcox.sgcp.GpContext, "workspace", lambda ctx, state: depcox.sgcp._Workspace(ctx, state)
        )
        rebuilt = run_chain_with_info(data, region, cfg)[0]
        assert len(kept) == len(rebuilt) == 10
        for a, b in zip(kept, rebuilt):
            assert [t.shape[0] for t in a.thinned] == [t.shape[0] for t in b.thinned]
            np.testing.assert_array_equal(a.lambda_stars, b.lambda_stars)
            # a kept C carries the rounding of its updates and C is a
            # near-total cancellation, so draws through it move (by 5.8e-6
            # relative in 1D with the coupled prior, 0 with the independent one)
            for x, y in [
                (a.latent_values, b.latent_values),
                (a.kappas, b.kappas),
                (a.thetas, b.thetas),
                (a.phis, b.phis),
                *zip(a.g_values, b.g_values),
                *zip(a.thinned, b.thinned),
            ]:
                assert np.max(np.abs(x - y), initial=0.0) <= 1e-4 * np.max(np.abs(y), initial=0.0)

    @pytest.mark.parametrize("independent", [False, True])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_per_site_call_keeps_every_draw(self, monkeypatch, dim, independent):
        # the second chain computes each proposal's site through the
        # projection, mean and covariance calls (oracles.site_and_row) and
        # symmetrises every covariance it factors: the route the per-site
        # call and the copied factor buffer replace, draw for draw
        region = Region([0.0] * dim, [1.0] * dim)
        rng = np.random.default_rng(40 + dim)
        truth = sample_ground_truth(region, 2, 2, rng, lambda_star_range=(20.0, 25.0), grid_per_axis=6)
        data = sample_events(truth, rng)
        cfg = _small_config(
            n_iters=8, burn_in=0, n_latent=2, grid_per_axis=6, seed=6, independent=independent
        )
        fast = run_chain_with_info(data, region, cfg)[0]
        for cls in (depcox.convolution.ConvolutionPrior, depcox.convolution.IndependentPrior):
            monkeypatch.setattr(
                cls, "site", lambda prior, x, xx, pts, zz, W, s:
                site_and_row(prior, x, pts, W, s.kappa, s.theta)
            )
        chol = depcox.sgcp.cholesky_with_jitter
        monkeypatch.setattr(depcox.sgcp, "cholesky_with_jitter", lambda cov, symmetric=False: chol(cov))
        oracle = run_chain_with_info(data, region, cfg)[0]
        assert len(fast) == len(oracle) == 8
        assert sum(t.shape[0] for a in fast for t in a.thinned) > 0
        for a, b in zip(fast, oracle):
            for name in ("lambda_stars", "kappas", "thetas", "phis", "latent_values"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
            for name in ("thinned", "rate_idx", "g_values"):
                for x, y in zip(getattr(a, name), getattr(b, name)):
                    assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), name

    @pytest.mark.parametrize("dim,levels", [(1, (0.5, 1.0)), (2, (1.0,))], ids=["1d-two-level", "2d"])
    def test_stacked_energy_and_general_loglik_keep_every_draw(self, monkeypatch, dim, levels):
        # the second chain evaluates the Hamiltonian energy and its
        # derivatives as they once were (oracles.hyper_energy_stacked) and
        # every point likelihood through the general formula
        # (oracles.point_loglik_where): the route this sampler's fewer numpy
        # calls replace, draw for draw
        region = Region([0.0] * dim, [1.0] * dim)
        rng = np.random.default_rng(50 + dim)
        truth = sample_ground_truth(region, 2, 2, rng, lambda_star_range=(20.0, 25.0), grid_per_axis=6)
        data = sample_events(truth, rng)
        cfg = _small_config(
            n_iters=8, burn_in=0, n_latent=2, grid_per_axis=6, seed=7, ladder=RateLadder(levels)
        )
        fast = run_chain_with_info(data, region, cfg)[0]
        calls = {"energy": 0, "loglik": 0}

        def energy(prior, pts, g, rho, priors):
            out = hyper_energy_stacked(prior, pts, g, rho, priors)
            calls["energy"] += 1
            return out

        def loglik(*args):
            calls["loglik"] += 1
            return point_loglik_where(*args)

        monkeypatch.setattr(depcox.sgcp, "_hyper_energy", energy)
        monkeypatch.setattr(depcox.sgcp, "point_loglik", loglik)
        for cls in (depcox.convolution.ConvolutionPrior, depcox.convolution.IndependentPrior):
            monkeypatch.setattr(cls, "mean_cov_grads", mean_cov_grads_stacked)
        oracle = run_chain_with_info(data, region, cfg)[0]
        assert calls["energy"] > 8 and calls["loglik"] > 8  # energies evaluated in range
        assert len(fast) == len(oracle) == 8
        assert sum(t.shape[0] for a in fast for t in a.thinned) > 0
        if len(levels) > 1:  # both levels held thinned points
            assert {int(r) for a in fast for idx in a.rate_idx for r in idx} == {0, 1}
        for a, b in zip(fast, oracle):
            for name in ("lambda_stars", "kappas", "thetas", "phis", "latent_values"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
            for name in ("thinned", "rate_idx", "g_values"):
                for x, y in zip(getattr(a, name), getattr(b, name)):
                    assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), name

    def test_latent_gram_is_factored_densely_once_per_accepted_phi(self, monkeypatch):
        # draws go through a dense factor of each latent Gram, formed at the
        # start and at each accepted phi; proposals, workspaces and the
        # eval go through the per-axis factors
        square = Region([0.0, 0.0], [1.0, 1.0])
        rng = np.random.default_rng(34)
        truth = sample_ground_truth(square, 2, 1, rng, lambda_star_range=(20.0, 25.0), grid_per_axis=6)
        data = sample_events(truth, rng)
        cfg = _small_config(n_iters=12, burn_in=0, grid_per_axis=5, seed=6)
        monkeypatch.setattr(depcox.engine, "PHI_STEP_SIZE", 0.5)
        grid = depcox.convolution.latent_grid(square, 5).nodes
        grams, accepted = [], []
        gram, update = depcox.convolution.gauss_gram, depcox.engine.phi_mh_update

        def recording_gram(X, Z, variance):
            grams.extend([variance] if X is Z and np.array_equal(X, grid) else [])
            return gram(X, Z, variance)

        def recording_update(*args, **kwargs):
            prior, acc = update(*args, **kwargs)
            accepted.append(int(acc.sum()))
            return prior, acc

        monkeypatch.setattr(depcox.convolution, "gauss_gram", recording_gram)
        monkeypatch.setattr(depcox.engine, "phi_mh_update", recording_update)
        samples = run_chain_with_info(data, square, cfg)[0]
        intensity_samples(samples, rng.uniform(size=(7, 2)), data, square, cfg)
        assert 0 < sum(accepted) < len(accepted)
        assert len(grams) == 1 + sum(accepted)

    def test_first_birth_death_reuses_the_initial_draws_workspace(self, monkeypatch):
        # each process's initial draw builds its workspace, and the first
        # birth/death takes that one over instead of projecting the points again
        data, _ = _toy_data()
        project, birth_death = depcox.convolution.ConvolutionPrior.project, depcox.engine.birth_death_step
        inside, calls = [], []

        def recording_project(prior, X, theta):
            calls.append(bool(inside))
            return project(prior, X, theta)

        def recording_birth_death(*args, **kwargs):
            inside.append(1)
            try:
                return birth_death(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(depcox.convolution.ConvolutionPrior, "project", recording_project)
        monkeypatch.setattr(depcox.engine, "birth_death_step", recording_birth_death)
        run_chain_with_info(data, UNIT, _small_config(n_iters=1, burn_in=0))
        assert calls[: len(data)] == [False] * len(data)
        assert True not in calls

    def test_latent_stage_factors_no_process_covariance(self, monkeypatch):
        # the latent posterior reads each workspace's factor of C, which the
        # function slice update's prior draw formed; with every Hamiltonian
        # proposal rejected, no workspace is rebuilt before the latent stage
        data, _ = _toy_data()
        inside, stages, factored = [], [], []
        monkeypatch.setattr(
            depcox.engine, "hmc_hyper_update", lambda state, *a, **k: (copy.deepcopy(state), False, 0.0)
        )
        for module in (depcox.sgcp, depcox.convolution):
            def recording(cov, *args, _original=module.cholesky_with_jitter, **kwargs):
                factored.extend([np.shape(cov)] if inside else [])
                return _original(cov, *args, **kwargs)

            monkeypatch.setattr(module, "cholesky_with_jitter", recording)
        for name in ("_latent_ess_move", "sample_latent_posterior"):
            def staged(*args, _original=getattr(depcox.engine, name), **kwargs):
                inside.append(1)
                stages.append(1)
                try:
                    return _original(*args, **kwargs)
                finally:
                    inside.pop()

            monkeypatch.setattr(depcox.engine, name, staged)
        run_chain_with_info(data, UNIT, _small_config(n_iters=5, burn_in=0))
        assert len(stages) == 2 * 5
        assert factored == []

    @pytest.mark.parametrize("dim, per_axis, precision_form", [(2, 8, False), (1, 5, True)])
    def test_latent_precision_only_with_more_points_than_latent_values(
        self, monkeypatch, dim, per_axis, precision_form
    ):
        # a 2D run on an 8x8 grid holds fewer points than its 64 latent
        # values, so the latent draw never forms the (Q*J)^2 precision; a 1D
        # run on a 5-node grid holds more and forms it once per sweep
        region = Region([0.0] * dim, [1.0] * dim)
        rng = np.random.default_rng(50 + dim)
        truth = sample_ground_truth(region, 2, 1, rng, lambda_star_range=(20.0, 25.0), grid_per_axis=6)
        data = sample_events(truth, rng)
        points, posteriors = [], []
        posterior, sample = depcox.convolution.latent_posterior, depcox.engine.sample_latent_posterior

        def recording_posterior(*args):
            posteriors.append(1)
            return posterior(*args)

        def recording_sample(spaces, *args):
            points.append(sum(ws.g.size for ws in spaces))
            return sample(spaces, *args)

        monkeypatch.setattr(depcox.convolution, "latent_posterior", recording_posterior)
        monkeypatch.setattr(depcox.engine, "sample_latent_posterior", recording_sample)
        run_chain_with_info(data, region, _small_config(n_iters=6, burn_in=0, grid_per_axis=per_axis))
        assert len(points) == 6
        assert all((n >= per_axis**dim) == precision_form for n in points)
        assert len(posteriors) == (6 if precision_form else 0)

    def test_rejects_events_outside_region(self):
        data = [EventSet(np.array([[1.5]]))]
        with pytest.raises(ValidationError):
            run_chain_with_info(data, UNIT, _small_config())

    def test_kernel_errors_carry_iteration_and_process(self, monkeypatch):
        data, _ = _toy_data()

        def boom(*args, **kwargs):
            raise ValidationError("synthetic failure")

        monkeypatch.setattr(depcox.engine, "move_step", boom)
        with pytest.raises(ValidationError, match=r"iteration 0, process 0"):
            run_chain_with_info(data, UNIT, _small_config())
        monkeypatch.undo()

        calls = []

        def fails_at_the_third_sweep(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise NumericalError("synthetic failure")
            return phi_mh_update(*args, **kwargs)

        monkeypatch.setattr(depcox.engine, "phi_mh_update", fails_at_the_third_sweep)
        with pytest.raises(NumericalError, match=r"^iteration 2, latent stage: synthetic failure$"):
            run_chain_with_info(data, UNIT, _small_config())

    @staticmethod
    def _resumable_case(dim, independent):
        region = Region([0.0] * dim, [1.0] * dim)
        rng = np.random.default_rng(60 + dim)
        truth = sample_ground_truth(region, 2, 1, rng, lambda_star_range=(20.0, 25.0), grid_per_axis=6)
        cfg = _small_config(n_iters=30, burn_in=16, grid_per_axis=6, seed=7, independent=independent)
        return sample_events(truth, rng), region, cfg

    @staticmethod
    def _continue(chain, region, cfg, info, whole):
        # sweeps the chain to the end of the run, keeping the draws
        # run_chain_with_info keeps, and requires them and the acceptance
        # rates to be the uninterrupted run's
        draws = []
        for it in range(chain.sweeps, cfg.n_iters):
            sweep(chain, region, cfg)
            draws += [chain.sample()] if it >= cfg.burn_in else []
        np.testing.assert_array_equal(chain.hmc_step.accept_rate, info.hmc_accept_rate)
        assert float(chain.phi_step.accept_rate) == info.phi_accept_rate
        assert len(draws) == len(whole) == cfg.n_iters - cfg.burn_in
        for a, b in zip(whole, draws):
            assert a.iteration == b.iteration
            for name in ("lambda_stars", "kappas", "thetas", "phis", "latent_values"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
            for name in ("thinned", "rate_idx", "g_values"):
                for x, y in zip(getattr(a, name), getattr(b, name)):
                    np.testing.assert_array_equal(x, y, err_msg=name)

    @pytest.mark.parametrize("dim, independent", [(1, False), (2, False), (1, True)])
    def test_a_loop_over_sweep_is_the_run(self, dim, independent):
        data, region, cfg = self._resumable_case(dim, independent)
        whole, info = run_chain_with_info(data, region, cfg)
        self._continue(start_chain(data, region, cfg), region, cfg, info, whole)

    @pytest.mark.parametrize("dim, independent", [(1, False), (2, False), (1, True)])
    def test_a_copied_chain_continues_as_the_uninterrupted_run(self, dim, independent):
        # the chain state is all a sweep reads: a deep copy taken in burn-in,
        # with the steps still adapting, continues draw for draw
        data, region, cfg = self._resumable_case(dim, independent)
        whole, info = run_chain_with_info(data, region, cfg)
        chain = start_chain(data, region, cfg)
        for _ in range(12):
            sweep(chain, region, cfg)
        copied = copy.deepcopy(chain)
        for _ in range(3):  # moving the original leaves the copy where it was
            sweep(chain, region, cfg)
        self._continue(copied, region, cfg, info, whole)

    @pytest.mark.parametrize("dim, independent", [(1, False), (2, False), (1, True)])
    def test_samples_share_no_memory_with_the_workspaces(self, dim, independent):
        # a retained sample holds the states' own arrays: no sweep writes a
        # state array in place, and the kernels write only the workspace
        # buffers, which no state shares, so sweeps after it leave it as taken
        data, region, cfg = self._resumable_case(dim, independent)
        chain = start_chain(data, region, cfg)
        taken = []
        for _ in range(6):
            sweep(chain, region, cfg)
            sample = chain.sample()
            arrays = [*sample.thinned, *sample.rate_idx, *sample.g_values]
            buffers = [getattr(ctx._ws, name) for ctx in chain.contexts
                       for name in ("_pts", "_zz", "_W", "_m", "_g", "_C")]
            assert not any(np.shares_memory(a, b) for a in arrays for b in buffers)
            taken.append((arrays, [a.tobytes() for a in arrays]))
        assert sum(a.size for a in taken[-1][0]) > 0
        for arrays, before in taken:
            assert [a.tobytes() for a in arrays] == before

    def test_hmc_acceptance_in_healthy_window(self, monkeypatch):
        # The adapted Hamiltonian kernel on a fixed target: every other move
        # is held, so the points, function values and latent values keep
        # their starting draw and (log kappa, log theta) has one conditional
        # per chain. A whole chain's acceptance spreads over 0.37-0.63
        # across chain seeds; here each seed's lies within 0.62-0.79. The
        # step adapted in burn-in must also mix the hyperparameters: with a
        # broken gradient the adaptation still finds an acceptable step, but
        # one 10-20x smaller, which moves them as a slow random walk.
        held = lambda state, *args, **kwargs: state  # noqa: E731
        for name in ("birth_death_step", "move_step", "ess_function_update", "gibbs_lambda_star"):
            monkeypatch.setattr(depcox.engine, name, held)
        monkeypatch.setattr(depcox.engine, "_latent_ess_move", lambda *args: None)
        monkeypatch.setattr(depcox.engine, "sample_latent_posterior",
                            lambda spaces, prior, rng, A: prior.values)
        monkeypatch.setattr(depcox.engine, "phi_mh_update",
                            lambda values, factors, rng, **kw: (factors, np.zeros(len(factors))))
        hypers = []
        hmc = depcox.engine.hmc_hyper_update

        def recording(*args):
            out = hmc(*args)
            hypers.append((out[0].kappa, out[0].theta))
            return out

        monkeypatch.setattr(depcox.engine, "hmc_hyper_update", recording)
        data, _ = _toy_data(seed=3, n_proc=1, lam=(25.0, 30.0))
        rates, ess = [], []
        for seed in range(4):
            hypers.clear()
            cfg = _small_config(n_iters=800, burn_in=300, seed=seed)
            rates.append(run_chain_with_info(data, UNIT, cfg)[1].hmc_accept_rate[0])
            trace = np.log(hypers[cfg.burn_in:])  # 500 post-adaptation transitions
            ess.append(min(effective_sample_size(trace[:, 0]), effective_sample_size(trace[:, 1])))
        assert 0.4 < np.mean(rates) < 0.95
        assert np.median(ess) > 50  # about 290 here; below 20 with a broken gradient

    def test_memory_stays_per_process(self, monkeypatch):
        recorded = []
        original = depcox.convolution.gauss_gram

        def recording(X, Z, variance):
            out = original(X, Z, variance)
            recorded.append(out.shape)
            return out

        monkeypatch.setattr(depcox.convolution, "gauss_gram", recording)
        data, _ = _toy_data(seed=4, n_proc=3, lam=(15.0, 20.0))
        cfg = _small_config(n_iters=8, burn_in=2, grid_per_axis=10)
        samples = run_chain_with_info(data, UNIT, cfg)[0]
        n_max = max(
            max(len(s.g_values[d]) for s in samples) for d in range(3)
        )
        cap = max(n_max + 25, cfg.grid_per_axis * cfg.n_latent)
        biggest = max(max(shape) for shape in recorded)
        assert biggest <= cap
        # and in particular never the all-process joint
        n_sum = sum(len(samples[-1].g_values[d]) for d in range(3))
        assert biggest < max(n_sum, cap + 1)

    def test_near_zero_coupling_matches_independent_model(self):
        # with the coupling scale pinned near zero the structured chain's
        # per-process statistics follow the uncoupled model
        data, _ = _toy_data(seed=6, n_proc=1, lam=(20.0, 22.0))
        priors = _small_priors()
        priors.kappa_log_mean = -20.0
        priors.kappa_log_sd = 0.05
        cfg_dep = _small_config(n_iters=400, burn_in=100, priors=priors, seed=11)
        cfg_ind = _small_config(n_iters=400, burn_in=100, priors=priors, seed=12, independent=True)
        s_dep = run_chain_with_info(data, UNIT, cfg_dep)[0]
        s_ind = run_chain_with_info(data, UNIT, cfg_ind)[0]
        m_dep = np.array([s.thinned[0].shape[0] for s in s_dep])[::5]
        m_ind = np.array([s.thinned[0].shape[0] for s in s_ind])[::5]
        lam_dep = np.array([s.lambda_stars[0] for s in s_dep])[::5]
        lam_ind = np.array([s.lambda_stars[0] for s in s_ind])[::5]
        assert ks_2samp(m_dep, m_ind).pvalue > 0.01
        assert ks_2samp(lam_dep, lam_ind).pvalue > 0.01


class TestSummarize:
    def _manual_samples(self, doubled=False):
        rng = np.random.default_rng(8)
        data = [EventSet(rng.uniform(size=(5, 1)))]
        factor = 2.0 if doubled else 1.0
        samples = [
            PosteriorSample(
                iteration=i,
                thinned=[np.zeros((0, 1))],
                rate_idx=[np.zeros(0, dtype=int)],
                g_values=[rng2.standard_normal(5)],
                lambda_stars=np.array([10.0 * factor]),
                kappas=np.array([1.0]),
                thetas=np.array([0.01]),
                latent_values=np.zeros((0, 0)),
                phis=np.zeros(0),
            )
            for i, rng2 in enumerate([np.random.default_rng(21), np.random.default_rng(22)])
        ]
        return samples, data

    def test_single_sample_has_zero_sd(self):
        samples, data = self._manual_samples()
        cfg = _small_config(independent=True)
        grid = np.linspace(0, 1, 20)[:, None]
        summary = summarize(samples[:1], grid, data, UNIT, cfg)
        np.testing.assert_array_equal(summary.intensity_sd, 0.0)

    def test_identical_samples_have_zero_sd(self):
        samples, data = self._manual_samples()
        cfg = _small_config(independent=True)
        grid = np.linspace(0, 1, 20)[:, None]
        summary = summarize([samples[0], samples[0]], grid, data, UNIT, cfg)
        np.testing.assert_allclose(summary.intensity_sd, 0.0, atol=1e-9)

    def test_doubling_bound_doubles_mean(self):
        samples, data = self._manual_samples()
        doubled, _ = self._manual_samples(doubled=True)
        cfg = _small_config(independent=True)
        grid = np.linspace(0, 1, 20)[:, None]
        base = summarize(samples, grid, data, UNIT, cfg)
        twice = summarize(doubled, grid, data, UNIT, cfg)
        np.testing.assert_allclose(twice.intensity_mean, 2.0 * base.intensity_mean, rtol=1e-12)

    def test_intensity_samples_matches_summary_mean(self):
        samples, data = self._manual_samples()
        cfg = _small_config(independent=True)
        grid = np.linspace(0, 1, 10)[:, None]
        summary = summarize(samples, grid, data, UNIT, cfg)
        lams = intensity_samples(samples, grid, data, UNIT, cfg)
        np.testing.assert_allclose(lams.mean(axis=0), summary.intensity_mean, rtol=1e-10)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValidationError):
            summarize([], np.zeros((3, 1)), [EventSet(np.zeros((0, 1)))], UNIT, _small_config())

    def test_copies_of_one_sample_have_exactly_zero_sd(self):
        # a sum of squares less n mean^2 leaves rounding residue at many nodes
        samples, data, region, cfg = _grid_case(2, False)
        grid = Quadrature.for_region(region).grid
        summary = summarize([samples[1]] * 7, grid, data, region, cfg)
        assert summary.intensity_sd.shape == summary.latent_sd.shape == (2, grid.size)
        assert not summary.intensity_sd.any() and not summary.latent_sd.any()


def _grid_case(dim, independent, seed=0):
    """Hand-made samples of two processes on a unit cube, with two latent
    functions unless ``independent``. The second process has no events,
    and in the first sample no thinned points either."""
    rng = np.random.default_rng(seed)
    region = Region([0.0] * dim, [1.0] * dim)
    cfg = _small_config(n_latent=2, grid_per_axis=4, independent=independent)
    J = 4**dim
    # each point in a cell of its own, so C stays well conditioned: with
    # near-duplicate points C^{-1} (g - m) reaches 1e5, and the rounding of
    # the dense Gram matrix alone then moves the prediction by 1e-9
    k = 9 if dim == 1 else 3
    cells = np.stack(np.meshgrid(*[np.arange(k)] * dim, indexing="ij"), -1).reshape(-1, dim)
    cells = rng.permutation(cells)

    def spread(rows):
        return (cells[rows] + rng.uniform(0.3, 0.7, size=cells[rows].shape)) / k

    data = [EventSet(spread(slice(0, 4))), EventSet(np.zeros((0, dim)))]
    samples = []
    for i in range(3):
        m = 2 if i else 0
        samples.append(
            PosteriorSample(
                iteration=i,
                thinned=[spread(slice(4, 7)), spread(slice(7, 7 + m))],
                rate_idx=[np.zeros(3, dtype=int), np.zeros(m, dtype=int)],
                g_values=[rng.standard_normal(7), rng.standard_normal(m)],
                lambda_stars=rng.uniform(5.0, 10.0, size=2),
                kappas=rng.uniform(0.5, 1.5, size=2),
                thetas=rng.uniform(0.005, 0.02, size=2),
                latent_values=np.zeros((0, 0)) if independent else rng.standard_normal((2, J)),
                phis=np.zeros(0) if independent else rng.uniform(0.01, 0.03, size=2),
            )
        )
    return samples, data, region, cfg


class TestProductGridPrediction:
    CASES = [(1, False), (1, True), (2, False), (2, True)]

    @pytest.mark.parametrize("dim,independent", CASES)
    def test_grid_and_points_match_dense_path(self, dim, independent):
        samples, data, region, cfg = _grid_case(dim, independent)
        quad = Quadrature.for_region(region, 9 if dim == 2 else 33)
        X = np.random.default_rng(1).uniform(size=(5, dim))
        dense = intensity_samples(samples, np.vstack([quad.grid.nodes, X]), data, region, cfg)
        product = intensity_samples(samples, X, data, region, cfg, quad.grid)
        assert product.shape == dense.shape == (3, 2, quad.weights.size + 5)
        np.testing.assert_allclose(product, dense, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("dim,independent", CASES)
    def test_summary_on_grid_is_mean_and_sd_of_samples(self, dim, independent):
        samples, data, region, cfg = _grid_case(dim, independent, seed=2)
        quad = Quadrature.for_region(region, 9 if dim == 2 else 33)
        summary = summarize(samples, quad.grid, data, region, cfg)
        lams = intensity_samples(samples, quad.grid.nodes, data, region, cfg)
        np.testing.assert_array_equal(summary.grid, quad.grid.nodes)
        np.testing.assert_allclose(summary.intensity_mean, lams.mean(axis=0), rtol=1e-10)
        np.testing.assert_allclose(
            summary.intensity_sd, lams.std(axis=0), rtol=1e-6, atol=1e-9 * lams.max()
        )
        assert summary.latent_mean.shape == (0 if independent else 2, quad.weights.size)


class TestLatentPriors:
    def test_factor_is_reused_only_at_its_phi(self, monkeypatch):
        # prediction builds each sample's prior and factors a latent
        # function only at a variance the previous sample's factors lack
        samples, _, region, cfg = _grid_case(2, False)
        phis = [[0.02, 0.05], [0.02, 0.05], [0.02, 0.06], [0.06, 0.02]]
        samples = [replace(samples[i % 3], phis=np.array(p)) for i, p in enumerate(phis)]
        built = []
        factor = depcox.engine.LatentFactor

        def counting(grid, phi):
            built.append(phi)
            return factor(grid, phi)

        monkeypatch.setattr(depcox.engine, "LatentFactor", counting)
        first, same, moved, swapped = depcox.engine._sample_priors(samples, region, cfg)
        assert built == [0.02, 0.05, 0.06]
        assert all(a is b for a, b in zip(same.factors, first.factors))
        assert moved.factors[0] is first.factors[0]
        assert moved.factors[1] is not first.factors[1]
        assert moved.factors[1].phi == 0.06
        np.testing.assert_array_equal(moved.factors[1].L, factor(first.grid, 0.06).L)
        assert swapped.factors == moved.factors[::-1]

    def test_start_up_makes_one_dense_latent_factorization(self, monkeypatch):
        # all latent functions start at exp(phi_log_mean): one factor of the
        # 400x400 latent Gram matrix serves every first draw
        region = Region([0.0, 0.0], [1.0, 1.0])
        rng = np.random.default_rng(5)
        data = [EventSet(rng.uniform(size=(6, 2))) for _ in range(2)]
        cfg = _small_config(n_latent=3, grid_per_axis=20)
        sizes = []
        real = depcox.convolution.cholesky_with_jitter

        def counting(cov, *args, **kwargs):
            sizes.append(np.shape(cov)[0])
            return real(cov, *args, **kwargs)

        monkeypatch.setattr(depcox.convolution, "cholesky_with_jitter", counting)
        chain = start_chain(data, region, cfg)
        assert sizes == [400]
        assert chain.prior.values.shape == (3, 400)

    def test_shared_start_up_factor_gives_the_draws_of_one_factor_each(self):
        data, _ = _toy_data()
        cfg = _small_config(n_latent=3)
        shared = start_chain(data, UNIT, cfg)
        assert all(f is shared.prior.factors[0] for f in shared.prior.factors)
        # the starting latent values, as three separate factors draw them
        streams = np.random.SeedSequence(cfg.seed).spawn(len(data) + 1)
        latent_rng = np.random.default_rng(streams[-1])
        grid, phi = shared.prior.grid, np.exp(cfg.priors.phi_log_mean)
        separate = [depcox.engine.LatentFactor(grid, phi) for _ in range(3)]
        want = np.stack([f.L @ latent_rng.standard_normal(grid.size) for f in separate])
        np.testing.assert_array_equal(shared.prior.values, want)
        # and the chain moves on as one holding those separate factors
        own = start_chain(data, UNIT, cfg)
        own.prior = ConvolutionPrior(own.prior.values, separate)
        for ctx in own.contexts:
            ctx.prior = own.prior
        for _ in range(3):
            sweep(shared, UNIT, cfg)
            sweep(own, UNIT, cfg)
            a, b = shared.sample(), own.sample()
            for name in ("lambda_stars", "kappas", "thetas", "phis", "latent_values"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
            for name in ("thinned", "rate_idx", "g_values"):
                for x, y in zip(getattr(a, name), getattr(b, name)):
                    np.testing.assert_array_equal(x, y)

    def test_a_sweep_builds_one_prior(self, monkeypatch):
        # the latent stage draws the values, moves the variances, and only
        # then builds the next sweep's prior, once
        data, _ = _toy_data()
        cfg = _small_config()
        chain = start_chain(data, UNIT, cfg)
        built = []
        init = ConvolutionPrior.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ConvolutionPrior, "__init__", counting)
        for n in range(1, 4):
            sweep(chain, UNIT, cfg)
            assert len(built) == n


class TestDiagnostics:
    def test_constant_trace(self):
        assert effective_sample_size(np.full(200, 3.0)) == 200.0
        assert split_psrf(np.full(200, 3.0)) == 1.0

    def test_white_noise_ess(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(400)
        assert effective_sample_size(x) == pytest.approx(400, rel=0.25)

    def test_ar1_ess_matches_analytic(self):
        rho, n = 0.9, 4000
        rng = np.random.default_rng(10)
        x = np.empty(n)
        x[0] = rng.standard_normal()
        for t in range(1, n):
            x[t] = rho * x[t - 1] + rng.standard_normal() * np.sqrt(1 - rho**2)
        analytic = n * (1 - rho) / (1 + rho)
        assert effective_sample_size(x) == pytest.approx(analytic, rel=0.3)

    def test_ess_exact_on_a_fixed_trace(self):
        # the benchmark's ess_per_s metrics are this estimate: pinned to the
        # float, on an AR(1) trace and its first 40 draws (reference-chain size)
        rng = np.random.default_rng(21)
        x = np.empty(300)
        x[0] = rng.standard_normal()
        for t in range(1, 300):
            x[t] = 0.7 * x[t - 1] + rng.standard_normal() * np.sqrt(1 - 0.49)
        assert effective_sample_size(x) == 48.03063020361558
        assert effective_sample_size(x[:40]) == 15.548560734711899

    def test_diagnostics_rows(self):
        data, _ = _toy_data()
        samples = run_chain_with_info(data, UNIT, _small_config(n_iters=10, burn_in=2))[0]
        report = diagnostics(samples)
        assert len(report["processes"]) == 2
        for row in report["processes"]:
            assert np.isfinite(row["ess_lambda_star"])
            assert row["psrf_lambda_star"] >= 1.0 or row["psrf_lambda_star"] == 1.0

    def test_diagnostics_need_two_samples(self):
        data, _ = _toy_data()
        samples = run_chain_with_info(data, UNIT, _small_config(n_iters=4, burn_in=3))[0]
        with pytest.raises(ValidationError):
            diagnostics(samples)
