"""depcox benchmark: fit and held-out eval on seeded workloads.

    python3 perfbench/run.py --workload 1d-coupled --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The load is a closed loop: one process runs one chain at a time, with
BLAS and OpenMP pinned to one thread, which is also the plain
single-threaded baseline. Times are calibrated seconds (see
``steadyclock.py``): wall time rescaled by the host's speed, sampled
every 50 ms.

``--trace 0`` measures the end-to-end metrics with tracing off. A run
first makes nine one-sweep fits, which add to the set-up median. Then it
fits the workload's reference chain: events drawn with
``workloads.REFERENCE_SEED``, chain seed ``1000 * --chain-seed`` and every
draw after burn-in kept. Its fit is repeated for ``REF_FOR_S`` seconds of
sampling and its eval for ``EVAL_FOR_S`` seconds, half of that at the end
of the run. Its draws repeat exactly, so the ESS/s metrics and the eval
time taken from it vary only with time. (The ESS of a chain this short moves by a factor of three
between chain realizations, which no bound could absorb.) Further chains,
each on its own data set drawn from ``--seed``, run while the next would
end within ``--seconds`` of wall time; there is at least one. All fits of
the reference and further chains give sweeps/s, and every fit counts
towards the set-up median and the correctness checks.

``--trace 1`` runs one chain on the ``--seed`` events twice, untraced and
traced. It checks that both give byte-identical retained draws and eval
reports, and reports per-layer spans and counters of the traced one.

The last line of standard output is one JSON object with ``correct``
(no output failed a check), ``attempted`` (fits), ``failed`` (fits that
exited with an error or failed a check) and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
LEVELS = 3  # level_share.<i> is reported for i < LEVELS on every workload
SETUP_REPEATS = 9
# calibrated seconds of sampling over which the reference fit is repeated:
# its rate varied by 6 % from run to run on a 2 s chain
REF_FOR_S = 6.0
# calibrated seconds over which the reference archive's eval is repeated,
# half after its fit and half at the end of the run: a single 1.5 s eval
# varied by 5 % from one repeat to the next, and a 1D eval takes 0.1 to 0.4 s
EVAL_FOR_S = 3.0


def use_checkout_source() -> None:
    """Import depcox from this checkout's ``src``; fail if it is absent."""
    src = ROOT / "src"
    if not (src / "depcox" / "__init__.py").is_file():
        raise SystemExit(f"error: no depcox sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


@dataclass
class Chain:
    """One fit of one chain followed by held-out eval of its archive."""

    chain_seed: int
    archive: Path
    n_iters: int
    gain: float = math.nan  # predictive log-likelihood over the homogeneous fit
    setup_s: float = math.nan
    sampling_s: float = math.nan
    eval_times: list = field(default_factory=list)
    samples: list = field(default_factory=list)
    errors: list = field(default_factory=list)  # fit or eval exited with an error
    wrong: list = field(default_factory=list)  # outputs that failed a check

    @property
    def evaluated(self) -> bool:
        return bool(self.eval_times)

    @property
    def eval_s(self) -> float:
        return statistics.mean(self.eval_times) if self.eval_times else math.nan

    @property
    def failed(self) -> bool:
        return bool(self.errors or self.wrong)


def run_chain(event_paths, config_path, chain_seed: int, out_dir: Path, clock,
              evaluate: bool = True, eval_for: float = 0.0) -> Chain:
    """``depcox fit`` then, if ``evaluate``, ``evaluate(chain, clock,
    eval_for)``.

    Set-up is everything ``fit`` pays before its first sweep: from the
    start of ``fit`` to the sampler's return, less the sampling seconds
    that ``RunInfo`` reports.
    """
    from depcox import cli

    n_iters = json.loads(Path(config_path).read_text())["n_iters"]
    chain = Chain(chain_seed, out_dir / f"archive_{chain_seed}", n_iters)
    sampler = cli.run_chain_with_info
    returned = {}

    def timed_sampler(train, region, config):
        samples, info = sampler(train, region, config)
        returned.update(t=time.perf_counter(), samples=samples, info=info)
        return samples, info

    fit_args = ["fit", *event_paths, "--config", config_path,
                "--out", str(chain.archive), "--seed", str(chain_seed)]
    messages = StringIO()
    cli.run_chain_with_info = timed_sampler
    try:
        with redirect_stdout(StringIO()), redirect_stderr(messages):
            t0 = time.perf_counter()
            code = cli.main(fit_args)
    finally:
        cli.run_chain_with_info = sampler
    if code != 0:
        chain.errors.append(f"fit exited {code}: {messages.getvalue().strip()}")
        return chain
    first_sweep = returned["t"] - n_iters / returned["info"].iterations_per_second
    chain.samples = returned["samples"]
    chain.sampling_s = clock.at(returned["t"]) - clock.at(first_sweep)
    chain.setup_s = clock.at(first_sweep) - clock.at(t0)
    if evaluate:
        evaluate_archive(chain, clock, eval_for)
    return chain


def evaluate_archive(chain: Chain, clock, until_s: float = 0.0) -> None:
    """``depcox eval`` (no baselines) of the chain's archive, in process,
    repeated until the chain's evals add up to ``until_s`` calibrated
    seconds, and at least once per chain."""
    from depcox import cli

    messages = StringIO()
    while not chain.eval_times or sum(chain.eval_times) < until_s:
        with redirect_stdout(StringIO()), redirect_stderr(messages):
            t0 = time.perf_counter()
            code = cli.main(["eval", str(chain.archive), "--out", str(chain.archive / "eval.csv")])
            t1 = time.perf_counter()
        if code != 0:
            chain.errors.append(f"eval exited {code}: {messages.getvalue().strip()}")
            return
        chain.eval_times.append(clock.at(t1) - clock.at(t0))


def check_chain(chain: Chain) -> None:
    """Retained draws finite with a positive bound; held-out predictive
    log-likelihood of every process finite. Records the chain's gain in
    predictive log-likelihood over a homogeneous Poisson fit to the
    training split, summed over processes, for ``check_gain``."""
    import numpy as np

    if chain.errors:
        return
    for s in chain.samples:
        arrays = [s.lambda_stars, s.kappas, s.thetas, s.phis, s.latent_values,
                  *s.g_values, *s.thinned]
        if not all(np.all(np.isfinite(a)) for a in arrays):
            chain.wrong.append(f"iteration {s.iteration}: non-finite draw")
            return
        if np.any(s.lambda_stars <= 0):
            chain.wrong.append(f"iteration {s.iteration}: non-positive bound")
            return
    if not chain.evaluated:
        return
    split = json.loads((chain.archive / "split_indices.json").read_text())
    rows = (chain.archive / "eval.csv").read_text().splitlines()[1:]
    scores = {
        dataset: float(value)
        for dataset, _, metric, value in (r.split(",") for r in rows)
        if metric == "predictive_loglik"
    }
    chain.gain = 0.0
    for part in split:
        n_train, n_test = len(part["train"]), len(part["test"])
        score = scores.get(f"process_{part['process']}", math.nan)
        if not math.isfinite(score):
            chain.wrong.append(f"process {part['process']}: predictive log-likelihood {score}")
        # the homogeneous fit on the unit-volume region of every workload
        chain.gain += score - (-n_train + n_test * math.log(n_train))


def check_gain(chains) -> None:
    """The model must predict held-out events no worse than a homogeneous
    Poisson process, summed over the evaluated chains of a run.

    A process holds out only 12 of its 50 events. On them the gain per
    process ranged from 2.5 to 11 nats over sixteen 2D fits at the seed
    commit, and a 30-sweep 2D fit lost 4 nats, so a per-process check
    would fail a sound sampler now and then. A biased sampler loses on
    every chain and still fails the sum.
    """
    scored = [c for c in chains if c.evaluated and not c.failed]
    total = sum(c.gain for c in scored)
    if total < 0:
        for c in scored:
            c.wrong.append(f"run's predictive gain over homogeneous Poisson is {total:.3f}")


def samples_differ(a: Chain, b: Chain, *also: str) -> bool:
    """Whether two chains' archives differ in their retained draws or in
    any of the files ``also``."""
    return any((a.archive / f).read_bytes() != (b.archive / f).read_bytes()
               for f in ("samples.jsonl", *also))


def ess_metrics(samples, n_proc: int) -> dict:
    """ESS of the bound and the mean function value (minimum over
    processes) and of the latent grid values (median over the grid)."""
    import numpy as np
    from depcox.engine import effective_sample_size

    lam = min(effective_sample_size([s.lambda_stars[d] for s in samples]) for d in range(n_proc))
    g_mean = min(
        effective_sample_size([s.g_values[d].mean() for s in samples]) for d in range(n_proc)
    )
    latent = np.array([s.latent_values.ravel() for s in samples])
    lat = float(np.median([effective_sample_size(latent[:, j]) for j in range(latent.shape[1])]))
    return {"lambda_star": lam, "g_mean": g_mean, "latent": lat}


def measure_end_to_end(workload, truth, args, work: Path, clock):
    import workloads

    config = workloads.write_config(workload, work / "config.json")
    # every draw after burn-in is kept, so that ESS sits below the trace length
    reference = workloads.write_config(
        dataclasses.replace(workload, thin_every=1), work / "reference.json")
    short = workloads.write_config(
        dataclasses.replace(workload, n_iters=1, burn_in=0), work / "short.json")
    ref_events = workloads.write_inputs(workload, truth, workloads.REFERENCE_SEED, work / "reference")
    seed = 1000 * args.chain_seed
    start = time.perf_counter()
    # set-up takes milliseconds, so its median also covers one-sweep fits,
    # which are not evaluated
    fits = [
        run_chain(ref_events, short, seed + 100 + i, work, clock, evaluate=False)
        for i in range(SETUP_REPEATS)
    ]
    refs = [run_chain(ref_events, reference, seed, work, clock, eval_for=EVAL_FOR_S / 2)]
    while sum(r.sampling_s for r in refs) < REF_FOR_S:  # false once a fit failed (nan)
        refs.append(run_chain(ref_events, reference, seed, work / f"repeat_{len(refs)}", clock,
                              evaluate=False))
    ref = refs[0]
    chains = []
    # start another chain only while it would end (as the last one took)
    # within budget
    while not chains or time.perf_counter() - start + last < args.seconds:
        t0 = time.perf_counter()
        n = len(chains) + 1
        events = workloads.write_inputs(workload, truth, args.seed, work / f"events_{n}", draw=n)
        chains.append(run_chain(events, config, seed + n, work, clock))
        last = time.perf_counter() - t0
    if not ref.failed:
        # the other half, some 20 s after the first: the host's speed
        # changes in spells of seconds, which calibration follows only in part
        evaluate_archive(ref, clock, EVAL_FOR_S)
    for chain in [*refs, *chains, *fits]:
        check_chain(chain)
    check_gain([ref, *chains])
    for r in refs[1:]:
        if not r.failed and samples_differ(ref, r):
            r.wrong.append("the reference chain's draws did not repeat")
    metrics = {}
    ok = [c for c in [*refs, *chains] if not c.failed]
    if ok:
        sampling = sum(c.sampling_s for c in ok)
        metrics["sweeps_per_s"] = (sum(c.n_iters for c in ok) / sampling, "1/s")
    setups = [c.setup_s for c in [*ok, *fits] if not c.failed]
    if setups:
        metrics["setup_s"] = (statistics.median(setups), "s")
    if not any(r.failed for r in refs):
        metrics["eval_s"] = (ref.eval_s, "s")
        sampling_s = statistics.mean(r.sampling_s for r in refs)
        for key, ess in ess_metrics(ref.samples, workload.n_processes).items():
            metrics[f"ess_per_s.{key}"] = (ess / sampling_s, "1/s")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = (peak_mb, "MB")
    return [*refs, *chains, *fits], metrics


def layer_metrics(tracer, n_iters: int) -> dict:
    """Per-layer spans and counters of one traced chain and its eval."""
    import tracing

    out = {}
    for module, path in tracing.TRACED:
        name = f"{module}.{path}"
        if name in tracing.COUNT_ONLY:
            out[f"{name}.calls"] = (tracer.calls[name], "count")
            continue
        spans = [f"{name}.function", f"{name}.latent"] if name == "sgcp.elliptical_slice" else [name]
        for span in spans:
            out[f"{span}.calls"] = (tracer.calls[span], "count")
            out[f"{span}.s"] = (tracer.seconds[span], "s")
            out[f"{span}.self_s"] = (tracer.self_seconds[span], "s")
    c = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    slices = tracer.calls["sgcp.elliptical_slice.function"] + tracer.calls["sgcp.elliptical_slice.latent"]
    out.update({
        "sgcp.move_step.accept_ratio": (
            ratio(c["sgcp.move_step.accepted"], c["sgcp.move_step.attempted"]), "ratio"),
        "sgcp.hmc_hyper_update.accept_ratio": (
            ratio(c["sgcp.hmc_hyper_update.accepted"], tracer.calls["sgcp.hmc_hyper_update"]),
            "ratio"),
        "sgcp.elliptical_slice.loglik_per_call": (
            ratio(c["sgcp.elliptical_slice.loglik_calls"], slices), "count"),
        "convolution.phi_mh_update.accept_ratio": (
            ratio(c["convolution.phi_mh_update.accepted"], c["convolution.phi_mh_update.attempted"]),
            "ratio"),
        "gaussian.tri_solve.gflop": (c["gaussian.tri_solve.gflop"], "Gflop_computed"),
        "gaussian.cholesky_with_jitter.gflop": (
            c["gaussian.cholesky_with_jitter.gflop"], "Gflop_computed"),
        "gaussian.cholesky_with_jitter.escalations": (
            c["gaussian.cholesky_with_jitter.escalations"], "count"),
        "thinning.thinned_per_sweep": (c["thinning.thinned"] / n_iters, "count"),
    })
    for level in range(LEVELS):
        out[f"thinning.level_share.{level}"] = (
            ratio(c[f"thinning.level.{level}"], c["thinning.thinned"]), "ratio")
    return out


def measure_layers(workload, truth, args, work: Path, clock):
    import tracing
    import workloads

    config = workloads.write_config(workload, work / "config.json")
    events = workloads.write_inputs(workload, truth, args.seed, work / "events")
    seed = 1000 * args.chain_seed
    plain = run_chain(events, config, seed, work / "untraced", clock)
    tracer = tracing.Tracer(clock.now)
    with tracing.traced(tracer):
        traced = run_chain(events, config, seed, work / "traced", clock)
    for chain in (plain, traced):
        check_chain(chain)
    check_gain([plain, traced])
    metrics = layer_metrics(tracer, workload.n_iters)
    if not (plain.failed or traced.failed):
        if samples_differ(plain, traced, "eval.csv"):
            traced.wrong.append("tracing changed the retained draws or the eval report")
        plain_rate = plain.n_iters / plain.sampling_s
        traced_rate = traced.n_iters / traced.sampling_s
        metrics["trace.untraced_sweeps_per_s"] = (plain_rate, "1/s")
        metrics["trace.traced_sweeps_per_s"] = (traced_rate, "1/s")
        metrics["trace.overhead"] = ((plain_rate - traced_rate) / plain_rate, "ratio")
    return [plain, traced], metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the event data")
    parser.add_argument("--seconds", type=float, required=True, help="wall-time budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--chain-seed", type=int, default=0, help="base seed of the chains")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    use_checkout_source()
    import steadyclock
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    workload = workloads.WORKLOADS[args.workload]
    truth = workload.truth()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        measure = measure_layers if args.trace else measure_end_to_end
        with steadyclock.SteadyClock() as clock:
            chains, metrics = measure(workload, truth, args, work, clock)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    for c in chains:
        print(f"chain {c.chain_seed}: {c.n_iters / c.sampling_s:.3f} sweeps/s, "
              f"set-up {c.setup_s:.4f} s, eval {c.eval_s:.3f} s "
              f"{'; '.join(c.errors + c.wrong)}", file=sys.stderr)
    result = {
        "correct": not any(c.wrong for c in chains),
        "attempted": len(chains),
        "failed": sum(c.failed for c in chains),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
