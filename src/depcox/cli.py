"""Command-line surface: generate / fit / eval / export-grid.

Exit codes: 0 on success, 2 on validation errors, 3 on numerical failures.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io
from .engine import diagnostics, intensity_rows, run_chain_with_info, summarize
from .errors import NumericalError, ValidationError
from .generate import sample_events, sample_ground_truth
from .metrics import Quadrature, diffusion_bandwidth, kde_intensity, l2_error, predictive_loglik, sample_logliks
from .sgcp import EventSet


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depcox",
        description="Dependent Cox process inference: generate, fit, evaluate, export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="sample ground truth and event files")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--seed", type=int, default=None)

    p_fit = sub.add_parser("fit", help="run the sampler on event files")
    p_fit.add_argument("events", nargs="+", help="event CSV files")
    p_fit.add_argument("--config", required=True)
    p_fit.add_argument("--out", required=True, help="archive directory to write")
    p_fit.add_argument("--seed", type=int, default=None)

    p_eval = sub.add_parser("eval", help="score an archive on held-out events")
    p_eval.add_argument("archive")
    p_eval.add_argument("events", nargs="*", help="test event CSV files (archive split if omitted)")
    p_eval.add_argument("--out", default=None, help="report CSV path (stdout if omitted)")
    p_eval.add_argument("--baselines", action="store_true")
    p_eval.add_argument("--truth", default=None, help="ground-truth manifest for L2 rows")

    p_exp = sub.add_parser("export-grid", help="export intensity and latent surfaces")
    p_exp.add_argument("archive")
    p_exp.add_argument("--out", required=True)
    p_exp.add_argument("--resolution", type=int, default=100)
    return parser


def cmd_generate(args) -> int:
    cfg = io.load_config(args.config)
    run = cfg.run if args.seed is None else replace(cfg.run, seed=args.seed)
    rng = np.random.default_rng(run.seed)
    gen = io.generate_args(cfg)
    truth = sample_ground_truth(cfg.region, n_latent=cfg.run.n_latent, rng=rng, **gen)
    events = sample_events(truth, rng)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for ev in events:
        io.write_event_file(out / f"events_{ev.process_id}.csv", ev, cfg.region.dim)
    io.save_truth(out / "truth_manifest.json", truth)
    print(f"wrote {len(events)} event files and truth_manifest.json to {out}")
    return 0


def cmd_fit(args) -> int:
    cfg = io.load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, run=replace(cfg.run, seed=args.seed))
    events = io.read_event_files(args.events, cfg.region)
    rng = np.random.default_rng(cfg.run.seed)
    train, test, split_idx = _split(events, cfg.train_fraction, rng)
    samples, info = run_chain_with_info(train, cfg.region, cfg.run)
    diag = diagnostics(samples) if len(samples) >= 2 else {"processes": [], "n_samples": len(samples)}
    timings = {
        "timings_seconds": info.timings,
        "iterations_per_second": info.iterations_per_second,
        "hmc_accept_rate": info.hmc_accept_rate.tolist(),
        "phi_accept_rate": info.phi_accept_rate,
    }
    io.save_archive(args.out, cfg, train, test, split_idx, samples, diag, timings)
    print(
        f"archive written to {args.out}: {len(samples)} samples, "
        f"{info.iterations_per_second:.2f} iterations/sec"
    )
    return 0


def _split(events, fraction, rng):
    train, test, indices = [], [], []
    for ev in events:
        n = len(ev)
        n_train = int(round(fraction * n))
        perm = rng.permutation(n)
        tr = np.sort(perm[:n_train])
        te = np.sort(perm[n_train:])
        train.append(EventSet(ev.points[tr], ev.process_id))
        test.append(EventSet(ev.points[te], ev.process_id))
        indices.append(
            {"process": int(ev.process_id), "train": tr.tolist(), "test": te.tolist()}
        )
    return train, test, indices


def cmd_eval(args) -> int:
    archive = io.load_archive(args.archive)
    region = archive.config.region
    test = io.read_event_files(args.events, region) if args.events else archive.test
    if len(test) != len(archive.train):
        raise ValidationError(
            f"archive has {len(archive.train)} processes but test data has {len(test)}"
        )
    quad = Quadrature.for_region(region)
    truth = io.load_truth(args.truth) if args.truth else None
    if truth is not None and (truth.n_processes, truth.region.dim) != (len(archive.train), region.dim):
        raise ValidationError(
            f"archive has {len(archive.train)} processes in {region.dim}-D but the truth manifest "
            f"has {truth.n_processes} in {truth.region.dim}-D"
        )
    train = archive.train
    rows = _model_rows("ours", archive.samples, archive.config.run, region, train, test, quad, truth)
    if args.baselines:
        ind_cfg = replace(archive.config.run, independent=True)
        ind_samples, _ = run_chain_with_info(train, region, ind_cfg)
        rows += _model_rows("independent", ind_samples, ind_cfg, region, train, test, quad, truth)
        rows += _kde_rows(archive, test, quad, truth)
    if args.out:
        io.write_report(args.out, rows)
        print(f"report written to {args.out}")
    else:
        io.write_report(sys.stdout, rows)
    return 0


def _model_rows(model, samples, run, region, train, test, quad, truth):
    """Predictive rows of every process, then, given a ``truth``, the L2
    error of each process's posterior mean intensity at the nodes.

    One pass over the samples extends each to the quadrature nodes and
    each process to its own test events (``intensity_rows``); of each
    sample it keeps only every process's integral, its intensities at its
    test events and, given a ``truth``, its part of a running sum at the
    nodes.
    """
    X = [ev.points if len(ev) else np.zeros((0, region.dim)) for ev in test]
    integrals = np.empty((len(samples), len(test)))
    at_events = [np.empty((len(samples), len(x))) for x in X]
    lam_sum = np.zeros((len(test), quad.weights.size))
    for i, (_, lam, at_points) in enumerate(intensity_rows(samples, X, train, region, run, quad.grid)):
        integrals[i] = quad.integrate(lam)
        for at, row in zip(at_events, at_points):
            at[i] = row
        if truth is not None:
            lam_sum += lam
    rows = []
    for d, at in enumerate(at_events):
        lls = sample_logliks(at, integrals[:, d])
        rows.append((f"process_{d}", model, "predictive_loglik", predictive_loglik(lls)))
        finite = lls[np.isfinite(lls)]
        rows.append(
            (f"process_{d}", model, "mean_sample_loglik", float(np.mean(finite)) if finite.size else -np.inf)
        )
    if truth is not None:
        lam_mean = lam_sum / len(samples)
        for d in range(len(test)):
            true_lam = truth.intensity(d, quad.grid)
            rows.append((f"process_{d}", model, "l2_error", l2_error(lam_mean[d], true_lam, quad)))
    return rows


def _kde_rows(archive, test, quad, truth):
    """Rows of the kernel density baseline of each process with at least
    two training events, as ``_model_rows`` gives them for a posterior of
    one sample: the estimate at the quadrature nodes gives the integral
    (and, given a ``truth``, the L2 error) and the estimate at the test
    events themselves the rest of the likelihood. Each process's
    bandwidths are solved for once and serve both."""
    rows = []
    for d, (train_ev, test_ev) in enumerate(zip(archive.train, test)):
        if len(train_ev) < 2:
            continue
        h = [diffusion_bandwidth(x) for x in train_ev.points.T]
        lam_grid = kde_intensity(train_ev.points, quad.grid, h)
        lam_ev = kde_intensity(train_ev.points, test_ev.points, h)
        lls = sample_logliks(lam_ev[None], quad.integrate(lam_grid)[None])
        rows.append((f"process_{d}", "kde", "predictive_loglik", predictive_loglik(lls)))
        if truth is not None:
            rows.append(
                (f"process_{d}", "kde", "l2_error", l2_error(lam_grid, truth.intensity(d, quad.grid), quad))
            )
    return rows


def cmd_export_grid(args) -> int:
    archive = io.load_archive(args.archive)
    if not archive.samples:
        raise ValidationError("archive holds no samples")
    region = archive.config.region
    quad = Quadrature.for_region(region, args.resolution)
    summary = summarize(archive.samples, quad.grid, archive.train, region, archive.config.run)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for d in range(summary.intensity_mean.shape[0]):
        io.write_grid_file(
            out / f"intensity_process_{d}.csv",
            summary.grid,
            summary.intensity_mean[d],
            summary.intensity_sd[d],
        )
    for q in range(summary.latent_mean.shape[0]):
        io.write_grid_file(
            out / f"latent_{q}.csv", summary.grid, summary.latent_mean[q], summary.latent_sd[q]
        )
    print(f"grids written to {out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "fit": cmd_fit,
        "eval": cmd_eval,
        "export-grid": cmd_export_grid,
    }
    try:
        return handlers[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
