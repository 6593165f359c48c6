"""The benchmark's workloads: seeded event data and the fit configuration.

Each workload fixes a ground-truth intensity (drawn once from its own
constant seed) and the chain settings; the run's ``--seed`` draws the
event files from that truth, one data set per chain. Every process gets exactly ``events`` points
(a draw conditioned on the count), so seeds change where events fall but
not how much work a sweep does. Priors are scaled to the unit region, as
the defaults (theta = 1 on a unit window) are not a real use.

Why each workload is in the set:

* ``1d-coupled``: three coupled 1D processes on a 10-point grid with a
  one-level ladder. The per-process kernels (birth/death, move) dominate,
  so it exercises the workspace and drop-one conditional work and mostly
  bypasses the latent resample.
* ``2d-grid400``: two processes on the unit square with a 20x20 grid
  (J = 400). Triangular solves against the latent factor, the latent
  resample and the 4096-node prediction path dominate.
* ``1d-ladder``: one process whose truth is low over at least 30 % of
  the window, fitted with the ladder (0.25, 0.5, 1): the paper's
  multi-level thinning claim. ``1d-coupled`` is its one-level
  counterpart and should not move when only the ladder changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from depcox import io
from depcox.generate import GroundTruth, make_benchmark_bank, sample_ground_truth
from depcox.sgcp import EventSet, Region

UNIT_PRIORS = {
    "lambda_beta": 0.1,
    "kappa_log_mean": 0.0,
    "kappa_log_sd": 0.7,
    "theta_log_mean": float(np.log(0.005)),
    "theta_log_sd": 0.7,
    "phi_log_mean": float(np.log(0.01)),
    "phi_log_sd": 0.7,
}

# Events of the chain whose ESS is reported are drawn with this seed, so
# its draws repeat exactly from run to run (see run.py).
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    n_processes: int
    events: int  # per process, before the 75/25 train/test split
    grid_per_axis: int
    ladder: tuple
    n_iters: int
    burn_in: int
    thin_every: int
    truth_seed: int
    from_bank: bool = False  # truth: first low-intensity member of a bank

    @property
    def region(self) -> Region:
        return Region([0.0] * self.dim, [1.0] * self.dim)

    def truth(self) -> GroundTruth:
        rng = np.random.default_rng(self.truth_seed)
        if self.from_bank:
            bank = make_benchmark_bank(16, self.region, rng, grid_per_axis=self.grid_per_axis)
            return next(t for t in bank if t.low_fraction >= 0.3)
        return sample_ground_truth(
            self.region, self.n_processes, 1, rng, grid_per_axis=self.grid_per_axis
        )

    def config(self) -> dict:
        return {
            "region": {"lower": [0.0] * self.dim, "upper": [1.0] * self.dim},
            "ladder": list(self.ladder),
            "n_iters": self.n_iters,
            "burn_in": self.burn_in,
            "thin_every": self.thin_every,
            "n_latent": 1,
            "grid_per_axis": self.grid_per_axis,
            "priors": UNIT_PRIORS,
            "train_fraction": 0.75,
        }


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "1d-coupled",
            dim=1, n_processes=3, events=50, grid_per_axis=10, ladder=(1.0,),
            n_iters=80, burn_in=20, thin_every=1, truth_seed=11,
        ),
        Workload(
            "2d-grid400",
            dim=2, n_processes=2, events=50, grid_per_axis=20, ladder=(1.0,),
            n_iters=60, burn_in=20, thin_every=4, truth_seed=12,
        ),
        Workload(
            "1d-ladder",
            dim=1, n_processes=1, events=50, grid_per_axis=10, ladder=(0.25, 0.5, 1.0),
            n_iters=100, burn_in=25, thin_every=1, truth_seed=13, from_bank=True,
        ),
    ]
}


def draw_events(truth: GroundTruth, n_events: int, rng: np.random.Generator) -> list[EventSet]:
    """Exactly ``n_events`` points per process, by thinning at the bound."""
    out = []
    for d in range(truth.n_processes):
        lam = float(truth.lambda_stars[d])
        kept = []
        while sum(len(k) for k in kept) < n_events:
            cand = truth.region.uniform(256, rng)
            kept.append(cand[rng.random(256) * lam < truth.intensity(d, cand)])
        out.append(EventSet(np.vstack(kept)[:n_events], d))
    return out


def write_inputs(
    workload: Workload, truth: GroundTruth, seed: int, out_dir: Path, draw: int = 0
) -> list[str]:
    """Write one event file per process, the ``draw``-th data set of
    ``seed``; returns their paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, workload.truth_seed, draw])
    events = draw_events(truth, workload.events, rng)
    paths = []
    for ev in events:
        path = out_dir / f"events_{ev.process_id}.csv"
        io.write_event_file(path, ev, workload.dim)
        paths.append(str(path))
    return paths


def write_config(workload: Workload, path: Path) -> str:
    path.write_text(json.dumps(workload.config(), indent=1) + "\n")
    return str(path)
