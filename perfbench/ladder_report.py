"""Paper-style multi-level thinning report (not gated).

For each truth of a small ``make_benchmark_bank`` bank, fits the same
events with the one-level ladder (1,) and with (0.25, 0.5, 1), and prints
the mean thinned count per retained sample, the share of thinned points
on the top level and sweeps per second, against the truth's
low-intensity fraction. If multi-level thinning pays, the thinned count
falls as the low-intensity fraction grows.

    python3 perfbench/ladder_report.py
"""

from __future__ import annotations

import os
import sys

from run import THREAD_VARS, use_checkout_source

LADDERS = [(1.0,), (0.25, 0.5, 1.0)]
BANK = 6  # truths in the bank
ITERS = 150  # sweeps per chain
SEED = 0


def report_rows():
    import numpy as np
    from depcox.engine import RunConfig, run_chain_with_info
    from depcox.generate import make_benchmark_bank
    from depcox.sgcp import PriorConfig, Region
    from depcox.thinning import RateLadder

    from workloads import UNIT_PRIORS, draw_events

    region = Region([0.0], [1.0])
    rng = np.random.default_rng(SEED)
    bank = make_benchmark_bank(BANK, region, rng, grid_per_axis=10)
    rows = []
    for i, truth in enumerate(sorted(bank, key=lambda t: t.low_fraction)):
        events = draw_events(truth, 50, rng)
        for levels in LADDERS:
            config = RunConfig(
                n_iters=ITERS, burn_in=ITERS // 3, seed=SEED, ladder=RateLadder(levels),
                grid_per_axis=10, priors=PriorConfig(**UNIT_PRIORS),
            )
            samples, info = run_chain_with_info(events, region, config)
            thinned = np.array([s.rate_idx[0].size for s in samples])
            top = sum(int(np.sum(s.rate_idx[0] == len(levels) - 1)) for s in samples)
            rows.append({
                "truth": i,
                "low_fraction": truth.low_fraction,
                "ladder": levels,
                "mean_thinned": float(thinned.mean()),
                "top_share": top / thinned.sum() if thinned.sum() else float("nan"),
                "sweeps_per_s": info.iterations_per_second,
            })
    return rows


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    use_checkout_source()
    print("| truth | low fraction | ladder | mean thinned | top-level share | sweeps/s |")
    print("|---|---|---|---|---|---|")
    for r in report_rows():
        print(
            f"| {r['truth']} | {r['low_fraction']:.2f} | {r['ladder']} | {r['mean_thinned']:.1f}"
            f" | {r['top_share']:.2f} | {r['sweeps_per_s']:.1f} |"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
