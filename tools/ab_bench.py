"""Benchmark a parent checkout against this one, in alternating pairs of runs.

    python3 tools/ab_bench.py PARENT_CHECKOUT --pairs 10 --name sampler
    python3 tools/ab_bench.py PARENT_CHECKOUT --workload 1d-coupled --name eval

Run from the root of a checkout. ``--workload NAME`` (repeatable) runs only
the workloads named, in the order given; by default it runs every workload
of ``BENCHMARK.json``. For each workload and each of ``--pairs``
event seeds (``--first-seed``, ``--first-seed + 1``, ...) it runs
``perfbench/run.py --trace 0``, for the ``run_seconds`` of
``BENCHMARK.json``, once in the parent checkout and once in this
one, one run at a time, the parent first in even pairs and this checkout
first in odd ones, so that a slow spell of the host does not favour one
side. Pair k runs at ``--chain-seed k`` on both sides, so pair 0 is on the
benchmark's own chain seed and the others on other realizations of its
reference chain: a change that keeps every draw compares like with like
in each pair, and for one that changes the draws the ESS/s medians span
as many realizations as pairs. It writes ``BENCH_<name>.json``: every
run's metrics and chain seed, and per workload and end-to-end metric of
``BENCHMARK.json`` each side's median and quartiles, the ratio of the
medians, how many pairs this checkout won and whether the gap between the
medians exceeds the parent's interquartile spread, under ``workloads``
the names of the workloads it ran. When the runs are done it prints that
summary too: the workloads that ran, then one line per workload and
metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, chain_seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``: its result object, or
    ``{"correct": False, "error": ...}`` if it printed none."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--chain-seed", str(chain_seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = out.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "error": f"exit {out.returncode}: {out.stderr.strip()[-2000:]}"}


def quartiles(values: list) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(runs: list, declared: list) -> dict:
    """Per workload and declared metric: each side's quartiles over its
    runs, the change's median over the parent's, the pairs the change won
    and whether it beats the parent's median by more than the parent's
    interquartile spread.

    ``runs`` holds ``{"workload", "pair", "side", "metrics": {name: value}}``
    records; ``declared`` the ``end_to_end`` entries of ``BENCHMARK.json``
    (``name`` and ``better``). A pair counts when both of its runs report
    the metric; the change wins it when it is strictly better.
    """
    summary = {}
    for workload in sorted({r["workload"] for r in runs}):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
        per_metric = {}
        for metric in declared:
            name, higher = metric["name"], metric["better"] == "higher"
            both = [
                (p["parent"][name], p["change"][name])
                for _, p in sorted(pairs.items())
                if all(side in p and name in p[side] for side in SIDES)
            ]
            if not both:
                continue
            parent = quartiles([a for a, _ in both])
            change = quartiles([b for _, b in both])
            gap = change[1] - parent[1] if higher else parent[1] - change[1]
            per_metric[name] = {
                "better": metric["better"],
                "pairs": len(both),
                "parent": dict(zip(("q1", "median", "q3"), parent)),
                "change": dict(zip(("q1", "median", "q3"), change)),
                "median_ratio": change[1] / parent[1] if parent[1] else None,
                "change_wins": sum((b > a) if higher else (b < a) for a, b in both),
                "gap_exceeds_parent_iqr": gap > parent[2] - parent[0],
            }
        summary[workload] = per_metric
    return summary


def summary_lines(summary: dict) -> list:
    """``summarize``'s result as text, one line per workload and metric:
    each side's median, the change's median over the parent's, the pairs
    the change won and whether the gap exceeds the parent's interquartile
    spread."""
    lines = []
    for workload, per_metric in summary.items():
        for name, m in per_metric.items():
            ratio = m["median_ratio"]
            lines.append(
                f"{workload} {name} ({m['better']} is better): "
                f"parent {m['parent']['median']:.4g}, change {m['change']['median']:.4g}, "
                f"ratio {'n/a' if ratio is None else format(ratio, '.4f')}, "
                f"change wins {m['change_wins']}/{m['pairs']}, "
                f"gap {'exceeds' if m['gap_exceeds_parent_iqr'] else 'within'} parent IQR"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable); default: all of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs per workload")
    parser.add_argument("--first-seed", type=int, default=1, help="event seed of the first pair")
    parser.add_argument("--name", default="ab", help="writes BENCH_<name>.json")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in bench["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; BENCHMARK.json has {', '.join(known)}")
    seconds = bench["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    out = Path(f"BENCH_{args.name}.json")
    runs = []
    for workload in workloads:
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                result = run_once(checkouts[side], workload, seed, pair, seconds)
                metrics = {k: v["value"] for k, v in result.get("metrics", {}).items()}
                runs.append({"workload": workload, "pair": pair, "seed": seed,
                             "chain_seed": pair, "side": side,
                             "position": position, "correct": result.get("correct", False),
                             "failed": result.get("failed"), "error": result.get("error"),
                             "metrics": metrics})
                print(f"{workload} seed {seed} chain seed {pair} {side}: "
                      + ", ".join(f"{k} {v:.4g}" for k, v in metrics.items()), flush=True)
            out.write_text(json.dumps({
                "seconds": seconds, "workloads": workloads,
                "runs": runs, "summary": summarize(runs, bench["end_to_end"]),
            }, indent=1) + "\n")
    print(f"workloads: {', '.join(workloads)}")
    print("\n".join(summary_lines(summarize(runs, bench["end_to_end"]))))
    print(f"wrote {out}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
