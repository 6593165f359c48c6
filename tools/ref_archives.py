"""Write the benchmark's reference-chain archives and their eval reports.

    python3 tools/ref_archives.py OUT

Run from the root of a checkout; the program is imported from ``src/``
and the workloads from ``perfbench/workloads.py``. For every workload,
``OUT/<workload>/`` receives its ground truth as ``truth_manifest.json``
(for ``depcox eval --truth``), the reference events (drawn with
``workloads.REFERENCE_SEED``), the fit config with every draw after
burn-in kept, and ``archive/``: the ``depcox fit`` archive at chain seed
0 with its ``depcox eval`` report as ``eval.csv``. These are the chains
whose draws the benchmark's ESS metrics come from. Beside them, so that
every command that reads an archive is covered, ``archive/eval_full.csv``
holds the report of ``depcox eval --truth truth_manifest.json
--baselines`` (the L2 rows, the independent baseline chain and the KDE
rows) and ``grid/`` the surfaces of ``depcox export-grid`` at its default
resolution.

BLAS and OpenMP are pinned to one thread, as in ``perfbench/run.py``: a
multi-threaded BLAS may round differently, and an eval of the same
archive under another thread count can give a different report. Two
checkouts that sample alike give trees that agree under

    diff -r --exclude=timings.json OUT_A OUT_B
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[var] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from depcox import cli, io  # noqa: E402

CHAIN_SEED = 0


def write_reference(workload: workloads.Workload, out: Path) -> None:
    """Fit the workload's reference chain into ``out/archive``, evaluate it
    and export its surfaces to ``out/grid``."""
    truth = workload.truth()
    events = workloads.write_inputs(workload, truth, workloads.REFERENCE_SEED, out / "events")
    io.save_truth(out / "truth_manifest.json", truth)
    config = workloads.write_config(
        dataclasses.replace(workload, thin_every=1), out / "reference.json"
    )
    archive = out / "archive"
    for argv in (
        ["fit", *events, "--config", config, "--out", str(archive), "--seed", str(CHAIN_SEED)],
        ["eval", str(archive), "--out", str(archive / "eval.csv")],
        ["eval", str(archive), "--truth", str(out / "truth_manifest.json"), "--baselines",
         "--out", str(archive / "eval_full.csv")],
        ["export-grid", str(archive), "--out", str(out / "grid")],
    ):
        code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"error: depcox {argv[0]} of {workload.name} exited {code}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory to write, one subdirectory per workload")
    args = parser.parse_args(argv)
    for name, workload in workloads.WORKLOADS.items():
        write_reference(workload, args.out / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
