"""Compare two trees of reference-chain archives, workload by workload.

    python3 tools/compare_archives.py A B

Run from the root of a checkout; the program is imported from ``src/`` and
the ESS from ``perfbench/run.py``. ``A`` and ``B`` are trees written by
``tools/ref_archives.py`` (say, one from each of two checkouts). For every
workload, ``<tree>/<workload>/archive/``, it prints:

* whether the two ``samples.jsonl`` are byte-identical;
* each top-level ``config.json`` key that one side lacks or whose value
  differs (a retired setting shows here), or that the two agree;
* whether every draw's discrete parts and bounds are identical: its
  iteration, thinned points, levels, ``lambda_stars``, ``kappas``,
  ``thetas`` and ``phis``;
* the largest absolute change in the function values and in the latent
  values, over the draws whose sizes agree;
* each ``eval.csv`` value of both sides and its change;
* the largest relative change of the values in ``eval.csv``, in
  ``archive/eval_full.csv`` and in each surface file of ``grid/`` (the
  ``--truth --baselines`` report and the ``export-grid`` surfaces that
  ``tools/ref_archives.py`` writes beside the archive), so that a change
  that moves the reports only by rounding states its tolerance here; and
  of each report's rows model by model (``ours``, ``independent``,
  ``kde``), so that a change meant to move one model's rows shows that it
  moved only those;
* each side's ESS of the bound, of the mean function value and of the
  latent values, as the benchmark computes them (``ess_metrics``).

A relative change is ``|b - a| / max(|a|, |b|)``: 0 where the two values
are equal (equal infinities too) and inf where a change involves a value
that is not finite.

Exits 1 if a workload is missing from one tree or a discrete draw differs,
0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from depcox import io  # noqa: E402
from run import ess_metrics  # noqa: E402

DISCRETE = ("iteration", "thinned", "rate_idx", "lambda_stars", "kappas", "thetas", "phis")


def _parts(value) -> list:
    """A sample field as a list of arrays: a per-process list as it is,
    anything else as one array."""
    return [np.asarray(v) for v in value] if isinstance(value, list) else [np.asarray(value)]


def _same(a, b) -> bool:
    pa, pb = _parts(a), _parts(b)
    return len(pa) == len(pb) and all(np.array_equal(x, y) for x, y in zip(pa, pb))


def _largest_change(sa, sb, name: str) -> float:
    """The largest absolute change of field ``name`` over the draws whose
    arrays agree in shape; nan if there are none."""
    diffs = [
        float(np.max(np.abs(x - y), initial=0.0))
        for a, b in zip(sa, sb)
        for x, y in zip(_parts(getattr(a, name)), _parts(getattr(b, name)))
        if x.shape == y.shape
    ]
    return max(diffs, default=float("nan"))


def _config_lines(a: Path, b: Path) -> list[str]:
    """One line per top-level ``config.json`` key on one side only or of
    different values; one line saying they agree if there is none."""
    ca, cb = (json.loads((p / "config.json").read_text()) for p in (a, b))
    lines = []
    for key in sorted(ca.keys() | cb.keys()):
        if key not in cb:
            lines.append(f"  config {key}: only in A ({json.dumps(ca[key])})")
        elif key not in ca:
            lines.append(f"  config {key}: only in B ({json.dumps(cb[key])})")
        elif ca[key] != cb[key]:
            lines.append(f"  config {key}: {json.dumps(ca[key])} -> {json.dumps(cb[key])}")
    return lines or ["  config.json keys and values identical"]


def _eval_rows(path: Path) -> dict:
    with path.open() as fh:
        return {tuple(row[:3]): float(row[3]) for row in list(csv.reader(fh))[1:]}


def _grid_values(path: Path) -> np.ndarray:
    """Every value of an ``export-grid`` surface file: its coordinates,
    means and standard deviations, one row per node."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _largest_relative_change(va, vb) -> float:
    """The largest relative change from the values ``va`` to ``vb`` (see
    the module docstring); 0 for no values."""
    va, vb = np.asarray(va, dtype=float), np.asarray(vb, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(vb - va) / np.maximum(np.abs(va), np.abs(vb))
    rel[~np.isfinite(rel)] = np.inf
    rel[va == vb] = 0.0
    return float(rel.max(initial=0.0))


def _report_change_lines(a: Path, b: Path) -> list[str]:
    """One line per report, ``eval.csv``, ``eval_full.csv`` and each
    ``grid/`` surface file of either side, with the largest relative change
    of its values, or why there is none; then, for a report, one such line
    per model of its rows."""
    files = [("eval.csv", a / "eval.csv", b / "eval.csv", _eval_rows),
             ("eval_full.csv", a / "eval_full.csv", b / "eval_full.csv", _eval_rows)]
    surfaces = sorted({p.name for side in (a, b) for p in (side.parent / "grid").glob("*.csv")})
    files += [(f"grid/{name}", a.parent / "grid" / name, b.parent / "grid" / name, _grid_values)
              for name in surfaces]
    lines = []
    for label, pa, pb, read in files:
        missing = [side for side, p in (("A", pa), ("B", pb)) if not p.is_file()]
        if missing:
            lines.append(f"  {label}: missing in {' and '.join(missing)}")
            continue
        va, vb = read(pa), read(pb)
        if isinstance(va, dict):
            if va.keys() != vb.keys():
                lines.append(f"  {label}: rows differ ({len(va)} against {len(vb)})")
                continue
            groups = [(label, sorted(va))]
            groups += [(f"{label} {model}", sorted(k for k in va if k[1] == model))
                       for model in sorted({k[1] for k in va})]
            for name, keys in groups:
                change = _largest_relative_change([va[k] for k in keys], [vb[k] for k in keys])
                lines.append(f"  {name} largest relative change: {change:.3g} ({len(keys)} values)")
            continue
        if va.shape != vb.shape:
            lines.append(f"  {label}: shapes differ ({va.shape} against {vb.shape})")
            continue
        change = _largest_relative_change(va, vb)
        lines.append(f"  {label} largest relative change: {change:.3g} ({va.size} values)")
    return lines


def compare(a: Path, b: Path) -> tuple[list[str], bool]:
    """Report lines for one workload's archives ``a`` and ``b``, and
    whether their discrete draws and bounds are identical."""
    lines = []
    same_bytes = (a / "samples.jsonl").read_bytes() == (b / "samples.jsonl").read_bytes()
    lines.append(f"  samples.jsonl byte-identical: {'yes' if same_bytes else 'no'}")
    lines += _config_lines(a, b)
    arch_a, arch_b = io.load_archive(a), io.load_archive(b)
    sa, sb = arch_a.samples, arch_b.samples
    differing = {}
    for i, (x, y) in enumerate(zip(sa, sb)):
        for name in DISCRETE:
            if not _same(getattr(x, name), getattr(y, name)):
                differing.setdefault(name, i)
    if len(sa) != len(sb):
        lines.append(f"  discrete draws and bounds identical: no ({len(sa)} draws against {len(sb)})")
    elif differing:
        first = ", ".join(f"{name} from draw {i}" for name, i in differing.items())
        lines.append(f"  discrete draws and bounds identical: no ({first})")
    else:
        lines.append(f"  discrete draws and bounds identical: yes ({len(sa)} draws)")
    lines.append(
        f"  largest change: g_values {_largest_change(sa, sb, 'g_values'):.3g}, "
        f"latent_values {_largest_change(sa, sb, 'latent_values'):.3g}"
    )
    rows_a, rows_b = _eval_rows(a / "eval.csv"), _eval_rows(b / "eval.csv")
    for key in sorted(rows_a.keys() | rows_b.keys()):
        va, vb = rows_a.get(key, float("nan")), rows_b.get(key, float("nan"))
        lines.append(f"  eval {','.join(key)}: {va:.6g} -> {vb:.6g} ({vb - va:+.3g})")
    lines += _report_change_lines(a, b)
    for side, arch in (("A", arch_a), ("B", arch_b)):
        ess = ess_metrics(arch.samples, len(arch.train))
        lines.append(f"  ESS {side}: " + ", ".join(f"{k} {v:.3f}" for k, v in ess.items()))
    return lines, len(sa) == len(sb) and not differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="a tree written by tools/ref_archives.py")
    parser.add_argument("b", type=Path, help="the tree to compare it with")
    args = parser.parse_args(argv)
    names = sorted(
        {p.parent.parent.name for tree in (args.a, args.b) for p in tree.glob("*/archive/samples.jsonl")}
    )
    identical = bool(names)
    for name in names:
        print(name)
        a, b = args.a / name / "archive", args.b / name / "archive"
        missing = [str(p) for p in (a, b) if not (p / "samples.jsonl").is_file()]
        if missing:
            print(f"  missing: {', '.join(missing)}")
            identical = False
            continue
        lines, same = compare(a, b)
        print("\n".join(lines))
        identical &= same
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
