"""Every script under ``tools/`` starts: ``--help`` exits 0. The archive
comparison also runs on two small hand-written reference trees.

The scripts import the library, and ``tools/ref_archives.py`` also
``perfbench/workloads.py``, before they parse their arguments. A name
they import that a change renames or deletes fails here, not only at the
next run of the script.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from depcox import io
from depcox.engine import PosteriorSample
from depcox.sgcp import EventSet

TOOLS = sorted((Path(__file__).resolve().parent.parent / "tools").glob("*.py"))


def test_there_are_scripts():
    assert TOOLS


@pytest.mark.parametrize("script", TOOLS, ids=lambda path: path.name)
def test_help_exits_0(script):
    out = subprocess.run(
        [sys.executable, str(script), "--help"], capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert "usage:" in out.stdout


def _reference_tree(root: Path, g_step: float = 0.0, lambda_star: float = 2.0) -> Path:
    """A ``tools/ref_archives.py`` tree of one hand-written workload: four
    draws of one process whose function values move by ``g_step`` a draw."""
    cfg = io.config_from_dict({"region": {"lower": [0.0], "upper": [1.0]}, "grid_per_axis": 2})
    train, test = [EventSet(np.array([[0.25], [0.5]]))], [EventSet(np.array([[0.75]]))]
    samples = [
        PosteriorSample(
            iteration=i,
            lambda_stars=np.array([lambda_star + i]),
            kappas=np.array([1.0]),
            thetas=np.array([0.01]),
            phis=np.array([0.02]),
            latent_values=np.array([[0.1 * i, -0.1 * i * i]]),
            thinned=[np.array([[0.3]])],
            rate_idx=[np.array([0])],
            g_values=[np.array([0.5, 0.2 * i, -1.0]) + g_step * i],
        )
        for i in range(4)
    ]
    archive = root / "1d-toy" / "archive"
    split = [{"process": 0, "train": [0, 1], "test": [2]}]
    io.save_archive(archive, cfg, train, test, split, samples, {}, {})
    io.write_report(archive / "eval.csv", [("process_0", "ours", "predictive_loglik", 1.0 + g_step)])
    return root


def _compare(a: Path, b: Path):
    script = Path(__file__).resolve().parent.parent / "tools" / "compare_archives.py"
    return subprocess.run(
        [sys.executable, str(script), str(a), str(b)], capture_output=True, text=True, timeout=120
    )


def test_compare_archives_reports_draws_values_and_ess(tmp_path):
    base = _reference_tree(tmp_path / "base")
    same = _compare(base, _reference_tree(tmp_path / "same"))
    assert same.returncode == 0, same.stderr
    assert "samples.jsonl byte-identical: yes" in same.stdout
    assert "discrete draws and bounds identical: yes (4 draws)" in same.stdout

    moved = _compare(base, _reference_tree(tmp_path / "moved", g_step=0.25))
    assert moved.returncode == 0, moved.stderr
    assert "samples.jsonl byte-identical: no" in moved.stdout
    assert "discrete draws and bounds identical: yes (4 draws)" in moved.stdout
    assert "largest change: g_values 0.75, latent_values 0" in moved.stdout
    assert "eval process_0,ours,predictive_loglik: 1 -> 1.25 (+0.25)" in moved.stdout
    assert moved.stdout.count("ESS A: lambda_star 4.000, g_mean ") == 1

    bound = _compare(base, _reference_tree(tmp_path / "bound", lambda_star=3.0))
    assert bound.returncode == 1
    assert "discrete draws and bounds identical: no (lambda_stars from draw 0)" in bound.stdout
