"""Every script under ``tools/`` starts: ``--help`` exits 0. The archive
comparison also runs on two small hand-written reference trees.

The scripts import the library, and ``tools/ref_archives.py`` also
``perfbench/workloads.py``, before they parse their arguments. A name
they import that a change renames or deletes fails here, not only at the
next run of the script.
"""

import json
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


def _reference_tree(root: Path, g_step: float = 0.0, lambda_star: float = 2.0, config_edit=None,
                    surfaces: bool = True) -> Path:
    """A ``tools/ref_archives.py`` tree of one hand-written workload: four
    draws of one process whose function values move by ``g_step`` a draw,
    its reports and, if ``surfaces``, one ``grid/`` surface whose means move
    by ``g_step``. ``config_edit``, if given, rewrites the dict of its
    ``config.json``."""
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
    io.write_report(archive / "eval_full.csv", [
        ("process_0", "ours", "predictive_loglik", 1.0 + g_step),
        ("process_0", "ours", "l2_error", -np.inf),
    ])
    if surfaces:
        nodes = np.array([[0.0], [0.5], [1.0]])
        (root / "1d-toy" / "grid").mkdir()
        io.write_grid_file(root / "1d-toy" / "grid" / "intensity_process_0.csv", nodes,
                           np.array([2.0, 4.0, 8.0]) + g_step, np.array([0.5, 0.5, 0.5]))
    if config_edit is not None:
        path = archive / "config.json"
        path.write_text(json.dumps(config_edit(json.loads(path.read_text()))))
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
    assert "config.json keys and values identical" in same.stdout
    assert "eval.csv largest relative change: 0 (1 values)" in same.stdout
    assert "eval_full.csv largest relative change: 0 (2 values)" in same.stdout  # -inf on both sides
    assert "grid/intensity_process_0.csv largest relative change: 0 (9 values)" in same.stdout

    moved = _compare(base, _reference_tree(tmp_path / "moved", g_step=0.25))
    assert moved.returncode == 0, moved.stderr
    assert "samples.jsonl byte-identical: no" in moved.stdout
    assert "discrete draws and bounds identical: yes (4 draws)" in moved.stdout
    assert "largest change: g_values 0.75, latent_values 0" in moved.stdout
    assert "eval process_0,ours,predictive_loglik: 1 -> 1.25 (+0.25)" in moved.stdout
    assert "eval.csv largest relative change: 0.2 (1 values)" in moved.stdout  # 0.25 / 1.25
    assert "eval_full.csv largest relative change: 0.2 (2 values)" in moved.stdout
    assert "eval_full.csv ours largest relative change: 0.2 (2 values)" in moved.stdout
    assert "grid/intensity_process_0.csv largest relative change: 0.111 (9 values)" in moved.stdout
    assert moved.stdout.count("ESS A: lambda_star 4.000, g_mean ") == 1

    bound = _compare(base, _reference_tree(tmp_path / "bound", lambda_star=3.0))
    assert bound.returncode == 1
    assert "discrete draws and bounds identical: no (lambda_stars from draw 0)" in bound.stdout

    # an older archive holding a retired setting and another grid size
    older = _reference_tree(tmp_path / "old", config_edit=lambda cfg: {**cfg, "slack": 0.9, "grid_per_axis": 3},
                            surfaces=False)
    old = _compare(base, older)
    assert "grid/intensity_process_0.csv: missing in B" in old.stdout
    assert old.returncode == 0, old.stderr
    assert "samples.jsonl byte-identical: yes" in old.stdout
    assert "config slack: only in B (0.9)" in old.stdout
    assert "config grid_per_axis: 2 -> 3" in old.stdout
    assert "config.json keys and values identical" not in old.stdout



def test_compare_archives_reports_each_models_report_change(tmp_path):
    # a change meant to move the KDE rows shows that it moved only those
    trees = []
    for name, kde in (("a", 2.0), ("b", 2.5)):
        root = _reference_tree(tmp_path / name)
        io.write_report(root / "1d-toy" / "archive" / "eval_full.csv", [
            ("process_0", "ours", "predictive_loglik", 1.0),
            ("process_0", "independent", "predictive_loglik", 0.5),
            ("process_0", "kde", "predictive_loglik", kde),
            ("process_0", "kde", "l2_error", 3.0),
        ])
        trees.append(root)
    out = _compare(*trees)
    assert out.returncode == 0, out.stderr
    assert "eval_full.csv largest relative change: 0.2 (4 values)" in out.stdout
    assert "eval_full.csv independent largest relative change: 0 (1 values)" in out.stdout
    assert "eval_full.csv kde largest relative change: 0.2 (2 values)" in out.stdout
    assert "eval_full.csv ours largest relative change: 0 (1 values)" in out.stdout
    assert "eval.csv ours largest relative change: 0 (1 values)" in out.stdout

def test_reference_archives_of_one_checkout_compare_identical(tmp_path):
    # the check a byte-identical change is judged by, on the real workloads:
    # two runs of the same checkout agree draw for draw and row for row
    root = Path(__file__).resolve().parent.parent
    for name in ("a", "b"):
        out = subprocess.run(
            [sys.executable, str(root / "tools" / "ref_archives.py"), str(tmp_path / name)],
            capture_output=True, text=True, timeout=600,
        )
        assert out.returncode == 0, out.stderr
    same = _compare(tmp_path / "a", tmp_path / "b")
    assert same.returncode == 0, same.stdout + same.stderr
    workloads = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert workloads
    assert same.stdout.count("samples.jsonl byte-identical: yes") == len(workloads)


def _ab_bench():
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py"
    spec = importlib.util.spec_from_file_location("ab_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_bench_summary_of_hand_written_runs():
    declared = [{"name": "sweeps_per_s", "better": "higher"}, {"name": "eval_s", "better": "lower"}]
    parent = [(10.0, 1.0), (12.0, 1.1), (11.0, 0.9), (13.0, 1.0), (9.0, 1.2)]
    change = [(15.0, 1.1), (14.0, 1.0), (16.0, 0.8), (12.0, 1.0), (17.0, 1.2)]
    runs = [
        {"workload": "w", "pair": k, "side": side, "metrics": {"sweeps_per_s": s, "eval_s": e}}
        for k, (p, c) in enumerate(zip(parent, change))
        for side, (s, e) in (("parent", p), ("change", c))
    ]
    # a pair with one side missing the metric does not count
    runs.append({"workload": "w", "pair": 5, "side": "parent", "metrics": {"sweeps_per_s": 1.0}})
    summary = _ab_bench().summarize(runs, declared)["w"]
    sweeps = summary["sweeps_per_s"]
    assert sweeps["pairs"] == 5
    assert sweeps["parent"] == {"q1": 10.0, "median": 11.0, "q3": 12.0}
    assert sweeps["change"] == {"q1": 14.0, "median": 15.0, "q3": 16.0}
    assert sweeps["median_ratio"] == 15.0 / 11.0
    assert sweeps["change_wins"] == 4  # 12 against 13 loses
    assert sweeps["gap_exceeds_parent_iqr"]  # 4 > 12 - 10
    evals = summary["eval_s"]
    assert evals["change_wins"] == 2  # lower is better; ties do not win
    assert evals["parent"]["median"] == evals["change"]["median"] == 1.0
    assert not evals["gap_exceeds_parent_iqr"]


def test_ab_bench_of_one_workload_runs_and_names_only_it(tmp_path, monkeypatch, capsys):
    # hand-written runs of one workload, in place of perfbench/run.py: the
    # parent side takes 2 s to evaluate, this checkout 1 s
    bench = _ab_bench()
    parent, calls = tmp_path / "parent", []

    def run_once(checkout, workload, seed, chain_seed, seconds):
        calls.append((workload, seed, chain_seed))
        return {"correct": True, "metrics": {"eval_s": {"value": 2.0 if checkout == parent else 1.0}}}

    monkeypatch.setattr(bench, "run_once", run_once)
    monkeypatch.chdir(tmp_path)
    assert bench.main([str(parent), "--workload", "1d-ladder", "--pairs", "2", "--name", "one"]) == 0
    assert calls == [("1d-ladder", 1, 0)] * 2 + [("1d-ladder", 2, 1)] * 2
    record = json.loads((tmp_path / "BENCH_one.json").read_text())
    assert record["workloads"] == ["1d-ladder"] and list(record["summary"]) == ["1d-ladder"]
    assert {r["workload"] for r in record["runs"]} == {"1d-ladder"}
    assert record["summary"]["1d-ladder"]["eval_s"]["change_wins"] == 2
    out = capsys.readouterr().out
    assert "workloads: 1d-ladder\n" in out and "1d-ladder eval_s (lower is better)" in out
    with pytest.raises(SystemExit):
        bench.main([str(parent), "--workload", "no-such-workload"])
    assert "unknown workload no-such-workload" in capsys.readouterr().err


def test_ab_bench_prints_each_workload_and_metric():
    declared = [{"name": "sweeps_per_s", "better": "higher"}]
    runs = [
        {"workload": w, "pair": k, "side": side, "metrics": {"sweeps_per_s": v}}
        for w in ("a", "b")
        for k, (p, c) in enumerate([(10.0, 12.0), (11.0, 13.0), (12.0, 11.5)])
        for side, v in (("parent", p), ("change", c))
    ]
    bench = _ab_bench()
    lines = bench.summary_lines(bench.summarize(runs, declared))
    assert lines == [
        f"{w} sweeps_per_s (higher is better): parent 11, change 12, ratio {12 / 11:.4f}, "
        "change wins 2/3, gap within parent IQR"
        for w in ("a", "b")
    ]


def test_grid_probe_prints_the_median_and_iqr_of_its_repeats(monkeypatch):
    import importlib.util

    # the probe pins BLAS threads in the environment at import: restore them after
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    path = Path(__file__).resolve().parent.parent / "tools" / "grid_probe.py"
    spec = importlib.util.spec_from_file_location("grid_probe", path)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    assert probe.REPEATS == 5
    # (sweeps/s, fewest points, most points, s/sample predict, MB grown, bytes per draw)
    results = [(40.0, 90, 120, 0.02, 1.0, 3000.0), (10.0, 95, 118, 0.05, 0.0, 2900.0),
               (30.0, 88, 121, 0.03, 2.0, 3100.0), (20.0, 91, 119, 0.01, 0.5, 2950.0),
               (50.0, 92, 125, 0.04, 0.0, 3050.5)]
    line = probe.summary_line("2d-20x20", 400, results)
    assert line == ("2d-20x20     Q*J=  400  N=  88-125    30.00 sweeps/s (IQR 20.00-40.00, 5 runs)"
                    "    0.0300 s/sample predict  +   0.5 MB peak RSS      3000 B/draw")


def test_traffic_traces_a_one_sweep_fit(tmp_path):
    # the tracer of tools/traffic.py over a one-sweep 1D fit: the store's
    # append runs in full, the exit-3 branch of cli.main does not, and a
    # dataclass field's value is recorded
    import importlib.util
    import inspect

    from depcox import cli
    from depcox.engine import Draws

    path = Path(__file__).resolve().parent.parent / "tools" / "traffic.py"
    spec = importlib.util.spec_from_file_location("traffic", path)
    traffic = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traffic)
    events, config = tmp_path / "events.csv", tmp_path / "config.json"
    events.write_text("process_id,x1\n0,0.25\n0,0.5\n0,0.75\n")
    config.write_text(json.dumps({"region": {"lower": [0.0], "upper": [1.0]}, "n_iters": 1,
                                  "grid_per_axis": 4}))
    with traffic.Tracer() as tracer:
        assert cli.main(["fit", str(events), "--config", str(config), "--out", str(tmp_path / "a")]) == 0
    unreached = {stem: {n for n, _ in lines} for stem, lines in tracer.unreached().items()}
    append = {n for *_, n in Draws.append.__code__.co_lines() if n}
    assert append & {n for f, n in tracer.reached if f.endswith("engine.py")}
    assert not append & unreached["engine"]
    source, start = inspect.getsourcelines(cli.main)
    exit_3 = start + [line.strip() for line in source].index("return 3")
    assert exit_3 in unreached["cli"] and exit_3 - 1 in unreached["cli"]
    assert tracer.values["engine.RunConfig.__init__(n_iters)"] == {"1"}
