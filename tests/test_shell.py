"""End-to-end CLI and file-format tests."""

import filecmp
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import depcox.convolution
import depcox.gaussian
from depcox import io
from depcox.cli import main
from depcox.engine import RunConfig, intensity_samples, run_chain_with_info, summarize
from depcox.generate import sample_events, sample_ground_truth
from depcox.metrics import (
    Quadrature,
    diffusion_bandwidth,
    kde_intensity,
    l2_error,
    predictive_loglik,
    sample_logliks,
)
from depcox.sgcp import EventSet, PriorConfig, Region
from depcox.thinning import RateLadder

# The keys of an archive's config.json and of each samples.jsonl record.
# Archives written earlier hold exactly these, so they are the file format.
CONFIG_KEYS = {
    "region", "ladder", "n_iters", "burn_in", "thin_every", "seed", "n_latent",
    "grid_per_axis", "priors", "independent", "train_fraction", "generate",
}
# Settings that configs and archives written earlier hold, each off the
# value the program now fixes.
RETIRED_SETTINGS = {
    "insert_prob": 0.3, "hmc_steps": 4, "hmc_step_size": 0.3, "phi_step_size": 3.0, "adapt": False,
    "slack": 0.8, "grid_pad": 0.2, "quadrature_resolution": 128,
}
SAMPLE_KEYS = {
    "iteration", "lambda_stars", "kappas", "thetas", "phis", "latent_values", "thinned",
    "rate_idx", "g_values",
}


def _write_config(path: Path, **overrides) -> Path:
    cfg = {
        "region": {"lower": [0.0], "upper": [1.0]},
        "ladder": [1.0],
        "n_iters": 40,
        "burn_in": 10,
        "thin_every": 1,
        "seed": 3,
        "n_latent": 1,
        "grid_per_axis": 10,
        "priors": {
            "lambda_alpha": 1.0,
            "lambda_beta": 0.1,
            "kappa_log_sd": 0.7,
            "theta_log_mean": float(np.log(0.005)),
            "theta_log_sd": 0.7,
            "phi_log_mean": float(np.log(0.01)),
            "phi_log_sd": 0.7,
        },
        "train_fraction": 0.75,
        "generate": {
            "n_processes": 2,
            "lambda_star_range": [20.0, 25.0],
        },
    }
    cfg.update(overrides)
    out = path / "config.json"
    out.write_text(json.dumps(cfg, indent=1))
    return out


def _archive_files_equal(a: Path, b: Path, exclude=("timings.json",)) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    for name in names:
        if name in exclude:
            continue
        if not filecmp.cmp(a / name, b / name, shallow=False):
            return False
    return True


class TestEventFiles:
    def test_round_trip(self, tmp_path):
        ev = EventSet(np.array([[0.25], [0.75]]), 1)
        io.write_event_file(tmp_path / "ev.csv", ev, 1)
        back = io.read_event_files([tmp_path / "ev.csv"], Region([0.0], [1.0]))
        assert len(back) == 1
        np.testing.assert_array_equal(back[0].points, ev.points)
        assert back[0].process_id == 0  # contiguous relabeling

    def test_header_only_file_is_one_empty_process(self, tmp_path):
        (tmp_path / "ev.csv").write_text("process_id,x1\n")
        back = io.read_event_files([tmp_path / "ev.csv"], Region([0.0], [1.0]))
        assert len(back) == 1 and len(back[0]) == 0

    @pytest.mark.parametrize("empty_at", [0, 1, 2])
    def test_a_file_with_no_events_beside_others_exits_2_naming_it(self, tmp_path, capsys, empty_at):
        # a header-only file names no process id: read beside other files,
        # its process would drop out and the others be renumbered
        cfg = _write_config(tmp_path)
        paths = [tmp_path / f"events_{d}.csv" for d in range(3)]
        for d, path in enumerate(paths):
            path.write_text("process_id,x1\n" + ("" if d == empty_at else f"{d},0.5\n{d},0.25\n"))
        with pytest.raises(io.ValidationError, match=f"events_{empty_at}.csv"):
            io.read_event_files(paths, Region([0.0], [1.0]))
        out = tmp_path / "a"
        assert main(["fit", *map(str, paths), "--config", str(cfg), "--out", str(out)]) == 2
        assert f"events_{empty_at}.csv" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_row_reports_location(self, tmp_path):
        (tmp_path / "ev.csv").write_text("process_id,x1\n0,0.5\n0,abc\n")
        with pytest.raises(io.ValidationError, match="3"):
            io.read_event_files([tmp_path / "ev.csv"], Region([0.0], [1.0]))

    @pytest.mark.parametrize("row,problem", [("0,1.5", "event for process 0 lies outside the region"),
                                             ("0,nan", "non-finite coordinate")])
    def test_rows_are_numbered_by_their_line_after_leading_blank_lines(self, tmp_path, capsys, row, problem):
        cfg = _write_config(tmp_path)
        path = tmp_path / "e_blank.csv"
        path.write_text(f"\n\nprocess_id,x1\n0,0.1\n{row}\n")
        assert main(["fit", str(path), "--config", str(cfg), "--out", str(tmp_path / "a")]) == 2
        assert f"e_blank.csv:5: {problem}" in capsys.readouterr().err

    def test_files_of_different_dimension_exit_2_naming_the_file(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        one = tmp_path / "one.csv"
        one.write_text("process_id,x1\n0,0.5\n")
        two = tmp_path / "two.csv"
        two.write_text("process_id,x1,x2\n0,0.5,0.5\n")
        assert main(["fit", str(one), str(two), "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "two.csv" in capsys.readouterr().err
        with pytest.raises(io.ValidationError, match="one.csv"):
            io.read_event_files([two, one], Region([0.0, 0.0], [1.0, 1.0]))

    def test_file_of_other_dimension_than_region_exits_2_naming_the_file(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, region={"lower": [0.0, 0.0], "upper": [1.0, 1.0]})
        one = tmp_path / "one.csv"
        one.write_text("process_id,x1\n0,0.5\n0,0.25\n")
        assert main(["fit", str(one), "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "one.csv" in capsys.readouterr().err


def _assert_same_array(a, b):
    assert isinstance(b, np.ndarray) and b.dtype == a.dtype and b.shape == a.shape
    np.testing.assert_array_equal(a, b)


def _assert_same_fields(a, b):
    """Dataclasses ``a`` and ``b`` hold equal fields: arrays (also in
    lists and regions) of the same dtype and shape, other values equal."""
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, Region):
            _assert_same_fields(x, y)
        elif isinstance(x, np.ndarray):
            _assert_same_array(x, y)
        elif isinstance(x, list):
            assert len(x) == len(y)
            for u, v in zip(x, y):
                _assert_same_array(u, v)
        else:
            assert type(x) is type(y) and x == y, f.name


class TestUnreadableInputs:
    """A missing or damaged input file exits 2 with a message naming it."""

    @pytest.fixture()
    def archive(self, tmp_path):
        cfg = _write_config(tmp_path, n_iters=3, burn_in=0)
        ev = tmp_path / "ev.csv"
        ev.write_text("process_id,x1\n0,0.5\n0,0.25\n0,0.75\n")
        arch = tmp_path / "arch"
        assert main(["fit", str(ev), "--config", str(cfg), "--out", str(arch)]) == 0
        return arch

    def test_missing_event_file_exits_2_naming_it(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        missing = tmp_path / "absent.csv"
        assert main(["fit", str(missing), "--config", str(cfg), "--out", str(tmp_path / "a")]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_undecodable_event_file_exits_2_naming_it(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        binary = tmp_path / "binary.csv"
        binary.write_bytes(b"process_id,x1\n0,\xff\xfe\n")
        assert main(["fit", str(binary), "--config", str(cfg), "--out", str(tmp_path / "a")]) == 2
        assert str(binary) in capsys.readouterr().err

    def test_missing_config_file_exits_2_naming_it(self, tmp_path, capsys):
        ev = tmp_path / "ev.csv"
        ev.write_text("process_id,x1\n0,0.5\n")
        missing = tmp_path / "absent.json"
        assert main(["fit", str(ev), "--config", str(missing), "--out", str(tmp_path / "a")]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_archive_without_split_indices_exits_2_naming_it(self, archive, capsys):
        (archive / "split_indices.json").unlink()
        assert main(["eval", str(archive)]) == 2
        assert str(archive / "split_indices.json") in capsys.readouterr().err

    def test_truncated_sample_record_exits_2_naming_file_and_line(self, archive, capsys):
        records = archive / "samples.jsonl"
        lines = records.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]
        records.write_text("\n".join(lines) + "\n")
        assert main(["eval", str(archive)]) == 2
        assert f"{records}:2:" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "edit,named",
        [
            (lambda rec: {k: v for k, v in rec.items() if k != "lambda_stars"}, "field lambda_stars"),
            (lambda rec: 3, "JSON object"),
            (lambda rec: rec | {"g_values": [rec["g_values"][0][:-1]]}, "field g_values"),
            (lambda rec: rec | {"lambda_stars": []}, "field lambda_stars"),
        ],
        ids=["missing-field", "not-an-object", "short-g-values", "empty-lambda-stars"],
    )
    def test_malformed_sample_record_exits_2_naming_file_line_and_field(self, archive, capsys,
                                                                       edit, named):
        records = archive / "samples.jsonl"
        lines = records.read_text().splitlines()
        lines[1] = json.dumps(edit(json.loads(lines[1])))
        records.write_text("\n".join(lines) + "\n")
        assert main(["eval", str(archive)]) == 2
        err = capsys.readouterr().err
        assert f"{records}:2:" in err and named in err


    @pytest.mark.parametrize(
        "edit,named",
        [
            (lambda rec: rec | {"phis": [0.0]}, "phi must be positive"),
            (lambda rec: rec | {"phis": [-rec["phis"][0]]}, "phi must be positive"),
            (lambda rec: rec | {"latent_values": [row[:-1] for row in rec["latent_values"]]},
             "latent values of shape (1, 9) do not match 1 latent functions on a grid of 10 nodes"),
        ],
        ids=["zero-phi", "negative-phi", "short-latent-row"],
    )
    @pytest.mark.parametrize("command", ["eval", "export-grid"])
    def test_sample_record_off_its_latent_grid_exits_2_naming_the_problem(self, archive, tmp_path, capsys,
                                                                          command, edit, named):
        records = archive / "samples.jsonl"
        lines = records.read_text().splitlines()
        lines[1] = json.dumps(edit(json.loads(lines[1])))
        records.write_text("\n".join(lines) + "\n")
        argv = [command, str(archive)] + (["--out", str(tmp_path / "grid")] if command == "export-grid" else [])
        assert main(argv) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command, named", [("eval", "at least one posterior sample"),
                                                ("export-grid", "holds no samples")])
    def test_archive_without_samples_exits_2(self, archive, tmp_path, capsys, command, named):
        (archive / "samples.jsonl").write_text("")
        argv = [command, str(archive)] + (["--out", str(tmp_path / "grid")] if command == "export-grid" else [])
        assert main(argv) == 2
        assert named in capsys.readouterr().err

    def test_export_grid_at_one_node_per_axis_exits_2_naming_the_problem(self, archive, tmp_path, capsys):
        out = tmp_path / "grid"
        assert main(["export-grid", str(archive), "--out", str(out), "--resolution", "1"]) == 2
        assert "at least 2 points per axis" in capsys.readouterr().err
        assert not out.exists()


class TestSerializers:
    def _config_off_defaults(self):
        run = RunConfig(
            n_iters=7, burn_in=2, thin_every=3, seed=5, ladder=RateLadder((0.25, 0.5, 1.0)),
            n_latent=2, grid_per_axis=6,
            priors=PriorConfig(2.0, 0.5, 0.1, 0.6, -3.0, 0.4, -4.0, 0.3), independent=True,
        )
        return io.ShellConfig(
            Region([0.0, -1.0], [2.0, 1.0]), run, train_fraction=0.5,
            generate={"n_processes": 3, "lambda_star_range": [5.0, 9.0]},
        )

    def test_config_round_trips_with_every_field_off_its_default(self):
        cfg = self._config_off_defaults()
        default_run = RunConfig()
        for obj, default in [(cfg.run, default_run), (cfg.run.priors, PriorConfig()),
                             (cfg.run.ladder, RateLadder())]:
            for f in fields(obj):
                assert getattr(obj, f.name) != getattr(default, f.name), f.name
        default_shell = io.ShellConfig(Region([0.0], [1.0]), default_run)
        for name in ("train_fraction", "generate"):
            assert getattr(cfg, name) != getattr(default_shell, name)
        back = io.config_from_dict(json.loads(json.dumps(io.config_to_dict(cfg))))
        assert back.run == cfg.run
        _assert_same_fields(cfg.region, back.region)
        for name in ("train_fraction", "generate"):
            assert getattr(back, name) == getattr(cfg, name)

    def test_config_keys_are_the_file_format(self, tmp_path):
        cfg = io.load_config(_write_config(tmp_path))
        assert set(io.config_to_dict(cfg)) == CONFIG_KEYS
        assert set(io.config_to_dict(self._config_off_defaults())) == CONFIG_KEYS

    def test_config_without_optional_keys_takes_the_defaults(self):
        cfg = io.config_from_dict({"region": {"lower": [0.0], "upper": [1.0]}})
        assert cfg.run == RunConfig()
        assert (cfg.train_fraction, cfg.generate) == (0.75, {})

    @pytest.mark.parametrize("independent", [False, True])
    def test_archive_samples_round_trip_exactly(self, tmp_path, independent):
        square = Region([0.0, 0.0], [1.0, 1.0])
        rng = np.random.default_rng(4)
        truth = sample_ground_truth(square, 2, 1, rng, lambda_star_range=(20.0, 25.0), grid_per_axis=4)
        data = sample_events(truth, rng)
        run = RunConfig(n_iters=3, grid_per_axis=4, seed=2, independent=independent)
        samples = list(run_chain_with_info(data, square, run)[0])
        # a draw in which process 0 holds no thinned points
        last = samples[-1]
        n0 = len(data[0])
        samples.append(replace(
            last, iteration=last.iteration + 1,
            thinned=[last.thinned[0][:0], *last.thinned[1:]],
            rate_idx=[last.rate_idx[0][:0], *last.rate_idx[1:]],
            g_values=[last.g_values[0][:n0], *last.g_values[1:]],
        ))
        cfg = io.ShellConfig(square, run)
        split = [{"process": d, "train": [], "test": []} for d in range(len(data))]
        io.save_archive(tmp_path / "arch", cfg, data, data, split, samples, {}, {})
        loaded = io.load_archive(tmp_path / "arch")
        assert len(loaded.samples) == len(samples)
        for a, b in zip(samples, loaded.samples):
            _assert_same_fields(a, b)
        for line in (tmp_path / "arch" / "samples.jsonl").read_text().splitlines():
            assert set(json.loads(line)) == SAMPLE_KEYS

    @pytest.mark.parametrize("low_fraction", [None, 0.375])
    def test_truth_manifest_round_trips_exactly(self, tmp_path, low_fraction):
        square = Region([0.0, 0.0], [1.0, 2.0])
        truth = sample_ground_truth(square, 2, 2, np.random.default_rng(6), grid_per_axis=4)
        truth.low_fraction = low_fraction
        io.save_truth(tmp_path / "truth.json", truth)
        _assert_same_fields(truth, io.load_truth(tmp_path / "truth.json"))


class TestGenerate:
    def test_writes_one_file_per_process_and_manifest(self, tmp_path):
        cfg = _write_config(tmp_path, generate={"n_processes": 4, "lambda_star_range": [20.0, 25.0]})
        out = tmp_path / "gen"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "events_0.csv",
            "events_1.csv",
            "events_2.csv",
            "events_3.csv",
            "truth_manifest.json",
        ]

    def test_fixed_seed_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["generate", "--config", str(cfg), "--out", str(out_a), "--seed", "9"])
        main(["generate", "--config", str(cfg), "--out", str(out_b), "--seed", "9"])
        assert _archive_files_equal(out_a, out_b, exclude=())

    def test_zero_intensity_gives_header_only_files(self, tmp_path):
        cfg = _write_config(
            tmp_path, generate={"n_processes": 2, "lambda_star_range": [0.0, 0.0]}
        )
        out = tmp_path / "gen"
        main(["generate", "--config", str(cfg), "--out", str(out)])
        for d in range(2):
            assert (out / f"events_{d}.csv").read_text() == "process_id,x1\n"

    @pytest.mark.parametrize(
        "entry,key",
        [
            ({"bogus": 1}, "generate.bogus"),
            ({"grid_pad": 0.1}, "generate.grid_pad"),
            ({"n_processes": "2"}, "generate.n_processes"),
            ({"n_processes": -1}, "generate.n_processes"),
            ({"grid_per_axis": 6.0}, "generate.grid_per_axis"),
            ({"lambda_star_range": 20.0}, "generate.lambda_star_range"),
            ({"kappa_range": [0.7, 1.6, 2.0]}, "generate.kappa_range"),
        ],
    )
    def test_unknown_or_malformed_entry_exits_2_naming_it(self, tmp_path, capsys, entry, key):
        cfg = _write_config(tmp_path, generate=entry)
        out = tmp_path / "gen"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()
        io.load_config(cfg)  # only generate reads the entries: fit and eval load it

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_exits_2_naming_the_key(self, tmp_path, capsys, where):
        cfg = _write_config(tmp_path, **({"seed": -1} if where == "config" else {}))
        out = tmp_path / "gen"
        flag = ["--seed", "-1"] if where == "flag" else []
        assert main(["generate", "--config", str(cfg), "--out", str(out), *flag]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_truth_manifest_round_trip(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = tmp_path / "gen"
        main(["generate", "--config", str(cfg), "--out", str(out)])
        truth = io.load_truth(out / "truth_manifest.json")
        X = np.linspace(0, 1, 7)[:, None]
        lam = truth.intensity(0, X)
        assert np.all(lam >= 0) and np.all(lam <= truth.lambda_stars[0])


class TestFit:
    def test_fit_and_round_trip(self, tmp_path):
        cfg = _write_config(tmp_path)
        gen = tmp_path / "gen"
        main(["generate", "--config", str(cfg), "--out", str(gen)])
        arch = tmp_path / "arch"
        code = main(
            ["fit", str(gen / "events_0.csv"), str(gen / "events_1.csv"),
             "--config", str(cfg), "--out", str(arch)]
        )
        assert code == 0
        loaded = io.load_archive(arch)
        assert len(loaded.samples) == 30  # 40 iters - 10 burn-in
        diag = json.loads((arch / "diagnostics.json").read_text())
        assert diag["n_samples"] == 30 and len(diag["processes"]) == 2

    def test_same_seed_byte_identical_modulo_timings(self, tmp_path):
        cfg = _write_config(tmp_path)
        gen = tmp_path / "gen"
        main(["generate", "--config", str(cfg), "--out", str(gen)])
        events = [str(gen / "events_0.csv"), str(gen / "events_1.csv")]
        a, b = tmp_path / "a", tmp_path / "b"
        main(["fit", *events, "--config", str(cfg), "--out", str(a)])
        main(["fit", *events, "--config", str(cfg), "--out", str(b)])
        assert _archive_files_equal(a, b)

    def test_config_with_retired_worker_count_loads(self, tmp_path):
        # configs and archives written while runs had a worker count still load
        cfg = io.load_config(_write_config(tmp_path, parallel_workers=3))
        assert cfg.run.n_iters == 40
        assert "parallel_workers" not in io.config_to_dict(cfg)

    def test_config_with_retired_sampler_settings_fits_as_one_without_them(self, tmp_path):
        # the settings are fixed now: set off their values, they change nothing
        gen, plain, old = tmp_path / "gen", tmp_path / "plain", tmp_path / "old"
        plain.mkdir()
        old.mkdir()
        main(["generate", "--config", str(_write_config(tmp_path)), "--out", str(gen)])
        events = [str(gen / "events_0.csv"), str(gen / "events_1.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for cfg in (_write_config(plain), _write_config(old, **RETIRED_SETTINGS)):
                assert main(["fit", *events, "--config", str(cfg), "--out", str(cfg.parent / "a")]) == 0
        assert not set(RETIRED_SETTINGS) & set(io.config_to_dict(io.load_config(old / "config.json")))
        assert _archive_files_equal(plain / "a", old / "a")

    @pytest.mark.parametrize(
        "override,key",
        [
            ({"priors": {"lambda_alfa": 2.0}}, "lambda_alfa"),
            ({"n_iters": "20"}, "n_iters"),
            ({"independent": "no"}, "independent"),
            ({"ladder": [0.5, "1"]}, "ladder"),
        ],
    )
    def test_malformed_config_exits_2_naming_the_key(self, tmp_path, capsys, override, key):
        cfg = _write_config(tmp_path, **override)
        ev = tmp_path / "ev.csv"
        ev.write_text("process_id,x1\n0,0.5\n")
        assert main(["fit", str(ev), "--config", str(cfg), "--out", str(tmp_path / "a")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_exits_2_naming_the_key(self, tmp_path, capsys, where):
        cfg = _write_config(tmp_path, **({"seed": -1} if where == "config" else {}))
        ev = tmp_path / "ev.csv"
        ev.write_text("process_id,x1\n0,0.5\n")
        out = tmp_path / "a"
        flag = ["--seed", "-1"] if where == "flag" else []
        assert main(["fit", str(ev), "--config", str(cfg), "--out", str(out), *flag]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_warns_but_a_retired_one_does_not(self, tmp_path):
        with pytest.warns(UserWarning, match="n_iter"):
            cfg = io.load_config(_write_config(tmp_path, n_iter=5))
        assert cfg.run.n_iters == 40
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            io.load_config(_write_config(tmp_path, parallel_workers=3))
            io.load_config(_write_config(tmp_path, **RETIRED_SETTINGS))

    def test_python_m_depcox_fits_and_warns_on_stderr(self, tmp_path):
        cfg = _write_config(tmp_path, n_iters=2, burn_in=0, n_iter=5)
        ev = tmp_path / "ev.csv"
        ev.write_text("process_id,x1\n0,0.5\n0,0.25\n")
        src = str(Path(depcox.gaussian.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run(
            [sys.executable, "-m", "depcox", "fit", str(ev), "--config", str(cfg),
             "--out", str(tmp_path / "a")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert "unknown config keys ignored: n_iter" in out.stderr
        assert (tmp_path / "a" / "samples.jsonl").is_file()

    def test_fit_reads_each_event_file_once(self, tmp_path, monkeypatch):
        cfg = _write_config(tmp_path, n_iters=2, burn_in=0)
        gen = tmp_path / "gen"
        main(["generate", "--config", str(cfg), "--out", str(gen)])
        events = [gen / "events_0.csv", gen / "events_1.csv"]
        reads = []
        read_text = Path.read_text
        monkeypatch.setattr(
            Path, "read_text", lambda path, *a, **k: reads.append(path) or read_text(path, *a, **k)
        )
        assert main(["fit", *map(str, events), "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert sorted(p for p in reads if p.name.startswith("events_")) == events

    def test_event_outside_region_exits_2_with_row(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("process_id,x1\n0,0.5\n0,1.5\n")
        code = main(["fit", str(bad), "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert ":3:" in err  # offending row number

    def test_empty_events_posterior_stays_low(self, tmp_path):
        cfg = _write_config(tmp_path, n_iters=120, burn_in=40, train_fraction=1.0)
        empty = tmp_path / "empty.csv"
        empty.write_text("process_id,x1\n")
        arch = tmp_path / "arch"
        assert main(["fit", str(empty), "--config", str(cfg), "--out", str(arch)]) == 0
        loaded = io.load_archive(arch)
        grid = np.linspace(0, 1, 50)[:, None]
        lam = intensity_samples(
            loaded.samples, grid, loaded.train, loaded.config.region, loaded.config.run
        ).mean(axis=0)
        prior_mean_bound = 1.0 / 0.1
        assert np.all(lam < prior_mean_bound / 2)


class TestEval:
    @pytest.fixture()
    def fitted(self, tmp_path):
        cfg = _write_config(tmp_path)
        gen = tmp_path / "gen"
        main(["generate", "--config", str(cfg), "--out", str(gen)])
        arch = tmp_path / "arch"
        main(["fit", str(gen / "events_0.csv"), str(gen / "events_1.csv"),
              "--config", str(cfg), "--out", str(arch)])
        return tmp_path, cfg, gen, arch

    def test_l2_rows_only_with_truth(self, fitted):
        tmp_path, cfg, gen, arch = fitted
        report = tmp_path / "report.csv"
        main(["eval", str(arch), "--out", str(report)])
        text = report.read_text()
        assert "l2_error" not in text
        assert "predictive_loglik" in text
        report2 = tmp_path / "report2.csv"
        main(["eval", str(arch), "--truth", str(gen / "truth_manifest.json"), "--out", str(report2)])
        assert "l2_error" in report2.read_text()

    def test_report_on_stdout_is_the_report_file(self, fitted, capsys):
        tmp_path, cfg, gen, arch = fitted
        truth = str(gen / "truth_manifest.json")
        assert main(["eval", str(arch), "--truth", truth]) == 0
        printed = capsys.readouterr().out
        assert main(["eval", str(arch), "--truth", truth, "--out", str(tmp_path / "r.csv")]) == 0
        assert printed == (tmp_path / "r.csv").read_text()

    def test_l2_rows_score_the_posterior_mean_intensity(self, fitted):
        tmp_path, cfg, gen, arch = fitted
        main(["eval", str(arch), "--truth", str(gen / "truth_manifest.json"),
              "--out", str(tmp_path / "r.csv")])
        rows = [r.split(",") for r in (tmp_path / "r.csv").read_text().splitlines()[1:]]
        got = [float(r[3]) for r in rows if r[2] == "l2_error"]
        loaded, truth = io.load_archive(arch), io.load_truth(gen / "truth_manifest.json")
        quad = Quadrature.for_region(loaded.config.region)
        lam = summarize(
            loaded.samples, quad.grid, loaded.train, loaded.config.region, loaded.config.run
        ).intensity_mean
        # the truth on the quadrature's axes, as the eval computes it
        want = [l2_error(lam[d], truth.intensity(d, quad.grid), quad) for d in range(2)]
        assert got == want  # the same sums in the same order

    def test_predictive_rows_score_every_sample_of_every_process(self, tmp_path):
        # eval streams the samples; scored from all intensities at once
        # instead, every process's rows agree to rounding (the test points
        # of one process alone take other products, rounded otherwise)
        cfg = _write_config(tmp_path, n_iters=12, burn_in=4,
                            generate={"n_processes": 3, "lambda_star_range": [60.0, 90.0]})
        gen, arch = tmp_path / "gen", tmp_path / "arch"
        main(["generate", "--config", str(cfg), "--out", str(gen)])
        main(["fit", *(str(gen / f"events_{d}.csv") for d in range(3)), "--config", str(cfg), "--out", str(arch)])
        main(["eval", str(arch), "--out", str(tmp_path / "r.csv")])
        rows = [r.split(",") for r in (tmp_path / "r.csv").read_text().splitlines()[1:]]
        got = {(r[0], r[2]): float(r[3]) for r in rows}
        loaded = io.load_archive(arch)
        region, quad = loaded.config.region, Quadrature.for_region(loaded.config.region)
        assert len(loaded.samples) > 1 and all(len(ev) for ev in loaded.test)
        for d, ev in enumerate(loaded.test):
            lam = intensity_samples(loaded.samples, ev.points, loaded.train, region, loaded.config.run,
                                    quad.grid)[:, d]
            lls = sample_logliks(lam[:, quad.weights.size :], quad.integrate(lam[:, : quad.weights.size]))
            assert got[(f"process_{d}", "predictive_loglik")] == pytest.approx(predictive_loglik(lls), rel=1e-9)
            assert got[(f"process_{d}", "mean_sample_loglik")] == pytest.approx(np.mean(lls), rel=1e-9)

    def test_blank_lines_in_the_records_change_neither_draws_nor_report(self, fitted):
        # the reader sizes its store by the records, not by the lines
        tmp_path, cfg, gen, arch = fitted
        spaced = tmp_path / "spaced"
        spaced.mkdir()
        for path in arch.iterdir():
            (spaced / path.name).write_bytes(path.read_bytes())
        lines = (arch / "samples.jsonl").read_text().splitlines()
        (spaced / "samples.jsonl").write_text(f"{lines[0]}\n\n" + "\n".join(lines[1:]) + "\n\n")
        before, after = io.load_archive(arch).samples, io.load_archive(spaced).samples
        assert len(after) == len(before) == len(lines) == 30
        for a, b in zip(before, after, strict=True):
            _assert_same_fields(a, b)
        for name in ("iteration", "lambda_stars", "latent_values", "g_offsets"):  # no unfilled rows
            _assert_same_array(getattr(before, name), getattr(after, name))
        for name, archive in (("before", arch), ("after", spaced)):
            assert main(["eval", str(archive), "--out", str(tmp_path / f"{name}.csv")]) == 0
        assert (tmp_path / "before.csv").read_bytes() == (tmp_path / "after.csv").read_bytes()

    def test_baseline_rows_present_when_flagged(self, fitted):
        tmp_path, cfg, gen, arch = fitted
        report = tmp_path / "report.csv"
        main(["eval", str(arch), "--baselines", "--out", str(report)])
        text = report.read_text()
        assert "independent" in text and "kde" in text

    def test_single_sample_archive_predictive_equals_loglik(self, tmp_path):
        cfg = _write_config(tmp_path, n_iters=11, burn_in=10)
        gen = tmp_path / "gen"
        main(["generate", "--config", str(cfg), "--out", str(gen)])
        arch = tmp_path / "arch"
        main(["fit", str(gen / "events_0.csv"), str(gen / "events_1.csv"),
              "--config", str(cfg), "--out", str(arch)])
        report = tmp_path / "report.csv"
        main(["eval", str(arch), "--out", str(report)])
        loaded = io.load_archive(arch)
        assert len(loaded.samples) == 1
        quad = Quadrature.for_region(loaded.config.region)
        lam_grid = intensity_samples(
            loaded.samples, quad.grid.nodes, loaded.train, loaded.config.region, loaded.config.run
        )
        test_ev = loaded.test[0]
        lam_ev = intensity_samples(
            loaded.samples, test_ev.points, loaded.train, loaded.config.region, loaded.config.run
        )[:, 0, :]
        expected = sample_logliks(lam_ev, quad.integrate(lam_grid[:, 0, :]))[0]
        rows = [l.split(",") for l in (tmp_path / "report.csv").read_text().splitlines()[1:]]
        got = float([r[3] for r in rows if r[0] == "process_0" and r[2] == "predictive_loglik"][0])
        assert got == pytest.approx(expected, rel=1e-9)

    def test_kde_beats_uniform_in_sample(self, tmp_path):
        # clustered events: in-sample density estimate must beat a flat rate
        rng = np.random.default_rng(0)
        pts = np.clip(0.5 + 0.05 * rng.standard_normal(40), 0.01, 0.99)
        ev_file = tmp_path / "ev.csv"
        io.write_event_file(ev_file, EventSet(pts[:, None], 0), 1)
        cfg = _write_config(tmp_path, train_fraction=1.0, n_iters=12, burn_in=4)
        arch = tmp_path / "arch"
        main(["fit", str(ev_file), "--config", str(cfg), "--out", str(arch)])
        report = tmp_path / "report.csv"
        main(["eval", str(arch), str(ev_file), "--baselines", "--out", str(report)])
        rows = [l.split(",") for l in report.read_text().splitlines()[1:]]
        kde_ll = float(
            [r[3] for r in rows if r[1] == "kde" and r[2] == "predictive_loglik"][0]
        )
        k = len(pts)
        uniform_ll = -k + k * np.log(k / 1.0)
        assert np.isfinite(kde_ll)
        assert kde_ll > uniform_ll

    def test_kde_rows_score_the_estimate_at_the_events_and_skip_a_process_of_one_event(self, tmp_path):
        # process 1 trains on one event: no KDE rows for it, but its model rows stay
        rng = np.random.default_rng(1)
        train = [EventSet(rng.uniform(size=(12, 1)), 0), EventSet(np.array([[0.4]]), 1)]
        test = [EventSet(rng.uniform(size=(5, 1)), 0), EventSet(np.array([[0.6], [0.9]]), 1)]
        train_file, test_file = tmp_path / "train.csv", tmp_path / "test.csv"
        io.write_event_file(train_file, train, 1)
        io.write_event_file(test_file, test, 1)
        cfg = _write_config(tmp_path, train_fraction=1.0, n_iters=6, burn_in=2)
        arch, report = tmp_path / "arch", tmp_path / "report.csv"
        assert main(["fit", str(train_file), "--config", str(cfg), "--out", str(arch)]) == 0
        assert main(["eval", str(arch), str(test_file), "--baselines", "--out", str(report)]) == 0
        rows = {tuple(r[:3]): float(r[3]) for r in (l.split(",") for l in report.read_text().splitlines()[1:])}
        assert {(d, m) for d, m, _ in rows} == {
            ("process_0", "ours"), ("process_0", "independent"), ("process_0", "kde"),
            ("process_1", "ours"), ("process_1", "independent"),
        }
        quad = Quadrature.for_region(Region([0.0], [1.0]))
        h = [diffusion_bandwidth(x) for x in train[0].points.T]
        lam_grid, lam_ev = (kde_intensity(train[0].points, t, h) for t in (quad.grid, test[0].points))
        want = np.sum(np.log(lam_ev)) - quad.weights @ lam_grid
        assert rows[("process_0", "kde", "predictive_loglik")] == pytest.approx(want, rel=1e-12)

    def test_quadrature_and_export_form_no_node_gram(self, fitted, monkeypatch):
        tmp_path, cfg, gen, arch = fitted
        shapes = []
        original = depcox.gaussian.gauss_gram

        def recording(X, Z, variance):
            out = original(X, Z, variance)
            shapes.append(out.shape)
            return out

        for module in (depcox.gaussian, depcox.convolution):
            monkeypatch.setattr(module, "gauss_gram", recording)
        truth = str(gen / "truth_manifest.json")
        assert main(["eval", str(arch), "--truth", truth, "--out", str(tmp_path / "r.csv")]) == 0
        assert main(["export-grid", str(arch), "--out", str(tmp_path / "g"), "--resolution", "100"]) == 0
        n_nodes = Quadrature.for_region(io.load_archive(arch).config.region).weights.size
        assert shapes and not any(n in shape for shape in shapes for n in (n_nodes, 100))

    def test_test_file_of_other_dimension_exits_2_naming_the_file(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path, region={"lower": [0.0, 0.0], "upper": [1.0, 1.0]}, grid_per_axis=4,
            n_iters=3, burn_in=1, train_fraction=1.0,
        )
        ev = tmp_path / "ev.csv"
        ev.write_text("process_id,x1,x2\n0,0.5,0.5\n0,0.25,0.75\n")
        arch = tmp_path / "arch"
        assert main(["fit", str(ev), "--config", str(cfg), "--out", str(arch)]) == 0
        one = tmp_path / "one.csv"
        one.write_text("process_id,x1\n0,0.5\n")
        assert main(["eval", str(arch), str(one)]) == 2
        assert "one.csv" in capsys.readouterr().err

    def test_process_count_mismatch_exits_2(self, fitted):
        tmp_path, cfg, gen, arch = fitted
        solo = tmp_path / "solo.csv"
        solo.write_text("process_id,x1\n0,0.5\n")
        assert main(["eval", str(arch), str(solo)]) == 2


    @pytest.mark.parametrize(
        "edit,named",
        [
            (lambda m: m | {k: m[k][:1] for k in ("kappas", "thetas", "lambda_stars")},
             "archive has 2 processes in 1-D but the truth manifest has 1 in 1-D"),
            (lambda m: m | {"region": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}},
             "archive has 2 processes in 1-D but the truth manifest has 2 in 2-D"),
            (lambda m: m | {"thetas": m["thetas"][:1]},
             "one kappa, theta and lambda_star per process, got 2, 1 and 2"),
            (lambda m: m | {"weights": [w[:-1] for w in m["weights"]]},
             "ground-truth weights of shape (1, 9) do not match 1 latent functions on a grid of 10 nodes"),
        ],
        ids=["one-process", "other-dimension", "cut-thetas", "short-weights"],
    )
    def test_truth_manifest_off_the_archive_exits_2_naming_the_problem(self, fitted, capsys, edit, named):
        tmp_path, cfg, gen, arch = fitted
        manifest = tmp_path / "edited_manifest.json"
        manifest.write_text(json.dumps(edit(json.loads((gen / "truth_manifest.json").read_text()))))
        assert main(["eval", str(arch), "--truth", str(manifest)]) == 2
        assert named in capsys.readouterr().err


class TestBlasThreads:
    VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def _threads_after_import(self, preset: dict, numpy_first: bool = False, also: str = "") -> list:
        """The three variables after ``import depcox`` in a fresh
        interpreter, then the value of the expression ``also``, if given."""
        env = {k: v for k, v in os.environ.items() if k not in self.VARS}
        env.update(preset)
        env["PYTHONPATH"] = str(Path(depcox.gaussian.__file__).parents[1])
        code = ("import os, sys\n" + ("import numpy\n" if numpy_first else "") + "import depcox\n"
                f"print(*(os.environ.get(v, '-') for v in {self.VARS!r}){', ' + also if also else ''})")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True)
        return out.stdout.split()

    def test_import_defaults_blas_to_one_thread(self):
        assert self._threads_after_import({}) == ["1", "1", "1"]

    def test_a_user_value_is_kept(self):
        assert self._threads_after_import({"OPENBLAS_NUM_THREADS": "2"}) == ["2", "1", "1"]

    def test_nothing_is_set_once_numpy_is_loaded(self):
        assert self._threads_after_import({}, numpy_first=True) == ["-", "-", "-"]

    def test_import_loads_no_numpy(self):
        # the package re-exports no module's names, so it imports none
        assert self._threads_after_import({}, also="'numpy' in sys.modules") == ["1", "1", "1", "False"]


class TestImportFootprint:
    # what is loaded after import, fit, eval, export-grid and eval
    # --baselines; only the last may load scipy.special (through the KDE's
    # scipy.optimize), so it prints only the KDE's solvers
    SCRIPT = """
import sys
import depcox
from depcox.cli import main

events, config, archive, out = sys.argv[1:]
solvers = ("scipy.optimize", "scipy.fft")
loaded = lambda names=("scipy.special",) + solvers: print(*(m for m in names if m in sys.modules))
loaded()
assert main(["fit", events, "--config", config, "--out", archive]) == 0
loaded()
assert main(["eval", archive, "--out", out + "/plain.csv"]) == 0
loaded()
assert main(["export-grid", archive, "--out", out + "/grid", "--resolution", "10"]) == 0
loaded()
assert main(["eval", archive, "--baselines", "--out", out + "/baselines.csv"]) == 0
loaded(solvers)
"""

    @pytest.fixture(scope="class")
    def printed(self, tmp_path_factory):
        # a fresh interpreter: other tests load the KDE in this one
        tmp_path = tmp_path_factory.mktemp("footprint")
        cfg = _write_config(tmp_path, n_iters=6, burn_in=2)
        gen = tmp_path / "gen"
        assert main(["generate", "--config", str(cfg), "--out", str(gen)]) == 0
        env = dict(os.environ, PYTHONPATH=str(Path(depcox.gaussian.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(gen / "events_0.csv"), str(cfg),
             str(tmp_path / "arch"), str(tmp_path)],
            env=env, capture_output=True, text=True, check=True,
        )
        return [line for line in out.stdout.splitlines() if "written" not in line]

    def test_only_eval_with_baselines_loads_the_kde_solvers(self, printed):
        assert printed[-1] == "scipy.optimize scipy.fft"

    def test_import_fit_eval_and_export_load_no_scipy_special(self, printed):
        # the sigmoid is sgcp's own: nothing before the baselines needs scipy.special
        assert printed == ["", "", "", "", "scipy.optimize scipy.fft"]


class Test3dEndToEnd:
    def test_fit_eval_and_export_give_finite_rows(self, tmp_path):
        cfg = _write_config(
            tmp_path, region={"lower": [0.0] * 3, "upper": [1.0] * 3}, grid_per_axis=4,
            n_iters=6, burn_in=2,
            generate={"n_processes": 1, "grid_per_axis": 4, "lambda_star_range": [40.0, 40.0]},
        )
        gen, arch = tmp_path / "gen", tmp_path / "arch"
        assert main(["generate", "--config", str(cfg), "--out", str(gen)]) == 0
        assert main(["fit", str(gen / "events_0.csv"), "--config", str(cfg), "--out", str(arch)]) == 0
        assert len(io.load_archive(arch).samples) == 4
        report = tmp_path / "r.csv"
        assert main(["eval", str(arch), "--baselines", "--out", str(report)]) == 0
        rows = [r.split(",") for r in report.read_text().splitlines()[1:]]
        assert {r[1] for r in rows} == {"ours", "independent", "kde"}
        assert all(np.isfinite(float(r[3])) for r in rows)
        out = tmp_path / "grids"
        assert main(["export-grid", str(arch), "--out", str(out), "--resolution", "12"]) == 0
        for name in ("intensity_process_0.csv", "latent_0.csv"):
            vals = np.loadtxt(out / name, delimiter=",", skiprows=1)
            assert vals.shape == (12**3, 5) and np.all(np.isfinite(vals))


class TestExportGrid:
    def test_row_counts_and_bounds(self, tmp_path):
        cfg = _write_config(tmp_path)
        gen = tmp_path / "gen"
        main(["generate", "--config", str(cfg), "--out", str(gen)])
        arch = tmp_path / "arch"
        main(["fit", str(gen / "events_0.csv"), str(gen / "events_1.csv"),
              "--config", str(cfg), "--out", str(arch)])
        out = tmp_path / "grids"
        assert main(["export-grid", str(arch), "--out", str(out), "--resolution", "100"]) == 0
        loaded = io.load_archive(arch)
        max_lam = max(s.lambda_stars.max() for s in loaded.samples)
        for d in range(2):
            lines = (out / f"intensity_process_{d}.csv").read_text().splitlines()
            assert len(lines) == 101
            vals = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
            assert np.all(vals[:, 2] >= 0)  # sd column
            assert np.all(vals[:, 1] >= 0) and np.all(vals[:, 1] <= max_lam)
        assert (out / "latent_0.csv").exists()

    def test_2d_surfaces_are_finite_and_match_point_predictions(self, tmp_path):
        cfg = _write_config(
            tmp_path, region={"lower": [0.0, 0.0], "upper": [1.0, 1.0]}, grid_per_axis=5,
            n_iters=12, burn_in=6,
        )
        gen = tmp_path / "gen"
        main(["generate", "--config", str(cfg), "--out", str(gen)])
        arch = tmp_path / "arch"
        main(["fit", str(gen / "events_0.csv"), str(gen / "events_1.csv"),
              "--config", str(cfg), "--out", str(arch)])
        out = tmp_path / "grids"
        assert main(["export-grid", str(arch), "--out", str(out), "--resolution", "12"]) == 0
        loaded = io.load_archive(arch)
        nodes = Quadrature.for_region(loaded.config.region, 12).grid.nodes
        lams = intensity_samples(
            loaded.samples, nodes, loaded.train, loaded.config.region, loaded.config.run
        )
        for d in range(2):
            vals = np.loadtxt(out / f"intensity_process_{d}.csv", delimiter=",", skiprows=1)
            assert vals.shape == (144, 4) and np.all(np.isfinite(vals))
            np.testing.assert_array_equal(vals[:, :2], nodes)
            assert np.all(vals[:, 3] >= 0)
            np.testing.assert_allclose(vals[:, 2], lams[:, d].mean(axis=0), rtol=1e-6)
        latent = np.loadtxt(out / "latent_0.csv", delimiter=",", skiprows=1)
        assert latent.shape == (144, 4) and np.all(np.isfinite(latent))

    def test_missing_archive_exits_2(self, tmp_path):
        assert main(["export-grid", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]) == 2
