"""File formats: event files, config files, ground-truth manifests and
chain archives.

Everything is flat text (CSV / JSON / JSON lines) so runs diff cleanly;
an archive is a directory, with timings kept in their own file so that
reruns with equal seeds are byte-identical everywhere else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .engine import PosteriorSample, RunConfig
from .errors import ValidationError
from .generate import GroundTruth
from .sgcp import EventSet, PriorConfig, Region
from .thinning import RateLadder

EVENT_HEADER = "process_id"


# ---------------------------------------------------------------------------
# event files

def write_event_file(path, events: EventSet, dim: int | None = None) -> None:
    dim = events.points.shape[1] if dim is None else dim
    header = ",".join([EVENT_HEADER] + [f"x{a + 1}" for a in range(dim)])
    lines = [header]
    for row in events.points:
        lines.append(",".join([str(events.process_id)] + [repr(float(v)) for v in row]))
    Path(path).write_text("\n".join(lines) + "\n")


def read_event_files(paths, region: Region | None = None) -> list[EventSet]:
    """Read one or more event files, each once; process ids are mapped to a
    contiguous 0..D-1 label set in sorted order of the raw ids.

    Given a ``region``, an event outside it raises ``ValidationError``
    naming its file and row.
    """
    raw: dict[int, list] = {}
    dim = 1
    for path in paths:
        file_dim, rows = _event_table(path)
        dim = max(dim, file_dim)
        for row_no, pid, point in rows:
            if region is not None and not region.contains_point(point):
                raise ValidationError(
                    f"{path}:{row_no}: event for process {pid} lies outside the region"
                )
            raw.setdefault(pid, []).append(point)
    if not raw:
        # header-only inputs define a single process with no events
        return [EventSet(np.zeros((0, dim)), 0)]
    out = []
    for new_id, pid in enumerate(sorted(raw)):
        out.append(EventSet(np.asarray(raw[pid], dtype=float), new_id))
    return out


def iter_event_rows(path):
    """Yield (row_number, process_id, point) from one event file."""
    yield from _event_table(path)[1]


def _event_table(path) -> tuple[int, list]:
    """One event file's dimension, from its header, and its rows
    (row_number, process_id, point)."""
    text = Path(path).read_text().strip().splitlines()
    if not text:
        raise ValidationError(f"{path}: empty event file")
    header = [h.strip() for h in text[0].split(",")]
    if header[0] != EVENT_HEADER or len(header) < 2:
        raise ValidationError(f"{path}: bad header {text[0]!r}")
    dim = len(header) - 1
    rows = []
    for row_no, line in enumerate(text[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != dim + 1:
            raise ValidationError(f"{path}:{row_no}: expected {dim + 1} fields")
        try:
            pid = int(fields[0])
            point = [float(v) for v in fields[1:]]
        except ValueError as exc:
            raise ValidationError(f"{path}:{row_no}: {exc}") from exc
        if not all(np.isfinite(point)):
            raise ValidationError(f"{path}:{row_no}: non-finite coordinate")
        rows.append((row_no, pid, point))
    return dim, rows


# ---------------------------------------------------------------------------
# config files

@dataclass
class ShellConfig:
    """Fully validated run configuration loaded from a JSON config file."""

    region: Region
    run: RunConfig
    quadrature_resolution: int = 0  # 0 means the dimension default
    train_fraction: float = 0.75
    generate: dict = field(default_factory=dict)

    def quad_resolution(self) -> int | None:
        return self.quadrature_resolution or None


def load_config(path) -> ShellConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> ShellConfig:
    try:
        region = Region(raw["region"]["lower"], raw["region"]["upper"])
    except KeyError as exc:
        raise ValidationError(f"config missing region bounds: {exc}") from exc
    ladder = RateLadder(tuple(raw.get("ladder", [1.0])), raw.get("slack", 0.9))
    priors = PriorConfig(**raw.get("priors", {}))
    run = RunConfig(
        n_iters=raw.get("n_iters", 1000),
        burn_in=raw.get("burn_in", 0),
        thin_every=raw.get("thin_every", 1),
        seed=raw.get("seed", 0),
        ladder=ladder,
        n_latent=raw.get("n_latent", 1),
        grid_per_axis=raw.get("grid_per_axis", 20),
        grid_pad=raw.get("grid_pad", 0.1),
        priors=priors,
        insert_prob=raw.get("insert_prob", 0.5),
        hmc_steps=raw.get("hmc_steps", 10),
        hmc_step_size=raw.get("hmc_step_size", 0.1),
        phi_step_size=raw.get("phi_step_size", 0.1),
        adapt=raw.get("adapt", True),
        independent=raw.get("independent", False),
    )
    frac = raw.get("train_fraction", 0.75)
    if not 0.0 < frac <= 1.0:
        raise ValidationError("train_fraction must lie in (0, 1]")
    return ShellConfig(
        region=region,
        run=run,
        quadrature_resolution=raw.get("quadrature_resolution", 0),
        train_fraction=frac,
        generate=raw.get("generate", {}),
    )


def config_to_dict(cfg: ShellConfig) -> dict:
    run = cfg.run
    return {
        "region": {"lower": cfg.region.lower.tolist(), "upper": cfg.region.upper.tolist()},
        "ladder": list(run.ladder.levels),
        "slack": run.ladder.slack,
        "n_iters": run.n_iters,
        "burn_in": run.burn_in,
        "thin_every": run.thin_every,
        "seed": run.seed,
        "n_latent": run.n_latent,
        "grid_per_axis": run.grid_per_axis,
        "grid_pad": run.grid_pad,
        "priors": vars(run.priors).copy(),
        "insert_prob": run.insert_prob,
        "hmc_steps": run.hmc_steps,
        "hmc_step_size": run.hmc_step_size,
        "phi_step_size": run.phi_step_size,
        "adapt": run.adapt,
        "independent": run.independent,
        "quadrature_resolution": cfg.quadrature_resolution,
        "train_fraction": cfg.train_fraction,
        "generate": cfg.generate,
    }


# ---------------------------------------------------------------------------
# ground-truth manifests

def truth_to_manifest(truth: GroundTruth) -> dict:
    return {
        "region": {
            "lower": truth.region.lower.tolist(),
            "upper": truth.region.upper.tolist(),
        },
        "grid": truth.grid.tolist(),
        "weights": truth.weights.tolist(),
        "phis": truth.phis.tolist(),
        "kappas": truth.kappas.tolist(),
        "thetas": truth.thetas.tolist(),
        "lambda_stars": truth.lambda_stars.tolist(),
        "low_fraction": truth.low_fraction,
    }


def truth_from_manifest(raw: dict) -> GroundTruth:
    return GroundTruth(
        region=Region(raw["region"]["lower"], raw["region"]["upper"]),
        grid=np.asarray(raw["grid"], dtype=float),
        weights=np.asarray(raw["weights"], dtype=float),
        phis=np.asarray(raw["phis"], dtype=float),
        kappas=np.asarray(raw["kappas"], dtype=float),
        thetas=np.asarray(raw["thetas"], dtype=float),
        lambda_stars=np.asarray(raw["lambda_stars"], dtype=float),
        low_fraction=raw.get("low_fraction"),
    )


def save_truth(path, truth: GroundTruth) -> None:
    Path(path).write_text(json.dumps(truth_to_manifest(truth), indent=1) + "\n")


def load_truth(path) -> GroundTruth:
    return truth_from_manifest(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# chain archives

def sample_to_record(s: PosteriorSample) -> dict:
    return {
        "iteration": s.iteration,
        "lambda_stars": s.lambda_stars.tolist(),
        "kappas": s.kappas.tolist(),
        "thetas": s.thetas.tolist(),
        "phis": s.phis.tolist(),
        "latent_values": s.latent_values.tolist(),
        "thinned": [t.tolist() for t in s.thinned],
        "rate_idx": [r.tolist() for r in s.rate_idx],
        "g_values": [g.tolist() for g in s.g_values],
    }


def sample_from_record(raw: dict, dim: int) -> PosteriorSample:
    thinned = [
        np.asarray(t, dtype=float).reshape(-1, dim) for t in raw["thinned"]
    ]
    return PosteriorSample(
        iteration=raw["iteration"],
        thinned=thinned,
        rate_idx=[np.asarray(r, dtype=int) for r in raw["rate_idx"]],
        g_values=[np.asarray(g, dtype=float) for g in raw["g_values"]],
        lambda_stars=np.asarray(raw["lambda_stars"], dtype=float),
        kappas=np.asarray(raw["kappas"], dtype=float),
        thetas=np.asarray(raw["thetas"], dtype=float),
        latent_values=np.asarray(raw["latent_values"], dtype=float),
        phis=np.asarray(raw["phis"], dtype=float),
    )


@dataclass
class Archive:
    """In-memory view of a fit archive directory."""

    path: Path
    config: ShellConfig
    train: list[EventSet]
    test: list[EventSet]
    samples: list[PosteriorSample]
    diagnostics: dict


def save_archive(
    out_dir,
    cfg: ShellConfig,
    train: list[EventSet],
    test: list[EventSet],
    split_indices: list[dict],
    samples: list[PosteriorSample],
    diag: dict,
    timings: dict,
) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(config_to_dict(cfg), indent=1) + "\n")
    _write_combined_events(out / "train_events.csv", train, cfg.region.dim)
    _write_combined_events(out / "test_events.csv", test, cfg.region.dim)
    (out / "split_indices.json").write_text(json.dumps(split_indices, indent=1) + "\n")
    with (out / "samples.jsonl").open("w") as fh:
        for s in samples:
            fh.write(json.dumps(sample_to_record(s), separators=(",", ":")) + "\n")
    (out / "diagnostics.json").write_text(json.dumps(diag, indent=1) + "\n")
    (out / "timings.json").write_text(json.dumps(timings, indent=1) + "\n")
    return out


def _write_combined_events(path, events: list[EventSet], dim: int) -> None:
    header = ",".join([EVENT_HEADER] + [f"x{a + 1}" for a in range(dim)])
    lines = [header]
    for ev in events:
        for row in ev.points:
            lines.append(",".join([str(ev.process_id)] + [repr(float(v)) for v in row]))
    Path(path).write_text("\n".join(lines) + "\n")


def _read_combined_events(path, n_processes: int, dim: int) -> list[EventSet]:
    groups: dict[int, list] = {pid: [] for pid in range(n_processes)}
    for _, pid, point in iter_event_rows(path):
        groups.setdefault(pid, []).append(point)
    return [
        EventSet(np.asarray(groups[pid], dtype=float).reshape(-1, dim), pid)
        for pid in sorted(groups)
    ]


def load_archive(path) -> Archive:
    path = Path(path)
    if not (path / "config.json").is_file():
        raise ValidationError(f"{path} is not a chain archive (config.json missing)")
    cfg = config_from_dict(json.loads((path / "config.json").read_text()))
    dim = cfg.region.dim
    split = json.loads((path / "split_indices.json").read_text())
    n_proc = len(split)
    train = _read_combined_events(path / "train_events.csv", n_proc, dim)
    test = _read_combined_events(path / "test_events.csv", n_proc, dim)
    samples = []
    with (path / "samples.jsonl").open() as fh:
        for line in fh:
            if line.strip():
                samples.append(sample_from_record(json.loads(line), dim))
    diag = json.loads((path / "diagnostics.json").read_text())
    return Archive(path, cfg, train, test, samples, diag)


# ---------------------------------------------------------------------------
# grid exports and metric reports

def write_grid_file(path, grid: np.ndarray, mean: np.ndarray, sd: np.ndarray) -> None:
    """Rows of ``x1[,x2],mean,sd`` for one exported surface."""
    dim = grid.shape[1]
    header = ",".join([f"x{a + 1}" for a in range(dim)] + ["mean", "sd"])
    lines = [header]
    for row, m, s in zip(grid, mean, sd):
        lines.append(",".join([repr(float(v)) for v in row] + [repr(float(m)), repr(float(s))]))
    Path(path).write_text("\n".join(lines) + "\n")


def write_report(path, rows: list[tuple]) -> None:
    """Metric report rows of (dataset, model, metric, value)."""
    lines = ["dataset,model,metric,value"]
    for dataset, model, metric, value in rows:
        lines.append(f"{dataset},{model},{metric},{repr(float(value))}")
    Path(path).write_text("\n".join(lines) + "\n")
