"""File formats: event files, config files, ground-truth manifests and
chain archives.

Everything is flat text (CSV / JSON / JSON lines) so runs diff cleanly;
an archive is a directory, with timings kept in their own file so that
reruns with equal seeds are byte-identical everywhere else. The JSON
serializers derive from the dataclass fields: a key is a field's name
and a missing key takes the field's default, so the field names are the
file format. Only the region, the ladder, the priors and a sample's
per-process lists are spelled out.

An archive's ``samples.jsonl`` holds one record per retained draw.
``load_archive`` sizes an ``engine.Draws`` by its non-blank records and
appends each record as it is read and checked, as the sampler appends
each retained sweep: each ``PosteriorSample`` read from it is a
read-only view of one draw.
"""

from __future__ import annotations

import json
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, is_dataclass
from inspect import signature
from pathlib import Path

import numpy as np

from .engine import Draws, PosteriorSample, RunConfig
from .errors import ValidationError
from .generate import GroundTruth, sample_ground_truth
from .sgcp import EventSet, PriorConfig, Region
from .thinning import RateLadder

EVENT_HEADER = "process_id"


def _write_csv(path, header: list[str], rows) -> None:
    """A header line, then one line per row: strings as they are, numbers
    as ``repr(float)`` so that they read back exactly. ``path`` may also be
    an open text stream."""
    lines = [",".join(header)]
    lines += [",".join(v if isinstance(v, str) else repr(float(v)) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        Path(path).write_text(text)


def _read_text(path) -> str:
    """The text of ``path``; an unreadable file raises ``ValidationError`` naming it."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: cannot read ({getattr(exc, 'strerror', None) or exc})") from exc


def _json(text: str, where):
    """``text`` parsed as JSON; malformed JSON raises ``ValidationError`` naming ``where``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{where}: invalid JSON ({exc})") from exc


def _read_json(path):
    return _json(_read_text(path), path)


def _coordinates(dim: int) -> list[str]:
    return [f"x{a + 1}" for a in range(dim)]


def _to_json(value):
    """A field value as JSON: a dataclass as an object of its fields, an
    array as nested lists."""
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, list):
        return [_to_json(v) for v in value]
    return value


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)  # a bool is an int


# What the value of a field must be, by its annotation (a string: the
# dataclasses' modules use postponed annotations).
_KINDS = {
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "int": ("an integer", lambda v: _is_number(v) and isinstance(v, int)),
    "float": ("a number", _is_number),
    "dict": ("an object", lambda v: isinstance(v, dict)),
}


def _given(cls, raw: dict, where: str = "") -> dict:
    """The entries of ``raw`` that name fields of the dataclass ``cls``.

    A field annotated as a flag, a number or an object must be given one;
    otherwise ``ValidationError`` names the key (``where`` is its
    enclosing key).
    """
    out = {}
    for f in fields(cls):
        if f.name not in raw:
            continue
        kind = _KINDS.get(f.type)
        if kind is not None and not kind[1](raw[f.name]):
            raise ValidationError(f"config key {where}{f.name} must be {kind[0]}, got {raw[f.name]!r}")
        out[f.name] = raw[f.name]
    return out


def _region(raw: dict) -> Region:
    try:
        return Region(raw["region"]["lower"], raw["region"]["upper"])
    except KeyError as exc:
        raise ValidationError(f"missing region bounds: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"config key region: malformed bounds ({exc})") from exc


# ---------------------------------------------------------------------------
# event files

def write_event_file(path, events, dim: int) -> None:
    """Write one ``EventSet``, or a list of them in order, as an event file
    of ``dim`` coordinates."""
    sets = [events] if isinstance(events, EventSet) else events
    rows = ([str(ev.process_id), *point] for ev in sets for point in ev.points)
    _write_csv(path, [EVENT_HEADER, *_coordinates(dim)], rows)


def read_event_files(paths, region: Region) -> list[EventSet]:
    """Read one or more event files, each once; process ids are mapped to a
    contiguous 0..D-1 label set in sorted order of the raw ids.

    All files must have the ``region``'s dimension; an event outside the
    ``region`` raises ``ValidationError`` naming its file and row.
    """
    rows = []
    dim = region.dim
    for path in paths:
        file_dim, file_rows = _event_table(path)
        if file_dim != dim:
            raise ValidationError(f"{path}: events have {file_dim} coordinates, expected {dim}")
        for row_no, pid, point in file_rows:
            if not region.contains_point(point):
                raise ValidationError(
                    f"{path}:{row_no}: event for process {pid} lies outside the region"
                )
        rows += file_rows
    # header-only inputs define a single process with no events
    sets = _event_sets(rows, dim, () if rows else (0,))
    return [EventSet(ev.points, new_id) for new_id, ev in enumerate(sets)]


def _event_sets(rows, dim: int, pids=()) -> list[EventSet]:
    """One ``EventSet`` per process id of the event ``rows``, in sorted order
    of the ids; each id in ``pids`` gets one even if no row names it."""
    groups: dict[int, list] = {pid: [] for pid in pids}
    for _, pid, point in rows:
        groups.setdefault(pid, []).append(point)
    return [EventSet(np.reshape(groups[pid], (-1, dim)), pid) for pid in sorted(groups)]


def iter_event_rows(path):
    """Yield (row_number, process_id, point) from one event file."""
    yield from _event_table(path)[1]


def _event_table(path) -> tuple[int, list]:
    """One event file's dimension, from its header, and its rows
    (row_number, process_id, point)."""
    text = _read_text(path).strip().splitlines()
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
    """Fully validated run configuration loaded from a JSON config file,
    which holds the ``RunConfig`` fields at its top level and the ladder as
    ``ladder`` (its levels).

    Fixed, not configured: ``eval`` integrates on the quadrature of
    ``Quadrature.for_region``'s dimension default, the ladder's levels are
    scaled by ``thinning.SLACK`` and the latent grid is padded by
    ``convolution.GRID_PAD`` (see ``RunConfig`` for the sampler's own).
    """

    region: Region
    run: RunConfig
    train_fraction: float = 0.75
    generate: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 < self.train_fraction <= 1.0:
            raise ValidationError("train_fraction must lie in (0, 1]")


def load_config(path) -> ShellConfig:
    return config_from_dict(_read_json(path))


# Keys that configs and archives written by earlier versions may hold:
# settings that are now fixed (the insertion probability, the leapfrog
# steps, the starting step sizes and whether they adapt, the ladder's
# slack, the latent grid's padding and the quadrature resolution; see
# ``RunConfig`` and ``ShellConfig``) or gone (the worker count). Their
# values are not read. They load without a warning because every archive
# written before holds them in its config.json, and a warning on each eval
# of such an archive would flag nothing wrong.
RETIRED_KEYS = {
    "parallel_workers", "insert_prob", "hmc_steps", "hmc_step_size", "phi_step_size", "adapt",
    "slack", "grid_pad", "quadrature_resolution",
}
_CONFIG_KEYS = {"region", "ladder", "priors"} | {
    f.name for cls in (RunConfig, ShellConfig) for f in fields(cls)
}
_PRIOR_KEYS = {f.name for f in fields(PriorConfig)}


def config_from_dict(raw: dict) -> ShellConfig:
    """A validated ``ShellConfig``. A malformed value or an unknown prior
    raises ``ValidationError`` naming its key; an unknown top-level key is
    ignored with a warning unless it is a retired one."""
    if not isinstance(raw, dict):
        raise ValidationError("a config must be a JSON object")
    unknown = sorted(set(raw) - _CONFIG_KEYS - RETIRED_KEYS)
    if unknown:
        warnings.warn(f"unknown config keys ignored: {', '.join(unknown)}", stacklevel=2)
    region = _region(raw)
    levels = raw.get("ladder", list(RateLadder.levels))
    if not (isinstance(levels, list) and all(map(_is_number, levels))):
        raise ValidationError(f"config key ladder must be a list of numbers, got {levels!r}")
    ladder = RateLadder(tuple(levels))
    priors = raw.get("priors", {})
    if not isinstance(priors, dict):
        raise ValidationError(f"config key priors must be an object, got {priors!r}")
    bad = sorted(set(priors) - _PRIOR_KEYS)
    if bad:
        raise ValidationError(f"unknown prior keys: {', '.join(f'priors.{k}' for k in bad)}")
    priors = PriorConfig(**_given(PriorConfig, priors, "priors."))
    run = RunConfig(**_given(RunConfig, raw) | {"ladder": ladder, "priors": priors})
    return ShellConfig(**_given(ShellConfig, raw) | {"region": region, "run": run})


def generate_args(cfg: ShellConfig) -> dict:
    """The arguments but the region, the latent count and the stream with
    which ``depcox generate`` calls ``sample_ground_truth``: 4 processes,
    the run's grid size and the ranges' defaults, each replaced by the
    config's ``generate`` entry of its name. An entry that names no such
    argument, or is not of its default's kind (a positive integer, or a list
    of as many numbers), raises ``ValidationError`` naming ``generate.<key>``."""
    params = signature(sample_ground_truth).parameters
    out = {"n_processes": 4} | {k: p.default for k, p in params.items() if p.default is not p.empty}
    out["grid_per_axis"] = cfg.run.grid_per_axis
    for key, value in cfg.generate.items():
        if key not in out:
            raise ValidationError(f"unknown config key generate.{key}")
        default = out[key]
        if isinstance(default, int):
            ok, kind = _KINDS["int"][1](value) and value > 0, "a positive integer"
        else:
            numbers = _numbers(value, 1)
            ok, kind = numbers is not None and numbers.size == len(default), f"{len(default)} numbers"
        if not ok:
            raise ValidationError(f"config key generate.{key} must be {kind}, got {value!r}")
        out[key] = value
    return out


def config_to_dict(cfg: ShellConfig) -> dict:
    shell = _to_json(cfg)
    run = shell.pop("run")
    ladder = run.pop("ladder")
    region = shell.pop("region")
    return {"region": region, "ladder": list(ladder["levels"]), **run, **shell}


# ---------------------------------------------------------------------------
# ground-truth manifests

def save_truth(path, truth: GroundTruth) -> None:
    Path(path).write_text(json.dumps(_to_json(truth), indent=1) + "\n")


def load_truth(path) -> GroundTruth:
    raw = _read_json(path)
    return GroundTruth(**_given(GroundTruth, raw) | {"region": _region(raw)})


# ---------------------------------------------------------------------------
# chain archives

# the per-process lists of a sample, with the dimensions and the dtype of
# each process's array; every other field but the iteration is a float array
_PER_PROCESS = {"thinned": (2, float), "rate_idx": (1, int), "g_values": (1, float)}


def _numbers(value, ndim: int, dtype=float) -> np.ndarray | None:
    """``value``, lists nested ``ndim`` deep around numbers (integers if
    ``dtype`` is ``int``), as an array of ``dtype``; None if it is not
    that. An empty list is an empty array, whatever ``ndim``."""
    try:
        arr = np.asarray(value)
    except ValueError:  # lists of unequal lengths
        return None
    empty = isinstance(value, list) and arr.size == 0 and arr.ndim <= ndim
    if not empty and (arr.ndim != ndim or arr.dtype.kind not in ("iu" if dtype is int else "iuf")):
        return None
    return arr.astype(dtype, copy=False)


def sample_from_record(raw, dim: int, n_data: list[int], where: str) -> PosteriorSample:
    """The sample that the ``samples.jsonl`` record ``raw`` holds, for
    ``len(n_data)`` processes with ``n_data[d]`` training events each.

    A record that is not an object, lacks a field, holds anything but
    numbers, or whose sizes disagree raises ``ValidationError`` naming
    ``where`` and the field. Each process needs its entry in every
    per-process field, one level per thinned point, and one function value
    per training event and thinned point.
    """
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: a sample record must be a JSON object, got {type(raw).__name__}")

    def bad(name, why):
        return ValidationError(f"{where}: field {name} {why}")

    values = {}
    for f in fields(PosteriorSample):
        if f.name not in raw:
            raise bad(f.name, "is missing")
        value = raw[f.name]
        if f.name == "iteration":
            values[f.name] = value if _KINDS["int"][1](value) else None
        elif f.name in _PER_PROCESS:
            ndim, dtype = _PER_PROCESS[f.name]
            arrays = [_numbers(v, ndim, dtype) for v in value] if isinstance(value, list) else [None]
            values[f.name] = None if any(a is None for a in arrays) else arrays
        else:
            values[f.name] = _numbers(value, 2 if f.name == "latent_values" else 1)
        if values[f.name] is None:
            raise bad(f.name, "must hold numbers" + (" per process" if f.name in _PER_PROCESS else ""))
        per_process = f.name in ("lambda_stars", "kappas", "thetas", *_PER_PROCESS)
        if per_process and len(values[f.name]) != len(n_data):
            raise bad(f.name, f"has {len(values[f.name])} entries for {len(n_data)} processes")
    s = PosteriorSample(**values)
    for d, (points, levels, g) in enumerate(zip(s.thinned, s.rate_idx, s.g_values)):
        # JSON keeps no shape for an empty array: no thinned points is (0, dim)
        if points.size and points.shape[1] != dim:
            raise bad("thinned", f"of process {d} holds points of {points.shape[1]} coordinates, "
                                 f"not {dim}")
        s.thinned[d] = points.reshape(-1, dim)
        count = s.thinned[d].shape[0]
        if levels.size != count:
            raise bad("rate_idx", f"of process {d} has {levels.size} levels for {count} thinned points")
        if g.size != n_data[d] + count:
            raise bad("g_values", f"of process {d} has {g.size} values for {n_data[d]} training "
                                  f"events and {count} thinned points")
    # an independent run's latent values, with no phis, are (0, 0)
    if not s.phis.size and not s.latent_values.size:
        s.latent_values = s.latent_values.reshape(0, 0)
    if s.latent_values.ndim != 2 or s.latent_values.shape[0] != s.phis.size:
        raise bad("latent_values", f"must hold one row per latent variance in phis ({s.phis.size})")
    return s


@dataclass
class Archive:
    """In-memory view of a fit archive directory."""

    config: ShellConfig
    train: list[EventSet]
    test: list[EventSet]
    samples: Draws


def save_archive(
    out_dir,
    cfg: ShellConfig,
    train: list[EventSet],
    test: list[EventSet],
    split_indices: list[dict],
    samples: Sequence[PosteriorSample],
    diag: dict,
    timings: dict,
) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(config_to_dict(cfg), indent=1) + "\n")
    write_event_file(out / "train_events.csv", train, cfg.region.dim)
    write_event_file(out / "test_events.csv", test, cfg.region.dim)
    (out / "split_indices.json").write_text(json.dumps(split_indices, indent=1) + "\n")
    with (out / "samples.jsonl").open("w") as fh:
        for s in samples:
            fh.write(json.dumps(_to_json(s), separators=(",", ":")) + "\n")
    (out / "diagnostics.json").write_text(json.dumps(diag, indent=1) + "\n")
    (out / "timings.json").write_text(json.dumps(timings, indent=1) + "\n")
    return out


def load_archive(path) -> Archive:
    path = Path(path)
    cfg = config_from_dict(_read_json(path / "config.json"))
    dim = cfg.region.dim
    n_proc = len(_read_json(path / "split_indices.json"))
    train = _event_sets(iter_event_rows(path / "train_events.csv"), dim, range(n_proc))
    test = _event_sets(iter_event_rows(path / "test_events.csv"), dim, range(n_proc))
    records = path / "samples.jsonl"
    n_data = [len(ev) for ev in train]
    lines = _read_text(records).splitlines()
    draws = Draws(sum(1 for line in lines if line.strip()))
    for line_no, line in enumerate(lines, start=1):
        if line.strip():
            where = f"{records}:{line_no}"
            s = sample_from_record(_json(line, where), dim, n_data, where)
            # the draws are stored as columns: one latent shape for all
            shape = draws.latent_values.shape[1:] if draws else s.latent_values.shape
            if s.latent_values.shape != shape:
                raise ValidationError(
                    f"{where}: field latent_values: latent values of shape {s.latent_values.shape} "
                    f"do not match {shape[0]} latent functions on a grid of {shape[1]} nodes, "
                    f"as the first record holds")
            draws.append(s)
    return Archive(cfg, train, test, draws)


# ---------------------------------------------------------------------------
# grid exports and metric reports

def write_grid_file(path, grid: np.ndarray, mean: np.ndarray, sd: np.ndarray) -> None:
    """Rows of ``x1[,x2],mean,sd`` for one exported surface."""
    rows = ([*point, m, s] for point, m, s in zip(grid, mean, sd))
    _write_csv(path, [*_coordinates(grid.shape[1]), "mean", "sd"], rows)


def write_report(path, rows: list[tuple]) -> None:
    """Metric report rows of (dataset, model, metric, value), to a file
    path or an open text stream."""
    _write_csv(path, ["dataset", "model", "metric", "value"], rows)
