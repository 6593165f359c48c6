"""Which statements of ``src/depcox`` the program's own flows run, and
which values its parameters with defaults (or dataclass fields) take.

    python3 tools/traffic.py

Run from a checkout; it takes minutes. In this process, on one BLAS thread
and in a temporary directory, it runs ``perfbench/run.py --seed 1
--seconds 0`` and ``tools/ref_archives.py``'s flow on every workload, then
``generate``, ``fit``, ``eval`` (also ``--truth --baselines``) and
``export-grid`` in 1D, 2D and 3D. Values print as scalars or types.
"""

import argparse
import ast
import contextlib
import importlib
import inspect
import json
import os
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Tracer:
    """While active, records the lines of ``src/depcox`` that run and the
    values that the parameters with defaults of its functions take."""

    def __init__(self):
        self.files = {str(p): p.stem for p in sorted(ROOT.glob("src/depcox/*.py")) if p.stem != "__main__"}
        self.reached, self.values, self._defaults = set(), defaultdict(set), {}
        for stem in self.files.values():
            module = importlib.import_module("depcox" if stem == "__init__" else f"depcox.{stem}")
            for obj in vars(module).values():
                for f in vars(obj).values() if isinstance(obj, type) else [obj]:
                    f = inspect.unwrap(getattr(f, "__func__", getattr(f, "fget", f)))
                    if hasattr(f, "__code__") and getattr(f, "__module__", None) == module.__name__:
                        params = inspect.signature(f).parameters.values()
                        self._defaults[f.__code__] = (f"{stem}.{f.__qualname__}",
                                                      [p.name for p in params if p.default is not p.empty])

    def _trace(self, frame, event, arg):
        if event == "call":
            label, names = self._defaults.get(frame.f_code, ("", ()))
            for name in names:
                v = frame.f_locals[name]
                v = v.item() if getattr(v, "shape", None) == () else v  # a numpy scalar
                scalar = v is None or isinstance(v, (bool, int, float, str, tuple))
                self.values[f"{label}({name})"].add(repr(v)[:60] if scalar else type(v).__name__)
            return self._trace if frame.f_code.co_filename in self.files else None
        if event == "line":
            self.reached.add((frame.f_code.co_filename, frame.f_lineno))
        return self._trace

    def __enter__(self):
        self._before = sys.gettrace()
        sys.settrace(self._trace)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._before)

    def unreached(self) -> dict:
        """Per module, the (line, text) of each statement in a function that did not run."""
        out = {}
        for path, stem in self.files.items():
            source = Path(path).read_text()
            lines, stack = set(), [compile(source, path, "exec")]
            while stack:  # the lines with code of every function, not of module or class bodies
                code = stack.pop()
                stack += [c for c in code.co_consts if inspect.iscode(c)]
                if code.co_flags & inspect.CO_OPTIMIZED:
                    lines.update(n for *_, n in code.co_lines() if n)
            lines &= {s.lineno for f in ast.walk(ast.parse(source)) if isinstance(f, ast.FunctionDef)
                      for s in ast.walk(f) if isinstance(s, ast.stmt) and s is not f}
            text = source.splitlines()
            out[stem] = [(n, text[n - 1].strip()) for n in sorted(lines) if (path, n) not in self.reached]
        return out


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    for var in ("OMP", "OPENBLAS", "MKL", "VECLIB_MAXIMUM", "NUMEXPR"):
        os.environ[f"{var}_NUM_THREADS"] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]
    import ref_archives
    import run as perfbench_run
    import workloads
    from depcox import cli
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as sink, Tracer() as tracer, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for name, workload in workloads.WORKLOADS.items():
            perfbench_run.main(["--workload", name, "--seed", "1", "--seconds", "0", "--trace", "0"])
            ref_archives.write_reference(workload, Path(tmp) / name)
        for dim, grid in ((1, 8), (2, 5), (3, 3)):
            (out := Path(tmp) / f"{dim}d").mkdir()
            config, arch, truth = out / "config.json", out / "archive", out / "truth_manifest.json"
            config.write_text(json.dumps({
                "region": {"lower": [0.0] * dim, "upper": [1.0] * dim}, "ladder": [0.5, 1.0], "n_iters": 12,
                "burn_in": 4, "seed": 5, "n_latent": 2, "grid_per_axis": grid,
                "generate": {"n_processes": 2, "lambda_star_range": [20.0, 25.0]}}))
            for args in (["generate", "--config", config, "--out", out],
                         ["fit", out / "events_0.csv", out / "events_1.csv", "--config", config, "--out", arch],
                         ["eval", arch, "--truth", truth, "--baselines", "--out", out / "eval.csv"],
                         ["eval", arch, "--out", out / "eval.csv"],
                         ["export-grid", arch, "--resolution", "12", "--out", out / "grid"]):
                if cli.main([str(a) for a in args]) != 0:
                    raise SystemExit(f"error: depcox {args[0]} in {dim}D failed")
    for stem, lines in tracer.unreached().items():
        print(f"== {stem}: {len(lines)} statements unreached", *(f"{n:6d}  {t[:100]}" for n, t in lines), sep="\n")
    print("== parameters with defaults: the values they took")
    print(*(f"  {k}: {', '.join(sorted(v))}" for k, v in sorted(tracer.values.items())), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
