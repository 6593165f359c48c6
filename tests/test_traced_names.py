"""The benchmark's traced layers exist under the names it traces.

The traced benchmark rebinds each ``(module, attribute path)`` in
``perfbench/tracing.py``'s ``TRACED``; a layer renamed or deleted in
``depcox`` would otherwise go unnoticed until a full traced run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


def _resolves(module_name: str, path: str) -> bool:
    owner = importlib.import_module(f"depcox.{module_name}")
    for part in path.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return callable(owner)


def test_every_traced_name_resolves():
    traced = _traced_names()
    assert traced
    missing = [f"{m}.{p}" for m, p in traced if not _resolves(m, p)]
    assert not missing, f"traced names missing from depcox: {missing}"
