"""Every exported or traced name resolves at its documented path."""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import qdil

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_module_all_entry_resolves():
    names = ["qdil"] + [f"qdil.{m.name}"
                        for m in pkgutil.iter_modules(qdil.__path__)]
    for name in names:
        module = importlib.import_module(name)
        missing = [a for a in getattr(module, "__all__", ())
                   if not hasattr(module, a)]
        assert not missing, f"{name}: {missing}"


def test_perfbench_trace_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for target in tracing.TARGETS:
        module, _, attr = target.partition(".")
        obj = importlib.import_module(f"qdil.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), target
