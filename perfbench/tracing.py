"""Spans around qdil's public functions, installed only for a traced run.

Each target is replaced, in every loaded ``qdil`` module that holds it,
by a wrapper that records a span: its inclusive time, its self time
(inclusive time minus the time of the spans opened inside it) and its
call count. Methods are patched on their class. ``uninstall`` puts the
originals back, so untraced rounds run the program unchanged.

The decode and encode groups add up the outermost span of the group
only, so ``matrix_from_json`` inside ``mp_from_json`` is not counted
twice, while a direct call from the CLI is counted once.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _read_size(tracer, args) -> None:
    tracer.counts["cli.bytes_read"] += os.path.getsize(args[0])


def _write_size(tracer, args) -> None:
    tracer.counts["cli.bytes_written"] += os.path.getsize(args[0])


# span name -> (group, hook run after the span closes)
TARGETS = {
    "operator_core.spectral_norm": (None, None),
    "operator_core.matrix_from_json": ("decode", None),
    "operator_core.matrix_to_json": ("encode", None),
    "algebra.contains": (None, None),
    "instrument.verify_cp": (None, None),
    "instrument.sample_trajectory": (None, None),
    "instrument.sample_first_steps": (None, None),
    "instrument.instrument_from_json": ("decode", None),
    "instrument.instrument_to_json": ("encode", None),
    "correlations.from_instrument": (None, None),
    "correlations.CorrelationSystem.require_valid": (None, None),
    "correlations.verify_axioms": (None, None),
    "correlations.eval_W": (None, None),
    "correlations.system_from_json": ("decode", None),
    "correlations.system_to_json": ("encode", None),
    "dilation.instrument_representation": (None, None),
    "dilation.mp_from_correlations": (None, None),
    "dilation.correlations_of_mp": (None, None),
    "dilation.induced_instrument_mp": (None, None),
    "dilation.MeasuringProcess.require_valid": (None, None),
    "dilation.n_equivalent": (None, None),
    "dilation.mp_from_json": ("decode", None),
    "dilation.mp_to_json": ("encode", None),
    "cli._read_json_file": ("decode", _read_size),
    "cli._write_json": ("encode", _write_size),
    "cli._emit": ("encode", None),
}

# per-layer metric -> (unit, statistic, span names summed)
LAYERS = {
    "cli.decode_s": ("s", "group", ["decode"]),
    "cli.encode_s": ("s", "group", ["encode"]),
    "cli.bytes_read": ("B", "count", ["cli.bytes_read"]),
    "cli.bytes_written": ("B", "count", ["cli.bytes_written"]),
    "operator_core.spectral_norm_s": ("s", "total", ["operator_core.spectral_norm"]),
    "operator_core.spectral_norm_calls": ("count", "calls", ["operator_core.spectral_norm"]),
    "operator_core.matrix_from_json_s": ("s", "total", ["operator_core.matrix_from_json"]),
    "operator_core.matrix_to_json_s": ("s", "total", ["operator_core.matrix_to_json"]),
    "algebra.contains_s": ("s", "total", ["algebra.contains"]),
    "algebra.contains_calls": ("count", "calls", ["algebra.contains"]),
    "instrument.verify_cp_s": ("s", "total", ["instrument.verify_cp"]),
    "instrument.verify_cp_calls": ("count", "calls", ["instrument.verify_cp"]),
    "instrument.sample_s": ("s", "total", ["instrument.sample_trajectory",
                                           "instrument.sample_first_steps"]),
    "correlations.from_instrument_s": ("s", "self", ["correlations.from_instrument"]),
    "correlations.require_valid_s": ("s", "total", ["correlations.CorrelationSystem.require_valid"]),
    "correlations.verify_axioms_s": ("s", "total", ["correlations.verify_axioms"]),
    "correlations.eval_W_calls": ("count", "calls", ["correlations.eval_W"]),
    "dilation.instrument_representation_s": ("s", "self", ["dilation.instrument_representation"]),
    "dilation.mp_from_correlations_s": ("s", "self", ["dilation.mp_from_correlations"]),
    "dilation.correlations_of_mp_s": ("s", "total", ["dilation.correlations_of_mp"]),
    "dilation.correlations_of_mp_calls": ("count", "calls", ["dilation.correlations_of_mp"]),
    "dilation.induced_instrument_mp_s": ("s", "total", ["dilation.induced_instrument_mp"]),
    "dilation.mp_require_valid_s": ("s", "total", ["dilation.MeasuringProcess.require_valid"]),
    "dilation.n_equivalent_s": ("s", "total", ["dilation.n_equivalent"]),
}


class Tracer:
    """In-memory span totals for the jobs run while installed."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.group: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._children: list[float] = []  # time of closed child spans, per open span
        self._group_depth: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, group, hook):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            tracer._children.append(0.0)
            if group:
                tracer._group_depth[group] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                children = tracer._children.pop()
                tracer.total[name] += duration
                tracer.self_time[name] += duration - children
                tracer.calls[name] += 1
                if tracer._children:
                    tracer._children[-1] += duration
                if group:
                    tracer._group_depth[group] -= 1
                    if not tracer._group_depth[group]:
                        tracer.group[group] += duration
                if hook:
                    hook(tracer, args)

        return span

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "qdil" or n.startswith("qdil.")]
        for name, (group, hook) in TARGETS.items():
            module_name, _, attr = name.partition(".")
            owner = sys.modules[f"qdil.{module_name}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, attr, self._wrap(name, cls.__dict__[attr],
                                                  group, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, group, hook)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, jobs: int) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, per job."""
        tables = {"total": self.total, "self": self.self_time,
                  "calls": self.calls, "group": self.group,
                  "count": self.counts}
        return {metric: (sum(tables[stat][n] for n in names) / jobs, unit)
                for metric, (unit, stat, names) in LAYERS.items()}
