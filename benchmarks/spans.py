"""Span tracer for the benchmark's traced runs.

``Tracer.install`` wraps every public function of the skewca layer
modules, and the report's ``to_json``/``to_csv`` methods, in every
skewca module that binds them, so calls between modules and inside one
module are both seen. Each span records its name, its parent span, and
its start and end; ``self_times`` turns a list of spans into calls and
self time per name, self time being a span's duration minus the time its
child spans cover. Nothing in skewca itself is changed on disk.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections.abc import Callable

LAYERS = (
    "tableio", "table", "divergence", "decomposition", "confidence",
    "matched", "reporting", "svg", "cli",
)
REPORT_METHODS = ("to_json", "to_csv")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0])
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][3] = time.perf_counter()

        return traced

    def install(self) -> None:
        if self._patches:
            return
        wrappers: dict[int, tuple[object, Callable]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"skewca.{layer}")
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                ):
                    wrappers[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        for name, module in list(sys.modules.items()):
            if name != "skewca" and not name.startswith("skewca."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, entry[1])
        report_class = importlib.import_module("skewca.reporting").AnalysisReport
        for attr in REPORT_METHODS:
            original = report_class.__dict__[attr]
            self._patches.append((report_class, attr, original))
            setattr(report_class, attr, self._wrap(f"reporting.{attr}", original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> list[list]:
        """Hand over the finished spans and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[list]) -> dict[str, list]:
    """Per span name: [calls, self seconds]."""
    covered = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, list] = {}
    for index, (name, _, start, end) in enumerate(spans):
        entry = totals.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += end - start - covered[index]
    return totals
