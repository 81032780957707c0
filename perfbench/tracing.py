"""Spans recorded around the package's public functions.

A traced round replaces each public name where the calling module looks it
up (for example ``envcausal.discovery.conditional_independence_test``)
with a wrapper that records a span: name, start, end, parent span and the
operation it belongs to. The package's source is untouched; the wrappers
are removed again after the round. Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Union

Namer = Union[str, Callable[[tuple, dict], str]]


class Tracer:
    def __init__(self) -> None:
        # (span id, parent id or None, operation index, name, start, end)
        self.spans: list[tuple[int, int | None, int, str, float, float]] = []
        self.op_index = -1
        self._next_id = 0
        self._stack: list[int] = []
        self._points: list[tuple[object, str, Namer]] = []
        self._saved: list[tuple[object, str, object]] = []

    def add(self, owner: object, attr: str, name: Namer) -> None:
        """Register ``owner.attr`` for wrapping; ``name`` is the span name or
        a function of the call's (args, kwargs) that gives it."""
        self._points.append((owner, attr, name))

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, self.op_index, name, start, end))

    def _wrap(self, original, name: Namer):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            with tracer.span(label):
                return original(*args, **kwargs)

        return traced

    def install(self) -> None:
        for owner, attr, name in self._points:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Total self time in seconds per span name: each span's duration
        minus the durations of its children. Calls run on one thread, so
        children never overlap and their durations add."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for span_id, _, _, name, start, end in self.spans:
            totals[name] += (end - start) - child_time[span_id]
        return dict(totals)

    def durations(self) -> dict[str, float]:
        """Total duration in seconds per span name."""
        totals: dict[str, float] = defaultdict(float)
        for _, _, _, name, start, end in self.spans:
            totals[name] += end - start
        return dict(totals)

    def counts(self) -> dict[str, int]:
        totals: dict[str, int] = defaultdict(int)
        for span in self.spans:
            totals[span[3]] += 1
        return dict(totals)

    def write(self, path: Path) -> None:
        fields = ["id", "parent", "op", "name", "start", "end"]
        path.write_text(json.dumps({"fields": fields, "spans": self.spans}))
