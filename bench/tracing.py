"""Spans recorded from outside the program.

A span is a name, wall-clock start and end, CPU time and the index of the
span open around it. Spans stay in memory until ``dump`` writes them out.
``patched`` wraps functions that colcodec modules look up at call time, so
a CLI command run inside it records a child span for each layer it enters.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {"name": name, "parent": self._open[-1] if self._open else None}
        self.spans.append(record)
        self._open.append(index)
        cpu = time.process_time()
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["cpu"] = time.process_time() - cpu
            self._open.pop()

    def wrap(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Trace each ``(module, attribute, span name)`` until the block ends."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
        try:
            for module, attr, name in targets:
                setattr(module, attr, self.wrap(name, getattr(module, attr)))
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def self_time(self, index: int) -> float:
        """The span's duration minus the time its direct children cover."""
        span = self.spans[index]
        children = sum(
            s["end"] - s["start"] for s in self.spans if s["parent"] == index
        )
        return span["end"] - span["start"] - children

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count and median wall, CPU and self seconds."""
        grouped: dict[str, list[int]] = {}
        for index, span in enumerate(self.spans):
            grouped.setdefault(span["name"], []).append(index)
        return {
            name: {
                "calls": len(indexes),
                "wall_s": statistics.median(
                    self.spans[i]["end"] - self.spans[i]["start"] for i in indexes
                ),
                "cpu_s": statistics.median(self.spans[i]["cpu"] for i in indexes),
                "self_s": statistics.median(self.self_time(i) for i in indexes),
            }
            for name, indexes in grouped.items()
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans, "summary": self.summary()}, f, indent=1)
