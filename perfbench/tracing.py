"""Spans recorded by the benchmark around its calls into the program.

A span is (id, name, parent, start, end) on the ``time.perf_counter``
clock, which is the system-wide monotonic clock on Linux, so spans that
child processes report line up with the parent's.  Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from pathlib import Path


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: dict) -> None:
        self.tracer = tracer
        self.record = record

    def __enter__(self) -> dict:
        self.tracer._stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self.record

    def __exit__(self, *exc) -> None:
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()


class Tracer:
    """Collects spans; nesting follows the ``with`` blocks."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str) -> _Span:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": None,
            "end": None,
        }
        self.spans.append(record)
        return _Span(self, record)

    def add(self, name: str, start: float, end: float) -> None:
        """A span measured elsewhere, such as in a child process."""
        self.spans.append({
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": start,
            "end": end,
        })

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": self.spans}, fh)
            fh.write("\n")


class _NoSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


class NullTracer:
    """Stands in for a tracer when tracing is off; records nothing."""

    enabled = False
    _none = _NoSpan()

    def span(self, name: str) -> _NoSpan:
        return self._none

    def add(self, name: str, start: float, end: float) -> None:
        return None
