"""In-memory spans around the benchmark's calls into each layer.

A span records its name, start, end, parent span and the id of the
operation (document, request, round) it belongs to.  Spans stay in
memory until :meth:`Tracer.write` dumps them at the end of the run.
With tracing off, :meth:`Tracer.span` hands back one shared no-op
context manager, so the untraced run pays a method call per boundary
and nothing else.
"""

from __future__ import annotations

import json
import time


class _Noop:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NOOP = _Noop()


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        self.tracer._stack.append(self.index)
        self.tracer.starts[self.index] = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.tracer.ends[self.index] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Collects spans when *enabled*; otherwise every span is a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.names: list[str] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []

    def span(self, name: str, op: int = -1):
        if not self.enabled:
            return _NOOP
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        if op < 0 and self._stack:
            op = self.ops[self._stack[-1]]
        self.ops.append(op)
        self.starts.append(0.0)
        self.ends.append(0.0)
        return _Span(self, index)

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (count, total seconds, self seconds).

        Self time is a span's duration minus the part of its interval
        that its child spans cover.
        """
        children: dict[int, list[int]] = {}
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                children.setdefault(parent, []).append(index)
        out: dict[str, list] = {}
        for index, name in enumerate(self.names):
            duration = self.ends[index] - self.starts[index]
            covered = 0.0
            reach = self.starts[index]
            for child in sorted(children.get(index, ()), key=self.starts.__getitem__):
                start = max(self.starts[child], reach)
                end = min(self.ends[child], self.ends[index])
                if end > start:
                    covered += end - start
                    reach = end
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - covered
        return {name: tuple(entry) for name, entry in out.items()}

    def total(self, name: str) -> float:
        """Summed duration of every span called *name*, in seconds."""
        return sum(
            self.ends[i] - self.starts[i]
            for i, span_name in enumerate(self.names)
            if span_name == name
        )

    def durations(self, name: str) -> list[float]:
        return [
            self.ends[i] - self.starts[i]
            for i, span_name in enumerate(self.names)
            if span_name == name
        ]

    def write(self, path: str) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, name in enumerate(self.names):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "parent": self.parents[index],
                            "op": self.ops[index],
                            "start": self.starts[index],
                            "end": self.ends[index],
                        }
                    )
                    + "\n"
                )
