"""In-memory spans around the benchmark's own calls into each layer.

A span is (name, start_ns, end_ns, parent, op): ``parent`` is the index
of the enclosing span (-1 at the top level) and ``op`` the id shared by
every span of one benchmark operation.  Spans are only kept in memory
while the run measures; `write` saves them when the run ends.

The layer of a span is the first dot-separated part of its name, so
``hyper.section.build`` belongs to ``hyper``.  A span's self time is its
duration minus the durations of its direct children (children never
overlap, because the benchmark is one thread in a closed loop).
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict

_now = time.perf_counter_ns


class NullTracer:
    """Tracing off: every hook is a no-op, so untraced timings carry only
    the cost of a method call per span site."""

    enabled = False

    def begin(self, name: str) -> int:
        return -1

    def end(self, idx: int) -> None:
        pass

    def new_op(self) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self._stack: list[int] = []
        self._op = 0

    def new_op(self) -> None:
        self._op += 1

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self._op)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(_now())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = _now()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    def unwind(self) -> None:
        """Close spans left open by an exception, at the current time."""
        while self._stack:
            self.end(self._stack[-1])

    # -- derived figures ---------------------------------------------------

    def durations(self) -> list[int]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[int]:
        out = self.durations()
        for i, p in enumerate(self.parents):
            if p >= 0:
                out[p] -= self.ends[i] - self.starts[i]
        return out

    def by_name(self) -> dict[str, tuple[int, int, int]]:
        """name -> (calls, total ns, self ns)."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, int] = defaultdict(int)
        own: dict[str, int] = defaultdict(int)
        for name, d, st in zip(self.names, self.durations(), self.self_times()):
            calls[name] += 1
            total[name] += d
            own[name] += st
        return {n: (calls[n], total[n], own[n]) for n in calls}

    def layer_self_ns(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name, st in zip(self.names, self.self_times()):
            out[name.split(".", 1)[0]] += st
        return dict(out)

    def write(self, path: str) -> None:
        """Save every span as one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start_ns", "end_ns", "parent", "op"]) + "\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.ops):
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
