"""Spans recorded around the benchmark's own calls into toriq.

A disabled ``Tracer`` calls straight through, so the untraced and traced
runs share one code path.  Spans stay in memory as
``[name, start, end, parent, op]`` rows and are written out once, when the
run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self.errors: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self.op = -1

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name`` (``<layer>.<function>``)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.errors[name.split(".")[0]] += 1
            raise
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counters[name] += amount

    def maximum(self, name: str, value: float) -> None:
        if self.enabled:
            self.maxima[name] = max(self.maxima.get(name, value), value)

    def busy(self) -> dict[str, tuple[float, int]]:
        """Total seconds and call count per span name."""
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for name, start, end, _, _ in self.spans:
            out[name][0] += end - start
            out[name][1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def unaccounted_share(self, root: str) -> float:
        """Share of root-span time that no direct child span covers."""
        total = 0.0
        covered = 0.0
        roots = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if name == root:
                roots[i] = True
                total += end - start
            elif parent in roots:
                covered += end - start
        return (total - covered) / total if total else 0.0

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
