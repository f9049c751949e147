"""Spans around the benchmark's calls into the package's layers.

``Untraced`` calls straight through.  ``Tracer`` records one span per
call (name, start, end, parent span, request id), keeps the spans in
memory, and counts the gen-2 collections that start while a layer's call
is open, through ``gc.callbacks``.
"""

from __future__ import annotations

import gc
import time
from collections import Counter
from contextlib import contextmanager

REQUEST = "bench.request"
BASELINE = "bench.baseline"


class Untraced:
    def call(self, layer, name, fn, *args):
        return fn(*args)


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1, request id)
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.gc2: Counter = Counter()
        self._open: list[int] = []
        self._request = ""

    def _gc_callback(self, phase, info):
        if phase == "start" and info["generation"] == 2 and self._open:
            layer = self.spans[self._open[-1]][0].split(".")[0]
            self.gc2[layer] += 1

    def __enter__(self):
        gc.callbacks.append(self._gc_callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._gc_callback)

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent,
                           self._request))
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        name, start, _, parent, rid = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent, rid)
        self._open.pop()

    @contextmanager
    def span(self, name: str, rid: str):
        """A span that opens a request (or its baselines) with id rid."""
        self._request = rid
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)
            self._request = ""

    def call(self, layer, name, fn, *args):
        idx = self._begin(f"{layer}.{name}")
        try:
            return fn(*args)
        finally:
            self._end(idx)

    def self_times(self) -> Counter:
        """Summed self time by span name: duration minus child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def calls(self) -> Counter:
        return Counter(name for name, *_ in self.spans)

