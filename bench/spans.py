"""Spans and counters recorded from outside the program.

A Tracer times the benchmark's own calls into hooplab's public functions.
Each job is a root span; each call the job makes into a layer is a child
span named "<layer>.<function>".  Spans are kept in memory and written out
when the run ends.  With tracing off, call() is a plain call and nothing
is recorded, so untraced passes run the same job code.
"""

import json
import time
from collections import Counter
from contextlib import contextmanager

clock = time.perf_counter

ROOT_LAYER = "bench"   # the benchmark's own work between layer calls
_END = object()


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.on_mark = None      # called at mark(), see below
        self.spans = []          # [name, start, end, parent index, job id]
        self.counts = Counter()
        self._stack = []
        self._job = None

    @contextmanager
    def job(self, job_id):
        """Root span of one job."""
        if not self.enabled:
            yield
            return
        self._job = job_id
        idx = self._open("job")
        try:
            yield
        finally:
            self._close(idx)
            self._job = None

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) under a child span called name."""
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def iterate(self, name, iterator):
        """Yield from iterator, timing only the time spent inside next()."""
        while True:
            item = self.call(name, next, iterator, _END)
            if item is _END:
                return
            self.mark()
            yield item

    def mark(self):
        """A point between two pieces of a job's work.  The runner may
        pause the job's clock here to calibrate."""
        if self.on_mark is not None:
            self.on_mark()

    def count(self, name, n=1):
        if self.enabled:
            self.counts[name] += n

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, clock(), None, parent, self._job])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        self.spans[idx][2] = clock()
        self._stack.pop()

    # ---- summaries

    def span_seconds(self):
        """Total duration per span name."""
        out = Counter()
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def self_seconds(self):
        """Self time per layer: each span's duration minus the time its
        children cover.  Root spans count toward ROOT_LAYER, so the layers
        add up to the total job time."""
        child = Counter()
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            layer = ROOT_LAYER if parent is None else name.split(".")[0]
            out[layer] += (end - start) - child[i]
        return out

    def job_seconds(self):
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent is None)

    def write(self, path):
        rows = [{"name": n, "start": s, "end": e, "parent": p, "job": j}
                for n, s, e, p, j in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "counts": dict(self.counts)}, fh)

