"""In-memory spans and counters for the traced replay.

A span is (name, start, end, parent index).  Spans are only recorded while
the tracer is enabled; a disabled tracer hands back the wrapped function
itself, so the same replay can be timed with spans off and on and the
difference is the tracing overhead.
"""

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled=True):
        self.enabled = enabled
        self.spans = []        # [name, start, end, parent]
        self.counts = Counter()
        self._stack = []

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, name, fn):
        """`fn` with every call recorded as a span named `name`."""
        if not self.enabled:
            return fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def count(self, name, amount=1):
        if self.enabled:
            self.counts[name] += amount

    def self_times(self):
        """Seconds per span name, each span less the time its children cover."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                children[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, children):
            out[name] += end - start - covered
        return dict(out)

    def root_seconds(self):
        return sum(end - start for _, start, end, parent in self.spans if parent is None)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": [{"name": n, "start": s, "end": e, "parent": p}
                                 for n, s, e, p in self.spans],
                       "counts": dict(self.counts)}, fh)
