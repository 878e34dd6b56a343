"""In-memory spans around the benchmark's calls into coreabacus's layers.

A span is (name, start, end, parent, tag); `name` is `<layer>.<operation>`,
`parent` is the index of the enclosing span or None, and `tag` labels the pass
the span belongs to.  Spans stay in memory until the workload writes them out
at exit.  Untraced runs use `NullTracer`, whose spans cost one method call.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

LAYERS = ("cli", "verification", "enumeration", "constructions", "abacus", "partitions")


class NullTracer:
    tag = ""

    def span(self, name):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, tag]
        self._stack = []
        self.tag = ""

    @contextmanager
    def span(self, name):
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.tag]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name):
        """`fn` with a span around every call; `name` may be a function of the call's arguments."""

        def traced(*args, **kwargs):
            with self.span(name(*args, **kwargs) if callable(name) else name):
                return fn(*args, **kwargs)

        return traced


def summarize(spans, tag):
    """Inclusive milliseconds per span name and self milliseconds per layer, for one tag.

    Self time is a span's duration minus the durations of its direct children;
    calls are sequential, so children never overlap.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_s[parent] += end - start
    inclusive, self_ms = {}, dict.fromkeys(LAYERS, 0.0)
    for i, (name, start, end, _, span_tag) in enumerate(spans):
        if span_tag != tag:
            continue
        inclusive[name] = inclusive.get(name, 0.0) + (end - start) * 1000
        self_ms[name.split(".", 1)[0]] += (end - start - child_s[i]) * 1000
    return inclusive, self_ms
