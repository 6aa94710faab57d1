"""In-memory spans around the library calls the benchmark makes.

A span has a name ``<module>.<call>``, start and end (``perf_counter_ns``),
the index of its parent span, the op it belongs to, the number of calls or
points it covers and how many of those raised.  A loop that makes the same
call many times (500 ``eval_F`` calls, 20 000 ``format_point`` calls) gets
one span with ``n`` set, so tracing does not dwarf a one-microsecond call.
"""
from __future__ import annotations

import json
from time import perf_counter_ns

#: Module of the benchmark's own code between library calls.
GLUE = "bench"
MODULES = ("spaces", "intervals", "measure", "cdf", "quantile", "sampling",
           "oracle", "cli", GLUE)


class Span:
    __slots__ = ("tracer", "name", "start", "end", "parent", "op", "n", "errors")

    def __init__(self, tracer, name, n):
        self.tracer, self.name, self.n, self.errors = tracer, name, n, 0

    def __enter__(self):
        tr = self.tracer
        self.parent = tr.stack[-1] if tr.stack else -1
        self.op = tr.op
        tr.stack.append(len(tr.spans))
        tr.spans.append(self)
        self.start = perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.end = perf_counter_ns()
        self.tracer.stack.pop()
        if exc_type is not None:
            self.errors += 1
        return False

    @property
    def ns(self) -> int:
        return self.end - self.start


class _Off:
    """Stand-in span while tracing is off; accepts the same writes."""

    n = errors = 0

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_OFF = _Off()


class Tracer:
    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans = []
        self.stack = []
        self.op = -1

    def span(self, name: str, n: int = 1):
        return Span(self, name, n) if self.enabled else _OFF

    def self_ns(self):
        """Per span: its duration minus the time its children cover.

        Spans come from one thread and nest, so children never overlap.
        """
        out = [s.ns for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.ns
        return out

    def self_shares(self, root: str):
        """Share of all ``root`` span time spent in each module's own code."""
        total = sum(s.ns for s in self.spans if s.name == root) or 1
        shares = dict.fromkeys(MODULES, 0)
        for s, own in zip(self.spans, self.self_ns()):
            module = GLUE if s.name == root else s.name.split(".", 1)[0]
            shares[module] += own
        return {m: v / total for m, v in shares.items()}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op, "n": s.n,
                                     "errors": s.errors}) + "\n")
