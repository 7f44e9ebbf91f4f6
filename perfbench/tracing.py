"""Spans around the program's public functions, recorded from outside.

A :class:`Tracer` replaces a function by a timing wrapper at the place where
its callers look it up (for example ``reliattack.attacks.shapley_closed``),
so nothing under ``src/`` changes.  Spans are kept in memory as
``[name, parent, start, end]`` and written out with :meth:`Tracer.write`.  Calls too frequent for a span each
(``value_mask``) are only counted.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name) -> None:
        """Record a span for every call of ``owner.attr``; ``name`` is a
        string or a function of the call's arguments that returns one."""
        orig = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            span = [label, stack[-1] if stack else -1, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return orig(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()

        self._patch(owner, attr, orig, traced)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without a span per call."""
        orig = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)

        self._patch(owner, attr, orig, counted)

    def _patch(self, owner, attr, orig, replacement) -> None:
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def write(self, path: str) -> None:
        """Write the spans as a JSON list of ``{"name", "parent", "start",
        "end"}``; ``parent`` is the index of the enclosing span, or -1."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([{"name": n, "parent": parent, "start": begin, "end": end}
                       for n, parent, begin, end in self.spans], fh)

    def self_times(self) -> list[float]:
        """Each span's duration minus that of its direct children."""
        out = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                out[s[1]] -= s[3] - s[2]
        return out

    def totals(self, metric_of) -> tuple[Counter, Counter]:
        """Total and self time per metric.  ``metric_of(span_name)`` gives the
        metric a span belongs to.  A span nested inside another span of the
        same metric adds to its self time only, never twice to its total."""
        total, self_total = Counter(), Counter()
        selfs = self.self_times()
        metrics = [metric_of(s[0]) for s in self.spans]
        for i, s in enumerate(self.spans):
            m = metrics[i]
            self_total[m] += selfs[i]
            parent = s[1]
            while parent >= 0 and metrics[parent] != m:
                parent = self.spans[parent][1]
            if parent < 0:
                total[m] += s[3] - s[2]
        return total, self_total
