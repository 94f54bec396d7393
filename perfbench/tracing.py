"""Spans recorded at the benchmark -> library boundary.

A span is (name, start, end, parent, question id).  Spans stay in memory
and are written out once the run ends.  The untraced run uses
``NullTracer``, whose ``call`` is a plain function call, so the end-to-end
timings carry no tracing cost.
"""

from __future__ import annotations

from contextlib import contextmanager
from statistics import median
from time import perf_counter


class NullTracer:
    """Tracing off: calls go straight through."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name, qid=None):
        yield


class Tracer:
    """In-memory span recorder.  ``spans[i]`` is [name, start, end, parent, qid]."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._qid: str | None = None

    def call(self, name, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    @contextmanager
    def span(self, name, qid=None):
        outer = self._qid
        if qid is not None:
            self._qid = qid
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            self._qid = outer

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self._qid])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    # -- summaries ---------------------------------------------------

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds, and self seconds (busy minus
        the part covered by child spans)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out

    def per_root(self, root_name: str) -> list[dict[str, list[float]]]:
        """For each root span with the given name, {descendant name: [calls, busy_s]}."""
        root_of: list[int] = []
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            root_of.append(i if parent is None else root_of[parent])
        groups: dict[int, dict[str, list[float]]] = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            r = root_of[i]
            if self.spans[r][0] != root_name:
                continue
            totals = groups.setdefault(r, {})
            if i == r:
                continue
            acc = totals.setdefault(name, [0, 0.0])
            acc[0] += 1
            acc[1] += end - start
        return [groups[r] for r in sorted(groups)]


def layer_medians(tracer: Tracer, roots=("pass", "replay", "setup")) -> dict[str, tuple[float, float]]:
    """Median (calls, busy_s) per span name, per root span of the first root
    kind in which the name occurs.

    Library calls made inside timed passes are reported per pass; calls made
    only while setting up are reported per set-up.
    """
    out: dict[str, tuple[float, float]] = {}
    for root in roots:
        groups = tracer.per_root(root)
        names = {name for g in groups for name in g}
        for name in sorted(names - set(out)):
            calls = median(g.get(name, [0, 0.0])[0] for g in groups)
            busy = median(g.get(name, [0, 0.0])[1] for g in groups)
            out[name] = (calls, busy)
    return out
