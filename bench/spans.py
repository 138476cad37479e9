"""Spans and counts at the boundaries of the lcltrees modules.

A Tracer replaces a function at the module or class attribute its callers
look it up through, records one span per call (name, parent span, start,
end) and restores the original afterwards.  Spans stay in memory until the
round ends.  A wrapper may also turn the call's result into counts; that
bookkeeping is charged to no span, so it never inflates a parent's self
time.
"""
from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Optional

# what a wrapped call's result adds to the counts: (result, args) -> {name: n}
Counting = Callable[[object, tuple], dict]


class Tracer:
    def __init__(self) -> None:
        self.on = False
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        # [name id, parent index or -1, start, end, end of bookkeeping]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.calls = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, counting: Optional[Counting] = None) -> None:
        """Record a span for every call of owner.attr while the tracer is on."""
        orig = getattr(owner, attr)
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        nid = self._name_id[name]
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.on:
                return orig(*args, **kwargs)
            self.calls += 1
            idx = len(spans)
            rec = [nid, stack[-1] if stack else -1, perf_counter(), 0.0, 0.0]
            spans.append(rec)
            stack.append(idx)
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if counting is not None:
                self.counts.update(counting(result, args))
            rec[4] = perf_counter()
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def count_calls(self, owner, attr: str, name: str) -> None:
        """Count calls of owner.attr without a span, for functions too hot to span."""
        orig = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            if self.on:
                self.calls += 1
                counts[name] += 1
            return orig(*args, **kwargs)

        setattr(owner, attr, counted)
        self._patches.append((owner, attr, orig))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def times(self) -> tuple[dict, dict, Counter]:
        """Per span name: inclusive seconds, self seconds, number of spans.

        Self time is a span's duration minus what its direct children
        cover, their bookkeeping included.
        """
        covered = [0.0] * len(self.spans)
        for _nid, parent, start, _end, done in self.spans:
            if parent >= 0:
                covered[parent] += done - start
        incl: dict = defaultdict(float)
        self_s: dict = defaultdict(float)
        calls: Counter = Counter()
        for i, (nid, _parent, start, end, _done) in enumerate(self.spans):
            name = self.names[nid]
            incl[name] += end - start
            self_s[name] += end - start - covered[i]
            calls[name] += 1
        return incl, self_s, calls

    def dump(self, path) -> None:
        with open(path, "wt", encoding="utf-8") as f:
            json.dump(
                {
                    "names": self.names,
                    "columns": ["name", "parent", "start", "end"],
                    "spans": [[s[0], s[1], round(s[2], 7), round(s[3], 7)] for s in self.spans],
                    "counts": dict(self.counts),
                },
                f,
            )

