"""What a benchmark run records: spans and counters around library calls,
and the tally of output checks.

A span has a name, start and end (``time.perf_counter`` seconds), the span
that encloses it, and an operation id shared by every span of one benchmark
operation.  Span names are ``<module>.<call>`` so that times group by layer.
Spans stay in memory until the run ends; ``Tracer.to_dict`` gives the
record written out then.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and exact work counts for one traced pass."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.maxima: dict[str, float] = {}
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, op: str | None = None):
        sid = self._next_id
        self._next_id += 1
        parent, parent_op = self._stack[-1] if self._stack else (None, "")
        op = parent_op if op is None else op
        self._stack.append((sid, op))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, op))

    def count(self, name: str, n: int) -> None:
        self.counts[name] += int(n)

    def maximum(self, name: str, value: float) -> None:
        """Keep the largest value seen under name (an error, not a count)."""
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: each span's duration minus the
        time its child spans cover (children never overlap: one thread)."""
        child_time: Counter[int] = Counter()
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        totals: Counter[str] = Counter()
        for s in self.spans:
            totals[s.name] += s.duration - child_time[s.sid]
        return dict(totals)

    def to_dict(self) -> dict:
        return {
            "spans": [asdict(s) for s in self.spans],
            "counts": dict(self.counts),
            "maxima": self.maxima,
        }


class NullTracer:
    """Stand-in for untraced passes: records nothing."""

    enabled = False
    _null = nullcontext()

    def span(self, name: str, op: str | None = None):
        return self._null

    def count(self, name: str, n: int) -> None:
        pass

    def maximum(self, name: str, value: float) -> None:
        pass


class Checks:
    """Counts checks attempted and failed; a failure is reported, not raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
