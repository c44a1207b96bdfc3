"""In-memory spans for the traced benchmark run, and self-time arithmetic.

A span records name, start, end and the span that caused it (its parent).
Hot calls that happen millions of times per campaign (``Execution.step``,
``Execution.schedulable``) are not recorded one span per call: each open
span keeps an *aggregate* per probe name — a call count and a summed
duration — so a trial span carries "1,200 steps, 3.1 ms" instead of 1,200
child spans.

A span's self time is its duration minus the part of its interval that its
direct interval children cover, minus the summed duration of its
aggregates (aggregated calls run strictly inside the span and never
overlap each other or the interval children, because the probed calls do
not nest).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)
    #: probe name -> [calls, summed seconds] of aggregated child calls
    aggregates: dict[str, list] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_jsonable(self, index: int) -> dict:
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "attrs": self.attrs,
            "aggregates": {
                name: {"count": count, "total_s": total}
                for name, (count, total) in self.aggregates.items()
            },
        }


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(span: Span, children) -> float:
    """``span``'s duration minus what its direct children account for."""
    child_cover = covered(
        ((c.start, c.end) for c in children), span.start, span.end
    )
    aggregated = sum(total for _, total in span.aggregates.values())
    return max(0.0, span.duration - child_cover - aggregated)


class SpanRecorder:
    """Collects spans in memory; :meth:`write` dumps them when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        record = Span(name=name, start=time.perf_counter(), parent=parent,
                      attrs=attrs)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def aggregate(self, probe: str, seconds: float) -> None:
        """Fold one probed call into the innermost open span."""
        if not self._stack:
            return
        slot = self.spans[self._stack[-1]].aggregates.get(probe)
        if slot is None:
            self.spans[self._stack[-1]].aggregates[probe] = [1, seconds]
        else:
            slot[0] += 1
            slot[1] += seconds

    def children(self) -> dict[int | None, list[Span]]:
        by_parent: dict[int | None, list[Span]] = {}
        for record in self.spans:
            by_parent.setdefault(record.parent, []).append(record)
        return by_parent

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        by_parent = self.children()
        totals: dict[str, float] = {}
        for index, record in enumerate(self.spans):
            totals[record.name] = totals.get(record.name, 0.0) + self_time(
                record, by_parent.get(index, ())
            )
        return totals

    def aggregate_totals(self, name: str | None = None) -> dict[str, list]:
        """Per probe name, [calls, summed seconds] over spans called
        ``name`` (every span when ``name`` is None)."""
        totals: dict[str, list] = {}
        for record in self.spans:
            if name is not None and record.name != name:
                continue
            for probe, (count, seconds) in record.aggregates.items():
                slot = totals.setdefault(probe, [0, 0.0])
                slot[0] += count
                slot[1] += seconds
        return totals

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(
                [s.to_jsonable(i) for i, s in enumerate(self.spans)], handle
            )
