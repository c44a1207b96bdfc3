"""Self-time arithmetic of the traced run: parent minus covered children.

Run with ``python3 -m pytest perfbench/tests -q``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import Span, SpanRecorder, covered, self_time  # noqa: E402


def test_covered_merges_overlaps_and_clips_to_parent():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1, 2), (4, 6)], 0, 10) == pytest.approx(3.0)
    assert covered([(1, 5), (3, 7)], 0, 10) == pytest.approx(6.0)
    assert covered([(1, 9), (2, 3)], 0, 10) == pytest.approx(8.0)
    assert covered([(-5, 2), (8, 20)], 0, 10) == pytest.approx(4.0)
    assert covered([(11, 12)], 0, 10) == 0.0
    assert covered([(2, 4), (4, 6)], 0, 10) == pytest.approx(4.0)


def test_self_time_subtracts_children_once():
    parent = Span("p", start=0.0, end=10.0)
    children = [Span("c", 1.0, 4.0), Span("c", 3.0, 5.0), Span("c", 9.0, 12.0)]
    assert self_time(parent, children) == pytest.approx(10 - 4 - 1)


def test_self_time_subtracts_aggregated_calls():
    parent = Span("trial", start=0.0, end=1.0)
    parent.aggregates = {"runtime.step": [100, 0.5],
                         "runtime.schedulable": [80, 0.2]}
    assert self_time(parent, []) == pytest.approx(0.3)
    # Clock noise can make children outlast the parent; never negative.
    parent.aggregates["runtime.step"][1] = 5.0
    assert self_time(parent, []) == 0.0


def test_recorder_nesting_and_self_times(monkeypatch):
    ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 7.0, 10.0])
    monkeypatch.setattr("spans.time.perf_counter", lambda: next(ticks))
    rec = SpanRecorder()
    with rec.span("campaign"):              # 0 .. 10
        with rec.span("phase2"):            # 1 .. 7
            with rec.span("trial"):         # 2 .. 5
                rec.aggregate("runtime.step", 1.0)
                rec.aggregate("runtime.step", 0.5)
            with rec.span("trial"):         # 6 .. 7
                pass
    selfs = rec.self_times()
    # Grandchildren are subtracted from their own parent, not from campaign.
    assert selfs["campaign"] == pytest.approx(10 - 6)
    assert selfs["phase2"] == pytest.approx(6 - 3 - 1)
    assert selfs["trial"] == pytest.approx((3 - 1.5) + 1)
    assert rec.aggregate_totals("trial") == {"runtime.step": [2, 1.5]}
    assert rec.spans[2].parent == 1 and rec.spans[1].parent == 0


def test_aggregate_outside_any_span_is_dropped():
    rec = SpanRecorder()
    rec.aggregate("runtime.step", 1.0)
    assert rec.spans == [] and rec.aggregate_totals() == {}
