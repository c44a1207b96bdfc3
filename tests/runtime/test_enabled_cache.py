"""Coherence oracle for the interpreter's cached enabled set.

``Execution.schedulable()`` reuses the enabled list it last built until a
step may have changed it or the clock reaches a disabled thread's
deadline.  Enabledness itself stays derived, so the oracle is the
from-scratch scan: at every scheduling point (every ``schedulable()``
call, after its fast-forward) and after every step that leaves the cache
standing, the cached list must equal
``[ts.tid for ts in execution._live if execution._enabled(ts)]``.

It runs under the default, random-every and random-sync schedulers and
under RaceFuzzer, over hypothesis-generated programs with timed waits,
notify/notifyAll, interrupts and joins, and over every Table 1 row at
seeds 0-2.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import DefaultScheduler, RaceFuzzer, detect_races
from repro.core.schedulers import baseline_scheduler
from repro.runtime import Execution
from repro.workloads import table1_workloads

from tests.runtime.test_replay_determinism import _SYNC_SCRIPTS, _make_program

SCHEDULERS = ("default", "random", "random-sync")
TABLE1 = sorted(table1_workloads(), key=lambda spec: spec.name)


def from_scratch(execution: Execution) -> list[int]:
    return [ts.tid for ts in execution._live if execution._enabled(ts)]


class Tally:
    checks = 0
    #: schedulable() calls that returned the list object of the call before
    hits = 0


@contextmanager
def coherence_checked():
    """Check the cache at every ``schedulable()`` call and every step."""
    tally = Tally()
    original_schedulable = Execution.schedulable
    original_step = Execution.step
    last_returned: dict[int, list[int]] = {}

    def schedulable(self):
        enabled = original_schedulable(self)
        if self.ops_executed >= self.max_steps:
            assert enabled == []
        else:
            assert enabled == from_scratch(self), self.step_count
            if last_returned.get(id(self)) is enabled:
                tally.hits += 1
            last_returned[id(self)] = enabled
        tally.checks += 1
        return enabled

    def step(self, tid):
        original_step(self, tid)
        cached = self._enabled_list
        if cached is not None and self.step_count < self._valid_until:
            assert cached == from_scratch(self), (tid, self.step_count)
            tally.checks += 1

    Execution.schedulable = schedulable
    Execution.step = step
    try:
        yield tally
    finally:
        Execution.schedulable = original_schedulable
        Execution.step = original_step


def run_everything(program, seeds, max_steps, pairs) -> None:
    """Every passive scheduler and RaceFuzzer on ``pairs``, at ``seeds``."""
    for seed in seeds:
        for spec in SCHEDULERS:
            Execution(program, seed=seed, max_steps=max_steps).run(
                baseline_scheduler(spec)
            )
        for pair in pairs:
            RaceFuzzer(pair, max_steps=max_steps).run(program, seed=seed)


@given(
    scripts=st.lists(_SYNC_SCRIPTS, min_size=1, max_size=3),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
@example(
    scripts=[
        ["timed-wait", "interrupt", "notify"],
        ["join", "notify-all", "timed-wait", "sleep"],
        ["interrupt", "join", "timed-wait"],
    ],
    seed=0,
)
def test_generated_programs(scripts, seed):
    program = _make_program(scripts)
    pairs = sorted(
        detect_races(program, seeds=(seed,), max_steps=20_000).pairs, key=str
    )
    with coherence_checked() as tally:
        run_everything(program, (seed,), 20_000, pairs[:2])
    assert tally.checks > 0


@pytest.mark.parametrize("spec", TABLE1, ids=lambda spec: spec.name)
def test_table1_rows(spec):
    program = spec.build()
    phase1 = detect_races(
        spec.build(), seeds=spec.phase1_seeds, max_steps=spec.max_steps
    )
    with coherence_checked() as tally:
        run_everything(
            program, range(3), spec.max_steps, sorted(phase1.pairs, key=str)
        )
    assert tally.hits > 0, "the cache was never reused"


class CopyingDefaultScheduler(DefaultScheduler):
    """Always takes the full path: a fresh list never matches by identity."""

    def choose(self, execution, enabled):
        return super().choose(execution, list(enabled))


@pytest.mark.parametrize("spec", TABLE1, ids=lambda spec: spec.name)
def test_default_scheduler_fast_path_is_draw_equivalent(spec):
    program = spec.build()
    for seed in range(3):
        runs = []
        for scheduler in (DefaultScheduler(), CopyingDefaultScheduler()):
            execution = Execution(program, seed=seed, max_steps=spec.max_steps)
            result = execution.run(scheduler)
            runs.append((
                result.steps, result.exception_types, result.deadlock,
                execution.rng.getstate(),
            ))
        assert runs[0] == runs[1], seed
