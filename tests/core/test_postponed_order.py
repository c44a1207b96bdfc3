"""The postponed set is ordered by postpone step.

``PostponingDriver._run_watchdog`` checks only the first entry of
``postponed``: the threads due for release are a prefix of it only if
the postpone steps never decrease in insertion order.  Checked at every
watchdog call (each loop iteration with a thread postponed, and every 64
steps inside a sync-preemption burst) for every Phase-1 pair of every
Table 1 row at seeds 0-2.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.core import RaceFuzzer, detect_races
from repro.core.postponing import PostponingDriver
from repro.workloads import table1_workloads

SEEDS = range(3)
TABLE1 = sorted(table1_workloads(), key=lambda spec: spec.name)


@contextmanager
def order_checked():
    tally = {"checks": 0, "several": 0, "disorders": []}
    original = PostponingDriver._run_watchdog

    def run_watchdog(self, execution, postponed, exempt, fuzz):
        steps = list(postponed.values())
        if steps != sorted(steps):
            tally["disorders"].append((execution.step_count, dict(postponed)))
        tally["checks"] += 1
        tally["several"] += len(steps) > 1
        return original(self, execution, postponed, exempt, fuzz)

    PostponingDriver._run_watchdog = run_watchdog
    try:
        yield tally
    finally:
        PostponingDriver._run_watchdog = original


@pytest.mark.parametrize("spec", TABLE1, ids=lambda spec: spec.name)
def test_postpone_steps_never_decrease(spec):
    program = spec.build()
    phase1 = detect_races(
        program, seeds=spec.phase1_seeds, max_steps=spec.max_steps
    )
    with order_checked() as tally:
        for pair in sorted(phase1.pairs, key=str):
            fuzzer = RaceFuzzer(pair, max_steps=spec.max_steps)
            for seed in SEEDS:
                fuzzer.run(program, seed=seed)
    assert tally["disorders"] == []
    assert tally["checks"] > 0


def test_some_row_postpones_several_threads_at_once():
    # Guards the check above against only ever seeing one-entry sets.
    with order_checked() as tally:
        for spec in TABLE1:
            program = spec.build()
            phase1 = detect_races(
                program, seeds=spec.phase1_seeds, max_steps=spec.max_steps
            )
            for pair in sorted(phase1.pairs, key=str):
                RaceFuzzer(pair, max_steps=spec.max_steps).run(program, seed=0)
            if tally["several"]:
                break
    assert tally["several"] > 0
