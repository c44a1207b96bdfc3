"""Yield-site identity: a ``(code, offset)`` site names the line ``f_lineno`` names.

The engine records ``frame.f_lasti`` at each yield and resolves the line
once per site (``site_statement``).  Phase-1 pair strings, trace-store
tokens and perfbench's expected verdicts all name statements by line, so
the statement interned by ``(code, offset)`` must be the one
``statement_at(code, f_lineno)`` gives at the same suspension.  Checked at
every suspension of every Table 1 row and of figure1/figure2: Phase-1
detection runs, default and random scheduler runs, and RaceFuzzer trials.
"""

from __future__ import annotations

from contextlib import contextmanager
from types import GeneratorType

import pytest

from repro.core import RaceFuzzer, detect_races
from repro.core.schedulers import baseline_scheduler
from repro.runtime import Execution
from repro.runtime.statement import site_statement, statement_at
from repro.workloads import get, table1_workloads

SEEDS = range(2)
PAIRS_PER_ROW = 2
SPECS = sorted(table1_workloads(), key=lambda spec: spec.name) + [
    get("figure1"),
    get("figure2"),
]


def innermost(gen):
    while True:
        nested = gen.gi_yieldfrom
        if nested is None or nested.__class__ is not GeneratorType:
            return gen
        gen = nested


@contextmanager
def suspensions_checked():
    """Compare both statements at every site capture; yield the tally."""
    tally = {"suspensions": 0, "sites": set(), "mismatches": []}
    original = Execution._pend

    def pend(self, ts, gen, op):
        original(self, ts, gen, op)
        code = ts.stmt_code
        if code is None:  # labelled op, or the thread ended
            return
        frame = innermost(ts.gen).gi_frame
        assert frame.f_code is code and frame.f_lasti == ts.stmt_offset
        by_offset = site_statement(code, ts.stmt_offset)
        by_line = statement_at(code, frame.f_lineno)
        if by_offset is not by_line:
            tally["mismatches"].append((by_offset, by_line))
        tally["suspensions"] += 1
        tally["sites"].add((code, ts.stmt_offset))

    Execution._pend = pend
    try:
        yield tally
    finally:
        Execution._pend = original


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
def test_offset_site_is_the_f_lineno_statement(spec):
    program = spec.build()
    with suspensions_checked() as tally:
        for scheduler in ("default", "random"):
            for seed in SEEDS:
                Execution(program, seed=seed, max_steps=spec.max_steps).run(
                    baseline_scheduler(scheduler)
                )
        phase1 = detect_races(
            program, seeds=spec.phase1_seeds, max_steps=spec.max_steps
        )
        for pair in sorted(phase1.pairs, key=str)[:PAIRS_PER_ROW]:
            fuzzer = RaceFuzzer(pair, max_steps=spec.max_steps)
            for seed in SEEDS:
                fuzzer.run(program, seed=seed)
    assert tally["mismatches"] == []
    assert tally["suspensions"] > 0 and tally["sites"]
