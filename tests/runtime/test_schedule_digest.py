"""Schedule identity: the interpreter's fast paths change no schedule.

The incremental enabled set, the default scheduler's identity fast path
and the interned locations and ops are pure speed-ups, so every seeded
run must step exactly the same threads in exactly the same order as the
engine did before them.

The golden fixture ``data/schedule_digest_golden.json`` holds, for every
Table 1 row, one record per run of:

* the three passive baseline schedulers (``default``, ``random``,
  ``random-sync``) at seeds 0-4, and
* RaceFuzzer on the row's first three hybrid Phase-1 pairs (sorted by
  name) at seeds 0-4.

A record is the sha256 of the stepped-tid sequence, the step count, the
sorted exception types, and the deadlock and truncated flags.  It was
generated once from the commit before the incremental enabled set, with::

    PYTHONPATH=<that checkout>/src python tests/runtime/test_schedule_digest.py \\
        > tests/runtime/data/schedule_digest_golden.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.core import RaceFuzzer, detect_races
from repro.core.schedulers import baseline_scheduler
from repro.runtime import Execution
from repro.workloads import table1_workloads

GOLDEN = Path(__file__).parent / "data" / "schedule_digest_golden.json"
SEEDS = range(5)
SCHEDULERS = ("default", "random", "random-sync")
PAIRS_PER_ROW = 3


@contextmanager
def stepped_tids():
    """Record the tid of every successful ``Execution.step`` call."""
    tids: list[int] = []
    original = Execution.step

    def step(self, tid):
        original(self, tid)
        tids.append(tid)

    Execution.step = step
    try:
        yield tids
    finally:
        Execution.step = original


def record(tids: list[int], result) -> list:
    """The schedule-determined outcome of one run, as a fixture record."""
    digest = hashlib.sha256(",".join(map(str, tids)).encode()).hexdigest()
    return [
        digest,
        result.steps,
        sorted(result.exception_types),
        result.deadlock,
        result.truncated,
    ]


def measure() -> dict:
    """``{row: {run kind: [record per seed]}}`` over every Table 1 row; a
    RaceFuzzer run kind is the pair's name."""
    rows = {}
    with stepped_tids() as tids:
        for spec in sorted(table1_workloads(), key=lambda spec: spec.name):
            program = spec.build()
            runs = {}
            for scheduler in SCHEDULERS:
                runs[scheduler] = []
                for seed in SEEDS:
                    tids.clear()
                    result = Execution(
                        program, seed=seed, max_steps=spec.max_steps
                    ).run(baseline_scheduler(scheduler))
                    runs[scheduler].append(record(tids, result))
            phase1 = detect_races(
                spec.build(), seeds=spec.phase1_seeds, max_steps=spec.max_steps
            )
            for pair in sorted(phase1.pairs, key=str)[:PAIRS_PER_ROW]:
                fuzzer = RaceFuzzer(pair, max_steps=spec.max_steps)
                runs[str(pair)] = []
                for seed in SEEDS:
                    tids.clear()
                    result = fuzzer.run(program, seed=seed).result
                    runs[str(pair)].append(record(tids, result))
            rows[spec.name] = runs
    return rows


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def measured() -> dict:
    return measure()


def test_same_rows_and_runs(golden, measured):
    assert measured.keys() == golden.keys()
    for row, runs in golden.items():
        assert measured[row].keys() == runs.keys(), row


def test_every_schedule_is_unchanged(golden, measured):
    compared = 0
    for row, runs in golden.items():
        for kind, records in runs.items():
            for seed, (old, new) in enumerate(zip(records, measured[row][kind])):
                assert new == old, (row, kind, seed)
                compared += 1
    assert compared == sum(
        len(records) for runs in golden.values() for records in runs.values()
    )


def dump(rows: dict, out) -> None:
    """Write ``rows`` as JSON, one line per run kind."""
    out.write("{\n")
    for i, (row, runs) in enumerate(sorted(rows.items())):
        out.write(f" {json.dumps(row)}: {{\n")
        for j, (kind, records) in enumerate(runs.items()):
            comma = "," if j < len(runs) - 1 else ""
            line = json.dumps(records, separators=(",", ":"))
            out.write(f"  {json.dumps(kind)}: {line}{comma}\n")
        out.write(" }" + ("," if i < len(rows) - 1 else "") + "\n")
    out.write("}\n")


if __name__ == "__main__":
    dump(measure(), sys.stdout)
