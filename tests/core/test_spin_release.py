"""Equivalence oracle for the spin-evidence release in Algorithm 1.

The spin-evidence rule may only change a schedule at a moment when the
old driver would have waited out the watchdog's ``patience``.  So every
trial that finished with zero watchdog releases under the step-count-only
driver must be identical under the current one, and the Table 1 verdict
columns (per-pair created and exception counts) must not move at all.

The golden fixture ``data/spin_release_golden.json`` holds, for every
Table 1 row, every hybrid Phase-1 pair and seeds 0-9, the per-trial
outcome of the step-count-only driver.  It was generated once from the
commit before the evidence rule, with::

    PYTHONPATH=<that checkout>/src python tests/core/test_spin_release.py \\
        > tests/core/data/spin_release_golden.json
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.core import RaceFuzzer, detect_races
from repro.workloads import table1_workloads

GOLDEN = Path(__file__).parent / "data" / "spin_release_golden.json"
SEEDS = range(10)
#: trial record keys, in the order the fixture stores each trial's values.
FIELDS = (
    "steps", "created", "exceptions", "watchdog_releases", "truncated", "deadlock",
)


def trial_record(outcome) -> dict:
    """The schedule-determined outcome of one Phase-2 trial."""
    result = outcome.result
    return {
        "steps": result.steps,
        "created": sorted(str(pair) for pair in outcome.pairs_created),
        "exceptions": sorted(result.exception_types),
        "watchdog_releases": outcome.watchdog_releases,
        "truncated": result.truncated,
        "deadlock": result.deadlock,
    }


def measure() -> dict:
    """``{row: {pair: [trial record per seed]}}`` for every Table 1 row."""
    rows = {}
    for spec in table1_workloads():
        phase1 = detect_races(
            spec.build(), seeds=spec.phase1_seeds, max_steps=spec.max_steps
        )
        program = spec.build()
        pairs = {}
        for pair in sorted(phase1.pairs, key=str):
            fuzzer = RaceFuzzer(pair, max_steps=spec.max_steps)
            pairs[str(pair)] = [
                trial_record(fuzzer.run(program, seed=seed)) for seed in SEEDS
            ]
        rows[spec.name] = pairs
    return rows


def pair_counts(trials: list[dict]) -> tuple[int, Counter]:
    """Per-pair verdict columns: trials that created a race, and the
    exception types raised across all trials."""
    created = sum(1 for trial in trials if trial["created"])
    exceptions = Counter(kind for trial in trials for kind in trial["exceptions"])
    return created, exceptions


@pytest.fixture(scope="module")
def golden() -> dict:
    rows = json.loads(GOLDEN.read_text())
    return {
        row: {
            pair: [dict(zip(FIELDS, values)) for values in trials]
            for pair, trials in pairs.items()
        }
        for row, pairs in rows.items()
    }


@pytest.fixture(scope="module")
def measured() -> dict:
    return measure()


def test_same_rows_and_pairs(golden, measured):
    assert measured.keys() == golden.keys()
    for row, pairs in golden.items():
        assert measured[row].keys() == pairs.keys(), row


def test_trials_without_watchdog_releases_are_unchanged(golden, measured):
    compared = 0
    for row, pairs in golden.items():
        for pair, trials in pairs.items():
            for seed, (old, new) in enumerate(zip(trials, measured[row][pair])):
                if old["watchdog_releases"] == 0:
                    assert new == old, (row, pair, seed)
                    compared += 1
    assert compared > 0


def test_per_pair_verdict_counts_are_unchanged(golden, measured):
    for row, pairs in golden.items():
        for pair, trials in pairs.items():
            assert pair_counts(measured[row][pair]) == pair_counts(trials), (
                row, pair,
            )


def test_watchdog_trials_got_cheaper(golden, measured):
    """The evidence rule is what makes the stalled rows cheap: the trials
    that used to wait out ``patience`` take far fewer steps."""
    old_steps = new_steps = 0
    for row, pairs in golden.items():
        for pair, trials in pairs.items():
            for old, new in zip(trials, measured[row][pair]):
                if old["watchdog_releases"]:
                    old_steps += old["steps"]
                    new_steps += new["steps"]
    assert new_steps * 3 < old_steps


def dump(rows: dict, out) -> None:
    """Write ``rows`` as JSON, one line per pair, each trial as its values
    in ``FIELDS`` order."""
    out.write("{\n")
    for i, (row, pairs) in enumerate(sorted(rows.items())):
        out.write(f" {json.dumps(row)}: {{\n")
        for j, (pair, trials) in enumerate(sorted(pairs.items())):
            comma = "," if j < len(pairs) - 1 else ""
            values = [[trial[key] for key in FIELDS] for trial in trials]
            line = json.dumps(values, separators=(",", ":"))
            out.write(f"  {json.dumps(pair)}: {line}{comma}\n")
        out.write(" }" + ("," if i < len(rows) - 1 else "") + "\n")
    out.write("}\n")


if __name__ == "__main__":
    dump(measure(), sys.stdout)
