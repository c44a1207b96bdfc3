"""End-to-end campaign benchmark: run one workload, print every metric.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload table1-stalled --seed 0 \\
        --seconds 20 --trace 0 [--out DIR]

``--trace 0`` prints every end-to-end metric by name and unit, then, as
the last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 1`` is a separate run (one untraced pass, then one
traced pass) that writes its spans under ``perfbench/.work/`` and prints
every per-layer metric instead.  ``--out DIR`` also appends the result to
``DIR/<workload>.jsonl`` for ``compare.py``.

At the default seed the verdicts must equal the committed record in
``expected.json``; at every seed they must satisfy the invariants in
:func:`invariant_violations`.  A mismatch prints the result with
``"correct": false`` and exits 1.  Without the program's sources beside
the benchmark it exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SOURCES = ROOT / "src" / "repro" / "__init__.py"

sys.path.insert(0, str(HERE))
from campaign import NO_RACE_ROWS, WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
#: fresh interpreters that only set up, besides the measuring one
SETUP_PROBES = 10
#: wall-clock limit for one child process
CHILD_TIMEOUT_S = 170

#: reported beside the end-to-end metrics; zero on a healthy run, so they
#: travel as ``harness.*`` per-layer metrics and in "correct"/"failed"
CHECKS = ("verdict_mismatches", "truth_gap", "failed_share")


def child(workload: str, seed: int, *extra: str) -> dict:
    """Run ``campaign.py`` in its own process group and parse its JSON.

    On timeout the whole group — the child and any pool workers it
    forked — is killed and reaped before the benchmark gives up.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "campaign.py"), "--workload", workload,
         "--seed", str(seed), "--work", str(WORK), *extra],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"benchmark child exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit(f"benchmark child failed ({proc.returncode})")
    return json.loads(stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


#: samples' worth of the pass's mean slowdown mixed into each unit's own,
#: so that a unit with few samples leans on the pass
SHRINK = 3


def unit_slowdowns(one_pass) -> dict[str, float]:
    """How slow the host was while each unit of the pass ran: the mean
    slowdown of the host samples taken during it, shrunk toward the
    pass's mean by ``SHRINK`` samples."""
    mean = one_pass["slowdown"]
    return {
        key: (total + SHRINK * mean) / (count + SHRINK)
        for key, _, _, count, total in (
            one_pass["units"] + one_pass.get("reference_units", [])
        )
    }


def scaled(passes) -> list[dict]:
    """Each pass's times at reference host speed: every unit, trial and
    normal run over the slowdown of the unit it ran in."""
    out = []
    for p in passes:
        slow = unit_slowdowns(p)
        units = [(key, wall / slow[key], cpu / slow[key])
                 for key, wall, cpu, *_ in p["units"]]
        rows = {}
        for row in p["rows"]:
            phase2, normal = slow[f"{row}/phase2"], slow[f"{row}/normal"]
            if "row_trials" in p:
                trials = [t[0] / phase2
                          for t in p["trials"][slice(*p["row_trials"][row])]]
            else:
                trials = [mean / phase2
                          for mean, count in p["rows"][row]["pair_means"]
                          for _ in range(count)]
            rows[row] = {
                "trials": trials,
                "normal": [r[0] / normal for r in p["normal"][row]],
            }
        confirm = sum(wall for _, wall, _ in units)
        if p["confirm_at"] is not None:
            index, offset = p["confirm_at"]
            confirm = (sum(wall for _, wall, _ in units[:index])
                       + offset / slow[units[index][0]])
        out.append({"units": units, "rows": rows, "confirm_all_s": confirm})
    return out


def medians_each(sequences) -> list[float]:
    """Element-wise median of equally long sequences, one per pass: the
    passes of a run repeat the same seed, so element ``i`` is the same
    trial or normal run in each, and its median ignores a burst of host
    noise that hit it in one pass."""
    return [statistics.median(values) for values in zip(*sequences)]


def end_to_end(workload, raw: dict, setup_samples: list[float]) -> dict:
    """End-to-end metrics at reference host speed: sums are medians over
    passes; latency and the RF/normal ratios take each trial and normal run
    at its median over passes.

    The serial workloads time every ``RaceFuzzer.run`` call.  The parallel
    workload's trials run in workers, so each trial there is assigned its
    pair's mean trial time from the worker-reported ``total_wall``.
    """
    passes = scaled(raw["passes"])
    rows = {
        row: {
            field: medians_each(p["rows"][row][field] for p in passes)
            for field in ("trials", "normal")
        }
        for row in workload.rows
    }
    trials = [t * 1e3 for row in rows.values() for t in row["trials"]]
    # a row whose Phase 1 found no candidate at this seed ran no trial
    ratios = [
        statistics.fmean(row["trials"]) / statistics.fmean(row["normal"])
        for row in rows.values() if row["trials"]
    ]

    def median(value):
        return statistics.median(value(p) for p in passes)

    trial_count = phase2_trials(workload, raw["passes"][0])
    return {
        "setup_s": statistics.median(setup_samples),
        "campaign_s": median(lambda p: sum(u[1] for u in p["units"])),
        "cpu_s": median(lambda p: sum(u[2] for u in p["units"])),
        "peak_rss_mb": raw["peak_rss_mb"],
        "trials_per_s": median(lambda p: trial_count / sum(
            wall for key, wall, _ in p["units"] if key.endswith("/phase2")
        )),
        "trial_ms_p50": percentile(trials, 50),
        "trial_ms_p99": percentile(trials, 99),
        "rf_normal_ratio": geomean(ratios),
        "rf_normal_ratio_max": max(ratios),
        "confirm_all_s": median(lambda p: p["confirm_all_s"]),
    }, len(trials)


def phase2_trials(workload, p) -> int:
    if workload.kind == "table1":
        return len(p["trials"])
    return sum(row["trials"] for row in p["rows"].values())


def real_set(workload, row_record) -> list[str]:
    return row_record["real" if workload.kind == "table1" else "confirmed"]


def mismatches(actual: dict, expected: dict) -> int:
    """Elements in which the verdict sets differ, over rows and fields."""
    count = 0
    for row, fields in expected.items():
        for key, want in fields.items():
            got = actual.get(row, {}).get(key, [])
            count += len(set(got) ^ set(want))
    return count


def notes(workload, raw) -> list[str]:
    """Findings printed but not failing the run.

    Every confirmed pair is a race RaceFuzzer actually created, so neither
    finding marks a false verdict: a row can confirm more pairs than
    ``GroundTruth.real_pairs`` counts (counted in ``truth_gap``), and
    fuzzing a pair ``(a, b)`` can create the same-statement race ``(b, b)``
    when Phase 1 did not report it.
    """
    found = []
    for row, record in raw["passes"][0]["rows"].items():
        real = real_set(workload, record)
        if len(real) > raw["truth"][row]:
            found.append(
                f"truth gap: {row}: {len(real)} real pairs exceed the "
                f"{raw['truth'][row]} of GroundTruth.real_pairs"
            )
        outside = sorted(set(real) - set(record["candidates"]))
        if outside:
            found.append(
                f"not a Phase-1 candidate: {row}: {', '.join(outside)}"
            )
    return found


def invariant_violations(workload, raw) -> list[str]:
    """Checks that hold at every seed."""
    problems = []
    first = raw["passes"][0]
    for row, record in first["rows"].items():
        real = set(real_set(workload, record))
        if row in NO_RACE_ROWS and real:
            problems.append(
                f"{row}: confirmed {len(real)} pair(s), expected 0"
            )
        if record["foreign_created"]:
            problems.append(
                f"{row}: created pairs outside the fuzzed pair's statements: "
                + ", ".join(record["foreign_created"])
            )
    for p in raw["passes"][1:]:
        if p["digest"] != first["digest"] or (
            verdict_sets(workload, p) != verdict_sets(workload, first)
        ):
            problems.append("the same seed gave different verdicts")
            break
        if shape(p) != shape(first):
            problems.append("the same seed ran different units of work")
            break
    return problems


def shape(one_pass) -> tuple:
    """The units of a pass and the one it last confirmed a pair in, which
    every pass of a seed repeats."""
    return ([u[0] for u in one_pass["units"]],
            (one_pass["confirm_at"] or [None])[0])


def verdict_sets(workload, one_pass) -> dict:
    """The per-row sets the expected record pins down."""
    keep = (
        ("candidates", "real", "harmful", "exceptions", "baseline_exceptions")
        if workload.kind == "table1" else ("candidates", "confirmed")
    )
    return {
        row: {key: record[key] for key in keep}
        for row, record in one_pass["rows"].items()
    }


def checks(workload, raw, seed: int) -> tuple[dict, list[str]]:
    problems = invariant_violations(workload, raw)
    rows = verdict_sets(workload, raw["passes"][0])
    if seed == DEFAULT_SEED:
        expected = json.loads((HERE / "expected.json").read_text())
        wrong = mismatches(rows, expected[workload.name])
    else:
        wrong = 0
    gap = sum(
        abs(len(real_set(workload, rows[row])) - raw["truth"][row])
        for row in rows
    )
    attempted = sum(p["attempted"] for p in raw["passes"])
    failed = sum(p["failed"] for p in raw["passes"])
    return {
        "verdict_mismatches": wrong,
        "truth_gap": gap,
        "failed_share": failed / attempted,
        "attempted": attempted,
        "failed": failed,
    }, problems


def per_layer(workload, raw) -> dict:
    """Per-layer metrics of a traced run: (untraced pass, traced pass)."""
    plain, traced = raw["passes"]
    selfs = traced["self_times"]
    phase = traced["phase"]
    normal_runs = [r for runs in plain["normal"].values() for r in runs]
    normal_steps = sum(r[1] for r in normal_runs) / len(normal_runs)
    step_calls, step_s, sched_calls, sched_s = runtime_totals(traced)
    if workload.kind == "table1":
        trials = len(traced["trials"])
        steps = sum(t[1] for t in traced["trials"])
        counts = [sum(t[i] for t in traced["trials"]) for i in range(2, 6)]
        row_steps = {
            row: sum(t[1] for t in traced["trials"][slice(*span)])
            / max(1, span[1] - span[0])
            for row, span in traced["row_trials"].items()
        }
        trial_time = sum(t[0] for t in traced["trials"])
        phase2_overhead = selfs.get("driver.phase2", 0.0)
        tasks = quarantines = 0
        phase1_s = phase["phase1"]
        baseline_s = phase["baseline"]
    else:
        counters = traced["registry"]
        trials = sum(r["trials"] for r in traced["rows"].values())
        steps = sum(c.get("interp.steps", 0)
                    for c in traced["row_counts"].values())
        counts = [counters.get(f"fuzz.{k}", 0) for k in
                  ("postpones", "forced_releases", "watchdog_releases",
                   "coin_flips")]
        row_steps = {
            row: c.get("interp.steps", 0) / max(1, c.get("fuzz.trials", 0))
            for row, c in traced["row_counts"].items()
        }
        trial_time = traced["worker_wall"]
        phase2_overhead = max(
            0.0, phase["phase2"] - trial_time / workload.jobs
        )
        tasks = counters.get("supervisor.tasks", 0)
        quarantines = counters.get("supervisor.quarantines", 0)
        phase1_s = phase["record"] + phase["replay"] + phase["union"]
        baseline_s = 0.0
    # Serial workloads count as one worker: their idle time is the Phase-2
    # wall-clock no trial covers.
    capacity = workload.jobs * phase["phase2"]
    row_normal = {
        row: sum(r[1] for r in runs) / len(runs)
        for row, runs in plain["normal"].items()
    }
    created = sum(v[2] for row in traced["digest"].values() for v in row)
    inflation = geomean([row_steps[row] / row_normal[row] for row in row_steps
                         if row_steps[row] > 0])
    sched = traced["schedule"]
    confirmed = sched.get("confirmed") or sum(
        len(real_set(workload, r)) for r in traced["rows"].values()
    )
    is_pipeline = workload.kind == "pipeline"
    candidates = traced.get("candidates") or {
        "hybrid": sum(len(r["candidates"]) for r in traced["rows"].values())
    }
    metrics = {
        "runtime.steps": steps,
        "runtime.steps_per_trial": steps / trials,
        "runtime.normal_steps_per_run": normal_steps,
        "runtime.step_s": step_s,
        "runtime.schedulable_s": sched_s,
        "runtime.schedulable_per_step": (
            sched_calls / step_calls if step_calls else 0.0
        ),
        "runtime.normal_run_ms": (
            statistics.fmean(r[0] for r in normal_runs) * 1e3
            / plain["slowdown"]
        ),
        "postponing.postpones": counts[0],
        "postponing.forced_releases": counts[1],
        "postponing.watchdog_releases": counts[2],
        "postponing.coin_flips": counts[3],
        "postponing.created_share": created / trials,
        "postponing.step_inflation": inflation,
        "postponing.self_s": selfs.get("postponing.trial", 0.0),
        "driver.phase1_s": phase1_s,
        "driver.phase2_s": phase["phase2"],
        "driver.baseline_s": baseline_s,
        "driver.normal_runs_s": phase["normal"],
        "driver.phase2_overhead_s": phase2_overhead,
        "schedule.rounds": sched["rounds"],
        "schedule.trials_allocated": sched["trials_allocated"],
        "schedule.early_stopped": sched["early_stopped"],
        "schedule.trials_per_confirm": (
            sched["trials_allocated"] / confirmed if confirmed else 0.0
        ),
        "parallel.tasks": tasks,
        "parallel.quarantines": quarantines,
        "parallel.busy_share": trial_time / capacity,
        "parallel.idle_s": capacity - trial_time,
        "detectors.candidates.hybrid": candidates.get("hybrid", 0),
        "detectors.candidates.shb": candidates.get("shb", 0),
        "detectors.candidates.wcp": candidates.get("wcp", 0),
        "detectors.schedulable_share": (
            traced["graded"] / traced["union_total"] if is_pipeline else 0.0
        ),
        "detectors.analyze_s": phase.get("replay", 0.0),
        "trace.record_s": phase.get("record", 0.0),
        "trace.replay_s": phase.get("replay", 0.0),
        "trace.store_bytes": traced.get("store_bytes", 0),
        "trace.journal_bytes": traced.get("journal_bytes", 0),
        "obs.trace_overhead": (traced["campaign_s"] / traced["slowdown"])
        / (plain["campaign_s"] / plain["slowdown"]),
    }
    # Seconds of the traced pass, at reference host speed like end_to_end.
    for name in metrics:
        if name.endswith("_s"):
            metrics[name] /= traced["slowdown"]
    return metrics


def runtime_totals(traced) -> tuple[int, float, int, float]:
    """Parent-side probe totals: step calls, step s, schedulable calls, s."""
    step = traced["runtime_aggregates"].get("runtime.step", [0, 0.0])
    sched = traced["runtime_aggregates"].get("runtime.schedulable", [0, 0.0])
    return step[0], step[1], sched[0], sched[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", help="append the result to DIR/<workload>.jsonl"
    )
    parser.add_argument(
        "--record-expected", action="store_true",
        help="write this run's verdicts into expected.json (seed 0 only)",
    )
    parser.add_argument(
        "--jobs", type=int,
        help="override the workload's worker count (reference runs only)",
    )
    args = parser.parse_args(argv)
    if not SOURCES.is_file():
        print(f"no program sources at {SOURCES.parent}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.jobs is not None:
        workload = dataclasses.replace(workload, jobs=args.jobs)
    WORK.mkdir(exist_ok=True)
    setup_samples = [
        probe["setup_s"] / probe["slowdown"]
        for probe in (
            child(workload.name, args.seed, "--setup-only")
            for _ in range(SETUP_PROBES)
        )
    ]
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace),
             "--jobs", str(workload.jobs)]
    spans_path = WORK / f"spans-{workload.name}-{args.seed}.json"
    if args.trace:
        extra += ["--spans", str(spans_path)]
    raw = child(workload.name, args.seed, *extra)
    setup_samples.append(raw["setup_s"] / raw["setup_slowdown"])
    shutil.rmtree(WORK / "traces", ignore_errors=True)
    (WORK / "journal.jsonl").unlink(missing_ok=True)

    if args.record_expected:
        if args.seed != DEFAULT_SEED:
            raise SystemExit("expected verdicts are recorded at seed 0")
        path = HERE / "expected.json"
        record = json.loads(path.read_text()) if path.exists() else {}
        record[workload.name] = verdict_sets(workload, raw["passes"][0])
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    verdict, problems = checks(workload, raw, args.seed)
    for problem in problems:
        print(f"invariant violated: {problem}")
    for note in notes(workload, raw):
        print(note)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    checked = {f"harness.{name}": verdict[name] for name in CHECKS}
    if args.trace:
        metrics = {**per_layer(workload, raw), **checked}
        units = layer_units
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics, samples = end_to_end(workload, raw, setup_samples)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        print(f"{workload.name} seed={args.seed} passes={len(raw['passes'])} "
              f"trial samples={samples} setup samples={len(setup_samples)}")
    if set(metrics) != set(units):
        raise SystemExit("metrics differ from those BENCHMARK.json declares")
    for name, value in metrics.items():
        print(f"{name:32s} {value:>16.6g} {units[name]}")
    if not args.trace:
        for name, value in checked.items():
            print(f"{name:32s} {value:>16.6g} {layer_units[name]}")
    correct = verdict["verdict_mismatches"] == 0 and not problems
    result = {
        "correct": correct,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / f"{workload.name}.jsonl", "a") as handle:
            handle.write(json.dumps({"workload": workload.name,
                                     "seed": args.seed,
                                     "trace": args.trace, **result}) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
