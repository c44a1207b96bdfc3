"""One benchmark process: set up, run a workload's passes, print raw JSON.

``run.py`` starts this script in a fresh interpreter, so that set-up time
(import, registry load, program builds) and peak memory belong to one
workload alone.  Nothing from :mod:`repro` is imported at module level:
the set-up clock starts before the first import.

The workloads drive the program only through its public functions —
``detect_races``, ``fuzz_races``, ``baseline_exceptions``,
``RaceFuzzer.run``, ``Execution.run/step/schedulable``,
``union_reports``, ``schedulable_grades`` and ``make_schedule`` — and time
the calls at those boundaries from this file.  Per-trial latency on the
serial workloads comes from wrapping ``RaceFuzzer.run`` for the duration
of a pass; the traced pass additionally wraps ``Execution.step`` and
``Execution.schedulable`` to fold their calls into the enclosing span.

Usage (normally through ``run.py``)::

    PYTHONPATH=src python3 perfbench/campaign.py --workload table1-racy \\
        --seed 0 --seconds 20 --trace 0 [--setup-only] [--spans PATH]
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from contextlib import ExitStack, contextmanager, nullcontext  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import BURST, HostSpeed  # noqa: E402
from spans import SpanRecorder  # noqa: E402

#: default-scheduler baseline runs per row (Table 1 column 10)
BASELINE_RUNS = 100
#: sync-preemption normal runs per row (Table 1 column 3), over the first
#: of the trial seeds; a few ms each, so fewer would time a window short
#: enough for one burst of host noise to skew
NORMAL_RUNS = 100
#: passes per untraced run, however short ``--seconds``: later passes
#: re-run the seed, which is how a run checks that verdicts repeat, and
#: the run reports medians over passes
MIN_PASSES = 3
#: a workload seed ``n`` shifts every Phase-1 seed and Phase 2's
#: ``base_seed`` by ``n * SEED_STRIDE``, so distinct seeds share no trial.
SEED_STRIDE = 10_000


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "table1" or "pipeline"
    rows: tuple[str, ...]
    schedule: str
    detectors: tuple[str, ...]
    jobs: int
    #: Phase-2 trials per pair (the adaptive schedule's default budget is
    #: this times the pair count)
    trials: int


#: Trials per pair are cut from the paper's 100 so that a 20-second run
#: fits the three passes its medians need.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "table1-stalled", "table1",
            ("sor", "jspider", "hedc", "montecarlo"),
            "fixed", ("hybrid",), 1, 50,
        ),
        Workload(
            "table1-racy", "table1",
            ("cache4j", "vector", "linkedlist", "arraylist", "hashset",
             "treeset", "jigsaw", "moldyn", "raytracer", "weblech"),
            "fixed", ("hybrid",), 1, 20,
        ),
        Workload(
            "pipeline-parallel", "pipeline",
            ("moldyn", "linkedlist", "weblech", "hedc", "vector", "arraylist"),
            "adaptive", ("hybrid", "shb", "wcp"), 2, 50,
        ),
    )
}

#: the program's sources in the checkout the benchmark belongs to
SOURCES = Path(__file__).resolve().parents[1] / "src"
#: rows on which no seed may confirm a pair (nothing real was seeded)
NO_RACE_ROWS = ("sor", "jspider")


def setup(workload: Workload) -> dict:
    """Import the program, load the registry and build every row's program."""
    import repro
    from repro.workloads import get

    if Path(repro.__file__).resolve().parents[1] != SOURCES:
        raise SystemExit(f"imported {repro.__file__}, not the sources beside "
                         f"the benchmark in {SOURCES}")
    return {row: (get(row), get(row).build()) for row in workload.rows}


@contextmanager
def patched(owner, name: str, wrap):
    """Replace ``owner.name`` with ``wrap(current)`` for the block."""
    own = owner.__dict__.get(name)
    setattr(owner, name, wrap(getattr(owner, name)))
    try:
        yield
    finally:
        if own is None:
            delattr(owner, name)
        else:
            setattr(owner, name, own)


def trial_probe(log: list, host: HostSpeed, recorder: SpanRecorder | None):
    """Wrap ``RaceFuzzer.run``: log (seconds, steps, counters) per trial,
    leaving out time spent sampling the host."""
    clock = time.perf_counter

    def wrap(original):
        def run(self, program, seed=0):
            scope = (
                recorder.span("postponing.trial")
                if recorder is not None else nullcontext()
            )
            with scope:
                t = clock() - host.spent
                fuzz = original(self, program, seed)
                seconds = clock() - host.spent - t
            log.append((
                seconds, fuzz.result.steps, fuzz.postpones,
                fuzz.forced_releases, fuzz.watchdog_releases,
                fuzz.coin_flips,
            ))
            return fuzz
        return run
    return wrap


def call_probe(recorder: SpanRecorder, name: str):
    """Wrap a hot method so each call folds into the innermost span."""
    clock = time.perf_counter
    fold = recorder.aggregate

    def wrap(original):
        def probe(self, *args):
            t = clock()
            result = original(self, *args)
            fold(name, clock() - t)
            return result
        return probe
    return wrap


def runtime_probes(recorder: SpanRecorder) -> list:
    """Fold every parent-side ``Execution.step``/``schedulable`` call into
    the innermost open span."""
    from repro.runtime import Execution

    return [
        patched(Execution, "step", call_probe(recorder, "runtime.step")),
        patched(Execution, "schedulable",
                call_probe(recorder, "runtime.schedulable")),
    ]


def cpu_now() -> float:
    """User plus system seconds of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def pair_strings(pairs) -> list[str]:
    return sorted(str(p) for p in pairs)


def normal_runs(spec, program, offset: int, count: int,
                host: HostSpeed) -> list[tuple]:
    """Sync-preemption normal runs over the trial seeds (Table 1 col 3)."""
    from repro.core import RandomScheduler
    from repro.runtime import Execution

    runs = []
    for seed in range(offset, offset + count):
        t = time.perf_counter() - host.spent
        result = Execution(program, seed=seed, max_steps=spec.max_steps).run(
            RandomScheduler(preemption="sync")
        )
        runs.append((time.perf_counter() - host.spent - t, result.steps,
                     result.truncated))
    return runs


class Units:
    """Wall and CPU seconds of one pass, unit of work by unit of work.

    A unit is one row phase (Phase 1, Phase 2, baseline runs, ...).  The
    pass samples the host's speed all through its units, so that
    ``run.py`` can scale it to the reference speed, and leaves the time
    that takes out; the traced pass samples only after each unit instead,
    to keep its spans clean.
    """

    def __init__(self, host: HostSpeed, traced: bool = False) -> None:
        #: [key, wall seconds, CPU seconds, host samples taken during the
        #: unit, their summed slowdown], in the order the pass ran them
        self.entries: list[list] = []
        self.host = host
        self.traced = traced
        self._open: tuple[int, float, float] | None = None

    def _clocks(self) -> tuple[float, float]:
        """Wall and CPU seconds so far, less those spent sampling."""
        return (time.perf_counter() - self.host.spent,
                cpu_now() - self.host.spent_cpu)

    @contextmanager
    def __call__(self, row: str, kind: str):
        self._open = (len(self.entries), *self._clocks())
        first = len(self.host.samples)
        try:
            with nullcontext() if self.traced else self.host.sampling():
                yield
        finally:
            _, wall, cpu = self._open
            now_wall, now_cpu = self._clocks()
            self._open = None
            count = len(self.host.samples) - first
            self.entries.append([
                f"{row}/{kind}", now_wall - wall, now_cpu - cpu, count,
                count and count * self.host.slowdown(first),
            ])
            if self.traced:
                self.host.burst()

    def position(self) -> list:
        """[index of the open unit, seconds since it started]."""
        index, wall, _ = self._open
        return [index, self._clocks()[0] - wall]

    def totals(self) -> dict[str, float]:
        """Wall seconds summed per kind of unit."""
        sums: dict[str, float] = {}
        for key, wall, *_ in self.entries:
            kind = key.rpartition("/")[2]
            sums[kind] = sums.get(kind, 0.0) + wall
        return sums


class Confirmations:
    """``on_progress`` sink: where in the pass did it last confirm a new
    pair?  Kept as a unit position, so that ``run.py`` can scale the time
    to it unit by unit."""

    def __init__(self, units: Units) -> None:
        self.units = units
        self.last_at: list | None = None
        self.seen = 0

    def call(self):
        """A fresh callback for one ``fuzz_races`` call (counts restart)."""
        self.seen = 0

        def on_progress(update) -> None:
            if update.confirms is not None and update.confirms > self.seen:
                self.seen = update.confirms
                self.last_at = self.units.position()
        return on_progress


def verdict_rows(phase1_pairs, verdicts) -> dict:
    real: set = set()
    exceptions: set = set()
    for verdict in verdicts.values():
        real |= verdict.created_pairs
        exceptions |= set(verdict.exceptions)
    return {
        "candidates": pair_strings(phase1_pairs),
        "real": pair_strings(real),
        "harmful": pair_strings(
            v.pair for v in verdicts.values() if v.is_harmful
        ),
        "exceptions": sorted(exceptions),
        "foreign_created": foreign_created(verdicts),
    }


def foreign_created(verdicts) -> list[str]:
    """Created pairs with a statement outside the pair being fuzzed.

    Algorithm 1 postpones only threads about to run one of the fuzzed
    pair's statements, so every race it creates joins two of them.
    """
    foreign = []
    for verdict in verdicts.values():
        own = {verdict.pair.first, verdict.pair.second}
        foreign += [
            str(c) for c in verdict.created_pairs
            if c.first not in own or c.second not in own
        ]
    return sorted(foreign)


def verdict_digest(verdicts) -> list:
    """Everything deterministic about a Phase-2 result (run-twice check)."""
    return sorted(
        [
            str(v.pair), v.trials, v.times_created,
            sorted(v.exceptions.items()), v.deadlocks, v.truncated,
            pair_strings(v.created_pairs),
        ]
        for v in verdicts.values()
    )


def table1_pass(workload, programs, seed, recorder=None) -> dict:
    """Phase 1, Phase 2, baseline runs and normal runs, row after row."""
    from repro.core import (
        RaceFuzzer, baseline_exceptions, detect_races, fuzz_races,
        make_schedule,
    )
    offset = seed * SEED_STRIDE
    span = recorder.span if recorder is not None else (
        lambda name, **attrs: nullcontext()
    )
    out = {"rows": {}, "trials": [], "normal": {}, "digest": {}}
    host = HostSpeed()
    units = Units(host, traced=recorder is not None)
    confirms = Confirmations(units)
    probes = [
        patched(RaceFuzzer, "run", trial_probe(out["trials"], host, recorder)),
    ]
    if recorder is not None:
        probes += runtime_probes(recorder)
    sched_totals = {"rounds": 0, "trials_allocated": 0, "early_stopped": 0}
    requested = completed = truncated = 0
    row_trials = {}
    with ExitStack() as stack:
        for probe in probes:
            stack.enter_context(probe)
        stack.enter_context(span("campaign"))
        for row in workload.rows:
            spec, program = programs[row]
            with span("row", row=row):
                with units(row, "phase1"), span("driver.phase1"):
                    phase1 = detect_races(
                        program,
                        seeds=[s + offset for s in spec.phase1_seeds],
                        max_steps=spec.max_steps,
                    )
                sched = make_schedule(
                    workload.schedule, trials=workload.trials, seed=offset
                )
                first_trial = len(out["trials"])
                with units(row, "phase2"), span("driver.phase2"):
                    verdicts = fuzz_races(
                        program, phase1.pairs, trials=workload.trials,
                        base_seed=offset, max_steps=spec.max_steps,
                        schedule=sched, on_progress=confirms.call(),
                    )
                row_trials[row] = (first_trial, len(out["trials"]))
                for key in sched_totals:
                    sched_totals[key] += getattr(sched, key, 0)
                requested += sched.trials_allocated
                completed += sum(v.trials for v in verdicts.values())
                truncated += sum(v.truncated for v in verdicts.values())
                with units(row, "baseline"), span("driver.baseline"):
                    simple = baseline_exceptions(
                        program, runs=BASELINE_RUNS, scheduler="default",
                        base_seed=offset, max_steps=spec.max_steps,
                    )
                with units(row, "normal"), span("driver.normal_runs"):
                    out["normal"][row] = normal_runs(
                        spec, program, offset, NORMAL_RUNS, host
                    )
            record = verdict_rows(phase1.pairs, verdicts)
            record["baseline_exceptions"] = sorted(simple)
            out["rows"][row] = record
            out["digest"][row] = verdict_digest(verdicts)
    out["campaign_s"] = sum(unit[1] for unit in units.entries)
    out["cpu_s"] = sum(unit[2] for unit in units.entries)
    out["units"] = units.entries
    out["confirm_at"] = confirms.last_at
    out["slowdown"] = host.slowdown()
    out["phase"] = units.totals()
    out["schedule"] = sched_totals
    out["row_trials"] = row_trials
    out["attempted"] = requested + sum(len(r) for r in out["normal"].values())
    out["failed"] = (requested - completed) + truncated + sum(
        1 for runs in out["normal"].values() for r in runs if r[2]
    )
    return out


def pipeline_pass(workload, programs, seed, work: Path, recorder=None) -> dict:
    """Cold then warm multi-detector Phase 1, union, adaptive Phase 2."""
    from repro.core import detect_races, fuzz_races, make_schedule
    from repro.detectors import schedulable_grades, union_reports
    from repro.obs import collecting

    offset = seed * SEED_STRIDE
    span = recorder.span if recorder is not None else (
        lambda name, **attrs: nullcontext()
    )
    trace_dir = work / "traces"
    journal = work / "journal.jsonl"
    shutil.rmtree(trace_dir, ignore_errors=True)
    journal.unlink(missing_ok=True)
    detectors = list(workload.detectors)
    out = {"rows": {}, "normal": {}, "digest": {}, "row_counts": {}}
    candidates = {name: 0 for name in detectors}
    graded = union_total = 0
    sched_totals = {"rounds": 0, "trials_allocated": 0, "early_stopped": 0,
                    "confirmed": 0}
    requested = completed = truncated = 0
    worker_wall = 0.0
    # The traced pass reads worker-side counts from the program's metrics
    # registry, which workers ship back with every accepted task.
    registry = collecting() if recorder is not None else nullcontext()
    host = HostSpeed()
    units = Units(host, traced=recorder is not None)
    confirms = Confirmations(units)
    with registry as metrics, span("campaign"):
        for row in workload.rows:
            spec, program = programs[row]
            seeds = [s + offset for s in spec.phase1_seeds]
            with span("row", row=row):
                reports = {}
                for mode in ("record", "replay"):
                    with units(row, mode), span(f"trace.{mode}"):
                        reports[mode] = detect_races(
                            program, detector=detectors, seeds=seeds,
                            max_steps=spec.max_steps, jobs=workload.jobs,
                            trace_dir=trace_dir,
                        )
                with units(row, "union"), span("detectors.union"):
                    union = union_reports(reports["replay"], program=spec.name)
                    pairs = union.pairs
                    grades = schedulable_grades(union, pairs)
                for name in detectors:
                    candidates[name] += len(reports["replay"][name].pairs)
                graded += sum(1 for g in grades if g is True)
                union_total += len(pairs)
                before = (
                    dict(metrics.snapshot().counters)
                    if metrics is not None else {}
                )
                sched = make_schedule(
                    workload.schedule, trials=workload.trials, seed=offset
                )
                with units(row, "phase2"), span("driver.phase2"):
                    verdicts = fuzz_races(
                        program, pairs, trials=workload.trials,
                        base_seed=offset, max_steps=spec.max_steps,
                        jobs=workload.jobs,
                        schedule=sched, grades=grades, checkpoint=journal,
                        on_progress=confirms.call(),
                    )
                if metrics is not None:
                    after = metrics.snapshot().counters
                    out["row_counts"][row] = {
                        k: after.get(k, 0) - before.get(k, 0)
                        for k in after
                    }
                for key in sched_totals:
                    sched_totals[key] += getattr(sched, key)
                requested += sched.trials_allocated
                done = sum(v.trials for v in verdicts.values())
                completed += done
                truncated += sum(v.truncated for v in verdicts.values())
                wall = sum(v.total_wall for v in verdicts.values())
                worker_wall += wall
                out["rows"][row] = {
                    "candidates": pair_strings(pairs),
                    "confirmed": pair_strings(set().union(
                        *(v.created_pairs for v in verdicts.values())
                    )),
                    "foreign_created": foreign_created(verdicts),
                    "trials": done,
                    "trial_wall": wall,
                    "pair_means": [
                        (v.total_wall / v.trials, v.trials)
                        for v in verdicts.values() if v.trials
                    ],
                }
                out["digest"][row] = verdict_digest(verdicts)
    out["campaign_s"] = sum(unit[1] for unit in units.entries)
    out["cpu_s"] = sum(unit[2] for unit in units.entries)
    out["units"] = units.entries
    out["confirm_at"] = confirms.last_at
    # Reference normal runs for the RF/normal ratio, outside the campaign
    # and its units.  Probed only here: pool workers fork from this process
    # and would inherit probes installed before the campaign.
    reference = Units(host, traced=recorder is not None)
    with ExitStack() as stack:
        for probe in runtime_probes(recorder) if recorder is not None else ():
            stack.enter_context(probe)
        stack.enter_context(span("driver.normal_runs"))
        for row in workload.rows:
            spec, program = programs[row]
            with reference(row, "normal"):
                out["normal"][row] = normal_runs(
                    spec, program, offset, NORMAL_RUNS, host
                )
    out["reference_units"] = reference.entries
    out["phase"] = {**units.totals(), **reference.totals()}
    out["slowdown"] = host.slowdown()
    out["schedule"] = sched_totals
    out["candidates"] = candidates
    out["graded"] = graded
    out["union_total"] = union_total
    out["worker_wall"] = worker_wall
    out["registry"] = (
        dict(metrics.snapshot().counters) if metrics is not None else {}
    )
    out["store_bytes"] = sum(
        p.stat().st_size for p in trace_dir.rglob("*") if p.is_file()
    )
    out["journal_bytes"] = journal.stat().st_size if journal.exists() else 0
    out["attempted"] = requested + sum(len(r) for r in out["normal"].values())
    out["failed"] = (requested - completed) + truncated + sum(
        1 for runs in out["normal"].values() for r in runs if r[2]
    )
    return out


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, MiB."""
    scale = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is KiB here
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) * scale / (1024 * 1024)


def run_pass(workload, programs, seed, work, recorder=None) -> dict:
    if workload.kind == "table1":
        return table1_pass(workload, programs, seed, recorder)
    return pipeline_pass(workload, programs, seed, work, recorder)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--jobs", type=int, help="override the worker count")
    parser.add_argument("--spans", help="traced run: write spans here")
    parser.add_argument("--work", required=True,
                        help="scratch directory for traces and journals")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.jobs is not None:
        workload = replace(workload, jobs=args.jobs)
    programs = setup(workload)
    setup_s = time.perf_counter() - _T0
    host = HostSpeed()
    host.burst(5 * BURST)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "slowdown": host.slowdown()}))
        return 0
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    passes = []
    if args.trace:
        # One untraced pass for the overhead ratio, then the traced pass.
        passes.append(run_pass(workload, programs, args.seed, work))
        recorder = SpanRecorder()
        traced = run_pass(workload, programs, args.seed, work, recorder)
        traced["self_times"] = recorder.self_times()
        traced["runtime_aggregates"] = recorder.aggregate_totals()
        if args.spans:
            recorder.write(args.spans)
        passes.append(traced)
    else:
        start = time.perf_counter()
        while (len(passes) < MIN_PASSES
               or time.perf_counter() - start < args.seconds):
            passes.append(run_pass(workload, programs, args.seed, work))
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "setup_s": setup_s,
        "setup_slowdown": host.slowdown(),
        "peak_rss_mb": peak_rss_mb(),
        "truth": {row: spec.truth.real_pairs
                  for row, (spec, _) in programs.items()},
        "passes": passes,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
