"""The postponing main loop shared by all active random fuzzers.

This is Algorithm 1 of the paper with its target-specific predicates pulled
out into overridable hooks, because Section 1 observes that "the only thing
the random scheduler needs to know is a set of statements whose simultaneous
execution could lead to a concurrency problem" — races, atomicity
violations, or deadlocks.  :class:`~repro.core.racefuzzer.RaceFuzzer`
instantiates the hooks with the racing-pair semantics of Algorithm 2;
the deadlock and atomicity fuzzers instantiate them differently.

Loop structure (paper line numbers in comments):

* pick a random enabled thread outside ``postponed``       (line 5)
* if its next statement is a target statement:             (line 6)
  * find conflicting postponed threads ``R``               (line 7, Alg. 2)
  * if ``R`` nonempty: the target situation is *real* —
    report it and resolve randomly                         (lines 8-19)
  * else postpone the thread                               (line 21)
* otherwise just execute                                   (line 24)
* if every enabled thread is postponed, release one        (lines 26-28)
* at termination, report a real deadlock if threads remain (lines 30-32)

Two engineering details from Section 4 are included: the livelock watchdog
and sync-only preemption (threads run without interruption between
synchronization operations and target statements, keeping the
instrumentation-free fast path fast).

The watchdog stands in for the paper's monitor thread, which notices that
nothing can progress without a postponed thread.  It releases on evidence
first: while the postponed set is non-empty the driver keeps a *progress
epoch*, advanced by every WRITE, SPAWN, NOTIFY, NOTIFY_ALL and INTERRUPT it
executes, by every race resolution, and by any change in the number of
live or postponed threads.  A thread is *spinning* when it reaches the same
YIELD statement twice in one epoch with at least one shared READ in
between (a polling loop over state nobody is changing).  When every live
non-postponed thread is spinning or blocked with no deadline (not sleeping,
not in a timed wait, and, if pending on a lock, behind a postponed owner),
and some spinner is enabled, the oldest postponed thread(s) are released
with the usual one-shot exemption.  SLEEP is no spin point, so
sleep-polling still ends in the lines 26-28 release.  ``patience`` global
steps remain the backstop for livelocks the evidence cannot see.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import time

from repro.obs import WALL_BUCKETS, maybe_registry
from repro.obs.timeline import maybe_timeline
from repro.runtime.errors import ExecutionLimitExceeded
from repro.runtime.interpreter import Execution, ExecutionResult, randbelow
from repro.runtime.observer import ExecutionObserver
from repro.runtime.ops import Op, OpKind
from repro.runtime.program import Program
from repro.runtime.statement import StatementPair
from repro.runtime.thread import ThreadState, ThreadStatus

#: Executed op kinds that can let another thread progress: they advance the
#: spin evidence's progress epoch (as ``OpKind.index`` values, which hash
#: as ints rather than through ``Enum.__hash__``).
_PROGRESS_INDICES = frozenset(
    kind.index
    for kind in (
        OpKind.WRITE, OpKind.SPAWN, OpKind.NOTIFY, OpKind.NOTIFY_ALL,
        OpKind.INTERRUPT,
    )
)
_READ_INDEX = OpKind.READ.index
_YIELD = OpKind.YIELD
_RUNNABLE = ThreadStatus.RUNNABLE
_WAITING = ThreadStatus.WAITING
_SLEEPING = ThreadStatus.SLEEPING


@dataclass(frozen=True)
class TargetHit:
    """One moment at which the fuzzer created the targeted situation."""

    step: int
    pair: StatementPair
    tids: tuple[int, int]
    location_name: str
    #: True if the coin flip executed the newly arrived thread first.
    executed_arrival: bool


@dataclass
class FuzzResult:
    """Outcome of one active-fuzzing execution."""

    result: ExecutionResult
    hits: list[TargetHit] = field(default_factory=list)
    #: distinct statement pairs actually brought temporally adjacent.
    pairs_created: set[StatementPair] = field(default_factory=set)
    #: how many times the postponed set had to be force-drained (line 27).
    forced_releases: int = 0
    #: how many times the livelock watchdog released a thread.
    watchdog_releases: int = 0
    #: the subset of ``watchdog_releases`` made on spin evidence rather than
    #: after ``patience`` steps.
    spin_releases: int = 0
    #: how many times a thread entered the postponed set (lines 14 and 21).
    postpones: int = 0
    #: how many line-11 coin flips resolved a created racing situation.
    coin_flips: int = 0
    #: largest size the postponed set reached during this trial.
    postponed_high_water: int = 0

    @property
    def created(self) -> bool:
        """Did any targeted situation actually occur?"""
        return bool(self.hits)

    @property
    def crashes(self):
        return self.result.crashes

    @property
    def deadlock(self) -> bool:
        return self.result.deadlock

    def __str__(self) -> str:
        status = f"{len(self.hits)} hit(s), pairs={sorted(map(str, self.pairs_created))}"
        return f"FuzzResult[{status}] {self.result}"


class PostponingDriver:
    """Template for Algorithm 1; subclasses define what a "target" is."""

    def __init__(
        self,
        *,
        preemption: str = "sync",
        patience: int = 400,
        max_steps: int = 1_000_000,
        observers: Iterable[ExecutionObserver] = (),
        fast_mode: bool = False,
    ) -> None:
        if preemption not in ("every", "sync"):
            raise ValueError(f"unknown preemption mode: {preemption!r}")
        self.preemption = preemption
        self.patience = patience
        self.max_steps = max_steps
        self.observers = tuple(observers)
        self.fast_mode = fast_mode

    # --- hooks for subclasses ------------------------------------------- #

    def fast_mode_statements(self):
        """Statements whose MemEvents fast mode keeps (None = no filter).

        In fast mode the execution suppresses MemEvent emission for every
        statement *outside* this set; sync/thread/msg events are always
        emitted.  Subclasses that know their target statements (RaceFuzzer's
        racing pair) override this.  The base returns ``None`` — fast mode
        is then a no-op filter-wise — so drivers without a statement-shaped
        target stay correct.  (Named ``fast_mode_statements`` rather than
        ``target_statements`` because DeadlockFuzzer already uses the latter
        as an attribute.)
        """
        return None

    def timeline_target(self) -> str:
        """Label identifying what this driver is fuzzing, for the campaign
        timeline's per-trial events.  The base has no statement-shaped
        target; :class:`~repro.core.racefuzzer.RaceFuzzer` returns its
        pair label so trials group under one pair track."""
        return ""

    def is_target(self, execution: Execution, tid: int) -> bool:
        """Is ``tid``'s next statement in the target set? (line 6)"""
        raise NotImplementedError

    def conflicting(
        self, execution: Execution, tid: int, postponed: list[int]
    ) -> list[int]:
        """Algorithm 2: postponed threads whose next op conflicts with
        ``tid``'s next op (for races: same location, at least one write)."""
        raise NotImplementedError

    def on_hit(self, execution: Execution, hit: TargetHit) -> None:
        """Called whenever the targeted situation is created."""

    def resolve_arrival_first(
        self, execution: Execution, tid: int, rivals: list[int]
    ) -> bool:
        """Line 11's coin flip: True executes the arriving thread first.

        RaceFuzzer keeps the fair coin; the atomicity fuzzer overrides this
        to force the non-serializable order.
        """
        return execution.rng.random() < 0.5

    # --- the main loop ---------------------------------------------------- #

    def run(self, program: Program, seed: int = 0) -> FuzzResult:
        """Execute ``program`` once under the active random scheduler."""
        tl = maybe_timeline()
        trial_wall = time.time() if tl is not None else 0.0
        execution = Execution(
            program,
            seed=seed,
            observers=self.observers,
            max_steps=self.max_steps,
            mem_filter=self.fast_mode_statements() if self.fast_mode else None,
        )
        execution.start()
        fuzz = FuzzResult(result=execution.result)
        # tid -> step at which it was postponed.  Entries are only ever
        # added at the current step by a thread not yet in it, so the
        # values never decrease in insertion order: the first entry is the
        # oldest (see _run_watchdog).
        postponed: dict[int, int] = {}
        # Threads released from `postponed` (lines 26-28 or the watchdog)
        # get a one-shot exemption so they "execute the remaining
        # statements" (the paper's Case 1 narrative) instead of being
        # re-postponed at the same statement forever.
        exempt: set[int] = set()
        spin = _SpinEvidence()  # per trial: fuzzers are reused across trials
        getrandbits = execution.rng.getrandbits
        # The enabled list `postponed` was last pruned against.  Every
        # thread postponed since came from that list, so while
        # schedulable() keeps returning it (the same object) every
        # postponed thread is still enabled and there is nothing to prune.
        pruned_for = None

        try:
            while True:
                enabled = execution.schedulable()
                if not enabled:
                    break
                if postponed:
                    self._run_watchdog(execution, postponed, exempt, fuzz)
                    if enabled is not pruned_for:
                        pruned_for = enabled
                        for tid in list(postponed):
                            if tid not in enabled:  # died or became blocked
                                del postponed[tid]
                    if postponed and spin.stalled(execution, postponed):
                        self._release_oldest(postponed, exempt, fuzz)
                        continue
                    choosable = [tid for tid in enabled if tid not in postponed]
                else:
                    choosable = enabled
                if not choosable:
                    # Lines 26-28: everyone is postponed; release one at random.
                    victim = sorted(postponed)[
                        randbelow(getrandbits, len(postponed))
                    ]
                    del postponed[victim]
                    exempt.add(victim)
                    fuzz.forced_releases += 1
                    continue
                tid = choosable[randbelow(getrandbits, len(choosable))]
                if self.is_target(execution, tid) and tid not in exempt:
                    rivals = self.conflicting(execution, tid, sorted(postponed))
                    if rivals:
                        self._resolve(execution, tid, rivals, postponed, fuzz)
                        spin.epoch += 1
                    else:
                        postponed[tid] = execution.step_count  # line 21
                        fuzz.postpones += 1
                        if len(postponed) > fuzz.postponed_high_water:
                            fuzz.postponed_high_water = len(postponed)
                else:
                    exempt.discard(tid)
                    self._execute_run(
                        execution, tid, postponed, exempt, fuzz, spin
                    )
        except ExecutionLimitExceeded:
            # The budget check in `schedulable()` catches most exhaustion,
            # but race resolution (lines 12/15-18) steps threads directly
            # and can hit the limit mid-burst.  A livelocked trial is a
            # *truncated* data point, never a campaign abort.
            execution.result.truncated = True

        execution.finish()
        m = maybe_registry()
        if m is not None:
            m.inc("fuzz.trials")
            if fuzz.created:
                m.inc("fuzz.trials_created")
            m.inc("fuzz.races_created", len(fuzz.hits))
            m.inc("fuzz.postpones", fuzz.postpones)
            m.inc("fuzz.coin_flips", fuzz.coin_flips)
            m.inc("fuzz.forced_releases", fuzz.forced_releases)
            m.inc("fuzz.watchdog_releases", fuzz.watchdog_releases)
            m.inc("fuzz.spin_releases", fuzz.spin_releases)
            m.gauge_max("fuzz.postponed_high_water", fuzz.postponed_high_water)
            m.observe(
                "fuzz.trial_wall_s", execution.result.wall_time,
                bounds=WALL_BUCKETS,
            )
        if tl is not None:
            # Identity is schedule-determined (target + seed + counters);
            # wall/duration ride along for Perfetto export only.
            tl.emit(
                "trial",
                (self.timeline_target() or program.name, seed),
                {
                    "created": len(fuzz.hits),
                    "postpones": fuzz.postpones,
                    "coin_flips": fuzz.coin_flips,
                    "forced": fuzz.forced_releases,
                    "watchdog": fuzz.watchdog_releases,
                },
                wall_s=trial_wall,
                dur_s=execution.result.wall_time,
            )
        return fuzz

    # --- internals -------------------------------------------------------- #

    def _resolve(
        self,
        execution: Execution,
        tid: int,
        rivals: list[int],
        postponed: dict[int, int],
        fuzz: FuzzResult,
    ) -> None:
        """Lines 8-19: report the created situation and resolve it randomly."""
        stmt = execution.next_stmt(tid)
        op = execution.next_op(tid)
        location_name = op.location.describe() if op.location is not None else "?"
        execute_arrival = self.resolve_arrival_first(execution, tid, rivals)
        fuzz.coin_flips += 1
        for rival in rivals:
            hit = TargetHit(
                step=execution.step_count,
                pair=StatementPair(stmt, execution.next_stmt(rival)),
                tids=(tid, rival),
                location_name=location_name,
                executed_arrival=execute_arrival,
            )
            fuzz.hits.append(hit)
            fuzz.pairs_created.add(hit.pair)
            self.on_hit(execution, hit)
        if execute_arrival:
            execution.step(tid)  # line 12; rivals stay postponed
        else:
            postponed[tid] = execution.step_count  # line 14
            fuzz.postpones += 1
            if len(postponed) > fuzz.postponed_high_water:
                fuzz.postponed_high_water = len(postponed)
            for rival in rivals:  # lines 15-18
                execution.step(rival)
                postponed.pop(rival, None)

    def _execute_run(
        self,
        execution: Execution,
        tid: int,
        postponed: dict[int, int],
        exempt: set[int],
        fuzz: FuzzResult,
        spin: _SpinEvidence,
    ) -> None:
        """Line 24, plus the sync-only preemption burst from Section 4."""
        # The burst loop runs once per step of every trial, observed or
        # not, so it fetches the thread state once instead of going
        # through is_enabled/next_op (a fetch each) per iteration.
        ts = execution.threads[tid]
        op = ts.pending
        execution.step(tid)
        if postponed:
            spin.observe(execution, ts, op)
        if self.preemption != "sync":
            return
        max_steps = self.max_steps
        is_target = self.is_target
        step = execution.step
        while execution.ops_executed < max_steps:
            # No enabledness check: a pending op that is not a sync op
            # (READ, WRITE, INTERRUPTED, CHECK) never blocks, and only a
            # RUNNABLE thread has one (WAIT and SLEEP, which park a
            # thread, stay pending while it is parked, and are sync ops).
            op = ts.pending
            if op is None or op.is_sync:
                return
            if is_target(execution, tid):
                return
            step(tid)
            if postponed:
                spin.observe(execution, ts, op)
                if (execution.step_count & 0x3F) == 0:
                    # Long uninterrupted bursts must not starve the watchdog
                    # (the paper's monitor thread runs concurrently; we poll).
                    self._run_watchdog(execution, postponed, exempt, fuzz)

    def _run_watchdog(
        self,
        execution: Execution,
        postponed: dict[int, int],
        exempt: set[int],
        fuzz: FuzzResult,
    ) -> None:
        """Section 4's livelock backstop: free threads postponed too long.

        ``postponed`` is ordered by postpone step, so the threads due are
        a prefix of it and only its first entry needs checking.
        """
        deadline = execution.step_count - self.patience
        while postponed:
            tid = next(iter(postponed))
            if postponed[tid] >= deadline:
                return
            del postponed[tid]
            exempt.add(tid)
            fuzz.watchdog_releases += 1

    @staticmethod
    def _release_oldest(
        postponed: dict[int, int], exempt: set[int], fuzz: FuzzResult
    ) -> None:
        """Spin-evidence release: free the longest-postponed thread(s)."""
        oldest = min(postponed.values())
        for tid in [tid for tid, since in postponed.items() if since == oldest]:
            del postponed[tid]
            exempt.add(tid)
            fuzz.watchdog_releases += 1
            fuzz.spin_releases += 1


class _SpinEvidence:
    """Progress evidence for one trial, kept while threads are postponed."""

    __slots__ = ("epoch", "counts", "reads", "arrivals", "spinning", "spun")

    def __init__(self) -> None:
        self.epoch = 0
        #: (live threads, postponed threads) at the last stall check.
        self.counts = (0, 0)
        #: tid -> shared READs it executed while the evidence was kept.
        self.reads: dict[int, int] = {}
        #: (tid, YIELD statement) -> (epoch, reads) at its last arrival there.
        self.arrivals: dict[tuple, tuple[int, int]] = {}
        #: tid -> the epoch in which its last YIELD arrival proved a spin.
        self.spinning: dict[int, int] = {}
        #: the last epoch in which any thread proved a spin.
        self.spun = -1

    def observe(self, execution: Execution, ts: ThreadState, op: Op) -> None:
        """Account one step of ``ts``, whose pending op was ``op``."""
        index = op.kind_index
        tid = ts.tid
        if index in _PROGRESS_INDICES:
            self.epoch += 1
        elif index == _READ_INDEX:
            self.reads[tid] = self.reads.get(tid, 0) + 1
        pending = ts.pending
        if pending is None or pending.kind is not _YIELD:
            return
        key = (tid, execution.next_stmt(tid))
        mark = (self.epoch, self.reads.get(tid, 0))
        last = self.arrivals.get(key)
        if last is not None and last[0] == mark[0] and last[1] < mark[1]:
            self.spinning[tid] = self.spun = self.epoch
        else:
            self.spinning.pop(tid, None)
        self.arrivals[key] = mark

    def stalled(self, execution: Execution, postponed: dict[int, int]) -> bool:
        """Can no live non-postponed thread progress without a postponed one?"""
        counts = (len(execution._live), len(postponed))
        if counts != self.counts:
            # A thread ended, started or changed sets: a new epoch, in which
            # nobody has proved a spin yet.
            self.counts = counts
            self.epoch += 1
            return False
        epoch = self.epoch
        if self.spun != epoch:
            return False  # the common case: no spinner in this epoch
        spinning = self.spinning
        enabled = execution._enabled
        spinner_enabled = False
        for ts in execution._live:
            tid = ts.tid
            if tid in postponed:
                continue
            status = ts.status
            if status is _SLEEPING or (status is _WAITING and ts.wake_at):
                return False  # time alone will let it progress
            if spinning.get(tid) == epoch:
                spinner_enabled = spinner_enabled or enabled(ts)
            elif enabled(ts):
                return False
            elif status is _RUNNABLE and ts.pending.blocking == 1:
                owner = execution.locks.monitor(ts.pending.lock).owner
                if owner not in postponed:
                    return False  # its lock can still be released
        return spinner_enabled
