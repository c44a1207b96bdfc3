"""RaceFuzzer — Algorithms 1 and 2 of the paper.

Given a *racing pair of statements* ``(s1, s2)`` from Phase 1, the fuzzer
executes the program under a random scheduler that postpones any thread
about to execute a statement in ``{s1, s2}`` until a second thread arrives
at a statement in the pair whose next access touches the *same dynamic
memory location*, with at least one of the two accesses being a write.  At
that point a **real race** has been created (reported with no possibility
of a false positive, since the two accesses are temporally adjacent), and
the race is resolved by a fair coin so that both orders of the racing
statements are explored across seeds.

Typical use::

    fuzzer = RaceFuzzer(pair)           # pair from HybridRaceDetector
    outcome = fuzzer.run(program, seed=42)
    outcome.created        # True -> the pair is a real race
    outcome.crashes        # exceptions caused by resolving the race
    outcome.deadlock       # real deadlock discovered (Algorithm 1, line 31)

Replaying ``run(program, seed=42)`` reproduces the identical execution —
the engine owns all non-determinism and draws it from the seed.
"""

from __future__ import annotations

from typing import Iterable

from repro.obs.timeline import pair_label
from repro.runtime.interpreter import Execution
from repro.runtime.statement import Statement, StatementPair

from .postponing import FuzzResult, PostponingDriver, TargetHit


class RaceFuzzer(PostponingDriver):
    """Race-directed active random scheduler (the paper's Algorithm 1)."""

    def __init__(
        self,
        race_set: StatementPair | Iterable[Statement],
        *,
        preemption: str = "sync",
        patience: int = 400,
        max_steps: int = 1_000_000,
        observers=(),
        fast_mode: bool = False,
    ) -> None:
        super().__init__(
            preemption=preemption,
            patience=patience,
            max_steps=max_steps,
            observers=observers,
            fast_mode=fast_mode,
        )
        if isinstance(race_set, StatementPair):
            statements: set[Statement] = {race_set.first, race_set.second}
            self._timeline_target = pair_label(race_set)
        else:
            statements = set(race_set)
            self._timeline_target = "|".join(
                sorted(str(s.site) for s in statements)
            )
        if not statements:
            raise ValueError("RaceFuzzer needs a non-empty racing statement set")
        self.race_set = frozenset(statements)
        #: is_target's answer per raw (id(code), offset) yield site.
        self._site_hits: dict[tuple[int, int], bool] = {}

    def timeline_target(self) -> str:
        """Timeline identity of this fuzzer's trials: the pair label
        (``site|site``), stable across processes and runs."""
        return self._timeline_target

    def fast_mode_statements(self):
        """Fast mode keeps MemEvents only for the racing statements.

        Postponing/resolution logic reads ops and statements directly (never
        through events), so verdicts are identical in either mode; only
        observers see fewer MemEvents.  See INTERNALS "Interpreter fast
        path" for what is and is not suppressed.
        """
        return self.race_set

    # --- Algorithm 1, line 6 -------------------------------------------- #

    def is_target(self, execution: Execution, tid: int) -> bool:
        """Line 6 of Algorithm 1: is the thread's next statement in the
        racing pair (and a memory access)?

        Probed on every step of the sync-preemption burst loop, so it
        reads the thread state directly and remembers its answer per raw
        ``(code, offset)`` yield site: a site seen before costs one dict
        probe and no Statement lookup.
        """
        ts = execution.threads.get(tid)
        if ts is None:
            return False
        op = ts.pending
        if op is None or not op.is_mem:
            return False
        code = ts.stmt_code
        if code is None:  # labelled op: its Statement is already interned
            return ts.pending_stmt in self.race_set
        # id(code) is safe as a key: interning the Statement below keeps
        # the code object alive, so its id is never reused.
        key = (id(code), ts.stmt_offset)
        hit = self._site_hits.get(key)
        if hit is None:
            hit = self._site_hits[key] = execution._stmt(ts) in self.race_set
        return hit

    # --- Algorithm 2 ------------------------------------------------------ #

    def conflicting(
        self, execution: Execution, tid: int, postponed: list[int]
    ) -> list[int]:
        """``Racing(s, t, postponed)``: postponed threads whose next
        statement accesses the same dynamic location as ``tid``'s next
        statement, with at least one write."""
        op = execution.next_op(tid)
        rivals = []
        for other in postponed:
            other_op = execution.next_op(other)
            if other_op is None or not other_op.is_mem:
                continue
            if other_op.location != op.location:
                continue
            if not (op.is_write or other_op.is_write):
                continue
            rivals.append(other)
        return rivals


def fuzz_pair(
    program,
    pair: StatementPair,
    seeds: Iterable[int],
    **kwargs,
) -> list[FuzzResult]:
    """Run RaceFuzzer once per seed for one racing pair.

    This is the paper's experimental unit: "we ran RaceFuzzer 100 times for
    each racing pair of statements" (Section 5.2).  Pass ``fast_mode=True``
    to suppress MemEvent emission for statements outside the pair (sync and
    thread events are unaffected; verdicts are identical either way).
    """
    fuzzer = RaceFuzzer(pair, **kwargs)
    return [fuzzer.run(program, seed=seed) for seed in seeds]


__all__ = ["RaceFuzzer", "fuzz_pair", "FuzzResult", "TargetHit"]
