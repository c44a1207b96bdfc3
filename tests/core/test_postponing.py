"""The Algorithm 1 main loop: postponement, releases, watchdog, deadlocks."""

from repro.core import RaceFuzzer
from repro.core.postponing import FuzzResult, PostponingDriver
from repro.runtime import (
    Lock,
    Program,
    SharedVar,
    join_all,
    ops,
    spawn_all,
)
from repro.runtime.statement import Statement, StatementPair
import pytest


class TestForcedRelease:
    def test_lone_postponed_thread_is_released_and_completes(self):
        """Figure 1 Case 1: a thread postponed at a racing statement whose
        partner never arrives must be released (line 27) and 'execute the
        remaining statements'."""

        def factory():
            x = SharedVar("x", 0)

            def only():
                yield x.write(1, label="racy")
                yield x.write(2, label="after")

            def main():
                handle = yield ops.spawn(only)
                yield ops.join(handle)

            return main()

        pair = StatementPair(Statement(label="racy"), Statement(label="nowhere"))
        fuzzer = RaceFuzzer(pair, max_steps=10_000)
        outcome = fuzzer.run(Program(factory), seed=0)
        assert not outcome.created
        assert not outcome.result.truncated
        assert not outcome.result.deadlock
        assert outcome.forced_releases >= 1

    def test_release_does_not_permanently_exempt(self):
        """After a forced release executes one statement, a later arrival at
        the racing statement must be postponed again (and can then race)."""

        def factory():
            x = SharedVar("x", 0)

            def repeat_writer():
                for _ in range(5):
                    yield x.write(1, label="w")

            def reader():
                for _ in range(5):
                    yield ops.yield_point()
                yield x.read(label="r")

            def main():
                handles = yield from spawn_all([repeat_writer, reader])
                yield from join_all(handles)

            return main()

        pair = StatementPair(Statement(label="w"), Statement(label="r"))
        created = sum(
            RaceFuzzer(pair, max_steps=10_000).run(Program(factory), seed=s).created
            for s in range(10)
        )
        assert created >= 8  # nearly every run should still create the race


SET_FLAG = StatementPair(Statement(label="set-flag"), Statement(label="other"))


def flag_program(waiter):
    """A setter whose write of ``flag`` is the postponed target statement,
    and a ``waiter(flag)`` thread that waits for it."""

    def factory():
        flag = SharedVar("flag", 0)

        def setter():
            yield flag.write(1, label="set-flag")

        def main():
            handles = yield from spawn_all([setter, lambda: waiter(flag)])
            yield from join_all(handles)

        return main()

    return Program(factory)


def yield_spinner(flag):
    while (yield flag.read()) == 0:
        yield ops.yield_point()


class TestWatchdog:
    def test_watchdog_frees_thread_blocked_behind_spin_loop(self):
        """The moldyn livelock pattern: one thread spins on a flag that only
        the postponed thread can set.  The watchdog must unwedge it."""
        fuzzer = RaceFuzzer(SET_FLAG, patience=100, max_steps=50_000)
        outcome = fuzzer.run(flag_program(yield_spinner), seed=0)
        assert not outcome.result.truncated
        assert not outcome.result.deadlock
        assert outcome.watchdog_releases >= 1

    def test_spin_evidence_releases_long_before_patience(self):
        """A read-then-yield poll is spin evidence: the setter is released
        as soon as the spin is seen, not after ``patience=400`` steps."""
        for seed in range(5):
            outcome = RaceFuzzer(SET_FLAG).run(flag_program(yield_spinner), seed=seed)
            assert not outcome.result.truncated
            assert outcome.result.steps < 100
            assert outcome.spin_releases >= 1
            assert outcome.spin_releases <= outcome.watchdog_releases

    def test_yield_padding_without_reads_is_not_a_spin(self):
        """A straight run of YIELDs reads nothing: it is progress toward
        the end of the loop, so the setter waits until the padder is done
        and lines 26-28 release it."""

        def padder(flag):
            for _ in range(60):
                yield ops.yield_point()

        for seed in range(5):
            outcome = RaceFuzzer(SET_FLAG).run(flag_program(padder), seed=seed)
            assert outcome.spin_releases == 0
            assert outcome.watchdog_releases == 0
            assert outcome.forced_releases >= 1
            assert outcome.result.steps > 60

    def test_looping_writer_is_progress_not_a_spin(self):
        """A read-write-yield loop looks like a poll but writes: every write
        opens a new progress epoch, so the postponed thread waits for the
        partner the writer eventually lets through, and the race is made."""

        def factory():
            count, target = SharedVar("count", 0), SharedVar("target", 0)

            def early():
                yield target.write(1, label="early")

            def counter():
                for _ in range(10):
                    value = yield count.read()
                    yield count.write(value + 1)
                    yield ops.yield_point()

            def late():
                while (yield count.read()) < 10:
                    yield ops.yield_point()
                yield target.write(2, label="late")

            def main():
                handles = yield from spawn_all([early, counter, late])
                yield from join_all(handles)

            return main()

        pair = StatementPair(Statement(label="early"), Statement(label="late"))
        for seed in range(5):
            outcome = RaceFuzzer(pair).run(Program(factory), seed=seed)
            assert outcome.created
            assert outcome.spin_releases == 0

    def test_sleep_polling_takes_the_forced_release(self):
        """SLEEP is no spin point: a sleeping poller leaves only postponed
        threads enabled, which is the lines 26-28 forced release."""

        def sleep_poller(flag):
            while (yield flag.read()) == 0:
                yield ops.sleep(3)

        for seed in range(5):
            outcome = RaceFuzzer(SET_FLAG).run(flag_program(sleep_poller), seed=seed)
            assert not outcome.result.truncated
            assert outcome.forced_releases >= 1
            assert outcome.spin_releases == 0

    def test_thread_blocked_on_a_spinners_lock_prevents_release(self):
        """A thread blocked on a lock the spinner holds could run once the
        spinner lets go, so it is no evidence: only the backstop fires."""

        def locked_spinner(flag):
            guard = Lock("guard")

            def contender():
                yield guard.acquire()
                yield guard.release()

            yield guard.acquire()
            handle = yield ops.spawn(contender)
            yield from yield_spinner(flag)
            yield guard.release()
            yield ops.join(handle)

        for seed in range(5):
            outcome = RaceFuzzer(SET_FLAG, patience=100).run(
                flag_program(locked_spinner), seed=seed
            )
            assert not outcome.result.truncated
            assert outcome.spin_releases == 0
            assert outcome.watchdog_releases >= 1

    def test_livelock_without_a_yield_ends_through_patience(self):
        """A poll with no YIELD in it shows no spin evidence; ``patience``
        is the backstop that still ends it."""

        def lock_poller(flag):
            guard = Lock("guard")
            while True:
                yield guard.acquire()
                value = yield flag.read()
                yield guard.release()
                if value:
                    return

        for seed in range(5):
            outcome = RaceFuzzer(SET_FLAG, patience=100).run(
                flag_program(lock_poller), seed=seed
            )
            assert not outcome.result.truncated
            assert outcome.spin_releases == 0
            assert outcome.watchdog_releases >= 1
            assert outcome.result.steps > 100


class TestResolution:
    def test_both_resolution_orders_occur_across_seeds(self):
        def factory():
            x = SharedVar("x", 0)

            def writer():
                yield x.write(1, label="W")

            def reader():
                yield x.read(label="R")

            def main():
                handles = yield from spawn_all([writer, reader])
                yield from join_all(handles)

            return main()

        pair = StatementPair(Statement(label="W"), Statement(label="R"))
        arrivals = set()
        for seed in range(30):
            outcome = RaceFuzzer(pair).run(Program(factory), seed=seed)
            if outcome.created:
                arrivals.add(outcome.hits[0].executed_arrival)
        assert arrivals == {True, False}

    def test_multiple_readers_in_r_set(self):
        """Algorithm 2: R can contain several postponed readers; resolving
        against them reports one hit per rival."""

        def factory():
            x = SharedVar("x", 0)

            def reader():
                yield x.read(label="R")

            def writer():
                for _ in range(6):
                    yield ops.yield_point()
                yield x.write(1, label="W")

            def main():
                handles = yield from spawn_all([reader, reader, writer])
                yield from join_all(handles)

            return main()

        pair = StatementPair(Statement(label="W"), Statement(label="R"))
        multi = 0
        for seed in range(30):
            outcome = RaceFuzzer(pair).run(Program(factory), seed=seed)
            if len(outcome.hits) >= 2 and len({h.step for h in outcome.hits}) == 1:
                multi += 1
        assert multi >= 1, "never saw a multi-rival resolution"

    def test_same_statement_self_race_detected(self):
        """Two threads at the SAME statement writing one location race."""

        def factory():
            x = SharedVar("x", 0)

            def writer():
                yield x.write(1, label="W")

            def main():
                handles = yield from spawn_all([writer, writer])
                yield from join_all(handles)

            return main()

        stmt = Statement(label="W")
        outcomes = [
            RaceFuzzer(StatementPair(stmt, stmt)).run(Program(factory), seed=s)
            for s in range(10)
        ]
        assert all(o.created for o in outcomes)
        assert all(o.pairs_created == {StatementPair(stmt, stmt)} for o in outcomes)


class TestDriverValidation:
    def test_rejects_bad_preemption(self):
        with pytest.raises(ValueError):
            RaceFuzzer(
                StatementPair(Statement(label="a"), Statement(label="b")),
                preemption="never",
            )

    def test_base_class_hooks_are_abstract(self):
        driver = PostponingDriver()
        with pytest.raises(NotImplementedError):
            driver.is_target(None, 0)
        with pytest.raises(NotImplementedError):
            driver.conflicting(None, 0, [])

    def test_fuzzresult_str(self):
        def factory():
            def main():
                yield ops.yield_point()

            return main()

        pair = StatementPair(Statement(label="a"), Statement(label="b"))
        outcome = RaceFuzzer(pair).run(Program(factory), seed=0)
        assert "0 hit(s)" in str(outcome)
        assert isinstance(outcome, FuzzResult)


class TestDeadlockReporting:
    def test_fuzzer_surfaces_engine_deadlock(self):
        def factory():
            a, b = Lock("A"), Lock("B")

            def forward():
                yield a.acquire()
                yield ops.yield_point()
                yield b.acquire()

            def backward():
                yield b.acquire()
                yield ops.yield_point()
                yield a.acquire()

            def main():
                handles = yield from spawn_all([forward, backward])
                yield from join_all(handles)

            return main()

        pair = StatementPair(Statement(label="x"), Statement(label="y"))
        deadlocked = sum(
            RaceFuzzer(pair).run(Program(factory), seed=s).deadlock
            for s in range(20)
        )
        assert deadlocked == 20  # neither thread ever releases
