"""Operation descriptors — the instruction set of the abstract machine.

A simulated thread is a Python generator that *yields* :class:`Op` values;
the interpreter executes each op and sends the result back into the
generator.  Everything between two yields is thread-local, atomic, and
invisible to other threads (the 3-address-code discipline of the paper:
shared state is touched only through ops, one location per op).

The yielded-but-not-yet-executed op of a thread is exactly the paper's
``NextStmt(s, t)``: the scheduler can inspect its statement identity, its
dynamic memory location, and whether it writes — which is all that
Algorithm 2's ``Racing()`` needs — *before* committing to execute it.

Construct ops through the module-level helpers (``read``, ``write``,
``lock`` ...) or, more conveniently, through the sugar classes in
:mod:`repro.runtime.sugar`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable

from .location import Location, LockId


class OpKind(enum.Enum):
    """Discriminator for operation descriptors."""

    READ = "read"
    WRITE = "write"
    LOCK = "lock"
    UNLOCK = "unlock"
    WAIT = "wait"
    NOTIFY = "notify"
    NOTIFY_ALL = "notify_all"
    SPAWN = "spawn"
    JOIN = "join"
    SLEEP = "sleep"
    INTERRUPT = "interrupt"
    INTERRUPTED = "interrupted"  # poll-and-clear, like Thread.interrupted()
    YIELD = "yield"  # pure scheduling point (Thread.yield / local step)
    CHECK = "check"  # assertion; raises AssertionViolation when false
    REACQUIRE = "reacquire"  # internal: woken waiter re-entering the monitor

    # Per-member metadata (set below, after MEM_KINDS/SYNC_KINDS exist):
    #   index    dense 0..N-1 position, the key of every per-kind table
    #            (handler dispatch, metrics tallies) — one list index
    #            instead of an enum hash per executed op.
    #   mem/write/sync
    #            classification flags copied onto each Op at construction.
    #   block    how enabledness is decided for a pending op of this kind:
    #            0 = always enabled, 1 = needs the lock free/reentrant,
    #            2 = needs the join target dead.
    #   reschedules
    #            executing an op of this kind can change enabledness beyond
    #            the stepping thread's next op (lock state, wait sets, sleep
    #            deadlines, new threads), so it invalidates the
    #            interpreter's cached enabled list.


#: Kinds that access shared memory (candidates for racing pairs).
MEM_KINDS = frozenset({OpKind.READ, OpKind.WRITE})

#: Kinds that are synchronization operations — the preemption points of the
#: sync-only scheduling mode (Section 4, citing Musuvathi & Qadeer).
SYNC_KINDS = frozenset(
    {
        OpKind.LOCK,
        OpKind.UNLOCK,
        OpKind.WAIT,
        OpKind.NOTIFY,
        OpKind.NOTIFY_ALL,
        OpKind.SPAWN,
        OpKind.JOIN,
        OpKind.SLEEP,
        OpKind.INTERRUPT,
        OpKind.YIELD,
        OpKind.REACQUIRE,
    }
)

#: Kinds whose execution can enable or disable threads other than through
#: the stepping thread's next op.  JOIN, READ, WRITE and the rest change
#: enabledness only through that next op.
RESCHEDULING_KINDS = frozenset(
    {
        OpKind.LOCK,
        OpKind.UNLOCK,
        OpKind.WAIT,
        OpKind.NOTIFY,
        OpKind.NOTIFY_ALL,
        OpKind.SPAWN,
        OpKind.SLEEP,
        OpKind.INTERRUPT,
        OpKind.REACQUIRE,
    }
)


#: ``OpKind`` members in declaration order; ``KIND_VALUES[k.index]`` is
#: ``k.value`` (used when folding int-indexed tallies back into metrics).
KIND_VALUES = tuple(kind.value for kind in OpKind)

for _index, _kind in enumerate(OpKind):
    _kind.index = _index
    _kind.mem = _kind in MEM_KINDS
    _kind.write = _kind is OpKind.WRITE
    _kind.sync = _kind in SYNC_KINDS
    if _kind in (OpKind.LOCK, OpKind.REACQUIRE):
        _kind.block = 1
    elif _kind is OpKind.JOIN:
        _kind.block = 2
    else:
        _kind.block = 0
    _kind.reschedules = _kind in RESCHEDULING_KINDS
    _kind.flags = (
        _kind.index, _kind.mem, _kind.write, _kind.sync, _kind.block,
        _kind.reschedules,
    )
del _index, _kind


@dataclass(slots=True)
class Op:
    """One abstract-machine operation, yielded by a simulated thread.

    Only the fields relevant to ``kind`` are populated.  ``label`` optionally
    overrides the auto-derived statement identity (see
    :mod:`repro.runtime.statement`).
    """

    kind: OpKind
    location: Location | None = None
    value: Any = None  # WRITE: value to store
    default: Any = None  # READ: value if the location was never written
    lock: LockId | None = None
    target: Any = None  # JOIN/INTERRUPT: ThreadHandle or tid
    func: Callable[..., Any] | None = None  # SPAWN: generator function
    args: tuple = ()
    name: str | None = None  # SPAWN: thread name
    duration: int = 0  # SLEEP: ticks
    condition: bool = True  # CHECK: the asserted condition
    message: str = ""  # CHECK: failure message
    label: str | None = None
    reacquire_count: int = field(default=0, repr=False)  # REACQUIRE internal
    # Derived fields, resolved once at construction (was: a property call
    # plus frozenset membership test per query, several times per step).
    kind_index: int = field(init=False, repr=False, compare=False)
    is_mem: bool = field(init=False, repr=False, compare=False)
    is_write: bool = field(init=False, repr=False, compare=False)
    is_sync: bool = field(init=False, repr=False, compare=False)
    blocking: int = field(init=False, repr=False, compare=False)
    reschedules: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # One attribute read + a C-level unpack per constructed op.
        (
            self.kind_index, self.is_mem, self.is_write, self.is_sync,
            self.blocking, self.reschedules,
        ) = self.kind.flags

    def describe(self) -> str:
        """Short human-readable rendering for traces and error messages."""
        k = self.kind.value
        if self.is_mem:
            return f"{k} {self.location}"
        if self.lock is not None:
            return f"{k} {self.lock}"
        if self.kind is OpKind.SPAWN:
            return f"spawn {self.name or getattr(self.func, '__name__', '?')}"
        if self.kind is OpKind.JOIN:
            return f"join {self.target}"
        if self.kind is OpKind.SLEEP:
            return f"sleep {self.duration}"
        if self.kind is OpKind.CHECK:
            return f"check {self.message or self.condition}"
        return k


def read(location: Location, default: Any = None, label: str | None = None) -> Op:
    """Read a shared location; the executed op sends the value back."""
    return Op(OpKind.READ, location=location, default=default, label=label)


def write(location: Location, value: Any, label: str | None = None) -> Op:
    """Write ``value`` to a shared location."""
    return Op(OpKind.WRITE, location=location, value=value, label=label)


def lock(lock_id: LockId, label: str | None = None) -> Op:
    """Acquire a reentrant monitor (blocks while another thread holds it)."""
    return Op(OpKind.LOCK, lock=lock_id, label=label)


def unlock(lock_id: LockId, label: str | None = None) -> Op:
    """Release a monitor held by the current thread."""
    return Op(OpKind.UNLOCK, lock=lock_id, label=label)


def wait(lock_id: LockId, timeout: int | None = None, label: str | None = None) -> Op:
    """Java-style ``wait``: release the (held) monitor and park on its wait set.

    With a positive ``timeout`` (abstract ticks) the thread wakes on its own
    at the deadline and re-contends for the monitor, exactly like
    ``Object.wait(long)``; without one it parks until notified or
    interrupted.
    """
    if timeout is not None and timeout <= 0:
        raise ValueError("wait timeout must be positive (or None for untimed)")
    return Op(OpKind.WAIT, lock=lock_id, duration=timeout or 0, label=label)


def notify(lock_id: LockId, label: str | None = None) -> Op:
    """Wake one waiter of the (held) monitor, if any."""
    return Op(OpKind.NOTIFY, lock=lock_id, label=label)


def notify_all(lock_id: LockId, label: str | None = None) -> Op:
    """Wake every waiter of the (held) monitor."""
    return Op(OpKind.NOTIFY_ALL, lock=lock_id, label=label)


def spawn(func: Callable[..., Any], *args: Any, name: str | None = None,
          label: str | None = None) -> Op:
    """Start a new thread running ``func(*args)``; sends back a ThreadHandle."""
    return Op(OpKind.SPAWN, func=func, args=args, name=name, label=label)


def join(target: Any, label: str | None = None) -> Op:
    """Block until the target thread terminates."""
    return Op(OpKind.JOIN, target=target, label=label)


def sleep(ticks: int, label: str | None = None) -> Op:
    """Sleep for ``ticks`` abstract time units (1 tick = 1 executed op)."""
    return Op(OpKind.SLEEP, duration=ticks, label=label)


def interrupt(target: Any, label: str | None = None) -> Op:
    """Interrupt the target thread (wakes it from wait/sleep with an error)."""
    return Op(OpKind.INTERRUPT, target=target, label=label)


def interrupted(label: str | None = None) -> Op:
    """Poll-and-clear the current thread's interrupt flag; sends back a bool."""
    return Op(OpKind.INTERRUPTED, label=label)


def yield_point(label: str | None = None) -> Op:
    """A pure scheduling point; executes no shared effect.

    The paper's Figure 2 pads thread bodies with many statements to make the
    race hard to hit for passive schedulers — ``yield_point`` is how our
    programs model those filler statements.
    """
    return Op(OpKind.YIELD, label=label)


def check(condition: bool, message: str = "", label: str | None = None) -> Op:
    """Assert a condition; raises ``AssertionViolation`` in the thread if false.

    This models the paper's ``ERROR`` statements: reaching the statement with
    a falsified condition is the observable "harmful race" outcome.
    """
    return Op(OpKind.CHECK, condition=condition, message=message, label=label)
