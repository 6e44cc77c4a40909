"""Progress monitoring and deadlock diagnostics for the simulator.

A stuck node program is diagnosed by a *central wait-for audit*, the
standard distributed-runtime construction:

* every processor registers with the monitor when it parks on a
  receive (and deregisters when it wakes or exits);
* the machine reports every copy entering a mailbox
  (``deliver_envelope``) and every copy leaving one
  (``record_dequeued``), so the monitor tracks the global *in-flight*
  count exactly;
* **true deadlock** -- every live processor blocked in ``recv`` while
  the in-flight set is empty -- is therefore detectable the instant the
  last processor blocks, with no timers involved.  The monitor builds
  a structured :class:`DeadlockReport` and puts a poison pill in every
  blocked peer's mailbox, which the scheduler turns into failures.

The report carries what an operator actually needs: each processor's
model clock, the tag it is waiting for, what is sitting unread in its
stash, and a global send/recv audit (which deliveries were never
consumed, which sends the network dropped outright).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "CrashError",
    "CrashEvent",
    "CrashReport",
    "DeadlockError",
    "DeadlockReport",
    "ProcSnapshot",
    "ProgressMonitor",
    "WAKE",
]


class DeadlockError(Exception):
    """The node program cannot make progress.

    Carries the progress monitor's :class:`DeadlockReport` as
    ``.report`` (``None`` only when raised without one).
    """

    def __init__(self, message: str, report: "DeadlockReport | None" = None):
        if report is not None:
            message = f"{message}\n{report.format()}"
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class CrashEvent:
    """One fail-stop crash observed by the supervision loop."""

    myp: Tuple[int, ...]
    model_time: float
    op_index: int
    incarnation: int
    cause: str  # 'scheduled' | 'random'

    def describe(self) -> str:
        return (
            f"processor {self.myp} died at t={self.model_time:g} "
            f"(op {self.op_index}, incarnation {self.incarnation}, "
            f"{self.cause})"
        )


@dataclass
class CrashReport:
    """Structured post-mortem when crash recovery gives up.

    Built by the machine's supervision loop after ``max_restarts``
    rollbacks have been spent (or immediately, with
    ``max_restarts=0``): which processors died, when, how many
    restarts were attempted, and where each processor's last usable
    checkpoint sits -- everything an operator needs to size the
    checkpoint interval or the restart budget.
    """

    events: List[CrashEvent]
    restarts_attempted: int
    max_restarts: int
    #: per-processor (checkpoint op index, checkpoint model time)
    checkpoints: Dict[Tuple[int, ...], Tuple[int, float]]
    checkpoints_taken: int

    @property
    def dead(self) -> List[Tuple[int, ...]]:
        """Coordinates of every processor that crashed, in event order."""
        return [event.myp for event in self.events]

    def format(self, max_items: int = 8) -> str:
        lines = [
            f"crash report: {len(self.events)} fail-stop crash(es), "
            f"{self.restarts_attempted}/{self.max_restarts} restart(s) "
            f"spent, {self.checkpoints_taken} checkpoint(s) taken"
        ]
        for event in self.events[:max_items]:
            lines.append(f"  {event.describe()}")
        if len(self.events) > max_items:
            lines.append(f"  ... (+{len(self.events) - max_items})")
        for myp in sorted(self.checkpoints):
            pc, clock = self.checkpoints[myp]
            lines.append(
                f"  processor {myp}: last checkpoint at op {pc}, "
                f"t={clock:.1f}"
            )
        return "\n".join(lines)


class CrashError(Exception):
    """Crash recovery gave up: the run cannot be completed.

    Raised by the machine after a fail-stop crash when the restart
    budget is exhausted (graceful degradation: a structured report
    instead of a hang, a deadlock, or a raw processor death).  Carries
    the :class:`CrashReport` as ``.report``.
    """

    def __init__(self, message: str, report: "CrashReport | None" = None):
        if report is not None:
            message = f"{message}\n{report.format()}"
        super().__init__(message)
        self.report = report


class _WakeSignal:
    """Poison pill pushed into blocked mailboxes on deadlock."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<deadlock wake signal>"


#: singleton instance; the scheduler checks identity against it.
WAKE = _WakeSignal()


@dataclass
class ProcSnapshot:
    """One processor's state at diagnosis time."""

    myp: Tuple[int, ...]
    clock: float
    state: str  # 'blocked' | 'finished' | 'failed' | 'running'
    waiting_tag: Optional[tuple]
    stash_tags: List[tuple]


@dataclass
class DeadlockReport:
    """Structured description of a no-progress state."""

    procs: List[ProcSnapshot]
    in_flight: int
    sends_delivered: int
    sends_dropped: int
    recvs_completed: int
    #: delivered (src, dest, tag) triples the destination never recv'd
    unmatched_sends: List[Tuple[Tuple[int, ...], Tuple[int, ...], tuple]]
    #: (src, dest, tag) triples the network dropped on every attempt
    dropped_sends: List[Tuple[Tuple[int, ...], Tuple[int, ...], tuple]]

    @property
    def blocked(self) -> List[ProcSnapshot]:
        return [p for p in self.procs if p.state == "blocked"]

    @property
    def pending_tags(self) -> Dict[Tuple[int, ...], tuple]:
        return {p.myp: p.waiting_tag for p in self.blocked}

    def format(self, max_items: int = 8) -> str:
        lines = [
            f"deadlock audit: {len(self.blocked)} processor(s) blocked in "
            f"recv, {self.in_flight} message(s) in flight"
        ]
        for snap in sorted(self.procs, key=lambda s: s.myp):
            stash = ", ".join(map(str, snap.stash_tags[:max_items]))
            if len(snap.stash_tags) > max_items:
                stash += f", ... (+{len(snap.stash_tags) - max_items})"
            desc = (
                f"  processor {snap.myp}: clock={snap.clock:.1f} "
                f"state={snap.state}"
            )
            if snap.state == "blocked":
                desc += f" waiting-on={snap.waiting_tag}"
            desc += f" stash=[{stash}]"
            lines.append(desc)
        lines.append(
            f"  audit: {self.sends_delivered} delivered, "
            f"{self.recvs_completed} received, "
            f"{self.sends_dropped} dropped by the network"
        )
        for label, triples in (
            ("delivered but never received", self.unmatched_sends),
            ("dropped by the network", self.dropped_sends),
        ):
            if not triples:
                continue
            lines.append(f"  {label}:")
            for src, dest, tag in triples[:max_items]:
                lines.append(f"    {src} -> {dest} tag={tag}")
            if len(triples) > max_items:
                lines.append(f"    ... (+{len(triples) - max_items})")
        return "\n".join(lines)


class ProgressMonitor:
    """Central wait-for audit over one :class:`~.machine.Machine` run.

    The scheduler drives every rank on one thread, so each mutation and
    the deadlock test that could follow from it run back to back.
    """

    def __init__(self, machine) -> None:
        self.machine = machine
        self.reset(total=None)

    def reset(self, total: Optional[int]) -> None:
        """Arm the monitor for a run of ``total`` processors (``None``
        disables detection: bookkeeping only, e.g. manual harnesses)."""
        self.total = total
        self.blocked: Dict[Tuple[int, ...], tuple] = {}
        self.finished: set = set()
        self.failed: set = set()
        self.in_flight = 0
        #: set once a true deadlock is proven (WAKE pills pushed)
        self.deadlocked = False
        self.report: Optional[DeadlockReport] = None
        self._sends: List[tuple] = []  # (src, dest, tag, delivered)
        self._recvs: List[tuple] = []  # (dest, tag)

    # -- transport-side bookkeeping -----------------------------------------

    def record_send(self, src, dest, tag, delivered: bool) -> None:
        """One *logical* message's fate (after any retransmissions)."""
        self._sends.append((tuple(src), tuple(dest), tag, delivered))

    def deliver_envelope(self, dest, envelope) -> bool:
        """Count and enqueue one copy, or discard it when the
        destination already exited (finished, failed, or crashed): a
        copy parked forever in a mailbox nobody drains would blind the
        deadlock detector (``in_flight`` never returns to 0)."""
        dest = tuple(dest)
        if dest in self.finished:
            return False
        self.in_flight += 1
        self.machine.procs[dest].mailbox.put(envelope)
        return True

    def record_dequeued(self) -> None:
        """A physical copy left a mailbox (stashed or dedup-dropped)."""
        self.in_flight -= 1

    def record_recv(self, dest, tag) -> None:
        """The node program consumed a message."""
        self._recvs.append((tuple(dest), tag))

    # -- processor lifecycle -------------------------------------------------

    def block(self, myp: Tuple[int, ...], tag: tuple) -> None:
        """``myp`` is about to wait for ``tag``; may diagnose deadlock."""
        self.blocked[myp] = tag
        self._check()

    def unblock(self, myp: Tuple[int, ...]) -> None:
        self.blocked.pop(myp, None)

    def finish(self, myp: Tuple[int, ...], clean: bool = True) -> None:
        """``myp``'s node program exited (cleanly or with an error); a
        death can complete a deadlock for the survivors, so re-check.

        The processor's mailbox is drained: whatever is still parked
        there will never be dequeued, so it must leave the in-flight
        count for the deadlock test to stay exact (this is what lets a
        crashed processor's unread messages complete a deadlock
        diagnosis for the survivors instantly).
        """
        self.blocked.pop(myp, None)
        self.finished.add(myp)
        if not clean:
            self.failed.add(myp)
        self._drain(myp)
        self._check()

    def replace_proc(self, myp, fresh) -> None:
        """Swap in a freshly restored incarnation of ``myp`` (local
        recovery).  The old incarnation's mailbox is drained first --
        every copy parked there is also in the sender log and will be
        re-injected by the caller -- so each copy stays counted
        exactly once."""
        self._drain(myp)
        self.machine.procs[myp] = fresh

    def _drain(self, myp: Tuple[int, ...]) -> None:
        proc = self.machine.procs.get(myp)
        if proc is None:
            return
        for item in proc.mailbox.drain():
            if item is not WAKE:
                self.in_flight -= 1

    # -- detection -----------------------------------------------------------

    def _check(self) -> None:
        if self.total is None or self.deadlocked:
            return
        if not self.blocked or self.in_flight != 0:
            return
        if len(self.blocked) + len(self.finished) < self.total:
            return  # somebody is still computing
        self.report = self.build_report()
        self.deadlocked = True
        for myp in self.blocked:
            self.machine.procs[myp].mailbox.put(WAKE)

    def build_report(self) -> DeadlockReport:
        """Snapshot of every processor and the send/recv audit."""
        received = {(d, t) for d, t in self._recvs}
        unmatched, dropped = [], []
        delivered_n = dropped_n = 0
        for src, dest, tag, delivered in self._sends:
            if delivered:
                delivered_n += 1
                if (dest, tag) not in received:
                    unmatched.append((src, dest, tag))
            else:
                dropped_n += 1
                dropped.append((src, dest, tag))
        procs = []
        for myp, proc in self.machine.procs.items():
            if myp in self.blocked:
                state = "blocked"
            elif myp in self.failed:
                state = "failed"
            elif myp in self.finished:
                state = "finished"
            else:
                state = "running"
            procs.append(
                ProcSnapshot(
                    myp=myp,
                    clock=proc.clock,
                    state=state,
                    waiting_tag=self.blocked.get(myp),
                    stash_tags=sorted(proc._stash, key=repr),
                )
            )
        return DeadlockReport(
            procs=procs,
            in_flight=self.in_flight,
            sends_delivered=delivered_n,
            sends_dropped=dropped_n,
            recvs_completed=len(self._recvs),
            unmatched_sends=unmatched,
            dropped_sends=dropped,
        )
