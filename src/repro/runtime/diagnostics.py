"""Progress monitoring and deadlock diagnostics for the simulator.

A stuck node program is diagnosed by a *central wait-for audit*:

* every processor registers with the monitor when it parks on a
  receive (and deregisters when it wakes or exits);
* the transport reports every logical message's fate and the node
  program every receive it consumed;
* **true deadlock** is decided by the scheduler, which drives every
  rank: when no rank is runnable and draining every parked mailbox
  satisfies nobody, no message can ever arrive.  It then takes one
  :class:`DeadlockReport` from the monitor and fails every waiting
  rank with it.

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
    """One fail-stop crash observed by the machine."""

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

    Built by the machine after ``max_restarts`` restarts have been
    spent (or immediately, with ``max_restarts=0``): which processors
    died, when, how many restarts were attempted, and where each
    processor's last usable checkpoint sits -- everything an operator
    needs to size the checkpoint interval or the restart budget.
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

    Bookkeeping only: the scheduler, which drives every rank on one
    thread, decides when no rank can progress and asks for the report.
    """

    def __init__(self, machine) -> None:
        self.machine = machine
        self.reset()

    def reset(self) -> None:
        """Forget every rank's state and the send/recv audit."""
        self.blocked: Dict[Tuple[int, ...], tuple] = {}
        self.finished: set = set()
        self.failed: set = set()
        self._sends: List[tuple] = []  # (src, dest, tag, delivered)
        self._recvs: List[tuple] = []  # (dest, tag)

    # -- transport-side bookkeeping -----------------------------------------

    def record_send(self, src, dest, tag, delivered: bool) -> None:
        """One *logical* message's fate (after any retransmissions)."""
        self._sends.append((tuple(src), tuple(dest), tag, delivered))

    def deliver_envelope(self, dest, envelope) -> bool:
        """Enqueue one copy, or discard it when the destination already
        exited (finished, failed, or crashed): nobody would ever drain
        it."""
        dest = tuple(dest)
        if dest in self.finished:
            return False
        self.machine.procs[dest].mailbox.append(envelope)
        return True

    def record_recv(self, dest, tag) -> None:
        """The node program consumed a message."""
        self._recvs.append((tuple(dest), tag))

    # -- processor lifecycle -------------------------------------------------

    def block(self, myp: Tuple[int, ...], tag: tuple) -> None:
        """``myp`` is about to wait for ``tag``."""
        self.blocked[myp] = tag

    def unblock(self, myp: Tuple[int, ...]) -> None:
        self.blocked.pop(myp, None)

    def finish(self, myp: Tuple[int, ...], clean: bool = True) -> None:
        """``myp``'s node program exited (cleanly or with an error).
        Whatever is still in its mailbox will never be read, so it is
        dropped.  Idempotent."""
        self.blocked.pop(myp, None)
        self.finished.add(myp)
        if not clean:
            self.failed.add(myp)
        self.machine.procs[myp].mailbox.clear()

    # -- the report ----------------------------------------------------------

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
            in_flight=sum(
                len(proc.mailbox) for proc in self.machine.procs.values()
            ),
            sends_delivered=delivered_n,
            sends_dropped=dropped_n,
            recvs_completed=len(self._recvs),
            unmatched_sends=unmatched,
            dropped_sends=dropped,
        )
