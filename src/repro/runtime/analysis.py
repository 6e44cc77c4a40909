"""Trace analyses: comm matrices, makespan decomposition, critical path.

Everything here is a pure function of a :class:`~.trace.TraceBuffer`
(plus, for cross-checks, the run's :class:`~.machine.ProcStats`); the
analyses never touch the machine.  Three views of one run:

* :func:`comm_matrix` -- who talked to whom: per-(sender, receiver)
  message/word/retransmission counts.  Totals reconcile exactly with
  ``ProcStats`` (``messages_sent``/``words_sent`` per sender,
  ``messages_received``/``words_received`` per receiver) -- the
  invariant suite asserts it on every workload.
* :func:`decompose` -- where each processor's time went: compute,
  send overhead, receive overhead, blocked-on-recv, transport recovery
  (retransmission timers, injected stalls), checkpointing, recovery.
  The buckets sum *exactly* to the processor's finish clock (every
  clock mutation in the runtime is charged to exactly one bucket).
* :func:`critical_path` -- the longest weighted chain of events
  through send->recv edges.  In a fault-free run the chain's length
  equals the reported makespan exactly: the Lamport recurrence
  ``clock = max(clock + overhead, arrival)`` means every processor's
  finish time is witnessed by a contiguous chain of charges reaching
  back to model time zero, hopping to the sender wherever a receive
  was arrival-limited.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from .trace import MACHINE_RANK, TraceBuffer, TraceEvent, match_messages

__all__ = [
    "CommEdge",
    "CommMatrix",
    "CriticalPath",
    "Decomposition",
    "comm_matrix",
    "critical_path",
    "decompose",
    "summarize",
    "unmatched_receives",
]

Rank = Tuple[int, ...]


# ---------------------------------------------------------------------------
# communication matrix
# ---------------------------------------------------------------------------


@dataclass
class CommEdge:
    """Traffic on one directed (sender, receiver) channel."""

    messages: int = 0
    words: int = 0
    retransmissions: int = 0
    retransmitted_words: int = 0
    dropped: int = 0
    #: wire copies the fault plan corrupted (the receiver's checksum
    #: verification discarded them; matches the sender's
    #: ``ProcStats.corruptions_injected`` on self-checking transports)
    corrupted: int = 0


@dataclass
class CommMatrix:
    """Per-(sender, receiver) communication totals for one run.

    ``messages``/``words`` count **logical** sends (what the node
    program paid ``alpha + beta*words`` for, dropped or not), matching
    the sender's ``ProcStats.messages_sent``/``words_sent`` exactly;
    ARQ retransmissions are tallied separately, matching
    ``ProcStats.retransmissions``.
    """

    edges: Dict[Tuple[Rank, Rank], CommEdge] = field(default_factory=dict)

    def edge(self, src: Rank, dest: Rank) -> CommEdge:
        return self.edges.setdefault((tuple(src), tuple(dest)), CommEdge())

    def sent_by(self, rank: Rank) -> CommEdge:
        """Aggregate over everything ``rank`` sent."""
        out = CommEdge()
        for (src, _dest), e in self.edges.items():
            if src == tuple(rank):
                out.messages += e.messages
                out.words += e.words
                out.retransmissions += e.retransmissions
                out.retransmitted_words += e.retransmitted_words
                out.dropped += e.dropped
                out.corrupted += e.corrupted
        return out

    def received_words(self, trace: TraceBuffer, rank: Rank) -> Tuple[int, int]:
        """(messages, words) actually consumed by ``rank``'s receives."""
        msgs = words = 0
        for ev in trace.per_rank(rank):
            if ev.kind == "recv-complete":
                msgs += 1
                words += ev.words
        return msgs, words

    @property
    def total_messages(self) -> int:
        return sum(e.messages for e in self.edges.values())

    @property
    def total_words(self) -> int:
        return sum(e.words for e in self.edges.values())

    @property
    def total_retransmissions(self) -> int:
        return sum(e.retransmissions for e in self.edges.values())

    @property
    def total_corrupted(self) -> int:
        return sum(e.corrupted for e in self.edges.values())

    def format(self) -> str:
        if not self.edges:
            return "communication matrix: empty (no messages)"
        lines = ["communication matrix (sender -> receiver):"]
        header = (
            f"  {'from':>8} {'to':>8} {'msgs':>6} {'words':>8} "
            f"{'retrans':>8} {'dropped':>8} {'corrupt':>8}"
        )
        lines.append(header)
        for (src, dest), e in sorted(self.edges.items()):
            lines.append(
                f"  {str(src):>8} {str(dest):>8} {e.messages:>6} "
                f"{e.words:>8} {e.retransmissions:>8} {e.dropped:>8} "
                f"{e.corrupted:>8}"
            )
        lines.append(
            f"  total: {self.total_messages} messages, "
            f"{self.total_words} words, "
            f"{self.total_retransmissions} retransmissions, "
            f"{self.total_corrupted} corrupted copies"
        )
        return "\n".join(lines)


def comm_matrix(trace: TraceBuffer) -> CommMatrix:
    """Build the per-(sender, receiver) traffic matrix from the trace."""
    matrix = CommMatrix()
    for ev in trace.events():
        if ev.kind in ("send", "put"):
            e = matrix.edge(ev.rank, ev.peer)
            e.messages += 1
            e.words += ev.words
            if ev.note == "dropped":
                e.dropped += 1
            elif ev.note.startswith("corrupted"):
                e.corrupted += 1
        elif ev.kind == "retransmit":
            e = matrix.edge(ev.rank, ev.peer)
            e.retransmissions += 1
            e.retransmitted_words += ev.words
            if ev.note == "dropped":
                e.dropped += 1
            elif ev.note.startswith("corrupted"):
                e.corrupted += 1
    return matrix


# ---------------------------------------------------------------------------
# makespan decomposition
# ---------------------------------------------------------------------------


@dataclass
class Decomposition:
    """One processor's finish clock, split into exhaustive buckets.

    Each bucket mirrors one ``ProcStats`` time counter; the runtime
    charges every clock mutation to exactly one of them, so
    ``total()`` equals the processor's finish clock exactly (the
    accounting-audit test asserts this on every workload and fault
    scenario).
    """

    compute: float = 0.0
    #: sender-side software overhead: alpha + beta*words per message,
    #: including the full cost of every ARQ retransmission
    send_overhead: float = 0.0
    #: receiver-side software overhead (``recv_overhead`` per message)
    recv_overhead: float = 0.0
    #: blocked in recv waiting for data that had not arrived yet
    blocked_on_recv: float = 0.0
    #: one-sided window synchronization (``fence_time`` per fenced
    #: receive in early-put programs; replaces ``recv_overhead`` there)
    fence: float = 0.0
    #: ARQ retransmission timers (stop-and-wait RTO waits)
    timeout: float = 0.0
    #: fault-injected transient stalls
    fault_stall: float = 0.0
    checkpoint: float = 0.0
    #: crash recovery: failure detection + restart penalty + reload,
    #: plus waiting for the crash instant (per restart)
    recovery: float = 0.0
    #: explicit ``Processor.tick`` charges (hand-written harnesses)
    tick: float = 0.0

    def total(self) -> float:
        return sum(getattr(self, f.name) for f in fields(self))

    @classmethod
    def from_stats(cls, stats) -> "Decomposition":
        """The decomposition as the runtime accounted it."""
        return cls(
            compute=stats.compute_time,
            send_overhead=stats.send_time,
            recv_overhead=stats.recv_time,
            blocked_on_recv=stats.stall_time,
            fence=stats.fence_time,
            timeout=stats.timeout_time,
            fault_stall=stats.fault_stall_time,
            checkpoint=stats.checkpoint_time,
            recovery=stats.recovery_time,
            tick=stats.tick_time,
        )

    @classmethod
    def from_trace(cls, trace: TraceBuffer, rank: Rank) -> "Decomposition":
        """The decomposition recomputed from ``rank``'s event spans.

        Equal to :meth:`from_stats` in fault-free runs; under crashes
        the trace additionally contains the aborted incarnations' lost
        work (which :meth:`from_stats`, rebuilt from the surviving
        timeline, does not re-count).
        """
        out = cls()
        for ev in trace.per_rank(rank):
            if ev.kind == "compute":
                out.compute += ev.duration
            elif ev.kind in ("send", "put", "multicast", "retransmit"):
                out.send_overhead += ev.duration
            elif ev.kind == "recv-complete":
                if ev.note == "fence":
                    out.fence += ev.overhead
                else:
                    out.recv_overhead += ev.overhead
                out.blocked_on_recv += ev.duration - ev.overhead
            elif ev.kind == "fence-wait":
                # explicit transport-level fences span their charge;
                # fenced receives carry theirs on recv-complete
                out.fence += ev.duration
            elif ev.kind == "timeout":
                out.timeout += ev.duration
            elif ev.kind == "stall":
                out.fault_stall += ev.duration
            elif ev.kind == "checkpoint":
                out.checkpoint += ev.duration
            elif ev.kind == "restart":
                out.recovery += ev.duration
            elif ev.kind == "tick":
                out.tick += ev.duration
        return out

    def format(self, label: str = "") -> str:
        parts = [
            (f.name.replace("_", " "), getattr(self, f.name))
            for f in fields(self)
        ]
        body = ", ".join(f"{name} {value:g}" for name, value in parts if value)
        return f"{label}total {self.total():g}: {body or 'idle'}"


def decompose(result) -> Dict[Rank, Decomposition]:
    """Per-processor makespan decomposition of a :class:`RunResult`."""
    return {
        myp: Decomposition.from_stats(stats)
        for myp, stats in sorted(result.stats.items())
    }


# ---------------------------------------------------------------------------
# critical path
# ---------------------------------------------------------------------------


@dataclass
class CriticalPath:
    """The longest chain of charges that determines the makespan.

    ``length`` is the finish clock the chain reaches;  ``chain`` lists
    the spanning events on the path in time order, hopping processors
    at arrival-limited receives.  ``complete`` records that the chain
    was walked all the way back to model time zero (always true for
    fault-free runs; a crashed run's clock jumps are explained by
    ``restart`` events, which the walk also traverses).
    """

    length: float
    chain: List[TraceEvent]
    complete: bool

    def by_kind(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for ev in self.chain:
            out[ev.kind] = out.get(ev.kind, 0.0) + ev.duration
        return out

    def format(self) -> str:
        lines = [
            f"critical path: length {self.length:g} over "
            f"{len(self.chain)} events"
            + ("" if self.complete else " (incomplete walk)")
        ]
        hops = sum(
            1
            for a, b in zip(self.chain, self.chain[1:])
            if a.rank != b.rank
        )
        lines.append(f"  processor hops: {hops}")
        for kind, total in sorted(
            self.by_kind().items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"  {kind:>14}: {total:g}")
        return "\n".join(lines)


def critical_path(trace: TraceBuffer) -> CriticalPath:
    """Extract the longest send->recv weighted chain from a trace.

    Every clock charge in the runtime is a spanning event, and charges
    on one processor are contiguous (each starts where the previous
    ended), so the finish clock of each processor equals the end of
    its last spanning event.  Starting from the globally latest event,
    the walk repeatedly asks *what determined this event's start?*:

    * an arrival-limited receive (``end == arrival > start + overhead``)
      was determined by its matching send -- hop to the sender;
    * otherwise the previous spanning charge on the same processor;
    * model time zero terminates the walk.

    The chain's endpoint is the makespan; fault-free, this is exact
    (asserted workload-by-workload in the invariant suite).
    """
    spanning: Dict[Rank, List[TraceEvent]] = {}
    for rank in trace.proc_ranks():
        evs = [e for e in trace.per_rank(rank) if e.duration > 0]
        if evs:
            spanning[rank] = evs
    if not spanning:
        return CriticalPath(length=0.0, chain=[], complete=True)

    send_of: Dict[int, TraceEvent] = {
        id(recv): send for send, recv in match_messages(trace)
    }
    # the event that *ends* a processor's timeline at a given clock:
    # later emission wins (zero-span markers are already excluded)
    ends: Dict[Tuple[Rank, float], TraceEvent] = {}
    for rank, evs in spanning.items():
        for ev in evs:
            ends[(rank, ev.end)] = ev

    tail_rank = max(spanning, key=lambda r: (spanning[r][-1].end, r))
    ev: Optional[TraceEvent] = spanning[tail_rank][-1]
    length = ev.end
    chain: List[TraceEvent] = []
    complete = False
    seen = set()
    while ev is not None:
        if id(ev) in seen:  # defensive: malformed trace, avoid spinning
            break
        seen.add(id(ev))
        chain.append(ev)
        if (
            ev.kind == "recv-complete"
            and ev.arrival is not None
            and ev.end == ev.arrival
            and ev.duration > ev.overhead
            and id(ev) in send_of
        ):
            # the receiver sat blocked: the sender's chain governs
            ev = send_of[id(ev)]
            continue
        if ev.start == 0.0:
            complete = True
            break
        ev = ends.get((ev.rank, ev.start))
    chain.reverse()
    return CriticalPath(length=length, chain=chain, complete=complete)


# ---------------------------------------------------------------------------
# audits + CLI summary
# ---------------------------------------------------------------------------


def unmatched_receives(trace: TraceBuffer) -> List[TraceEvent]:
    """Receives with no matching send -- always empty for machine runs
    (a consumed payload must have been sent); useful when auditing
    hand-assembled traces."""
    matched = {id(recv) for _send, recv in match_messages(trace)}
    return [
        ev
        for ev in trace.by_kind("recv-complete")
        if id(ev) not in matched
    ]


def summarize(result) -> str:
    """Human-readable analysis of a traced run (CLI ``--trace-summary``)."""
    trace = result.trace
    if trace is None:
        return "no trace recorded (run with tracing enabled)"
    lines: List[str] = []
    counts = trace.counts()
    lines.append(
        f"trace: {len(trace)} events over "
        f"{len(trace.proc_ranks())} processors ("
        + ", ".join(f"{k} {v}" for k, v in sorted(counts.items()))
        + ")"
    )
    if getattr(result, "wall_seconds", 0) > 0:
        nranks = max(1, len(result.clocks))
        lines.append(
            f"throughput: {result.sim_events} simulated events, "
            f"{result.events_per_sec:,.0f} events/sec, "
            f"{result.sched_wakeups / nranks:.1f} wakeups per rank"
        )
    if getattr(result, "restarts", 0) > 0 or getattr(
        result, "crash_events", None
    ):
        lines.append(
            f"resilience: {result.restarts} restart(s), "
            f"{len(result.crash_events)} crash(es), "
            f"work wasted {result.work_wasted:g}, "
            f"sender log peak {getattr(result, 'log_bytes_peak', 0)} bytes"
        )
    lines.append(comm_matrix(trace).format())
    lines.append("makespan decomposition:")
    for myp, deco in decompose(result).items():
        lines.append(f"  proc {myp}: {deco.format()}")
    lines.append(critical_path(trace).format())
    return "\n".join(lines)
