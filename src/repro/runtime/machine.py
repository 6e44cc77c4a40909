"""A deterministic distributed-memory machine simulator.

Substitute for the paper's Intel iPSC/860: P processors, each with a
private address space, exchanging point-to-point messages.  Each
processor runs the generated SPMD node program as a coroutine driven
by one deterministic :class:`~.scheduler.Scheduler`; channels are
tagged mailboxes, and time is modeled with per-processor Lamport
clocks under a LogGP-like cost model:

* ``flop_time`` per scalar operation executed;
* ``alpha`` per message at the sender (software overhead);
* ``beta`` per word (inverse bandwidth);
* ``latency`` wire time until the message is available;
* ``recv_overhead`` at the receiver.

A receive sets ``clock = max(clock + recv_overhead, arrival)`` -- the
receiver stalls until the data exist.  The makespan (max final clock)
reproduces exactly the phenomena Figure 14 measures: communication
overhead, pipeline stalls, and overlap of communication with
computation.

Reliability layers (see DESIGN.md "Runtime reliability"):

* messages travel through one :class:`~.transport.Transport` whose
  mode is fixed at construction (`direct` = the historical
  exactly-once channel, `unreliable` = a fault-injected raw network,
  `reliable` = ack/retransmit ARQ that survives the faults,
  `onesided` = the same ARQ traced as puts);
* faults come from a deterministic :class:`~.faults.FaultPlan`;
* the scheduler detects true deadlock (no rank runnable, every parked
  mailbox drained, nobody satisfied) the moment it happens and reports
  it with a :class:`~.diagnostics.ProgressMonitor` audit;
* **fail-stop crashes** (``FaultPlan.crash_rate`` / ``crashes``) kill a
  processor mid-program; the scheduler restarts only that processor
  from its last :mod:`~.checkpoint` snapshot, re-serves its messages
  from the sender log, replays deterministically, and gives up with a
  structured :class:`~.diagnostics.CrashError` once ``max_restarts``
  is spent.
"""

from __future__ import annotations

import dataclasses
import inspect
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..decomp import DataDecomp, ProcSpace
from ..ir import Program, allocate_arrays
from .checkpoint import CheckpointPolicy, CheckpointStore
from .diagnostics import (
    CrashError,
    CrashEvent,
    CrashReport,
    DeadlockError,
    ProgressMonitor,
)
from .faults import FaultPlan, ProcessorCrashed
from .scheduler import Scheduler
from .trace import TraceBuffer, TraceEvent
from .transport import (
    MODES,
    CorruptionError,
    Envelope,
    OneSidedTransport,
    Transport,
    copy_payload,
)

try:  # Python >= 3.11
    _ExceptionGroup = BaseExceptionGroup
except NameError:  # pragma: no cover - Python 3.10 fallback
    _ExceptionGroup = None


@dataclass
class CostModel:
    """Per-operation costs in abstract time units.

    Defaults approximate the iPSC/860's ratios: message startup is a
    few hundred flops, per-word cost a handful of flops.
    """

    flop_time: float = 1.0
    alpha: float = 400.0
    beta: float = 4.0
    latency: float = 100.0
    recv_overhead: float = 100.0
    #: cost per local array word written to (or reloaded from) stable
    #: storage by the checkpoint subsystem
    checkpoint_word_time: float = 2.0
    #: fixed cost of detecting a crash and restarting a processor
    #: (failure-detector latency + reboot), charged once per restart
    restart_penalty: float = 2000.0
    #: per-word cost of computing/verifying a payload checksum when
    #: self-checking transports are active; defaults to free so arming
    #: checksums never perturbs existing model-time goldens unless the
    #: user explicitly prices them
    checksum_word_time: float = 0.0
    #: cost of a one-sided window fence (the synchronization point that
    #: makes delivered puts locally visible).  Charged per fenced
    #: receive in early-put programs *instead of* ``recv_overhead`` --
    #: a fence is a local epoch check, not a per-message software
    #: rendezvous, which is exactly the overlap win §7 claims.  Free by
    #: default so existing goldens are unperturbed
    fence_time: float = 0.0


@dataclass(slots=True)
class ProcStats:
    messages_sent: int = 0
    words_sent: int = 0
    messages_received: int = 0
    flops: int = 0
    compute_time: float = 0.0
    stall_time: float = 0.0
    multicasts: int = 0
    # -- decomposition completeness (added with the tracing subsystem):
    # every clock mutation lands in exactly one time bucket, so the
    # buckets sum to the processor's finish clock (see
    # ``analysis.Decomposition``)
    #: sender-side software overhead (alpha + beta*words per message,
    #: retransmissions included)
    send_time: float = 0.0
    #: receiver-side software overhead (recv_overhead per message)
    recv_time: float = 0.0
    words_received: int = 0
    #: explicit ``Processor.tick`` charges
    tick_time: float = 0.0
    #: crash-recovery clock jumps applied to this processor (failure
    #: detection + restart penalty + snapshot reload, per restart)
    recovery_time: float = 0.0
    # -- reliability-layer accounting (all zero on the default path) --------
    retransmissions: int = 0
    duplicates_sent: int = 0
    duplicates_dropped: int = 0
    acks_lost: int = 0
    messages_lost: int = 0
    timeout_time: float = 0.0
    fault_stall_time: float = 0.0
    #: payload copies the fault plan flipped a word in, counted at the
    #: *sender* (every wire copy, retransmissions included)
    corruptions_injected: int = 0
    #: checksum-failing copies this receiver discarded (ARQ transports;
    #: the clean retransmission arrives later)
    corrupt_dropped: int = 0
    # -- crash-tolerance accounting ------------------------------------------
    checkpoints: int = 0
    checkpoint_time: float = 0.0
    # -- one-sided window accounting (zero off the onesided path) -----------
    #: one-sided remote window writes issued (first attempts; the ARQ's
    #: retransmissions stay in ``retransmissions``)
    puts: int = 0
    #: local window reads (one per fenced receive / explicit ``get``)
    gets: int = 0
    #: window synchronization points waited at
    fences: int = 0
    #: model time spent at fences (``CostModel.fence_time`` per fenced
    #: receive, plus the checksum portion when self-checking is priced)
    fence_time: float = 0.0


@dataclass
class RunResult:
    arrays: Dict[Tuple[int, ...], Dict[str, np.ndarray]]
    stats: Dict[Tuple[int, ...], ProcStats]
    makespan: float
    total_messages: int
    total_words: int
    #: number of crashed ranks restarted from their last snapshot
    restarts: int = 0
    #: model time spent recovering, summed over restarts (failure
    #: detection, restart penalty, snapshot reload, lost work)
    recovery_time: float = 0.0
    #: checkpoints taken by the policy (the free pc=0 baseline excluded)
    checkpoints: int = 0
    #: every fail-stop crash observed, in order
    crash_events: List[CrashEvent] = field(default_factory=list)
    #: snapshots recovery rejected because their digest no longer
    #: matched (storage corruption); recovery fell back to older cuts
    snapshots_rejected: int = 0
    #: per-processor finish clocks (``makespan`` is their max)
    clocks: Dict[Tuple[int, ...], float] = field(default_factory=dict)
    #: the run's event trace when tracing was enabled, else None
    trace: Optional[TraceBuffer] = None
    #: wall-clock seconds the run took (all incarnations)
    wall_seconds: float = 0.0
    #: total node-program operations executed (the loop-cursor sum) --
    #: the "events" of the events/sec throughput metric
    sim_events: int = 0
    #: scheduler wakeups (coroutine resumes) across incarnations
    sched_wakeups: int = 0
    #: model time of completed work discarded by crashes: for every
    #: restart, the distance from the crashed rank's cut to the clock
    #: it had reached when it died
    work_wasted: float = 0.0
    #: high-water mark of the sender-side message log, in bytes
    #: (volatile sender memory held for localized recovery)
    log_bytes_peak: int = 0

    @property
    def events_per_sec(self) -> float:
        """Simulator throughput: model events per wall-clock second."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.sim_events / self.wall_seconds

    def stat_sum(self, attr: str) -> float:
        return sum(getattr(s, attr) for s in self.stats.values())


class Processor:
    """One physical processor executing a node program.

    Every node-program operation (compute, send, multicast, receive)
    advances ``_pc``, the processor's **loop cursor** -- a deterministic
    operation index the checkpoint subsystem uses as its snapshot
    coordinate.  After a crash the processor is rebuilt with
    ``_ff_target`` set to its snapshot's cursor: operations up to the
    target are *fast-forwarded* (computes and sends are suppressed,
    receives are satisfied from the receive log), the snapshot is
    applied in place the instant the cursor reaches the target, and
    execution continues live from there -- deterministically identical
    to the original timeline (see :mod:`repro.runtime.checkpoint`).
    """

    def __init__(
        self,
        machine: "Machine",
        myp: Tuple[int, ...],
        arrays: Dict[str, np.ndarray],
    ):
        self.machine = machine
        self.myp = myp
        self.arrays = arrays
        self.params: Dict[str, int] = dict(machine.params)
        self.pdims = machine.pshape
        self.clock = 0.0
        self.stats = ProcStats()
        #: incoming wire copies, oldest first
        self.mailbox: deque = deque()
        self._stash: Dict[tuple, Tuple[List[float], float]] = {}
        self._mc_cache: Dict[tuple, List[float]] = {}
        self._stmts = {s.name: s for s in machine.program.statements()}
        # reliability-layer state: per-destination sequence counters at
        # the sender, per-source seen-sequence sets at the receiver,
        # adaptive per-channel retransmission-timer state
        self._next_seq: Dict[Tuple[int, ...], int] = {}
        self._seen_seqs: set = set()
        self._arq_rto: Dict[Tuple[int, ...], float] = {}
        # crash-tolerance state (see class docstring)
        self._pc = 0
        self._ff_target = 0
        self._replay_idx = 0
        self._incarnation = 0
        self._resume_clock = 0.0
        store = machine.checkpoints
        interval = store.policy.interval if store is not None else None
        self._next_cp_time = (
            interval if interval is not None else float("inf")
        )
        plan = machine.fault_plan
        #: this rank's scheduled crash time, resolved once per
        #: incarnation; None when there is none or it already fired (a
        #: restarted rank does not re-die at the same scheduled instant)
        self._crash_at = (
            plan.scheduled_crash(myp)
            if plan is not None and myp not in machine._fired_crashes
            else None
        )

    # -- node program API ---------------------------------------------------

    def stmt(self, name: str):
        """Resolve a statement once (hoisted out of emitted hot loops)."""
        return self._stmts[name]

    def execute_stmt(self, stmt, env: Mapping[str, int]) -> None:
        """Execute one statement instance.

        ``env`` must already contain the machine parameters; generated
        code keeps one pre-merged environment dict per node program and
        mutates only the iteration variables.  The instance runs through
        the statement's generated kernel (:meth:`Statement.kernel`).
        """
        if self._advance():
            return
        self._maybe_crash(comm=False)
        stmt.kernel()(self.arrays, env)
        flops = 1 + len(stmt.reads)
        self.stats.flops += flops
        cost = flops * self.machine.cost.flop_time
        start = self.clock
        self.clock += cost
        self.stats.compute_time += cost
        trace = self.machine.trace
        if trace is not None:
            trace.emit(TraceEvent(
                kind="compute", rank=self.myp, start=start, end=self.clock,
                stmt=stmt.name, incarnation=self._incarnation,
            ))
        self._after_op()

    def execute_block(
        self,
        stmt,
        var: str,
        lo: int,
        hi: int,
        env: Dict[str, int],
        step: int = 1,
        gather: bool = True,
    ) -> None:
        """Execute ``stmt`` for ``var`` = lo, lo+step, ..., <= hi in
        *segments*, each one runtime call: a numpy
        gather-compute-scatter (``gather=True``) or the statement's
        range kernel, which runs the iterations in ascending order.

        The emitter passes ``gather=True`` only for loops it proved free
        of read-after-write hazards along ``var`` (see DESIGN.md §10).
        That proof holds on every contiguous sub-range too, so each
        gathered segment is element-for-element identical to the
        ascending scalar loop, and the state between two segments --
        what a checkpoint snapshots mid-block -- is the scalar state
        after the same operations.  A range-kernel segment *is* the
        scalar loop, so it needs no proof.

        A segment ends at the next operation whose per-op bookkeeping is
        observable, where :meth:`_after_op` runs as on the scalar path:
        the fast-forward replay cut (suppressed operations are skipped
        in O(1), and :meth:`_advance` restores on the cut), a checkpoint
        coming due, or this rank's scheduled crash time.  Random crash
        draws, stalls and receive-log replay happen only at
        communication calls, so a fault-free block is one segment.
        Blocks shorter than 4, and statements whose ``fn`` is not
        vector-safe (``Statement.vector_fn`` hook, probed once and
        cached), run range-kernel segments even when ``gather`` is set.
        """
        if hi < lo:
            return
        n = (hi - lo) // step + 1
        gather = (
            gather and n >= 4 and self._vector_safe(stmt, var, lo, step, env)
        )
        skip = min(n, self._ff_target - self._pc)
        if skip > 0:
            self._pc += skip - 1
            self._advance()
            lo += skip * step
        cost = (1 + len(stmt.reads)) * self.machine.cost.flop_time
        span = self._compute_span if gather else self._range_span
        while lo <= hi:
            # count the segment's first operation, then run its pre-op
            # crash check; inside a segment nothing moves the clock
            # between operations, so each later pre-check equals the
            # previous operation's post-check, done once in _after_op
            self._pc += 1
            self._maybe_crash(comm=False)
            k = self._segment_ops(cost, (hi - lo) // step + 1)
            self._pc += k - 1
            span(stmt, var, lo, k, step, env, cost)
            lo += k * step
            self._after_op()

    def _segment_ops(self, cost: float, limit: int) -> int:
        """How many of the next ``limit`` compute operations, each
        charged ``cost``, run up to and including the first whose
        post-op bookkeeping takes a checkpoint or fires this rank's
        scheduled crash.  The cursor already counts the first one."""
        k = limit
        store = self.machine.checkpoints
        if store is not None and store.policy.every_ops is not None:
            every = store.policy.every_ops
            k = min(k, every - (self._pc - 1) % every)
        deadline = self._next_cp_time
        if self._crash_at is not None and self._crash_at < deadline:
            deadline = self._crash_at
        if deadline == float("inf"):
            return k
        # walk the clock as the charge advances it, so the crossing
        # is the operation the scalar path would stop at
        j = 1
        clock = self.clock + cost
        while j < k and clock < deadline:
            clock += cost
            j += 1
        return j

    def _compute_span(self, stmt, var, lo, n, step, env, cost) -> None:
        """One vectorized segment: ``n`` iterations from ``lo``, traced
        as one spanning ``compute`` event."""
        venv = dict(env)
        venv[var] = np.arange(lo, lo + n * step, step)
        # with ``var`` an index vector, the statement kernel is the
        # gather-compute-scatter: fancy-indexed reads, numpy arithmetic,
        # one fancy-indexed store
        stmt.kernel()(self.arrays, venv)
        start = self.clock
        self._charge(stmt, n, cost)
        trace = self.machine.trace
        if trace is not None:
            # one spanning event per segment: same decomposition as n
            # scalar compute events, one record
            trace.emit(TraceEvent(
                kind="compute", rank=self.myp, start=start, end=self.clock,
                stmt=stmt.name, count=n, incarnation=self._incarnation,
            ))

    def _range_span(self, stmt, var, lo, n, step, env, cost) -> None:
        """One range-kernel segment: ``n`` scalar iterations from
        ``lo`` in one call, traced as the scalar path traces them, one
        ``compute`` event per operation."""
        stmt.range_kernel(var)(self.arrays, env, lo, lo + n * step, step)
        trace = self.machine.trace
        if trace is None:
            self._charge(stmt, n, cost)
            return
        for _ in range(n):
            start = self.clock
            self._charge(stmt, 1, cost)
            trace.emit(TraceEvent(
                kind="compute", rank=self.myp, start=start, end=self.clock,
                stmt=stmt.name, incarnation=self._incarnation,
            ))

    def _charge(self, stmt, n, cost) -> None:
        """Charge ``n`` compute operations of ``stmt``.  Flops,
        ``compute_time`` and the clock move in closed form while the
        sums stay exact integers, else per step in the scalar path's
        float order."""
        stats = self.stats
        stats.flops += (1 + len(stmt.reads)) * n
        clock = self.clock
        ctime = stats.compute_time
        if (
            float(cost).is_integer()
            and clock.is_integer()
            and ctime.is_integer()
        ):
            # n float additions of an integer to an integer stay exact,
            # so one multiply-add agrees with them bit for bit
            clock += cost * n
            ctime += cost * n
        else:  # accumulate in the scalar path's order
            for _ in range(n):
                clock += cost
                ctime += cost
        self.clock = clock
        stats.compute_time = ctime

    def _vector_safe(self, stmt, var, lo, step, env) -> bool:
        verdict = stmt.vector_fn
        if verdict is None:
            verdict = self._probe_vector_fn(stmt, var, lo, step, env)
            stmt.vector_fn = verdict
        return bool(verdict)

    def _probe_vector_fn(self, stmt, var, lo, step, env) -> bool:
        """Does ``stmt.fn`` map elementwise over numpy blocks?

        Runs the block's first two iterations both ways (without
        writing) and demands bitwise-equal results; opaque scalar
        functions (``math.*`` calls, data-dependent branches) raise or
        diverge on the size-2 array and pin the scalar loop.
        """
        arrays = self.arrays
        penv = dict(env)
        scalar = []
        try:
            for k in range(2):
                penv[var] = lo + k * step
                vals = [
                    arrays[a.array.name][a.evaluate(penv)]
                    for a in stmt.reads
                ]
                scalar.append(stmt.fn(vals, penv))
            penv[var] = lo + np.arange(2) * step
            vals = [
                arrays[a.array.name][a.evaluate(penv)] for a in stmt.reads
            ]
            out = np.asarray(stmt.fn(vals, penv))
            if out.shape not in ((), (2,)):
                return False
            return bool(
                np.array_equal(
                    np.broadcast_to(out, (2,)),
                    np.asarray(scalar, dtype=np.float64),
                    equal_nan=True,
                )
            )
        except Exception:
            return False

    def send(self, dest: Tuple[int, ...], tag: tuple, payload: List[float]):
        if self._advance():
            return
        self._maybe_crash()
        self._maybe_stall()
        trace = self.machine.trace
        if trace is not None:
            # the shipped cost models fold marshalling into alpha/beta,
            # so pack is a zero-span marker at the send boundary
            trace.emit(TraceEvent(
                kind="pack", rank=self.myp, start=self.clock, end=self.clock,
                tag=tag, peer=tuple(dest), words=len(payload),
                incarnation=self._incarnation,
            ))
        self.machine.transport.send(self, dest, tag, payload)
        self._after_op()

    def multicast(
        self,
        dests: List[Tuple[int, ...]],
        tag: tuple,
        payload: List[float],
    ) -> None:
        """Optimized multi-cast: one startup, per-destination wire cost."""
        if self._advance():
            return
        self._maybe_crash()
        self._maybe_stall()
        trace = self.machine.trace
        if trace is not None and dests:
            trace.emit(TraceEvent(
                kind="pack", rank=self.myp, start=self.clock, end=self.clock,
                tag=tag, words=len(payload), count=len(dests),
                incarnation=self._incarnation,
            ))
        self.machine.transport.multicast(self, dests, tag, payload)
        self._after_op()

    def put(self, dest: Tuple[int, ...], tag: tuple, payload: List[float]):
        """One-sided remote window write.

        An alias of :meth:`send`: the transport owns the put semantics
        (the onesided transport's ARQ makes the window update reliable
        and exactly-once, tracing it with the ``put`` kind), and on a
        two-sided transport the emitted early-put program degrades to
        plain sends -- which is exactly the bit-exactness oracle the
        conformance matrix checks.
        """
        self.send(dest, tag, payload)

    # -- receive halves (the scheduler decides when each runs) ---------------
    #
    # A node program yields ``('recv', src, tag)``; ``src`` is advisory
    # (kept for readable generated code) -- the tag alone identifies the
    # message, since it embeds the virtual sender.

    def _recv_prologue(
        self, tag: Optional[tuple] = None, fenced: bool = False
    ):
        """The pre-wait half of a receive: loop-cursor advance, replay
        fast path, crash/stall checks.  Returns the replayed payload
        during fast-forward, None when the receive must run live.
        ``fenced`` marks a one-sided early-put consumption: the wait
        marker becomes a ``fence-wait`` (the program is waiting at a
        window synchronization point, not a per-message rendezvous)."""
        if self._advance():
            return self.machine.checkpoints.replay_recv(self)
        self._maybe_crash()
        self._maybe_stall()
        trace = self.machine.trace
        if trace is not None:
            # the wait begins here, at a deterministic model clock
            trace.emit(TraceEvent(
                kind="fence-wait" if fenced else "recv-wait",
                rank=self.myp, start=self.clock,
                end=self.clock, tag=tag, incarnation=self._incarnation,
            ))
        return None

    def _recv_accept(self, envelope: Envelope) -> None:
        """Account one dequeued envelope into the stash (dedup-aware).

        Checksum verification runs *before* the dedup seen-set insert:
        if a corrupted copy claimed its sequence number, the clean
        retransmission that follows would be discarded as a duplicate
        and the channel would wedge.
        """
        machine = self.machine
        if not envelope.verify():
            if machine.transport.arq:
                # ARQ: drop the rotten copy; the unacked sender times
                # out and retransmits, so no state may change here
                self.stats.corrupt_dropped += 1
                trace = machine.trace
                if trace is not None:
                    trace.emit(TraceEvent(
                        kind="corrupt-drop", rank=self.myp,
                        start=self.clock, end=self.clock,
                        tag=envelope.tag, peer=tuple(envelope.src),
                        seq=envelope.seq, incarnation=self._incarnation,
                    ))
                return
            raise CorruptionError(
                self.myp, envelope.src, envelope.tag, envelope.seq
            )
        if envelope.seq is not None:
            seen_key = (envelope.src, envelope.seq)
            if seen_key in self._seen_seqs:
                # retransmitted/duplicated copy of a message we
                # already hold: the protocol discards it
                self.stats.duplicates_dropped += 1
                trace = machine.trace
                if trace is not None:
                    trace.emit(TraceEvent(
                        kind="dup-drop", rank=self.myp, start=self.clock,
                        end=self.clock, tag=envelope.tag,
                        peer=tuple(envelope.src), seq=envelope.seq,
                        incarnation=self._incarnation,
                    ))
                return
            self._seen_seqs.add(seen_key)
        self._stash[envelope.tag] = (envelope.payload, envelope.arrival)

    def _accept_mailbox(self) -> None:
        """Accept every queued copy into the stash, oldest first.  A
        copy whose accept raises leaves the later ones queued."""
        mailbox = self.mailbox
        while mailbox:
            self._recv_accept(mailbox.popleft())

    def _recv_finish(self, tag: tuple, fenced: bool = False):
        """The post-wait half of a receive: pop the stashed payload and
        charge the receive to the clock/stats.  The caller must have
        established ``tag in self._stash``.

        A ``fenced`` consumption is an early-put program reading its
        local window after a fence: it pays ``CostModel.fence_time``
        instead of ``recv_overhead`` (charged to the ``fence_time``
        stats bucket so the decomposition identity survives), and its
        trace records a fence-priced completion plus a zero-span
        ``get`` marker in place of the two-sided ``unpack``.
        """
        machine = self.machine
        payload, arrival = self._stash.pop(tag)
        machine.monitor.record_recv(self.myp, tag)
        cost = machine.cost
        # receiver-side checksum verification is charged at this
        # program point (not at the mailbox dequeue) and folded into
        # the receive overhead so the decomposition identity survives;
        # free unless priced
        overhead = cost.fence_time if fenced else cost.recv_overhead
        if machine.transport.checksummed:
            overhead += cost.checksum_word_time * len(payload)
        start = self.clock
        ready = self.clock + overhead
        if arrival > ready:
            self.stats.stall_time += arrival - ready
        self.clock = max(ready, arrival)
        self.stats.messages_received += 1
        if fenced:
            self.stats.fence_time += overhead
            self.stats.fences += 1
            self.stats.gets += 1
        else:
            self.stats.recv_time += overhead
        self.stats.words_received += len(payload)
        trace = machine.trace
        if trace is not None:
            trace.emit(TraceEvent(
                kind="recv-complete", rank=self.myp, start=start,
                end=self.clock, tag=tag, words=len(payload),
                arrival=arrival, overhead=overhead,
                incarnation=self._incarnation,
                note="fence" if fenced else "",
            ))
            trace.emit(TraceEvent(
                kind="get" if fenced else "unpack",
                rank=self.myp, start=self.clock,
                end=self.clock, tag=tag, words=len(payload),
                incarnation=self._incarnation,
            ))
        store = machine.checkpoints
        if store is not None:
            store.log_recv(self.myp, self._pc, tag, payload)
            self._replay_idx += 1
        self._after_op()
        return payload

    def _cache_mc(self, tag: tuple, payload) -> None:
        """Keep a consumed ``recv_mc`` payload for the co-resident
        virtual receivers that consume the same message.

        Every one of them is handed this one object, so it is read-only
        by contract; an ndarray payload is frozen here so a node program
        that writes into it raises instead of corrupting its peers'
        view.  Snapshots and restores can therefore share the cached
        entries instead of copying them."""
        if type(payload) is np.ndarray:
            payload.setflags(write=False)
        self._mc_cache[tag] = payload

    def _trace_mc_hit(self, tag: tuple) -> None:
        """Record a multicast-cache reuse (free: no message, no cost).

        A ``recv_mc`` payload is cached per physical processor: every
        virtual processor emulated here consumes the same message, but
        only the first consumption pays the receive cost."""
        trace = self.machine.trace
        if trace is not None:
            trace.emit(TraceEvent(
                kind="mc-hit", rank=self.myp, start=self.clock,
                end=self.clock, tag=tag, incarnation=self._incarnation,
            ))

    def tick(self, amount: float) -> None:
        start = self.clock
        self.clock += amount
        self.stats.tick_time += amount
        trace = self.machine.trace
        if trace is not None:
            trace.emit(TraceEvent(
                kind="tick", rank=self.myp, start=start, end=self.clock,
                incarnation=self._incarnation,
            ))

    def finish(self) -> None:
        """Mark this processor's node program complete.

        Emitted at the end of generated node programs; lets the
        progress monitor's report distinguish a clean completion from a
        processor that died.  Idempotent.
        """
        self.machine.monitor.finish(self.myp, clean=True)

    # -- reliability-layer internals ----------------------------------------

    def next_seq(self, dest: Tuple[int, ...]) -> int:
        seq = self._next_seq.get(dest, 0)
        self._next_seq[dest] = seq + 1
        return seq

    def _maybe_stall(self) -> None:
        plan = self.machine.fault_plan
        if plan is None or plan.stall_rate <= 0:
            return
        stall = plan.stall(self.myp, self._pc)
        if stall > 0:
            start = self.clock
            self.clock += stall
            self.stats.fault_stall_time += stall
            trace = self.machine.trace
            if trace is not None:
                trace.emit(TraceEvent(
                    kind="stall", rank=self.myp, start=start,
                    end=self.clock, incarnation=self._incarnation,
                ))

    # -- crash-tolerance internals -------------------------------------------

    def _advance(self) -> bool:
        """Advance the loop cursor; True while fast-forwarding.

        During recovery the operation whose index *equals* the snapshot
        cut is still skipped (the snapshot captured its effects); the
        snapshot state is applied the moment the cursor reaches the
        cut, so the *next* operation runs live on restored state.
        """
        self._pc += 1
        if self._pc > self._ff_target:
            return False
        if self._pc == self._ff_target:
            self._restore()
        return True

    def _restore(self) -> None:
        """Apply this processor's snapshot in place (end of replay)."""
        snap = self.machine.checkpoints.snapshots[self.myp]
        for name, arr in snap.arrays.items():
            self.arrays[name][...] = arr
        self._next_seq = dict(snap.next_seq)
        self._seen_seqs = set(snap.seen_seqs)
        self._arq_rto = dict(snap.arq_rto)
        self._stash = {
            tag: (copy_payload(payload), arrival)
            for tag, (payload, arrival) in snap.stash.items()
        }
        self._mc_cache = dict(snap.mc_cache)
        # a copy: a rank can restore twice from one snapshot
        self.stats = dataclasses.replace(snap.stats)
        self._next_cp_time = snap.next_cp_time
        self.clock = self._resume_clock
        # the jump from the snapshot's clock to the resume clock is
        # recovery (failure detection + restart penalty + reload); with
        # it in a bucket, the time-decomposition identity -- stat
        # buckets sum to the finish clock -- survives restarts
        self.stats.recovery_time += self._resume_clock - snap.clock

    def _maybe_crash(self, comm: bool = True) -> None:
        """Fail-stop fault check, evaluated before each live operation;
        random crashes are drawn at communication calls only."""
        if self._crash_at is not None:
            self._check_scheduled()
        if comm:
            plan = self.machine.fault_plan
            if plan is not None and plan.crashes_at(
                self.myp, self._pc, self._incarnation
            ):
                raise ProcessorCrashed(
                    self.myp, self.clock, self._pc, self._incarnation,
                    "random",
                )

    def _check_scheduled(self) -> None:
        if (
            self.clock >= self._crash_at
            and self.machine._arm_crash(self.myp)
        ):
            raise ProcessorCrashed(
                self.myp, self.clock, self._pc, self._incarnation,
                "scheduled",
            )

    def _after_op(self) -> None:
        store = self.machine.checkpoints
        if store is not None:
            store.maybe_checkpoint(self)
        # re-check the schedule *after* the op advanced the clock, so a
        # processor whose clock jumps past the deadline inside its last
        # few operations still dies (the op completes, then the crash)
        if self._crash_at is not None:
            self._check_scheduled()


class Machine:
    """P processors with private memories and tagged channels.

    ``reliability`` selects the transport: ``"auto"``/``None`` picks
    the reliable ARQ exactly when a fault plan injects network faults
    (and the zero-overhead direct channel otherwise); ``"direct"``,
    ``"reliable"``, ``"unreliable"`` and ``"onesided"`` force a
    specific transport.  ``max_retries`` caps the ARQ's
    retransmissions; its timer is the cost model's round trip (see
    :class:`~.transport.Transport`).

    Every run is driven by the one deterministic
    :class:`~.scheduler.Scheduler`, with no wall-clock budget: a run
    ends when every rank has finished or failed.  ``backend`` is
    accepted for existing callers only: ``"event"`` (the default) and
    ``"coop"`` both name that engine, and ``"threads"`` is refused.

    A fail-stop crash is recovered locally (:meth:`_local_recover`):
    only the crashed rank restarts, and its messages are re-served
    from the sender log.  ``recovery`` is accepted for existing
    callers only: ``"local"`` is the default and the one mode; the
    removed coordinated global rollback is refused.
    """

    def __init__(
        self,
        program: Program,
        space: ProcSpace,
        params: Mapping[str, int],
        cost: Optional[CostModel] = None,
        fault_plan: Optional[FaultPlan] = None,
        reliability: Optional[str] = None,
        max_retries: int = 10,
        checkpoint: Optional[CheckpointPolicy] = None,
        max_restarts: int = 3,
        backend: str = "event",
        trace: Union[bool, TraceBuffer, None] = None,
        checksums: Optional[bool] = None,
        recovery: str = "local",
        log_bytes_cap: Optional[int] = None,
    ):
        if backend == "threads":
            raise ValueError(
                "the threaded backend was removed: every run uses the "
                "deterministic event scheduler (omit backend=)"
            )
        if backend not in ("event", "coop"):
            raise ValueError(
                f"unknown backend {backend!r} (expected 'event')"
            )
        if recovery == "global":
            raise ValueError(
                "coordinated global rollback was removed: every crash "
                "is recovered locally from the sender log (omit recovery=)"
            )
        if recovery != "local":
            raise ValueError(
                f"unknown recovery mode {recovery!r} (expected 'local')"
            )
        #: event trace: None (off, the default -- observably free),
        #: True (allocate a fresh buffer), or a caller-owned TraceBuffer
        self.trace: Optional[TraceBuffer] = (
            TraceBuffer() if trace is True
            else trace if isinstance(trace, TraceBuffer) else None
        )
        self.program = program
        self.space = space
        self.params = dict(params)
        self.pshape = space.physical_shape(self.params)
        #: every physical coordinate, sorted -- the deterministic rank
        #: order, precomputed once instead of re-sorting
        #: ``machine.procs`` in scheduler hot loops
        self.rank_order: List[Tuple[int, ...]] = sorted(
            tuple(c) for c in space.all_physical(self.params)
        )
        #: the scheduler's hook: called with the destination rank after
        #: every successful mailbox delivery, so parked coroutines are
        #: flagged for wakeup instead of polled
        self._delivery_watcher: Optional[Callable] = None
        self.cost = cost or CostModel()
        self.fault_plan = fault_plan
        self.procs: Dict[Tuple[int, ...], Processor] = {}
        self.monitor = ProgressMonitor(self)
        #: self-checking mode: None = auto (on exactly when the fault
        #: plan can corrupt payloads or snapshots), or forced on/off
        if checksums is None:
            checksums = fault_plan is not None and (
                fault_plan.any_corruption_faults
                or fault_plan.any_checkpoint_corruption
            )
        self.checksums_enabled = bool(checksums)
        mode = self._select_transport(reliability)
        options = dict(
            checksums=self.checksums_enabled, max_retries=max_retries
        )
        self.transport: Transport = (
            OneSidedTransport(fault_plan, **options) if mode == "onesided"
            else Transport(mode, fault_plan, **options)
        )
        self.checkpoint_policy = checkpoint
        self.max_restarts = max_restarts
        #: optional per-channel cap (bytes) on the sender message log;
        #: exceeding it raises a structured LogOverflowError
        self.log_bytes_cap = log_bytes_cap
        #: live only while a crash-tolerant run is in progress; None on
        #: the default path so checkpointing costs nothing when unused
        self.checkpoints: Optional[CheckpointStore] = None
        self._fired_crashes: set = set()
        # supervision counters, accumulated by _local_recover
        self._restarts = 0
        self._recovery_time = 0.0
        self._work_wasted = 0.0
        self._crash_events: List[CrashEvent] = []

    def _arm_crash(self, myp: Tuple[int, ...]) -> bool:
        """Claim a scheduled crash for ``myp``; True exactly once per
        run, so a restarted incarnation does not re-die at the same
        scheduled instant."""
        if myp in self._fired_crashes:
            return False
        self._fired_crashes.add(myp)
        return True

    def _select_transport(self, reliability: Optional[str]) -> str:
        """The transport mode ``reliability`` names (see the class
        docstring for the accepted spellings)."""
        plan = self.fault_plan
        if reliability is None or reliability == "auto":
            if plan is not None and plan.any_network_faults:
                return "reliable"
            return "direct"
        if reliability not in MODES:
            raise ValueError(f"unknown reliability mode: {reliability!r}")
        if reliability == "unreliable" and plan is None:
            return "direct"  # nothing to inject
        return reliability

    def deliver(self, dest: Tuple[int, ...], envelope: Envelope) -> None:
        dest = tuple(dest)
        if self.checkpoints is not None:
            self.checkpoints.log_delivery(dest, envelope)
        if self.monitor.deliver_envelope(dest, envelope):
            watcher = self._delivery_watcher
            if watcher is not None:
                watcher(dest)

    def initial_arrays(
        self,
        myp: Tuple[int, ...],
        initial_data: Optional[Dict[str, DataDecomp]],
        seed: int,
        golden: Optional[Dict[str, np.ndarray]] = None,
    ) -> Dict[str, np.ndarray]:
        """Per-processor arrays: owned elements get the true initial
        values, everything else is NaN-poisoned so that reading
        never-communicated data corrupts results detectably.

        ``golden`` lets :meth:`run` hoist the sequential allocation out
        of the per-rank loop (recomputing it P times is O(P) parses and
        random streams -- prohibitive at P=1024)."""
        if golden is None:
            golden = allocate_arrays(self.program, self.params, seed)
        local: Dict[str, np.ndarray] = {}
        for name, values in golden.items():
            if initial_data is None or name not in initial_data:
                local[name] = values.copy()  # replicated everywhere
                continue
            decomp = initial_data[name]
            mine = np.full_like(values, np.nan)
            it = np.ndindex(*values.shape)
            for element in it:
                owners = decomp.owners(element, self.params)
                for owner in owners:
                    phys = decomp.space.to_physical(tuple(owner), self.params)
                    if tuple(phys) == myp:
                        mine[element] = values[element]
                        break
            local[name] = mine
        return local

    def run(
        self,
        node_fn: Callable,
        initial_data: Optional[Dict[str, DataDecomp]] = None,
        seed: int = 0,
    ) -> RunResult:
        if not inspect.isgeneratorfunction(node_fn):
            raise TypeError(
                f"node program {getattr(node_fn, '__name__', node_fn)!r} "
                f"is not a generator function: write each receive as "
                f"'payload = yield (\"recv\", src, tag)' (or "
                f"\"recv_mc\"), and give a program with no receives a "
                f"dead 'yield' so it stays a generator"
            )
        coords = self.rank_order
        # crash tolerance is armed only when it can matter, so the
        # default path carries zero logging/snapshot overhead
        want_store = (
            self.checkpoint_policy is not None
            and self.checkpoint_policy.active
        ) or (
            self.fault_plan is not None and self.fault_plan.any_crash_faults
        )
        self.checkpoints = (
            CheckpointStore(
                self.checkpoint_policy,
                plan=self.fault_plan,
                digests=self.checksums_enabled,
                log_bytes_cap=self.log_bytes_cap,
            )
            if want_store
            else None
        )
        self._fired_crashes = set()
        golden = allocate_arrays(self.program, self.params, seed)
        self.procs = {
            myp: Processor(
                self,
                myp,
                self.initial_arrays(myp, initial_data, seed, golden=golden),
            )
            for myp in coords
        }
        if self.checkpoints is not None:
            for proc in self.procs.values():
                self.checkpoints.baseline(proc)
        self.monitor.reset()

        self._restarts = 0
        self._recovery_time = 0.0
        self._work_wasted = 0.0
        self._crash_events = []
        wall_start = time.perf_counter()
        scheduler = Scheduler(self)
        failures = scheduler.run(node_fn)
        if any(isinstance(exc, ProcessorCrashed) for _, exc in failures):
            # every crash was already recorded (and, budget and store
            # permitting, recovered in place) by _local_recover; one
            # surfacing here means the restart budget is spent or there
            # is no store
            self._raise_crash_error()
        self._raise_failures(failures)

        wall_seconds = time.perf_counter() - wall_start
        store = self.checkpoints
        stats = {myp: proc.stats for myp, proc in self.procs.items()}
        return RunResult(
            arrays={myp: proc.arrays for myp, proc in self.procs.items()},
            stats=stats,
            makespan=max(proc.clock for proc in self.procs.values()),
            total_messages=sum(s.messages_sent for s in stats.values()),
            total_words=sum(s.words_sent for s in stats.values()),
            restarts=self._restarts,
            recovery_time=self._recovery_time,
            checkpoints=store.checkpoints_taken if store else 0,
            crash_events=list(self._crash_events),
            snapshots_rejected=store.snapshots_rejected if store else 0,
            clocks={myp: proc.clock for myp, proc in self.procs.items()},
            trace=self.trace,
            wall_seconds=wall_seconds,
            sim_events=sum(proc._pc for proc in self.procs.values()),
            sched_wakeups=scheduler.steps,
            work_wasted=self._work_wasted,
            log_bytes_peak=store.log.bytes_peak if store else 0,
        )

    def _record_crash(self, exc: ProcessorCrashed) -> None:
        """Append one observed crash to the run's event list and emit
        its trace marker.  Called by :meth:`_local_recover`."""
        event = CrashEvent(
            myp=exc.myp,
            model_time=exc.model_time,
            op_index=exc.op_index,
            incarnation=exc.incarnation,
            cause=exc.cause,
        )
        self._crash_events.append(event)
        if self.trace is not None:
            self.trace.emit(TraceEvent(
                kind="crash", rank=event.myp,
                start=event.model_time, end=event.model_time,
                incarnation=event.incarnation, note=event.cause,
            ))

    def _local_recover(
        self, exc: ProcessorCrashed
    ) -> Optional[Processor]:
        """Localized recovery: restart only the crashed rank.

        Built on sender-based message logging (DESIGN.md §9): every
        delivery was logged -- payload plus determinants (src, seq,
        per-receiver delivery order) -- in volatile sender memory, so
        the crashed rank can be restored from its own latest
        digest-valid snapshot and replayed *without* touching any live
        rank.  Its pre-cut receives come from the receive log (the
        deterministic fast-forward of PR 3), its post-cut messages are
        re-served from the sender log in recorded delivery order, and
        the duplicates of its own re-executed sends are absorbed at
        the receivers by ARQ sequence dedup / the tag-keyed stash.

        Returns the fresh incarnation (already swapped into ``procs``
        and monitor-visible), or None when recovery cannot proceed (no
        checkpoint store or the restart budget is spent) -- the caller
        then surfaces the crash as a failure.
        """
        myp = tuple(exc.myp)
        self._record_crash(exc)
        store = self.checkpoints
        if store is None or self._restarts >= self.max_restarts:
            return None
        self._restarts += 1
        snap, rejected = store.resolve_valid(myp)
        for bad in rejected:
            if self.trace is not None:
                self.trace.emit(TraceEvent(
                    kind="snapshot-corrupt", rank=myp,
                    start=exc.model_time, end=exc.model_time,
                    incarnation=exc.incarnation,
                    note=(
                        f"snapshot at op {bad.pc} (ordinal "
                        f"{bad.ordinal}) failed digest verification"
                    ),
                ))
        store.truncate_recv_log(myp)
        cost = self.cost
        resume = (
            max(snap.clock, exc.model_time)
            + cost.restart_penalty
            + cost.checkpoint_word_time * snap.words
        )
        self._recovery_time += resume - snap.clock
        self._work_wasted += max(0.0, exc.model_time - snap.clock)
        incarnation = exc.incarnation + 1
        if self.trace is not None:
            self.trace.emit(TraceEvent(
                kind="restart", rank=myp, start=snap.clock, end=resume,
                incarnation=incarnation,
                note=f"local rollback to op {snap.pc}",
            ))
        proc = Processor(
            self,
            myp,
            {name: arr.copy() for name, arr in snap.arrays.items()},
        )
        proc._incarnation = incarnation
        proc._ff_target = snap.pc
        proc._resume_clock = resume
        # swap in the fresh incarnation (every copy parked in the old
        # mailbox is also in the sender log), then re-serve the
        # sender-logged messages it still needs, in recorded delivery
        # order
        self.procs[myp] = proc
        for rec in store.reinjections(myp):
            self.monitor.deliver_envelope(
                myp,
                Envelope(
                    rec.src, rec.seq, rec.tag, copy_payload(rec.payload),
                    rec.arrival, rec.checksum,
                ),
            )
        if snap.pc == 0:
            # no fast-forward will run, so apply the snapshot now
            proc._restore()
        return proc

    def _raise_crash_error(self) -> None:
        """Give up: raise :class:`CrashError` with the run's post-mortem."""
        store = self.checkpoints
        report = CrashReport(
            events=list(self._crash_events),
            restarts_attempted=self._restarts,
            max_restarts=self.max_restarts,
            checkpoints=store.checkpoint_positions() if store else {},
            checkpoints_taken=store.checkpoints_taken if store else 0,
        )
        dead = ", ".join(str(myp) for myp in report.dead)
        raise CrashError(
            f"crash recovery gave up after {self._restarts} "
            f"restart(s) (budget {self.max_restarts}); dead "
            f"processor(s): {dead}",
            report=report,
        )

    def _raise_failures(
        self, failures: List[Tuple[Tuple[int, ...], BaseException]]
    ) -> None:
        """Surface every per-processor failure, with its coordinate.

        Deadlock is a *machine-level* condition (the monitor's report
        covers all processors), so a pure-deadlock run raises a single
        representative ``DeadlockError``.  A single root-cause failure
        is raised directly, annotated with any consequent deadlocks;
        multiple distinct failures raise one ``ExceptionGroup``.
        """
        if not failures:
            return
        for myp, exc in failures:
            if hasattr(exc, "add_note"):
                exc.add_note(f"raised on processor {myp}")
        deadlocks = [e for _, e in failures if isinstance(e, DeadlockError)]
        others = [e for _, e in failures if not isinstance(e, DeadlockError)]
        if not others:
            raise deadlocks[0]
        if len(others) == 1:
            root = others[0]
            if deadlocks and hasattr(root, "add_note"):
                root.add_note(
                    f"{len(deadlocks)} other processor(s) deadlocked "
                    f"waiting for the failed processor"
                )
            raise root
        if _ExceptionGroup is None:  # pragma: no cover - Python 3.10
            raise others[0]
        raise _ExceptionGroup(
            f"{len(others)} processors failed", others + deadlocks
        )
