"""Checkpoint/restart with localized recovery for fail-stop crashes.

The paper (and the iPSC/860 it targets) assumes processors never die;
:mod:`repro.runtime.faults` can kill one mid-program.  This module is
the recovery half: each processor periodically snapshots its local
state, every delivered message is kept in the sender-based message
log and every consumed payload in the receiver's receive log.  After a
crash only the crashed rank restarts; every live rank keeps running.

How one rank recovers
---------------------

* **Per-rank cut.**  Each rank checkpoints on its own schedule, with no
  coordination and no quiescence.  The crashed rank restarts from its
  newest snapshot whose digest still verifies; everyone else is
  untouched.
* **Receive-log fast-forward.**  Execution is deterministic: a node
  program's operation sequence is a pure function of ``(program,
  params, myp)`` and every fault decision is hash-driven.  The fresh
  incarnation re-runs its operations up to the snapshot's cursor with
  computes and sends suppressed and receives satisfied from its
  receive log, then applies the snapshot (arrays, transport sequence
  state, stash, multicast cache) and goes live.
* **Sender-log re-serve.**  No live rank re-executes, so no message
  the crashed rank is owed will be sent again.  Every logged message
  to it that its cut has not consumed, and that its restored stash
  does not already hold, is re-served from the sender log in recorded
  per-receiver delivery order (:meth:`CheckpointStore.reinjections`).
* **Dedup absorbs re-executed sends.**  The restarted rank re-sends
  everything past its cut.  Its restored ``_next_seq`` reuses the
  original sequence numbers, so the receivers drop the duplicates by
  ARQ sequence dedup, or the tag-keyed stash overwrites them
  idempotently on the direct channel.

So any per-rank cut is recoverable: the logs stand in for the marker
rounds of Chandy-Lamport coordinated checkpointing, and only the
crashed rank's work past its cut is lost (DESIGN.md §9).

Cost model: each snapshot charges ``checkpoint_word_time`` per local
array word to the processor's clock; each restart charges the
machine-level ``restart_penalty`` plus the word cost of reloading the
snapshot, and the restarted rank resumes no earlier than the crash's
model time -- so the makespan of a crashed-and-recovered run prices
the lost work plus the recovery, exactly what
``benchmarks/bench_checkpoint_overhead.py`` sweeps.

Snapshot integrity (DESIGN.md §12): stable storage can rot too.  When
checksumming is on, every snapshot records a BLAKE2b digest of its
array state; a corruption-capable plan may flip a word in a stored
snapshot *after* the digest is taken (``checkpoint_corrupt_rate`` /
explicit ``checkpoint_corruptions``).  Recovery then **verifies before
restoring**: a snapshot whose digest no longer matches is rejected and
recovery falls back to the previous valid cut -- more lost work,
never garbage state.  The per-rank snapshot *history* needed for that
fallback is retained only when the plan can corrupt checkpoints; the
pc=0 baseline is never corrupted, so recovery always terminates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import transport as _transport
from .trace import TraceEvent
from .transport import LogRecord, MessageLog, copy_payload

__all__ = [
    "CheckpointPolicy",
    "CheckpointStore",
    "Snapshot",
    "snapshot_digest",
]


def snapshot_digest(arrays: Dict[str, "object"]) -> int:
    """BLAKE2b digest of a snapshot's array state (names + bits)."""
    h = blake2b(digest_size=8)
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arrays[name]).tobytes())
    return int.from_bytes(h.digest(), "big")


_FLIP_BIT = np.uint64(1 << 26)


def _flip_snapshot_word(arrays: Dict[str, "object"], index: int) -> None:
    """Flip one bit of the ``index``-th word of the snapshot's arrays,
    flattened in sorted-name order (mirrors how ``snapshot_digest``
    walks them)."""
    for name in sorted(arrays):
        flat = arrays[name].reshape(-1)
        if index < flat.size:
            flat.view(np.uint64)[index] ^= _FLIP_BIT
            return
        index -= flat.size


@dataclass(frozen=True)
class CheckpointPolicy:
    """When to snapshot: every K operations and/or every T model-time
    units (whichever fires first; both may be active).

    ``every_ops`` counts processor operations (compute, send, recv) --
    the runtime's proxy for outermost-iteration boundaries, since the
    generated SPMD code executes a fixed, deterministic operation
    sequence per iteration.  ``interval`` is in the simulator's
    abstract time units (same scale as
    :class:`~repro.runtime.machine.CostModel`).
    """

    every_ops: Optional[int] = None
    interval: Optional[float] = None

    def __post_init__(self) -> None:
        if self.every_ops is not None and self.every_ops < 1:
            raise ValueError("every_ops must be >= 1")
        if self.interval is not None and self.interval <= 0:
            raise ValueError("interval must be positive")

    @property
    def active(self) -> bool:
        return self.every_ops is not None or self.interval is not None

    def due(self, pc: int, clock: float, next_time: float) -> bool:
        if self.every_ops is not None and pc % self.every_ops == 0:
            return True
        if self.interval is not None and clock >= next_time:
            return True
        return False


@dataclass
class Snapshot:
    """One processor's complete recoverable state at an op boundary.

    ``pc`` is the loop cursor: the index of the last operation this
    snapshot covers.  ``words`` is the snapshot's size in array words
    (what restore will be charged for).  The transport sequence state
    (``next_seq`` per destination, ``seen_seqs`` dedup set) travels
    with the snapshot so a restarted ARQ neither reuses nor skips
    sequence numbers.
    """

    pc: int
    clock: float
    stats: object
    arrays: Dict[str, "object"]
    next_seq: Dict[Tuple[int, ...], int]
    seen_seqs: set
    stash: Dict[tuple, Tuple[List[float], float]]
    mc_cache: Dict[tuple, List[float]]
    next_cp_time: float
    words: int
    #: adaptive ARQ timer state per destination -- restored with the
    #: snapshot so post-recovery retransmission timing is bit-identical
    arq_rto: Dict[Tuple[int, ...], float] = field(default_factory=dict)
    #: BLAKE2b digest of ``arrays`` at capture time (None when
    #: checksumming is off); verified by recovery before restoring
    digest: Optional[int] = None
    #: per-rank checkpoint ordinal (0 = baseline), the key the fault
    #: plan's checkpoint-corruption stream is indexed by
    ordinal: int = 0


@dataclass
class _Recv:
    """One payload consumed by a node program (for replay)."""

    pc: int
    tag: tuple
    payload: List[float]


class CheckpointStore:
    """Snapshots plus the delivery/receive logs that make them
    recoverable (see the module docstring).

    One store lives for one :meth:`Machine.run` call, across all
    incarnations.
    """

    def __init__(
        self,
        policy: Optional[CheckpointPolicy] = None,
        plan=None,
        digests: bool = False,
        log_bytes_cap: Optional[int] = None,
    ):
        self.policy = policy or CheckpointPolicy()
        self.plan = plan
        self.digests = digests
        #: retain full per-rank snapshot history only when the plan can
        #: corrupt stored snapshots -- that is the only case recovery
        #: may need an older cut to fall back to
        self.keep_history = (
            plan is not None and plan.any_checkpoint_corruption
        )
        self.snapshots: Dict[Tuple[int, ...], Snapshot] = {}
        self.history: Dict[Tuple[int, ...], List[Snapshot]] = {}
        self.recv_logs: Dict[Tuple[int, ...], List[_Recv]] = {}
        #: the sender-based message log: every delivered payload plus
        #: its determinants, re-served to a restarted rank
        self.log = MessageLog(bytes_cap=log_bytes_cap)
        self._ordinals: Dict[Tuple[int, ...], int] = {}
        self.checkpoints_taken = 0
        self.words_checkpointed = 0
        self.snapshots_corrupted = 0
        self.snapshots_rejected = 0

    # -- snapshotting --------------------------------------------------------

    def snapshot(self, proc) -> Snapshot:
        """Capture ``proc``'s state after its current operation.

        The digest is taken *before* any plan-driven storage
        corruption flips a word, which is exactly what lets recovery
        detect the rot and reject the snapshot."""
        arrays = {name: arr.copy() for name, arr in proc.arrays.items()}
        words = int(sum(arr.size for arr in arrays.values()))
        ordinal = self._ordinals.get(proc.myp, 0)
        self._ordinals[proc.myp] = ordinal + 1
        snap = Snapshot(
            pc=proc._pc,
            clock=proc.clock,
            stats=proc.stats.to_stats(),
            arrays=arrays,
            next_seq=dict(proc._next_seq),
            seen_seqs=set(proc._seen_seqs),
            stash={
                tag: (copy_payload(payload), arrival)
                for tag, (payload, arrival) in proc._stash.items()
            },
            # cached multicast payloads are read-only: share, not copy
            mc_cache=dict(proc._mc_cache),
            next_cp_time=proc._next_cp_time,
            words=words,
            arq_rto=dict(proc._arq_rto),
            digest=snapshot_digest(arrays) if self.digests else None,
            ordinal=ordinal,
        )
        plan = self.plan
        if (
            plan is not None
            and ordinal > 0  # the baseline is never corrupted
            and words > 0
            and plan.corrupts_checkpoint(proc.myp, ordinal)
        ):
            _flip_snapshot_word(
                arrays, plan.checkpoint_corrupt_word(words, proc.myp, ordinal)
            )
            self.snapshots_corrupted += 1
        self.snapshots[proc.myp] = snap
        if self.keep_history:
            self.history.setdefault(proc.myp, []).append(snap)
        else:
            # commit point: cuts only move forward from here, so every
            # logged message to this rank that the new cut proves dead
            # (consumed at or before it, or captured in its stash) can
            # never be re-injected again -- truncate the sender log.
            # With snapshot history retained (checkpoint corruption),
            # an older cut may still need them, so keep everything.
            self._truncate_message_log(proc.myp, snap)
        return snap

    def _truncate_message_log(self, myp, snap: Snapshot) -> None:
        """Drop sender-log entries the committed cut makes unreachable."""
        consumed = {
            rec.tag
            for rec in self.recv_logs.get(myp, ())
            if rec.pc <= snap.pc
        }
        dead = consumed | set(snap.stash)
        if dead:
            self.log.truncate(myp, dead)

    def baseline(self, proc) -> Snapshot:
        """The implicit pc=0 checkpoint: initial state, free of charge.

        Always present, so recovery works even with no checkpoint
        policy configured -- the restart then simply replays the whole
        program (maximal lost work, zero checkpoint overhead)."""
        return self.snapshot(proc)

    def maybe_checkpoint(self, proc) -> bool:
        """Policy check + snapshot + cost accounting, called by the
        processor after each live operation."""
        policy = self.policy
        if not policy.active:
            return False
        if not policy.due(proc._pc, proc.clock, proc._next_cp_time):
            return False
        cost = proc.machine.cost
        words = int(sum(arr.size for arr in proc.arrays.values()))
        charge = cost.checkpoint_word_time * words
        start = proc.clock
        proc.clock += charge
        proc.stats.checkpoints += 1
        proc.stats.checkpoint_time += charge
        trace = proc.machine.trace
        if trace is not None:
            trace.emit(TraceEvent(
                kind="checkpoint", rank=proc.myp, start=start,
                end=proc.clock, words=words,
                incarnation=proc._incarnation,
            ))
        if policy.interval is not None:
            proc._next_cp_time = proc.clock + policy.interval
        self.snapshot(proc)
        self.checkpoints_taken += 1
        self.words_checkpointed += words
        return True

    # -- logs ----------------------------------------------------------------

    def log_delivery(self, dest: Tuple[int, ...], envelope) -> None:
        """Record one logical message entering ``dest``'s mailbox.

        Delegates to the sender-based :class:`~.transport.MessageLog`:
        first valid copy wins, determinants (src, seq,
        per-receiver delivery order) travel with the payload, and a
        configured byte cap surfaces as a structured
        :class:`~.transport.LogOverflowError` in the sender's context.
        """
        self.log.record(dest, envelope)

    def log_recv(self, myp: Tuple[int, ...], pc: int, tag: tuple,
                 payload: List[float]) -> None:
        self.recv_logs.setdefault(myp, []).append(
            _Recv(pc=pc, tag=tag, payload=copy_payload(payload))
        )

    def replay_recv(self, proc) -> List[float]:
        """The payload ``proc``'s next fast-forwarded recv consumed in
        the original timeline."""
        log = self.recv_logs.get(proc.myp, ())
        idx = proc._replay_idx
        if idx >= len(log) or log[idx].pc != proc._pc:
            raise RuntimeError(
                f"replay diverged on processor {proc.myp}: op {proc._pc} "
                f"expects receive-log entry {idx} "
                f"(have {len(log)} entries"
                + (f", next at op {log[idx].pc}" if idx < len(log) else "")
                + ") -- the node program is not deterministic"
            )
        proc._replay_idx += 1
        return copy_payload(log[idx].payload)

    # -- recovery support ----------------------------------------------------

    def _verifies(self, snap: Snapshot) -> bool:
        if snap.digest is None or _transport._VERIFY_DISABLED:
            return True
        return snapshot_digest(snap.arrays) == snap.digest

    def resolve_valid(self, myp) -> Tuple[Optional[Snapshot], List[Snapshot]]:
        """The newest snapshot for ``myp`` whose digest still verifies.

        Returns ``(snapshot, rejected)`` where ``rejected`` lists the
        newer snapshots that failed verification, newest first (the
        machine traces and counts each).  The surviving snapshot is
        installed as the rank's current cut *before* log truncation
        and re-injection run, so the whole recovery is computed
        against the fallback cut."""
        myp = tuple(myp)
        snap = self.snapshots.get(myp)
        if snap is None:
            return None, []
        chain = self.history.get(myp) or [snap]
        rejected: List[Snapshot] = []
        for cand in reversed(chain):
            if self._verifies(cand):
                if rejected:
                    self.snapshots_rejected += len(rejected)
                    self.snapshots[myp] = cand
                return cand, rejected
            rejected.append(cand)
        # unreachable with digests on -- the ordinal-0 baseline is
        # never corrupted -- but without digests restore the newest
        # snapshot exactly as the pre-verification runtime did
        return snap, []

    def truncate_recv_log(self, myp: Tuple[int, ...]) -> None:
        """Drop ``myp``'s receive-log entries past its cut.  Only the
        restarted rank's aborted suffix is re-consumed (and re-logged)
        live; every other rank's log keeps growing undisturbed."""
        myp = tuple(myp)
        log = self.recv_logs.get(myp)
        if not log:
            return
        snap = self.snapshots.get(myp)
        cut = snap.pc if snap is not None else 0
        keep = [rec for rec in log if rec.pc <= cut]
        if len(keep) != len(log):
            self.recv_logs[myp] = keep

    def reinjections(self, dest: Tuple[int, ...]) -> List[LogRecord]:
        """The replay set for the recovery of ``dest``.

        The live ranks never re-execute, so *no* send will re-happen.
        Every logged message to ``dest`` that its own cut has not consumed
        (and that its restored stash does not already hold) must be
        re-served from the sender log.  Messages the restarted rank
        will itself re-send past its cut are duplicates at their
        receivers, absorbed by ARQ sequence dedup (the restored
        ``_next_seq`` reuses the original sequence numbers) or by the
        tag-keyed stash's idempotent overwrite on the direct channel.

        Sorted by ``(arrival, order)``: the recorded per-receiver
        delivery order.
        """
        dest = tuple(dest)
        snap = self.snapshots[dest]
        consumed = {
            rec.tag
            for rec in self.recv_logs.get(dest, ())
            if rec.pc <= snap.pc
        }
        out = [
            rec
            for rec in self.log.records_for(dest)
            if rec.tag not in consumed and rec.tag not in snap.stash
        ]
        out.sort(key=lambda rec: (rec.arrival, rec.order, repr(rec.tag)))
        return out

    # -- reporting -----------------------------------------------------------

    def checkpoint_positions(
        self,
    ) -> Dict[Tuple[int, ...], Tuple[int, float]]:
        return {
            myp: (snap.pc, snap.clock)
            for myp, snap in self.snapshots.items()
        }
