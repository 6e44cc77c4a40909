"""Message transports: how node-program sends traverse the network.

The paper's node programs target the iPSC/860 message layer, which
guarantees reliable, ordered delivery; ``Processor.send/recv`` used to
hard-code that assumption.  This module extracts the policy into one
:class:`Transport` whose reliability mode is fixed at construction, so
the same generated SPMD code runs over four substrates:

``direct``
    The historical behaviour, bit-for-bit: every send is delivered
    exactly once with the LogGP cost accounting the simulator has
    always charged.  The default; adds **zero** overhead or behaviour
    change when no faults are configured.

``unreliable``
    A raw faulty network driven by a :class:`~.faults.FaultPlan`:
    sends may be dropped, duplicated or delayed with **no** recovery.
    Exists to demonstrate what the generated code's assumptions cost on
    real hardware -- lost messages surface as instant, fully diagnosed
    deadlocks via :mod:`repro.runtime.diagnostics`.

``reliable``
    A stop-and-wait ARQ in the style of every real reliable layer:
    per-channel **sequence numbers**, positive acknowledgements,
    **retransmission** on timeout with exponential backoff and a retry
    cap, and **receiver-side dedup** (a retransmitted or duplicated
    copy of an already-seen sequence number is discarded).  All
    recovery work is charged to the cost model -- retransmissions pay
    the full per-message cost and each timeout stalls the sender by the
    current RTO -- so benchmarks can quantify the price of reliability
    (``benchmarks/bench_fault_overhead.py``).

``onesided``
    The reliable ARQ with ``put`` as the send verb and a fence/get
    window API (:class:`OneSidedTransport`, DESIGN.md §16).

All four run one send path: a send or multicast charges the startup
once and runs one per-destination attempt loop; without ARQ that loop
makes a single attempt.

Determinism: fault decisions come from the :class:`~.faults.FaultPlan`
hash stream, and recovery is simulated *synchronously inside the
sending processor's operation* (the plan tells us, reproducibly, which
attempt succeeds).

Silent-data-corruption tolerance (DESIGN.md §12): when a fault plan
injects payload corruption, transports become **self-checking** --
every message carries a BLAKE2b checksum of its payload, computed at
send and verified at delivery:

* the **ARQ** modes (reliable, onesided) treat a checksum mismatch
  exactly like a drop: the receiver discards the corrupted copy
  *before* it can touch the dedup state or the stash (and before the
  delivery log records it), the sender -- which consults the same
  deterministic plan -- never sees an acknowledgement, waits out the
  RTO and retransmits, all charged to the cost model;
* the **direct** mode has no retransmission protocol, so a
  verification failure surfaces as a structured
  :class:`CorruptionError` carrying the receiving processor's
  coordinates and the message's provenance (sender, tag, channel
  ordinal);
* the **unreliable** mode never checksums -- it exists to show
  what the generated code's assumptions cost on raw hardware, and
  silent corruption is precisely that demonstration.

Checksums are computed only when the plan can corrupt (or when forced
via ``Machine(checksums=True)``), and their model-time price is zero
unless ``CostModel.checksum_word_time`` is set -- so the default path
stays bit-identical to the pre-corruption-era goldens.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b
from typing import Dict, List, Optional, Tuple

import numpy as np

from .diagnostics import WAKE
from .faults import FaultPlan, flip_word
from .trace import TraceEvent

__all__ = [
    "CorruptionError",
    "Envelope",
    "LogOverflowError",
    "LogRecord",
    "MessageLog",
    "OneSidedTransport",
    "Transport",
    "TransportError",
    "copy_payload",
    "payload_checksum",
]

#: test hook: when True, receivers (and the delivery log) skip payload
#: checksum verification.  Exists so the chaos harness -- and the tests
#: that prove it works -- can deliberately re-introduce the
#: silent-corruption failure mode and demonstrate that the explorer
#: finds it and shrinks it to a minimal reproducer.  Never set this in
#: production code.
_VERIFY_DISABLED = False


def payload_checksum(payload) -> int:
    """BLAKE2b checksum of a payload's IEEE-754 bit pattern.

    Canonicalized through float64 so a list payload and its ndarray
    copy hash identically (both cross the wire as words)."""
    data = np.asarray(payload, dtype=np.float64).tobytes()
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "big")


def copy_payload(payload):
    """A private copy of a message payload at an ownership boundary.

    Payloads are numpy float64 vectors on the generated-code path and
    plain lists from hand-written harnesses; both cross processor
    boundaries, so every envelope, snapshot and log entry must hold its
    own copy (aliasing a sender's buffer across processors would be a
    shared-memory bug the real machine cannot have).
    """
    if isinstance(payload, np.ndarray):
        return payload.copy()
    return list(payload)


class TransportError(Exception):
    """A message could not be confirmed within the retry cap."""


class CorruptionError(TransportError):
    """A delivered payload failed checksum verification.

    Raised in the mode with no retransmission protocol (direct): the
    corruption cannot be recovered, so it is surfaced as a structured
    diagnostic instead of silently poisoning the arrays.  Carries the
    receiving processor's coordinates and the message's provenance.
    """

    def __init__(self, receiver, src, tag, seq):
        self.receiver = tuple(receiver)
        self.src = tuple(src)
        self.tag = tag
        self.seq = seq
        super().__init__(
            f"processor {self.receiver}: payload from {self.src} "
            f"tag={tag} (channel message #{seq}) failed checksum "
            f"verification -- silent data corruption detected on a "
            f"transport with no retransmission protocol"
        )


@dataclass
class Envelope:
    """One physical copy of a message on the wire.

    ``seq`` is ``None`` for transports without a reliability protocol;
    reliable envelopes carry a per-(src, dest) sequence number the
    receiver uses for dedup.  ``checksum`` is the
    BLAKE2b digest of the payload *as the sender computed it*; wire
    corruption flips words after the digest is taken, which is exactly
    how the receiver detects it.  ``None`` on unchecksummed paths.
    """

    src: Tuple[int, ...]
    seq: Optional[int]
    tag: tuple
    payload: List[float]
    arrival: float
    checksum: Optional[int] = None

    def verify(self) -> bool:
        """True unless a present checksum fails to match the payload."""
        if self.checksum is None or _VERIFY_DISABLED:
            return True
        return payload_checksum(self.payload) == self.checksum


class LogOverflowError(TransportError):
    """A channel's sender-side message log exceeded its byte cap.

    Sender-based message logging (crash recovery) keeps every
    outgoing payload in volatile sender memory until the receiver's
    next checkpoint commit truncates it.  Under stall/reorder storms --
    or with checkpointing disabled -- that log would otherwise grow
    without bound; a configured ``log_bytes_cap`` turns the unbounded
    growth into this structured diagnostic, carrying the channel
    coordinates and the sizes an operator needs to re-tune the cap or
    the checkpoint cadence.
    """

    def __init__(self, src, dest, logged_bytes, cap):
        self.src = tuple(src)
        self.dest = tuple(dest)
        self.logged_bytes = logged_bytes
        self.cap = cap
        super().__init__(
            f"sender message log overflow on channel {self.src} -> "
            f"{self.dest}: {logged_bytes} logged bytes exceed the "
            f"{cap}-byte cap -- checkpoint more often (truncation "
            f"happens at checkpoint commit) or raise log_bytes_cap"
        )


@dataclass
class LogRecord:
    """One logical message retained in a sender-side log.

    Payload plus **determinants**: the source, the per-channel sequence
    number, and ``order`` -- the
    per-receiver delivery ordinal recorded when the first valid copy of
    the message entered the receiver's mailbox.  Local recovery
    re-serves logged messages to a restarted rank sorted by
    ``(arrival, order)``, reproducing the recorded delivery order.
    """

    src: Tuple[int, ...]
    seq: Optional[int]
    tag: tuple
    payload: List[float]
    arrival: float
    checksum: Optional[int] = None
    order: int = 0


#: bytes per payload word -- everything crosses the wire as float64
_WORD_BYTES = 8


class MessageLog:
    """Sender-based message log: every valid delivered payload plus its
    determinants, retained in volatile memory until checkpoint commit.

    Keyed by ``(dest, tag)``: retransmitted/duplicated copies of one
    logical message carry the same tag and payload, so the first
    *valid* copy wins and the log stays one-entry-per-message (exactly
    the dedup the delivery log has always applied).  Per-channel byte
    accounting enforces an optional ``bytes_cap`` -- a channel that
    exceeds it raises :class:`LogOverflowError` in the sending
    processor's context instead of growing without bound -- and
    ``bytes_peak`` is surfaced on ``RunResult.log_bytes_peak`` so the
    memory price of localized recovery is measurable, not just its
    benefit.
    """

    def __init__(self, bytes_cap: Optional[int] = None):
        if bytes_cap is not None and bytes_cap <= 0:
            raise ValueError(f"bytes_cap must be positive, got {bytes_cap!r}")
        self.bytes_cap = bytes_cap
        self._records: Dict[Tuple[Tuple[int, ...], tuple], LogRecord] = {}
        #: live logged bytes per (src, dest) channel
        self.channel_bytes: Dict[
            Tuple[Tuple[int, ...], Tuple[int, ...]], int
        ] = {}
        #: per-receiver delivery ordinal counters (the determinants)
        self._orders: Dict[Tuple[int, ...], int] = {}
        self.bytes_total = 0
        self.bytes_peak = 0

    def record(self, dest: Tuple[int, ...], envelope) -> None:
        """Log one logical message entering ``dest``'s mailbox.

        A checksum-failing copy must never enter the log: the receiver
        will discard it, but recovery would re-inject the logged bytes
        as truth -- the retransmitted clean copy is the one recorded.
        """
        if not envelope.verify():
            return
        dest = tuple(dest)
        key = (dest, envelope.tag)
        src = tuple(envelope.src)
        if key in self._records:
            return
        size = len(envelope.payload) * _WORD_BYTES
        channel = (src, dest)
        logged = self.channel_bytes.get(channel, 0) + size
        if self.bytes_cap is not None and logged > self.bytes_cap:
            raise LogOverflowError(src, dest, logged, self.bytes_cap)
        order = self._orders.get(dest, 0)
        self._orders[dest] = order + 1
        self._records[key] = LogRecord(
            src=src,
            seq=envelope.seq,
            tag=envelope.tag,
            payload=copy_payload(envelope.payload),
            arrival=envelope.arrival,
            checksum=envelope.checksum,
            order=order,
        )
        self.channel_bytes[channel] = logged
        self.bytes_total += size
        if self.bytes_total > self.bytes_peak:
            self.bytes_peak = self.bytes_total

    def records_for(self, dest: Tuple[int, ...]) -> List[LogRecord]:
        """Every logged message destined to ``dest`` (unsorted)."""
        dest = tuple(dest)
        return [rec for (d, _tag), rec in self._records.items() if d == dest]

    def truncate(self, dest: Tuple[int, ...], dead_tags) -> int:
        """Drop logged messages to ``dest`` whose tags are provably
        dead (consumed at or before the receiver's committed cut, or
        captured in its snapshot stash).  Called at checkpoint commit;
        returns the number of entries dropped."""
        dest = tuple(dest)
        dropped = 0
        for tag in dead_tags:
            rec = self._records.pop((dest, tag), None)
            if rec is None:
                continue
            size = len(rec.payload) * _WORD_BYTES
            channel = (rec.src, dest)
            self.channel_bytes[channel] = (
                self.channel_bytes.get(channel, 0) - size
            )
            self.bytes_total -= size
            dropped += 1
        return dropped


#: the reliability modes a :class:`Transport` is built from
MODES = ("direct", "unreliable", "reliable", "onesided")


class Transport:
    """The one transport: every mode shares one send path.

    ``mode`` (one of :data:`MODES`) is fixed at construction as three
    fields:

    ==============  =====  =====  ===============================
    mode            arq    lossy  checksummed
    ==============  =====  =====  ===============================
    ``direct``      no     no     when checksums are enabled
    ``unreliable``  no     yes    never
    ``reliable``    yes    yes    when checksums are enabled
    ``onesided``    yes    yes    when checksums are enabled
    ==============  =====  =====  ===============================

    ``arq`` numbers every message per channel, retransmits until an
    attempt is delivered and acknowledged, dedups at the receiver and
    treats a corrupt copy as a drop: the receiver discards it before it
    can touch dedup state (``Processor._recv_accept``), so the sender
    sees no acknowledgement, waits out the RTO and retransmits.
    Without ARQ a send is a single attempt and a checksum mismatch
    raises :class:`CorruptionError` at the receiver.

    ``lossy`` applies the fault plan's drop, duplicate, delay and
    ack-loss decisions (it is off without a plan); ``direct`` applies
    only the plan's corruption.

    ``rto`` is the base retransmission timeout in model-time units;
    when ``None`` it is derived from the machine's cost model as one
    full round trip (``2*latency + recv_overhead + alpha``).  Each
    failed attempt stalls the sender by the current RTO and multiplies
    it by ``backoff``; after ``max_retries`` retransmissions without an
    acknowledged delivery the sender raises :class:`TransportError`.

    The timer is **adaptive per channel**: each (sender, destination)
    pair remembers its last RTO.  A message that needed
    retransmissions leaves the channel's timer inflated, so the next
    message on a congested/lossy channel does not burn the full
    exponential ramp again; a clean first-attempt acknowledgement
    decays the timer halfway back toward the base.  The timer never
    exceeds ``base * backoff**max_retries`` -- the value a fixed
    scheme would reach at the retry cap -- and never falls below the
    base, and every wait is charged to the cost model and traced as a
    ``timeout`` event, so the makespan decomposition stays exhaustive.
    The per-channel state lives on the sending processor and is
    checkpointed with it, keeping post-recovery timing
    bit-reproducible.
    """

    #: trace kind stamped on a first-attempt transmission ("send" for
    #: the two-sided modes; the one-sided transport overrides it to
    #: "put" so traces show the programming model without changing
    #: any timing -- retransmissions keep the "retransmit" kind)
    SEND_KIND = "send"

    def __init__(
        self,
        mode: str,
        plan: Optional[FaultPlan] = None,
        *,
        checksums: bool = False,
        max_retries: int = 10,
        rto: Optional[float] = None,
        backoff: float = 2.0,
    ):
        if mode not in MODES:
            raise ValueError(f"unknown reliability mode: {mode!r}")
        #: the reliability mode (one of :data:`MODES`)
        self.name = mode
        self.plan = plan
        self.arq = mode in ("reliable", "onesided")
        self.lossy = plan is not None and mode != "direct"
        #: senders stamp a checksum on every envelope and receivers
        #: verify it at delivery; the unreliable mode never checksums --
        #: it exists to demonstrate the silent failure mode
        self.checksummed = checksums and mode != "unreliable"
        self.max_retries = max_retries
        self.rto = rto
        self.backoff = backoff
        self._corrupting = plan is not None and plan.any_corruption_faults
        # the raw faulty network (unreliable): the channel ordinal only
        # keys the corruption decision and never travels as a sequence
        # number -- nothing on this network checks one
        self._raw = self.lossy and not self.arq

    def send(self, proc, dest, tag, payload) -> None:
        start = proc.clock
        self._charge_startup(proc, payload)
        checksum = payload_checksum(payload) if self.checksummed else None
        self._transmit(proc, dest, tag, payload, start, checksum)

    def multicast(self, proc, dests, tag, payload) -> None:
        """One startup charge, then one transmission per destination."""
        if not dests:
            return
        start = proc.clock
        self._charge_startup(proc, payload)
        proc.stats.multicasts += 1
        self._trace_multicast(proc, dests, tag, payload, start)
        checksum = payload_checksum(payload) if self.checksummed else None
        for dest in dests:
            self._transmit(proc, dest, tag, payload, proc.clock, checksum,
                           "multicast")

    def _transmit(self, proc, dest, tag, payload, start, checksum,
                  note="") -> None:
        """The per-destination attempt loop every mode runs.

        Counts one logical message; without ARQ it makes a single
        attempt.  Every attempt puts its own wire copy of ``payload`` on
        the network, so the sender's buffer is never aliased.  ``start``
        is the sender's clock before the startup charge (the send event
        spans it); multicast legs pass ``start == clock`` so only the
        parent event carries the single shared charge.
        """
        proc.stats.messages_sent += 1
        proc.stats.words_sent += len(payload)
        machine, arq, myp = proc.machine, self.arq, proc.myp
        seq = None
        if arq:
            seq = proc.next_seq(dest)
            delivered_once = False
            base = self._initial_rto(machine.cost)
            cap = base * self.backoff ** self.max_retries
            # interned channel key: no per-message tuple allocation
            dkey = machine.canon(dest)
            rto = min(proc._arq_rto.get(dkey, base), cap)
        attempt = 0
        while True:
            dropped = self.lossy and self.plan.drops(myp, dest, tag, attempt)
            corrupted = False
            if self._corrupting and not dropped:
                # without ARQ the channel ordinal is drawn only when
                # corruption is armed, so the fault-free path consumes
                # no sequence numbers (the zero-overhead contract,
                # DESIGN.md §12); corruption schedules written as
                # (src, dst, seq) name the same logical message in
                # every mode
                ordinal = proc.next_seq(dest) if seq is None else seq
                corrupted = self.plan.corrupts(myp, dest, ordinal, attempt)
                if not self._raw:
                    seq = ordinal
            duplicated = (
                self.lossy and not dropped and not (arq and corrupted)
                and self.plan.duplicates(myp, dest, tag, attempt)
            )
            if machine.trace is not None:
                if dropped:
                    attempt_note = "dropped"
                elif corrupted:
                    # an unchecksummed copy is consumed as it arrived
                    attempt_note = (
                        "corrupted" if checksum is not None
                        else "corrupted-unchecked"
                    )
                elif duplicated and not note:
                    attempt_note = "duplicated"
                else:
                    attempt_note = note
                machine.trace.emit(TraceEvent(
                    kind=self.SEND_KIND if attempt == 0 else "retransmit",
                    rank=myp, start=start, end=proc.clock,
                    tag=tag, peer=tuple(dest), words=len(payload),
                    attempt=attempt, seq=seq,
                    incarnation=proc._incarnation, note=attempt_note,
                ))
            if dropped:
                if not arq:
                    proc.stats.messages_lost += 1
                    machine.monitor.record_send(
                        myp, dest, tag, delivered=False
                    )
                    return
            else:
                arrival = proc.clock + machine.cost.latency
                if self.lossy:
                    arrival += self.plan.delay(myp, dest, tag, attempt)
                wire = machine.wire_copy(payload)
                if corrupted:
                    # the flip happens on the wire, after the checksum
                    # was stamped: the receiver's verification fails
                    # (with ARQ the copy is discarded before it can
                    # touch dedup state, no acknowledgement comes back,
                    # and this sender falls through to the timeout
                    # below -- exactly the drop recovery path)
                    flip_word(wire, self.plan.corrupt_word(
                        len(wire), myp, dest, ordinal, attempt
                    ))
                    proc.stats.corruptions_injected += 1
                machine.deliver(
                    dest,
                    machine.make_envelope(
                        myp, seq, tag, wire, arrival, checksum
                    ),
                )
                if duplicated:
                    proc.stats.duplicates_sent += 1
                    machine.deliver(
                        dest,
                        machine.make_envelope(
                            myp, seq, tag, machine.wire_copy(wire),
                            arrival + machine.cost.latency, checksum,
                        ),
                    )
                if not arq:
                    machine.monitor.record_send(
                        myp, dest, tag, delivered=True
                    )
                    return
                if not corrupted:
                    delivered_once = True
                    if not (self.lossy and self.plan.drops_ack(
                        myp, dest, tag, attempt
                    )):
                        machine.monitor.record_send(
                            myp, dest, tag, delivered=True
                        )
                        # clean first try decays the channel timer
                        # toward base; a recovered message leaves it at
                        # the level that finally worked
                        if attempt == 0:
                            proc._arq_rto[dkey] = max(base, rto * 0.5)
                        else:
                            proc._arq_rto[dkey] = min(cap, rto)
                        return
                    proc.stats.acks_lost += 1
                    if machine.trace is not None:
                        machine.trace.emit(TraceEvent(
                            kind="ack-lost", rank=myp, start=proc.clock,
                            end=proc.clock, tag=tag, peer=tuple(dest),
                            attempt=attempt, seq=seq,
                            incarnation=proc._incarnation,
                        ))
            # wait out the retransmission timer before trying again
            timeout_start = proc.clock
            proc.clock += rto
            proc.stats.timeout_time += rto
            if machine.trace is not None:
                machine.trace.emit(TraceEvent(
                    kind="timeout", rank=myp, start=timeout_start,
                    end=proc.clock, tag=tag, peer=tuple(dest),
                    attempt=attempt, seq=seq,
                    incarnation=proc._incarnation,
                ))
            rto = min(rto * self.backoff, cap)
            if attempt == self.max_retries:
                break
            # the retransmission pays full message cost again
            attempt += 1
            proc.stats.retransmissions += 1
            start = proc.clock
            cost = machine.cost
            charge = cost.alpha + cost.beta * len(payload)
            proc.clock += charge
            proc.stats.send_time += charge
        proc._arq_rto[dkey] = cap
        machine.monitor.record_send(myp, dest, tag, delivered=delivered_once)
        raise TransportError(
            f"processor {myp} -> {dest} tag={tag}: no acknowledged "
            f"delivery after {self.max_retries + 1} "
            f"attempt{'s' if self.max_retries else ''} "
            f"({'delivered but unacked' if delivered_once else 'all copies lost'})"
        )

    # -- shared helpers ------------------------------------------------------

    def _initial_rto(self, cost) -> float:
        if self.rto is not None:
            return self.rto
        return 2.0 * cost.latency + cost.recv_overhead + cost.alpha

    def _charge_startup(self, proc, payload) -> None:
        cost = proc.machine.cost
        charge = cost.alpha + cost.beta * len(payload)
        if self.checksummed:
            charge += cost.checksum_word_time * len(payload)
        proc.clock += charge
        proc.stats.send_time += charge

    @staticmethod
    def _trace_multicast(proc, dests, tag, payload, start) -> None:
        trace = proc.machine.trace
        if trace is not None:
            trace.emit(TraceEvent(
                kind="multicast", rank=proc.myp, start=start,
                end=proc.clock, tag=tag, words=len(payload),
                count=len(dests), incarnation=proc._incarnation,
            ))


class OneSidedTransport(Transport):
    """One-sided PGAS transport: remote windows updated by ``put``.

    Each rank's tag-keyed stash *is* its remote-access window: a
    ``put`` writes a remote window entry, a ``fence`` makes every
    delivered put visible locally, and a ``get`` reads the local window
    without consuming it.  The wire protocol is the ``onesided``
    mode's ARQ -- the same attempt loop as ``reliable`` (sequence
    numbers, acks, retransmission with adaptive per-channel timers,
    receiver-side dedup, verify-before-commit checksums) -- so arrays,
    clocks and ProcStats match the reliable mode bit for bit apart
    from the ``puts`` counter this class adds; the only trace-visible
    difference is that first-attempt transmissions carry the ``put``
    kind instead of ``send`` (retransmissions keep ``retransmit``).

    Fault injection applies unchanged: drop/dup/stall decisions hit
    puts exactly as they hit sends (same plan hash stream, same channel
    ordinals), and a corrupted put is discarded by the receiver's
    checksum verification *before* it can commit to the window -- the
    ARQ retransmits it, so windows only ever hold verified data.

    The synchronization *cost* lives in the receiving node program, not
    here: a program compiled with ``SPMDOptions.early_puts`` waits at a
    fence (priced at ``CostModel.fence_time`` per consumed message)
    instead of paying ``recv_overhead`` per two-sided receive -- see
    ``Processor._recv_finish`` and DESIGN.md §16.  The explicit
    ``put``/``get``/``fence`` methods below expose the window model to
    hand-written harnesses and the property-test suite.
    """

    SEND_KIND = "put"

    def __init__(self, plan: Optional[FaultPlan] = None, **options):
        super().__init__("onesided", plan, **options)

    def send(self, proc, dest, tag, payload) -> None:
        proc.stats.puts += 1
        super().send(proc, dest, tag, payload)

    def multicast(self, proc, dests, tag, payload) -> None:
        proc.stats.puts += len(dests)
        super().multicast(proc, dests, tag, payload)

    # -- explicit window API (hand-written harnesses, property tests) -----

    def put(self, proc, dest, tag, payload) -> None:
        """One-sided remote write: alias of :meth:`send` (the ARQ makes
        the window update reliable and exactly-once)."""
        self.send(proc, dest, tag, payload)

    def fence(self, proc) -> None:
        """Window synchronization point.

        Commits every copy already delivered to ``proc``'s mailbox into
        its window (the stash) -- corrupted copies are discarded by the
        usual verify-before-commit, duplicated copies by seq dedup --
        and charges ``CostModel.fence_time`` to the model clock.
        """
        start = proc.clock
        for envelope in proc.mailbox.drain():
            if envelope is not WAKE:
                proc._recv_accept(envelope)
        cost = proc.machine.cost
        proc.clock += cost.fence_time
        proc.stats.fences += 1
        proc.stats.fence_time += cost.fence_time
        trace = proc.machine.trace
        if trace is not None:
            trace.emit(TraceEvent(
                kind="fence-wait", rank=proc.myp, start=start,
                end=proc.clock, incarnation=proc._incarnation,
            ))

    def get(self, proc, tag):
        """One-sided local window read: the payload ``tag`` holds after
        the last fence, or ``None`` if no put has committed yet.  Reads
        do not consume the window entry (unlike a two-sided recv) and
        cost nothing beyond the fence that made the data visible."""
        proc.stats.gets += 1
        trace = proc.machine.trace
        if trace is not None:
            trace.emit(TraceEvent(
                kind="get", rank=proc.myp, start=proc.clock,
                end=proc.clock, tag=tag,
                incarnation=proc._incarnation,
            ))
        entry = proc._stash.get(tag)
        if entry is None:
            return None
        payload, _arrival = entry
        return copy_payload(payload)
