"""Structured event tracing for the SPMD runtime (DESIGN.md §11).

The simulator has always *computed* exactly where model time goes --
every clock mutation is a deterministic charge -- but it only reported
aggregates (:class:`~.machine.ProcStats`, the final makespan).  This
module records the individual charges as **typed, model-clock-stamped
events** so the paper's claims about communication behaviour ("early
sends overlap communication with computation", message aggregation,
multicast reuse) become measurable artifacts instead of eyeballed
plots.

Design rules (load-bearing; the conformance suite pins them):

* **Tracing is observation only.**  No event emission ever touches a
  clock, a stat, a payload, or a decision.  A traced run and an
  untraced run are bit-identical in arrays, makespans and
  ``ProcStats`` -- asserted by ``tests/runtime/test_trace_zero_overhead``
  against goldens captured before this subsystem existed.
* **Events are deterministic.**  Every event is stamped with the
  *model* clock at a point fixed by the node program and the one
  scheduler's (clock, rank) order, so repeated runs, and runs on
  transports that must agree, produce equal normalized traces,
  mailbox-acceptance markers (``dup-drop``, ``corrupt-drop``) included.
* **Vectorized segments are single spanning events** (``count = n``):
  the emitter's ``execute_block`` charges each gathered segment's
  ``n`` iterations at once (a block is one segment unless a
  checkpoint, scheduled crash or replay cut falls inside it), and the
  trace mirrors that as one ``compute`` event covering the segment, so
  scalar and vectorized traces decompose time identically even though
  their event counts differ.  A range-kernel segment (a loop the
  read-after-write proof keeps in scalar order) emits one event per
  operation, exactly as the scalar path does.

Event kinds
-----------

=============== ==========================================================
``compute``     one statement execution (``count`` iterations; spans the
                flop charge)
``pack``        a payload leaving local arrays (zero-span marker at the
                send; the shipped cost models fold pack time into
                ``alpha``/``beta``)
``send``        one logical point-to-point message (spans the
                ``alpha + beta*words`` charge; zero-span under a
                multicast, whose parent event carries the charge)
``multicast``   one optimized multi-destination send (spans the single
                startup charge; followed by per-destination ``send``
                markers)
``retransmit``  one ARQ retransmission attempt (spans its full
                re-send charge)
``timeout``     one ARQ retransmission-timer wait (spans the RTO)
``ack-lost``    marker: an acknowledgement was dropped by the network
``recv-wait``   marker: the node program started waiting for a tag
``recv-complete`` the wait ended (spans ``recv_overhead`` plus any
                blocked-on-recv stall; carries the message ``arrival``;
                ``note == 'fence'`` when the consumption was a fenced
                one-sided window read priced at ``fence_time``)
``unpack``      marker paired with ``recv-complete`` (see ``pack``)
``put``         one one-sided remote window write (the onesided
                transport's first-attempt transmission; identical span
                and charge to ``send``, different programming model)
``get``         marker: a local window read consumed fenced data (the
                one-sided analogue of ``unpack``)
``fence-wait``  marker: the node program reached a window
                synchronization point (the one-sided analogue of
                ``recv-wait``; the fence charge is carried by the
                paired ``recv-complete`` span)
``mc-hit``      marker: a multicast payload was consumed from the local
                cache (no message, no cost)
``dup-drop``    marker: receiver-side dedup discarded a duplicate copy
``corrupt-drop`` marker: receiver-side checksum verification discarded
                a corrupted copy (ARQ transports; the sender times out
                and retransmits)
``stall``       a fault-injected transient processor stall
``checkpoint``  one snapshot (spans the ``checkpoint_word_time`` charge)
``snapshot-corrupt`` marker: recovery rejected a snapshot whose digest
                no longer verified and fell back to an older cut
``crash``       marker: a fail-stop crash
``restart``     one crashed processor's restart (spans the
                recovery jump: detection + restart penalty + reload)
``tick``        an explicit ``Processor.tick`` (hand-written harnesses)
``reorg``       one (source, destination) leg of a collective
                reorganization (:func:`~.collective.reorganize`)
=============== ==========================================================
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Dict, IO, Iterable, List, Optional, Tuple, Union

__all__ = [
    "TraceBuffer",
    "TraceEvent",
    "match_messages",
]

#: machine-level events (collective reorganizations, run-level notes)
#: are attributed to this pseudo-rank.
MACHINE_RANK: Tuple[int, ...] = ()


@dataclass(frozen=True)
class TraceEvent:
    """One typed, model-clock-stamped runtime event.

    ``start``/``end`` are model clocks on ``rank``; ``end - start`` is
    exactly the clock charge of the operation (zero for markers),
    except for ``recv-complete`` where the span additionally includes
    the blocked-on-recv stall and ``overhead`` names the
    ``recv_overhead`` portion.
    """

    kind: str
    rank: Tuple[int, ...]
    start: float
    end: float
    #: statement name for ``compute`` events
    stmt: Optional[str] = None
    #: message tag for communication events
    tag: Optional[tuple] = None
    #: destination rank for ``send``/``retransmit``/``reorg`` events
    peer: Optional[Tuple[int, ...]] = None
    #: payload length in words
    words: int = 0
    #: iterations covered (vectorized blocks span ``count`` > 1);
    #: destinations covered for ``multicast`` events
    count: int = 1
    #: ARQ attempt number (0 = original transmission)
    attempt: int = 0
    #: ARQ sequence number (None on the direct channel)
    seq: Optional[int] = None
    #: message arrival clock (``recv-complete`` only)
    arrival: Optional[float] = None
    #: the ``recv_overhead`` portion of a ``recv-complete`` span
    overhead: float = 0.0
    #: crash-tolerance incarnation the event was observed in
    incarnation: int = 0
    #: free-form qualifier: 'dropped', 'corrupted' (a checksummed copy
    #: the receiver discards), 'corrupted-unchecked' (a copy consumed
    #: without a checksum), 'multicast', 'scheduled', ...
    note: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start

    def key(self) -> tuple:
        """A fully comparable normal form (heterogeneous fields such as
        tags are stringified so sorting never hits a type error)."""
        return (
            self.start,
            self.end,
            self.rank,
            self.kind,
            self.stmt or "",
            repr(self.tag),
            repr(self.peer),
            self.words,
            self.count,
            self.attempt,
            repr(self.seq),
            repr(self.arrival),
            self.overhead,
            self.incarnation,
            self.note,
        )

    def describe(self) -> str:
        bits = [f"[{self.start:g}..{self.end:g}]", str(self.rank), self.kind]
        if self.stmt:
            bits.append(self.stmt)
            if self.count != 1:
                bits.append(f"x{self.count}")
        if self.tag is not None:
            bits.append(f"tag={self.tag}")
        if self.peer is not None:
            bits.append(f"-> {self.peer}")
        if self.words:
            bits.append(f"{self.words}w")
        if self.note:
            bits.append(f"({self.note})")
        return " ".join(bits)


class TraceBuffer:
    """Per-run event store: one append-only list per processor."""

    def __init__(self) -> None:
        self._by_rank: Dict[Tuple[int, ...], List[TraceEvent]] = {
            MACHINE_RANK: []
        }

    # -- recording -----------------------------------------------------------

    def emit(self, event: TraceEvent) -> None:
        try:
            self._by_rank[event.rank].append(event)
        except KeyError:
            self._by_rank.setdefault(event.rank, []).append(event)

    # -- access --------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_rank.values())

    def ranks(self) -> List[Tuple[int, ...]]:
        """Processor ranks with at least one event (machine rank ``()``
        included only when it has events)."""
        return sorted(r for r, evs in self._by_rank.items() if evs)

    def proc_ranks(self) -> List[Tuple[int, ...]]:
        return [r for r in self.ranks() if r != MACHINE_RANK]

    def per_rank(self, rank: Tuple[int, ...]) -> List[TraceEvent]:
        """``rank``'s events in emission (program) order."""
        return list(self._by_rank.get(tuple(rank), ()))

    def events(self) -> List[TraceEvent]:
        """All events, globally ordered by (start, end, rank, emission
        index) -- a deterministic total order."""
        rows = []
        for rank in sorted(self._by_rank):
            for idx, ev in enumerate(self._by_rank[rank]):
                rows.append((ev.start, ev.end, rank, idx, ev))
        rows.sort(key=lambda row: row[:4])
        return [row[4] for row in rows]

    def by_kind(self, *kinds: str) -> List[TraceEvent]:
        want = frozenset(kinds)
        return [e for e in self.events() if e.kind in want]

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for evs in self._by_rank.values():
            for e in evs:
                out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def normalized(
        self, kinds: Optional[Iterable[str]] = None
    ) -> List[tuple]:
        """The trace as a sorted list of comparable tuples.

        This is the conformance artifact: two runs that must agree
        (repeats, traced vs untraced, reliable vs onesided) produce
        *equal* normalized traces.  ``kinds`` restricts the view (e.g.
        to communication events only, which are additionally invariant
        across scalar/vectorized codegen); by default every kind is
        included.
        """
        want = None if kinds is None else frozenset(kinds)
        rows = [
            e.key()
            for evs in self._by_rank.values()
            for e in evs
            if want is None or e.kind in want
        ]
        rows.sort()
        return rows

    # -- Chrome trace_event export --------------------------------------------

    def to_chrome(self) -> dict:
        """The trace as a Chrome ``trace_event`` JSON object.

        Load the result in Perfetto (https://ui.perfetto.dev) or
        ``chrome://tracing``: one track per processor, complete events
        for spans, instant events for markers, and flow arrows from
        every send to its matching receive.  Model time units map to
        microseconds 1:1.
        """
        ranks = self.ranks()
        tids = {rank: i + 1 for i, rank in enumerate(ranks)}
        out: List[dict] = []
        for rank in ranks:
            name = "machine" if rank == MACHINE_RANK else f"proc {rank}"
            out.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": tids[rank],
                    "args": {"name": name},
                }
            )
        for ev in self.events():
            args = {
                k: v
                for k, v in (
                    ("stmt", ev.stmt),
                    ("tag", repr(ev.tag) if ev.tag is not None else None),
                    ("peer", repr(ev.peer) if ev.peer is not None else None),
                    ("words", ev.words or None),
                    ("count", ev.count if ev.count != 1 else None),
                    ("attempt", ev.attempt or None),
                    ("seq", ev.seq),
                    ("arrival", ev.arrival),
                    ("incarnation", ev.incarnation or None),
                    ("note", ev.note or None),
                )
                if v is not None
            }
            name = ev.kind if ev.stmt is None else f"{ev.kind} {ev.stmt}"
            base = {
                "name": name,
                "cat": ev.kind,
                "pid": 0,
                "tid": tids[ev.rank],
                "args": args,
            }
            if ev.duration > 0:
                out.append(
                    {**base, "ph": "X", "ts": ev.start, "dur": ev.duration}
                )
            else:
                out.append({**base, "ph": "i", "ts": ev.start, "s": "t"})
        for flow_id, (send, recv) in enumerate(match_messages(self)):
            out.append(
                {
                    "name": "message",
                    "cat": "flow",
                    "ph": "s",
                    "id": flow_id,
                    "pid": 0,
                    "tid": tids[send.rank],
                    "ts": send.end,
                }
            )
            out.append(
                {
                    "name": "message",
                    "cat": "flow",
                    "ph": "f",
                    "bp": "e",
                    "id": flow_id,
                    "pid": 0,
                    "tid": tids[recv.rank],
                    "ts": recv.end,
                }
            )
        return {"traceEvents": out, "displayTimeUnit": "ms"}

    def write_chrome(self, target: Union[str, IO[str]]) -> None:
        doc = self.to_chrome()
        if hasattr(target, "write"):
            json.dump(doc, target)
        else:
            with open(target, "w") as fh:
                json.dump(doc, fh)


def match_messages(
    trace: TraceBuffer,
) -> List[Tuple[TraceEvent, TraceEvent]]:
    """Pair every ``recv-complete`` with the ``send`` (or one-sided
    ``put``) that produced it.

    Matching is FIFO per ``(destination rank, tag)``: a tag is emitted
    by a single sender in its deterministic program order, and a
    receiver consumes each tag occurrence in its own program order, so
    the k-th receive of a tag consumes the k-th delivered send of that
    tag.  Transmission attempts the network dropped outright
    (``note == 'dropped'``) never match, and neither do checksummed
    corrupted copies (``note == 'corrupted'``): they are delivered but
    the receiver's checksum verification discards them, so they cannot
    be the copy a receive consumed.  A copy sent without a checksum
    (the unreliable mode, or any mode with checksums off) is consumed
    as it arrived, corruption and all; it is noted
    ``'corrupted-unchecked'`` and does match.  A ``retransmit``
    attempt can match (it is the delivery when the ARQ's first copy was
    lost or rotten).
    Returns (send, recv) pairs ordered by receive time; unmatched
    events are simply absent (see
    :func:`~.analysis.unmatched_receives` for the audit).
    """
    sends: Dict[tuple, deque] = {}
    for ev in trace.events():
        if ev.kind in ("send", "put", "retransmit") and ev.note not in (
            "dropped", "corrupted"
        ):
            sends.setdefault((ev.peer, repr(ev.tag)), deque()).append(ev)
    pairs: List[Tuple[TraceEvent, TraceEvent]] = []
    for ev in trace.events():
        if ev.kind != "recv-complete":
            continue
        queue = sends.get((ev.rank, repr(ev.tag)))
        if queue:
            pairs.append((queue.popleft(), ev))
    return pairs
