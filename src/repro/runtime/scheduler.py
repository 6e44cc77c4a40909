"""The deterministic discrete-event scheduler that drives every run.

Simulated time never needed real concurrency: the machine is
deterministic and the Lamport clocks are computed, not measured.  So
every processor runs as a **generator-based coroutine** on the calling
thread (DESIGN.md §13):

* node programs *yield* their receive requests (``('recv', src, tag)``
  / ``('recv_mc', src, tag)``, or the fenced one-sided forms
  ``('recv_fence', src, tag)`` / ``('recv_mc_fence', src, tag)``)
  instead of blocking; the scheduler parks the coroutine until the tag
  is available and resumes it with the payload;
* ready coroutines live in a binary heap keyed by **(Lamport clock,
  coordinate)**.  A ready coroutine's clock cannot change until it is
  stepped, so the key it was pushed with is its key at pop time: one
  deterministic virtual-time order, reproducible by construction;
* parked ranks are woken by a **delivery watcher** hook on
  ``Machine.deliver`` instead of being polled -- an idle rank costs
  zero cycles, which is what makes P >= 1024 routine;
* **true deadlock** is structural: when no coroutine is runnable and
  draining every parked mailbox satisfies nobody, the
  :class:`~.diagnostics.ProgressMonitor` audit (fed by the park/resume
  transitions) has proven ``in_flight == 0`` with everyone blocked, and
  the scheduler converts its WAKE pills into
  :class:`~.diagnostics.DeadlockError` failures.

Costs, stats, stash/dedup handling and the checkpoint replay fast path
live in ``Processor._recv_prologue`` / ``_recv_accept`` /
``_recv_finish``; this module only decides *when* each runs.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, Dict, List, Tuple

from .diagnostics import WAKE, DeadlockError
from .faults import ProcessorCrashed

__all__ = ["Scheduler"]

#: resume token for a coroutine that has not started yet
_START = object()


class Scheduler:
    """Run one machine incarnation as coroutines on the current thread."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self.failures: List[Tuple[Tuple[int, ...], BaseException]] = []
        #: myp -> (tag, mc_flag, fenced) for a parked receive
        self.waiting: Dict[Tuple[int, ...], Tuple[tuple, bool, bool]] = {}
        self.gens: Dict[Tuple[int, ...], object] = {}
        #: the node program, kept for re-instantiating a locally
        #: recovered rank's coroutine
        self._node_fn: Callable | None = None
        #: coroutine resumes ("scheduler wakeups"), surfaced by the run
        #: summary's throughput line
        self.steps = 0
        #: (frozen clock, rank, resume token) ready events
        self._heap: List[tuple] = []
        #: parked ranks with undrained deliveries; every other parked
        #: rank's mailbox is provably empty (it pumped before parking
        #: and the watcher has flagged nothing since)
        self._pending: set = set()

    def run(
        self, node_fn: Callable
    ) -> List[Tuple[Tuple[int, ...], BaseException]]:
        machine = self.machine
        self._node_fn = node_fn
        procs = machine.procs
        gens = self.gens
        heap = self._heap
        for myp in machine.rank_order:
            gens[myp] = node_fn(procs[myp])
            # after a rollback the resume clock is nonzero, so seed
            # with the live clock rather than assuming zero
            heap.append((procs[myp].clock, myp, _START))
        heapq.heapify(heap)
        machine._delivery_watcher = self._on_delivery
        try:
            deadline = time.monotonic() + machine.timeout * 4
            while heap or self.waiting:
                if time.monotonic() > deadline:
                    raise DeadlockError(
                        f"node program did not terminate within "
                        f"{machine.timeout * 4:g}s",
                        report=machine.monitor.build_report(),
                    )
                if heap:
                    _clock, myp, token = heapq.heappop(heap)
                    self._step(myp, token)
                else:
                    self._drain_parked()
        finally:
            machine._delivery_watcher = None
        return self.failures

    # -- one coroutine step --------------------------------------------------

    def _step(self, myp: Tuple[int, ...], token) -> None:
        """Resume ``myp`` and run it until it parks, finishes or fails."""
        machine = self.machine
        proc = machine.procs[myp]
        gen = self.gens[myp]
        self.steps += 1
        try:
            if token is _START:
                request = next(gen)
            else:
                tag, mc, fenced = token
                payload = proc._recv_finish(tag, fenced=fenced)
                if mc:
                    proc._mc_cache[tag] = payload
                request = gen.send(payload)
            while True:
                kind, _src, tag = request
                if kind == "recv_mc" or kind == "recv_mc_fence":
                    mc = True
                    fenced = kind == "recv_mc_fence"
                    cached = proc._mc_cache.get(tag)
                    if cached is not None:
                        proc._trace_mc_hit(tag)
                        request = gen.send(cached)
                        continue
                elif kind == "recv" or kind == "recv_fence":
                    mc = False
                    fenced = kind == "recv_fence"
                else:
                    raise TypeError(
                        f"node program yielded unknown request kind {kind!r}"
                    )
                replayed = proc._recv_prologue(tag, fenced=fenced)
                if replayed is not None:  # checkpoint fast-forward replay
                    if mc:
                        proc._mc_cache[tag] = replayed
                    request = gen.send(replayed)
                    continue
                self._pump_mailbox(proc)
                if tag in proc._stash:
                    payload = proc._recv_finish(tag, fenced=fenced)
                    if mc:
                        proc._mc_cache[tag] = payload
                    request = gen.send(payload)
                    continue
                # park: the monitor's block() runs the deadlock test
                self.waiting[myp] = (tag, mc, fenced)
                machine.monitor.block(myp, tag)
                return
        except StopIteration:
            machine.monitor.finish(myp, clean=True)
        except ProcessorCrashed as exc:
            if not self._recover_local(myp, exc):
                self.failures.append((myp, exc))
                machine.monitor.finish(myp, clean=False)
        except BaseException as exc:  # noqa: BLE001 - surfaced by Machine.run
            self.failures.append((myp, exc))
            machine.monitor.finish(myp, clean=False)

    def _recover_local(self, myp: Tuple[int, ...], exc) -> bool:
        """Localized recovery: restart only the crashed rank.

        Under ``recovery="local"`` the machine restores ``myp`` from
        its own latest valid snapshot (live ranks are untouched),
        re-injects the sender-logged messages it still needs, and
        hands back a fresh :class:`~.machine.Processor`.  The crashed
        rank's coroutine is re-instantiated and seeded runnable; its
        checkpoint fast-forward replay then runs entirely inside its
        next ``_step``.  Returns False when local recovery does not
        apply (global mode, no checkpoint store, restart budget
        exhausted) -- the caller falls through to the fail path.
        """
        machine = self.machine
        if machine.recovery != "local":
            return False
        fresh = machine._local_recover(exc)
        if fresh is None:
            return False
        self.gens[myp] = self._node_fn(fresh)
        self._unpark(myp, _START)
        return True

    # -- mailbox handling ----------------------------------------------------

    @staticmethod
    def _pump_mailbox(proc) -> bool:
        """Drain ``proc``'s mailbox into its stash.  Returns True when a
        WAKE pill was found (deadlock diagnosed by the monitor)."""
        woke = False
        for envelope in proc.mailbox.drain():
            if envelope is WAKE:
                woke = True
                continue
            proc._recv_accept(envelope)
        return woke

    def _on_delivery(self, dest: Tuple[int, ...]) -> None:
        """Machine.deliver hook: flag a parked receiver for wakeup.
        Deliveries to running/ready ranks need no flag -- they pump
        their own mailbox before deciding to park."""
        if dest in self.waiting:
            self._pending.add(dest)

    def _unpark(self, myp: Tuple[int, ...], token) -> None:
        """Hand a satisfied receive back to the ready heap."""
        heapq.heappush(
            self._heap, (self.machine.procs[myp].clock, myp, token)
        )

    def _drain_one(self, myp: Tuple[int, ...]) -> bool:
        """Pump one parked rank's mailbox.  True when it progressed:
        the rank was resumed, failed, or converted to a deadlock."""
        machine = self.machine
        proc = machine.procs[myp]
        tag, mc, fenced = self.waiting[myp]
        try:
            woke = self._pump_mailbox(proc)
        except BaseException as exc:  # noqa: BLE001 - surfaced by Machine.run
            # a CorruptionError raised while accepting a delivery
            # fails the receiving rank
            del self.waiting[myp]
            self.failures.append((myp, exc))
            machine.monitor.finish(myp, clean=False)
            return True
        if tag in proc._stash:
            del self.waiting[myp]
            machine.monitor.unblock(myp)
            self._unpark(myp, (tag, mc, fenced))
            return True
        if woke:
            del self.waiting[myp]
            err = DeadlockError(
                f"deadlock: processor {myp} waits on {tag}, which "
                f"no in-flight or future message can satisfy",
                report=machine.monitor.report,
            )
            self.failures.append((myp, err))
            machine.monitor.finish(myp, clean=False)
            return True
        return False

    def _drain_each(self, ranks) -> bool:
        """Pump every parked rank in ``ranks``; True if any progressed."""
        progressed = False
        for myp in ranks:
            if self._drain_one(myp):
                progressed = True
        return progressed

    def _drain_parked(self) -> None:
        """No coroutine is runnable: satisfy parked receives from their
        mailboxes, or convert a diagnosed deadlock into failures.

        Flagged ranks (mail arrived since they parked) go first.  WAKE
        pills bypass the watcher, but the monitor only pushes them once
        every rank is parked and nothing is in flight -- so when no
        flagged rank progresses, a full pass over every parked rank
        converts them."""
        machine = self.machine
        pending = self._pending
        if pending:
            flagged = sorted(p for p in pending if p in self.waiting)
            pending.clear()
            if self._drain_each(flagged):
                return
        if self._drain_each(sorted(self.waiting)) or not self.waiting:
            return
        # Nothing moved: every parked mailbox was empty.  Re-run the
        # monitor's deadlock test (dequeues above may have zeroed the
        # in-flight count after the last block() check) -- on a true
        # deadlock it pushes WAKE pills that the next pass converts.
        for myp in sorted(self.waiting):
            machine.monitor.block(myp, self.waiting[myp][0])
        if not machine.monitor.deadlocked:
            # not a structural deadlock (should be unreachable: with no
            # runnable coroutine there is no future sender) -- fail loud
            # rather than spin
            raise DeadlockError(
                "scheduler stalled: no runnable processor and "
                "no satisfiable receive",
                report=machine.monitor.build_report(),
            )
