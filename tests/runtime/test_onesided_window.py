"""One-sided window semantics: fence ordering and put idempotence.

The PGAS transport's contract (DESIGN.md §16), pinned by property
tests over the raw ``put``/``fence``/``get`` API:

* **Fence ordering**: a ``get`` never observes a pre-fence put at all
  -- and never *partially*.  Payload words commit to the window
  atomically at fence time (verify-then-commit on the tag-keyed
  stash), so a reader sees either nothing or every word of exactly one
  committed put, even when a same-tag overwrite is in flight.
* **Put idempotence**: ARQ-style duplication (the same sequence number
  delivered more than once) commits exactly one copy; duplicates are
  counted and discarded before the window, never merged into it.
* **Isolation**: ``get`` returns a copy -- mutating it cannot corrupt
  the window, and the window entry survives repeated reads (unlike a
  two-sided receive, a get does not consume).
* **Pricing**: each fence charges exactly ``CostModel.fence_time`` to
  the local clock and books it in the ``fence_time`` stats bucket.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decomp import block_loop
from repro.lang import parse
from repro.runtime import CostModel, FaultPlan, Machine, OneSidedTransport
from repro.runtime.machine import Processor

SRC = """
array X[N + 1]
assume N >= 3
assume T >= 0
for t = 0 to T do
  for i = 3 to N do
    X[i] = X[i - 3]
"""


def window_machine(nprocs=2, plan=None, cost=None):
    """A machine + live processors for driving the transport directly
    (no scheduler: the tests control delivery and fence order)."""
    prog = parse(SRC)
    stmt = prog.statements()[0]
    comp = block_loop(stmt, ["i"], [16])
    machine = Machine(
        prog, comp.space, {"N": 70, "T": 0, "P": nprocs},
        reliability="onesided", fault_plan=plan,
        cost=cost or CostModel(),
    )
    assert isinstance(machine.transport, OneSidedTransport)
    procs = {myp: Processor(machine, myp, {}) for myp in machine.rank_order}
    machine.procs = procs
    return machine, procs


payloads = st.lists(
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    min_size=1, max_size=16,
).map(lambda xs: np.asarray(xs, dtype=float))


class TestFenceOrdering:
    @settings(max_examples=25, deadline=None)
    @given(payload=payloads, tag_id=st.integers(0, 3))
    def test_put_invisible_before_fence_complete_after(
        self, payload, tag_id
    ):
        machine, procs = window_machine()
        t = machine.transport
        p0, p1 = procs[(0,)], procs[(1,)]
        tag = ("w", tag_id)
        t.put(p0, (1,), tag, payload)
        # in flight: the window shows nothing at all for this tag
        assert t.get(p1, tag) is None
        t.fence(p1)
        got = t.get(p1, tag)
        assert got is not None
        assert np.array_equal(got, payload)

    @settings(max_examples=25, deadline=None)
    @given(first=payloads, second=payloads)
    def test_overwrite_is_atomic_never_a_mix(self, first, second):
        """Same-tag puts across fences: each fence exposes one complete
        payload.  A reader can never see old and new words mixed."""
        machine, procs = window_machine()
        t = machine.transport
        p0, p1 = procs[(0,)], procs[(1,)]
        tag = ("w", 0)
        t.put(p0, (1,), tag, first)
        t.fence(p1)
        assert np.array_equal(t.get(p1, tag), first)
        t.put(p0, (1,), tag, second)
        # the overwrite is in flight: the window still shows ALL of the
        # first payload, none of the second
        assert np.array_equal(t.get(p1, tag), first)
        t.fence(p1)
        assert np.array_equal(t.get(p1, tag), second)

    @settings(max_examples=15, deadline=None)
    @given(
        data=st.lists(payloads, min_size=1, max_size=4),
    )
    def test_one_fence_commits_every_outstanding_put(self, data):
        """A single fence makes every in-flight put visible -- distinct
        tags never require distinct fences."""
        machine, procs = window_machine()
        t = machine.transport
        p0, p1 = procs[(0,)], procs[(1,)]
        for k, payload in enumerate(data):
            t.put(p0, (1,), ("w", k), payload)
            assert t.get(p1, ("w", k)) is None
        t.fence(p1)
        for k, payload in enumerate(data):
            assert np.array_equal(t.get(p1, ("w", k)), payload)

    def test_get_returns_copies_and_does_not_consume(self):
        machine, procs = window_machine()
        t = machine.transport
        p0, p1 = procs[(0,)], procs[(1,)]
        payload = np.arange(6.0)
        t.put(p0, (1,), ("w", 0), payload)
        t.fence(p1)
        first = t.get(p1, ("w", 0))
        first[:] = -1.0
        again = t.get(p1, ("w", 0))
        assert np.array_equal(again, payload), "get must return a copy"
        assert t.get(p1, ("w", 0)) is not None, "get must not consume"
        assert p1.stats.gets == 3


class TestPutIdempotence:
    @settings(max_examples=25, deadline=None)
    @given(
        payload=payloads,
        seed=st.integers(0, 10_000),
        dup_rate=st.sampled_from([0.5, 1.0]),
    )
    def test_duplicated_puts_commit_exactly_once(
        self, payload, seed, dup_rate
    ):
        """ARQ-style duplication: however many copies of the same
        sequence number arrive, exactly one commits; the rest are
        counted and dropped before the window."""
        plan = FaultPlan(seed=seed, dup_rate=dup_rate)
        machine, procs = window_machine(plan=plan)
        t = machine.transport
        p0, p1 = procs[(0,)], procs[(1,)]
        tag = ("w", 0)
        t.put(p0, (1,), tag, payload)
        copies = len(p1.mailbox)
        assert copies >= 1
        t.fence(p1)
        assert np.array_equal(t.get(p1, tag), payload)
        assert p1.stats.duplicates_dropped == copies - 1
        # a later fence must not resurrect or re-apply anything
        t.fence(p1)
        assert np.array_equal(t.get(p1, tag), payload)
        assert p1.stats.duplicates_dropped == copies - 1

    def test_redelivery_after_commit_is_dropped(self):
        """A duplicate that arrives *after* its original committed
        (straggling retransmit) is discarded by seq dedup at the next
        fence, leaving the window untouched."""
        plan = FaultPlan(seed=3, dup_rate=1.0)
        machine, procs = window_machine(plan=plan)
        t = machine.transport
        p0, p1 = procs[(0,)], procs[(1,)]
        payload = np.arange(3.0)
        t.put(p0, (1,), ("w", 0), payload)
        assert len(p1.mailbox) == 2
        # commit the original only
        p1._recv_accept(next(p1.mailbox.drain()))
        assert np.array_equal(t.get(p1, ("w", 0)), payload)
        before = t.get(p1, ("w", 0))
        t.fence(p1)  # drains the straggler duplicate
        assert p1.stats.duplicates_dropped == 1
        assert np.array_equal(t.get(p1, ("w", 0)), before)


class TestFencePricing:
    def test_each_fence_charges_fence_time(self):
        cost = CostModel(fence_time=25.0)
        machine, procs = window_machine(cost=cost)
        t = machine.transport
        p1 = procs[(1,)]
        start = p1.clock
        t.fence(p1)
        t.fence(p1)
        assert p1.clock == start + 2 * cost.fence_time
        assert p1.stats.fences == 2
        assert p1.stats.fence_time == 2 * cost.fence_time

    def test_fence_is_free_by_default(self):
        machine, procs = window_machine()
        t = machine.transport
        p1 = procs[(1,)]
        start = p1.clock
        t.fence(p1)
        assert p1.clock == start
        assert p1.stats.fences == 1
        assert p1.stats.fence_time == 0.0

    def test_missing_window_entry_reads_none_and_counts(self):
        machine, procs = window_machine()
        t = machine.transport
        p1 = procs[(1,)]
        assert t.get(p1, ("never", 9)) is None
        assert p1.stats.gets == 1
