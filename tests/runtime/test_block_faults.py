"""Fault runs at block granularity: scalar and vectorized node programs
must stay the same machine under checkpoints, crashes and replay.

A vectorized compute block runs as numpy segments that split only where
an operation's bookkeeping is observable -- fast-forward replay reaching
its cut, a checkpoint coming due, the rank's scheduled crash time being
reached.  These tests run every chaos workload compiled both ways under
the same fault plan and demand the same run: arrays, clocks, per-rank
``ProcStats``, crash events, checkpoint counts, recovery accounting and
the communication trace.  A guard with exact event counts keeps the
per-operation fallback from coming back.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import (
    CheckpointPolicy,
    CostModel,
    FaultPlan,
    Machine,
    chaos,
    run_spmd,
)

from .trace_workloads import (
    COMM_KINDS,
    assert_identical_runs,
    canonical_trace,
)

_SPMD = {}


def spmd_for(name, vectorize):
    key = (name, vectorize)
    if key not in _SPMD:
        base = chaos.WORKLOADS[name]
        _SPMD[key] = chaos.Scenario(
            name=base.name,
            source=base.source,
            comps=base.comps,
            params=base.params,
            vectorize=vectorize,
        ).build()
    return _SPMD[key]


def run_both(name, plan, **kw):
    """(scalar, vector) traced runs of workload ``name`` under ``plan``."""
    params = chaos.WORKLOADS[name].params
    kw.setdefault("max_restarts", 20)
    return tuple(
        run_spmd(spmd_for(name, vec), params, fault_plan=plan, trace=True,
                 **kw)
        for vec in (False, True)
    )


def assert_same_fault_run(scalar, vector, label):
    assert_identical_runs(scalar, vector, label)
    assert vector.clocks == scalar.clocks, label
    assert vector.crash_events == scalar.crash_events, label
    assert vector.checkpoints == scalar.checkpoints, label
    assert vector.restarts == scalar.restarts, label
    assert vector.work_wasted == scalar.work_wasted, label
    assert vector.recovery_time == scalar.recovery_time, label
    assert vector.log_bytes_peak == scalar.log_bytes_peak, label
    assert vector.snapshots_rejected == scalar.snapshots_rejected, label
    assert canonical_trace(vector.trace, COMM_KINDS) == canonical_trace(
        scalar.trace, COMM_KINDS
    ), label


@functools.lru_cache(maxsize=None)
def fault_free_clocks(name):
    params = chaos.WORKLOADS[name].params
    return run_spmd(spmd_for(name, False), params).clocks


def rank_order(name):
    params = chaos.WORKLOADS[name].params
    space = spmd_for(name, True).space
    return sorted(tuple(c) for c in space.all_physical(params))


def mid_block_span(name, rank, frac, **kw):
    """``rank``'s first vectorized compute segment of at least three
    operations that starts at or after ``frac`` of its lifetime (else
    its last one), in a crash-free run under the same options --
    checkpoint charges shift the timeline, so the span is found with
    them in place.  None for workloads with no such segment."""
    params = chaos.WORKLOADS[name].params
    run = run_spmd(spmd_for(name, True), params, trace=True, **kw)
    spans = [
        e for e in run.trace.per_rank(rank)
        if e.kind == "compute" and e.count >= 3
    ]
    late = [e for e in spans if e.start >= frac * run.clocks[rank]]
    if late:
        return late[0]
    return spans[-1] if spans else None


def crash_time(name, rank, frac, **kw):
    """A crash time for ``rank`` in the middle of a vectorized segment
    (:func:`mid_block_span`), or at ``frac`` of its lifetime when the
    workload has no block."""
    span = mid_block_span(name, rank, frac, **kw)
    if span is not None:
        return (span.start + span.end) / 2
    params = chaos.WORKLOADS[name].params
    return frac * run_spmd(spmd_for(name, True), params, **kw).clocks[rank]


#: fault configurations; each one runs over all five workloads.
#: ``crash`` = (rank position in rank order, fraction of its lifetime);
#: ``expect`` = a RunResult counter some workload must make nonzero
CONFIGS = {
    "every_ops_7": dict(
        policy=CheckpointPolicy(every_ops=7), crash=(0, 0.3),
    ),
    "every_ops_13": dict(
        policy=CheckpointPolicy(every_ops=13), crash=(-1, 0.61),
    ),
    "interval": dict(
        policy=CheckpointPolicy(interval=333.3), crash=(0, 0.61),
    ),
    "every_ops_and_interval": dict(
        policy=CheckpointPolicy(every_ops=13, interval=450.5),
        crash=(-1, 0.3),
    ),
    "random_crashes": dict(
        policy=CheckpointPolicy(every_ops=7),
        plan=dict(seed=0, crash_rate=0.002),
    ),
    "checkpoint_corruption": dict(
        policy=CheckpointPolicy(every_ops=7),
        plan=dict(seed=5, checkpoint_corrupt_rate=0.9),
        crash=(0, 0.61),
        expect="snapshots_rejected",
    ),
    "onesided": dict(
        policy=CheckpointPolicy(every_ops=13),
        plan=dict(seed=2, drop_rate=0.05, dup_rate=0.02),
        crash=(-1, 0.61),
        kw=dict(reliability="onesided"),
    ),
    "fractional_flop_time": dict(
        policy=CheckpointPolicy(every_ops=13, interval=333.3),
        crash=(0, 0.3),
        kw=dict(cost=CostModel(flop_time=0.7)),
    ),
}


class TestScalarEqualsVectorUnderFaults:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_every_workload(self, config):
        spec = CONFIGS[config]
        kw = dict(spec.get("kw", {}), checkpoint=spec["policy"])
        counters = {"restarts": 0, spec.get("expect", "restarts"): 0}
        for name in sorted(chaos.WORKLOADS):
            crashes = None
            if "crash" in spec:
                pos, frac = spec["crash"]
                rank = rank_order(name)[pos]
                when = crash_time(
                    name, rank, frac,
                    fault_plan=FaultPlan(**spec.get("plan", {})), **kw,
                )
                crashes = {rank: when}
            plan = FaultPlan(crashes=crashes, **spec.get("plan", {}))
            scalar, vector = run_both(name, plan, **kw)
            assert_same_fault_run(scalar, vector, f"{config} {name}")
            for counter in counters:
                counters[counter] += getattr(vector, counter)
        # every configuration really exercised recovery somewhere
        assert all(counters.values()), (config, counters)

    @pytest.mark.parametrize("name", ["lu", "pipe", "stencil"])
    def test_scheduled_crash_splits_a_segment(self, name):
        """A crash time strictly inside a vectorized segment: the
        vectorized rank dies at the operation whose clock reaches it
        (the segment is cut there), exactly as the scalar rank does."""
        policy = CheckpointPolicy(every_ops=7)
        rank = rank_order(name)[0]
        span = mid_block_span(name, rank, 0.3, checkpoint=policy)
        when = (span.start + span.end) / 2
        scalar, vector = run_both(
            name, FaultPlan(crashes={rank: when}), checkpoint=policy
        )
        assert_same_fault_run(scalar, vector, name)
        (crash,) = vector.crash_events
        assert when <= crash.model_time < span.end
        # the dying incarnation's last segment ends at the crash, part
        # of the way into the span
        (cut,) = [
            e for e in vector.trace.per_rank(rank)
            if e.kind == "compute" and e.incarnation == 0
            and e.start >= span.start and e.end == crash.model_time
        ]
        assert cut.count < span.count


@settings(max_examples=8, deadline=None)
@given(
    every_ops=st.integers(1, 60),
    frac=st.floats(0.05, 0.95),
    last=st.booleans(),
)
def test_lu_fault_runs_match_for_any_cadence_and_crash(every_ops, frac, last):
    """Property: LU under any ``every_ops`` cadence and any scheduled
    crash instant runs identically scalar and vectorized."""
    clocks = fault_free_clocks("lu")
    rank = sorted(clocks)[-1 if last else 0]
    plan = FaultPlan(crashes={rank: frac * clocks[rank]})
    scalar, vector = run_both(
        "lu", plan, checkpoint=CheckpointPolicy(every_ops=every_ops)
    )
    assert vector.restarts == 1
    assert_same_fault_run(scalar, vector, f"every_ops={every_ops}")


def test_checkpoints_and_crash_keep_blocks_whole():
    """Guard against the per-operation fallback coming back, in exact
    counts: under a checkpoint policy plus one scheduled crash, the
    vectorized LU emits at most one extra compute event per checkpoint
    and per re-executed operation over its fault-free run, while the
    events still cover every compute operation the scalar run does."""
    params = chaos.WORKLOADS["lu"].params
    spmd = spmd_for("lu", True)
    clean = run_spmd(spmd, params, trace=True).trace.by_kind("compute")
    plan = FaultPlan(crashes={(1,): 0.5 * fault_free_clocks("lu")[(1,)]})
    scalar, vector = run_both(
        "lu", plan, checkpoint=CheckpointPolicy(every_ops=200)
    )
    assert vector.restarts == 1
    events = vector.trace.by_kind("compute")
    total = sum(e.count for e in events)
    assert total == len(scalar.trace.by_kind("compute"))
    re_executed = total - sum(e.count for e in clean)
    assert re_executed > 0
    assert len(events) <= len(clean) + vector.checkpoints + re_executed


@pytest.mark.parametrize("name", ["lu", "pipe", "stencil"])
def test_block_charge_exact_from_a_fractional_clock(name):
    """Faults leave clocks fractional (reorder delays, interval
    deadlines).  A block starting from such a clock crosses several
    binary exponents while it charges, so one multiply-add would round
    differently from the scalar loop's per-op additions; the block must
    accumulate in the scalar order instead."""
    params = chaos.WORKLOADS[name].params
    runs = []
    for vec in (False, True):
        spmd = spmd_for(name, vec)

        def node(proc, spmd=spmd):
            proc.tick(3.577302188691569)
            yield from spmd.node(proc)

        machine = Machine(spmd.program, spmd.space, params)
        runs.append(machine.run(node))
    assert_identical_runs(*runs, label=name)
