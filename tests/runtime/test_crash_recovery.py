"""Fail-stop crash tolerance: checkpoint/restart end-to-end tests.

The contract under test: with crash faults injected, a run either
completes with **bit-identical** final arrays (recovery worked, and
the makespan prices the lost work + restart costs) or fails fast with
a structured :class:`CrashReport` naming the dead processors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import generate_spmd
from repro.decomp import block_loop, onto
from repro.lang import parse
from repro.polyhedra import var
from repro.runtime import (
    CheckpointPolicy,
    CostModel,
    CrashError,
    FaultPlan,
    ProcessorCrashed,
    run_spmd,
)

FIG2 = """
array X[N + 1]
assume N >= 3
assume T >= 0
for t = 0 to T do
  for i = 3 to N do
    X[i] = X[i - 3]
"""

LU = """
array X[N + 1][N + 1]
assume N >= 1
for i1 = 0 to N do
  for i2 = i1 + 1 to N do
    s1: X[i2][i1] = X[i2][i1] / X[i1][i1]
    for i3 = i1 + 1 to N do
      s2: X[i2][i3] = X[i2][i3] - X[i2][i1] * X[i1][i3]
"""

PIPE = """
array X[N + 1]
array Y[N + 1]
assume N >= 2
for i = 0 to N do
  s1: X[i] = i + 1
for j = 1 to N do
  s2: Y[j] = Y[j] + X[j - 1]
"""


def fig2_spmd():
    prog = parse(FIG2)
    stmt = prog.statements()[0]
    comp = block_loop(stmt, ["i"], [32])
    return generate_spmd(prog, {stmt.name: comp})


def lu_spmd():
    prog = parse(LU)
    s1 = prog.statement("s1")
    s2 = prog.statement("s2")
    comps = {"s1": onto(s1, [var("i2")])}
    comps["s2"] = onto(s2, [var("i2")], space=comps["s1"].space)
    return generate_spmd(prog, comps)


def pipe_spmd():
    prog = parse(PIPE)
    s1 = prog.statement("s1")
    s2 = prog.statement("s2")
    comps = {"s1": block_loop(s1, ["i"], [16])}
    comps["s2"] = block_loop(s2, ["j"], [16], space=comps["s1"].space)
    return generate_spmd(prog, comps)


FIG2_PARAMS = {"N": 70, "T": 2, "P": 3}


# shared bit-exactness oracle from the unified conformance matrix
from tests.runtime.trace_workloads import same_arrays  # noqa: E402


class TestScheduledCrash:
    def test_recovers_bit_identically(self):
        spmd = fig2_spmd()
        base = run_spmd(spmd, FIG2_PARAMS)
        plan = FaultPlan(crashes={0: base.makespan / 2})
        res = run_spmd(
            spmd, FIG2_PARAMS, fault_plan=plan,
            checkpoint=CheckpointPolicy(every_ops=20),
        )
        assert res.restarts == 1
        assert len(res.crash_events) == 1
        assert res.crash_events[0].myp == (0,)
        assert res.crash_events[0].cause == "scheduled"
        assert same_arrays(base, res)

    def test_makespan_prices_lost_work_and_restart(self):
        spmd = fig2_spmd()
        base = run_spmd(spmd, FIG2_PARAMS)
        plan = FaultPlan(crashes={1: base.makespan / 2})
        res = run_spmd(
            spmd, FIG2_PARAMS, fault_plan=plan,
            checkpoint=CheckpointPolicy(every_ops=20),
        )
        # recovery must cost something: detection + restart penalty +
        # snapshot reload, on top of the re-executed work
        assert res.makespan > base.makespan
        assert res.recovery_time > 0
        assert res.makespan >= base.makespan + CostModel().restart_penalty

    def test_crash_late_in_run_still_fires(self):
        """A processor whose clock jumps past the deadline inside its
        final operations must still die (post-op schedule check)."""
        spmd = fig2_spmd()
        base = run_spmd(spmd, FIG2_PARAMS)
        # proc 0 finishes earliest; schedule its death near its end
        plan = FaultPlan(crashes={0: base.makespan * 0.55})
        res = run_spmd(spmd, FIG2_PARAMS, fault_plan=plan)
        assert res.restarts == 1
        assert res.crash_events[0].myp == (0,)
        assert same_arrays(base, res)

    def test_multiple_scheduled_crashes(self):
        spmd = fig2_spmd()
        base = run_spmd(spmd, FIG2_PARAMS)
        plan = FaultPlan(
            crashes={0: base.makespan * 0.3, 2: base.makespan * 0.6}
        )
        res = run_spmd(
            spmd, FIG2_PARAMS, fault_plan=plan,
            checkpoint=CheckpointPolicy(every_ops=15),
        )
        assert len(res.crash_events) == 2
        assert {e.myp for e in res.crash_events} == {(0,), (2,)}
        assert same_arrays(base, res)

    def test_recovery_without_any_checkpoint_policy(self):
        """No policy -> the free pc=0 baseline: full replay, correct."""
        spmd = fig2_spmd()
        base = run_spmd(spmd, FIG2_PARAMS)
        plan = FaultPlan(crashes={1: base.makespan / 2})
        res = run_spmd(spmd, FIG2_PARAMS, fault_plan=plan)
        assert res.restarts == 1
        assert res.checkpoints == 0
        assert same_arrays(base, res)

    def test_reliable_transport_recovery(self):
        spmd = fig2_spmd()
        base = run_spmd(spmd, FIG2_PARAMS)
        plan = FaultPlan(crashes={0: base.makespan / 2})
        res = run_spmd(
            spmd, FIG2_PARAMS, fault_plan=plan, reliability="reliable",
            checkpoint=CheckpointPolicy(interval=500.0),
        )
        assert res.restarts == 1
        assert same_arrays(base, res)

    def test_reproducible(self):
        spmd = fig2_spmd()
        plan = FaultPlan(seed=7, crashes={1: 1100.0}, drop_rate=0.05)
        kw = dict(
            fault_plan=plan, reliability="reliable",
            checkpoint=CheckpointPolicy(every_ops=25),
        )
        a = run_spmd(spmd, FIG2_PARAMS, **kw)
        b = run_spmd(spmd, FIG2_PARAMS, **kw)
        assert a.makespan == b.makespan
        assert a.restarts == b.restarts
        assert a.crash_events == b.crash_events
        assert same_arrays(a, b)


class TestRandomCrashes:
    def test_crash_rate_recovers(self):
        spmd = fig2_spmd()
        base = run_spmd(spmd, FIG2_PARAMS)
        # seed 3 produces a crash at this rate (deterministic)
        plan = FaultPlan(seed=3, crash_rate=0.02)
        res = run_spmd(
            spmd, FIG2_PARAMS, fault_plan=plan,
            checkpoint=CheckpointPolicy(every_ops=25), max_restarts=10,
        )
        assert res.restarts >= 1
        assert all(e.cause == "random" for e in res.crash_events)
        assert same_arrays(base, res)

    def test_restarted_incarnation_rerolls_the_dice(self):
        """Crash decisions are keyed by incarnation, so a restart is
        not doomed to die at the same operation forever."""
        plan = FaultPlan(seed=11, crash_rate=0.5)
        myp, op = (0,), 17
        outcomes = {plan.crashes_at(myp, op, inc) for inc in range(8)}
        assert outcomes == {True, False}

    def test_gives_up_after_max_restarts(self):
        spmd = fig2_spmd()
        # crash so often no restart budget can save the run
        plan = FaultPlan(seed=1, crash_rate=0.9)
        with pytest.raises(CrashError) as info:
            run_spmd(
                spmd, FIG2_PARAMS, fault_plan=plan,
                checkpoint=CheckpointPolicy(every_ops=10), max_restarts=2,
            )
        report = info.value.report
        assert report is not None
        assert report.restarts_attempted == 2
        assert report.max_restarts == 2
        assert report.dead  # names the dead processors


class TestFailFast:
    def test_max_restarts_zero_names_dead_processor(self):
        spmd = fig2_spmd()
        base = run_spmd(spmd, FIG2_PARAMS)
        plan = FaultPlan(crashes={2: base.makespan / 2})
        with pytest.raises(CrashError) as info:
            run_spmd(spmd, FIG2_PARAMS, fault_plan=plan, max_restarts=0)
        report = info.value.report
        assert report.dead == [(2,)]
        assert report.restarts_attempted == 0
        assert "(2,)" in str(info.value)
        # the report shows where the last usable checkpoints sit
        assert set(report.checkpoints) == {(0,), (1,), (2,)}

    def test_crash_event_describes_itself(self):
        spmd = fig2_spmd()
        plan = FaultPlan(crashes={0: 500.0})
        with pytest.raises(CrashError) as info:
            run_spmd(spmd, FIG2_PARAMS, fault_plan=plan, max_restarts=0)
        text = info.value.report.events[0].describe()
        assert "processor (0,)" in text and "scheduled" in text


class TestCheckpointPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            CheckpointPolicy(every_ops=0)
        with pytest.raises(ValueError):
            CheckpointPolicy(interval=-1.0)
        assert not CheckpointPolicy().active
        assert CheckpointPolicy(every_ops=5).active

    def test_checkpoints_cost_model_time(self):
        spmd = fig2_spmd()
        base = run_spmd(spmd, FIG2_PARAMS)
        cp = run_spmd(
            spmd, FIG2_PARAMS,
            checkpoint=CheckpointPolicy(every_ops=10),
        )
        # no crash: identical values, but snapshots were charged
        assert same_arrays(base, cp)
        assert cp.checkpoints > 0
        assert cp.makespan > base.makespan
        assert cp.stat_sum("checkpoint_time") > 0

    def test_denser_checkpoints_cost_more_upfront(self):
        spmd = fig2_spmd()
        dense = run_spmd(
            spmd, FIG2_PARAMS, checkpoint=CheckpointPolicy(every_ops=5)
        )
        sparse = run_spmd(
            spmd, FIG2_PARAMS, checkpoint=CheckpointPolicy(every_ops=50)
        )
        assert dense.checkpoints > sparse.checkpoints
        assert dense.makespan > sparse.makespan

    def test_zero_overhead_when_disabled(self):
        """No policy, no crash faults -> bit-identical makespan to the
        historical runtime (the store is never even created)."""
        spmd = fig2_spmd()
        a = run_spmd(spmd, FIG2_PARAMS)
        b = run_spmd(spmd, FIG2_PARAMS, checkpoint=None)
        assert a.makespan == b.makespan
        assert b.checkpoints == 0 and b.restarts == 0


class TestCrashPlanValidation:
    def test_crash_rate_range(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_rate=1.5)

    def test_negative_crash_time_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(crashes={0: -5.0})

    def test_rank_forms_normalized(self):
        a = FaultPlan(crashes={0: 100.0})
        b = FaultPlan(crashes={(0,): 100.0})
        assert a.crashes == b.crashes == (((0,), 100.0),)
        assert a.scheduled_crash((0,)) == 100.0
        assert a.scheduled_crash((1,)) is None

    def test_describe_mentions_crashes(self):
        text = FaultPlan(crash_rate=0.01, crashes={1: 2000.0}).describe()
        assert "crash=1.0%" in text and "(1,)@2000" in text


PROGRAMS = {
    "fig2": (fig2_spmd, {"N": 70, "T": 2, "P": 3}),
    "lu": (lu_spmd, {"N": 12, "P": 4}),
    "pipe": (pipe_spmd, {"N": 40, "P": 3}),
}


class TestSeedSweepProperty:
    """Hypothesis sweep: every figure program, random fault seeds and
    rates (drop/dup/reorder/crash), reliable transport + checkpointing
    -> always the crash-free answer, bit for bit."""

    @settings(max_examples=10, deadline=None)
    @given(
        name=st.sampled_from(sorted(PROGRAMS)),
        fseed=st.integers(0, 2**16),
        drop=st.sampled_from([0.0, 0.05, 0.1]),
        dup=st.sampled_from([0.0, 0.05, 0.1]),
        reorder=st.sampled_from([0.0, 0.1]),
        crash=st.sampled_from([0.0, 0.01, 0.03]),
        every_ops=st.sampled_from([10, 25, 60]),
    )
    def test_reliable_run_matches_crash_free(
        self, name, fseed, drop, dup, reorder, crash, every_ops
    ):
        build, params = PROGRAMS[name]
        spmd = build()
        base = run_spmd(spmd, params)
        plan = FaultPlan(
            seed=fseed, drop_rate=drop, dup_rate=dup,
            reorder_rate=reorder, crash_rate=crash,
        )
        res = run_spmd(
            spmd, params, fault_plan=plan, reliability="reliable",
            checkpoint=CheckpointPolicy(every_ops=every_ops),
            max_restarts=25,
        )
        assert same_arrays(base, res)
        if res.crash_events:
            assert res.restarts >= 1
            assert res.recovery_time > 0


class TestTracedCrashRuns:
    """ISSUE 5 satellite 3 hook: the tracing subsystem observes crash
    recovery without perturbing it (the full event-level assertions
    live in test_trace_faults.py)."""

    def test_traced_crash_run_matches_oracle_and_records_recovery(self):
        spmd = fig2_spmd()
        base = run_spmd(spmd, FIG2_PARAMS)
        plan = FaultPlan(crashes={(1,): base.makespan / 2})
        res = run_spmd(
            spmd, FIG2_PARAMS, fault_plan=plan,
            checkpoint=CheckpointPolicy(every_ops=20), trace=True,
        )
        assert res.restarts == 1
        assert same_arrays(base, res)
        counts = res.trace.counts()
        assert counts.get("crash", 0) == 1
        assert counts.get("restart", 0) == len(res.stats)
        assert counts.get("checkpoint", 0) == res.stat_sum("checkpoints")

    def test_tracing_does_not_change_crash_recovery(self):
        spmd = fig2_spmd()
        base = run_spmd(spmd, FIG2_PARAMS)
        plan = FaultPlan(crashes={(0,): base.makespan / 3})
        kwargs = dict(
            fault_plan=plan, checkpoint=CheckpointPolicy(every_ops=25)
        )
        untraced = run_spmd(spmd, FIG2_PARAMS, **kwargs)
        traced = run_spmd(spmd, FIG2_PARAMS, trace=True, **kwargs)
        assert traced.makespan == untraced.makespan
        assert traced.restarts == untraced.restarts
        assert traced.stats == untraced.stats
        assert same_arrays(untraced, traced)
