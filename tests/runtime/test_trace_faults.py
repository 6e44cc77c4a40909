"""Fault-path tracing (ISSUE 5 satellite 3).

Under injected network faults and fail-stop crashes the trace must
(a) surface the recovery machinery as events -- retransmissions,
timeouts, receiver-side dedup drops, checkpoints, crashes, restarts --
with counts that reconcile with ``ProcStats``, (b) repeat exactly,
receiver-side drop markers included, and (c) never perturb the run:
final arrays still match the crash-free oracle.
"""

import dataclasses

import pytest

from repro.codegen import SPMDOptions
from repro.runtime import (
    CheckpointPolicy,
    Decomposition,
    FaultPlan,
    comm_matrix,
    run_spmd,
)

from .trace_workloads import (
    WORKLOADS,
    canonical_trace,
    compiled,
    compiled_spmd,
    same_arrays,
)


class TestLossyNetworkTraces:
    PLAN = dict(seed=3, drop_rate=0.2, dup_rate=0.1, ack_drop_rate=0.1)

    @pytest.mark.parametrize("name", ["fig2", "lu"])
    def test_arq_recovery_is_traced_and_matches_oracle(self, name):
        build, params = WORKLOADS[name]
        spmd = build(SPMDOptions())
        oracle = run_spmd(spmd, params)
        plan = FaultPlan(**self.PLAN)
        result = run_spmd(spmd, params, fault_plan=plan, trace=True)
        assert same_arrays(oracle, result)
        trace = result.trace
        counts = trace.counts()
        # the plan's drops must be visible as ARQ activity
        assert counts.get("retransmit", 0) > 0
        assert counts.get("timeout", 0) > 0
        assert counts.get("retransmit", 0) == result.stat_sum(
            "retransmissions"
        )
        assert counts.get("ack-lost", 0) == result.stat_sum("acks_lost")
        # receiver-side dedup marks every discarded duplicate
        assert counts.get("dup-drop", 0) == result.stat_sum(
            "duplicates_dropped"
        )
        # dropped transmission attempts are marked as such
        dropped = [
            e
            for e in trace.by_kind("send", "retransmit")
            if e.note == "dropped"
        ]
        assert dropped
        # and the matrix still reconciles with the stats, faults and all
        matrix = comm_matrix(trace)
        assert matrix.total_messages == result.total_messages
        assert matrix.total_retransmissions == result.stat_sum(
            "retransmissions"
        )

    @pytest.mark.parametrize("name", ["fig2", "lu"])
    def test_onesided_arq_recovery_matches_reliable(self, name):
        """The window path inherits the full ARQ: under the same lossy
        plan, onesided retransmits/timeouts/dedups exactly like
        reliable, lands the oracle arrays, and its canonicalized trace
        (put -> send) is bit-identical -- retransmissions keep their
        two-sided verb on both transports."""
        _build, params = WORKLOADS[name]
        spmd = compiled_spmd(name)
        plan = FaultPlan(**self.PLAN)
        rel = run_spmd(
            spmd, params, fault_plan=plan, reliability="reliable",
            trace=True,
        )
        one = run_spmd(
            spmd, params, fault_plan=plan, reliability="onesided",
            trace=True,
        )
        assert same_arrays(rel, one)
        assert one.makespan == rel.makespan
        for field in ("retransmissions", "acks_lost",
                      "duplicates_dropped", "timeout_time"):
            assert one.stat_sum(field) == rel.stat_sum(field), field
        assert one.stat_sum("retransmissions") > 0
        assert canonical_trace(one.trace) == canonical_trace(rel.trace)
        counts = one.trace.counts()
        assert counts.get("retransmit", 0) > 0
        assert counts.get("send", 0) == 0  # first attempts are puts

    def test_lossy_trace_repeats_with_drop_markers(self):
        """The default normalized view includes every kind: dedup
        drops are placed by the deterministic schedule, so repeated
        lossy runs agree on them too."""
        build, params = WORKLOADS["fig2"]
        spmd = build(SPMDOptions())
        plan = FaultPlan(**self.PLAN)
        first, again = (
            run_spmd(spmd, params, fault_plan=plan, trace=True)
            for _ in range(2)
        )
        rows = first.trace.normalized()
        assert any(row[3] == "dup-drop" for row in rows)
        assert rows == again.trace.normalized()
        assert first.trace.counts() == again.trace.counts()

    def test_lossy_trace_identical_under_coop_alias(self):
        """``backend="coop"`` names the same engine, so it draws the
        same faults and places the same drop markers."""
        build, params = WORKLOADS["fig2"]
        spmd = build(SPMDOptions())
        plan = FaultPlan(**self.PLAN)
        default, coop = (
            run_spmd(spmd, params, fault_plan=plan, trace=True, **kw)
            for kw in ({}, {"backend": "coop"})
        )
        assert coop.stat_sum("retransmissions") > 0
        assert same_arrays(default, coop)
        assert coop.trace.normalized() == default.trace.normalized()

    def test_decomposition_holds_under_faults(self):
        build, params = WORKLOADS["lu"]
        spmd = build(SPMDOptions())
        plan = FaultPlan(seed=5, drop_rate=0.15, stall_rate=0.05)
        result = run_spmd(spmd, params, fault_plan=plan, trace=True)
        for myp, stats in result.stats.items():
            deco = Decomposition.from_stats(stats)
            assert deco.total() == result.clocks[myp]
            # summing stall durations from the trace reorders the float
            # additions, so allow rounding noise here (fault-free runs
            # are held to exact equality in test_trace_invariants)
            from_trace = Decomposition.from_trace(result.trace, myp)
            for fld in dataclasses.fields(deco):
                assert getattr(from_trace, fld.name) == pytest.approx(
                    getattr(deco, fld.name), rel=1e-9, abs=1e-6
                ), fld.name
        assert result.trace.counts().get("stall", 0) > 0


class TestCrashTraces:
    def test_crash_restart_checkpoint_events_and_oracle_arrays(self):
        build, params = WORKLOADS["lu"]
        spmd = build(SPMDOptions())
        oracle = run_spmd(spmd, params)
        plan = FaultPlan(crashes={(0,): oracle.makespan / 3})
        result = run_spmd(
            spmd, params, fault_plan=plan,
            checkpoint=CheckpointPolicy(every_ops=25), trace=True,
        )
        assert result.restarts == 1
        assert same_arrays(oracle, result)
        trace = result.trace
        counts = trace.counts()
        assert counts.get("crash", 0) == len(result.crash_events)
        # exactly one restart per crash: only the crashed rank rewinds
        assert counts.get("restart", 0) == len(result.crash_events)
        assert trace.by_kind("restart")[0].rank == (0,)
        assert counts.get("checkpoint", 0) == result.stat_sum(
            "checkpoints"
        )
        crash = trace.by_kind("crash")[0]
        assert crash.rank == (0,)
        assert crash.note == "scheduled"
        # each restart event spans snapshot clock -> resume clock and
        # its span is the processor's accounted recovery time
        for ev in trace.by_kind("restart"):
            assert ev.duration > 0
            assert ev.duration == result.stats[ev.rank].recovery_time

    def test_decomposition_sums_to_clock_through_replay(self):
        """The satellite-4 seam: fast-forward replay rebuilds stats
        from the snapshot, the restore jump lands in recovery_time, so
        the buckets still sum exactly to each finish clock.  Only the
        crashed rank pays recovery; every live rank's bucket is zero."""
        build, params = WORKLOADS["fig2"]
        spmd = build(SPMDOptions())
        base = run_spmd(spmd, params)
        plan = FaultPlan(crashes={(1,): base.makespan / 2})
        result = run_spmd(
            spmd, params, fault_plan=plan,
            checkpoint=CheckpointPolicy(every_ops=20), trace=True,
        )
        assert result.restarts == 1
        total_recovery = 0.0
        for myp, stats in result.stats.items():
            deco = Decomposition.from_stats(stats)
            assert deco.total() == result.clocks[myp], (
                f"{myp}: {deco.total()} != {result.clocks[myp]}"
            )
            if myp == (1,):
                assert stats.recovery_time > 0
            else:
                assert stats.recovery_time == 0
            total_recovery += stats.recovery_time
        # per-processor recovery sums to the machine-level figure
        assert total_recovery == result.recovery_time

    def test_crash_trace_repeats(self):
        build, params = WORKLOADS["fig2"]
        spmd = build(SPMDOptions())
        base = run_spmd(spmd, params)
        plan = FaultPlan(crashes={(0,): base.makespan / 2})
        first, again = (
            run_spmd(
                spmd, params, fault_plan=plan,
                checkpoint=CheckpointPolicy(every_ops=20), trace=True,
            )
            for _ in range(2)
        )
        assert first.restarts == 1
        assert first.trace.normalized() == again.trace.normalized()

    def test_crash_trace_identical_under_coop_alias(self):
        build, params = WORKLOADS["fig2"]
        spmd = build(SPMDOptions())
        base = run_spmd(spmd, params)
        plan = FaultPlan(crashes={(0,): base.makespan / 2})
        default, coop = (
            run_spmd(
                spmd, params, fault_plan=plan,
                checkpoint=CheckpointPolicy(every_ops=20), trace=True, **kw,
            )
            for kw in ({}, {"backend": "coop"})
        )
        assert coop.restarts == default.restarts == 1
        assert same_arrays(default, coop)
        assert coop.trace.normalized() == default.trace.normalized()
