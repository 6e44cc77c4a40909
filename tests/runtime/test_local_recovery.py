"""Localized crash recovery: sender-based message logging end-to-end.

The contract under test: a crash rolls back **one rank** -- the
crashed processor restarts from its own latest digest-valid snapshot
while every live rank keeps executing, and the final arrays are still
bit-identical to the fault-free oracle.  This is the only recovery
mode; the coordinated global rollback is refused.
Live senders re-serve logged messages in the recorded delivery order;
the crashed rank's duplicate re-sends are absorbed by the existing
ARQ/stash dedup.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import (
    CheckpointPolicy,
    CostModel,
    FaultPlan,
    LogOverflowError,
    Machine,
    MessageLog,
    TransportError,
    run_spmd,
)
from repro.runtime import chaos
from tests.runtime.test_crash_recovery import (
    FIG2_PARAMS,
    fig2_spmd,
    lu_spmd,
    pipe_spmd,
)
from tests.runtime.trace_workloads import BACKENDS, same_arrays


def crash_run(spmd, params, plan, **kw):
    kw.setdefault("checkpoint", CheckpointPolicy(every_ops=25))
    kw.setdefault("max_restarts", 10)
    return run_spmd(spmd, params, fault_plan=plan, **kw)


class TestLocalRecoveryConformance:
    """All five conformance workloads x {scalar, vector} x both
    ``backend=`` names: a mid-run crash still produces the fault-free
    oracle's arrays bit for bit, and the PR 5 trace invariants hold."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("vectorize", [False, True],
                             ids=["scalar", "vector"])
    @pytest.mark.parametrize("name", sorted(chaos.WORKLOADS))
    def test_bit_identical_to_fault_free_oracle(
        self, name, vectorize, backend
    ):
        base_scenario = chaos.WORKLOADS[name]
        scenario = chaos.Scenario(
            name=base_scenario.name,
            source=base_scenario.source,
            comps=base_scenario.comps,
            params=base_scenario.params,
            vectorize=vectorize,
        )
        spmd = scenario.build()
        base = run_spmd(spmd, scenario.params, trace=True)
        rank = sorted(base.arrays)[0]
        plan = FaultPlan(crashes={rank: base.makespan / 2})
        res = crash_run(
            spmd, scenario.params, plan, backend=backend, trace=True
        )
        assert res.restarts == 1
        assert res.crash_events[0].myp == rank
        assert same_arrays(base, res)
        assert chaos._invariant_violation(res) is None

    def test_recovery_accounting_is_repeatable(self):
        """Local recovery is deterministic: repeated runs report the
        same restarts, wasted work, recovery time and log peak."""
        spmd = fig2_spmd()
        base = run_spmd(spmd, FIG2_PARAMS)
        plan = FaultPlan(crashes={1: base.makespan / 2})
        runs = [crash_run(spmd, FIG2_PARAMS, plan) for _ in range(2)]
        assert len({r.restarts for r in runs}) == 1
        assert len({r.work_wasted for r in runs}) == 1
        assert len({r.recovery_time for r in runs}) == 1
        assert len({r.log_bytes_peak for r in runs}) == 1


class TestOneRankRecoveryCost:
    """The headline: recovery cost ~O(1 rank), not O(P)."""

    def test_live_ranks_never_re_execute(self):
        """Every live rank computes exactly as often as in the
        fault-free run, all in its first incarnation; only the crashed
        rank re-executes the operations between its cut and the
        crash."""
        spmd = fig2_spmd()
        base = run_spmd(spmd, FIG2_PARAMS, trace=True)
        plan = FaultPlan(crashes={1: base.makespan / 2})
        res = crash_run(spmd, FIG2_PARAMS, plan, trace=True)
        assert same_arrays(base, res)

        def computes(trace, rank):
            return [e for e in trace.per_rank(rank) if e.kind == "compute"]

        for rank in res.stats:
            got = computes(res.trace, rank)
            want = len(computes(base.trace, rank))
            if rank == (1,):
                assert len(got) > want
                assert {e.incarnation for e in got} == {0, 1}
            else:
                assert len(got) == want
                assert {e.incarnation for e in got} == {0}

    def test_work_wasted_is_the_crashed_rank_cut_to_crash(self):
        """work_wasted is exactly one rank's lost span: from the
        restart event's snapshot clock to the crash instant."""
        spmd = fig2_spmd()
        base = run_spmd(spmd, FIG2_PARAMS)
        plan = FaultPlan(crashes={1: base.makespan / 2})
        res = crash_run(spmd, FIG2_PARAMS, plan, trace=True)
        (crash,) = res.crash_events
        (restart,) = res.trace.by_kind("restart")
        assert restart.rank == crash.myp == (1,)
        assert res.work_wasted == crash.model_time - restart.start > 0
        assert res.recovery_time == restart.duration
        assert restart.end >= crash.model_time + CostModel().restart_penalty
        assert res.log_bytes_peak > 0

    def test_fault_free_run_reports_zero_recovery_cost(self):
        res = run_spmd(fig2_spmd(), FIG2_PARAMS)
        assert res.work_wasted == 0.0
        assert res.recovery_time == 0.0
        assert res.log_bytes_peak == 0

    def test_recovery_mode_validated(self):
        spmd = fig2_spmd()
        with pytest.raises(ValueError):
            Machine(spmd.program, spmd.space, FIG2_PARAMS,
                    recovery="quantum")

    def test_global_recovery_is_refused(self):
        spmd = fig2_spmd()
        with pytest.raises(ValueError, match="global rollback was removed"):
            Machine(spmd.program, spmd.space, FIG2_PARAMS,
                    recovery="global")
        with pytest.raises(ValueError, match="global rollback was removed"):
            run_spmd(spmd, FIG2_PARAMS, recovery="global")
        # the one accepted spelling names the default
        res = run_spmd(spmd, FIG2_PARAMS, recovery="local")
        assert same_arrays(run_spmd(spmd, FIG2_PARAMS), res)


class TestCrashDuringRecovery:
    """Second failures while a local replay is still in flight."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_same_rank_crashes_twice(self, backend):
        """Crash decisions re-roll per incarnation: seed 38 at rate
        0.03 kills rank (1,) and then kills its restarted incarnation
        again (found by sweep; pinned for determinism)."""
        spmd = fig2_spmd()
        base = run_spmd(spmd, FIG2_PARAMS)
        plan = FaultPlan(seed=38, crash_rate=0.03)
        res = crash_run(
            spmd, FIG2_PARAMS, plan, backend=backend,
            checkpoint=CheckpointPolicy(every_ops=20),
        )
        assert res.restarts == 2
        assert [e.myp for e in res.crash_events] == [(1,), (1,)]
        assert res.crash_events[0].incarnation == 0
        assert res.crash_events[1].incarnation == 1
        assert same_arrays(base, res)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_different_rank_crashes_during_replay(self, backend):
        """Rank 1 dies inside rank 0's recovery window (the restart
        penalty alone is 2000 time units; the second crash lands 500
        after the first)."""
        spmd = fig2_spmd()
        base = run_spmd(spmd, FIG2_PARAMS)
        t = base.makespan * 0.4
        plan = FaultPlan(crashes={0: t, 1: t + 500.0})
        res = crash_run(
            spmd, FIG2_PARAMS, plan, backend=backend,
            checkpoint=CheckpointPolicy(every_ops=20),
        )
        assert res.restarts == 2
        assert {e.myp for e in res.crash_events} == {(0,), (1,)}
        first, second = sorted(res.crash_events,
                               key=lambda e: e.model_time)
        assert second.model_time < first.model_time + \
            CostModel().restart_penalty
        assert same_arrays(base, res)

    def test_repeated_restores_keep_the_decomposition_exact(self):
        """A rank that crashes twice can restore twice from one
        snapshot; each restore must start from a copy of the snapshot's
        stats, or the first incarnation's work leaks into the second
        and the stat buckets no longer sum to the finish clock."""
        from repro.codegen import SPMDOptions
        from repro.runtime.analysis import decompose
        from tests.runtime.trace_workloads import WORKLOADS

        repeat_crashes = 0
        for name in ("lu", "fig2", "fig8"):
            build, params = WORKLOADS[name]
            spmd = build(SPMDOptions())
            for seed in range(12):
                res = run_spmd(
                    spmd, params,
                    reliability="reliable",
                    checkpoint=CheckpointPolicy(every_ops=40),
                    fault_plan=FaultPlan(seed=seed, crash_rate=0.03),
                    max_restarts=50,
                )
                crashes = Counter(e.myp for e in res.crash_events)
                repeat_crashes += sum(n >= 2 for n in crashes.values())
                for rank, parts in decompose(res).items():
                    assert parts.total() == res.clocks[rank], (
                        name, seed, rank
                    )
        assert repeat_crashes >= 1

    def test_gives_up_past_the_restart_budget(self):
        from repro.runtime import CrashError

        spmd = fig2_spmd()
        plan = FaultPlan(seed=1, crash_rate=0.9)
        with pytest.raises(CrashError) as info:
            crash_run(
                spmd, FIG2_PARAMS, plan,
                checkpoint=CheckpointPolicy(every_ops=10),
                max_restarts=2,
            )
        assert "crash recovery gave up" in str(info.value)
        assert info.value.report.restarts_attempted == 2


PROGRAMS = {
    "fig2": (fig2_spmd, {"N": 70, "T": 2, "P": 3}),
    "lu": (lu_spmd, {"N": 12, "P": 4}),
    "pipe": (pipe_spmd, {"N": 40, "P": 3}),
}


class TestCrashScheduleSweepProperty:
    """Hypothesis sweep over fig2/LU/pipe crash schedules: any single
    scheduled crash, any rank, any checkpoint cadence -- local
    recovery always lands on the crash-free answer, bit for
    bit.

    Crashes are scheduled at a fraction of the *target rank's own*
    finish clock, not of the overall makespan: a rank that finishes
    early (fig2's rank 0 retires at ~0.6 of the makespan) can never
    fire a crash scheduled after its retirement, which would make
    ``restarts >= 1`` vacuously false -- that semantics is pinned by
    ``test_crash_after_retirement_never_fires`` below."""

    @settings(max_examples=12, deadline=None)
    @given(
        name=st.sampled_from(sorted(PROGRAMS)),
        rank=st.integers(0, 2),
        frac=st.sampled_from([0.25, 0.5, 0.75]),
        every_ops=st.sampled_from([10, 25, 60]),
    )
    def test_local_recovery_matches_crash_free(
        self, name, rank, frac, every_ops
    ):
        from repro.runtime.analysis import decompose

        build, params = PROGRAMS[name]
        spmd = build()
        base = run_spmd(spmd, params)
        finish = decompose(base)[(rank,)].total()
        plan = FaultPlan(crashes={rank: finish * frac})
        res = crash_run(
            spmd, params, plan,
            checkpoint=CheckpointPolicy(every_ops=every_ops),
        )
        assert res.restarts >= 1
        assert same_arrays(base, res)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_crash_after_retirement_never_fires(self, backend):
        """A crash scheduled past a rank's finish clock is a no-op:
        the processor already retired, so nothing restarts and the
        answer is untouched (matches the chaos harness, which only
        requires cleanliness, never a restart count)."""
        from repro.runtime.analysis import decompose

        spmd = fig2_spmd()
        base = run_spmd(spmd, FIG2_PARAMS)
        finish = decompose(base)[(0,)].total()
        assert finish < base.makespan  # rank 0 really does retire early
        plan = FaultPlan(crashes={0: (finish + base.makespan) / 2})
        res = crash_run(spmd, FIG2_PARAMS, plan, backend=backend)
        assert res.restarts == 0
        assert same_arrays(base, res)


class TestLogOverflow:
    """Satellite 1: capped sender logs fail structurally, truncation
    at checkpoint commit keeps honest caps alive."""

    def test_tiny_cap_raises_with_coordinates(self):
        spmd = fig2_spmd()
        with pytest.raises(LogOverflowError) as info:
            run_spmd(
                spmd, FIG2_PARAMS,
                checkpoint=CheckpointPolicy(every_ops=25),
                log_bytes_cap=8,
            )
        err = info.value
        assert isinstance(err, TransportError)
        assert err.cap == 8
        assert err.logged_bytes > 8
        assert isinstance(err.src, tuple) and isinstance(err.dest, tuple)
        text = str(err)
        assert str(err.src) in text and str(err.dest) in text

    def test_truncation_keeps_honest_caps_alive(self):
        """bytes_peak is measured *after* checkpoint-commit truncation,
        so capping every channel at the observed total peak must leave
        a crash run recoverable."""
        spmd = fig2_spmd()
        base = run_spmd(spmd, FIG2_PARAMS)
        plan = FaultPlan(crashes={1: base.makespan / 2})
        free = crash_run(spmd, FIG2_PARAMS, plan)
        assert free.log_bytes_peak > 0
        capped = crash_run(
            spmd, FIG2_PARAMS, plan,
            log_bytes_cap=free.log_bytes_peak,
        )
        assert capped.restarts == 1
        assert capped.log_bytes_peak <= free.log_bytes_peak
        assert same_arrays(base, capped)

    def test_message_log_validation_and_accounting(self):
        with pytest.raises(ValueError):
            MessageLog(bytes_cap=0)
        log = MessageLog()
        assert log.bytes_total == 0 and log.bytes_peak == 0

    def test_cli_rejects_nonpositive_cap(self):
        import argparse

        from repro.__main__ import _pos_int

        # --log-bytes-cap routes through the >=1 argparse type
        with pytest.raises(argparse.ArgumentTypeError):
            _pos_int("0")


class TestChaosCrashTrials:
    """The chaos harness explores crash schedules and can replay them
    from JSON reproducers."""

    def test_explore_runs_each_crash_trial_once(self):
        rep = chaos.explore(
            workloads=["fig2"], seeds=0, targeted=False,
        )
        assert rep.ok
        # 2 ranks x 2 fractions
        assert rep.trials == 4

    def test_crash_reproducer_round_trips(self):
        scenario = chaos.WORKLOADS["fig2"]
        plan = FaultPlan(crashes={1: 1156.0})
        doc = chaos._make_reproducer(
            scenario, "reliable", plan,
            expected="oracle", observed="clean",
            checkpoint=chaos._CRASH_POLICY,
        )
        rebuilt = chaos.plan_from_json(doc["plan"])
        assert rebuilt.crashes == plan.crashes
        assert "recovery" not in doc
        policy = chaos._policy_from_json(doc["checkpoint"])
        assert policy == chaos._CRASH_POLICY
        reproduced, observed = chaos.replay_reproducer(doc)
        assert reproduced and observed == "clean"

    def test_old_global_reproducer_still_replays(self):
        """Reproducers written before the one-mode change carry
        ``"recovery": "global"`` (and a ``backend``); replay ignores
        both and recovers the crash locally."""
        scenario = chaos.WORKLOADS["fig2"]
        doc = chaos._make_reproducer(
            scenario, "reliable", FaultPlan(crashes={1: 1156.0}),
            expected="oracle", observed="clean",
            checkpoint=chaos._CRASH_POLICY,
        )
        doc.update(recovery="global", backend="threads")
        reproduced, observed = chaos.replay_reproducer(doc)
        assert reproduced and observed == "clean"

    def test_finding_describe_names_scenario_and_transport(self):
        finding = chaos.ChaosFinding(
            scenario="fig2", transport="reliable",
            expected="oracle", observed="array-mismatch",
            plan=FaultPlan(crashes={0: 100.0}), events=1,
            reproducer={},
        )
        assert finding.describe().startswith("fig2 [reliable] expected")
