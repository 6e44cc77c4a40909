"""Transport-layer tests.

The acceptance bar for the reliability subsystem: generated SPMD
programs validate bit-for-bit against sequential execution *through* a
lossy, duplicating, reordering network -- and the default path stays
bit-for-bit the historical exactly-once channel.
"""

import numpy as np
import pytest

from repro.codegen import generate_spmd
from repro.decomp import block, block_loop, onto
from repro.lang import parse
from repro.polyhedra import var
from repro.runtime import (
    FaultPlan,
    Machine,
    TransportError,
    check_against_sequential,
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

STENCIL = """
array A[N + 2]
array B[N + 2]
assume N >= 1
for i = 1 to N do
  B[i] = (A[i - 1] + A[i] + A[i + 1]) / 3
"""

#: ISSUE acceptance plan: 20% drop plus duplication and reordering
LOSSY = FaultPlan(seed=7, drop_rate=0.2, dup_rate=0.15, reorder_rate=0.15)


def fig2_spmd():
    prog = parse(FIG2)
    stmt = prog.statements()[0]
    comp = block_loop(stmt, ["i"], [32])
    return prog, comp, generate_spmd(prog, {stmt.name: comp})


def lu_compiled():
    program = parse(LU, name="lu")
    s1 = program.statement("s1")
    s2 = program.statement("s2")
    comps = {"s1": onto(s1, [var("i2")])}
    comps["s2"] = onto(s2, [var("i2")], space=comps["s1"].space)
    return program, comps, generate_spmd(program, comps)


def stencil_compiled():
    program = parse(STENCIL, name="stencil")
    stmt = program.statements()[0]
    comp = block_loop(stmt, ["i"], [8])
    layout = {
        "A": block(program.arrays["A"], [8]),
        "B": block(program.arrays["B"], [8]),
    }
    spmd = generate_spmd(program, {stmt.name: comp}, initial_data=layout)
    return program, stmt, comp, layout, spmd


class TestZeroOverheadDefault:
    def test_default_path_unchanged_by_subsystem(self):
        """No fault plan => the direct channel: identical makespan,
        message counts, and values, with zero reliability accounting."""
        _, _, spmd = fig2_spmd()
        params = {"N": 70, "T": 2, "P": 3}
        default = run_spmd(spmd, params)
        forced_direct = run_spmd(spmd, params, reliability="direct")
        assert default.makespan == forced_direct.makespan
        assert default.total_messages == forced_direct.total_messages
        assert default.total_words == forced_direct.total_words
        assert default.stat_sum("retransmissions") == 0
        assert default.stat_sum("timeout_time") == 0

    def test_arq_protocol_free_on_clean_network(self):
        """Reliable transport over a fault-free network charges nothing
        extra: sequence numbers and dedup are bookkeeping, not cost."""
        _, _, spmd = fig2_spmd()
        params = {"N": 70, "T": 2, "P": 3}
        direct = run_spmd(spmd, params)
        reliable = run_spmd(spmd, params, reliability="reliable")
        assert direct.makespan == reliable.makespan
        assert direct.total_messages == reliable.total_messages
        assert reliable.stat_sum("retransmissions") == 0


class TestReliableUnderFaults:
    def test_lu_validates_through_lossy_network(self):
        """ISSUE acceptance: LU passes check_against_sequential at 20%
        drop + duplication + reordering with a fixed fault seed."""
        _, comps, spmd = lu_compiled()
        result = check_against_sequential(
            spmd, comps, {"N": 12, "P": 4}, fault_plan=LOSSY
        )
        # the network really was hostile; the protocol really did work
        assert result.stat_sum("retransmissions") > 0

    def test_stencil_validates_through_lossy_network(self):
        _, stmt, comp, layout, spmd = stencil_compiled()
        result = check_against_sequential(
            spmd, {stmt.name: comp}, {"N": 30, "P": 4},
            initial_data=layout, fault_plan=LOSSY,
        )
        assert result.total_messages > 0  # the preload did move data

    def test_fig2_validates_across_fault_seeds(self):
        prog, comp, spmd = fig2_spmd()
        for seed in range(5):
            plan = FaultPlan(
                seed=seed, drop_rate=0.2, dup_rate=0.1, reorder_rate=0.1
            )
            check_against_sequential(
                spmd,
                {prog.statements()[0].name: comp},
                {"N": 70, "T": 2, "P": 3},
                fault_plan=plan,
            )

    def test_ack_loss_forces_dedup(self):
        """Lost acks retransmit already-delivered messages; the
        receiver must discard the replayed copies by sequence number."""
        _, comps, spmd = lu_compiled()
        plan = FaultPlan(seed=3, drop_rate=0.0, ack_drop_rate=0.5)
        result = check_against_sequential(
            spmd, comps, {"N": 12, "P": 4}, fault_plan=plan
        )
        assert result.stat_sum("acks_lost") > 0
        assert result.stat_sum("duplicates_dropped") > 0
        # every lost ack triggered exactly one retransmission (a lost
        # ack on the final attempt would have raised TransportError)
        assert (
            result.stat_sum("retransmissions")
            == result.stat_sum("acks_lost")
        )

    def test_retransmissions_cost_time(self):
        _, comps, spmd = lu_compiled()
        clean = run_spmd(spmd, {"N": 12, "P": 4})
        lossy = run_spmd(spmd, {"N": 12, "P": 4}, fault_plan=LOSSY)
        assert lossy.makespan > clean.makespan
        assert lossy.stat_sum("timeout_time") > 0

    def test_message_values_identical_to_clean_run(self):
        """Reliability is transparent: the lossy run ends with the same
        array state as the clean run."""
        _, _, spmd = fig2_spmd()
        params = {"N": 70, "T": 2, "P": 3}
        clean = run_spmd(spmd, params)
        lossy = run_spmd(spmd, params, fault_plan=LOSSY)
        for myp in clean.arrays:
            assert np.array_equal(
                clean.arrays[myp]["X"], lossy.arrays[myp]["X"],
                equal_nan=True,
            )


class TestRetryCap:
    def test_total_loss_exhausts_retries(self):
        prog, comp, _ = fig2_spmd()

        def node(proc):
            if proc.myp == (0,):
                proc.send((1,), ("x",), [1.0])
            else:
                yield ("recv", (0,), ("x",))

        machine = Machine(
            prog, comp.space, {"N": 70, "T": 0, "P": 2},
            fault_plan=FaultPlan(seed=1, drop_rate=1.0),
            max_retries=3,
        )
        with pytest.raises(TransportError) as excinfo:
            machine.run(node)
        assert "4 attempts" in str(excinfo.value)
        notes = getattr(excinfo.value, "__notes__", [])
        assert any("processor (0,)" in n for n in notes)
        # the stranded receiver is reported as a consequence, not lost
        assert any("deadlocked" in n for n in notes)


class TestUnreliableTransport:
    def test_duplicates_alone_are_harmless(self):
        """Without a protocol, duplicated deliveries of a unique tag
        overwrite the stash with the same payload -- values survive."""
        prog, comp, spmd = fig2_spmd()
        plan = FaultPlan(seed=2, dup_rate=1.0)
        result = check_against_sequential(
            spmd,
            {prog.statements()[0].name: comp},
            {"N": 70, "T": 1, "P": 3},
            fault_plan=plan,
            reliability="unreliable",
        )
        assert result.stat_sum("duplicates_sent") > 0

    def test_drops_are_fatal_without_protocol(self):
        from repro.runtime import DeadlockError

        prog, comp, spmd = fig2_spmd()
        plan = FaultPlan(seed=0, drop_rate=0.9)
        machine = Machine(
            prog, comp.space, {"N": 70, "T": 1, "P": 3},
            fault_plan=plan, reliability="unreliable",
        )
        with pytest.raises(DeadlockError) as excinfo:
            machine.run(spmd.node)
        report = excinfo.value.report
        assert report is not None
        assert report.dropped_sends  # the audit names the lost messages
