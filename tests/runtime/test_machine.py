"""Machine simulator unit tests: cost model, clocks, channels, stats."""

import dataclasses

import pytest

from repro.codegen import SPMDOptions, generate_spmd
from repro.decomp import ProcSpace, block_loop, cyclic
from repro.ir import allocate_arrays
from repro.lang import parse
from repro.runtime import (
    CheckpointPolicy,
    CostModel,
    DeadlockError,
    FaultPlan,
    Machine,
    ProcStats,
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


def fig2_spmd():
    prog = parse(FIG2)
    stmt = prog.statements()[0]
    comp = block_loop(stmt, ["i"], [32])
    return generate_spmd(prog, {stmt.name: comp}), prog


class TestCostModel:
    def test_makespan_grows_with_alpha(self):
        spmd, _ = fig2_spmd()
        params = {"N": 70, "T": 2, "P": 3}
        cheap = run_spmd(spmd, params, cost=CostModel(alpha=10.0))
        dear = run_spmd(spmd, params, cost=CostModel(alpha=5000.0))
        assert dear.makespan > cheap.makespan

    def test_flops_counted(self):
        spmd, prog = fig2_spmd()
        res = run_spmd(spmd, {"N": 70, "T": 1, "P": 2})
        iterations = 2 * (70 - 3 + 1)
        # one statement, 1 read -> 2 flops per execution
        assert res.stat_sum("flops") == 2 * iterations

    def test_stall_time_reported(self):
        spmd, _ = fig2_spmd()
        res = run_spmd(
            spmd,
            {"N": 70, "T": 2, "P": 3},
            cost=CostModel(latency=100000.0),
        )
        assert res.stat_sum("stall_time") > 0

    def test_values_deterministic_across_runs(self):
        spmd, _ = fig2_spmd()
        params = {"N": 70, "T": 2, "P": 3}
        a = run_spmd(spmd, params)
        b = run_spmd(spmd, params)
        import numpy as np

        for myp in a.arrays:
            assert np.array_equal(
                a.arrays[myp]["X"], b.arrays[myp]["X"], equal_nan=True
            )
        assert a.makespan == b.makespan

    def test_serial_run_no_messages(self):
        spmd, _ = fig2_spmd()
        res = run_spmd(spmd, {"N": 70, "T": 1, "P": 1})
        assert res.total_messages == 0


class TestChannels:
    def test_deadlock_detected(self):
        """A node program that receives a message nobody sends."""
        prog = parse(FIG2)
        stmt = prog.statements()[0]
        comp = block_loop(stmt, ["i"], [32])
        spmd = generate_spmd(prog, {stmt.name: comp})

        def bad_node(proc):
            yield ("recv", (0,), ("never", 1))

        machine = Machine(
            prog, comp.space, {"N": 70, "T": 0, "P": 2}, timeout=0.5
        )
        with pytest.raises(DeadlockError):
            machine.run(bad_node)

    def test_out_of_order_tags_stash(self):
        """Receives can be satisfied out of arrival order via the stash."""
        prog = parse(FIG2)
        stmt = prog.statements()[0]
        comp = block_loop(stmt, ["i"], [32])

        def node(proc):
            if proc.myp == (0,):
                proc.send((1,), ("b",), [2.0])
                proc.send((1,), ("a",), [1.0])
            else:
                first = yield ("recv", (0,), ("a",))
                second = yield ("recv", (0,), ("b",))
                assert first == [1.0] and second == [2.0]

        machine = Machine(
            prog, comp.space, {"N": 70, "T": 0, "P": 2}, timeout=2.0
        )
        machine.run(node)

    def test_multicast_cache_single_cost(self):
        prog = parse(FIG2)
        stmt = prog.statements()[0]
        comp = block_loop(stmt, ["i"], [32])

        def node(proc):
            if proc.myp == (0,):
                proc.multicast([(1,)], ("mc",), [7.0])
            else:
                one = yield ("recv_mc", (0,), ("mc",))
                two = yield ("recv_mc", (0,), ("mc",))
                assert one == two == [7.0]
                assert proc.stats.messages_received == 1

        machine = Machine(
            prog, comp.space, {"N": 70, "T": 0, "P": 2}, timeout=2.0
        )
        machine.run(node)

    def test_multicast_payload_is_read_only(self):
        """Co-resident receivers share one cached multicast payload, so
        a node program writing into it must fail loudly."""
        import numpy as np

        prog = parse(FIG2)
        stmt = prog.statements()[0]
        comp = block_loop(stmt, ["i"], [32])

        def node(proc):
            if proc.myp == (0,):
                proc.multicast([(1,)], ("mc",), np.array([7.0]))
            else:
                payload = yield ("recv_mc", (0,), ("mc",))
                payload[0] = 1.0

        machine = Machine(
            prog, comp.space, {"N": 70, "T": 0, "P": 2}, timeout=2.0
        )
        with pytest.raises(ValueError, match="read-only"):
            machine.run(node)


class TestInitialArrays:
    def test_nan_poisoning(self):
        import numpy as np

        prog = parse(FIG2)
        stmt = prog.statements()[0]
        comp = block_loop(stmt, ["i"], [32])
        from repro.decomp import block

        machine = Machine(prog, comp.space, {"N": 70, "T": 0, "P": 3})
        init = {"X": block(prog.arrays["X"], [32])}
        mine = machine.initial_arrays((1,), init, seed=0)
        golden = allocate_arrays(prog, {"N": 70, "T": 0, "P": 3}, seed=0)
        # physical 1 holds virtual block 1 = X[32..63]
        assert np.allclose(mine["X"][32:64], golden["X"][32:64])
        assert np.isnan(mine["X"][0:32]).all()

    def test_replicated_default(self):
        import numpy as np

        prog = parse(FIG2)
        stmt = prog.statements()[0]
        comp = block_loop(stmt, ["i"], [32])
        machine = Machine(prog, comp.space, {"N": 70, "T": 0, "P": 2})
        mine = machine.initial_arrays((1,), None, seed=0)
        assert not np.isnan(mine["X"]).any()


class TestProcStats:
    def test_fields_keep_their_builtin_types(self):
        """Counts stay ``int`` and model times ``float`` on every path:
        vectorized compute checks ``compute_time.is_integer()``, which
        ``int`` lacks on Python 3.11."""
        from tests.runtime.trace_workloads import WORKLOADS

        # seed 0 drops, duplicates and corrupts copies, and crashes
        # ranks, on both workloads
        faults = [
            {},
            {"fault_plan": FaultPlan(seed=0, drop_rate=0.1, dup_rate=0.1,
                                     reorder_rate=0.1, corrupt_rate=0.1)},
            {"fault_plan": FaultPlan(seed=0, crash_rate=0.03),
             "checkpoint": CheckpointPolicy(every_ops=40),
             "max_restarts": 50},
        ]
        for name in ("fig2", "lu"):
            build, params = WORKLOADS[name]
            for vectorize in (False, True):
                spmd = build(SPMDOptions(vectorize=vectorize))
                for kw in faults:
                    result = run_spmd(
                        spmd, params, reliability="reliable", **kw
                    )
                    for stats in result.stats.values():
                        assert type(stats) is ProcStats
                        for f in dataclasses.fields(ProcStats):
                            value = getattr(stats, f.name)
                            assert type(value) is type(f.default), (
                                name, vectorize, kw, f.name
                            )
