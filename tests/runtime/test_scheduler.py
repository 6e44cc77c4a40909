"""The one deterministic scheduler: large-P determinism, structural
deadlock diagnosis, and what it refuses.

Running fig2 and the pipelined stencil at P=128 twice must give
bit-identical arrays, normalized traces, and ProcStats across repeats.
``backend="coop"`` is kept as a name for the same engine (the frozen
benchmark still passes it), so it must reproduce the default run bit
for bit; the removed threaded backend and plain (non-generator) node
functions are refused with errors that say what to do instead.
"""

import time

import numpy as np
import pytest

from repro.codegen import SPMDOptions, generate_spmd
from repro.decomp import block_loop
from repro.lang import parse
from repro.runtime import DeadlockError, Machine, TraceBuffer, run_spmd

from .trace_workloads import (
    FIG2_SRC,
    JOBS,
    STENCIL_SRC,
    WORKLOADS,
    compiled_spmd,
)

P = 128

#: (name, source, params) -- blocks sized so work spreads over P ranks
LARGE_WORKLOADS = {
    "fig2": (FIG2_SRC, {"N": 512, "T": 2, "P": P}, "i", 4),
    "stencil": (STENCIL_SRC, {"N": 256, "T": 3, "P": P}, "i", 2),
}


def _build(name):
    src, params, loop_var, block = LARGE_WORKLOADS[name]
    program = parse(src, name=name)
    stmt = program.statements()[0]
    comps = {stmt.name: block_loop(stmt, [loop_var], [block])}
    spmd = generate_spmd(program, comps, options=SPMDOptions(vectorize=True))
    return spmd, params


def _assert_identical(base, other, label):
    assert other.makespan == base.makespan, label
    assert other.clocks == base.clocks, label
    assert other.stats == base.stats, label
    assert other.trace.normalized() == base.trace.normalized(), label
    for myp in base.arrays:
        for arr in base.arrays[myp]:
            assert np.array_equal(
                other.arrays[myp][arr], base.arrays[myp][arr],
                equal_nan=True,
            ), f"{label}: array {arr} differs on {myp}"


class TestLargePDeterminism:
    @pytest.mark.parametrize("name", sorted(LARGE_WORKLOADS))
    def test_repeatable_at_p128(self, name):
        spmd, params = _build(name)
        first = run_spmd(spmd, params, trace=True)
        again = run_spmd(spmd, params, trace=True)
        assert len(first.clocks) == P
        _assert_identical(first, again, f"{name}: run not repeatable")

    @pytest.mark.parametrize("name", sorted(LARGE_WORKLOADS))
    def test_coop_alias_matches_default_at_p128(self, name):
        """The frozen benchmark's large-P reference runs pass
        ``backend="coop"``; at P=128 they must equal the default."""
        spmd, params = _build(name)
        default = run_spmd(spmd, params, trace=True)
        coop = run_spmd(spmd, params, trace=True, backend="coop")
        _assert_identical(default, coop, f"{name}: coop != default")
        assert coop.sched_wakeups == default.sched_wakeups

    @pytest.mark.parametrize("name", sorted(LARGE_WORKLOADS))
    def test_throughput_counters_populated(self, name):
        spmd, params = _build(name)
        result = run_spmd(spmd, params)
        assert result.sim_events > 0
        assert result.wall_seconds > 0
        assert result.events_per_sec > 0
        assert result.sched_wakeups > 0


def fig2_machine(**kw):
    prog = parse(FIG2_SRC)
    stmt = prog.statements()[0]
    comp = block_loop(stmt, ["i"], [32])
    return Machine(prog, comp.space, {"N": 70, "T": 0, "P": 2}, **kw)


class TestScheduler:
    def test_structural_deadlock_detected_fast(self):
        """A mismatched receive is diagnosed structurally, the moment
        no rank can run, with the monitor's audit."""
        machine = fig2_machine()

        def bad_node(proc):
            proc.arrays  # touch, then wait on a tag nobody sends
            payload = yield ("recv", (0,), ("never", proc.myp[0]))
            del payload

        start = time.monotonic()
        with pytest.raises(DeadlockError) as excinfo:
            machine.run(bad_node)
        assert time.monotonic() - start < 2.0
        report = excinfo.value.report
        assert report is not None
        assert {p.myp for p in report.blocked} == {(0,), (1,)}
        assert report.in_flight == 0

    def test_one_sided_deadlock_names_the_waiter(self):
        """One processor finishes; the other waits forever on it."""
        machine = fig2_machine()

        def node(proc):
            if proc.myp == (1,):
                yield ("recv", (0,), ("ghost",))

        with pytest.raises(DeadlockError) as excinfo:
            machine.run(node)
        assert "(1,)" in str(excinfo.value)

    def test_plain_callable_rejected(self):
        """Node programs are generator functions; a plain callable is
        refused up front with the fix in the message."""
        machine = fig2_machine()

        def plain_node(proc):
            proc.tick(1.0)

        with pytest.raises(TypeError) as excinfo:
            machine.run(plain_node)
        message = str(excinfo.value)
        assert "plain_node" in message
        assert "generator function" in message
        assert "yield" in message

    def test_threads_backend_rejected(self):
        with pytest.raises(ValueError, match="threaded backend was removed"):
            fig2_machine(backend="threads")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            fig2_machine(backend="fibers")

    @pytest.mark.parametrize("knob", ["timeout", "rto", "backoff"])
    def test_removed_knobs_rejected(self, knob):
        """No wall-clock budget and no ARQ timer knobs: the timer is
        the cost model's round trip."""
        with pytest.raises(TypeError, match=knob):
            fig2_machine(**{knob: 1.0})

    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_reliability_rejected(self, flag):
        with pytest.raises(ValueError, match="unknown reliability mode"):
            fig2_machine(reliability=flag)

    def test_caller_owned_trace_buffer_records(self):
        """An empty caller-owned buffer is recorded into, not taken
        for 'tracing off' because it has no events yet."""
        buffer = TraceBuffer()
        spmd = compiled_spmd("fig2")
        result = run_spmd(spmd, WORKLOADS["fig2"][1], trace=buffer)
        assert result.trace is buffer and len(buffer) > 0

    @pytest.mark.parametrize("name", sorted(JOBS))
    def test_coop_alias_bit_identical_to_default(self, name):
        """``backend="coop"`` names the same engine: arrays, clocks,
        stats, wakeups and the full trace equal the default run's."""
        params = WORKLOADS[name][1]
        spmd = compiled_spmd(name)
        default = run_spmd(spmd, params, trace=True)
        coop = run_spmd(spmd, params, trace=True, backend="coop")
        _assert_identical(default, coop, f"{name}: coop != default")
        assert coop.sched_wakeups == default.sched_wakeups
