"""Progress monitor and deadlock diagnostics tests.

The bar: a forced deadlock -- e.g. a mismatched recv tag -- is
reported in well under a second with a report naming the blocked
processors and their pending tags, however large the wall-clock
timeout.
"""

import time

import pytest

from repro.codegen import generate_spmd
from repro.decomp import block_loop
from repro.lang import parse
from repro.runtime import DeadlockError, Machine

FIG2 = """
array X[N + 1]
assume N >= 3
assume T >= 0
for t = 0 to T do
  for i = 3 to N do
    X[i] = X[i - 3]
"""


def fig2_machine(nprocs=2, timeout=60.0, **kw):
    prog = parse(FIG2)
    stmt = prog.statements()[0]
    comp = block_loop(stmt, ["i"], [32])
    machine = Machine(
        prog, comp.space, {"N": 70, "T": 0, "P": nprocs},
        timeout=timeout, **kw,
    )
    return machine, comp


class TestInstantDeadlockDetection:
    def test_mismatched_tag_reported_fast_with_report(self):
        """Detection must not scale with the wall-clock timeout: with a
        60 s budget, the diagnosis arrives in milliseconds."""
        machine, _ = fig2_machine(nprocs=2, timeout=60.0)

        def bad_node(proc):
            yield ("recv", (0,), ("never", proc.myp[0]))

        start = time.monotonic()
        with pytest.raises(DeadlockError) as excinfo:
            machine.run(bad_node)
        elapsed = time.monotonic() - start
        assert elapsed < 1.0
        report = excinfo.value.report
        assert report is not None
        blocked = {p.myp for p in report.blocked}
        assert blocked == {(0,), (1,)}
        assert report.pending_tags[(0,)] == ("never", 0)
        assert report.pending_tags[(1,)] == ("never", 1)
        assert report.in_flight == 0
        text = str(excinfo.value)
        assert "blocked in recv" in text and "('never', 0)" in text

    def test_unconsumed_delivery_appears_in_audit(self):
        """A send whose tag nobody ever receives shows up as an
        unmatched delivery -- the classic mismatched-pair diagnosis."""
        machine, _ = fig2_machine(nprocs=2, timeout=60.0)

        def node(proc):
            if proc.myp == (0,):
                proc.send((1,), ("sent-tag",), [1.0])
                yield ("recv", (1,), ("reply",))
            else:
                yield ("recv", (0,), ("wanted-tag",))

        with pytest.raises(DeadlockError) as excinfo:
            machine.run(node)
        report = excinfo.value.report
        assert report is not None
        assert ((0,), (1,), ("sent-tag",)) in report.unmatched_sends
        # the stranded payload is visible in the receiver's stash
        stashes = {p.myp: p.stash_tags for p in report.procs}
        assert ("sent-tag",) in stashes[(1,)]

    def test_peer_death_completes_the_diagnosis(self):
        """A processor dying can deadlock the survivors; the monitor
        re-checks on every exit so they are woken immediately."""
        machine, _ = fig2_machine(nprocs=2, timeout=60.0)

        def node(proc):
            if proc.myp == (0,):
                raise RuntimeError("boom")
            yield ("recv", (0,), ("x",))

        start = time.monotonic()
        with pytest.raises(RuntimeError) as excinfo:
            machine.run(node)
        assert time.monotonic() - start < 1.0
        notes = getattr(excinfo.value, "__notes__", [])
        assert any("processor (0,)" in n for n in notes)
        assert any("deadlocked" in n for n in notes)

    def test_clean_runs_unaffected(self):
        machine, comp = fig2_machine(nprocs=3, timeout=60.0)
        prog = machine.program
        spmd = generate_spmd(
            prog, {prog.statements()[0].name: comp}
        )
        machine.params["T"] = 2
        result = machine.run(spmd.node)
        assert result.makespan > 0


class TestFailureAggregation:
    def test_multiple_failures_raise_exception_group(self):
        machine, _ = fig2_machine(nprocs=2, timeout=30.0)

        def node(proc):
            raise ValueError(f"fail on {proc.myp}")
            yield  # unreachable: keeps node a generator function

        with pytest.raises(ExceptionGroup) as excinfo:
            machine.run(node)
        group = excinfo.value
        assert len(group.exceptions) == 2
        messages = sorted(str(e) for e in group.exceptions)
        assert messages == ["fail on (0,)", "fail on (1,)"]
        for exc in group.exceptions:
            assert any(
                "raised on processor" in n
                for n in getattr(exc, "__notes__", [])
            )

    def test_single_failure_raised_directly_with_coordinate(self):
        machine, _ = fig2_machine(nprocs=2, timeout=30.0)

        def node(proc):
            if proc.myp == (1,):
                raise ValueError("only me")
            proc.finish()
            return
            yield  # unreachable: keeps node a generator function

        with pytest.raises(ValueError) as excinfo:
            machine.run(node)
        notes = getattr(excinfo.value, "__notes__", [])
        assert any("processor (1,)" in n for n in notes)
