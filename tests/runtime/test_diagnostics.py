"""Progress monitor and deadlock diagnostics tests.

The bar: a forced deadlock -- e.g. a mismatched recv tag -- is
reported in well under a second with a report naming the blocked
processors and their pending tags; no wall clock is involved.
"""

import time

import pytest

from repro.codegen import generate_spmd
from repro.decomp import block_loop
from repro.lang import parse
from repro.runtime import DeadlockError, FaultPlan, Machine, TransportError

FIG2 = """
array X[N + 1]
assume N >= 3
assume T >= 0
for t = 0 to T do
  for i = 3 to N do
    X[i] = X[i - 3]
"""


def fig2_machine(nprocs=2, **kw):
    prog = parse(FIG2)
    stmt = prog.statements()[0]
    comp = block_loop(stmt, ["i"], [32])
    machine = Machine(
        prog, comp.space, {"N": 70, "T": 0, "P": nprocs},
        **kw,
    )
    return machine, comp


class TestInstantDeadlockDetection:
    def test_mismatched_tag_reported_fast_with_report(self):
        """Detection is structural: the diagnosis arrives in
        milliseconds."""
        machine, _ = fig2_machine(nprocs=2)

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
        machine, _ = fig2_machine(nprocs=2)

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
        """A processor dying can deadlock the survivors; they are
        failed as soon as nobody is left to run."""
        machine, _ = fig2_machine(nprocs=2)

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
        machine, comp = fig2_machine(nprocs=3)
        prog = machine.program
        spmd = generate_spmd(
            prog, {prog.statements()[0].name: comp}
        )
        machine.params["T"] = 2
        result = machine.run(spmd.node)
        assert result.makespan > 0


class TestFailureAggregation:
    def test_multiple_failures_raise_exception_group(self):
        machine, _ = fig2_machine(nprocs=2)

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
        machine, _ = fig2_machine(nprocs=2)

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


def _run_capturing(machine, node):
    """Run ``node`` to its expected failure; returns the raised
    exception and every per-processor failure the machine surfaced
    it from, in order."""
    failures = []
    surface = machine._raise_failures

    def capture(found):
        failures.extend(found)
        surface(found)

    machine._raise_failures = capture
    with pytest.raises(Exception) as excinfo:
        machine.run(node)
    return excinfo.value, failures


def _waits(myp, tag):
    return (
        f"deadlock: processor {myp} waits on {tag}, which no in-flight "
        f"or future message can satisfy\n"
    )


class TestDeadlockErrorText:
    """The full text of every deadlock failure, pinned: which ranks
    fail, in which order, and the audit each one carries."""

    def test_all_ranks_blocked(self):
        machine, _ = fig2_machine(nprocs=2)

        def node(proc):
            yield ("recv", (0,), ("never", proc.myp[0]))

        raised, failures = _run_capturing(machine, node)
        audit = (
            "deadlock audit: 2 processor(s) blocked in recv, 0 message(s) "
            "in flight\n"
            "  processor (0,): clock=0.0 state=blocked "
            "waiting-on=('never', 0) stash=[]\n"
            "  processor (1,): clock=0.0 state=blocked "
            "waiting-on=('never', 1) stash=[]\n"
            "  audit: 0 delivered, 0 received, 0 dropped by the network"
        )
        assert [(myp, str(exc)) for myp, exc in failures] == [
            ((0,), _waits((0,), ("never", 0)) + audit),
            ((1,), _waits((1,), ("never", 1)) + audit),
        ]
        assert raised is failures[0][1]
        assert raised.__notes__ == ["raised on processor (0,)"]
        assert failures[1][1].report is raised.report

    def test_one_rank_finished_one_waiting(self):
        machine, _ = fig2_machine(nprocs=2)

        def node(proc):
            if proc.myp == (1,):
                yield ("recv", (0,), ("ghost",))

        raised, failures = _run_capturing(machine, node)
        assert [(myp, str(exc)) for myp, exc in failures] == [(
            (1,),
            _waits((1,), ("ghost",))
            + "deadlock audit: 1 processor(s) blocked in recv, "
            "0 message(s) in flight\n"
            "  processor (0,): clock=0.0 state=finished stash=[]\n"
            "  processor (1,): clock=0.0 state=blocked "
            "waiting-on=('ghost',) stash=[]\n"
            "  audit: 0 delivered, 0 received, 0 dropped by the network",
        )]
        assert raised is failures[0][1]
        assert raised.__notes__ == ["raised on processor (1,)"]

    def test_stray_delivery_stays_in_the_audit(self):
        """The last rank parks with a copy still in a peer's mailbox:
        the deadlock is only proven once that copy has been stashed."""
        machine, _ = fig2_machine(nprocs=2)

        def node(proc):
            if proc.myp == (0,):
                yield ("recv", (1,), ("reply",))
            else:
                proc.send((0,), ("junk",), [1.0])
                yield ("recv", (0,), ("wanted",))

        raised, failures = _run_capturing(machine, node)
        audit = (
            "deadlock audit: 2 processor(s) blocked in recv, 0 message(s) "
            "in flight\n"
            "  processor (0,): clock=0.0 state=blocked "
            "waiting-on=('reply',) stash=[('junk',)]\n"
            "  processor (1,): clock=404.0 state=blocked "
            "waiting-on=('wanted',) stash=[]\n"
            "  audit: 1 delivered, 0 received, 0 dropped by the network\n"
            "  delivered but never received:\n"
            "    (1,) -> (0,) tag=('junk',)"
        )
        assert [(myp, str(exc)) for myp, exc in failures] == [
            ((0,), _waits((0,), ("reply",)) + audit),
            ((1,), _waits((1,), ("wanted",)) + audit),
        ]
        assert raised is failures[0][1]

    def test_transport_error_root_notes_the_deadlock(self):
        machine, _ = fig2_machine(
            nprocs=2, fault_plan=FaultPlan(seed=1, drop_rate=1.0),
            max_retries=3,
        )

        def node(proc):
            if proc.myp == (0,):
                proc.send((1,), ("x",), [1.0])
            else:
                yield ("recv", (0,), ("x",))

        raised, failures = _run_capturing(machine, node)
        assert isinstance(raised, TransportError)
        assert str(raised) == (
            "processor (0,) -> (1,) tag=('x',): no acknowledged delivery "
            "after 4 attempts (all copies lost)"
        )
        assert raised.__notes__ == [
            "raised on processor (0,)",
            "1 other processor(s) deadlocked waiting for the failed "
            "processor",
        ]
        assert [(myp, type(exc)) for myp, exc in failures] == [
            ((0,), TransportError), ((1,), DeadlockError),
        ]
        assert str(failures[1][1]) == (
            _waits((1,), ("x",))
            + "deadlock audit: 1 processor(s) blocked in recv, "
            "0 message(s) in flight\n"
            "  processor (0,): clock=12116.0 state=failed stash=[]\n"
            "  processor (1,): clock=0.0 state=blocked "
            "waiting-on=('x',) stash=[]\n"
            "  audit: 0 delivered, 0 received, 1 dropped by the network\n"
            "  dropped by the network:\n"
            "    (0,) -> (1,) tag=('x',)"
        )
