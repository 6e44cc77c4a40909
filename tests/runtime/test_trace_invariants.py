"""Trace invariants (ISSUE 5 satellite 2 + satellite 4 + acceptance).

Property tests over every paper workload under both codegen modes
(scalar and vectorized) and both ``backend=`` names:

* every ``recv-complete`` matches a send with an equal word count;
* per-processor event clocks are monotone, and the spanning events
  tile the timeline contiguously from 0 to the finish clock;
* the critical path extracted from the trace equals the reported
  makespan **exactly** (fault-free);
* communication-matrix totals reconcile exactly with ``ProcStats``;
* the makespan decomposition buckets sum exactly to each processor's
  finish clock, both from stats and recomputed from the trace -- the
  accounting audit that ISSUE 5 requires at the vectorized-block and
  checkpoint-replay seams (the crash-side half lives in
  ``test_trace_faults.py``).
"""

import pytest

from repro.codegen import SPMDOptions
from repro.runtime import (
    Decomposition,
    comm_matrix,
    critical_path,
    match_messages,
    run_spmd,
)
from repro.runtime.analysis import unmatched_receives

from .trace_workloads import BACKENDS, GRID, VECTORIZE, WORKLOADS, compiled


@pytest.fixture(scope="module")
def runs():
    """One traced run per (workload, vectorize, backend)."""
    out = {}
    for name in sorted(WORKLOADS):
        build, params = WORKLOADS[name]
        spmds = compiled(build)
        for vec in VECTORIZE:
            for backend in BACKENDS:
                out[(name, vec, backend)] = run_spmd(
                    spmds[vec], params, backend=backend, trace=True
                )
    return out


@pytest.mark.parametrize("name,vec,backend", GRID)
class TestTraceInvariants:
    def test_every_receive_matches_a_send_with_equal_words(
        self, runs, name, vec, backend
    ):
        trace = runs[(name, vec, backend)].trace
        receives = trace.by_kind("recv-complete")
        pairs = match_messages(trace)
        assert len(pairs) == len(receives)
        assert unmatched_receives(trace) == []
        for send, recv in pairs:
            assert send.words == recv.words, (send, recv)
            assert send.rank != recv.rank
            assert send.peer == recv.rank
            # causality: the payload cannot arrive before the wire
            # time after the send completed
            assert recv.arrival >= send.end

    def test_per_processor_clocks_monotone_and_contiguous(
        self, runs, name, vec, backend
    ):
        result = runs[(name, vec, backend)]
        trace = result.trace
        for rank in trace.proc_ranks():
            events = trace.per_rank(rank)
            clock = 0.0
            for ev in events:
                assert ev.end >= ev.start, ev
                assert ev.start >= clock, (
                    f"{name}: event starts before its predecessor "
                    f"ended on {rank}: {ev}"
                )
                clock = ev.end
            # spanning events tile [0, finish] with no gaps: every
            # clock mutation in the runtime is a traced charge
            spanning = [e for e in events if e.duration > 0]
            edge = 0.0
            for ev in spanning:
                assert ev.start == edge, (
                    f"{name}: clock gap on {rank} at {ev}"
                )
                edge = ev.end
            assert edge == result.clocks[rank]

    def test_critical_path_equals_makespan(
        self, runs, name, vec, backend
    ):
        result = runs[(name, vec, backend)]
        path = critical_path(result.trace)
        assert path.complete
        assert path.length == result.makespan
        # the chain is contiguous in time and starts at 0
        assert path.chain[0].start == 0.0
        assert path.chain[-1].end == result.makespan
        for prev, cur in zip(path.chain, path.chain[1:]):
            if prev.rank == cur.rank:
                assert cur.start == prev.end
            else:
                # processor hop: prev is the send whose arrival gated
                # the receive
                assert cur.kind == "recv-complete"
                assert cur.end == cur.arrival

    def test_comm_matrix_reconciles_with_proc_stats(
        self, runs, name, vec, backend
    ):
        result = runs[(name, vec, backend)]
        trace = result.trace
        matrix = comm_matrix(trace)
        assert matrix.total_messages == result.total_messages
        assert matrix.total_words == result.total_words
        for myp, stats in result.stats.items():
            sent = matrix.sent_by(myp)
            assert sent.messages == stats.messages_sent
            assert sent.words == stats.words_sent
            assert sent.retransmissions == stats.retransmissions
            msgs, words = matrix.received_words(trace, myp)
            assert msgs == stats.messages_received
            assert words == stats.words_received

    def test_decomposition_sums_to_finish_clock(
        self, runs, name, vec, backend
    ):
        """The satellite-4 accounting audit: with send overhead and
        receive overhead now in dedicated ProcStats buckets, the
        decomposition is exhaustive -- buckets sum to the finish clock
        with zero residue, scalar and vectorized alike."""
        result = runs[(name, vec, backend)]
        for myp, stats in result.stats.items():
            deco = Decomposition.from_stats(stats)
            assert deco.total() == result.clocks[myp], (
                f"{name} {myp}: buckets sum to {deco.total()}, "
                f"finish clock is {result.clocks[myp]}"
            )
            from_trace = Decomposition.from_trace(result.trace, myp)
            assert from_trace == deco, (
                f"{name} {myp}: trace-derived decomposition diverges "
                f"from stats-derived"
            )
        assert max(result.clocks.values()) == result.makespan


class TestChromeExport:
    def test_chrome_export_shape(self, runs):
        result = runs[("fig2", True, "event")]
        doc = result.trace.to_chrome()
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert "X" in phases  # spans
        assert "i" in phases  # markers
        assert "M" in phases  # thread names
        # flow arrows: one s+f pair per matched message
        n_pairs = len(match_messages(result.trace))
        assert sum(1 for e in events if e["ph"] == "s") == n_pairs
        assert sum(1 for e in events if e["ph"] == "f") == n_pairs
        names = {
            e["args"]["name"] for e in events if e["ph"] == "M"
        }
        assert names == {
            f"proc {r}" for r in result.trace.proc_ranks()
        }

    def test_write_chrome_roundtrip(self, runs, tmp_path):
        import json

        result = runs[("pipe", False, "coop")]
        out = tmp_path / "trace.json"
        result.trace.write_chrome(str(out))
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
