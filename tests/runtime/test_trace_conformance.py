"""Trace conformance across codegen modes, repeats and transports.

The trace is only worth anything if it is a property of the *program
on the modeled machine*.  These tests pin that down: for every paper
workload, the normalized event trace is equal across repeated runs,
and the communication-event subset is equal across scalar and
vectorized codegen (vectorizing merges compute events but must never
change what is communicated or when).  The one-sided transport joins
the same matrix: for every ``(workload, vectorize, backend)`` row,
with and without early-put codegen, and with fences *priced* (nonzero
``fence_time``), the onesided run's arrays AND canonicalized
normalized trace are bit-identical to the reliable run's.  A
hypothesis sweep extends the codegen guarantee to random fault-free
pipelines.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import SPMDOptions, generate_spmd
from repro.decomp import block, block_loop
from repro.lang import parse
from repro.runtime import CostModel, run_spmd

from .trace_workloads import (
    COMM_KINDS,
    GRID,
    TRANSPORTS,
    VECTORIZE,
    WORKLOADS,
    assert_same_arrays,
    canonical_trace,
    compiled,
    compiled_spmd,
)


def traced(spmd, params, **kw):
    result = run_spmd(spmd, params, trace=True, **kw)
    assert result.trace is not None
    return result


class TestTraceConformance:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_comm_events_identical_across_codegen_modes(self, name):
        build, params = WORKLOADS[name]
        spmds = compiled(build)
        base = None
        for vec in VECTORIZE:
            rows = traced(spmds[vec], params).trace.normalized(COMM_KINDS)
            if base is None:
                base = rows
            else:
                assert rows == base, (
                    f"{name} vectorize={vec}: communication events "
                    f"differ from scalar codegen"
                )

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_trace_is_deterministic_across_repeated_runs(self, name):
        build, params = WORKLOADS[name]
        spmd = build(SPMDOptions())
        first = traced(spmd, params).trace.normalized()
        second = traced(spmd, params).trace.normalized()
        assert first
        assert first == second

    def test_vectorized_blocks_span_as_single_events(self):
        """LU vectorizes: the vector trace must have strictly fewer
        compute events covering the same iterations (sum of counts) and
        the same total compute span."""
        build, params = WORKLOADS["lu"]
        spmds = compiled(build)
        scalar = traced(spmds[False], params).trace
        vector = traced(spmds[True], params).trace
        s_events = scalar.by_kind("compute")
        v_events = vector.by_kind("compute")
        assert len(v_events) < len(s_events)
        assert any(e.count > 1 for e in v_events)
        assert sum(e.count for e in v_events) == sum(
            e.count for e in s_events
        )
        assert sum(e.duration for e in v_events) == sum(
            e.duration for e in s_events
        )


#: fences are deliberately priced *differently* from receive overhead
#: so conformance cannot pass by accident: a fenced receive charging
#: recv_overhead (or an unfenced one charging fence_time) shifts every
#: downstream clock and fails the trace comparison
_FENCED_COST = CostModel(fence_time=37.0)


class TestOneSidedConformance:
    """PR 10 acceptance: the unified matrix, onesided vs reliable."""

    @pytest.mark.parametrize("name,vec,backend", GRID)
    def test_onesided_matches_reliable_bit_for_bit(
        self, name, vec, backend
    ):
        _build, params = WORKLOADS[name]
        for early in (False, True):
            spmd = compiled_spmd(name, vectorize=vec, early_puts=early)
            runs = {
                tr: run_spmd(
                    spmd, params, cost=_FENCED_COST, reliability=tr,
                    backend=backend, trace=True,
                )
                for tr in TRANSPORTS
            }
            base = runs["reliable"]
            other = runs["onesided"]
            label = f"{name} vec={vec} {backend} early_puts={early}"
            assert other.makespan == base.makespan, label
            assert other.clocks == base.clocks, label
            assert_same_arrays(other, base, label)
            assert canonical_trace(other.trace) == canonical_trace(
                base.trace
            ), f"{label}: canonicalized traces diverge"

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_put_events_appear_exactly_on_onesided(self, name):
        """The canonicalization isn't vacuous: onesided runs trace
        ``put``/``get``/``fence-wait`` where reliable traces
        ``send``/``unpack``/``recv-wait`` -- counts must correspond."""
        _build, params = WORKLOADS[name]
        spmd = compiled_spmd(name, early_puts=True)
        rel = run_spmd(spmd, params, reliability="reliable", trace=True)
        one = run_spmd(spmd, params, reliability="onesided", trace=True)
        rc, oc = rel.trace.counts(), one.trace.counts()
        assert oc.get("put", 0) == rc.get("send", 0)
        assert oc.get("send", 0) == 0
        # fenced receives mark fence-wait/get on BOTH transports (the
        # program decides the discipline; the transport only renames
        # the transmission verb)
        assert oc.get("fence-wait", 0) == rc.get("fence-wait", 0)
        assert oc.get("get", 0) == rc.get("get", 0)
        if rc.get("send", 0):
            assert oc.get("put", 0) > 0

    def test_fence_pricing_lands_in_the_fence_bucket(self):
        """With fence_time priced, early-put runs book fence_time (not
        recv_overhead) for their fenced receives, the decomposition
        still sums to each finish clock, and stats agree with trace."""
        from repro.runtime.analysis import Decomposition

        _build, params = WORKLOADS["fig2"]
        spmd = compiled_spmd("fig2", early_puts=True)
        result = run_spmd(
            spmd, params, cost=_FENCED_COST, reliability="onesided",
            trace=True,
        )
        fences = result.stat_sum("fences")
        assert fences > 0
        assert result.stat_sum("fence_time") == pytest.approx(
            fences * _FENCED_COST.fence_time
        )
        for myp, stats in result.stats.items():
            deco = Decomposition.from_stats(stats)
            assert deco.total() == result.clocks[myp]
            assert Decomposition.from_trace(result.trace, myp) == deco
            if stats.fences:
                assert deco.fence > 0


@st.composite
def random_pipeline(draw):
    shift = draw(st.integers(0, 4))
    block_size = draw(st.sampled_from([4, 8, 12]))
    nprocs = draw(st.integers(1, 3))
    n = draw(st.integers(16, 28))
    size = n + shift + 2
    src = (
        f"array A[{size}]\n"
        f"array B[{size}]\n"
        f"for i = 0 to {n} do\n"
        f"  s1: A[i] = i + 2\n"
        f"for j = {shift} to {n} do\n"
        f"  s2: B[j] = A[j - {shift}] + B[j]\n"
    )
    return src, block_size, nprocs


class TestRandomProgramConformance:
    @settings(max_examples=8, deadline=None)
    @given(random_pipeline())
    def test_random_pipeline_comm_identical_across_codegen(self, case):
        src, block_size, nprocs = case
        prog = parse(src)
        s1 = prog.statement("s1")
        s2 = prog.statement("s2")
        comps = {"s1": block_loop(s1, ["i"], [block_size])}
        comps["s2"] = block_loop(
            s2, ["j"], [block_size], space=comps["s1"].space
        )
        init = {"B": block(prog.arrays["B"], [block_size])}
        spmds = {
            vec: generate_spmd(
                prog, comps, initial_data=init,
                options=SPMDOptions(vectorize=vec),
            )
            for vec in VECTORIZE
        }
        comm_base = None
        for vec in VECTORIZE:
            result = run_spmd(
                spmds[vec], {"P": nprocs}, initial_data=init, trace=True,
            )
            comm = result.trace.normalized(COMM_KINDS)
            if comm_base is None:
                comm_base = comm
            else:
                assert comm == comm_base
