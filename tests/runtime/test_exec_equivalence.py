"""Execution equivalence: every codegen mode x transport must be
*exactly* the machine the paper's experiments ran on.

The vectorized emitter (numpy block operations with closed-form cost
charging) is a performance feature only: for every workload of the
unified conformance matrix (``trace_workloads``) it must produce
bit-identical final arrays, an equal makespan, and identical
per-processor ``ProcStats`` compared to scalar codegen.  The one-sided
transport rides the same matrix: it must match the reliable
transport's arrays, clocks and makespan exactly (its ``ProcStats``
additionally count puts/gets/fences, so the cross-transport oracle is
arrays + clocks, not stats equality).  Any drift -- a clock charged in
a different order, a skipped guard, a payload copied differently --
fails here.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import SPMDOptions, generate_spmd
from repro.decomp import block, block_loop
from repro.lang import parse
from repro.runtime import run_spmd

from .trace_workloads import (
    STENCIL_SRC,
    TRANSPORTS,
    VECTORIZE,
    WORKLOADS,
    assert_identical_runs,
    assert_same_arrays,
    compiled_spmd,
)


def sweep(name, params):
    base = None
    for vec in VECTORIZE:
        result = run_spmd(compiled_spmd(name, vectorize=vec), params)
        if base is None:
            base = result
        else:
            assert_identical_runs(base, result, f"vectorize={vec}")
    return base


class TestCodegenEquivalence:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_bit_identical_across_codegen_modes(self, name):
        _build, params = WORKLOADS[name]
        sweep(name, params)

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_transports_bit_identical(self, name):
        """reliable vs onesided, with and without early-put codegen:
        same arrays, same per-rank finish clocks, same makespan."""
        _build, params = WORKLOADS[name]
        for early in (False, True):
            spmd = compiled_spmd(name, early_puts=early)
            runs = {
                tr: run_spmd(spmd, params, reliability=tr)
                for tr in TRANSPORTS
            }
            base = runs["reliable"]
            for tr, result in runs.items():
                label = f"{name} early_puts={early} transport={tr}"
                assert result.makespan == base.makespan, label
                assert result.clocks == base.clocks, label
                assert_same_arrays(result, base, label)

    def test_vectorized_lu_actually_vectorizes(self):
        """Guard against the sweep silently degenerating: LU must
        compile to block execution, and fig2's self-dependent compute
        must never be gathered (distance-3 RAW makes
        gather-before-scatter wrong): it is a range-kernel block call,
        and every compute it runs is traced as one scalar operation."""
        lu = compiled_spmd("lu", vectorize=True)
        assert "proc.execute_block(" in lu.source
        fig2 = compiled_spmd("fig2", vectorize=True)
        compute_lines = [
            ln for ln in fig2.source.splitlines() if "execute" in ln
        ]
        assert compute_lines
        assert all(
            "proc.execute_block(" in ln and ln.endswith(", False)")
            for ln in compute_lines
        )
        _build, params = WORKLOADS["fig2"]
        run = run_spmd(fig2, params, trace=True)
        counts = [e.count for e in run.trace.by_kind("compute")]
        assert counts and set(counts) == {1}

    def test_initial_data_layouts_survive_codegen_modes(self):
        """Overlap layouts + preload communication through both
        codegen modes."""
        program = parse(STENCIL_SRC, name="stencil")
        stmt = program.statements()[0]
        comps = {stmt.name: block_loop(stmt, ["i"], [8])}
        layout = {
            "A": block(program.arrays["A"], [8]),
            "B": block(program.arrays["B"], [8]),
        }
        params = {"N": 30, "T": 1, "P": 4}
        base = None
        for vec in VECTORIZE:
            spmd = generate_spmd(
                program, comps, initial_data=layout,
                options=SPMDOptions(vectorize=vec),
            )
            result = run_spmd(spmd, params, initial_data=layout)
            if base is None:
                base = result
            else:
                assert_identical_runs(base, result, f"vectorize={vec}")


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


class TestRandomProgramEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(random_pipeline())
    def test_random_pipeline_identical_everywhere(self, case):
        src, block_size, nprocs = case
        prog = parse(src)
        s1 = prog.statement("s1")
        s2 = prog.statement("s2")
        comps = {"s1": block_loop(s1, ["i"], [block_size])}
        comps["s2"] = block_loop(
            s2, ["j"], [block_size], space=comps["s1"].space
        )
        init = {"B": block(prog.arrays["B"], [block_size])}

        def build(options):
            return generate_spmd(
                prog, comps, initial_data=init, options=options
            )

        base = None
        for vec in VECTORIZE:
            result = run_spmd(
                build(SPMDOptions(vectorize=vec)), {"P": nprocs},
                initial_data=init,
            )
            if base is None:
                base = result
            else:
                assert_identical_runs(base, result, f"vectorize={vec}")

