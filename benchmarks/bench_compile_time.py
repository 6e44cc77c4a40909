"""C3: compile time for the LU kernel (paper Section 7).

"Our compiler pass took 2.9 seconds to generate the computation and
communication code" -- on 1993 hardware.  The whole pipeline (5 Last
Write Trees, communication sets, optimization, scanning, merging,
Python emission) must finish well inside that budget here.

Two guards.  The wall-clock one is set at ~14x the current figure
(0.07 s), tight enough to catch a regression to the pre-kernel engine
(0.41 s) on a runner 2x slower than the one that measured it.  The
count-based one does not depend on runner speed at all: a cold LU
compile may ask for at most half the ``LinExpr`` constructions the
pre-kernel engine needed.
"""

from workloads import (
    PARENT_LU_LINEXPR_CONSTRUCTIONS,
    lu_cold_compile,
    lu_linexpr_constructions,
)


def test_compile_time(benchmark, report):
    spmd = benchmark(lu_cold_compile)
    mean = benchmark.stats.stats.mean
    report("C3: LU end-to-end compile time (paper Section 7)")
    report(f"paper:    2.9 s (on 1993 hardware)")
    report(f"measured: {mean:.3f} s")
    assert mean < 1.0
    assert len(spmd.commsets) >= 4


def test_compile_allocations(report):
    trips = lu_linexpr_constructions()
    budget = PARENT_LU_LINEXPR_CONSTRUCTIONS // 2
    report("C3: LinExpr constructions per cold LU compile")
    report(f"before the single-pass kernel: {PARENT_LU_LINEXPR_CONSTRUCTIONS}")
    report(f"measured: {trips} (budget {budget})")
    assert trips <= budget
