"""C4: polyhedral-engine ablation -- what redundancy pruning buys.

Section 5.1 of the paper warns that naive Fourier-Motzkin elimination
"generates many redundant constraints"; PR 2 added subsumption pruning,
an Imbert-style pair filter, and projection/feasibility caches to the
engine.  This benchmark quantifies them by compiling the same workloads
with the naive pre-PR engine (pruning and caches disabled) and with the
engine as shipped:

* the RSD-blowup workload -- the paper's Section 2.2.3 sparse access
  pattern ``A[m*i + j]`` over the triangle ``1 <= i <= j <= 100``,
  written and read across a block distribution -- must materialize at
  least 2x fewer FM constraints, with semantically identical
  communication sets;
* the LU kernel (Section 7) must also cut constraints and compile
  measurably faster;
* a repeated compile must be served by the projection and feasibility
  caches.

Counter deltas and timings are written to ``BENCH_poly.json`` at the
repository root so CI can archive them and enforce the budget.
"""

import json
import os
import time
from contextlib import contextmanager

from repro import block_loop, generate_spmd, parse
from repro.polyhedra import (
    NONE,
    fourier_motzkin,
    implies_equality,
    implies_inequality,
    omega,
    set_default_prune_level,
    stats,
)
from workloads import (
    PARENT_LU_COLD_SECONDS,
    PARENT_LU_LINEXPR_CONSTRUCTIONS,
    lu_cold_compile,
    lu_compiled,
    lu_linexpr_constructions,
)

BENCH_JSON = os.path.join(os.path.dirname(__file__), "..", "BENCH_poly.json")

_RESULTS = {}


@contextmanager
def naive_engine():
    """The pre-PR engine: no pruning, no projection/feasibility caches."""
    saved = set_default_prune_level(NONE)
    fourier_motzkin.set_projection_cache_size(0)
    saved_memo = omega.set_feasibility_memo_size(0)
    stats.reset()
    try:
        yield
    finally:
        set_default_prune_level(saved)
        fourier_motzkin.set_projection_cache_size(4096)
        omega.set_feasibility_memo_size(saved_memo)


@contextmanager
def shipped_engine():
    """The engine as shipped, with cold caches."""
    fourier_motzkin.set_projection_cache_size(4096)
    fourier_motzkin.projection_cache_clear()
    omega.feasibility_cache_clear()
    stats.reset()
    yield


def _save(key, payload):
    """Read-modify-write: preserve sections other benches own (the
    compile-service replay writes ``compile_service`` into this file)."""
    _RESULTS[key] = payload
    data = {}
    if os.path.exists(BENCH_JSON):
        with open(BENCH_JSON) as fh:
            data = json.load(fh)
    data.update(_RESULTS)
    with open(BENCH_JSON, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# semantic identity of communication sets across engine configurations
# ---------------------------------------------------------------------------

def _normalize_aux(system):
    """Rename generated auxiliaries ($q0, $eq1, ...) by sorted order; the
    two compiles draw different gensym numbers for the same variables."""
    aux = sorted(v for v in system.variables() if v.startswith("$"))
    return system.rename({v: f"$x{k}" for k, v in enumerate(aux)})


def _contains(outer, inner):
    """Is every integer point of ``inner`` inside ``outer``?"""
    return all(
        implies_equality(inner, eq) for eq in outer.equalities
    ) and all(
        implies_inequality(inner, ineq) for ineq in outer.inequalities
    )


def assert_same_commsets(spmd_a, spmd_b):
    assert [c.label for c in spmd_a.commsets] == [
        c.label for c in spmd_b.commsets
    ]
    for ca, cb in zip(spmd_a.commsets, spmd_b.commsets):
        a, b = _normalize_aux(ca.system), _normalize_aux(cb.system)
        assert _contains(a, b) and _contains(b, a), (
            f"commset {ca.label} diverged between engine configurations"
        )


# ---------------------------------------------------------------------------
# Workload 1: the RSD-blowup access pattern (paper Section 2.2.3)
# ---------------------------------------------------------------------------

#: row-major triangle, written then read one row up across a block
#: distribution -- the sparse access shape whose dense summary the paper
#: uses to motivate exact systems (Section 2.2.3).
SPARSE_COMM_SRC = """
array A[10303]
array B[10303]
for i = 1 to 100 do
  for j = i to 100 do
    s1: A[101 * i + j] = i + j
for i2 = 2 to 100 do
  for j2 = i2 to 100 do
    s2: B[101 * i2 + j2] = A[101 * i2 + j2 - 101]
"""


def sparse_compiled(block=10):
    program = parse(SPARSE_COMM_SRC, name="sparse_comm")
    s1 = program.statement("s1")
    s2 = program.statement("s2")
    c1 = block_loop(s1, ["i"], [block])
    c2 = block_loop(s2, ["i2"], [block], space=c1.space)
    return generate_spmd(program, {"s1": c1, "s2": c2})


def test_rsd_blowup_pruning(report):
    with naive_engine():
        t0 = time.perf_counter()
        naive_spmd = sparse_compiled()
        naive_time = time.perf_counter() - t0
        naive = stats.snapshot()
    with shipped_engine():
        t0 = time.perf_counter()
        pruned_spmd = sparse_compiled()
        pruned_time = time.perf_counter() - t0
        pruned = stats.snapshot()

    assert_same_commsets(naive_spmd, pruned_spmd)
    reduction = naive["pairs_materialized"] / pruned["pairs_materialized"]
    speedup = naive_time / pruned_time
    report("C4a: FM constraint flood, RSD workload (Section 2.2.3)")
    report(f"naive engine:   {naive['pairs_materialized']} constraints "
           f"materialized, peak system {naive['peak_system_size']}, "
           f"{naive_time:.2f}s")
    report(f"shipped engine: {pruned['pairs_materialized']} constraints "
           f"materialized, peak system {pruned['peak_system_size']}, "
           f"{pruned_time:.2f}s")
    report(f"reduction: {reduction:.1f}x constraints (required >= 2x), "
           f"{speedup:.1f}x compile speedup")
    _save("rsd_blowup", {
        "naive_materialized": naive["pairs_materialized"],
        "pruned_materialized": pruned["pairs_materialized"],
        "naive_peak_system": naive["peak_system_size"],
        "pruned_peak_system": pruned["peak_system_size"],
        "naive_seconds": round(naive_time, 4),
        "pruned_seconds": round(pruned_time, 4),
        "reduction": round(reduction, 2),
        "speedup": round(speedup, 2),
    })
    assert reduction >= 2.0
    assert pruned["peak_system_size"] <= naive["peak_system_size"]


# ---------------------------------------------------------------------------
# Workload 2: LU compile time (paper Section 7)
# ---------------------------------------------------------------------------

def _time_lu(repeats=3, compile_lu=lambda: lu_compiled()[2]):
    best = float("inf")
    last = None
    for _ in range(repeats):
        start = time.perf_counter()
        last = compile_lu()
        best = min(best, time.perf_counter() - start)
    return best, last


def test_lu_compile_ablation(report):
    with naive_engine():
        naive_time, naive_spmd = _time_lu()
        naive = stats.snapshot()
    with shipped_engine():
        pruned_time, pruned_spmd = _time_lu()
        pruned = stats.snapshot()

    # the shipped engine, every compile cold (``_time_lu`` above lets
    # the memos warm up across its repeats): the figure PR 12's
    # single-pass arithmetic kernel moved, next to its own "before"
    cold_time, _ = _time_lu(7, lu_cold_compile)
    constructions = lu_linexpr_constructions()

    assert_same_commsets(naive_spmd, pruned_spmd)
    reduction = naive["pairs_materialized"] / pruned["pairs_materialized"]
    speedup = naive_time / pruned_time
    report("C4b: LU compile-time ablation (Section 7)")
    report(f"naive engine:   best of 3: {naive_time:.3f}s, "
           f"{naive['pairs_materialized'] // 3} constraints/compile")
    report(f"shipped engine: best of 3: {pruned_time:.3f}s, "
           f"{pruned['pairs_materialized'] // 3} constraints/compile")
    report(f"constraint reduction: {reduction:.2f}x, "
           f"compile speedup: {speedup:.2f}x")
    report(f"cold compile, shipped engine: best of 7: {cold_time:.3f}s "
           f"(before the single-pass kernel: {PARENT_LU_COLD_SECONDS:.3f}s)")
    report(f"LinExpr constructions per cold compile: {constructions} "
           f"(before: {PARENT_LU_LINEXPR_CONSTRUCTIONS})")
    _save("lu_compile", {
        "cold_seconds_before": PARENT_LU_COLD_SECONDS,
        "cold_seconds_after": round(cold_time, 4),
        "linexpr_constructions_before": PARENT_LU_LINEXPR_CONSTRUCTIONS,
        "linexpr_constructions_after": constructions,
        "naive_seconds": round(naive_time, 4),
        "pruned_seconds": round(pruned_time, 4),
        "naive_materialized": naive["pairs_materialized"],
        "pruned_materialized": pruned["pairs_materialized"],
        "constraint_reduction": round(reduction, 3),
        "speedup": round(speedup, 3),
    })
    assert reduction >= 1.5
    # "measurable compile-time improvement": the shipped engine must
    # never lose (it reliably wins several-fold; 1.02 absorbs jitter).
    assert pruned_time < naive_time * 1.02


# ---------------------------------------------------------------------------
# The cache layer: repeated compiles of the same program
# ---------------------------------------------------------------------------

def test_cache_effectiveness(report):
    with shipped_engine():
        lu_compiled()
        cold = stats.snapshot()
        stats.reset()
        lu_compiled()
        warm = stats.snapshot()

    def rate(s, kind):
        hits = s[f"{kind}_cache_hits"]
        total = hits + s[f"{kind}_cache_misses"]
        return 100.0 * hits / total if total else 0.0

    report("C4c: projection / feasibility cache hit rates on LU")
    report(f"cold compile: projection {rate(cold, 'projection'):.1f}%, "
           f"feasibility {rate(cold, 'feasibility'):.1f}%")
    report(f"warm compile: projection {rate(warm, 'projection'):.1f}%, "
           f"feasibility {rate(warm, 'feasibility'):.1f}%")
    _save("lu_caches", {
        "cold_projection_hit_rate": round(rate(cold, "projection"), 1),
        "cold_feasibility_hit_rate": round(rate(cold, "feasibility"), 1),
        "warm_projection_hit_rate": round(rate(warm, "projection"), 1),
        "warm_feasibility_hit_rate": round(rate(warm, "feasibility"), 1),
    })
    # a second compile of the same program must be served by the caches
    assert rate(warm, "projection") > rate(cold, "projection")
    assert rate(warm, "feasibility") > rate(cold, "feasibility")
