"""Inputs and output checks shared by the five workloads.

The programs are the five conformance programs (figure 2, figure 8, LU,
the two-nest pipeline and the 3-point stencil).  Their text lives here,
not in ``tests/`` or ``benchmarks/``, because the benchmark must build
every input itself from ``--seed`` and may import nothing outside
``src/`` and its own directory.
"""

import random
from typing import Callable, NamedTuple

import numpy as np

from repro.decomp import block_loop, onto
from repro.ir import live_out_writes
from repro.ir import run as ir_run
from repro.polyhedra import (
    feasibility_cache_clear,
    projection_cache_clear,
    var,
)
from repro.runtime import CostModel, Decomposition, run_spmd

from rows import geomean

SOURCES = {
    "fig2": """
array X[N + 1]
assume N >= 3
assume T >= 0
for t = 0 to T do
  for i = 3 to N do
    X[i] = X[i - 3]
""",
    "fig8": """
array X[N + 1]
assume N >= 3
assume T >= 0
for t = 0 to T do
  for i = 3 to N do
    X[i] = f(X[i], X[i - 1], X[i - 2], X[i - 3])
""",
    "lu": """
array X[N + 1][N + 1]
assume N >= 1
for i1 = 0 to N do
  for i2 = i1 + 1 to N do
    s1: X[i2][i1] = X[i2][i1] / X[i1][i1]
    for i3 = i1 + 1 to N do
      s2: X[i2][i3] = X[i2][i3] - X[i2][i1] * X[i1][i3]
""",
    "pipe": """
array X[N + 1]
array Y[N + 1]
assume N >= 2
for i = 0 to N do
  s1: X[i] = i + 1
for j = 1 to N do
  s2: Y[j] = Y[j] + X[j - 1]
""",
    "stencil": """
array A[N + 2]
array B[N + 2]
assume N >= 1
for t = 1 to T do
  for i = 1 to N do
    B[i] = (A[i - 1] + A[i] + A[i + 1]) / 3
""",
}

#: the loop each program is block-distributed on
BLOCK_VAR = {
    "fig2": "i", "fig8": "i", "lu": "i2", "pipe": "i", "stencil": "i",
}

#: abstract cost model with iPSC/860-like ratios (the one every
#: ``benchmarks/bench_*.py`` uses); unvalidated against real hardware
IPSC = CostModel(
    flop_time=1.0, alpha=400.0, beta=4.0, latency=100.0, recv_overhead=100.0
)

#: every simulation in the benchmark runs on the discrete-event backend
BACKEND = "event"

#: the conformance suites' block size; artifacts compiled with it carry
#: the exact (seed-independent) metrics
PINNED_BLOCK = 16

#: block sizes a seed may draw for the extra compile jobs
BLOCK_POOL = (8, 12, 20, 24, 32, 48)

#: small machine configurations for the untimed verification run of a
#: compiled artifact (compile_cold, serve_warm)
VERIFY_PARAMS = {
    "fig2": {"N": 255, "T": 2, "P": 4},
    "fig8": {"N": 255, "T": 2, "P": 4},
    "lu": {"N": 24, "P": 3},
    "pipe": {"N": 255, "P": 4},
    "stencil": {"N": 256, "T": 3, "P": 4},
}


class Op(NamedTuple):
    """One timed operation of a round."""

    #: unique within the round
    key: str
    #: the group whose per-op times are pooled before the geometric mean
    program: str
    #: ``run(tracer) -> result``; the tracer spans the layer calls it makes
    run: Callable


def clear_compiler_caches():
    """Make the next compile cold: empty both in-memory polyhedral memos."""
    projection_cache_clear()
    feasibility_cache_clear()


def pinned_block(name):
    """The conformance decomposition: block 16, LU rows ``onto``."""
    return None if name == "lu" else PINNED_BLOCK


def build_comps(name, program, block):
    """Computation decompositions for one of the five programs.

    ``block=None`` maps LU rows ``onto`` virtual processors (the paper's
    own LU decomposition); any other value block-distributes
    ``BLOCK_VAR[name]`` (``j`` for the pipeline's second nest).
    """
    if name == "lu":
        s1, s2 = program.statement("s1"), program.statement("s2")
        if block is None:
            comps = {"s1": onto(s1, [var("i2")])}
            comps["s2"] = onto(s2, [var("i2")], space=comps["s1"].space)
        else:
            comps = {"s1": block_loop(s1, ["i2"], [block])}
            comps["s2"] = block_loop(
                s2, ["i2"], [block], space=comps["s1"].space
            )
        return comps
    if name == "pipe":
        s1, s2 = program.statement("s1"), program.statement("s2")
        comps = {"s1": block_loop(s1, ["i"], [block])}
        comps["s2"] = block_loop(s2, ["j"], [block], space=comps["s1"].space)
        return comps
    stmt = program.statements()[0]
    return {stmt.name: block_loop(stmt, ["i"], [block])}


def block_for(lo, hi, p):
    """Smallest block size tiling iterations ``lo..hi`` over ``p`` ranks."""
    return max(1, -(-(hi - lo + 1) // p))


def rng_for(seed, workload):
    """One generator per (seed, workload): workloads draw independently."""
    return random.Random(f"{workload}:{seed}")


def same_arrays(a, b):
    """Bit-exact final-array comparison between two RunResults."""
    return set(a.arrays) == set(b.arrays) and all(
        np.array_equal(a.arrays[myp][name], arr, equal_nan=True)
        for myp, arrays in b.arrays.items()
        for name, arr in arrays.items()
    )


def owned_values_match(spmd, comps, params, result, seed, rtol=1e-9):
    """The benchmark's own oracle: every location written by the program
    holds, on the processor that executed its last write, the value the
    sequential interpreter computes.  Independent of
    ``repro.runtime.validate`` (which ``e2e_validate`` times)."""
    program = spmd.program
    expected = ir_run(program, params, seed=seed)
    for (array, loc), write in live_out_writes(program, params).items():
        stmt = program.statement(write.stmt)
        env = dict(params)
        env.update(zip(stmt.iter_vars, write.iteration))
        owner = spmd.space.to_physical(comps[write.stmt].owner(env), params)
        got = result.arrays[tuple(owner)][array][loc]
        if not np.isclose(got, expected[array][loc], rtol=rtol):
            return False
    return True


def verification_run(name, spmd, comps, seed):
    """Run one compiled artifact at its small pinned configuration and
    check it against the interpreter; returns (ok, RunResult)."""
    params = VERIFY_PARAMS[name]
    result = run_spmd(spmd, params, cost=IPSC, backend=BACKEND, seed=seed)
    return owned_values_match(spmd, comps, params, result, seed), result


def model_metrics(results, sources):
    """The exact end-to-end metrics from simulated runs and node programs."""
    return {
        "makespan_model": geomean(r.makespan for r in results),
        "comm_messages": sum(r.total_messages for r in results),
        "comm_words": sum(r.total_words for r in results),
        "node_source_bytes": sum(len(s.encode("utf-8")) for s in sources),
    }


def model_fractions(results):
    """Share of processor-time per model-clock bucket (PR 5's exact
    decomposition), summed over every rank of every run."""
    buckets = {"compute": 0.0, "comm": 0.0, "blocked": 0.0, "recovery": 0.0}
    total = 0.0
    for result in results:
        for stats in result.stats.values():
            deco = Decomposition.from_stats(stats)
            buckets["compute"] += deco.compute
            buckets["comm"] += (
                deco.send_overhead + deco.recv_overhead + deco.timeout
            )
            buckets["blocked"] += deco.blocked_on_recv
            buckets["recovery"] += deco.recovery + deco.checkpoint
            total += deco.total()
    return {
        f"runtime.model.{name}_frac": (value / total if total else 0.0)
        for name, value in buckets.items()
    }


def compile_counters(compile_results):
    """Per-layer counts the compiler itself keeps (``poly_stats``),
    summed over the compiles of one round."""
    def total(key):
        return sum(r.poly_stats.get(key, 0) for r in compile_results)

    return {
        "core.commsets_built": total("commsets_built"),
        "codegen.loops_emitted": total("codegen_loops_emitted"),
        "codegen.guards_emitted": total("codegen_guards_emitted"),
        "polyhedra.eliminations": total("eliminations"),
        "polyhedra.pairs_considered": total("pairs_considered"),
        "polyhedra.pairs_materialized": total("pairs_materialized"),
        "polyhedra.subsumed_dropped": total("subsumed_dropped"),
        "polyhedra.projection_hits": total("projection_cache_hits"),
        "polyhedra.projection_misses": total("projection_cache_misses"),
        "polyhedra.feasibility_hits": total("feasibility_cache_hits"),
        "polyhedra.feasibility_misses": total("feasibility_cache_misses"),
        "polyhedra.peak_system_size": max(
            (r.poly_stats.get("peak_system_size", 0) for r in compile_results),
            default=0,
        ),
    }
