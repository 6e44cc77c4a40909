"""Node-program execution ablation: scalar vs vectorized codegen.

Not a paper figure -- the paper measures a real iPSC/860, while our
runtime is a simulator -- but the simulator's wall-clock cost is the
practical ceiling on how large an N the other benchmarks can afford.
This ablation isolates the execution-engine optimization of
**vectorized node programs**: innermost compute/pack/unpack loops
compile to single numpy block operations (``proc.execute_block`` /
slice gather-scatter) with flops and clocks charged in closed form.

It is required to be *exact*: both configurations must produce
bit-identical final arrays, equal makespans, and identical
per-processor ``ProcStats``.  Traced, vectorized LU must emit at most
``LU_EVENT_FRACTION`` of scalar LU's ``compute`` events: block
execution merges a block's operations into one event, so the count
shows block execution happening, whatever the host's speed.

Results land in ``BENCH_runtime.json`` for the CI artifact.
"""

import json
import os
import time

import numpy as np

from repro.codegen import SPMDOptions
from repro.runtime import TraceBuffer, run_spmd
from workloads import IPSC, lu_compiled, stencil_compiled

BENCH_JSON = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_runtime.json"
)

#: (label, vectorize) -- the scalar baseline first
CONFIGS = (("scalar", False), ("vector", True))

#: vector LU's compute events as a fraction of scalar LU's, at most.
#: A count, so neither host noise nor a faster scalar path moves it;
#: LU N=96 P=8 emits 13 978 against 304 192 (1/21.8)
LU_EVENT_FRACTION = 0.1

WORKLOADS = (
    ("lu", lu_compiled, {"N": 96, "P": 8}),
    ("stencil", stencil_compiled, {"N": 8192, "T": 48, "P": 8}),
)


def _assert_identical(label, base, result):
    assert result.makespan == base.makespan, (
        f"{label}: makespan {result.makespan} != {base.makespan}"
    )
    for myp in base.arrays:
        for name in base.arrays[myp]:
            assert np.array_equal(
                result.arrays[myp][name], base.arrays[myp][name],
                equal_nan=True,
            ), f"{label}: array {name} differs on {myp}"
    for myp in base.stats:
        assert result.stats[myp] == base.stats[myp], (
            f"{label}: ProcStats differ on {myp}"
        )


class _ComputeCounter(TraceBuffer):
    """A trace that keeps only the number of ``compute`` events."""

    def __init__(self):
        super().__init__()
        self.compute = 0

    def emit(self, event):
        if event.kind == "compute":
            self.compute += 1


def compute_events(spmd, params):
    """``compute`` events one traced run of ``spmd`` emits."""
    counter = _ComputeCounter()
    run_spmd(spmd, params, cost=IPSC, trace=counter)
    return counter.compute


def sweep():
    rows = []
    for wname, build, params in WORKLOADS:
        compiled = {
            vec: build(options=SPMDOptions(vectorize=vec))[2]
            for vec in (False, True)
        }
        base = None
        for label, vec in CONFIGS:
            spmd = compiled[vec]
            t0 = time.perf_counter()
            result = run_spmd(spmd, params, cost=IPSC)
            seconds = time.perf_counter() - t0
            if base is None:
                base = result
                base_seconds = seconds
            else:
                _assert_identical(f"{wname}/{label}", base, result)
            rows.append(
                {
                    "workload": wname,
                    "params": params,
                    "config": label,
                    "vectorize": vec,
                    "seconds": seconds,
                    "speedup": base_seconds / seconds,
                    "makespan": result.makespan,
                    "messages": result.total_messages,
                    "words": result.total_words,
                }
            )
    return rows


def test_runtime_exec_ablation(benchmark, report):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    report("Execution-engine ablation (bit-identical at every cell)")
    report(
        f"{'workload':>8} {'config':>8} {'seconds':>8} {'speedup':>8} "
        f"{'makespan':>10}"
    )
    for row in rows:
        report(
            f"{row['workload']:>8} {row['config']:>8} "
            f"{row['seconds']:>8.2f} {row['speedup']:>7.2f}x "
            f"{row['makespan']:>10.0f}"
        )

    # read-modify-write: other benches (bench_sim_throughput) merge
    # their own sections into the same artifact
    data = {}
    if os.path.exists(BENCH_JSON):
        with open(BENCH_JSON) as fh:
            try:
                data = json.load(fh)
            except ValueError:
                data = {}
    data["rows"] = rows
    with open(BENCH_JSON, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)

    by = {(r["workload"], r["config"]): r for r in rows}
    # the regression guard: vectorized LU must run as blocks, which
    # merges compute events; counted, not timed
    _wname, build, params = next(w for w in WORKLOADS if w[0] == "lu")
    events = {
        label: compute_events(
            build(options=SPMDOptions(vectorize=vec))[2], params
        )
        for label, vec in CONFIGS
    }
    report("")
    report(
        f"LU compute events: scalar {events['scalar']}, vector "
        f"{events['vector']} (at most {LU_EVENT_FRACTION:g} of scalar)"
    )
    assert events["vector"] <= LU_EVENT_FRACTION * events["scalar"], (
        f"vectorized LU emitted {events['vector']} compute events "
        f"against scalar's {events['scalar']}"
    )
    # vectorization must help on both workloads
    for wname, _build, _params in WORKLOADS:
        assert by[(wname, "vector")]["speedup"] > 1.0
