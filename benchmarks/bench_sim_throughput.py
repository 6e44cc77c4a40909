"""Simulator throughput at scale: P=256 and P=1024.

Two measurements, recorded in the ``events_per_sec`` section of
``BENCH_runtime.json``:

* **Compiled sweeps** -- fig2 and the stencil at P=256 (vectorized
  codegen asserted bit-identical to scalar) and at P=1024.  These are
  compute-pipelined workloads whose dependences flow *with* the
  scheduler's rank order, so every rank runs start-to-finish in one
  wake.  A P=1024 stencil completing here is an acceptance criterion
  for the discrete-event scheduler.
* **Scheduler stress** -- a reverse token ring: a single token
  circulates from high ranks to low ranks, so at any moment one rank is
  runnable and P-1 are parked.  The delivery watcher wakes exactly the
  flagged rank, so idle ranks cost zero cycles; the row records what
  that costs per wakeup.
"""

import json
import os

import numpy as np

from repro import block_loop, parse
from repro.codegen import SPMDOptions
from repro.runtime import run_spmd
from repro.runtime.machine import Machine
from workloads import IPSC, fig2_compiled, stencil_compiled

BENCH_JSON = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_runtime.json"
)

#: compiled sweeps: (workload, builder, N, T, P, also run scalar codegen)
SWEEPS = (
    ("fig2", fig2_compiled, 2048, 3, 256, True),
    ("stencil", stencil_compiled, 2048, 6, 256, True),
    ("fig2", fig2_compiled, 4096, 2, 1024, False),
    ("stencil", stencil_compiled, 4096, 4, 1024, False),
)

RING_LAPS = 20
RING_P = 256

RING_SRC = """
array X[N + 1]
assume N >= 3
assume T >= 0
for t = 0 to T do
  for i = 3 to N do
    X[i] = X[i - 3]
"""


def _assert_identical(label, base, result):
    assert result.makespan == base.makespan, label
    assert result.stats == base.stats, label
    for myp in base.arrays:
        for name in base.arrays[myp]:
            assert np.array_equal(
                result.arrays[myp][name], base.arrays[myp][name],
                equal_nan=True,
            ), f"{label}: array {name} differs on {myp}"


def _row(workload, p, result):
    return {
        "workload": workload,
        "P": p,
        "wall_seconds": result.wall_seconds,
        "sim_events": result.sim_events,
        "events_per_sec": result.events_per_sec,
        "sched_wakeups": result.sched_wakeups,
    }


def compiled_sweep():
    rows = []
    for wname, build, n, t, p, check_scalar in SWEEPS:
        params = {"N": n, "T": t, "P": p}
        runs = {}
        for vec in (True, False) if check_scalar else (True,):
            _prog, _comps, spmd = build(
                n=n, p=p, options=SPMDOptions(vectorize=vec)
            )
            runs[vec] = run_spmd(spmd, params, cost=IPSC, timeout=600.0)
        if check_scalar:
            _assert_identical(f"{wname} P={p} scalar", runs[True], runs[False])
        rows.append(_row(wname, p, runs[True]))
    return rows


def _ring_machine(p):
    prog = parse(RING_SRC)
    stmt = prog.statements()[0]
    comp = block_loop(stmt, ["i"], [32])
    return Machine(
        prog, comp.space, {"N": 32 * p - 1, "T": 0, "P": p},
        timeout=120.0,
    )


def ring_node(proc):
    """A token circulates high rank -> low rank, RING_LAPS times.

    Exactly one rank is runnable at any moment; all others are parked
    in recv.  Pure scheduler stress: the node programs do no compute.
    """
    nprocs = len(proc.machine.procs)
    p = proc.myp[0]
    nxt = ((p - 1) % nprocs,)
    prev = (p + 1) % nprocs
    for lap in range(RING_LAPS):
        if p == nprocs - 1:
            if lap:
                yield ("recv", (0,), ("tok", lap - 1, 0))
            proc.send(nxt, ("tok", lap, p), [float(lap)])
        else:
            yield ("recv", (prev,), ("tok", lap, prev))
            if p > 0 or lap < RING_LAPS - 1:
                proc.send(nxt, ("tok", lap, p), [float(lap)])


def ring_sweep():
    result = _ring_machine(RING_P).run(ring_node)
    return [_row("ring", RING_P, result)]


def _merge_into_bench_json(section):
    """Read-modify-write: preserve sections other benches own."""
    data = {}
    if os.path.exists(BENCH_JSON):
        with open(BENCH_JSON) as fh:
            data = json.load(fh)
    data["events_per_sec"] = section
    with open(BENCH_JSON, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)


def test_sim_throughput(benchmark, report):
    rows = benchmark.pedantic(
        lambda: compiled_sweep() + ring_sweep(), rounds=1, iterations=1
    )

    report("Simulator throughput at scale")
    report(
        f"{'workload':>8} {'P':>5} {'wall':>8} "
        f"{'events':>9} {'events/s':>12} {'wakeups':>8}"
    )
    for row in rows:
        report(
            f"{row['workload']:>8} {row['P']:>5} "
            f"{row['wall_seconds']:>7.3f}s {row['sim_events']:>9} "
            f"{row['events_per_sec']:>12,.0f} {row['sched_wakeups']:>8}"
        )

    _merge_into_bench_json({"rows": rows})

    # acceptance: P=1024 runs completed (we got rows for them at all)
    by = {(r["workload"], r["P"]) for r in rows}
    assert ("stencil", 1024) in by
    assert ("fig2", 1024) in by
