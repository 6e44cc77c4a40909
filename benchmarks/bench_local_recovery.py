"""Localized vs. global crash recovery: wasted work and recovery time.

The economics ISSUE 8 claims: global rollback rewinds every rank to
the last coordinated cut, so one crash discards O(P) partial work;
localized recovery (sender-based message logging) restarts only the
crashed rank while live ranks keep executing, so the discarded work is
~O(1 rank) regardless of machine size.  This bench injects one mid-run
crash into fig2 (P up to 256) and LU (P up to 64), runs both recovery
disciplines, and measures:

* ``work_wasted`` -- recomputed processor-time discarded by recovery;
* ``wasted_fraction`` -- that work over the clean run's total
  processor-time (the figure of merit: global's grows with P, local's
  shrinks);
* ``recovery_time`` -- rollback/restart latency charged to the clock;
* ``log_bytes_peak`` -- the sender-log memory the local discipline
  pays for the privilege (after checkpoint-commit truncation).

Every cell must stay **bit-identical** to the fault-free oracle.
Results merge into the ``local_recovery`` section of
``BENCH_resilience.json`` (read-modify-write; other benches own the
other sections).  The CI guard: on P=64 LU, local recovery wastes at
most half the work global recovery does.
"""

import json
import os

import numpy as np

from repro.runtime import CheckpointPolicy, FaultPlan, run_spmd
from workloads import IPSC, block_for, fig2_compiled, lu_compiled

BENCH_JSON = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_resilience.json"
)

#: (workload, builder kwargs, params) per machine size.  fig2 scales
#: its block size with P; LU distributes rows i2 onto P ranks (N >= P,
#: so P=256 would need N>=256 -- O(N^3) sequential oracle work -- and
#: is measured on fig2 only).
CASES = [
    ("fig2", 16, {"N": 256, "T": 2, "P": 16}),
    ("fig2", 64, {"N": 1024, "T": 2, "P": 64}),
    ("fig2", 256, {"N": 4096, "T": 2, "P": 256}),
    ("lu", 16, {"N": 32, "P": 16}),
    ("lu", 64, {"N": 64, "P": 64}),
]

#: rank killed halfway through the clean makespan, in every case
CRASH_RANK = 1
CRASH_FRACTION = 0.5
POLICY = CheckpointPolicy(every_ops=50)
#: CI guard: on P=64 LU, local recovery must waste at most this
#: fraction of the work global recovery recomputes
GUARD_CASE = ("lu", 64)
GUARD_RATIO = 0.5


def _build(workload, params):
    if workload == "fig2":
        _p, _c, spmd = fig2_compiled(n=params["N"], p=params["P"])
        return spmd
    _p, _c, spmd = lu_compiled()
    return spmd


def _identical(a, b) -> bool:
    return all(
        np.array_equal(a.arrays[myp][n], b.arrays[myp][n], equal_nan=True)
        for myp in a.arrays
        for n in a.arrays[myp]
    )


def sweep():
    rows = []
    for workload, p, params in CASES:
        spmd = _build(workload, params)
        clean = run_spmd(spmd, params, cost=IPSC)
        total_work = sum(clean.clocks.values())
        # halfway through the *victim's* execution (pipelined ranks can
        # finish well before the machine-wide makespan)
        plan = FaultPlan(
            crashes={
                CRASH_RANK: clean.clocks[(CRASH_RANK,)] * CRASH_FRACTION
            }
        )
        for mode in ("global", "local"):
            result = run_spmd(
                spmd, params, cost=IPSC,
                fault_plan=plan, checkpoint=POLICY, max_restarts=8,
                recovery=mode,
            )
            assert _identical(clean, result), (
                f"{workload} P={p} {mode}: wrong values after recovery"
            )
            assert result.restarts == 1
            rows.append(
                {
                    "workload": workload,
                    "P": p,
                    "recovery": mode,
                    "clean_makespan": clean.makespan,
                    "makespan": result.makespan,
                    "slowdown": result.makespan / clean.makespan,
                    "restarts": result.restarts,
                    "recovery_time": result.recovery_time,
                    "work_wasted": result.work_wasted,
                    "wasted_fraction": result.work_wasted / total_work,
                    "log_bytes_peak": result.log_bytes_peak,
                    "log_bytes_per_rank": result.log_bytes_peak / p,
                }
            )
    return rows


def _merge_into_bench_json(section):
    """Read-modify-write: preserve sections other benches own."""
    data = {}
    if os.path.exists(BENCH_JSON):
        with open(BENCH_JSON) as fh:
            data = json.load(fh)
    data["local_recovery"] = section
    with open(BENCH_JSON, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)


def test_local_recovery(benchmark, report):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    report("Localized vs global crash recovery "
           "(one rank dies at 50% of the clean makespan; "
           "bit-identical at every cell)")
    report(
        f"{'workload':>8} {'P':>5} {'mode':>7} {'slowdown':>9} "
        f"{'recovery-t':>10} {'wasted':>10} {'wasted%':>8} "
        f"{'log-peak':>9}"
    )
    for row in rows:
        report(
            f"{row['workload']:>8} {row['P']:>5} {row['recovery']:>7} "
            f"{row['slowdown']:>8.2f}x {row['recovery_time']:>10.0f} "
            f"{row['work_wasted']:>10.0f} "
            f"{row['wasted_fraction']:>7.2%} "
            f"{row['log_bytes_peak']:>9}"
        )

    by = {(r["workload"], r["P"], r["recovery"]): r for r in rows}
    guard_local = by[GUARD_CASE + ("local",)]
    guard_global = by[GUARD_CASE + ("global",)]
    guard_ratio = (
        guard_local["work_wasted"] / guard_global["work_wasted"]
    )
    report("")
    report(
        f"wasted-work guard (LU, P={GUARD_CASE[1]}): local/global = "
        f"{guard_ratio:.2f} (ceiling: {GUARD_RATIO:.2f})"
    )

    _merge_into_bench_json(
        {
            "crash_rank": CRASH_RANK,
            "crash_fraction": CRASH_FRACTION,
            "every_ops": POLICY.every_ops,
            "rows": rows,
            "guard": {
                "workload": GUARD_CASE[0],
                "P": GUARD_CASE[1],
                "local_over_global_wasted": guard_ratio,
                "ceiling": GUARD_RATIO,
            },
        }
    )

    for workload, p, _params in CASES:
        loc = by[(workload, p, "local")]
        glob = by[(workload, p, "global")]
        # the headline: one crash rolls back one rank, not the machine
        assert loc["work_wasted"] < glob["work_wasted"]
        assert loc["recovery_time"] <= glob["recovery_time"]
        # the price: local recovery holds sender logs in memory
        assert loc["log_bytes_peak"] > 0
    # global's wasted fraction grows with the machine; local's shrinks
    fig2_local = [
        by[("fig2", p, "local")]["wasted_fraction"] for p in (16, 64, 256)
    ]
    assert fig2_local == sorted(fig2_local, reverse=True)
    # CI regression guard on the P=64 LU case
    assert guard_ratio <= GUARD_RATIO, (
        f"local recovery wasted {guard_ratio:.2f}x of global's "
        f"recomputed work on P={GUARD_CASE[1]} LU "
        f"(ceiling {GUARD_RATIO})"
    )
