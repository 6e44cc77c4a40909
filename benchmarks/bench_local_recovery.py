"""Localized crash recovery: what one crash costs as the machine grows.

Localized recovery (sender-based message logging) restarts only the
crashed rank while live ranks keep executing, so the discarded work is
~O(1 rank) regardless of machine size.  The coordinated global
rollback it replaced discarded 82-98 % of processor-time on these same
cases.  This bench injects one mid-run crash into fig2 (P up to 256)
and LU (P up to 64) and measures:

* ``work_wasted`` -- recomputed processor-time discarded by recovery;
* ``wasted_fraction`` -- that work over the clean run's total
  processor-time (the figure of merit: it shrinks as P grows);
* ``recovery_time`` -- restart latency charged to the clock;
* ``log_bytes_peak`` -- the sender-log memory recovery pays for
  (after checkpoint-commit truncation).

Every cell must stay **bit-identical** to the fault-free oracle.
Results merge into the ``local_recovery`` section of
``BENCH_resilience.json`` (read-modify-write; other benches own the
other sections).  The CI guard is an absolute bound: on P=64 LU, one
crash wastes at most one rank's share (1/P) of the clean run's
processor-time.
"""

import json
import os

import numpy as np

from repro.runtime import CheckpointPolicy, FaultPlan, run_spmd
from workloads import IPSC, fig2_compiled, lu_compiled

BENCH_JSON = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_resilience.json"
)

#: (workload, P, params) per machine size.  fig2 scales its block size
#: with P; LU distributes rows i2 onto P ranks (N >= P, so P=256 would
#: need N>=256 -- O(N^3) sequential oracle work -- and is measured on
#: fig2 only).
CASES = [
    ("fig2", 16, {"N": 256, "T": 2, "P": 16}),
    ("fig2", 64, {"N": 1024, "T": 2, "P": 64}),
    ("fig2", 256, {"N": 4096, "T": 2, "P": 256}),
    ("lu", 16, {"N": 32, "P": 16}),
    ("lu", 64, {"N": 64, "P": 64}),
]

#: rank killed halfway through its clean finish clock, in every case
CRASH_RANK = 1
CRASH_FRACTION = 0.5
POLICY = CheckpointPolicy(every_ops=50)
#: CI guard: on P=64 LU, one crash may waste at most one rank's share
#: of the clean run's processor-time
GUARD_CASE = ("lu", 64)
GUARD_CEILING = 1.0 / GUARD_CASE[1]


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
        result = run_spmd(
            spmd, params, cost=IPSC,
            fault_plan=plan, checkpoint=POLICY, max_restarts=8,
        )
        assert _identical(clean, result), (
            f"{workload} P={p}: wrong values after recovery"
        )
        assert result.restarts == 1
        rows.append(
            {
                "workload": workload,
                "P": p,
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

    report("Localized crash recovery "
           "(one rank dies at 50% of its clean finish clock; "
           "bit-identical at every cell)")
    report(
        f"{'workload':>8} {'P':>5} {'slowdown':>9} "
        f"{'recovery-t':>10} {'wasted':>10} {'wasted%':>8} "
        f"{'log-peak':>9}"
    )
    for row in rows:
        report(
            f"{row['workload']:>8} {row['P']:>5} "
            f"{row['slowdown']:>8.2f}x {row['recovery_time']:>10.0f} "
            f"{row['work_wasted']:>10.0f} "
            f"{row['wasted_fraction']:>7.2%} "
            f"{row['log_bytes_peak']:>9}"
        )

    by = {(r["workload"], r["P"]): r for r in rows}
    guard = by[GUARD_CASE]["wasted_fraction"]
    report("")
    report(
        f"wasted-work guard (LU, P={GUARD_CASE[1]}): wasted fraction = "
        f"{guard:.2%} (ceiling: one rank's share, {GUARD_CEILING:.2%})"
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
                "wasted_fraction": guard,
                "ceiling": GUARD_CEILING,
            },
        }
    )

    for row in rows:
        # the headline: one crash rewinds one rank, never the machine
        assert row["wasted_fraction"] <= 1.0 / row["P"]
        assert row["recovery_time"] > 0
        # the price: recovery holds sender logs in memory
        assert row["log_bytes_peak"] > 0
    # one rank's loss is a shrinking share of a growing machine
    fig2 = [by[("fig2", p)]["wasted_fraction"] for p in (16, 64, 256)]
    assert fig2 == sorted(fig2, reverse=True)
    # CI regression guard on the P=64 LU case
    assert guard <= GUARD_CEILING, (
        f"one crash wasted {guard:.2%} of P={GUARD_CASE[1]} LU "
        f"processor-time (ceiling {GUARD_CEILING:.2%})"
    )
