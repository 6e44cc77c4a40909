"""Surviving fail-stop processor crashes with checkpoint/restart.

The paper's node programs assume processors never die.  This example
kills one mid-factorization.  The LU case study (Section 7) runs four
ways:

1. **crash-free**: the reference run -- its final arrays are the
   ground truth the recovered runs must reproduce bit-for-bit;
2. **crash, no restart budget**: rank 0 dies halfway through and
   `max_restarts=0` makes the machine fail fast with a structured
   `CrashReport` naming the dead processor, the op it died at, and
   every processor's last usable checkpoint;
3. **crash + checkpoint/restart**: the same death, but the machine
   restarts only rank 0 from its last snapshot while every live rank
   keeps running.  The restarted rank fast-forwards deterministically
   (receives fed from its receive log), the messages it is still owed
   are re-served from the sender log, and the duplicates of its own
   re-executed sends are dropped by the receivers' dedup.  The run
   completes with bit-identical arrays -- at a makespan that prices
   the lost work, the restart penalty, and the snapshot reload;
4. **crash + recovery through a faulty network**: crashes, drops and
   duplicates at once; the reliable ARQ and the checkpoint subsystem
   compose.

Run:  python examples/crash_recovery.py
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import (
    CheckpointPolicy,
    CostModel,
    CrashError,
    FaultPlan,
    generate_spmd,
    onto,
    parse,
    run_spmd,
)
from repro.polyhedra import var

LU = """
array X[N + 1][N + 1]
assume N >= 1
for i1 = 0 to N do
  for i2 = i1 + 1 to N do
    s1: X[i2][i1] = X[i2][i1] / X[i1][i1]
    for i3 = i1 + 1 to N do
      s2: X[i2][i3] = X[i2][i3] - X[i2][i1] * X[i1][i3]
"""

IPSC = CostModel(flop_time=1.0, alpha=400.0, beta=4.0, latency=100.0,
                 recv_overhead=100.0)

PARAMS = {"N": 12, "P": 4}


def bit_identical(a, b) -> bool:
    return all(
        np.array_equal(a.arrays[myp][name], b.arrays[myp][name],
                       equal_nan=True)
        for myp in a.arrays
        for name in a.arrays[myp]
    )


def main() -> None:
    program = parse(LU, name="lu")
    s1 = program.statement("s1")
    s2 = program.statement("s2")
    comps = {"s1": onto(s1, [var("i2")])}
    comps["s2"] = onto(s2, [var("i2")], space=comps["s1"].space)
    spmd = generate_spmd(program, comps)

    # 1. the reference: nobody dies
    clean = run_spmd(spmd, PARAMS, cost=IPSC)
    print("== crash-free reference ==")
    print(f"makespan: {clean.makespan:.0f} time units, "
          f"{clean.total_messages} messages\n")

    # kill rank 0 (it owns the early pivot rows) halfway through
    plan = FaultPlan(seed=7, crashes={0: clean.makespan / 2})
    print(f"fault model: {plan.describe()}\n")

    # 2. no restart budget: fail fast, with a post-mortem
    print("== crash with max_restarts=0 (fail fast) ==")
    try:
        run_spmd(spmd, PARAMS, cost=IPSC, fault_plan=plan, max_restarts=0)
        print("survived (crash never fired -- try another schedule)")
    except CrashError as exc:
        print("the machine gives up immediately and reports:")
        print(exc)
    print()

    # 3. the same death, recovered
    print("== crash + checkpoint/restart ==")
    recovered = run_spmd(
        spmd, PARAMS, cost=IPSC, fault_plan=plan,
        checkpoint=CheckpointPolicy(every_ops=25),
    )
    for event in recovered.crash_events:
        print(f"  {event.describe()}")
    print(f"restarts:        {recovered.restarts}")
    print(f"checkpoints:     {recovered.checkpoints} "
          f"(cost charged to each processor's clock)")
    print(f"recovery time:   {recovered.recovery_time:.0f} units "
          f"(detection + restart penalty + snapshot reload)")
    slowdown = (recovered.makespan - clean.makespan) / clean.makespan
    print(f"makespan:        {recovered.makespan:.0f} vs "
          f"{clean.makespan:.0f} clean ({slowdown:+.0%})")
    print(f"bit-identical:   {bit_identical(clean, recovered)}\n")

    # 4. crashes AND a hostile network at once
    print("== crash + drops + duplicates, reliable transport ==")
    hostile = FaultPlan(seed=7, drop_rate=0.15, dup_rate=0.1,
                        crashes={0: clean.makespan / 2})
    both = run_spmd(
        spmd, PARAMS, cost=IPSC, fault_plan=hostile,
        reliability="reliable", checkpoint=CheckpointPolicy(every_ops=25),
    )
    print(f"restarts:          {both.restarts}")
    print(f"retransmissions:   {both.stat_sum('retransmissions'):.0f}")
    print(f"dups deduplicated: {both.stat_sum('duplicates_dropped'):.0f}")
    print(f"makespan:          {both.makespan:.0f}")
    print(f"bit-identical:     {bit_identical(clean, both)}")


if __name__ == "__main__":
    main()
