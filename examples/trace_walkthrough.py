"""Tracing a run and reading its analyses (DESIGN.md Section 11).

The paper reasons about its optimizations through three questions the
aggregate statistics cannot answer: *who sent how much to whom*, *where
did each processor's time go*, and *which chain of events actually
bounded the makespan*?  This example traces the LU case study
(Section 7) and walks all three:

1. **communication matrix** -- per-(sender, receiver) message and word
   counts, folded from send events; totals reconcile exactly with the
   per-processor `ProcStats`;
2. **makespan decomposition** -- compute / send overhead / receive
   overhead / blocked-on-receive buckets that sum *exactly* to each
   processor's finish clock (no unaccounted residue);
3. **critical path** -- the backward walk from the last event, hopping
   processors through arrival-limited receives; its length equals the
   reported makespan exactly on fault-free runs.

It then re-runs the same program over a lossy network to show the ARQ
machinery (retransmissions, timeouts, dedup drops) appearing in the
trace, and writes a Chrome trace_event JSON you can open in
https://ui.perfetto.dev (one flow arrow per delivered message).

Run:  python examples/trace_walkthrough.py [OUT.json]
(the trace goes to OUT.json, or to lu_trace.json in the system temp
directory when no path is given)
"""

import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import FaultPlan, generate_spmd, onto, parse
from repro.polyhedra import var
from repro.runtime import (
    comm_matrix,
    critical_path,
    decompose,
    match_messages,
    run_spmd,
)

LU = """
array X[N + 1][N + 1]
assume N >= 1
for i1 = 0 to N do
  for i2 = i1 + 1 to N do
    s1: X[i2][i1] = X[i2][i1] / X[i1][i1]
    for i3 = i1 + 1 to N do
      s2: X[i2][i3] = X[i2][i3] - X[i2][i1] * X[i1][i3]
"""


def build():
    program = parse(LU, name="lu")
    comps = {"s1": onto(program.statement("s1"), [var("i2")])}
    comps["s2"] = onto(
        program.statement("s2"), [var("i2")], space=comps["s1"].space
    )
    return generate_spmd(program, comps)


def main(out=None):
    spmd = build()
    params = {"N": 24, "P": 3}

    print("=== 1. traced fault-free run " + "=" * 40)
    result = run_spmd(spmd, params, trace=True)
    trace = result.trace
    print(f"makespan {result.makespan:g}, {len(trace)} events recorded")
    counts = trace.counts()
    print("event kinds: " + ", ".join(
        f"{k} {v}" for k, v in sorted(counts.items())
    ))

    print("\n=== 2. communication matrix " + "=" * 41)
    matrix = comm_matrix(trace)
    print(matrix.format())
    assert matrix.total_messages == result.total_messages
    assert matrix.total_words == result.total_words
    print("(totals reconcile exactly with ProcStats)")

    print("\n=== 3. makespan decomposition " + "=" * 39)
    for myp, deco in sorted(decompose(result).items()):
        print(f"  proc {myp}: {deco.format()}")
        assert deco.total() == result.clocks[myp]
    print("(each processor's buckets sum exactly to its finish clock)")

    print("\n=== 4. critical path " + "=" * 48)
    path = critical_path(trace)
    print(path.format())
    assert path.length == result.makespan
    print(f"(path length == makespan {result.makespan:g}, exactly)")

    print("\n=== 5. the same program over a lossy network " + "=" * 24)
    plan = FaultPlan(seed=3, drop_rate=0.15, dup_rate=0.05)
    faulty = run_spmd(spmd, params, fault_plan=plan, trace=True)
    fcounts = faulty.trace.counts()
    print(f"makespan {faulty.makespan:g} "
          f"(+{faulty.makespan - result.makespan:g} paid to the network)")
    for kind in ("retransmit", "timeout", "ack-lost", "dup-drop"):
        print(f"  {kind}: {fcounts.get(kind, 0)}")
    delivered = len(match_messages(faulty.trace))
    print(f"  delivered payloads matched to sends: {delivered}")

    if out is None:
        out = os.path.join(tempfile.gettempdir(), "lu_trace.json")
    faulty.trace.write_chrome(out)
    print(f"\nwrote {out} -- open in https://ui.perfetto.dev")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
