"""Two program regions with a collective reorganization between them.

Section 1 of the paper: the decomposition phase inserts major data
reorganizations (matrix transposes) at region boundaries, implemented
with collective routines; the compiler generates code *between*
reorganizations.  This example shows the whole pattern:

* phase 1 -- a row sweep compiled with row-blocked layout: zero
  point-to-point communication;
* an all-to-all relayout from row blocks to column blocks;
* phase 2 -- a column sweep compiled with column-blocked layout: again
  zero point-to-point communication.

All data motion concentrates in the single collective exchange, which
is exactly why the decomposition phase chooses to insert it.

Run:  python examples/two_phase_reorg.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro import block, block_loop, generate_spmd, parse
from repro.ir import allocate_arrays, run
from repro.runtime import Machine, reorganize

ROWS = """
array A[16][16]
for i = 0 to 15 do
  for j = 1 to 15 do
    A[i][j] = A[i][j] + A[i][j - 1]
"""

COLS = """
array A[16][16]
for j2 = 0 to 15 do
  for i2 = 1 to 15 do
    A[i2][j2] = A[i2][j2] + A[i2 - 1][j2]
"""


def main() -> None:
    params = {"P": 2}
    rows_prog = parse(ROWS, name="row-sweep")
    cols_prog = parse(COLS, name="column-sweep")
    arr = rows_prog.arrays["A"]
    d_rows = block(arr, [8], dims=[0], pdims=[2])
    d_cols = block(cols_prog.arrays["A"], [8], dims=[1], pdims=[2])

    # phase 1: row sweep on row blocks
    s_row = rows_prog.statements()[0]
    comp_row = block_loop(s_row, ["i"], [8], pdims=[2])
    spmd_row = generate_spmd(rows_prog, {s_row.name: comp_row})
    machine = Machine(rows_prog, comp_row.space, params)
    phase1 = machine.run(spmd_row.node, initial_data={"A": d_rows}, seed=0)
    print(f"phase 1 (row sweep, row blocks):   "
          f"{phase1.total_messages} point-to-point messages")

    # reorganization: rows -> columns (the collective transpose)
    stats = reorganize(phase1.arrays, "A", d_rows, d_cols, params)
    print(f"reorganization (all-to-all):       "
          f"{stats.messages} messages, {stats.words} words, "
          f"elapsed ~{stats.elapsed:.0f} units")

    # phase 2: column sweep on column blocks, seeded by phase 1 output
    s_col = cols_prog.statements()[0]
    comp_col = block_loop(s_col, ["j2"], [8], pdims=[2])
    spmd_col = generate_spmd(cols_prog, {s_col.name: comp_col})
    machine2 = Machine(cols_prog, comp_col.space, params)

    def seeded_from_phase1(proc):
        # each processor starts from the arrays it holds after the
        # reorganization, then runs the compiled column sweep
        for name, values in phase1.arrays[proc.myp].items():
            proc.arrays[name][...] = values
        yield from spmd_col.node(proc)

    phase2 = machine2.run(seeded_from_phase1)
    print(f"phase 2 (column sweep, col blocks): {phase2.total_messages} "
          f"point-to-point messages")

    # validate the composite against sequential execution
    golden = allocate_arrays(rows_prog, params, seed=0)
    run(rows_prog, params, arrays=golden)
    run(cols_prog, params, arrays=golden)
    for myp, arrays in phase2.arrays.items():
        lo, hi = myp[0] * 8, myp[0] * 8 + 8
        assert np.allclose(arrays["A"][:, lo:hi], golden["A"][:, lo:hi])
    print("composite result matches sequential execution: OK")


if __name__ == "__main__":
    main()
