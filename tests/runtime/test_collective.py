"""Data reorganization tests: the two-phase (row sweep / column sweep)
pattern the paper delegates to collective routines."""

import numpy as np
import pytest

from repro.codegen import generate_spmd
from repro.decomp import block, block_loop
from repro.ir import allocate_arrays, run
from repro.lang import parse
from repro.runtime import Machine, run_spmd
from repro.runtime.collective import reorganize

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


class TestReorganize:
    def test_block_to_block_transpose_layout(self):
        """Row blocks -> column blocks: every off-diagonal element moves."""
        prog = parse(ROWS)
        arr = prog.arrays["A"]
        d_rows = block(arr, [8], dims=[0], pdims=[2])
        d_cols = block(arr, [8], dims=[1], pdims=[2])
        params = {"P": 2}
        golden = allocate_arrays(prog, params, seed=0)["A"]
        arrays_by_proc = {}
        for myp in ((0,), (1,)):
            mine = np.full_like(golden, np.nan)
            lo, hi = myp[0] * 8, myp[0] * 8 + 8
            mine[lo:hi, :] = golden[lo:hi, :]
            arrays_by_proc[myp] = {"A": mine}
        stats = reorganize(
            arrays_by_proc, "A", d_rows, d_cols, params
        )
        # each processor now holds its column block completely
        for myp in ((0,), (1,)):
            lo, hi = myp[0] * 8, myp[0] * 8 + 8
            assert np.allclose(
                arrays_by_proc[myp]["A"][:, lo:hi], golden[:, lo:hi]
            )
        # 2 processors exchange one 8x8 quadrant each
        assert stats.messages == 2
        assert stats.words == 2 * 64

    def test_identity_reorganization_free(self):
        prog = parse(ROWS)
        arr = prog.arrays["A"]
        d = block(arr, [8], dims=[0], pdims=[2])
        params = {"P": 2}
        golden = allocate_arrays(prog, params, seed=0)["A"]
        arrays_by_proc = {}
        for myp in ((0,), (1,)):
            mine = np.full_like(golden, np.nan)
            lo, hi = myp[0] * 8, myp[0] * 8 + 8
            mine[lo:hi, :] = golden[lo:hi, :]
            arrays_by_proc[myp] = {"A": mine}
        stats = reorganize(arrays_by_proc, "A", d, d, params)
        assert stats.messages == 0 and stats.words == 0


class TestTwoPhaseProgram:
    def test_row_sweep_transpose_column_sweep(self):
        """The paper's region model: compile each region for its own
        layout, reorganize between regions, get the sequential answer.

        Row sweep with row blocks and column sweep with column blocks
        each need *zero* point-to-point communication; all data motion
        concentrates in the collective reorganization -- exactly why
        the decomposition phase inserts it."""
        params = {"P": 2}
        rows_prog = parse(ROWS)
        cols_prog = parse(COLS)
        arr = rows_prog.arrays["A"]
        d_rows = block(arr, [8], dims=[0], pdims=[2])
        d_cols = block(
            cols_prog.arrays["A"], [8], dims=[1], pdims=[2]
        )

        # phase 1: row sweep, row-blocked
        s_row = rows_prog.statements()[0]
        comp_row = block_loop(s_row, ["i"], [8], pdims=[2])
        spmd_row = generate_spmd(rows_prog, {s_row.name: comp_row})
        machine = Machine(rows_prog, comp_row.space, params)
        result1 = machine.run(
            spmd_row.node, initial_data={"A": d_rows}, seed=0
        )
        assert result1.total_messages == 0  # row sweep is local

        # reorganize rows -> columns
        stats = reorganize(result1.arrays, "A", d_rows, d_cols, params)
        assert stats.words > 0

        # phase 2: column sweep, column-blocked (seeded by phase 1 output)
        s_col = cols_prog.statements()[0]
        comp_col = block_loop(s_col, ["j2"], [8], pdims=[2])
        spmd_col = generate_spmd(cols_prog, {s_col.name: comp_col})
        machine2 = Machine(cols_prog, comp_col.space, params)

        def seeded_from_phase1(proc):
            # run phase 2 on the phase-1 arrays
            for name, values in result1.arrays[proc.myp].items():
                proc.arrays[name][...] = values
            yield from spmd_col.node(proc)

        result2 = machine2.run(seeded_from_phase1, seed=0)
        assert result2.total_messages == 0  # column sweep is local

        # compare against the sequential composite
        golden = allocate_arrays(rows_prog, params, seed=0)
        run(rows_prog, params, arrays=golden)
        run(cols_prog, params, arrays=golden)
        for myp, arrays in result2.arrays.items():
            lo, hi = myp[0] * 8, myp[0] * 8 + 8
            assert np.allclose(arrays["A"][:, lo:hi], golden["A"][:, lo:hi])


class TestReorganizeResidency:
    """The NaN-poisoning fixes: reorganize must never forward a value
    its source does not actually hold."""

    def _row_blocked_arrays(self, prog, golden):
        arrays_by_proc = {}
        for myp in ((0,), (1,)):
            mine = np.full_like(golden, np.nan)
            lo, hi = myp[0] * 8, myp[0] * 8 + 8
            mine[lo:hi, :] = golden[lo:hi, :]
            arrays_by_proc[myp] = {"A": mine}
        return arrays_by_proc

    def test_poisoned_source_raises_reorganize_error(self):
        from repro.runtime import ReorganizeError

        prog = parse(ROWS)
        arr = prog.arrays["A"]
        d_rows = block(arr, [8], dims=[0], pdims=[2])
        d_cols = block(arr, [8], dims=[1], pdims=[2])
        params = {"P": 2}
        golden = allocate_arrays(prog, params, seed=0)["A"]
        arrays_by_proc = self._row_blocked_arrays(prog, golden)
        # poison an element that must move: row 0 belongs to proc 0,
        # column 9 belongs to proc 1 under the new layout
        arrays_by_proc[(0,)]["A"][0, 9] = np.nan
        with pytest.raises(ReorganizeError) as excinfo:
            reorganize(arrays_by_proc, "A", d_rows, d_cols, params)
        assert "A[0, 9]" in str(excinfo.value)

    def test_replicated_source_prefers_resident_copy(self):
        """Under a replicated old layout every processor is an owner,
        but only some copies may actually be materialized; the one that
        holds the value must be chosen over sources[0]."""
        from repro.decomp import replicated

        prog = parse(ROWS)
        arr = prog.arrays["A"]
        d_rep = replicated(arr)
        d_cols = block(arr, [8], dims=[1], pdims=[2])
        params = {"P": 2}
        golden = allocate_arrays(prog, params, seed=0)["A"]
        # proc 0's replica is fully poisoned; proc 1 holds everything
        arrays_by_proc = {
            (0,): {"A": np.full_like(golden, np.nan)},
            (1,): {"A": golden.copy()},
        }
        reorganize(arrays_by_proc, "A", d_rep, d_cols, params)
        # proc 0 now holds its column block, sourced from proc 1's
        # materialized replica rather than proc 0's own NaN copy
        assert np.allclose(arrays_by_proc[(0,)]["A"][:, 0:8],
                           golden[:, 0:8])

    def test_resident_destination_tolerates_poison(self):
        """No movement needed => no residency requirement: identity
        relayout of a poisoned array stays free and silent."""
        prog = parse(ROWS)
        arr = prog.arrays["A"]
        d = block(arr, [8], dims=[0], pdims=[2])
        params = {"P": 2}
        golden = allocate_arrays(prog, params, seed=0)["A"]
        arrays_by_proc = self._row_blocked_arrays(prog, golden)
        arrays_by_proc[(0,)]["A"][0, 0] = np.nan
        stats = reorganize(arrays_by_proc, "A", d, d, params)
        assert stats.messages == 0 and stats.words == 0
