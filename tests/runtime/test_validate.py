"""``check_against_sequential``: one comparison per array, same verdicts.

The check compares every live-out location at its owner with one
``np.isclose`` per array.  These tests pin that it still catches one
wrong owned cell, a NaN (``equal_nan=False``) and a wrong final-layout
owner; that its error text -- count and the first ten mismatches in
writer order -- equals a per-location reference loop; and that the
kernels and compiled nests a check builds never reach the serialized
artifact.
"""

import numpy as np
import pytest

from repro.codegen import generate_spmd
from repro.core import canonical_bytes, compile_distributed, dump_result, load_result
from repro.decomp import block, block_loop
from repro.ir import live_out_writes, run
from repro.lang import parse
from repro.runtime import check_against_sequential
from repro.runtime import validate

FIG2 = """
array X[N + 1]
assume N >= 3
assume T >= 0
for t = 0 to T do
  for i = 3 to N do
    X[i] = X[i - 3]
"""

PIPE = """
array X[N + 1]
array Y[N + 1]
assume N >= 2
for i = 0 to N do
  s1: X[i] = i * 3 + 1
for j = 1 to N do
  s2: Y[j] = Y[j] + X[j - 1]
"""

#: one nest writing two arrays: writer order interleaves X and Y
TWIN = """
array X[N + 1]
array Y[N + 1]
assume N >= 2
for i = 0 to N do
  s1: X[i] = i * 3 + 1
  s2: Y[i] = Y[i] + X[i]
"""

NAN = """
array X[N + 1]
assume N >= 1
for i = 1 to N do
  X[i] = (X[i] - X[i]) / (X[i] - X[i])
"""

#: a rank-0 array: its one location is ``()``
SCALAR = """
array S
array A[8]
for i = 0 to 7 do
  s1: A[i] = A[i] * 2
for j = 0 to 0 do
  s2: S = A[3] + 1
"""

FIG2_PARAMS = {"N": 70, "T": 1, "P": 3}
PIPE_PARAMS = {"N": 60, "P": 3}


def _fig2(final_block=None):
    program = parse(FIG2)
    (stmt,) = program.statements()
    comps = {stmt.name: block_loop(stmt, ["i"], [16])}
    init = {"X": block(program.arrays["X"], [16])}
    final = (
        {"X": block(program.arrays["X"], [final_block])}
        if final_block else None
    )
    spmd = generate_spmd(program, comps, initial_data=init, final_data=final)
    return spmd, comps, init, final


def _two_arrays(source):
    program = parse(source)
    s1, s2 = program.statements()
    comps = {"s1": block_loop(s1, ["i"], [8])}
    comps["s2"] = block_loop(
        s2, [s2.iter_vars[0]], [8], space=comps["s1"].space
    )
    init = {"Y": block(program.arrays["Y"], [8])}
    return generate_spmd(program, comps, initial_data=init), comps, init


def _tamper(monkeypatch, edits):
    """Make ``check_against_sequential`` see a run whose arrays had
    ``edits`` applied: ``(rank, array, location, value)`` tuples."""
    real = validate.run_spmd

    def run_spmd(*args, **kwargs):
        result = real(*args, **kwargs)
        for rank, name, location, value in edits:
            result.arrays[rank][name][location] = value
        return result

    monkeypatch.setattr(validate, "run_spmd", run_spmd)


def _reference_error(spmd, comps, params, result, final_data=None):
    """The per-location check, one scalar ``isclose`` per owner."""
    program = spmd.program
    expected = run(program, params)
    mismatches = []
    for (name, location), write in live_out_writes(program, params).items():
        want = expected[name][location]
        if final_data and name in final_data:
            decomp = final_data[name]
            owners = [
                decomp.space.to_physical(tuple(o), params)
                for o in decomp.owners(location, params)
            ]
        else:
            stmt = program.statement(write.stmt)
            env = dict(params)
            env.update(zip(stmt.iter_vars, write.iteration))
            owners = [
                spmd.space.to_physical(comps[write.stmt].owner(env), params)
            ]
        for owner in owners:
            got = result.arrays[tuple(owner)][name][location]
            if not np.isclose(got, want, rtol=1e-9, equal_nan=False):
                mismatches.append((name, location, tuple(owner), want, got))
    return (
        f"{len(mismatches)} owned locations hold wrong values; "
        f"first: {mismatches[:10]}"
    )


class TestMismatchesAreCaught:
    def test_clean_run_passes(self):
        spmd, comps, init, _ = _fig2()
        check_against_sequential(spmd, comps, FIG2_PARAMS, initial_data=init)

    def test_one_corrupted_owned_cell(self, monkeypatch):
        spmd, comps, init, _ = _fig2()
        # i = 40 runs on virtual processor 40 // 16 = 2, physical 2 % 3
        _tamper(monkeypatch, [((2,), "X", (40,), 1e6)])
        with pytest.raises(AssertionError) as err:
            check_against_sequential(
                spmd, comps, FIG2_PARAMS, initial_data=init
            )
        text = str(err.value)
        assert text.startswith("1 owned locations hold wrong values")
        assert "('X', (40,), (2,)" in text and "np.float64(1000000.0)" in text

    def test_a_corrupted_non_owner_copy_is_not_checked(self, monkeypatch):
        spmd, comps, init, _ = _fig2()
        _tamper(monkeypatch, [((0,), "X", (40,), 1e6)])
        check_against_sequential(spmd, comps, FIG2_PARAMS, initial_data=init)

    def test_nan_in_an_owned_cell(self, monkeypatch):
        spmd, comps, init, _ = _fig2()
        # i = 70: virtual 4, physical 1
        _tamper(monkeypatch, [((1,), "X", (70,), np.nan)])
        with pytest.raises(AssertionError, match=r"1 owned locations") as err:
            check_against_sequential(
                spmd, comps, FIG2_PARAMS, initial_data=init
            )
        assert "('X', (70,), (1,)" in str(err.value)
        assert "nan" in str(err.value)

    def test_computed_nan_is_never_close(self):
        # equal_nan=False: a NaN the program itself computes fails the
        # check even where the owner holds that same NaN
        program = parse(NAN)
        (stmt,) = program.statements()
        comps = {stmt.name: block_loop(stmt, ["i"], [4])}
        spmd = generate_spmd(program, comps)
        with np.errstate(all="ignore"), pytest.raises(
            AssertionError, match=r"^8 owned locations"
        ):
            check_against_sequential(spmd, comps, {"N": 8, "P": 2})

    def test_rank0_array(self, monkeypatch):
        program = parse(SCALAR)
        s1, s2 = program.statements()
        comps = {"s1": block_loop(s1, ["i"], [4])}
        comps["s2"] = block_loop(s2, ["j"], [4], space=comps["s1"].space)
        spmd = generate_spmd(program, comps)
        check_against_sequential(spmd, comps, {"P": 2})
        _tamper(monkeypatch, [((0,), "S", (), 5.0)])
        with pytest.raises(AssertionError, match=r"^1 owned") as err:
            check_against_sequential(spmd, comps, {"P": 2})
        assert "('S', (), (0,), " in str(err.value)

    def test_wrong_final_data_owner(self, monkeypatch):
        spmd, comps, init, final = _fig2(final_block=8)
        # X[30] is written on physical 30 // 16 % 3 = 1, and its final
        # owner is physical 30 // 8 % 3 = 0: only the latter is checked
        _tamper(monkeypatch, [((1,), "X", (30,), -1.0)])
        check_against_sequential(
            spmd, comps, FIG2_PARAMS, initial_data=init, final_data=final
        )
        _tamper(monkeypatch, [((0,), "X", (30,), -1.0)])
        with pytest.raises(AssertionError) as err:
            check_against_sequential(
                spmd, comps, FIG2_PARAMS, initial_data=init,
                final_data=final,
            )
        assert "('X', (30,), (0,)" in str(err.value)

    def test_final_layout_the_program_did_not_finalize_to(self):
        spmd, comps, init, _ = _fig2()
        final = {"X": block(spmd.program.arrays["X"], [8])}
        with pytest.raises(AssertionError, match="owned locations hold wrong"):
            check_against_sequential(
                spmd, comps, FIG2_PARAMS, initial_data=init,
                final_data=final,
            )


class TestErrorTextMatchesThePerLocationLoop:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("source", [PIPE, TWIN], ids=["pipe", "twin"])
    def test_many_mismatches_across_arrays(self, monkeypatch, source, seed):
        spmd, comps, init = _two_arrays(source)
        rng = np.random.default_rng(seed)
        # 14 cells per array on each array's writer ranks, so the sample
        # (first ten in writer order) spans both arrays' orders
        edits = []
        for name, stmt in (("X", "s1"), ("Y", "s2")):
            var = spmd.program.statement(stmt).iter_vars[0]
            for loc in rng.choice(np.arange(1, 61), 14, replace=False):
                owner = (int(loc) // 8 % 3,)
                edits.append((owner, name, (int(loc),), -7.0))
                assert comps[stmt].owner({var: int(loc)})[0] % 3 == owner[0]
        _tamper(monkeypatch, edits)
        with pytest.raises(AssertionError) as err:
            check_against_sequential(
                spmd, comps, PIPE_PARAMS, initial_data=init
            )
        result = validate.run_spmd(spmd, PIPE_PARAMS, initial_data=init)
        assert str(err.value) == _reference_error(
            spmd, comps, PIPE_PARAMS, result
        )
        assert str(err.value).startswith("28 owned locations")

    def test_final_data_rows_match_the_reference(self, monkeypatch):
        spmd, comps, init, final = _fig2(final_block=8)
        edits = [((r,), "X", (loc,), 0.0) for r in range(3) for loc in (8, 40, 65)]
        _tamper(monkeypatch, edits)
        with pytest.raises(AssertionError) as err:
            check_against_sequential(
                spmd, comps, FIG2_PARAMS, initial_data=init,
                final_data=final,
            )
        result = validate.run_spmd(spmd, FIG2_PARAMS, initial_data=init)
        assert str(err.value) == _reference_error(
            spmd, comps, FIG2_PARAMS, result, final_data=final
        )


class TestGeneratedCodeStaysOutOfArtifacts:
    def test_dump_and_canonical_bytes_after_a_checked_run(self):
        program = parse(FIG2, name="fig2")
        (stmt,) = program.statements()
        comps = {stmt.name: block_loop(stmt, ["i"], [16])}
        result = compile_distributed(program, comps)
        before = canonical_bytes(result)
        assert stmt._kernel is None
        assert program._run_nest is None
        assert program._live_out_nest is None
        check_against_sequential(result.spmd, comps, FIG2_PARAMS)
        # the check built the statement kernel and both compiled nests
        assert stmt._kernel is not None
        assert program._run_nest is not None
        assert program._live_out_nest is not None
        data = dump_result(result)
        assert canonical_bytes(result) == before
        loaded = load_result(data)
        assert canonical_bytes(loaded) == before
        (loaded_stmt,) = loaded.spmd.program.statements()
        assert loaded_stmt._kernel is None
        assert loaded.spmd.program._run_nest is None
        assert loaded.spmd.program._live_out_nest is None
        check_against_sequential(loaded.spmd, comps, FIG2_PARAMS)
