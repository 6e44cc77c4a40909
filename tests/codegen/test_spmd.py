"""End-to-end SPMD generation + execution tests.

Every test compiles a program with real decompositions, runs the
generated node program on the machine simulator, and checks the final
distributed state against sequential execution -- the whole paper in
one assertion.
"""

import numpy as np
import pytest

from repro.codegen import SPMDOptions, generate_spmd
from repro.codegen.cast import (
    CBlock,
    CCompute,
    CFor,
    CGuard,
    CondGE,
    PyEmitter,
    compile_node_program,
)
from repro.decomp import block, block_loop, onto, replicated
from repro.lang import parse
from repro.polyhedra import System, const, var
from repro.polyhedra.bexpr import Lin, MaxE, MinE
from repro.runtime import Machine, check_against_sequential, run_spmd

FIG2 = """
array X[N + 1]
assume N >= 3
assume T >= 0
for t = 0 to T do
  for i = 3 to N do
    X[i] = X[i - 3]
"""

LU = """
array X[N + 1][N + 1]
assume N >= 1
for i1 = 0 to N do
  for i2 = i1 + 1 to N do
    s1: X[i2][i1] = X[i2][i1] / X[i1][i1]
    for i3 = i1 + 1 to N do
      s2: X[i2][i3] = X[i2][i3] - X[i2][i1] * X[i1][i3]
"""


def fig2_spmd(block_size=32, options=None):
    prog = parse(FIG2)
    stmt = prog.statements()[0]
    comp = block_loop(stmt, ["i"], [block_size])
    spmd = generate_spmd(prog, {stmt.name: comp}, options=options)
    return spmd, {stmt.name: comp}


def lu_spmd(options=None):
    prog = parse(LU)
    s1 = prog.statement("s1")
    s2 = prog.statement("s2")
    comps = {"s1": onto(s1, [var("i2")])}
    comps["s2"] = onto(s2, [var("i2")], space=comps["s1"].space)
    return generate_spmd(prog, comps, options=options), comps


class TestFig2:
    @pytest.mark.parametrize(
        "params",
        [
            {"N": 70, "T": 2, "P": 3},
            {"N": 70, "T": 0, "P": 2},
            {"N": 31, "T": 1, "P": 4},   # single block: no communication
            {"N": 200, "T": 1, "P": 2},  # cyclic: 7 blocks on 2 procs
        ],
    )
    def test_validates(self, params):
        spmd, comps = fig2_spmd()
        check_against_sequential(spmd, comps, params)

    def test_message_counts(self):
        spmd, comps = fig2_spmd()
        res = run_spmd(spmd, {"N": 70, "T": 2, "P": 3})
        # 2 block boundaries, one aggregated message per t iteration
        assert res.total_messages == 6
        assert res.total_words == 18

    def test_no_comm_single_block(self):
        spmd, comps = fig2_spmd()
        res = run_spmd(spmd, {"N": 31, "T": 2, "P": 4})
        assert res.total_messages == 0

    def test_structure_matches_figure7(self):
        """The computation loop bounds of Figure 7(a)/(b)."""
        spmd, _comps = fig2_spmd()
        text = spmd.c_text
        assert "for i = MAX(3, 32*p0) to MIN(N, 32*p0 + 31)" in text
        # virtual processors strided by P (Figure 7(b))
        assert "step P do" in text

    def test_aggregation_matches_figure10(self):
        """One message per (sender, t) covering the 3 boundary values."""
        spmd, _comps = fig2_spmd()
        res = run_spmd(spmd, {"N": 70, "T": 0, "P": 3})
        assert res.total_messages == 2
        assert res.total_words == 6


class TestLU:
    @pytest.mark.parametrize(
        "params",
        [
            {"N": 8, "P": 3},
            {"N": 6, "P": 2},
            {"N": 5, "P": 5},
            {"N": 7, "P": 1},
            {"N": 9, "P": 4},
        ],
    )
    def test_validates(self, params):
        spmd, comps = lu_spmd()
        check_against_sequential(spmd, comps, params)

    def test_multicast_used(self):
        spmd, comps = lu_spmd()
        res = run_spmd(spmd, {"N": 8, "P": 3})
        multicasts = res.stat_sum("multicasts")
        assert multicasts > 0

    def test_optimization_ordering(self):
        """full <= no-multicast <= per-element in messages and time."""
        params = {"N": 8, "P": 3}
        results = {}
        for name, opts in (
            ("full", SPMDOptions()),
            ("nomc", SPMDOptions(multicast=False)),
            ("elem", SPMDOptions(aggregate=False)),
        ):
            spmd, comps = lu_spmd(options=opts)
            results[name] = check_against_sequential(spmd, comps, params)
        assert (
            results["full"].total_messages
            <= results["nomc"].total_messages
            <= results["elem"].total_messages
        )
        assert results["full"].makespan <= results["elem"].makespan

    def test_compile_under_paper_budget(self):
        """Section 7: the paper's pass took 2.9 s for LU."""
        import time

        start = time.perf_counter()
        lu_spmd()
        assert time.perf_counter() - start < 2.9


class TestCrossNestPipeline:
    """Section 2.2.2's example: one word per block boundary."""

    SRC = """
array X[N + 1]
array Y[N + 1]
assume N >= 2
for i = 0 to N do
  s1: X[i] = i + 1
for j = 1 to N do
  s2: Y[j] = Y[j] + X[j - 1]
"""

    def make(self, options=None):
        prog = parse(self.SRC)
        s1 = prog.statement("s1")
        s2 = prog.statement("s2")
        comps = {"s1": block_loop(s1, ["i"], [8])}
        comps["s2"] = block_loop(s2, ["j"], [8], space=comps["s1"].space)
        init = {"Y": block(prog.arrays["Y"], [8])}
        spmd = generate_spmd(prog, comps, initial_data=init, options=options)
        return spmd, comps, init

    def test_validates(self):
        spmd, comps, init = self.make()
        check_against_sequential(
            spmd, comps, {"N": 31, "P": 2}, initial_data=init
        )

    def test_one_word_per_boundary(self):
        spmd, comps, init = self.make()
        res = run_spmd(spmd, {"N": 31, "P": 4}, initial_data=init)
        # 3 boundaries, one single-word message each
        assert res.total_messages == 3
        assert res.total_words == 3


class TestPreload:
    """Theorem-4 initial data movement for read-only arrays."""

    STENCIL = """
array A[N + 2]
array B[N + 2]
assume N >= 1
for i = 1 to N do
  B[i] = A[i - 1] + A[i] + A[i + 1] + 1
"""

    def make(self, overlap=False):
        prog = parse(self.STENCIL)
        stmt = prog.statements()[0]
        comp = block_loop(stmt, ["i"], [8])
        arr_a = prog.arrays["A"]
        init = {
            "A": block(
                arr_a, [8], overlap=[(1, 1)] if overlap else ()
            ),
            "B": block(prog.arrays["B"], [8]),
        }
        spmd = generate_spmd(prog, {stmt.name: comp}, initial_data=init)
        return spmd, {stmt.name: comp}, init

    def test_validates(self):
        spmd, comps, init = self.make()
        check_against_sequential(
            spmd, comps, {"N": 30, "P": 2}, initial_data=init
        )

    def test_border_words_moved(self):
        spmd, comps, init = self.make()
        res = run_spmd(spmd, {"N": 30, "P": 4}, initial_data=init)
        # 3 internal boundaries x 2 directions, one word each
        assert res.total_words == 6

    def test_overlap_layout_needs_no_comm(self):
        """Section 2.2.1: replicated borders remove the preload."""
        spmd, comps, init = self.make(overlap=True)
        res = run_spmd(spmd, {"N": 30, "P": 4}, initial_data=init)
        assert res.total_messages == 0
        check_against_sequential(
            spmd, comps, {"N": 30, "P": 4}, initial_data=init
        )


class TestPrivatization:
    """Section 3.2: dataflow-private arrays need no communication even
    though location-based dependence analysis serializes the loop."""

    SRC = """
array work[33]
array A[12][33]
assume M >= 1
for i = 0 to M do
  for j1 = 0 to 32 do
    w: work[j1] = A[i][j1] * 2
  for j2 = 0 to 32 do
    r: A[i][j2] = work[j2] + 1
"""

    def test_no_communication(self):
        prog = parse(self.SRC)
        w = prog.statement("w")
        r = prog.statement("r")
        # parallelize the outer i loop across processors
        comps = {"w": block_loop(w, ["i"], [3])}
        comps["r"] = block_loop(r, ["i"], [3], space=comps["w"].space)
        spmd = generate_spmd(prog, comps)
        res = check_against_sequential(spmd, comps, {"M": 11, "P": 2})
        assert res.total_messages == 0


class TestBroadcastValue:
    SRC = """
array X[N + 1]
array Y[N + 1]
assume N >= 2
for i = 0 to N do
  s1: X[i] = i + 1
for j = 1 to N do
  s2: Y[j] = Y[j] + X[0]
"""

    def test_validates_and_minimizes(self):
        prog = parse(self.SRC)
        s1 = prog.statement("s1")
        s2 = prog.statement("s2")
        comps = {"s1": block_loop(s1, ["i"], [8])}
        comps["s2"] = block_loop(s2, ["j"], [8], space=comps["s1"].space)
        init = {"Y": block(prog.arrays["Y"], [8])}
        spmd = generate_spmd(prog, comps, initial_data=init)
        res = check_against_sequential(
            spmd, comps, {"N": 31, "P": 4}, initial_data=init
        )
        # X[0] reaches each remote processor exactly once
        assert res.total_words == 3


class TestGeneratedSource:
    def test_python_source_is_exposed(self):
        spmd, _ = fig2_spmd()
        assert "def node(proc):" in spmd.source
        assert "proc.send" in spmd.source

    def test_c_text_nonempty(self):
        spmd, _ = fig2_spmd()
        assert "receive" in spmd.c_text and "send" in spmd.c_text


class TestPlacementProbeFailsLoudly:
    """The uniqueness probe that licenses early send/receive placement
    must not turn a bug into the answer "unique"."""

    def test_non_infeasible_error_propagates(self, monkeypatch):
        real_rename = System.rename

        def broken_rename(self, mapping):
            if any(new.endswith("$dup") for new in mapping.values()):
                raise KeyError("bug while building the probe")
            return real_rename(self, mapping)

        monkeypatch.setattr(System, "rename", broken_rename)
        with pytest.raises(KeyError, match="building the probe"):
            fig2_spmd()


def _idle(proc):
    return
    yield


class TestRangeKernelLoop:
    """A pin-free loop the RAW proof rejects is one block call whose
    bounds absorb the guard's range clip; it must run exactly as the
    scalar loop with its per-iteration guard."""

    SRC = "array X[N + 1]\nfor i = 1 to N do\n  X[i] = X[i - 1] / 2 + i\n"

    def tree(self, stmt):
        n, i = var("N"), var("i")
        guard = CGuard(
            [CondGE(n - 8), CondGE(i - 5), CondGE(n - 3 - i)],
            CBlock([CCompute(stmt)]),
        )
        return CBlock([CFor(
            "i",
            MaxE((Lin(const(1)), Lin(n - 30))),
            MinE((Lin(n), Lin(const(40)))),
            CBlock([guard]),
        )])

    def test_clip_folds_into_flat_bounds(self):
        (stmt,) = parse(self.SRC).statements()
        source = PyEmitter(1, ["N"]).source(self.tree(stmt))
        body = source.splitlines()[-3:]
        assert body == [
            "    if (1*N + -8) >= 0:",
            "        proc.execute_block(_s0, 'i', max((1), (1*N + -30), (5)), "
            "min((1*N + 0), (40), (1*N + -3)), _env, 1, False)",
            "    proc.finish()",
        ]

    @pytest.mark.parametrize("n", [6, 8, 9, 20])
    def test_runs_as_the_guarded_scalar_loop(self, n):
        prog = parse(self.SRC)
        (stmt,) = prog.statements()
        space = generate_spmd(
            prog, {stmt.name: block_loop(stmt, ["i"], [64])}
        ).space
        params = {"N": n, "P": 1}

        def run(node):
            return Machine(prog, space, params).run(node)

        scalar, vector = (
            run(compile_node_program(self.tree(stmt), 1, ["N"], vectorize=v))
            for v in (False, True)
        )
        assert vector.makespan == scalar.makespan
        assert vector.stats == scalar.stats
        got, want = vector.arrays[(0,)]["X"], scalar.arrays[(0,)]["X"]
        assert got.tobytes() == want.tobytes()
        changed = np.flatnonzero(got != run(_idle).arrays[(0,)]["X"])
        assert changed.tolist() == (list(range(5, n - 2)) if n >= 8 else [])
