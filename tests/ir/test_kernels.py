"""Generated statement kernels and compiled sequential nests.

``Statement.execute`` and ``run_traced`` are the tree-walking
references; the generated code (:mod:`repro.ir.kernels`) must equal
them bit for bit: ``stmt.kernel()`` against ``execute`` on random
affine statements, ``stmt.range_kernel(var)`` against one ``kernel()``
call per iterate, and the compiled ``run`` / ``live_out_writes``
against ``run_traced``'s arrays and final writers, on the five
conformance programs and on random nests.
"""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ir import (
    Access,
    Array,
    Statement,
    allocate_arrays,
    live_out_writes,
    run,
    run_traced,
)
from repro.lang import parse
from repro.lang.parser import EBin, ECall, ECmp, ENum, ERef, EVar, compile_fn_spec
from repro.polyhedra import LinExpr
from repro.runtime.chaos import WORKLOADS

A = Array("A", (40,))
B = Array("B", (12, 12))
ENV = {"i": 5, "j": 3, "N": 7, "M": 2}
#: the same with ``i`` an index vector, as ``Processor.execute_block``
#: runs a segment
VENV = dict(ENV, i=np.arange(2, 7))

#: affine subscripts that stay inside both arrays for the values in ENV
#: (a few wrap negative or overrun on purpose: both sides must agree on
#: the exception or the wrapped element too)
SUBSCRIPTS = (
    LinExpr.var("i"),
    LinExpr.var("i") - 3,
    LinExpr.var("j") + 2,
    LinExpr.var("i") * 2 - LinExpr.var("j"),
    LinExpr.var("N") - LinExpr.var("i"),
    LinExpr.var("j") * -1 + 9,
    LinExpr.var("i") + LinExpr.var("M") * 3,
    LinExpr.const_expr(4),
    LinExpr.var("i") - 9,
    LinExpr.var("i") * 3,
)


@st.composite
def accesses(draw):
    if draw(st.booleans()):
        return Access(A, (draw(st.sampled_from(SUBSCRIPTS)),))
    return Access(
        B,
        (draw(st.sampled_from(SUBSCRIPTS)), draw(st.sampled_from(SUBSCRIPTS))),
    )


def rhs_trees(nreads):
    leaves = st.one_of(
        st.builds(ERef, st.integers(0, nreads - 1)),
        st.builds(
            ENum,
            st.sampled_from([0.0, 1.0, 2.5, 3.0, -0.0, 1e-3, float("inf")]),
        ),
        st.builds(EVar, st.sampled_from(["i", "j", "N"])),
    )
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.builds(
                EBin, st.sampled_from(["+", "-", "*", "/", "%"]), kids, kids
            ),
            st.builds(
                ECall, st.sampled_from(["f", "g"]), st.lists(kids, min_size=1, max_size=3)
            ),
        ),
        max_leaves=8,
    )


@st.composite
def statements(draw):
    lhs = draw(accesses())
    reads = draw(st.lists(accesses(), min_size=1, max_size=3))
    kind = draw(st.sampled_from(["expr", "cond", "raw"]))
    if kind == "raw":
        scale = draw(st.sampled_from([0.5, 2.0]))
        return Statement(
            lhs=lhs, reads=reads,
            fn=lambda values, env: sum(values) * scale + env["i"] - env["N"],
        )
    if kind == "expr":
        spec = ("expr", draw(rhs_trees(len(reads))))
        return Statement(lhs=lhs, reads=reads, fn=compile_fn_spec(spec),
                         fn_spec=spec)
    # the parser's guarded-assignment shape: the condition's reads come
    # first, and the lhs is also read (appended unless already present)
    cond = ECmp(
        draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="])),
        draw(rhs_trees(len(reads))),
        draw(rhs_trees(len(reads))),
    )
    full = list(reads) if lhs in reads else list(reads) + [lhs]
    spec = ("cond", draw(rhs_trees(len(reads))), cond, full.index(lhs))
    return Statement(lhs=lhs, reads=reads, fn=compile_fn_spec(spec),
                     fn_spec=spec, guard_reads_lhs=True)


def _outcome(step, arrays, env):
    """Arrays after one instance (as bytes), or the exception type."""
    arrays = {name: arr.copy() for name, arr in arrays.items()}
    try:
        with np.errstate(all="ignore"):
            step(arrays, env)
    except Exception as exc:  # noqa: BLE001 - the failure is the datum
        return type(exc)
    return {name: arr.tobytes() for name, arr in arrays.items()}


class TestStatementKernel:
    @settings(max_examples=150, deadline=None)
    @given(statements(), st.integers(0, 2**16), st.sampled_from([ENV, VENV]))
    def test_kernel_equals_execute(self, stmt, seed, env):
        rng = np.random.default_rng(seed)
        arrays = {
            "A": rng.uniform(0.5, 2.0, size=40),
            "B": rng.uniform(-2.0, 2.0, size=(12, 12)),
        }
        want = _outcome(stmt.execute, arrays, env)
        got = _outcome(stmt.kernel(), arrays, env)
        assert got == want, stmt.kernel().__source__

    def test_kernel_is_cached_and_never_pickled(self):
        prog = parse("array X[9]\nfor i = 1 to 8 do\n  X[i] = X[i - 1] + 1\n")
        (stmt,) = prog.statements()
        kernel = stmt.kernel()
        assert stmt.kernel() is kernel
        clone = pickle.loads(pickle.dumps(stmt))
        assert clone._kernel is None
        arrays = {"X": np.arange(9.0)}
        clone.kernel()(arrays, {"i": 3})
        assert arrays["X"][3] == 3.0

    def test_gatherable_only_for_call_free_expressions(self):
        """Only an ``expr`` right-hand side without an opaque call may
        run on an index vector; the verdict is cached and never
        pickled."""
        prog = parse(
            "array X[9]\narray Y[9]\n"
            "for i = 1 to 8 do\n"
            "  s1: X[i] = X[i - 1] * 2 + i\n"
            "  s2: Y[i] = X[i] + g(X[i - 1])\n"
            "  if X[i] > 1 then\n"
            "    s3: Y[i] = X[i]\n"
        )
        s1, s2, s3 = prog.statements()
        assert (s1.gatherable(), s2.gatherable(), s3.gatherable()) == (
            True, False, False,
        )
        assert pickle.loads(pickle.dumps(s1))._gather is None
        raw = Statement(
            lhs=Access(A, (LinExpr.var("i"),)), reads=[],
            fn=lambda values, env: 1.0,
        )
        assert not raw.gatherable()

    def test_raw_callable_receives_the_callers_env(self):
        seen = []
        stmt = Statement(
            lhs=Access(A, (LinExpr.var("i"),)),
            reads=[Access(A, (LinExpr.var("i") - 1,))],
            fn=lambda values, env: seen.append(env) or values[0] * 3,
        )
        arrays = {"A": np.arange(40.0)}
        env = {"i": 4, "N": 9}
        stmt.kernel()(arrays, env)
        assert seen == [env] and seen[0] is env
        assert arrays["A"][4] == 9.0


def _scalar_loop(stmt, var, lo, stop, step):
    """The reference a range kernel must equal: one kernel call per
    iterate, ``env[var]`` set first, as the scalar node program does."""

    def steps(arrays, env):
        kernel = stmt.kernel()
        for v in range(lo, stop, step):
            env[var] = v
            kernel(arrays, env)

    return steps


def _range(stmt, var, lo, stop, step):
    def steps(arrays, env):
        stmt.range_kernel(var)(arrays, env, lo, stop, step)

    return steps


class TestRangeKernel:
    @settings(max_examples=150, deadline=None)
    @given(
        statements(),
        st.integers(0, 2**16),
        st.sampled_from(["i", "j"]),
        st.integers(-2, 9),
        st.integers(0, 6),
        st.integers(1, 3),
    )
    def test_range_equals_kernel_calls(self, stmt, seed, var, lo, n, step):
        rng = np.random.default_rng(seed)
        arrays = {
            "A": rng.uniform(0.5, 2.0, size=40),
            "B": rng.uniform(-2.0, 2.0, size=(12, 12)),
        }
        stop = lo + n * step
        want = _outcome(_scalar_loop(stmt, var, lo, stop, step), arrays,
                        dict(ENV))
        got = _outcome(_range(stmt, var, lo, stop, step), arrays, dict(ENV))
        assert got == want, stmt.range_kernel(var).__source__

    @pytest.mark.parametrize("lo, stop, step", [
        (3, 19, 1), (3, 19, 2), (4, 30, 5), (7, 7, 1), (9, 3, 2),
    ])
    def test_cond_recurrence_with_steps_and_empty_ranges(self, lo, stop, step):
        prog = parse(
            "array X[40]\n"
            "for i = 3 to 30 do\n"
            "  if X[i - 3] > X[i - 1] then\n"
            "    X[i] = f(X[i - 1], X[i - 2]) - i\n"
        )
        (stmt,) = prog.statements()
        assert stmt.fn_spec[0] == "cond"
        arrays = {"X": np.random.default_rng(1).uniform(0.0, 2.0, 40)}
        want = _outcome(_scalar_loop(stmt, "i", lo, stop, step), arrays,
                        {"i": 0})
        got = _outcome(_range(stmt, "i", lo, stop, step), arrays, {"i": 0})
        assert got == want
        if lo >= stop:
            assert got == {"X": arrays["X"].tobytes()}  # nothing ran

    def test_raw_callable_sees_each_iterate_in_env(self):
        seen = []
        stmt = Statement(
            lhs=Access(A, (LinExpr.var("i"),)),
            reads=[Access(A, (LinExpr.var("i") - 1,))],
            fn=lambda values, env: seen.append(dict(env)) or values[0] * 3,
        )
        arrays = {"A": np.arange(40.0)}
        env = {"i": -1, "N": 9}
        stmt.range_kernel("i")(arrays, env, 4, 11, 3)
        assert seen == [{"i": 4, "N": 9}, {"i": 7, "N": 9}, {"i": 10, "N": 9}]
        assert env["i"] == 10
        assert arrays["A"][[4, 7, 10]].tolist() == [9.0, 18.0, 27.0]

    def test_cached_per_variable_and_never_pickled(self):
        prog = parse(
            "array X[9][9]\nfor i = 1 to 8 do\n  for j = 1 to 8 do\n"
            "    X[i][j] = X[i - 1][j] + X[i][j - 1]\n"
        )
        (stmt,) = prog.statements()
        run_i = stmt.range_kernel("i")
        assert stmt.range_kernel("i") is run_i
        assert stmt.range_kernel("j") is not run_i
        assert stmt.kernel() is not run_i
        clone = pickle.loads(pickle.dumps(stmt))
        assert clone._kernel is None
        arrays = {"X": np.ones((9, 9))}
        clone.range_kernel("j")(arrays, {"i": 1}, 1, 9, 1)
        assert arrays["X"][1].tolist() == [1.0] + list(range(2, 10))


# ---------------------------------------------------------------------------
# compiled run / live_out_writes
# ---------------------------------------------------------------------------


def _assert_matches_tree_walk(program, params, seed=3):
    want, trace = run_traced(program, params, seed=seed)
    got = run(program, params, seed=seed)
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name
    writers = live_out_writes(program, params)
    assert writers == trace.final_writer
    assert list(writers) == list(trace.final_writer)  # first-write order


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_conformance_programs_match_the_tree_walk(name):
    scenario = WORKLOADS[name]
    program = parse(scenario.source, name=name)
    _assert_matches_tree_walk(program, scenario.params)


@st.composite
def nest_sources(draw):
    """1-3 statements over A[40] and B[12][12], depth 1-2, sharing one
    nest or one nest each; bounds may use the outer variable."""
    nstmts = draw(st.integers(1, 3))
    shared = draw(st.booleans())
    lines = ["array A[40]", "array B[12][12]"]
    offset = st.integers(-1, 3)

    def ref(depth, v1, v2):
        if depth == 2 and draw(st.booleans()):
            return f"B[{v1} + {draw(offset)}][{v2} + {draw(offset)}]"
        return f"A[{v1} + {draw(offset)}]"

    def rhs(depth, v1, v2):
        terms = [ref(depth, v1, v2) for _ in range(draw(st.integers(1, 3)))]
        ops = [draw(st.sampled_from([" + ", " - ", " * ", " / "])) for _ in terms]
        text = terms[0] + "".join(o + t for o, t in zip(ops[1:], terms[1:]))
        if draw(st.booleans()):
            text = f"f({text}, {v1})"
        return text + f" + {draw(st.integers(0, 3))}"

    def statement(k, depth, v1, v2, pad):
        lhs = ref(depth, v1, v2)
        if draw(st.booleans()):
            cond = f"{ref(depth, v1, v2)} > {draw(st.sampled_from([1, 2]))}"
            return [f"{pad}if {cond} then", f"{pad}  s{k}: {lhs} = {rhs(depth, v1, v2)}"]
        return [f"{pad}s{k}: {lhs} = {rhs(depth, v1, v2)}"]

    def nest(k0, count, tag):
        depth = draw(st.integers(1, 2))
        v1, v2 = f"i{tag}", f"j{tag}"
        out = [f"for {v1} = 1 to N do"]
        pad = "  "
        if depth == 2:
            low = draw(st.sampled_from(["1", f"{v1} - 1", "2"]))
            out.append(f"  for {v2} = {low} to 6 do")
            pad = "    "
        for k in range(k0, k0 + count):
            out.extend(statement(k, depth, v1, v2, pad))
        return out

    if shared:
        lines.extend(nest(1, nstmts, 0))
    else:
        for k in range(1, nstmts + 1):
            lines.extend(nest(k, 1, k))
    raw = draw(st.lists(st.integers(0, nstmts - 1), max_size=1))
    return "\n".join(lines) + "\n", draw(st.integers(1, 8)), raw


class TestCompiledNest:
    @settings(max_examples=60, deadline=None)
    @given(nest_sources())
    @example((  # the product overflows to inf before the call to f
        "array A[40]\narray B[12][12]\n"
        "for i1 = 1 to N do\n  s1: A[i1 + 0] = A[i1 + 0] + 0\n"
        "for i2 = 1 to N do\n  for j2 = 1 to 6 do\n"
        "    s2: A[i2 + 3] = f(A[i2 + 2] * A[i2 + 3] + A[i2 + 0], i2) + 0\n",
        6, [],
    ))
    def test_random_nests_match_the_tree_walk(self, case):
        source, n, raw = case
        program = parse(source)
        for k in raw:
            # a statement built from a raw callable: the nest calls fn
            program.statements()[k].fn_spec = None
        with np.errstate(all="ignore"):
            _assert_matches_tree_walk(program, {"N": n})

    def test_raw_callable_sees_the_tree_walks_env(self):
        program = parse(
            "array X[20]\n"
            "for i = 1 to 3 do\n"
            "  s1: X[i] = X[i] + 1\n"
            "for t = 0 to 1 do\n"
            "  for j = 2 to 4 do\n"
            "    s2: X[j] = X[j - 1] * 2\n"
            "s3: X[0] = X[5] + 1\n"
        )
        for stmt in program.statements()[1:]:
            stmt.fn_spec = None
            stmt.fn = (
                lambda values, env, _f=stmt.fn:
                seen.append(sorted(env.items())) or _f(values, env)
            )
        seen = []
        run_traced(program, {"M": 7})
        want, seen = seen, []
        run(program, {"M": 7})
        assert seen == want
        assert want[0] == [("M", 7), ("j", 2), ("t", 0)]
        assert want[-1] == [("M", 7)]

    def test_nest_is_cached_until_finalize(self):
        program = parse(WORKLOADS["fig2"].source)
        params = WORKLOADS["fig2"].params
        run(program, params)
        live_out_writes(program, params)
        compiled = program._run_nest
        assert compiled is not None
        assert program._live_out_nest is not None
        loaded = pickle.loads(pickle.dumps(program))
        assert loaded._run_nest is None and loaded._live_out_nest is None
        program.finalize()
        assert program._run_nest is None and program._live_out_nest is None
        run(program, params)
        assert program._run_nest is not None
        assert program._run_nest is not compiled

    def test_caller_arrays_are_mutated_and_returned(self):
        program = parse(WORKLOADS["pipe"].source)
        params = WORKLOADS["pipe"].params
        arrays = allocate_arrays(program, params, seed=5)
        before = {k: v.copy() for k, v in arrays.items()}
        out = run(program, params, arrays=arrays)
        assert out is arrays
        assert any(
            not np.array_equal(before[k], arrays[k]) for k in arrays
        )
