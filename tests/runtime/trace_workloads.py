"""The unified conformance matrix: workloads, axes and oracle helpers.

One module owns the grid every conformance suite sweeps --
``(workload, vectorize, backend, transport)`` -- plus the shared
oracle/invariant assertions, so the execution-equivalence, trace,
fault, corruption and local-recovery suites all check the *same*
machine configurations and any divergence is attributable to the
subsystem a suite isolates (and benchmarks/workloads.py mirrors the
same programs).

Axes:

* ``WORKLOADS`` -- the five paper workloads with pinned parameters;
* ``COMBOS`` -- {scalar, vector} x {threads, coop, event};
* ``TRANSPORTS`` -- the two full-service transports, ``reliable``
  (two-sided ARQ) and ``onesided`` (PGAS windows over the same ARQ);
  they must be bit-exact with each other, which is what
  :func:`canonical_trace` makes comparable (a one-sided first
  transmission is traced as ``put`` where two-sided says ``send``).

Helpers: :func:`compiled_spmd` caches compilations across suites
(keyed by workload x vectorize x early_puts), :func:`same_arrays` /
:func:`assert_same_arrays` / :func:`assert_identical_runs` are the
bit-exactness oracles, and :func:`assert_trace_invariants` bundles the
PR 5 accounting identities (decomposition sums to the finish clock,
comm matrix reconciles with ProcStats, no unmatched receives).
"""

import numpy as np

from repro.codegen import SPMDOptions, generate_spmd
from repro.decomp import block_loop, onto
from repro.lang import parse
from repro.polyhedra import var
from repro.runtime.analysis import (
    Decomposition,
    comm_matrix,
    unmatched_receives,
)

FIG2_SRC = """
array X[N + 1]
assume N >= 3
assume T >= 0
for t = 0 to T do
  for i = 3 to N do
    X[i] = X[i - 3]
"""

FIG8_SRC = """
array X[N + 1]
assume N >= 3
assume T >= 0
for t = 0 to T do
  for i = 3 to N do
    X[i] = f(X[i], X[i - 1], X[i - 2], X[i - 3])
"""

LU_SRC = """
array X[N + 1][N + 1]
assume N >= 1
for i1 = 0 to N do
  for i2 = i1 + 1 to N do
    s1: X[i2][i1] = X[i2][i1] / X[i1][i1]
    for i3 = i1 + 1 to N do
      s2: X[i2][i3] = X[i2][i3] - X[i2][i1] * X[i1][i3]
"""

PIPE_SRC = """
array X[N + 1]
array Y[N + 1]
assume N >= 2
for i = 0 to N do
  s1: X[i] = i + 1
for j = 1 to N do
  s2: Y[j] = Y[j] + X[j - 1]
"""

STENCIL_SRC = """
array A[N + 2]
array B[N + 2]
assume N >= 1
for t = 1 to T do
  for i = 1 to N do
    B[i] = (A[i - 1] + A[i] + A[i + 1]) / 3
"""


def fig2_job():
    program = parse(FIG2_SRC, name="figure2")
    stmt = program.statements()[0]
    return program, {stmt.name: block_loop(stmt, ["i"], [16])}


def fig8_job():
    program = parse(FIG8_SRC, name="figure8")
    stmt = program.statements()[0]
    return program, {stmt.name: block_loop(stmt, ["i"], [16])}


def lu_job():
    program = parse(LU_SRC, name="lu")
    comps = {"s1": onto(program.statement("s1"), [var("i2")])}
    comps["s2"] = onto(
        program.statement("s2"), [var("i2")], space=comps["s1"].space
    )
    return program, comps


def pipe_job():
    program = parse(PIPE_SRC, name="pipe")
    s1 = program.statement("s1")
    s2 = program.statement("s2")
    comps = {"s1": block_loop(s1, ["i"], [16])}
    comps["s2"] = block_loop(s2, ["j"], [16], space=comps["s1"].space)
    return program, comps


def stencil_job():
    program = parse(STENCIL_SRC, name="stencil")
    stmt = program.statements()[0]
    return program, {stmt.name: block_loop(stmt, ["i"], [16])}


#: the five conformance compile requests: ``(program, comps)`` at the
#: pinned decomposition (block 16; LU rows ``onto``)
JOBS = {
    "fig2": fig2_job,
    "fig8": fig8_job,
    "lu": lu_job,
    "pipe": pipe_job,
    "stencil": stencil_job,
}


def _builder(job):
    def build(options):
        program, comps = job()
        return generate_spmd(program, comps, options=options)

    return build


#: the paper's workloads x parameter sets used throughout the trace
#: suites (matching test_exec_equivalence.WORKLOADS)
WORKLOADS = {
    "fig2": (_builder(fig2_job), {"N": 70, "T": 2, "P": 3}),
    "fig8": (_builder(fig8_job), {"N": 70, "T": 2, "P": 3}),
    "lu": (_builder(lu_job), {"N": 24, "P": 3}),
    "pipe": (_builder(pipe_job), {"N": 44, "P": 2}),
    "stencil": (_builder(stencil_job), {"N": 64, "T": 3, "P": 2}),
}

#: every backend x codegen combination PR 4 introduced
COMBOS = [
    (vec, backend)
    for vec in (False, True)
    for backend in ("threads", "coop", "event")
]

#: the full-service transports that must agree bit for bit (PR 10);
#: ``direct`` and ``unreliable`` are deliberately absent -- one prices
#: no reliability machinery, the other provides none
TRANSPORTS = ("reliable", "onesided")

#: the full conformance grid: one row per machine configuration
GRID = [
    (name, vec, backend)
    for name in sorted(WORKLOADS)
    for vec, backend in COMBOS
]

#: communication-event kinds: invariant not just across backends but
#: across scalar/vectorized codegen too (vectorization only merges
#: compute events; it must never change what is communicated or when)
COMM_KINDS = (
    "pack",
    "send",
    "put",
    "multicast",
    "retransmit",
    "timeout",
    "ack-lost",
    "recv-wait",
    "fence-wait",
    "recv-complete",
    "unpack",
    "get",
    "mc-hit",
)


def compiled(build):
    """{vectorize: SPMD} for one builder."""
    return {
        vec: build(SPMDOptions(vectorize=vec)) for vec in (False, True)
    }


_COMPILED = {}


def compiled_spmd(name, vectorize=False, early_puts=False):
    """A cached compile of workload ``name`` -- the suites sweep the
    same few programs hundreds of times, so share the artifacts."""
    key = (name, vectorize, early_puts)
    if key not in _COMPILED:
        build, _params = WORKLOADS[name]
        _COMPILED[key] = build(
            SPMDOptions(vectorize=vectorize, early_puts=early_puts)
        )
    return _COMPILED[key]


def canonical_trace(trace, kinds=None):
    """Normalized trace rows with transport-specific verbs canonicalized.

    A first transmission is traced as ``put`` on the one-sided
    transport and ``send`` on two-sided ones; every other field of the
    event (span, charge, tag, peer, words, seq) is identical by
    construction.  Mapping ``put`` back to ``send`` makes onesided and
    reliable traces directly comparable -- any *other* difference is a
    real conformance violation.
    """
    rows = [
        row[:3] + ("send" if row[3] == "put" else row[3],) + row[4:]
        for row in trace.normalized(kinds)
    ]
    rows.sort()
    return rows


def same_arrays(a, b) -> bool:
    """Bit-exact final-array comparison between two RunResults."""
    return all(
        np.array_equal(a.arrays[myp][name], b.arrays[myp][name],
                       equal_nan=True)
        for myp in a.arrays
        for name in a.arrays[myp]
    )


def assert_same_arrays(got, want, label=""):
    assert set(got.arrays) == set(want.arrays), label
    for myp, arrays in want.arrays.items():
        for name, arr in arrays.items():
            assert np.array_equal(
                got.arrays[myp][name], arr, equal_nan=True
            ), f"{label}: array {name} differs on processor {myp}"


def assert_identical_runs(base, other, label=""):
    """The strong oracle: same makespan, arrays and per-proc stats."""
    assert other.makespan == base.makespan, (
        f"{label}: makespan {other.makespan} != {base.makespan}"
    )
    assert_same_arrays(other, base, label)
    assert set(other.stats) == set(base.stats)
    for myp in base.stats:
        assert other.stats[myp] == base.stats[myp], (
            f"{label}: ProcStats differ on processor {myp}:\n"
            f"  base:  {base.stats[myp]}\n"
            f"  other: {other.stats[myp]}"
        )


def assert_trace_invariants(result, label=""):
    """The fault-compatible PR 5 accounting identities."""
    trace = result.trace
    for myp, stats in result.stats.items():
        deco = Decomposition.from_stats(stats)
        assert deco.total() == result.clocks[myp], label
        if result.restarts == 0:
            assert Decomposition.from_trace(trace, myp) == deco, label
    matrix = comm_matrix(trace)
    assert matrix.total_messages == result.total_messages, label
    assert matrix.total_words == result.total_words, label
    for myp, stats in result.stats.items():
        sent = matrix.sent_by(myp)
        assert sent.messages == stats.messages_sent, label
        assert sent.words == stats.words_sent, label
        assert sent.retransmissions == stats.retransmissions, label
    assert unmatched_receives(trace) == [], label
