"""Stable serialization of compile artifacts (repro.core.serialize).

The cache's correctness rests on three properties tested here: results
round-trip through bytes bit-identically (including the executable node
program), the canonical rendering is deterministic across compiles, and
version skew or damage raises ``SerializeError`` (which the disk cache
treats as a miss) instead of yielding a wrong artifact.
"""

import hashlib
import pickle

import pytest

from repro import block_loop, check_against_sequential, parse
from repro.codegen import SPMDOptions
from repro.codegen.spmd import ANALYSIS_FIELDS
from repro.core import (
    SCHEMA_VERSION,
    SerializeError,
    canonical_bytes,
    compile_distributed,
    dump_result,
    job_key,
    load_result,
    results_equal,
)
from repro.core.serialize import (
    CANONICAL_VERSION,
    _canon,
    check_program_picklable,
)
from repro.decomp import block, owner_computes
from repro.ir import Statement
from repro.runtime.chaos import WORKLOADS as CONFORMANCE

FIG2 = """
array X[N + 1]
assume N >= 3
assume T >= 0
for t = 0 to T do
  for i = 3 to N do
    X[i] = X[i - 3]
"""

FIG8 = """
array X[N + 1]
assume N >= 3
assume T >= 0
for t = 0 to T do
  for i = 3 to N do
    X[i] = f(X[i], X[i - 1], X[i - 2], X[i - 3])
"""


def _compiled(src, block=16, options=None):
    program = parse(src, name="unit")
    stmt = program.statements()[0]
    comps = {stmt.name: block_loop(stmt, ["i"], [block])}
    return program, comps, compile_distributed(
        program, comps, options=options
    )


class TestRoundTrip:
    def test_round_trip_is_bit_identical(self):
        _, _, result = _compiled(FIG2)
        clone = load_result(dump_result(result))
        assert results_equal(result, clone)
        assert clone.spmd.c_text == result.spmd.c_text
        assert clone.spmd.source == result.spmd.source
        assert clone.schema_version == SCHEMA_VERSION

    def test_round_trip_preserves_poly_stats_and_timing(self):
        _, _, result = _compiled(FIG2)
        clone = load_result(dump_result(result))
        assert clone.poly_stats == result.poly_stats
        assert clone.compile_seconds == result.compile_seconds

    def test_reloaded_node_program_executes(self):
        """The node function is rebuilt from source; the rebuilt
        program must still validate against sequential execution."""
        _, comps, result = _compiled(FIG2)
        clone = load_result(dump_result(result))
        outcome = check_against_sequential(
            clone.spmd, comps, {"N": 40, "T": 1, "P": 3}
        )
        assert outcome.makespan > 0

    def test_opaque_call_statements_round_trip(self):
        """fig8's f(...) call parses to an fn_spec like any other RHS."""
        _, comps, result = _compiled(FIG8)
        clone = load_result(dump_result(result))
        assert results_equal(result, clone)
        outcome = check_against_sequential(
            clone.spmd, comps, {"N": 24, "T": 1, "P": 2}
        )
        assert outcome.makespan > 0


class TestEquality:
    def test_recompile_is_canonical_equal(self):
        """Two fresh compiles of the same job render identically --
        fresh-name counters reset per compile, interning history does
        not leak into the canonical form."""
        _, _, a = _compiled(FIG2)
        _, _, b = _compiled(FIG2)
        assert results_equal(a, b)
        assert canonical_bytes(a) == canonical_bytes(b)

    def test_different_jobs_are_not_equal(self):
        _, _, a = _compiled(FIG2, block=16)
        _, _, b = _compiled(FIG2, block=32)
        assert not results_equal(a, b)

    def test_options_change_inequality(self):
        _, _, a = _compiled(FIG2)
        _, _, b = _compiled(FIG2, options=SPMDOptions(aggregate=False))
        assert not results_equal(a, b)


class TestJobKey:
    def test_same_job_same_key(self):
        pa = parse(FIG2, name="unit")
        sa = pa.statements()[0]
        ca = {sa.name: block_loop(sa, ["i"], [16])}
        pb = parse(FIG2, name="unit")
        sb = pb.statements()[0]
        cb = {sb.name: block_loop(sb, ["i"], [16])}
        assert job_key(pa, ca) == job_key(pb, cb)

    def test_block_size_changes_key(self):
        program = parse(FIG2, name="unit")
        stmt = program.statements()[0]
        k16 = job_key(program, {stmt.name: block_loop(stmt, ["i"], [16])})
        k32 = job_key(program, {stmt.name: block_loop(stmt, ["i"], [32])})
        assert k16 != k32

    def test_options_change_key(self):
        program = parse(FIG2, name="unit")
        stmt = program.statements()[0]
        comps = {stmt.name: block_loop(stmt, ["i"], [16])}
        assert job_key(program, comps) != job_key(
            program, comps, options=SPMDOptions(multicast=False)
        )
        # explicit defaults == omitted options
        assert job_key(program, comps) == job_key(
            program, comps, options=SPMDOptions()
        )


def _fig2_request(name="unit"):
    program = parse(FIG2, name=name)
    stmt = program.statements()[0]
    return program, {stmt.name: block_loop(stmt, ["i"], [16])}


def _unmemoized_key(program, comps):
    """The key as one ``repr`` of the whole request, nothing kept."""
    return repr((
        "job", CANONICAL_VERSION, _canon(program),
        tuple((name, _canon(comps[name])) for name in sorted(comps)),
        (), _canon(SPMDOptions()),
    ))


class TestProgramKeyMemo:
    """job_key keeps the program's rendering on the Program; the memo
    must never change a key."""

    def test_memoized_key_equals_a_fresh_parse_and_one_repr(self):
        program, comps = _fig2_request()
        first = job_key(program, comps)
        assert program._key_text is not None
        assert job_key(program, comps) == first
        assert job_key(*_fig2_request()) == first
        assert first == _unmemoized_key(program, comps)

    def test_finalize_drops_the_memo(self):
        program, comps = _fig2_request()
        job_key(program, comps)
        program.name = "renamed"
        program.finalize()
        assert "_key_text" not in vars(program)
        assert job_key(program, comps) == job_key(
            *_fig2_request(name="renamed")
        )

    def test_pickled_program_carries_no_memo_and_keeps_its_key(self):
        program, comps = _fig2_request()
        key = job_key(program, comps)
        clone = pickle.loads(pickle.dumps(program))
        assert "_key_text" not in vars(clone)
        assert job_key(clone, comps) == key


#: the loop blocked in each statement of a conformance program, in
#: statement order (LU blocks its rows, like its ``onto`` decomposition)
_BLOCKED_LOOP = {
    "fig2": ("i",),
    "fig8": ("i",),
    "lu": ("i2", "i2"),
    "pipe": ("i", "j"),
    "stencil": ("i",),
}

_KEY_OPTIONS = {
    "default": None,
    "scalar": SPMDOptions(vectorize=False),
    "unaggregated": SPMDOptions(aggregate=False),
}

#: program -> {"<block>/<options>": sha256 of job_key, first 16 hex
#: digits}; recorded before job_key was memoized.  A cache directory
#: filled by any earlier build addresses its results by these keys, so
#: a moved pin orphans every stored result.
RECORDED_KEYS = {
    "fig2": {
        "16/default": "7342c1cf98e5b0a4",
        "16/scalar": "4ac566c645b86769",
        "16/unaggregated": "d811ebd63da8ca23",
        "32/default": "e905737b5d7a8904",
        "32/scalar": "6a4717d804192ed2",
        "32/unaggregated": "efa9cb6a43785353",
    },
    "fig8": {
        "16/default": "10a04e07e1dea217",
        "16/scalar": "a2e661860d636c2b",
        "16/unaggregated": "34d4bcb9c81414f8",
        "32/default": "fae5913014931570",
        "32/scalar": "48006295164c4217",
        "32/unaggregated": "09c9891edfcd1cc7",
    },
    "lu": {
        "16/default": "6ea6c6b0776c7e16",
        "16/scalar": "78939ffc48e64e81",
        "16/unaggregated": "e325b2bc8f334503",
        "32/default": "50ebb99f1f3899de",
        "32/scalar": "b858335968fa961e",
        "32/unaggregated": "70e39584b38cca9d",
    },
    "pipe": {
        "16/default": "f3200e73d7bba332",
        "16/scalar": "23117747c80d9553",
        "16/unaggregated": "bfd35640f378d575",
        "32/default": "0bbc534ca44b7e5e",
        "32/scalar": "6d8e670358cd722c",
        "32/unaggregated": "5713b2902b628103",
    },
    "stencil": {
        "16/default": "001e1ef59ca1a223",
        "16/scalar": "94fc6fe3f0e43d2b",
        "16/unaggregated": "1aae8007f04bf9a8",
        "32/default": "ee889c5cb7be84b0",
        "32/scalar": "9b887e6b60edde82",
        "32/unaggregated": "c4ede75f56255d9a",
    },
}


def _blocked_job(name, block_size):
    """A conformance program with its loops blocked by ``block_size``,
    every statement on one processor space."""
    scenario = CONFORMANCE[name]
    program = parse(scenario.source, name=scenario.name)
    comps, space = {}, None
    for stmt, loop in zip(program.statements(), _BLOCKED_LOOP[name]):
        comp = block_loop(stmt, [loop], [block_size], space=space)
        space = comp.space
        comps[stmt.name] = comp
    return program, comps


def _digest(key):
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]


class TestPinnedKeys:
    """Request keys address stored results, so they must never move."""

    @pytest.mark.parametrize("name", sorted(RECORDED_KEYS))
    def test_conformance_keys_are_pinned(self, name):
        got = {}
        for block_size in (16, 32):
            for label, options in _KEY_OPTIONS.items():
                program, comps = _blocked_job(name, block_size)
                got[f"{block_size}/{label}"] = _digest(
                    job_key(program, comps, options=options)
                )
        assert got == RECORDED_KEYS[name]

    def test_owner_computes_key_with_initial_data_is_pinned(self):
        scenario = CONFORMANCE["stencil"]
        program = parse(scenario.source, name=scenario.name)
        data = {
            "A": block(program.arrays["A"], [8], overlap=[(1, 1)]),
            "B": block(program.arrays["B"], [8]),
        }
        comps = {
            stmt.name: owner_computes(stmt, data[stmt.lhs.array.name])
            for stmt in program.statements()
        }
        assert _digest(
            job_key(program, comps, initial_data=data)
        ) == "bede64a0d9479ada"


class TestSchemaGuard:
    def test_truncated_bytes_raise(self):
        _, _, result = _compiled(FIG2)
        blob = dump_result(result)
        with pytest.raises(SerializeError):
            load_result(blob[: len(blob) // 2])

    def test_garbage_bytes_raise(self):
        with pytest.raises(SerializeError):
            load_result(b"not an artifact")

    def test_schema_mismatch_raises(self):
        _, _, result = _compiled(FIG2)
        payload = pickle.loads(dump_result(result))
        payload["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(SerializeError, match="schema"):
            load_result(pickle.dumps(payload))

    def test_payload_without_schema_raises(self):
        with pytest.raises(SerializeError):
            load_result(pickle.dumps({"spmd": {}}))

    def test_raw_callable_statement_is_uncacheable(self):
        program = parse(FIG2, name="unit")
        stmt = program.statements()[0]
        stmt.fn_spec = None  # as if built from a raw Python callable
        with pytest.raises(SerializeError, match="fn_spec"):
            check_program_picklable(program)


class TestStatementPickling:
    def test_parsed_statement_round_trips_executable(self):
        program = parse(FIG8, name="unit")
        stmt = program.statements()[0]
        clone = pickle.loads(pickle.dumps(stmt))
        assert isinstance(clone, Statement)
        assert clone.fn is not None
        values = [2.0, 3.0, 4.0, 5.0]
        assert clone.fn(values, {}) == stmt.fn(values, {})


def _analysis_loaded(spmd):
    return [spmd.is_loaded(name) for name in ANALYSIS_FIELDS]


def _served_length(blob):
    """Byte length of the served record at the head of ``blob``."""
    return len(blob) - pickle.loads(blob)["analysis_bytes"]


class TestSplitArtifact:
    """A blob is a served record followed by the analysis record; a load
    decodes only the first, the rest waits for its first reader."""

    def test_load_decodes_only_the_served_record(self):
        _, _, fresh = _compiled(FIG2)
        clone = load_result(dump_result(fresh))
        assert _analysis_loaded(clone.spmd) == [False] * 5
        assert not clone.spmd.is_loaded("node")
        assert clone.spmd.source == fresh.spmd.source
        assert clone.spmd.c_text == fresh.spmd.c_text
        assert clone.spmd.commset_count == len(fresh.spmd.commsets)
        assert _analysis_loaded(clone.spmd) == [False] * 5

    def test_first_analysis_read_decodes_every_field_and_equals_fresh(self):
        _, _, fresh = _compiled(FIG2)
        clone = load_result(dump_result(fresh))
        clone.spmd.plans
        assert _analysis_loaded(clone.spmd) == [True] * 5
        assert results_equal(clone, fresh)
        # the encoded analysis bytes are dropped once decoded
        assert "_analysis" not in vars(clone.spmd)
        assert not clone.spmd.is_loaded("node")

    def test_a_read_that_loses_the_decode_race_gets_the_field(self):
        """A thread whose lookup missed a field can reach the lock
        after another thread decoded the analysis record; it must get
        the decoded field, not an AttributeError."""
        _, _, fresh = _compiled(FIG2)
        spmd = load_result(dump_result(fresh)).spmd
        spmd.plans
        assert type(spmd).__getattr__(spmd, "program") is spmd.program

    def test_dump_of_a_lazy_load_round_trips(self):
        _, comps, fresh = _compiled(FIG2)
        lazy = load_result(dump_result(fresh))
        again = load_result(dump_result(lazy))
        assert results_equal(again, fresh)
        assert again.poly_stats == fresh.poly_stats
        assert again.compile_seconds == fresh.compile_seconds
        outcome = check_against_sequential(
            again.spmd, comps, {"N": 40, "T": 1, "P": 3}
        )
        assert outcome.makespan > 0

    def test_node_is_built_once_on_first_use(self, monkeypatch):
        from repro.codegen import spmd as spmd_module

        builds = []
        real = spmd_module.node_from_source

        def counting(source):
            builds.append(source)
            return real(source)

        monkeypatch.setattr(spmd_module, "node_from_source", counting)
        _, comps, fresh = _compiled(FIG2)
        assert builds == []  # a fresh compile builds node eagerly
        clone = load_result(dump_result(fresh))
        assert builds == []
        node = clone.node
        assert clone.spmd.node is node
        outcome = check_against_sequential(
            clone.spmd, comps, {"N": 40, "T": 1, "P": 3}
        )
        assert outcome.makespan > 0
        assert builds == [fresh.spmd.source]

    @pytest.mark.parametrize(
        "cut", ["served_end", "analysis_middle", "last_byte"]
    )
    def test_blob_cut_inside_the_analysis_record_raises_at_load(self, cut):
        _, _, fresh = _compiled(FIG2)
        blob = dump_result(fresh)
        head = _served_length(blob)
        end = {
            "served_end": head,
            "analysis_middle": (head + len(blob)) // 2,
            "last_byte": len(blob) - 1,
        }[cut]
        with pytest.raises(SerializeError, match="analysis record"):
            load_result(blob[:end])

    def test_trailing_bytes_raise_at_load(self):
        _, _, fresh = _compiled(FIG2)
        with pytest.raises(SerializeError, match="analysis record"):
            load_result(dump_result(fresh) + b"\0")


def _schema1_blob(result):
    """``result`` in the schema-1 layout: one pickle holding everything."""
    spmd = result.spmd
    return pickle.dumps({
        "schema": 1,
        "compile_seconds": result.compile_seconds,
        "poly_stats": dict(result.poly_stats),
        "spmd": {
            "program": spmd.program,
            "space": spmd.space,
            "tree": spmd.tree,
            "source": spmd.source,
            "c_text": spmd.c_text,
            "commsets": spmd.commsets,
            "plans": spmd.plans,
        },
    }, protocol=4)


class TestSchemaOneBlobs:
    def test_schema1_blob_is_refused(self):
        _, _, fresh = _compiled(FIG2)
        with pytest.raises(SerializeError, match="schema 1"):
            load_result(_schema1_blob(fresh))

    def test_schema1_entry_in_the_disk_cache_is_a_miss_that_recompiles(
        self, tmp_path
    ):
        from repro.polyhedra import diskcache, stats

        program, comps, fresh = _compiled(FIG2)
        cache_dir = str(tmp_path / "cache")
        diskcache.DiskCache(cache_dir).put_bytes(
            "result", job_key(program, comps), _schema1_blob(fresh)
        )
        before = stats.snapshot()
        first = compile_distributed(program, comps, cache_dir=cache_dir)
        assert not first.from_cache
        assert stats.delta_since(before)["result_cache_misses"] == 1
        assert results_equal(first, fresh)
        # the recompile replaced the stale entry
        second = compile_distributed(program, comps, cache_dir=cache_dir)
        assert second.from_cache
        assert results_equal(second, fresh)


def test_concurrent_first_reads_build_each_deferred_field_once():
    import sys
    import threading

    _, _, fresh = _compiled(FIG8)
    blob = dump_result(fresh)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(5):
            spmd = load_result(blob).spmd
            barrier = threading.Barrier(8)
            seen = []

            def read():
                barrier.wait()
                seen.append((spmd.program, spmd.commsets, spmd.node))

            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert len(seen) == 8
            assert all(
                got[0] is spmd.program and got[1] is spmd.commsets
                and got[2] is spmd.node
                for got in seen
            )
    finally:
        sys.setswitchinterval(interval)
