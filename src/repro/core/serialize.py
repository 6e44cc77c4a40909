"""Stable serialization of compile artifacts (the cache wire format).

Three related jobs live here, all keyed off the same canonical forms the
polyhedral engine already computes:

* :func:`dump_result` / :func:`load_result` -- round-trip a whole
  :class:`~repro.core.compiler.CompileResult` (including its
  ``poly_stats``) through bytes with an explicit ``SCHEMA_VERSION``.
  A blob is two pickles back to back: a small *served* record (node
  source, C text, comm-set count, counters) and the *analysis* record
  (program, space, CAST tree, comm sets, plans).  A load decodes only
  the served record; the analysis record is decoded on the first read
  of an analysis field.  The generated node function is a closure and
  cannot be pickled; it is stored as its source text and built from it
  on first use, exactly the way the original was built.  Statements
  carry their parsed RHS AST (``fn_spec``) so their executable ``fn``
  closures rebuild when the analysis record is decoded.

* :func:`canonical_bytes` / :func:`results_equal` -- a *deterministic*
  rendering of everything semantically meaningful in a result (node
  source, C text, communication sets, plans, program, space).  Raw
  pickle bytes are not canonical (they encode object-identity sharing,
  which varies with interning history), so cache tests assert
  bit-identity on this rendering instead.  Timing and engine counters
  are deliberately excluded: a warm compile does less work but must
  produce the same artifacts.

* :func:`job_key` -- the canonical text of a compile *request*
  ``(program, comps, initial_data, options)``.  Hashed together with
  the pipeline fingerprint it content-addresses whole-result entries in
  the persistent cache (DESIGN.md section 15).
"""

from __future__ import annotations

import io
import pickle
from dataclasses import fields as dc_fields
from functools import partial
from typing import Dict

#: bump whenever the meaning or layout of serialized artifacts changes;
#: a mismatch on load raises :class:`SerializeError`, which the disk
#: cache treats as a miss.  2: the served/analysis two-record layout.
#: 3: node programs call range kernels for loops kept in scalar order,
#: so a store written by the older emitter is orphaned, not served.
SCHEMA_VERSION = 3

#: version of the canonical renderings (:func:`canonical_bytes`,
#: :func:`job_key`); independent of the blob layout, so a layout change
#: leaves every artifact digest and request key as it was.
CANONICAL_VERSION = 1

_PICKLE_PROTOCOL = 4


class SerializeError(Exception):
    """Artifact bytes cannot be decoded (wrong schema, truncation, or a
    result that cannot round-trip, e.g. statements built from raw
    Python callables with no ``fn_spec``)."""


# ---------------------------------------------------------------------------
# canonical rendering
# ---------------------------------------------------------------------------

#: the compiler classes :func:`_canon` dispatches on, in the order
#: :func:`_bind_classes` returns them; bound on the first call because
#: importing them at module level would make core <- codegen a cycle
_CLASSES = None


def _bind_classes():
    """Resolve :data:`_CLASSES` once per process.  Two threads racing
    on the first call bind the same classes, so the fill needs no lock."""
    global _CLASSES
    from ..codegen.spmd import SPMDOptions
    from ..decomp.computation import CompDecomp, CompRule
    from ..decomp.data import DataDecomp, DimRule
    from ..decomp.space import Extent, ProcSpace
    from ..ir.arrays import Access, Array
    from ..ir.loops import Loop, Statement
    from ..ir.program import Program
    from ..polyhedra.affine import LinExpr
    from ..polyhedra.system import System

    _CLASSES = (
        SPMDOptions, CompDecomp, CompRule, DataDecomp, DimRule, Extent,
        ProcSpace, Access, Array, Loop, Statement, Program, LinExpr,
        System,
    )
    return _CLASSES


def _canon(obj):
    """Render ``obj`` as nested plain tuples -- identity-free and stable.

    Every compiler object is reduced to its canonical mathematical
    content (LinExpr interning keys, System canonical keys, names,
    integers).  Statements and loops are rendered *shallowly* (loops as
    their bound expressions, no body recursion) because the structures
    referencing them -- communication sets, decompositions -- only
    depend on that much, and the full nest is rendered once via the
    program itself.  The classes it tests against are bound once per
    process (:data:`_CLASSES`), not imported on every call.
    """
    (
        SPMDOptions, CompDecomp, CompRule, DataDecomp, DimRule, Extent,
        ProcSpace, Access, Array, Loop, Statement, Program, LinExpr,
        System,
    ) = _CLASSES or _bind_classes()

    if obj is None or isinstance(obj, (int, float, str, bool, bytes)):
        return obj
    if isinstance(obj, LinExpr):
        return ("lin", obj.key)
    if isinstance(obj, System):
        return ("sys", obj.canonical_key())
    if isinstance(obj, Extent):
        return ("ext", obj.numerator.key, obj.divisor)
    if isinstance(obj, ProcSpace):
        return (
            "space",
            tuple(_canon(v) for v in obj.vdims),
            tuple(p.key for p in obj.pdims),
        )
    if isinstance(obj, Array):
        return ("arr", obj.name, tuple(d.key for d in obj.dims))
    if isinstance(obj, Access):
        return (
            "acc", obj.array.name, tuple(e.key for e in obj.indices)
        )
    if isinstance(obj, Statement):
        return (
            "stmt", obj.name, obj.text, _canon(obj.lhs),
            tuple(_canon(r) for r in obj.reads), obj.guard_reads_lhs,
            tuple(obj.path),
            tuple(
                (lp.var, lp.lower.key, lp.upper.key) for lp in obj.loops
            ),
        )
    if isinstance(obj, Loop):
        return ("loop", obj.var, obj.lower.key, obj.upper.key)
    if isinstance(obj, Program):
        return (
            "prog", obj.name, tuple(obj.params),
            ("sys", obj.assumptions.canonical_key()),
            tuple(
                _canon(obj.arrays[k]) for k in sorted(obj.arrays)
            ),
            obj.pretty(),
            tuple(_canon(s) for s in obj.statements()),
        )
    if isinstance(obj, CompRule):
        return ("crule", obj.expr.key, obj.block)
    if isinstance(obj, CompDecomp):
        return (
            "comp", _canon(obj.space),
            tuple(_canon(r) for r in obj.rules),
        )
    if isinstance(obj, DimRule):
        return (
            "drule", obj.expr.key, obj.block,
            obj.overlap_low, obj.overlap_high,
        )
    if isinstance(obj, DataDecomp):
        return (
            "data", _canon(obj.array), _canon(obj.space),
            tuple(_canon(r) for r in obj.rules),
        )
    if isinstance(obj, SPMDOptions):
        return (
            "opts",
            tuple(
                (f.name, getattr(obj, f.name))
                for f in dc_fields(obj)
            ),
        )
    if isinstance(obj, (tuple, list)):
        return tuple(_canon(x) for x in obj)
    if isinstance(obj, dict):
        return tuple(
            (k, _canon(obj[k])) for k in sorted(obj)
        )
    # parser expression AST nodes and any other plain dataclass
    if hasattr(obj, "__dataclass_fields__"):
        return (
            type(obj).__name__,
        ) + tuple(
            (f.name, _canon(getattr(obj, f.name)))
            for f in dc_fields(obj)
        )
    raise SerializeError(
        f"no canonical rendering for {type(obj).__name__}"
    )


def canonical_bytes(result) -> bytes:
    """Deterministic bytes covering everything semantic in ``result``.

    Two results with equal canonical bytes generate the same node
    program, the same C text, the same communication structure and run
    identically; the rendering is stable across processes, machines and
    interning history.  Timing (``compile_seconds``) and engine
    counters (``poly_stats``) are excluded on purpose.
    """
    spmd = result.spmd
    doc = (
        "canon", CANONICAL_VERSION,
        ("source", spmd.source),
        ("c_text", spmd.c_text),
        ("program", _canon(spmd.program)),
        ("space", _canon(spmd.space)),
        ("commsets", tuple(_canon(cs) for cs in spmd.commsets)),
        ("plans", tuple(_canon(p) for p in spmd.plans)),
    )
    return repr(doc).encode("utf-8")


def results_equal(a, b) -> bool:
    """Bit-for-bit artifact equality (the cache tests' oracle)."""
    return canonical_bytes(a) == canonical_bytes(b)


def job_key(program, comps, initial_data=None, options=None) -> str:
    """Canonical text identifying one compile request.

    Covers the program (structure, statement RHS ASTs via their
    rendered text, assumptions, arrays), the computation decompositions
    (sorted by statement name), the initial data layout and every
    optimization switch -- everything :func:`compile_distributed`'s
    output depends on.  The pipeline fingerprint is *not* included
    here; the disk cache mixes it into the content address separately.

    The text is ``repr`` of the tuple ``("job", CANONICAL_VERSION,
    program, comps, initial_data, options)`` rendered by :func:`_canon`.
    The program's part is rendered once per :class:`Program` and kept
    on it (``Program._key_text``, dropped by ``finalize`` and never
    pickled), so a server handed the same program by its parse memo
    renders only the decompositions and options again.
    """
    if options is None:
        from ..codegen.spmd import SPMDOptions

        options = SPMDOptions()
    program_text = program._key_text
    if program_text is None:
        program_text = program._key_text = repr(_canon(program))
    # the text repr() gives the whole tuple, with the program's part
    # spliced in from the memo
    return "('job', %r, %s, %r, %r, %r)" % (
        CANONICAL_VERSION,
        program_text,
        tuple((name, _canon(comps[name])) for name in sorted(comps)),
        tuple(
            (name, _canon(initial_data[name]))
            for name in sorted(initial_data)
        ) if initial_data else (),
        _canon(options),
    )


# ---------------------------------------------------------------------------
# round-trip serialization
# ---------------------------------------------------------------------------

def check_program_picklable(program) -> None:
    """Raise :class:`SerializeError` if ``program`` cannot cross a
    process boundary (statements built from raw Python callables with
    no ``fn_spec`` recipe to rebuild them)."""
    for stmt in program.statements():
        if stmt.fn_spec is None:
            raise SerializeError(
                f"statement {stmt.name!r} has no fn_spec (built from a "
                "raw Python callable); parse the program through "
                "repro.lang to make it cacheable"
            )


def dump_result(result) -> bytes:
    """Serialize a CompileResult (poly_stats included) to bytes: the
    served record, then the analysis record it records the length of."""
    from ..codegen.spmd import ANALYSIS_FIELDS

    check_program_picklable(result.spmd.program)
    spmd = result.spmd
    try:
        analysis = pickle.dumps(
            {name: getattr(spmd, name) for name in ANALYSIS_FIELDS},
            protocol=_PICKLE_PROTOCOL,
        )
        served = pickle.dumps(
            {
                "schema": SCHEMA_VERSION,
                "compile_seconds": result.compile_seconds,
                "poly_stats": dict(result.poly_stats),
                "source": spmd.source,
                "c_text": spmd.c_text,
                "commset_count": spmd.commset_count,
                "analysis_bytes": len(analysis),
            },
            protocol=_PICKLE_PROTOCOL,
        )
    except Exception as exc:  # unpicklable stowaway
        raise SerializeError(f"cannot serialize result: {exc}") from exc
    return served + analysis


def _decode_analysis(data: bytes) -> Dict:
    try:
        return pickle.loads(data)
    except Exception as exc:
        raise SerializeError(
            f"cannot decode analysis record: {exc}"
        ) from exc


def load_result(data: bytes):
    """Rebuild a CompileResult from :func:`dump_result` bytes.

    Decodes only the served record; the analysis fields decode on first
    read and the node function is built on first use.  Raises
    :class:`SerializeError` on a schema mismatch or a blob whose length
    disagrees with the recorded one -- callers (the disk cache) treat
    that as a miss.
    """
    from ..codegen.spmd import SPMD
    from .compiler import CompileResult

    stream = io.BytesIO(data)
    try:
        served = pickle.Unpickler(stream).load()
    except Exception as exc:
        raise SerializeError(f"cannot decode artifact: {exc}") from exc
    if not isinstance(served, dict) or "schema" not in served:
        raise SerializeError("artifact payload has no schema field")
    if served["schema"] != SCHEMA_VERSION:
        raise SerializeError(
            f"artifact schema {served['schema']} != {SCHEMA_VERSION}"
        )
    analysis = data[stream.tell():]
    if len(analysis) != served["analysis_bytes"]:
        raise SerializeError(
            f"analysis record is {len(analysis)} bytes, expected "
            f"{served['analysis_bytes']}"
        )
    spmd = SPMD.deferred(
        served["source"],
        served["c_text"],
        served["commset_count"],
        partial(_decode_analysis, analysis),
    )
    return CompileResult(
        spmd,
        served["compile_seconds"],
        poly_stats=dict(served["poly_stats"]),
        schema_version=served["schema"],
    )
