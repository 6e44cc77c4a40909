"""End-to-end compiler driver: the public entry point.

Glues the phases together the way Section 7 describes the prototype:
build Last Write Trees for every read, derive communication sets from
the computation decompositions (Theorems 3/4), optimize (Section 6),
generate and merge SPMD code (Section 5), and hand back an executable
node program plus all intermediate artifacts for inspection.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from typing import TYPE_CHECKING

from ..decomp import CompDecomp, DataDecomp, owner_computes
from ..ir import Program
from .commsets import CommSet, enumerate_commset
from .serialize import SCHEMA_VERSION

if TYPE_CHECKING:  # avoid a circular import; codegen depends on core
    from ..codegen import SPMD, SPMDOptions


@dataclass
class CommReport:
    """Analytic communication counts for one machine configuration.

    Derived from the communication sets themselves (not from running
    the simulator): number of value transfers and number of messages
    under the chosen aggregation plans.
    """

    transfers: int = 0
    messages: int = 0
    per_set: Dict[str, Dict[str, int]] = field(default_factory=dict)


@dataclass
class CompileResult:
    spmd: "SPMD"
    compile_seconds: float
    #: polyhedral-engine counter deltas for this compilation (see
    #: :mod:`repro.polyhedra.stats`); ``stats.summary(result.poly_stats)``
    #: renders them the way the CLI's ``--poly-stats`` flag does.
    poly_stats: Dict[str, int] = field(default_factory=dict)
    #: artifact-format version this result serializes under (see
    #: :mod:`repro.core.serialize`); cached entries with a different
    #: schema are unreachable by construction.  Defaults to the real
    #: schema constant so bumping SCHEMA_VERSION restamps results.
    schema_version: int = SCHEMA_VERSION
    #: True when this result was served from the persistent cache
    #: rather than compiled in this call.
    from_cache: bool = False

    @property
    def c_text(self) -> str:
        return self.spmd.c_text

    @property
    def node(self):
        return self.spmd.node


def compile_distributed(
    program: Program,
    comps: Dict[str, CompDecomp],
    initial_data: Optional[Dict[str, DataDecomp]] = None,
    options: Optional["SPMDOptions"] = None,
    cache_dir: Optional[str] = None,
) -> CompileResult:
    """Compile with explicit computation decompositions (the paper's
    primary, value-centric mode).

    ``cache_dir`` activates the persistent content-addressed cache for
    the duration of this call (FM projections, feasibility verdicts and
    the whole result flow through it); when omitted, whatever cache the
    context already activated (server mode) is used.
    Cached results are bit-identical to fresh compiles -- see
    ``repro.core.serialize.results_equal`` and DESIGN.md section 15.
    """
    from ..codegen import generate_spmd
    from ..polyhedra import diskcache, stats

    from . import serialize

    with diskcache.using(cache_dir):
        disk = diskcache.active()
        before = stats.snapshot()
        start = time.perf_counter()
        key: Optional[str] = None
        if disk is not None:
            try:
                key = serialize.job_key(
                    program, comps, initial_data, options
                )
            except serialize.SerializeError:
                key = None  # uncacheable request; compile normally
            if key is not None:
                blob = disk.get_bytes("result", key)
                if blob is not None:
                    try:
                        hit = serialize.load_result(blob)
                    except serialize.SerializeError:
                        pass  # stale/corrupt artifact: fall through
                    else:
                        stats.STATS.result_cache_hits += 1
                        hit.compile_seconds = (
                            time.perf_counter() - start
                        )
                        hit.poly_stats = stats.delta_since(before)
                        hit.from_cache = True
                        return hit
                stats.STATS.result_cache_misses += 1
        spmd = generate_spmd(
            program, comps, initial_data=initial_data, options=options
        )
        result = CompileResult(
            spmd,
            time.perf_counter() - start,
            poly_stats=stats.delta_since(before),
            schema_version=serialize.SCHEMA_VERSION,
        )
        if disk is not None and key is not None:
            try:
                disk.put_bytes(
                    "result", key, serialize.dump_result(result)
                )
            except serialize.SerializeError:
                pass  # opaque statement fns etc.: simply not cached
        return result


def compile_owner_computes(
    program: Program,
    data: Dict[str, DataDecomp],
    options: Optional["SPMDOptions"] = None,
    cache_dir: Optional[str] = None,
) -> CompileResult:
    """Compile from user-specified data decompositions (HPF-style input).

    Computation decompositions follow from the owner-computes rule
    (Theorem 1); the same value-centric machinery then generates and
    optimizes communication -- the paper's point that its techniques
    subsume the location-centric systems' inputs.
    """
    comps: Dict[str, CompDecomp] = {}
    for stmt in program.statements():
        decomp = data.get(stmt.lhs.array.name)
        if decomp is None:
            raise ValueError(
                f"no data decomposition for array "
                f"{stmt.lhs.array.name!r} written by {stmt.name}"
            )
        comps[stmt.name] = owner_computes(stmt, decomp)
    return compile_distributed(
        program, comps, initial_data=data, options=options,
        cache_dir=cache_dir,
    )


def communication_report(
    spmd: "SPMD", params: Mapping[str, int]
) -> CommReport:
    """Count transfers and messages analytically from the comm sets."""
    report = CommReport()
    plans_by_label = {p.commset.label: p for p in spmd.plans}
    for cs in spmd.commsets:
        elements = enumerate_commset(cs, params)
        transfers = len(elements)
        plan = plans_by_label.get(cs.label)
        if plan is None or not plan.send_order:
            messages = transfers
        else:
            prefix_vars = plan.send_order[: plan.send_msg_prefix]
            messages = len(
                {
                    tuple(el.get(v) for v in prefix_vars)
                    for el in elements
                }
            )
        report.transfers += transfers
        report.messages += messages
        report.per_set[cs.label] = {
            "transfers": transfers,
            "messages": messages,
        }
    return report
