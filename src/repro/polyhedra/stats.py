"""Engine observability: counters for the polyhedral hot path.

Fourier-Motzkin projection is the hot path of the whole compiler (the
paper's Section 5.1 warns that naive FM floods the system with mostly
redundant constraints), so every benchmark should be able to report
*why* compile time moved.  This module keeps one process-wide set of
counters, incremented by :mod:`repro.polyhedra.fourier_motzkin`,
:mod:`repro.polyhedra.omega`, :mod:`repro.polyhedra.simplify` and
:mod:`repro.codegen.genloops`.

``compile_distributed`` snapshots the counters around a compilation and
exposes the per-compile delta on ``CompileResult.poly_stats``; the CLI
prints the same numbers under ``--poly-stats``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict


@dataclass
class PolyStats:
    """Monotone counters describing polyhedral-engine work."""

    #: Fourier-Motzkin single-variable elimination steps performed.
    eliminations: int = 0
    #: lower x upper bound pairs a naive engine would combine.
    pairs_considered: int = 0
    #: pairs actually combined into a new constraint.
    pairs_materialized: int = 0
    #: pairs skipped by the Imbert-style dominated-bound filter.
    pairs_filtered: int = 0
    #: constraints dropped because a same-direction constraint was tighter.
    subsumed_dropped: int = 0
    #: constraints dropped by the semantic (rational negation) check.
    semantic_dropped: int = 0
    #: calls to :func:`repro.polyhedra.simplify.simplify`.
    simplify_calls: int = 0
    #: projection cache traffic (see fourier_motzkin.projection_cache_*).
    projection_cache_hits: int = 0
    projection_cache_misses: int = 0
    projection_cache_evictions: int = 0
    #: integer-feasibility memo traffic (see omega.integer_feasible).
    feasibility_cache_hits: int = 0
    feasibility_cache_misses: int = 0
    #: persistent disk-cache traffic (see repro.polyhedra.diskcache);
    #: kept separate from the in-memory counters above so ``--poly-stats``
    #: can tell a warm process apart from a warm cache directory.
    disk_cache_hits: int = 0
    disk_cache_misses: int = 0
    disk_cache_evictions: int = 0
    #: whole-CompileResult cache traffic (core.compiler, memory or disk).
    result_cache_hits: int = 0
    result_cache_misses: int = 0
    #: largest constraint count seen in any intermediate system.
    peak_system_size: int = 0
    #: communication sets built / discarded as integer-empty.
    commsets_built: int = 0
    commsets_empty_pruned: int = 0
    #: code generation volume (repro.codegen.genloops).
    codegen_loops_emitted: int = 0
    codegen_guards_emitted: int = 0

    # -- maintenance -------------------------------------------------------

    def observe_system_size(self, size: int) -> None:
        if size > self.peak_system_size:
            self.peak_system_size = size

    def reset(self) -> None:
        for name in _NAMES:
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in _NAMES}

    def delta_since(self, before: Dict[str, int]) -> Dict[str, int]:
        """Counter increments since ``before`` (a prior snapshot).

        ``peak_system_size`` is a high-water mark, not a counter: the
        delta reports the current peak itself.
        """
        out = {
            name: getattr(self, name) - before.get(name, 0)
            for name in _NAMES
        }
        out["peak_system_size"] = self.peak_system_size
        return out


#: the counter names in declaration order, bound once: ``fields()`` is
#: slow enough to show in a warm compile request
_NAMES = tuple(f.name for f in fields(PolyStats))

#: the process-wide counter set
STATS = PolyStats()


def reset() -> None:
    """Zero every counter (does not clear the caches themselves)."""
    STATS.reset()


def snapshot() -> Dict[str, int]:
    return STATS.snapshot()


def delta_since(before: Dict[str, int]) -> Dict[str, int]:
    return STATS.delta_since(before)


def summary(stats: Dict[str, int] | None = None) -> str:
    """Human-readable counter summary (the ``--poly-stats`` output)."""
    s = STATS.snapshot() if stats is None else stats
    pairs = s["pairs_considered"]
    mat = s["pairs_materialized"]
    saved = pairs - mat
    pct = (100.0 * saved / pairs) if pairs else 0.0
    proj_total = s["projection_cache_hits"] + s["projection_cache_misses"]
    proj_rate = (
        100.0 * s["projection_cache_hits"] / proj_total if proj_total else 0.0
    )
    feas_total = s["feasibility_cache_hits"] + s["feasibility_cache_misses"]
    feas_rate = (
        100.0 * s["feasibility_cache_hits"] / feas_total if feas_total else 0.0
    )
    lines = [
        "polyhedral engine statistics",
        f"  FM eliminations:        {s['eliminations']}",
        f"  constraint pairs:       {pairs} considered, "
        f"{mat} materialized ({pct:.1f}% avoided)",
        f"    filtered (Imbert):    {s['pairs_filtered']}",
        f"    subsumed dropped:     {s['subsumed_dropped']}",
        f"    semantic dropped:     {s['semantic_dropped']}",
        f"  projection cache:       {s['projection_cache_hits']} hits / "
        f"{s['projection_cache_misses']} misses ({proj_rate:.1f}% hit rate, "
        f"{s['projection_cache_evictions']} evictions)",
        f"  feasibility memo:       {s['feasibility_cache_hits']} hits / "
        f"{s['feasibility_cache_misses']} misses ({feas_rate:.1f}% hit rate)",
    ]
    disk_total = s.get("disk_cache_hits", 0) + s.get("disk_cache_misses", 0)
    result_total = (
        s.get("result_cache_hits", 0) + s.get("result_cache_misses", 0)
    )
    if disk_total or result_total or s.get("disk_cache_evictions", 0):
        disk_rate = (
            100.0 * s["disk_cache_hits"] / disk_total if disk_total else 0.0
        )
        lines += [
            f"  disk cache:             {s['disk_cache_hits']} hits / "
            f"{s['disk_cache_misses']} misses ({disk_rate:.1f}% hit rate, "
            f"{s['disk_cache_evictions']} evictions)",
            f"  whole-result cache:     {s['result_cache_hits']} hits / "
            f"{s['result_cache_misses']} misses",
        ]
    lines += [
        f"  peak system size:       {s['peak_system_size']} constraints",
        f"  commsets:               {s['commsets_built']} built, "
        f"{s['commsets_empty_pruned']} empty (pruned)",
        f"  codegen volume:         {s['codegen_loops_emitted']} loops, "
        f"{s['codegen_guards_emitted']} guard conditions",
    ]
    return "\n".join(lines)
