"""Fourier-Motzkin elimination (projection of polyhedra).

Section 5.1 of the paper: projection of an n-dimensional polyhedron onto
an (n-1)-dimensional space is a single step of Fourier-Motzkin
elimination.  The real-shadow projection computed here is used for
scanning (loop-bound generation); exact integer reasoning lives in
:mod:`repro.polyhedra.omega` on top of these primitives.

FM is the compiler's hot path, and naive FM generates a quadratic flood
of mostly redundant constraints (the paper's own warning).  This module
therefore layers three defenses on the textbook algorithm:

* an Imbert-style *pair filter*: a bound dominated by a parallel bound
  with the same variable coefficient never enters the cross product --
  its combinations are provably subsumed by the dominator's;
* *subsumption pruning* of each step's output (see
  :mod:`repro.polyhedra.simplify`), keeping only the tightest constant
  per coefficient vector;
* a per-process *projection cache* keyed on the canonical form of the
  input system, serving identical projections across compiler phases
  (Last Write Trees, communication sets, scanning, aggregation).

All three are exactly semantics-preserving; counters in
:mod:`repro.polyhedra.stats` report how much work each avoided.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import simplify as _simplify_mod
from .affine import LinExpr
from .simplify import NONE, SUBSUME, simplify
from .stats import STATS
from .system import InfeasibleError, System


@dataclass
class VarBounds:
    """Bounds on one variable ``v`` extracted from a system.

    ``lowers`` holds pairs ``(a, f)`` with ``a > 0`` meaning ``a*v >= f``;
    ``uppers`` holds pairs ``(b, g)`` with ``b > 0`` meaning ``b*v <= g``.
    ``rest`` is the list of inequalities not involving ``v``.
    Equalities involving ``v`` are split into one lower and one upper pair.
    """

    var: str
    lowers: List[Tuple[int, LinExpr]]
    uppers: List[Tuple[int, LinExpr]]
    rest: System


def extract_bounds(system: System, name: str) -> VarBounds:
    """Split ``system`` into lower/upper bounds on ``name`` and the rest."""
    lowers: List[Tuple[int, LinExpr]] = []
    uppers: List[Tuple[int, LinExpr]] = []
    rest_eqs: List[LinExpr] = []
    rest_ineqs: List[LinExpr] = []
    for eq in system.equalities:
        coeff, bound = eq.split(name)
        if coeff == 0:
            rest_eqs.append(eq)
        else:
            # a*v == bound: both a lower and an upper bound
            pair = (abs(coeff), bound)
            lowers.append(pair)
            uppers.append(pair)
    for ineq in system.inequalities:
        coeff, bound = ineq.split(name)
        if coeff == 0:
            rest_ineqs.append(ineq)
        elif coeff > 0:
            lowers.append((coeff, bound))   # coeff*v >= bound
        else:
            uppers.append((-coeff, bound))  # |coeff|*v <= bound
    # sub-lists of a system's constraints: normal and unique already
    rest = System.of_normal(rest_eqs, rest_ineqs)
    return VarBounds(name, lowers, uppers, rest)


# ---------------------------------------------------------------------------
# Imbert-style pair filtering
# ---------------------------------------------------------------------------

def _filter_dominated(
    pairs: List[Tuple[int, LinExpr]], is_lower: bool
) -> List[Tuple[int, LinExpr]]:
    """Drop bounds dominated by a parallel bound with the same coefficient.

    Two lower bounds ``a*v >= f`` and ``a*v >= f'`` with ``f - f'`` a
    non-negative constant: the first implies the second, and every FM
    combination of the second with an upper ``(b, g)`` equals the
    first's combination plus ``b*(f - f') >= 0`` -- the same coefficient
    vector with a weaker constant, exactly what subsumption would drop
    after materialization.  Filtering them here means the redundant
    combinations are never materialized at all.  Restricting the filter
    to *equal* variable coefficients keeps it byte-for-byte equivalent
    to post-step subsumption (and leaves integer-exactness reporting
    untouched: dominated pairs share the coefficient of the survivor).
    """
    if len(pairs) <= 1:
        return pairs
    best: Dict[Tuple[int, Tuple], int] = {}
    alive: List[Optional[Tuple[int, LinExpr]]] = []
    for a, f in pairs:
        vec, k = f.key
        slot_key = (a, vec)
        slot = best.get(slot_key)
        if slot is None:
            best[slot_key] = len(alive)
            alive.append((a, f))
            continue
        _a0, f0 = alive[slot]
        # lower bounds: the larger constant is tighter; uppers: smaller.
        tighter = k > f0.const if is_lower else k < f0.const
        if tighter:
            alive[slot] = None
            best[slot_key] = len(alive)
            alive.append((a, f))
    return [p for p in alive if p is not None]


# ---------------------------------------------------------------------------
# the projection cache
# ---------------------------------------------------------------------------

class ProjectionCache:
    """LRU memo for single-variable projections.

    Keys are ``(canonical system key, variable, prune level)``; values
    are immutable snapshots -- ``get`` returns a fresh copy so callers
    may mutate their result freely.  ``clear()`` drops everything (the
    cache holds no references into live systems, so invalidation is
    only ever about memory, never about correctness).
    """

    def __init__(self, maxsize: int = 4096):
        self.maxsize = maxsize
        self._data: "OrderedDict[Tuple, System]" = OrderedDict()

    def get(self, key: Tuple) -> Optional[System]:
        hit = self._data.get(key)
        if hit is None:
            STATS.projection_cache_misses += 1
            return None
        self._data.move_to_end(key)
        STATS.projection_cache_hits += 1
        return hit.copy()

    def put(self, key: Tuple, value: System) -> None:
        self._data[key] = value.copy()
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            STATS.projection_cache_evictions += 1

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)


_PROJECTION_CACHE = ProjectionCache()


def projection_cache_clear() -> None:
    """Explicit invalidation API: drop every memoized projection."""
    _PROJECTION_CACHE.clear()


def projection_cache_info() -> Dict[str, int]:
    return {
        "size": len(_PROJECTION_CACHE),
        "maxsize": _PROJECTION_CACHE.maxsize,
        "hits": STATS.projection_cache_hits,
        "misses": STATS.projection_cache_misses,
        "evictions": STATS.projection_cache_evictions,
    }


def set_projection_cache_size(maxsize: int) -> None:
    """Resize (and clear) the projection cache; 0 disables it."""
    global _PROJECTION_CACHE
    _PROJECTION_CACHE = ProjectionCache(maxsize=max(0, maxsize))


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

def _combine(
    bounds: VarBounds, prune: int, track_exact: bool
) -> Tuple[System, bool]:
    """Cross-multiply lower and upper bounds into ``bounds.rest``."""
    lowers, uppers = bounds.lowers, bounds.uppers
    considered = len(lowers) * len(uppers)
    STATS.eliminations += 1
    STATS.pairs_considered += considered
    if prune >= SUBSUME:
        lowers = _filter_dominated(lowers, is_lower=True)
        uppers = _filter_dominated(uppers, is_lower=False)
    materialized = len(lowers) * len(uppers)
    STATS.pairs_filtered += considered - materialized
    STATS.pairs_materialized += materialized

    out = bounds.rest
    exact = True
    for a, f in lowers:
        for b, g in uppers:
            # a*v >= f and b*v <= g  =>  a*g - b*f >= 0
            out.add_inequality(g.combine(a, f, -b))
            if track_exact and a != 1 and b != 1:
                exact = False
    if prune > NONE:
        out = simplify(out, level=min(prune, SUBSUME))
    STATS.observe_system_size(out.size())
    return out, exact


def eliminate(
    system: System, name: str, prune: Optional[int] = None
) -> System:
    """Project out ``name``: the real shadow of the polyhedron.

    Every solution of ``system`` maps to a solution of the result;
    the converse holds over the rationals but not always over the
    integers (the classic FM caveat the paper notes in Section 5.1).

    ``prune`` selects the redundancy-elimination level (default:
    :data:`repro.polyhedra.simplify.DEFAULT_LEVEL`); every level is
    exactly semantics-preserving.  Results are memoized in the
    projection cache.

    Raises InfeasibleError when a combined constraint is a negative
    constant (the projection is empty).
    """
    if prune is None:
        prune = _simplify_mod.DEFAULT_LEVEL
    key = (system.canonical_key(), name, prune)
    cached = _PROJECTION_CACHE.get(key)
    if cached is not None:
        return cached
    disk = _diskcache().active()
    if disk is not None:
        found, hit = disk.get_object("fm", repr(key))
        if found and isinstance(hit, System):
            _PROJECTION_CACHE.put(key, hit)
            return hit
    out, _ = _combine(extract_bounds(system, name), prune, track_exact=False)
    _PROJECTION_CACHE.put(key, out)
    if disk is not None:
        disk.put_object("fm", repr(key), out)
    return out


def _diskcache():
    """The persistent-cache module (import deferred: it imports stats)."""
    from . import diskcache

    return diskcache


def eliminate_exact_flag(
    system: System, name: str, prune: Optional[int] = None
) -> Tuple[System, bool]:
    """Like :func:`eliminate` but also report integer-exactness.

    The elimination step is exact over the integers when for every
    combined pair at least one of the two coefficients of the eliminated
    variable is 1 (Pugh's exactness condition).  Pair filtering only
    removes pairs whose eliminated-variable coefficients equal a
    surviving pair's, so the report is identical with pruning on.
    """
    if prune is None:
        prune = _simplify_mod.DEFAULT_LEVEL
    bounds = extract_bounds(system, name)
    # exactness must be judged over *all* pairs a naive engine combines
    exact = (
        not bounds.lowers
        or not bounds.uppers
        or all(a == 1 for a, _ in bounds.lowers)
        or all(b == 1 for b, _ in bounds.uppers)
    )
    out, _ = _combine(bounds, prune, track_exact=False)
    return out, exact


def _bound_counts(
    system: System, names
) -> Dict[str, Tuple[int, int]]:
    """Lower/upper bound counts for every name, in one constraint pass."""
    counts = {n: [0, 0] for n in names}
    for eq in system.equalities:
        for var, _coeff in eq.terms():
            slot = counts.get(var)
            if slot is not None:
                slot[0] += 1
                slot[1] += 1
    for ineq in system.inequalities:
        for var, coeff in ineq.terms():
            slot = counts.get(var)
            if slot is not None:
                slot[coeff < 0] += 1
    return {n: (lo, hi) for n, (lo, hi) in counts.items()}


def eliminate_many(
    system: System, names, prune: Optional[int] = None
) -> System:
    """Project out several variables, cheapest-first.

    Chooses at each step the variable whose elimination produces the
    fewest combined constraints (the usual FM heuristic), computing all
    per-variable bound counts in one pass over the constraints instead
    of re-extracting bounds per candidate.  Ties break lexicographically
    on the variable name, so projections are reproducible regardless of
    the order ``names`` arrives in.
    """
    remaining = {n for n in names if system.involves(n)}
    current = system
    while remaining:
        counts = _bound_counts(current, remaining)
        best = min(
            remaining, key=lambda n: (counts[n][0] * counts[n][1], n)
        )
        current = eliminate(current, best, prune=prune)
        remaining.discard(best)
        remaining = {n for n in remaining if current.involves(n)}
    return current


def rational_feasible(system: System) -> bool:
    """Does the system have a rational solution?

    Equalities are eliminated exactly first (Gaussian / Omega-style
    substitution, via :func:`repro.polyhedra.omega.eliminate_equalities`
    -- this also handles auxiliary variables the rewrite introduces),
    then plain FM descent over the remaining inequalities with an early
    exit as soon as none are left.  Variable sets are recomputed every
    step, so variables introduced mid-descent are never skipped.
    """
    from .omega import eliminate_equalities  # cycle: runtime import

    try:
        current = eliminate_equalities(system)
        while current.inequalities:
            variables = current.variables()
            if not variables:
                break  # only constant constraints remained; all true
            counts = _bound_counts(current, variables)
            name = min(
                variables, key=lambda n: (counts[n][0] * counts[n][1], n)
            )
            current = eliminate(current, name)
    except InfeasibleError:
        return False
    return True
