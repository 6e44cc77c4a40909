"""Scanning polyhedra with DO loops (Ancourt-Irigoin; paper Section 5.2).

Given a system of inequalities and an ordered list of variables, produce
for each variable the loop bounds that enumerate exactly the integer
solutions in lexicographic order.  Implements the paper's extensions:

* superfluous-bound pruning by the integer negation test;
* degenerate-loop elimination -- when a variable is pinned to a single
  value it becomes an assignment, not a loop (with a divisibility guard
  when the pinning coefficient exceeds 1);
* stride recovery -- a divisibility guard ``alpha*v_n = v_k - beta`` on
  an inner (auxiliary) variable is folded into a step-``alpha`` loop on
  the outer variable ``v_k``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .affine import LinExpr
from .bexpr import (
    BExpr,
    CeilDiv,
    Combo,
    Lin,
    lower_bound_expr,
    simplify_bexpr,
    upper_bound_expr,
)
from .fourier_motzkin import eliminate, extract_bounds
from .omega import implies_inequality, integer_feasible
from .system import InfeasibleError, System


class EmptyPolyhedronError(Exception):
    """The scanned polyhedron has no integer points."""


@dataclass
class ScanLoop:
    """One level of a generated loop nest.

    Either a genuine loop (``assignment is None``) with ``lowers``/
    ``uppers`` bound lists and a ``step``, or a degenerate level that
    assigns ``var`` a single value (``assignment``), optionally guarded
    by a divisibility condition ``div_guard = (expr, modulus)`` meaning
    ``expr mod modulus == 0``.
    """

    var: str
    lowers: List[Tuple[int, LinExpr]] = field(default_factory=list)
    uppers: List[Tuple[int, LinExpr]] = field(default_factory=list)
    step: int = 1
    assignment: Optional[BExpr] = None
    div_guard: Optional[Tuple[LinExpr, int]] = None
    lower_override: Optional[BExpr] = None

    def is_degenerate(self) -> bool:
        return self.assignment is not None

    def lower_expr(self) -> BExpr:
        if self.lower_override is not None:
            return self.lower_override
        return simplify_bexpr(lower_bound_expr(self.lowers))

    def upper_expr(self) -> BExpr:
        return simplify_bexpr(upper_bound_expr(self.uppers))

    def describe(self) -> str:
        if self.assignment is not None:
            text = f"{self.var} = {self.assignment}"
            if self.div_guard is not None:
                expr, mod = self.div_guard
                text += f"   [if ({expr}) mod {mod} == 0]"
            return text
        step = f" step {self.step}" if self.step != 1 else ""
        return f"for {self.var} = {self.lower_expr()} to {self.upper_expr()}{step}"


@dataclass
class ScanResult:
    """Loops (outermost first) plus guard constraints on the parameters."""

    loops: List[ScanLoop]
    guards: System

    def describe(self) -> str:
        lines = []
        if not self.guards.is_trivially_true():
            lines.append(f"if {self.guards}")
        lines.extend(loop.describe() for loop in self.loops)
        return "\n".join(lines)


def _equality_pairs(system: System, var: str) -> set:
    """Bound pairs on ``var`` that come from equalities (never pruned)."""
    pairs = set()
    for eq in system.equalities:
        coeff, bound = eq.split(var)
        if coeff:
            pairs.add((abs(coeff), bound))
    return pairs


def _bound_constraint(
    pivot: LinExpr, a: int, f: LinExpr, is_lower: bool
) -> LinExpr:
    """The bound ``a*pivot >= f`` (lower) or ``a*pivot <= f`` (upper)
    as an expression that is ``>= 0``."""
    if is_lower:
        return pivot.combine(a, f, -1)
    return f.combine(1, pivot, -a)


def _prune_bounds(
    level_system: System,
    context: Optional[System],
    var: str,
    bounds: List[Tuple[int, LinExpr]],
    other_side: List[Tuple[int, LinExpr]],
    is_lower: bool,
    prefer_drop: frozenset = frozenset(),
) -> List[Tuple[int, LinExpr]]:
    """Drop bounds implied by the *surviving* constraints (negation test).

    The implication probe is built from: the level system's constraints
    not involving ``var``, its equalities, the bounds kept so far on
    this side, and the current bounds of the other side.  Building it
    from surviving constraints only is essential: several syntactically
    different but equivalent bounds would otherwise imply (and so
    eliminate) each other pairwise, dropping all of them.

    Bounds derived from equalities are exempt: the equality that implies
    them must survive into the emitted bounds (it pins the variable).

    ``prefer_drop``: variables we would rather not see in the surviving
    bounds (e.g. receiver processors, for multicast detection); bounds
    mentioning them are tested for redundancy first.
    """
    if len(bounds) <= 1:
        return bounds
    protected = _equality_pairs(level_system, var)
    pivot = LinExpr.var(var)
    # sub-lists of the level system: normal and unique already
    base = System.of_normal(
        list(level_system.equalities),
        [i for i in level_system.inequalities if i.coeff(var) == 0],
    )
    for b, g in other_side:
        try:
            base.add_inequality(_bound_constraint(pivot, b, g, not is_lower))
        except InfeasibleError:
            pass
    if context is not None:
        base = base.intersect(context)

    kept = list(bounds)
    if prefer_drop:
        # tested from the end, so put the bounds we'd rather drop last
        kept.sort(
            key=lambda bound: 1 if (bound[1].variables() & prefer_drop) else 0
        )
    idx = len(kept) - 1
    while idx >= 0 and len(kept) > 1:
        candidate = kept[idx]
        if candidate in protected:
            idx -= 1
            continue
        probe = base.copy()
        for bound in kept:
            if bound == candidate:
                continue
            try:
                probe.add_inequality(
                    _bound_constraint(pivot, *bound, is_lower)
                )
            except InfeasibleError:
                pass
        if implies_inequality(
            probe, _bound_constraint(pivot, *candidate, is_lower)
        ):
            kept.pop(idx)
        idx -= 1
    return kept


def scan(
    system: System,
    order: Sequence[str],
    context: Optional[System] = None,
    prune: bool = True,
    eliminate_degenerate: bool = True,
    check_empty: bool = True,
    prefer_drop: frozenset = frozenset(),
) -> ScanResult:
    """Generate loop bounds enumerating the system in ``order``.

    ``order`` lists the variables outermost-first; every variable of the
    system not in ``order`` is treated as a parameter (it may appear in
    the emitted bounds).  ``context`` carries constraints on parameters
    that are assumed true (used only to prune redundant bounds/guards).
    """
    work = system.copy()
    if check_empty:
        probe = work if context is None else work.intersect(context)
        if not integer_feasible(probe):
            raise EmptyPolyhedronError(str(system))

    loops_reversed: List[ScanLoop] = []
    for var in reversed(list(order)):
        bounds = extract_bounds(work, var)
        lowers, uppers = bounds.lowers, bounds.uppers
        if not lowers or not uppers:
            raise ValueError(
                f"variable {var} is unbounded {'below' if not lowers else 'above'}"
                f" in {system}"
            )
        if prune:
            lowers = _prune_bounds(
                work, context, var, lowers, uppers, True, prefer_drop
            )
            uppers = _prune_bounds(
                work, context, var, uppers, lowers, False, prefer_drop
            )
        loops_reversed.append(ScanLoop(var, lowers, uppers))
        work = eliminate(work, var)

    loops = list(reversed(loops_reversed))
    guards = work
    if context is not None:
        pruned = System()
        for eq in guards.equalities:
            pruned.add_equality(eq)  # keep equalities; rarely prunable
        for ineq in guards.inequalities:
            if not implies_inequality(context, ineq):
                pruned.add_inequality(ineq)
        guards = pruned

    if eliminate_degenerate:
        loops = _eliminate_degenerate(loops)
        loops = _recover_strides(loops)
    return ScanResult(loops, guards)


def _eliminate_degenerate(loops: List[ScanLoop]) -> List[ScanLoop]:
    """Turn single-valued loops into assignments (paper Section 5.2).

    Cases:
    * one lower ``(a, f)`` equals one upper ``(a, f)``: the level came
      from an equality ``a*v == f``; assign ``v = f / a`` guarded by
      ``f mod a == 0`` when ``a > 1``.
    * one lower ``(a, f)`` and one upper ``(a, g)`` with ``g - f`` a
      constant in ``[0, a)``: the interval holds exactly one integer,
      assign ``v = ceil(f / a)`` unconditionally.
    """
    out = []
    for loop in loops:
        if loop.is_degenerate() or len(loop.lowers) != 1 or len(loop.uppers) != 1:
            out.append(loop)
            continue
        (a, f), (b, g) = loop.lowers[0], loop.uppers[0]
        if a == b and f == g:
            if a == 1:
                loop = ScanLoop(loop.var, assignment=simplify_bexpr(Lin(f)))
            else:
                loop = ScanLoop(
                    loop.var,
                    assignment=simplify_bexpr(CeilDiv(Lin(f), a)),
                    div_guard=(f, a),
                )
            out.append(loop)
            continue
        if a == b:
            diff = g - f
            if diff.is_constant() and 0 <= diff.const < a:
                loop = ScanLoop(
                    loop.var, assignment=simplify_bexpr(CeilDiv(Lin(f), a))
                )
                out.append(loop)
                continue
        out.append(loop)
    return out


def _recover_strides(loops: List[ScanLoop]) -> List[ScanLoop]:
    """Fold divisibility guards into strided outer loops.

    A degenerate level ``v_n = (v_k - beta) / alpha`` guarded by
    ``(v_k - beta) mod alpha == 0`` forces ``v_k ≡ beta (mod alpha)``;
    if ``v_k`` is an enclosing step-1 loop we restride it:
    ``for v_k = alpha*ceil((l - beta)/alpha) + beta to h step alpha``.
    """
    out = list(loops)
    loop_vars = {loop.var: idx for idx, loop in enumerate(out)}
    for idx, loop in enumerate(out):
        if loop.div_guard is None:
            continue
        expr, alpha = loop.div_guard
        # expr must be (1 * v_k + beta_expr) with v_k an enclosing loop var
        candidates = [
            v for v in expr.variables() if v in loop_vars and loop_vars[v] < idx
        ]
        if len(candidates) != 1:
            continue
        v_k = candidates[0]
        if expr.coeff(v_k) != 1:
            continue
        outer = out[loop_vars[v_k]]
        if outer.is_degenerate() or outer.step != 1:
            continue
        # expr = v_k - base, so v_k ≡ base (mod alpha); the loop start is
        # the first aligned point >= the old lower bound:
        #   start = alpha * ceil((lower - base) / alpha) + base
        # This needs the old lower bound to be affine.
        _one, base = expr.split(v_k)
        lower = outer.lower_expr()
        if not isinstance(lower, Lin):
            continue
        shifted = Lin(lower.expr - base)
        new_lower = simplify_bexpr(
            Combo(
                ((alpha, CeilDiv(shifted, alpha)),) + _lin_terms(base),
                base.const,
            )
        )
        restrided = ScanLoop(
            outer.var,
            lowers=outer.lowers,
            uppers=outer.uppers,
            step=alpha,
            lower_override=new_lower,
        )
        out[loop_vars[v_k]] = restrided
        out[idx] = ScanLoop(loop.var, assignment=loop.assignment)
    return out


def _lin_terms(expr: LinExpr) -> Tuple[Tuple[int, BExpr], ...]:
    return tuple((c, Lin(LinExpr.var(v))) for v, c in sorted(expr.terms()))


def enumerate_scan(
    result: ScanResult,
    params: dict,
    limit: int = 10_000_000,
) -> List[dict]:
    """Execute the generated loop nest; return the visited points.

    The reference semantics for everything downstream: the list of
    environments (one per innermost iteration), in the order the loops
    visit them.  Used by tests to check scan output against direct
    polyhedron enumeration.
    """
    points: List[dict] = []
    for eq in result.guards.equalities:
        if eq.evaluate(params) != 0:
            return points
    for ineq in result.guards.inequalities:
        if ineq.evaluate(params) < 0:
            return points

    def run(level: int, env: dict) -> None:
        if len(points) >= limit:
            raise RuntimeError("enumerate_scan limit exceeded")
        if level == len(result.loops):
            points.append({k: v for k, v in env.items() if k not in params})
            return
        loop = result.loops[level]
        if loop.assignment is not None:
            if loop.div_guard is not None:
                expr, mod = loop.div_guard
                if expr.evaluate(env) % mod != 0:
                    return
            env[loop.var] = loop.assignment.evaluate(env)
            run(level + 1, env)
            del env[loop.var]
            return
        low = loop.lower_expr().evaluate(env)
        high = loop.upper_expr().evaluate(env)
        value = low
        while value <= high:
            env[loop.var] = value
            run(level + 1, env)
            del env[loop.var]
            value += loop.step

    run(0, dict(params))
    return points
