"""Computation decompositions (paper Definition 2, Theorem 1).

A computation decomposition maps each dynamic iteration of a statement
to the unique virtual processor executing it:

    C = { (i, p) | B*p  <=  U(i - t)  <=  B*(p+1) - 1 }

Unlike data decompositions, an iteration has exactly one owner (no
overlap, no replication).  Theorem 1 derives C from a (non-replicated)
data decomposition via the owner-computes rule; the paper's point is
that C is the primary object -- it need not come from any D.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..ir import Statement
from ..polyhedra import LinExpr, System
from .data import DataDecomp
from .space import Extent, ProcSpace


@dataclass(frozen=True)
class CompRule:
    """One processor dimension: ``B*p <= expr(i) <= B*p + B - 1``.

    ``expr`` is an affine form of the statement's iteration variables
    (their plain names, no placeholders).
    """

    expr: LinExpr
    block: int = 1

    def constrain(self, out: System, proc: str, suffix: str = "") -> None:
        value = self.expr.rename(
            {v: v + suffix for v in self.expr.variables()}
        ) if suffix else self.expr
        p = LinExpr.var(proc)
        out.add_le(p * self.block, value)
        out.add_le(value, p * self.block + self.block - 1)

    def owner_of(self, env: Mapping[str, int]) -> int:
        return self.expr.evaluate(env) // self.block


@dataclass
class CompDecomp:
    """A computation decomposition for one statement."""

    stmt: Statement
    space: ProcSpace
    rules: Tuple[CompRule, ...]
    name: str = ""

    def __post_init__(self):
        if len(self.rules) != self.space.rank:
            raise ValueError("one rule per processor dimension")

    def system(
        self, proc_names: Sequence[str], iter_suffix: str = ""
    ) -> System:
        """C over (possibly suffixed) iteration vars and processor vars.

        Includes the statement's iteration domain and the virtual
        processor domain.
        """
        if iter_suffix:
            domain, _ = self.stmt.domain_renamed(iter_suffix)
        else:
            domain = self.stmt.domain()
        out = domain.intersect(self.space.virtual_domain(proc_names))
        for proc, rule in zip(proc_names, self.rules):
            rule.constrain(out, proc, iter_suffix)
        return out

    def placement_only(
        self, proc_names: Sequence[str], iter_suffix: str = ""
    ) -> System:
        """Just the B*p <= U(i-t) < B*(p+1) band, without the domains."""
        out = System()
        for proc, rule in zip(proc_names, self.rules):
            rule.constrain(out, proc, iter_suffix)
        return out

    def owner(
        self, env: Mapping[str, int]
    ) -> Tuple[int, ...]:
        """The virtual processor executing the iteration in ``env``
        (which must bind the statement's iteration variables and any
        parameters the rules mention)."""
        return tuple(rule.owner_of(env) for rule in self.rules)

    def describe(self) -> str:
        parts = [
            f"p{k}: block {rule.block} of ({rule.expr})"
            if rule.block != 1
            else f"p{k} = {rule.expr}"
            for k, rule in enumerate(self.rules)
        ]
        label = self.name or self.stmt.name
        return f"C[{label}]: " + "; ".join(parts)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def _extent_for_expr(stmt: Statement, expr: LinExpr, block: int) -> Extent:
    """Extent of floor(expr/block) + 1 when expr is a single loop var."""
    names = list(expr.variables())
    if len(names) == 1 and expr.coeff(names[0]) == 1:
        for loop in stmt.loops:
            if loop.var == names[0]:
                return Extent(loop.upper + 1 - expr.const + 0, block)
    raise ValueError(
        "cannot infer the virtual extent for this rule; pass space="
    )


def onto(
    stmt: Statement,
    exprs: Sequence[LinExpr],
    space: Optional[ProcSpace] = None,
    pdims=None,
) -> CompDecomp:
    """``p_k == exprs[k](i)``: project iterations onto processor dims.

    The LU decomposition of Section 7 is ``onto(s, [i2])``: virtual
    processor k executes every iteration with i2 == k.
    """
    rules = tuple(CompRule(LinExpr.coerce(e), 1) for e in exprs)
    if space is None:
        vdims = [_extent_for_expr(stmt, r.expr, 1) for r in rules]
        space = (
            ProcSpace.linear(vdims[0], pdims[0] if pdims else None)
            if len(vdims) == 1
            else ProcSpace.grid(vdims, pdims)
        )
    return CompDecomp(stmt, space, rules, name="onto")


def block_loop(
    stmt: Statement,
    loop_vars: Sequence[str],
    block_sizes: Sequence[int],
    space: Optional[ProcSpace] = None,
    pdims=None,
) -> CompDecomp:
    """Block-distribute the chosen loops: ``B*p <= i < B*(p+1)``.

    Figure 7's computation decomposition is
    ``block_loop(stmt, ["i"], [32])``.
    """
    rules = tuple(
        CompRule(LinExpr.var(v), b) for v, b in zip(loop_vars, block_sizes)
    )
    if space is None:
        vdims = [
            _extent_for_expr(stmt, r.expr, r.block) for r in rules
        ]
        space = (
            ProcSpace.linear(vdims[0], pdims[0] if pdims else None)
            if len(vdims) == 1
            else ProcSpace.grid(vdims, pdims)
        )
    return CompDecomp(stmt, space, rules, name="block_loop")


def comps_from_blocks(program, blocks: Dict[str, int]) -> Dict[str, CompDecomp]:
    """Block-distribute the named loops of every statement in one shared
    processor space.  Every block size must be a positive ``int``; a
    bool, a float or a string is refused rather than rounded or
    coerced, and every statement must have every named loop."""
    if not blocks or not isinstance(blocks, dict):
        raise ValueError("request needs a non-empty 'blocks' mapping")
    for var, size in blocks.items():
        if isinstance(size, bool) or not isinstance(size, int) or size < 1:
            raise ValueError(
                f"block size of loop {var!r} must be a positive "
                f"integer, not {size!r}"
            )
    comps = {}
    space = None
    for stmt in program.statements():
        missing = [v for v in blocks if v not in stmt.iter_vars]
        if missing:
            raise ValueError(
                f"statement {stmt.name} lacks blocked loop(s) {missing}"
            )
        comp = block_loop(stmt, list(blocks), list(blocks.values()), space=space)
        space = comp.space
        comps[stmt.name] = comp
    return comps


def owner_computes(stmt: Statement, decomp: DataDecomp) -> CompDecomp:
    """Theorem 1: derive C from D via the owner-computes rule.

    ``C = { (i, p) | exists a in A : (a, p) in D and a = f_w(i) }``.
    Requires the written data not to be replicated (the theorem's
    stated precondition -- Section 2.2.1 discusses why replication
    breaks the rule).
    """
    if stmt.lhs.array is not decomp.array:
        raise ValueError(
            f"{stmt.name} writes {stmt.lhs.array.name}, not "
            f"{decomp.array.name}"
        )
    if decomp.is_replicated():
        raise ValueError(
            "owner-computes requires a non-replicated data decomposition"
            " (Theorem 1)"
        )
    rules = []
    for rule in decomp.rules:
        value = rule.value_for(stmt.lhs.indices)
        rules.append(CompRule(value, rule.block))
    return CompDecomp(
        stmt, decomp.space, tuple(rules), name=f"owner({decomp.name})"
    )
