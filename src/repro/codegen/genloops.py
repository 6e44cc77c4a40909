"""Turn scanned polyhedra into generated-code trees.

``scan_to_cast`` converts a :class:`repro.polyhedra.ScanResult` into
loops/assignments/guards.  The first ``skip`` levels can be folded into
guard conditions instead of loops -- that is how communication code is
merged into an enclosing computation structure (Section 5.4): the
enclosing loops already enumerate those variables, so the fragment only
needs to check membership.

``scan_to_cast_with_boundary`` additionally splits the nest at a
*message boundary*: the caller decides what happens there (allocate a
buffer and receive before the content loops; pack inside them and send
after), which is how Figure 10's aggregated communication code is
produced.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..polyhedra import ScanLoop, ScanResult
from ..polyhedra.stats import STATS
from .cast import (
    CAssign,
    CBlock,
    CFor,
    CGuard,
    CNode,
    Cond,
    CondBounds,
    CondDiv,
    CondEQ,
    CondGE,
    CVirtLoop,
)


def guards_from_system(system) -> List[Cond]:
    conds: List[Cond] = []
    for eq in system.equalities:
        conds.append(CondEQ(eq))
    for ineq in system.inequalities:
        conds.append(CondGE(ineq))
    STATS.codegen_guards_emitted += len(conds)
    return conds


def prefix_guards(loops: Sequence[ScanLoop]) -> List[Cond]:
    """Membership conditions for levels already enumerated outside."""
    conds: List[Cond] = []
    for loop in loops:
        if loop.is_degenerate():
            if loop.div_guard is not None:
                expr, mod = loop.div_guard
                conds.append(CondDiv(expr, mod))
            conds.append(
                CondBounds(loop.var, loop.assignment, loop.assignment)
            )
        else:
            conds.append(
                CondBounds(loop.var, loop.lower_expr(), loop.upper_expr())
            )
    return conds


def _wrap_level(
    loop: ScanLoop,
    inner: CNode,
    virt_dims: Dict[str, Tuple[int, int]],
) -> CNode:
    STATS.codegen_loops_emitted += 1
    inner_block = inner if isinstance(inner, CBlock) else CBlock([inner])
    degenerate = loop.is_degenerate()
    if degenerate:
        lower = upper = loop.assignment
    else:
        lower, upper = loop.lower_expr(), loop.upper_expr()
    if loop.var in virt_dims:
        # A virtual-processor level must check residence even when it
        # is pinned to a single value: the single-value stride loop
        # executes exactly when that virtual processor lives here.
        dim, rank = virt_dims[loop.var]
        node: CNode = CVirtLoop(loop.var, lower, upper, dim, rank, inner_block)
        guarded = CBlock([node])
    elif not degenerate:
        return CFor(loop.var, lower, upper, inner_block, step=loop.step)
    else:
        node = guarded = CBlock([CAssign(loop.var, lower), inner_block])
    if not degenerate or loop.div_guard is None:
        return node
    expr, mod = loop.div_guard
    return CGuard([CondDiv(expr, mod)], guarded)


def _nest(
    result: ScanResult,
    start: int,
    leaf: CNode,
    virt_dims: Dict[str, Tuple[int, int]],
    end: Optional[int] = None,
) -> CNode:
    """Scan levels ``start..end`` as loops around ``leaf``."""
    node = leaf
    for loop in reversed(result.loops[start:end]):
        node = _wrap_level(loop, node, virt_dims)
    return node


def _guarded(result: ScanResult, skip: int, tree: CNode) -> CNode:
    """``tree`` under the scan's own guards plus membership checks for
    the ``skip`` leading levels that enclosing code enumerates."""
    conds = guards_from_system(result.guards)
    conds.extend(prefix_guards(result.loops[:skip]))
    block = tree if isinstance(tree, CBlock) else CBlock([tree])
    if conds:
        return CGuard(conds, block)
    return block


def scan_to_cast(
    result: ScanResult,
    body: CNode,
    skip: int = 0,
    virt_dims: Optional[Dict[str, Tuple[int, int]]] = None,
) -> CNode:
    """Build the loop nest for a scan result, with ``body`` innermost.

    ``skip``: how many leading levels become guard conditions (their
    variables are bound by enclosing code).
    ``virt_dims``: maps a loop variable to ``(dim, rank)``; that level
    strides over this physical processor's virtual processors.
    """
    return _guarded(result, skip, _nest(result, skip, body, virt_dims or {}))


def scan_to_cast_with_boundary(
    result: ScanResult,
    skip: int,
    boundary: int,
    at_boundary: Callable[[Callable[[CNode], CNode]], List[CNode]],
    virt_dims: Optional[Dict[str, Tuple[int, int]]] = None,
) -> CNode:
    """Split the generated nest at a message boundary.

    Levels ``skip..boundary`` become loops as usual.  At ``boundary``
    (counted over all scan levels, skipped ones included) the builder
    calls ``at_boundary(build_content)``; ``build_content(leaf)``
    produces the content loops (levels ``boundary..end``) with ``leaf``
    innermost, so the caller can lay out, e.g.::

        buf = new buffer
        <content loops packing into buf>
        send buf
    """
    virt_dims = virt_dims or {}

    def build_content(leaf: CNode) -> CNode:
        return _nest(result, boundary, leaf, virt_dims)

    outer = _nest(
        result, skip, CBlock(at_boundary(build_content)), virt_dims, boundary
    )
    return _guarded(result, skip, outer)
