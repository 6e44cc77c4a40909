"""The generated-code AST ("CAST") and its two emitters.

Code generation produces a small imperative tree: loops with
quasi-affine bounds, guards, degenerate assignments, statement
executions, message packs/sends and receives/unpacks.  The same tree
pretty-prints as C-like text (for inspection and for reproducing the
paper's Figures 7, 10 and 13) and emits executable Python (run on the
:mod:`repro.runtime` machine simulator).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..ir import Statement
from ..polyhedra import (
    BExpr,
    CeilDiv,
    Combo,
    FloorDiv,
    Lin,
    LinExpr,
    MaxE,
    MinE,
    ModE,
)

# -- conditions ---------------------------------------------------------------


@dataclass(frozen=True)
class CondGE:
    """``expr >= 0``."""

    expr: LinExpr


@dataclass(frozen=True)
class CondEQ:
    """``expr == 0``."""

    expr: LinExpr


@dataclass(frozen=True)
class CondDiv:
    """``expr mod modulus == 0``."""

    expr: LinExpr
    modulus: int


@dataclass(frozen=True)
class CondBounds:
    """``lower <= var <= upper`` with generated bound expressions."""

    var: str
    lower: Optional[BExpr]
    upper: Optional[BExpr]


@dataclass(frozen=True)
class CondNeqPhys:
    """``pi(left) != pi(right)``: different physical processors.

    Implements the dynamic part of Section 6.1.3 (cyclic-emulation
    redundancy): messages between virtual processors folded onto the
    same physical processor are skipped on both sides.
    """

    left: Tuple[BExpr, ...]
    right: Tuple[BExpr, ...]


Cond = Union[CondGE, CondEQ, CondDiv, CondBounds, CondNeqPhys]


# -- nodes ---------------------------------------------------------------------


class CNode:
    pass


@dataclass
class CBlock(CNode):
    children: List[CNode] = field(default_factory=list)


@dataclass
class CFor(CNode):
    var: str
    lower: BExpr
    upper: BExpr
    body: CBlock
    step: int = 1


@dataclass
class CVirtLoop(CNode):
    """Iterate the virtual processors of this physical processor:

        for var = myp + P*ceil((lower - myp)/P) to upper step P

    ``dim`` selects the processor dimension (myp{dim} / P{dim} at
    runtime; the 1-D case uses ``myp`` and ``P``).
    """

    var: str
    lower: BExpr
    upper: BExpr
    dim: int
    rank: int
    body: CBlock


@dataclass
class CAssign(CNode):
    var: str
    value: BExpr


@dataclass
class CGuard(CNode):
    conds: List[Cond]
    body: CBlock


@dataclass
class CCompute(CNode):
    stmt: Statement


@dataclass
class CNewBuffer(CNode):
    name: str


@dataclass
class CPack(CNode):
    buffer: str
    array: str
    indices: Tuple[BExpr, ...]


@dataclass
class CSend(CNode):
    """Send ``buffer`` to the physical processor hosting virtual
    ``dest``; the tag identifies the message across the whole run.

    ``put`` marks an early one-sided window write (``--early-puts``):
    the emitter lowers it to ``proc.put`` -- on the onesided transport a
    remote window update issued at this, the earliest clock the
    polyhedral engine proves the data final; on two-sided transports an
    alias of ``proc.send``, so the same program is its own oracle.
    """

    buffer: str
    dest: Tuple[BExpr, ...]
    tag_label: str
    tag_exprs: Tuple[BExpr, ...]
    put: bool = False


@dataclass
class CSendMulti(CNode):
    """Multicast: send one buffer to every distinct physical processor
    collected in ``dest_set`` (a runtime set variable)."""

    buffer: str
    dest_set: str
    tag_label: str
    tag_exprs: Tuple[BExpr, ...]


@dataclass
class CCollectDest(CNode):
    """Add pi(dest) to a destination set (multicast address gathering).

    ``exclude_self``: skip when the destination is this processor.
    """

    dest_set: str
    dest: Tuple[BExpr, ...]
    exclude_self: bool = True


@dataclass
class CNewDestSet(CNode):
    name: str


@dataclass
class CRecv(CNode):
    """Receive into ``buffer`` from the physical host of virtual ``src``.

    ``multicast`` marks messages addressed per physical processor: the
    runtime caches them so every virtual processor emulated here can
    consume the same payload (Section 6.1.3's one-message-per-physical
    optimization).

    ``fence`` marks the consumption of an early one-sided put
    (``--early-puts``): the emitter yields a fenced receive request, so
    the runtime prices a window fence (``CostModel.fence_time``)
    instead of the two-sided ``recv_overhead`` and reads the payload
    from the local window.
    """

    buffer: str
    src: Tuple[BExpr, ...]
    tag_label: str
    tag_exprs: Tuple[BExpr, ...]
    multicast: bool = False
    fence: bool = False


@dataclass
class CUnpack(CNode):
    buffer: str
    array: str
    indices: Tuple[BExpr, ...]


@dataclass
class CComment(CNode):
    text: str


_BUF_IDS = itertools.count()


def fresh_buffer() -> str:
    return f"buf{next(_BUF_IDS)}"


def reset_buffer_names() -> None:
    """Restart buffer numbering (called per compile).

    Buffer names only need to be unique within one generated node
    program; restarting per compile makes generated source text a
    deterministic function of the compile inputs, which the persistent
    compile cache's bit-identity guarantee relies on.
    """
    global _BUF_IDS
    _BUF_IDS = itertools.count()


# ---------------------------------------------------------------------------
# C-like pretty printer (Figures 7, 10, 13 style)
# ---------------------------------------------------------------------------

def _c_expr(e: BExpr) -> str:
    if isinstance(e, Lin):
        return str(e.expr)
    if isinstance(e, CeilDiv):
        return f"ceild({_c_expr(e.num)}, {e.den})"
    if isinstance(e, FloorDiv):
        return f"floord({_c_expr(e.num)}, {e.den})"
    if isinstance(e, MaxE):
        return "MAX(" + ", ".join(_c_expr(i) for i in e.items) + ")"
    if isinstance(e, MinE):
        return "MIN(" + ", ".join(_c_expr(i) for i in e.items) + ")"
    if isinstance(e, ModE):
        return f"(({_c_expr(e.num)}) % {e.den})"
    if isinstance(e, Combo):
        parts = []
        for coef, item in e.terms:
            parts.append(
                _c_expr(item) if coef == 1 else f"{coef} * ({_c_expr(item)})"
            )
        text = " + ".join(parts)
        if e.const:
            text += f" + {e.const}" if e.const > 0 else f" - {-e.const}"
        return text
    raise TypeError(e)


def _c_cond(cond: Cond) -> str:
    if isinstance(cond, CondGE):
        return f"{cond.expr} >= 0"
    if isinstance(cond, CondEQ):
        return f"{cond.expr} == 0"
    if isinstance(cond, CondDiv):
        return f"({cond.expr}) % {cond.modulus} == 0"
    if isinstance(cond, CondBounds):
        parts = []
        if cond.lower is not None:
            parts.append(f"{cond.var} >= {_c_expr(cond.lower)}")
        if cond.upper is not None:
            parts.append(f"{cond.var} <= {_c_expr(cond.upper)}")
        return " and ".join(parts) if parts else "true"
    if isinstance(cond, CondNeqPhys):
        l = ", ".join(_c_expr(e) for e in cond.left)
        r = ", ".join(_c_expr(e) for e in cond.right)
        return f"phys({l}) != phys({r})"
    raise TypeError(cond)


def emit_c(node: CNode, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(node, CBlock):
        return "\n".join(
            emit_c(child, indent) for child in node.children if child
        )
    if isinstance(node, CFor):
        step = f" step {node.step}" if node.step != 1 else ""
        head = (
            f"{pad}for {node.var} = {_c_expr(node.lower)} to "
            f"{_c_expr(node.upper)}{step} do"
        )
        return head + "\n" + emit_c(node.body, indent + 1)
    if isinstance(node, CVirtLoop):
        myp = "myp" if node.rank == 1 else f"myp{node.dim}"
        pp = "P" if node.rank == 1 else f"P{node.dim}"
        head = (
            f"{pad}for {node.var} = {myp} + {pp} * "
            f"ceild({_c_expr(node.lower)} - {myp}, {pp}) to "
            f"{_c_expr(node.upper)} step {pp} do"
        )
        return head + "\n" + emit_c(node.body, indent + 1)
    if isinstance(node, CAssign):
        return f"{pad}{node.var} = {_c_expr(node.value)}"
    if isinstance(node, CGuard):
        conds = " and ".join(_c_cond(c) for c in node.conds) or "true"
        return f"{pad}if {conds} then\n" + emit_c(node.body, indent + 1)
    if isinstance(node, CCompute):
        return f"{pad}{node.stmt.text or node.stmt.name}"
    if isinstance(node, CNewBuffer):
        return f"{pad}{node.name} = new buffer"
    if isinstance(node, CPack):
        idx = "][".join(_c_expr(e) for e in node.indices)
        return f"{pad}{node.buffer}[idx++] = {node.array}[{idx}]"
    if isinstance(node, CSend):
        dst = ", ".join(_c_expr(e) for e in node.dest)
        verb = "put" if node.put else "send"
        return f"{pad}{verb} {node.buffer} to phys({dst})  /* {node.tag_label} */"
    if isinstance(node, CSendMulti):
        return (
            f"{pad}multicast {node.buffer} to {node.dest_set}"
            f"  /* {node.tag_label} */"
        )
    if isinstance(node, CCollectDest):
        dst = ", ".join(_c_expr(e) for e in node.dest)
        return f"{pad}{node.dest_set} += phys({dst})"
    if isinstance(node, CNewDestSet):
        return f"{pad}{node.name} = new destination set"
    if isinstance(node, CRecv):
        src = ", ".join(_c_expr(e) for e in node.src)
        verb = "fence; read" if node.fence else "receive"
        return (
            f"{pad}{verb} {node.buffer} from phys({src})"
            f"  /* {node.tag_label} */"
        )
    if isinstance(node, CUnpack):
        idx = "][".join(_c_expr(e) for e in node.indices)
        return f"{pad}{node.array}[{idx}] = {node.buffer}[idx++]"
    if isinstance(node, CComment):
        return f"{pad}/* {node.text} */"
    raise TypeError(node)


# ---------------------------------------------------------------------------
# Python emitter (executable on the runtime simulator)
# ---------------------------------------------------------------------------

def _san(name: str) -> str:
    """Sanitize a variable name for Python source."""
    return name.replace("$", "__")


def _py_expr(e: BExpr) -> str:
    if isinstance(e, Lin):
        parts = []
        for v, c in sorted(e.expr.terms()):
            parts.append(f"{c}*{_san(v)}")
        parts.append(str(e.expr.const))
        return "(" + " + ".join(parts) + ")"
    if isinstance(e, CeilDiv):
        return f"(-((-{_py_expr(e.num)}) // {e.den}))"
    if isinstance(e, FloorDiv):
        return f"({_py_expr(e.num)} // {e.den})"
    if isinstance(e, MaxE):
        return "max(" + ", ".join(_py_expr(i) for i in e.items) + ")"
    if isinstance(e, MinE):
        return "min(" + ", ".join(_py_expr(i) for i in e.items) + ")"
    if isinstance(e, ModE):
        return f"({_py_expr(e.num)} % {e.den})"
    if isinstance(e, Combo):
        parts = [f"{coef}*({_py_expr(item)})" for coef, item in e.terms]
        parts.append(str(e.const))
        return "(" + " + ".join(parts) + ")"
    raise TypeError(e)


def _py_phys(exprs: Sequence[BExpr], rank: int) -> str:
    dims = []
    for k, e in enumerate(exprs):
        pname = "_P" if rank == 1 else f"_P{k}"
        dims.append(f"({_py_expr(e)}) % {pname}")
    return "(" + ", ".join(dims) + ("," if len(dims) == 1 else "") + ")"


def _py_cond(cond: Cond, rank: int) -> str:
    if isinstance(cond, CondGE):
        return f"{_py_expr(Lin(cond.expr))} >= 0"
    if isinstance(cond, CondEQ):
        return f"{_py_expr(Lin(cond.expr))} == 0"
    if isinstance(cond, CondDiv):
        return f"{_py_expr(Lin(cond.expr))} % {cond.modulus} == 0"
    if isinstance(cond, CondBounds):
        parts = []
        if cond.lower is not None:
            parts.append(f"{_san(cond.var)} >= {_py_expr(cond.lower)}")
        if cond.upper is not None:
            parts.append(f"{_san(cond.var)} <= {_py_expr(cond.upper)}")
        return " and ".join(parts) if parts else "True"
    if isinstance(cond, CondNeqPhys):
        return f"{_py_phys(cond.left, rank)} != {_py_phys(cond.right, rank)}"
    raise TypeError(cond)


def _cat_payload(parts):
    """Flatten a pack buffer into one float64 payload vector.

    Pack buffers hold a mix of scalars (scalar packs) and numpy chunks
    (vectorized packs); the send boundary flattens them into a single
    contiguous vector whose element order and values match the
    historical scalar list exactly.  Injected into generated node
    programs as ``_cat``.
    """
    if isinstance(parts, np.ndarray):
        return parts
    if not parts:
        return np.empty(0, dtype=np.float64)
    if any(isinstance(p, np.ndarray) for p in parts):
        return np.concatenate(
            [np.atleast_1d(np.asarray(p, dtype=np.float64)) for p in parts]
        )
    return np.array(parts, dtype=np.float64)


def _flatten(block: CBlock) -> List[CNode]:
    out: List[CNode] = []
    for child in block.children:
        if isinstance(child, CBlock):
            out.extend(_flatten(child))
        else:
            out.append(child)
    return out


def _cond_vars(cond: Cond) -> frozenset:
    if isinstance(cond, (CondGE, CondEQ, CondDiv)):
        return cond.expr.variables()
    if isinstance(cond, CondBounds):
        out = frozenset({cond.var})
        if cond.lower is not None:
            out |= cond.lower.variables()
        if cond.upper is not None:
            out |= cond.upper.variables()
        return out
    if isinstance(cond, CondNeqPhys):
        out = frozenset()
        for e in cond.left + cond.right:
            out |= e.variables()
        return out
    raise TypeError(cond)


def _pin_value(conds: Sequence[Cond], v: str) -> Optional[LinExpr]:
    """The single value ``conds`` (all involving ``v``) pin ``v`` to.

    Recognizes the three shapes the generators emit -- an equality, a
    matching >=/<= pair, and degenerate bounds -- and returns the
    ``v``-free affine pin, or None when the conditions select anything
    other than one point.
    """
    pins: List[LinExpr] = []
    lowers: List[LinExpr] = []
    uppers: List[LinExpr] = []
    for cond in conds:
        if isinstance(cond, CondEQ):
            a = cond.expr.coeff(v)
            if a == 1:  # (v - E) == 0
                pins.append(LinExpr.var(v) - cond.expr)
            elif a == -1:  # (E - v) == 0
                pins.append(LinExpr.var(v) + cond.expr)
            else:
                return None
        elif isinstance(cond, CondGE):
            a = cond.expr.coeff(v)
            if a == 1:  # v >= L with L = v - expr
                lowers.append(LinExpr.var(v) - cond.expr)
            elif a == -1:  # v <= U with U = v + expr
                uppers.append(LinExpr.var(v) + cond.expr)
            else:
                return None
        elif isinstance(cond, CondBounds) and cond.var == v:
            if not isinstance(cond.lower, Lin) or not isinstance(
                cond.upper, Lin
            ):
                return None
            if cond.lower.expr is not cond.upper.expr:
                return None
            pins.append(cond.lower.expr)
        else:
            return None
    if lowers or uppers:
        if (
            len(lowers) != 1
            or len(uppers) != 1
            or lowers[0] is not uppers[0]  # LinExpr is hash-consed
        ):
            return None
        pins.append(lowers[0])
    if not pins:
        return None
    first = pins[0]
    if any(p is not first for p in pins[1:]):
        return None
    if first.coeff(v) != 0:
        return None
    return first


def _range_bounds(
    conds: Sequence[Cond], v: str, step_src: str
) -> Optional[Tuple[List[str], List[str]]]:
    """Fold conditions that only *restrict the range* of ``v`` into
    (lower, upper) bound sources, or None when any condition is not a
    pure range restriction.

    Lower bounds shift the first iterate, which is only grid-preserving
    for unit-stride loops; with any other step they are rejected and
    the caller falls back to pinning (or the scalar loop).
    """
    lowers: List[str] = []
    uppers: List[str] = []
    for cond in conds:
        if isinstance(cond, CondGE):
            a = cond.expr.coeff(v)
            if a == 1:  # v >= v - expr
                lowers.append(_py_expr(Lin(LinExpr.var(v) - cond.expr)))
            elif a == -1:  # v <= v + expr
                uppers.append(_py_expr(Lin(LinExpr.var(v) + cond.expr)))
            else:
                return None
        elif isinstance(cond, CondBounds) and cond.var == v:
            if cond.lower is not None:
                lowers.append(_py_expr(cond.lower))
            if cond.upper is not None:
                uppers.append(_py_expr(cond.upper))
        else:
            return None
    if lowers and step_src != "1":
        return None
    return lowers, uppers


def _lin_parts_lower(b: BExpr) -> List[LinExpr]:
    """Affine pieces ``L`` with ``lo >= L`` (lo = max of the parts)."""
    if isinstance(b, Lin):
        return [b.expr]
    if isinstance(b, MaxE):
        return [i.expr for i in b.items if isinstance(i, Lin)]
    return []


def _lin_parts_upper(b: BExpr) -> List[LinExpr]:
    """Affine pieces ``U`` with ``up <= U`` (up = min of the parts)."""
    if isinstance(b, Lin):
        return [b.expr]
    if isinstance(b, MinE):
        return [i.expr for i in b.items if isinstance(i, Lin)]
    return []


def _outside_range(V: LinExpr, lower: BExpr, upper: BExpr) -> bool:
    """Is iteration ``V`` provably outside ``[lower, upper]``?"""
    for L in _lin_parts_lower(lower):
        d = L - V
        if d.is_constant() and d.const >= 1:  # V <= L-1 < L <= lo
            return True
    for U in _lin_parts_upper(upper):
        d = V - U
        if d.is_constant() and d.const >= 1:  # V >= U+1 > U >= up
            return True
    return False


def _dim_separates(
    wd: LinExpr,
    rd: LinExpr,
    v: str,
    step: Optional[int],
    lower: BExpr,
    upper: BExpr,
) -> bool:
    """Does this subscript dimension prove ``write(i) != read(j)`` for
    every pair of block iterations ``i < j``?

    ``step`` is the loop step (None when symbolic, e.g. a virtual-loop
    stride of P).  For a virtual loop the *declared* bounds are passed:
    its effective range is a subset of [lower, upper], so every proof
    below remains sound.
    """
    aw, ar = wd.coeff(v), rd.coeff(v)
    bw = wd - LinExpr.var(v, aw)
    br = rd - LinExpr.var(v, ar)
    delta = br - bw
    if aw == 0 and ar == 0:
        # both loop-invariant: distinct iff the difference is a known
        # nonzero constant
        return delta.is_constant() and delta.const != 0
    if aw == ar:
        # equal strides: write(i) == read(j) forces aw*(i - j) == delta
        if not delta.is_constant():
            return False
        c = delta.const
        if c == 0:
            return True  # i == j only: no cross-iteration aliasing
        if c % aw != 0:
            return True  # no integer solution at all
        q = c // aw  # i = j + q
        if q > 0:
            return True  # writer strictly after reader: WAR, gather-safe
        if step is not None and step > 1 and q % step != 0:
            return True  # iterates are ``step`` apart; q unreachable
        return False
    if ar == 0:
        # read pinned to one location; only iteration V = delta/aw
        # writes it -- safe when V provably lies outside the block
        if delta.is_constant() and delta.const % aw != 0:
            return True
        try:
            V = delta.divide_exact(aw)
        except ValueError:
            return False
        return _outside_range(V, lower, upper)
    if aw == 0:
        # write pinned to one location; only iteration V = -delta/ar
        # reads it -- safe when V is outside the block, or V is the
        # first iterate (no writer precedes it)
        if delta.is_constant() and delta.const % ar != 0:
            return True
        try:
            V = (-delta).divide_exact(ar)
        except ValueError:
            return False
        if _outside_range(V, lower, upper):
            return True
        for L in _lin_parts_lower(lower):
            d = L - V
            if d.is_constant() and d.const >= 0:  # V <= L <= lo
                return True
        return False
    # distinct nonzero strides: a general Diophantine problem -- punt
    return False


def _compute_vectorizable(
    stmt: Statement,
    v: str,
    step: Optional[int],
    lower: BExpr,
    upper: BExpr,
) -> bool:
    """Is one gather-compute-scatter over ``v`` equal to the ascending
    scalar loop?

    Required: the write moves with ``v`` (distinct locations per
    iteration), and no iteration reads a location an *earlier*
    iteration wrote (the gather happens before the scatter, so such a
    read would see the old value).  A read identical to the write is
    safe: scalar iterations read their own location before writing it,
    exactly like the gather.  Reads of other arrays never alias the
    write.  See DESIGN.md §10.
    """
    write = stmt.lhs
    if all(idx.coeff(v) == 0 for idx in write.indices):
        return False
    wname = write.array.name
    for read in stmt.reads:
        if read.array.name != wname:
            continue
        if len(read.indices) == len(write.indices) and all(
            r is w for r, w in zip(read.indices, write.indices)
        ):
            continue
        if len(read.indices) != len(write.indices):
            return False
        if not any(
            _dim_separates(wd, rd, v, step, lower, upper)
            for wd, rd in zip(write.indices, read.indices)
        ):
            return False
    return True


def _fold_bound(
    kind: str, src: str, bound: Optional[BExpr], clips: Sequence[str]
) -> str:
    """``src``, a loop bound (``bound`` its expression, if any), with
    the clip bounds of a guard folded in: one flat ``max``/``min`` call
    (``kind``) over the distinct parts, or ``src`` when nothing clips."""
    flat = MaxE if kind == "max" else MinE
    parts = (
        [_py_expr(i) for i in bound.items]
        if isinstance(bound, flat)
        else [src]
    )
    parts += [c for c in dict.fromkeys(clips) if c not in parts]
    return parts[0] if len(parts) == 1 else f"{kind}({', '.join(parts)})"


def _numpy_safe(b: BExpr) -> bool:
    """Can ``b`` be evaluated with numpy arrays bound to its variables?

    Everything the emitter produces maps to ``+``/``*``/``//``/``%``
    except max/min, which emit the Python builtins (ambiguous truth
    value on arrays).
    """
    if isinstance(b, Lin):
        return True
    if isinstance(b, (CeilDiv, FloorDiv, ModE)):
        return _numpy_safe(b.num)
    if isinstance(b, Combo):
        return all(_numpy_safe(e) for _, e in b.terms)
    return False


class PyEmitter:
    """Emit a CAST tree as the body of a node program.

    The generated function has signature ``node(proc)`` and relies on
    the :class:`repro.runtime.Processor` API: ``proc.params``,
    ``proc.stmt``, ``proc.myp``, ``proc.arrays``, ``proc.execute_stmt``,
    ``proc.execute_block``, ``proc.send``, ``proc.multicast``, and the
    ``proc.finish`` completion hook (emitted as the final statement so
    the runtime's progress monitor can tell a cleanly finished node
    program from a dead one when diagnosing deadlocks).

    Node programs are **generator functions**: receives are emitted as
    ``yield ('recv'|'recv_mc', src, tag)`` requests, which the runtime's
    scheduler answers by parking the coroutine until the message
    exists.  Programs with no receives get a dead ``yield`` to keep the
    calling convention uniform.

    With ``vectorize=True`` (the default), an innermost loop whose body
    is a single guarded compute, pack, or unpack -- plus any number of
    guards that *pin* the loop variable to one iteration (send/receive
    fragments placed at a specific step, as in LU's pivot broadcast) --
    is emitted as whole-range numpy operations: computes become one
    ``proc.execute_block`` call per pin-free span (legality proved by
    :func:`_compute_vectorizable`), packs gather one chunk, unpacks
    scatter one slice.  A pin-free compute loop the proof rejects is
    still one ``execute_block`` call, with ``gather`` False: the
    statement's range kernel runs it in scalar order.  Everything else
    falls back to the scalar loop, which remains bit-identical to the
    historical emission.
    """

    def __init__(
        self, rank: int, params: Sequence[str], vectorize: bool = True
    ):
        self.rank = rank
        self.params = list(params)
        self.vectorize = vectorize
        self.lines: List[str] = []
        self._stmt_handles: Dict[Statement, str] = {}
        self._uid = itertools.count()

    def header(self) -> List[str]:
        out = ["def node(proc):"]
        for p in self.params:
            out.append(f"    {_san(p)} = proc.params[{p!r}]")
        for k in range(self.rank):
            pname = "_P" if self.rank == 1 else f"_P{k}"
            out.append(f"    {pname} = proc.pdims[{k}]")
            myp = "myp" if self.rank == 1 else f"myp{k}"
            out.append(f"    {myp} = proc.myp[{k}]")
        out.append("    arrays = proc.arrays")
        out.append("    _env = dict(proc.params)")
        for stmt, handle in self._stmt_handles.items():
            out.append(f"    {handle} = proc.stmt({stmt.name!r})")
        return out

    def emit(self, node: CNode, indent: int) -> None:
        pad = "    " * indent
        if isinstance(node, CBlock):
            emitted = False
            for child in node.children:
                before = len(self.lines)
                self.emit(child, indent)
                emitted = emitted or len(self.lines) > before
            if not emitted:
                self.lines.append(pad + "pass")
            return
        if isinstance(node, CFor):
            if (
                self.vectorize
                and node.step > 0
                and self._try_vectorize(node, indent)
            ):
                return
            self.lines.append(
                f"{pad}for {_san(node.var)} in range({_py_expr(node.lower)}, "
                f"{_py_expr(node.upper)} + 1, {node.step}):"
            )
            self.emit(node.body, indent + 1)
            return
        if isinstance(node, CVirtLoop):
            if self.vectorize and self._try_vectorize(node, indent):
                return
            myp = "myp" if node.rank == 1 else f"myp{node.dim}"
            pp = "_P" if node.rank == 1 else f"_P{node.dim}"
            lo = _py_expr(node.lower)
            self.lines.append(
                f"{pad}for {_san(node.var)} in range("
                f"{myp} + {pp} * (-((-({lo} - {myp})) // {pp})), "
                f"{_py_expr(node.upper)} + 1, {pp}):"
            )
            self.emit(node.body, indent + 1)
            return
        if isinstance(node, CAssign):
            self.lines.append(
                f"{pad}{_san(node.var)} = {_py_expr(node.value)}"
            )
            return
        if isinstance(node, CGuard):
            conds = " and ".join(
                _py_cond(c, self.rank) for c in node.conds
            ) or "True"
            self.lines.append(f"{pad}if {conds}:")
            self.emit(node.body, indent + 1)
            return
        if isinstance(node, CCompute):
            stmt = node.stmt
            handle = self._handle(stmt)
            for w in stmt.iter_vars:
                self.lines.append(f"{pad}_env[{w!r}] = {_san(w)}")
            self.lines.append(f"{pad}proc.execute_stmt({handle}, _env)")
            return
        if isinstance(node, CNewBuffer):
            self.lines.append(f"{pad}{node.name} = []")
            return
        if isinstance(node, CPack):
            idx = ", ".join(_py_expr(e) for e in node.indices)
            comma = "," if len(node.indices) == 1 else ""
            self.lines.append(
                f"{pad}{node.buffer}.append("
                f"arrays[{node.array!r}][({idx}{comma})])"
            )
            return
        if isinstance(node, CSend):
            dst = _py_phys(node.dest, self.rank)
            tag = self._tag(node.tag_label, node.tag_exprs)
            op = "put" if node.put else "send"
            self.lines.append(
                f"{pad}proc.{op}({dst}, {tag}, _cat({node.buffer}))"
            )
            return
        if isinstance(node, CNewDestSet):
            self.lines.append(f"{pad}{node.name} = set()")
            return
        if isinstance(node, CCollectDest):
            dst = _py_phys(node.dest, self.rank)
            if node.exclude_self:
                self.lines.append(f"{pad}if {dst} != proc.myp:")
                self.lines.append(f"{pad}    {node.dest_set}.add({dst})")
            else:
                self.lines.append(f"{pad}{node.dest_set}.add({dst})")
            return
        if isinstance(node, CSendMulti):
            tag = self._tag(node.tag_label, node.tag_exprs)
            self.lines.append(
                f"{pad}proc.multicast(sorted({node.dest_set}), {tag}, "
                f"_cat({node.buffer}))"
            )
            return
        if isinstance(node, CRecv):
            src = _py_phys(node.src, self.rank)
            tag = self._tag(node.tag_label, node.tag_exprs)
            fn = "recv_mc" if node.multicast else "recv"
            if node.fence:
                fn += "_fence"
            self.lines.append(
                f"{pad}{node.buffer} = yield ({fn!r}, {src}, {tag})"
            )
            self.lines.append(f"{pad}{node.buffer}_i = 0")
            return
        if isinstance(node, CUnpack):
            idx = ", ".join(_py_expr(e) for e in node.indices)
            comma = "," if len(node.indices) == 1 else ""
            self.lines.append(
                f"{pad}arrays[{node.array!r}][({idx}{comma})] = "
                f"{node.buffer}[{node.buffer}_i]"
            )
            self.lines.append(f"{pad}{node.buffer}_i += 1")
            return
        if isinstance(node, CComment):
            self.lines.append(f"{pad}# {node.text}")
            return
        raise TypeError(node)

    # -- vectorization ------------------------------------------------------

    def _handle(self, stmt: Statement) -> str:
        handle = self._stmt_handles.get(stmt)
        if handle is None:
            handle = f"_s{len(self._stmt_handles)}"
            self._stmt_handles[stmt] = handle
        return handle

    def _try_vectorize(self, node, indent: int) -> bool:
        """Attempt whole-range emission of an innermost loop; True when
        emitted (the caller then skips the scalar loop)."""
        v = node.var
        if isinstance(node, CVirtLoop):
            step_int = None
            pp = "_P" if node.rank == 1 else f"_P{node.dim}"
            myp = "myp" if node.rank == 1 else f"myp{node.dim}"
            lo_src = (
                f"{myp} + {pp} * "
                f"(-((-({_py_expr(node.lower)} - {myp})) // {pp}))"
            )
            step_src = pp
        else:
            step_int = node.step
            lo_src = _py_expr(node.lower)
            step_src = str(step_int)
        hi_src = _py_expr(node.upper)
        items = _flatten(node.body)
        if any(isinstance(x, (CPack, CUnpack)) for x in items):
            return self._try_pack_loop(
                node, items, v, step_src, lo_src, hi_src, indent
            )
        return self._try_compute_loop(
            node, items, v, step_int, step_src, lo_src, hi_src, indent
        )

    def _try_compute_loop(
        self, node, items, v, step_int, step_src, lo_src, hi_src, indent
    ) -> bool:
        """Pattern: an innermost loop whose body is one (guarded)
        compute plus guards pinning ``v`` to single iterations.

        Emits ``execute_block`` over each pin-free span; at every
        in-range pin the *original* body is re-emitted scalar with the
        loop variable bound to the pin, preserving intra-iteration
        order between the compute and the pinned fragments (and
        re-checking every guard).  A pin-free loop the RAW proof
        rejects becomes one block call that runs the statement's range
        kernel, in scalar order; with pins it stays the scalar loop.
        """
        vector: List[Tuple[Statement, List[Cond], Optional[tuple]]] = []
        pinned: List[Tuple[CNode, LinExpr]] = []
        comments: List[CComment] = []
        for child in items:
            if isinstance(child, CComment):
                comments.append(child)
            elif isinstance(child, CCompute):
                vector.append((child.stmt, [], None))
            elif isinstance(child, CGuard):
                vconds = [c for c in child.conds if v in _cond_vars(c)]
                vfree = [c for c in child.conds if v not in _cond_vars(c)]
                inner = [
                    x
                    for x in _flatten(child.body)
                    if not isinstance(x, CComment)
                ]
                is_compute = (
                    len(inner) == 1 and isinstance(inner[0], CCompute)
                )
                if is_compute and not vconds:
                    vector.append((inner[0].stmt, vfree, None))
                    continue
                if is_compute:
                    # a guard that only clips v's range tightens the
                    # block bounds instead of forcing the scalar loop
                    clip = _range_bounds(vconds, v, step_src)
                    if clip is not None:
                        vector.append((inner[0].stmt, vfree, clip))
                        continue
                pin = _pin_value(vconds, v)
                if pin is None:
                    return False
                pinned.append((child, pin))
            else:
                return False
        if len(vector) != 1:
            return False
        stmt, guard, clip = vector[0]
        if v not in stmt.iter_vars:
            return False

        pad = "    " * indent
        out = self.lines.append
        if not _compute_vectorizable(
            stmt, v, step_int, node.lower, node.upper
        ):
            if pinned:
                return False
            # execute_block returns at once on an empty range, and no
            # generated code reads a loop variable after its loop: the
            # call needs no bounds test and no rebinding
            lowers, uppers = clip if clip is not None else ((), ())
            lower = node.lower if isinstance(node, CFor) else None
            for c in comments:
                out(f"{pad}# {c.text}")
            self._block_call(
                stmt, guard, v,
                _fold_bound("max", lo_src, lower, lowers),
                _fold_bound("min", hi_src, node.upper, uppers),
                step_src, indent, gather=False,
            )
            return True

        u = next(self._uid)
        out(f"{pad}_vlo{u} = {lo_src}")
        out(f"{pad}_vhi{u} = {hi_src}")
        out(f"{pad}if _vlo{u} <= _vhi{u}:")
        p1 = pad + "    "
        for c in comments:
            out(f"{p1}# {c.text}")
        lo_clip = hi_clip = None
        if clip is not None:
            lowers, uppers = clip
            if lowers:
                lo_clip = f"_clo{u}"
                src = (
                    lowers[0]
                    if len(lowers) == 1
                    else f"max({', '.join(lowers)})"
                )
                out(f"{p1}{lo_clip} = {src}")
            if uppers:
                hi_clip = f"_chi{u}"
                src = (
                    uppers[0]
                    if len(uppers) == 1
                    else f"min({', '.join(uppers)})"
                )
                out(f"{p1}{hi_clip} = {src}")

        def block_call(lo: str, hi: str, at: int) -> None:
            if lo_clip is not None:
                lo = f"max({lo}, {lo_clip})"
            if hi_clip is not None:
                hi = f"min({hi}, {hi_clip})"
            self._block_call(stmt, guard, v, lo, hi, step_src, at)

        if pinned:
            out(f"{p1}_pins{u} = []")
            for _child, pin in pinned:
                out(f"{p1}_pv{u} = {_py_expr(Lin(pin))}")
                out(
                    f"{p1}if _vlo{u} <= _pv{u} <= _vhi{u} and "
                    f"(_pv{u} - _vlo{u}) % {step_src} == 0:"
                )
                out(f"{p1}    _pins{u}.append(_pv{u})")
            out(f"{p1}_cur{u} = _vlo{u}")
            out(f"{p1}for _pin{u} in sorted(set(_pins{u})):")
            p2 = pad + "        "
            block_call(f"_cur{u}", f"_pin{u} - 1", indent + 2)
            out(f"{p2}{_san(v)} = _pin{u}")
            self.emit(node.body, indent + 2)
            out(f"{p2}_cur{u} = _pin{u} + {step_src}")
            block_call(f"_cur{u}", f"_vhi{u}", indent + 1)
        else:
            block_call(f"_vlo{u}", f"_vhi{u}", indent + 1)
        # the scalar loop leaves its variable bound to the last iterate
        if step_src == "1":
            out(f"{p1}{_san(v)} = _vhi{u}")
        else:
            out(
                f"{p1}{_san(v)} = _vlo{u} + "
                f"((_vhi{u} - _vlo{u}) // {step_src}) * {step_src}"
            )
        return True

    def _block_call(
        self, stmt, guard, v, lo, hi, step_src, at, gather=True
    ) -> None:
        """One ``proc.execute_block`` call for ``v`` in [lo, hi] at
        indent ``at``, under the loop's ``v``-free guard; ``gather``
        False selects the range kernel."""
        qad = "    " * at
        out = self.lines.append
        if guard:
            conds = " and ".join(_py_cond(c, self.rank) for c in guard)
            out(f"{qad}if {conds}:")
            qad += "    "
        for w in stmt.iter_vars:
            if w != v:
                out(f"{qad}_env[{w!r}] = {_san(w)}")
        flag = "" if gather else ", False"
        out(
            f"{qad}proc.execute_block({self._handle(stmt)}, {v!r}, "
            f"{lo}, {hi}, _env, {step_src}{flag})"
        )

    def _try_pack_loop(
        self, node, items, v, step_src, lo_src, hi_src, indent
    ) -> bool:
        """Pattern: an innermost loop packing (or unpacking) one array
        element per iteration, with optional index temporaries.

        Binds the loop variable to ``np.arange`` and lets the index
        arithmetic broadcast: the pack gathers the whole chunk in one
        fancy-indexing read, the unpack scatters one payload slice.
        Unpacks additionally require a provably injective index so the
        scatter hits ``n`` distinct locations.
        """
        assigns: List[CAssign] = []
        comments: List[CComment] = []
        leaf = None
        for child in items:
            if isinstance(child, CComment):
                comments.append(child)
            elif isinstance(child, CAssign):
                if leaf is not None:
                    return False
                assigns.append(child)
            elif isinstance(child, (CPack, CUnpack)):
                if leaf is not None:
                    return False
                leaf = child
            else:
                return False
        if leaf is None:
            return False
        # locals that become arrays once v is bound to an arange
        vector_vars = {v}
        lin_env: Dict[str, LinExpr] = {}
        for a in assigns:
            if a.value.variables() & vector_vars:
                if not _numpy_safe(a.value):
                    return False
                vector_vars.add(a.var)
            if isinstance(a.value, Lin):
                lin_env[a.var] = a.value.expr.substitute(lin_env)
            else:
                lin_env.pop(a.var, None)
        if not any(
            idx.variables() & vector_vars for idx in leaf.indices
        ):
            return False  # the "gather" would be one scalar, not a chunk
        for idx in leaf.indices:
            if idx.variables() & vector_vars and not _numpy_safe(idx):
                return False
        if isinstance(leaf, CUnpack):
            if not any(
                isinstance(idx, Lin)
                and idx.expr.substitute(lin_env).coeff(v) != 0
                for idx in leaf.indices
            ):
                return False  # cannot prove the scatter is injective

        u = next(self._uid)
        pad = "    " * indent
        out = self.lines.append
        out(f"{pad}_vlo{u} = {lo_src}")
        out(f"{pad}_vhi{u} = {hi_src}")
        out(f"{pad}if _vlo{u} <= _vhi{u}:")
        p1 = pad + "    "
        for c in comments:
            out(f"{p1}# {c.text}")
        out(f"{p1}{_san(v)} = _np.arange(_vlo{u}, _vhi{u} + 1, {step_src})")
        for a in assigns:
            out(f"{p1}{_san(a.var)} = {_py_expr(a.value)}")
        idx = ", ".join(_py_expr(e) for e in leaf.indices)
        comma = "," if len(leaf.indices) == 1 else ""
        if isinstance(leaf, CPack):
            out(
                f"{p1}{leaf.buffer}.append("
                f"arrays[{leaf.array!r}][({idx}{comma})])"
            )
        else:
            out(f"{p1}_vn{u} = (_vhi{u} - _vlo{u}) // {step_src} + 1")
            out(
                f"{p1}arrays[{leaf.array!r}][({idx}{comma})] = _np.asarray("
                f"{leaf.buffer}[{leaf.buffer}_i:{leaf.buffer}_i + _vn{u}], "
                f"dtype=_np.float64)"
            )
            out(f"{p1}{leaf.buffer}_i += _vn{u}")
        # rebind the loop variable to its final scalar value
        if step_src == "1":
            out(f"{p1}{_san(v)} = _vhi{u}")
        else:
            out(
                f"{p1}{_san(v)} = _vlo{u} + "
                f"((_vhi{u} - _vlo{u}) // {step_src}) * {step_src}"
            )
        return True

    # -- assembly -----------------------------------------------------------

    @staticmethod
    def _tag(label: str, exprs: Sequence[BExpr]) -> str:
        parts = [repr(label)] + [_py_expr(e) for e in exprs]
        return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"

    def source(self, tree: CNode) -> str:
        self._stmt_handles = {}
        self._uid = itertools.count()
        has_recv = self._prescan(tree)
        self.lines = []
        self.emit(tree, 1)
        body = self.lines
        self.lines = self.header()
        if not has_recv:
            self.lines.append(
                "    if False:  # no receives; stay a generator "
                "for the schedulers"
            )
            self.lines.append("        yield None")
        self.lines.extend(body)
        self.lines.append("    proc.finish()")
        return "\n".join(self.lines) + "\n"

    def _prescan(self, node: CNode) -> bool:
        """Collect statement handles in tree order; True if any CRecv."""
        has_recv = False
        if isinstance(node, CBlock):
            for child in node.children:
                has_recv |= self._prescan(child)
        elif isinstance(node, (CFor, CVirtLoop, CGuard)):
            has_recv = self._prescan(node.body)
        elif isinstance(node, CCompute):
            self._handle(node.stmt)
        elif isinstance(node, CRecv):
            has_recv = True
        return has_recv


def compile_node_program(
    tree: CNode,
    rank: int,
    params: Sequence[str],
    vectorize: bool = True,
):
    """Compile a CAST tree into a generator function ``node(proc)``."""
    emitter = PyEmitter(rank, params, vectorize=vectorize)
    return node_from_source(emitter.source(tree))


def node_from_source(src: str):
    """(Re)build the generator function ``node(proc)`` from its source.

    The compile cache stores node programs as source text (closures do
    not pickle); a cached :class:`~repro.codegen.spmd.SPMD` executes
    the stored text through this function the first time its ``node``
    is read, which is exactly how the original was built -- same
    namespace, same behavior.
    """
    namespace: dict = {"_np": np, "_cat": _cat_payload}
    exec(compile(src, "<node-program>", "exec"), namespace)  # noqa: S102
    fn = namespace["node"]
    fn.__source__ = src
    return fn
