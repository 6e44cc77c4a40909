"""SPMD program assembly (paper Sections 5.3, 5.4, 7).

Builds one node program per physical processor from:

* the computation decompositions (one per statement),
* the communication sets derived from Last Write Trees (Theorems 3/4),
* the aggregation plans (Section 6.2).

Structure of the generated program::

    # preload: Theorem-4 data movement, sends then receives
    for p in my virtual processors:          # CVirtLoop, stride P
        <mirrored program nest, bounds refined per statement>
            <receive fragments, guarded, just before first use>
            <compute statements, guarded by their placement>
            <send fragments, guarded, right after the data are ready>

Communication fragments are merged into the computation structure by
folding their leading scan levels into guards (the enclosing loops
already enumerate those variables) -- the guard-based variant of the
paper's loop-merging, with the early-send / early-receive placement of
Section 7: a fragment is pushed as deep as its message identity is
pinned by enclosing loops, so the LU pivot row is sent immediately
after the first i2 iteration produces it, exactly like Figure 13.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core import (
    CommSet,
    build_plan,
    canonicalize_senders,
    eliminate_self_reuse,
    from_leaf,
    initial_comm,
)
from ..dataflow import all_trees
from ..decomp import CompDecomp, DataDecomp, ProcSpace
from ..ir import Loop, Program, Statement
from ..polyhedra import (
    EmptyPolyhedronError,
    LinExpr,
    InfeasibleError,
    Lin,
    ScanLoop,
    ScanResult,
    System,
    eliminate_many,
    integer_feasible,
    scan,
)
from .cast import (
    CBlock,
    CCollectDest,
    CComment,
    CCompute,
    CGuard,
    CNewBuffer,
    CNewDestSet,
    CNode,
    CondNeqPhys,
    CPack,
    CRecv,
    CSend,
    CSendMulti,
    CUnpack,
    CVirtLoop,
    compile_node_program,
    emit_c,
    fresh_buffer,
    node_from_source,
)
from .genloops import (
    _wrap_level,
    guards_from_system,
    scan_to_cast,
    scan_to_cast_with_boundary,
)


@dataclass
class SPMDOptions:
    """Optimization switches (each one is an ablation axis)."""

    aggregate: bool = True
    self_reuse: bool = True
    multicast: bool = True
    early_placement: bool = True
    skip_same_physical: bool = True  # Section 6.1.3 dynamic check
    #: emit innermost compute/pack/unpack loops as whole-range numpy
    #: operations when provably equivalent (DESIGN.md §10); the scalar
    #: loop is always available as an ablation axis
    vectorize: bool = True
    #: lower aggregated sends to one-sided window puts at their already
    #: proved-earliest placement, and matching receives to fenced window
    #: reads (DESIGN.md §16).  Placement is unchanged -- the Theorem-3/4
    #: prefix-extension proofs that license early placement for sends
    #: license the puts too -- only the lowering verbs differ, so on a
    #: two-sided transport the early-put program is its own oracle.
    early_puts: bool = False


#: the SPMD fields a cached artifact keeps encoded until first read
ANALYSIS_FIELDS = ("program", "space", "tree", "commsets", "plans")

_DEFERRED_LOCK = threading.Lock()


@dataclass
class SPMD:
    """A generated SPMD program plus everything needed to run/inspect it.

    A fresh compile fills every field.  A cache hit (:meth:`deferred`)
    holds only what is served -- ``source``, ``c_text`` and the
    comm-set count -- and defers the rest: ``node`` is built from
    ``source`` on first read, and the :data:`ANALYSIS_FIELDS` are
    decoded together on the first read of any of them.
    """

    program: Program
    space: ProcSpace
    tree: CBlock
    source: str
    c_text: str
    node: Callable
    commsets: List[CommSet] = field(default_factory=list)
    plans: List = field(default_factory=list)

    @classmethod
    def deferred(
        cls,
        source: str,
        c_text: str,
        commset_count: int,
        analysis: Callable[[], Dict],
    ) -> "SPMD":
        """An SPMD holding only its served fields; ``analysis()``
        returns the analysis fields as a dict when one is first read."""
        spmd = cls.__new__(cls)
        spmd.__dict__.update(
            source=source, c_text=c_text,
            _commset_count=commset_count, _analysis=analysis,
        )
        return spmd

    @property
    def commset_count(self) -> int:
        """``len(commsets)``, answered without decoding the analysis."""
        count = self.__dict__.get("_commset_count")
        return len(self.commsets) if count is None else count

    def is_loaded(self, name: str) -> bool:
        """False only for a deferred field that nothing has read yet."""
        return name in self.__dict__

    def __getattr__(self, name):
        # reached only for a field not yet in the instance dict; the
        # lock makes concurrent first reads build each field once
        state = self.__dict__
        if name == "node":
            with _DEFERRED_LOCK:
                if "node" not in state:
                    state["node"] = node_from_source(self.source)
            return state["node"]
        if name in ANALYSIS_FIELDS:
            with _DEFERRED_LOCK:
                if "_analysis" in state:
                    state.update(state["_analysis"]())
                    del state["_analysis"]  # frees the encoded bytes
            # another thread may have decoded between this thread's
            # missed lookup and its turn at the lock
            if name in state:
                return state[name]
        raise AttributeError(name)


class SPMDGenerationError(Exception):
    pass


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _project_onto(system: System, keep: Sequence[str], all_vars) -> System:
    drop = [v for v in all_vars if v not in set(keep)]
    return eliminate_many(system, drop)


def _lins(names: Sequence[str]):
    return tuple(Lin(LinExpr.var(v)) for v in names)


def _scan_or_none(system, order, context) -> Optional[ScanResult]:
    try:
        return scan(system, order, context=context)
    except EmptyPolyhedronError:
        return None


# ---------------------------------------------------------------------------
# message boundaries (Figure 10): one side of a message per builder
# ---------------------------------------------------------------------------

def _unless_local(
    inner: CNode, peer: Sequence[str], pvars: Sequence[str], options
) -> List[CNode]:
    """Section 6.1.3: skip a transfer whose peer virtual processor is
    emulated on this physical processor (it already holds the data)."""
    if options.skip_same_physical:
        return [CGuard([CondNeqPhys(_lins(peer), _lins(pvars))], inner)]
    return [inner]


def _send_leaf(cs: CommSet, buf: str, dest, tag, pvars, options):
    """The ``at_boundary`` callback of a point-to-point sender: new
    buffer, pack the content loops into it, send (or put) to ``dest``."""

    def at_boundary(build_content):
        inner = CBlock(
            [
                CNewBuffer(buf),
                build_content(
                    CPack(buf, cs.read_access.array.name, _lins(cs.data_vars))
                ),
                CSend(
                    buf, _lins(dest), cs.label, _lins(tag),
                    put=options.early_puts,
                ),
            ]
        )
        return _unless_local(inner, dest, pvars, options)

    return at_boundary


def _recv_leaf(cs: CommSet, buf: str, src, tag, pvars, options,
               multicast: bool = False):
    """The ``at_boundary`` callback of a receiver: receive (or fence)
    from ``src``, then unpack in the sender's pack order."""

    def at_boundary(build_content):
        inner = CBlock(
            [
                CRecv(
                    buf, _lins(src), cs.label, _lins(tag),
                    multicast=multicast, fence=options.early_puts,
                ),
                build_content(
                    CUnpack(buf, cs.read_access.array.name, _lins(cs.data_vars))
                ),
            ]
        )
        return _unless_local(inner, src, pvars, options)

    return at_boundary


# ---------------------------------------------------------------------------
# fragments
# ---------------------------------------------------------------------------

@dataclass
class _Fragment:
    """A communication fragment and where it belongs in the master tree.

    ``depth``: loop chain depth in the owning statement's loops.
    ``side``: 'before' (receives) or 'after' (sends) the subtree that
    contains ``stmt`` at that depth.  Sets moved outside the nest are
    not fragments (see :func:`_preload_side`).
    """

    node: CNode
    stmt: Statement
    depth: int
    side: str


def _unique_given_prefix(
    system: System,
    order: List[str],
    pos: int,
    context: System,
) -> bool:
    """Is ``order[pos]`` uniquely determined by ``order[:pos]``?

    Exact test: two solutions agreeing on the prefix but differing in
    the variable would witness non-uniqueness; we duplicate the
    variable and everything after it, force a strict difference, and
    ask the integer test for a solution.
    """
    var = order[pos]
    prefix = set(order[:pos])
    rename = {
        v: v + "$dup" for v in system.variables() if v not in prefix
    }
    try:
        probe = system.intersect(system.rename(rename))
        probe.add_inequality(
            LinExpr.var(var + "$dup") - LinExpr.var(var) - 1
        )
    except InfeasibleError:
        return True  # syntactically impossible to differ
    if context is not None:
        probe = probe.intersect(context)
    return not integer_feasible(probe)


def _scan_level_degenerate(
    system: System,
    order: List[str],
    positions: List[int],
    context: System,
) -> bool:
    """Are the given order positions functions of the earlier ones?"""
    return all(
        _unique_given_prefix(system, order, pos, context)
        for pos in positions
    )


def _extend_prefix(
    system: System,
    base_order: List[str],
    extend_vars: List[str],
    context: System,
) -> int:
    """How many of ``extend_vars`` (appended after base_order) scan as
    degenerate levels?  Those levels are pinned by the enclosing code
    and can become enclosing-loop guards (early send placement)."""
    ext = 0
    for _nxt in extend_vars:
        order = base_order + extend_vars[: ext + 1]
        if _scan_level_degenerate(
            system, order, [len(order) - 1], context
        ):
            ext += 1
        else:
            break
    return ext


def _extend_recv_prefix(
    system: System,
    base_order: List[str],
    extend_vars: List[str],
    msg_vars: List[str],
    context: System,
) -> int:
    """Early-receive placement: push the receive into reader loops.

    Extending the receive point to reader loop level ``cand`` is valid
    iff receives and messages stay in bijection:

    * the message identity determines ``cand``'s value (scanning with
      the message variables *before* the candidate, the candidate level
      is degenerate), so each message is consumed exactly once; and
    * the receive position determines the message (scanning with the
      message variables *after* the extended prefix, every message-id
      level is degenerate), so the inner scan knows which message to
      wait for.

    This is what places the LU pivot-row receive inside the i1 loop --
    virtual processors stay pipelined instead of waiting up front.
    """
    ext = 0
    for _nxt in extend_vars:
        prefix = base_order + extend_vars[: ext + 1]
        cand = extend_vars[ext]
        order_b = base_order + extend_vars[:ext] + msg_vars + [cand]
        order_a = prefix + msg_vars
        ok_b = _scan_level_degenerate(
            system, order_b, [len(order_b) - 1], context
        )
        ok_a = _scan_level_degenerate(
            system,
            order_a,
            list(range(len(prefix), len(order_a))),
            context,
        )
        if ok_a and ok_b:
            ext += 1
        else:
            break
    return ext


def _carried_fragments(
    cs: CommSet,
    plan,
    pvars: Tuple[str, ...],
    context: System,
    options: SPMDOptions,
) -> Tuple[Optional[_Fragment], Optional[_Fragment]]:
    """Send and receive fragments for a Theorem-3 communication set.

    ``plan`` (:func:`build_plan`) decides the aggregation level and
    multicast; level 0 is Section 5.3's per-element form, which makes
    every send iteration its own message boundary.
    """
    writer = cs.write_stmt
    reader = cs.read_stmt
    all_vars = list(cs.all_vars())
    is_vars = list(writer.iter_vars)
    per_element = plan.agg_level == 0
    k = len(is_vars) + 1 if per_element else plan.agg_level
    multicast = plan.multicast

    # ---------------- send side -------------------------------------------
    send_rename = {v: v + "$r" for v in reader.iter_vars}
    send_system = cs.system.rename(send_rename)
    send_rename2 = {v + "$s": v for v in writer.iter_vars}
    send_rename2.update(
        {sp: p for sp, p in zip(cs.send_proc_vars, pvars)}
    )
    send_system = send_system.rename(send_rename2)
    send_all = [send_rename.get(v, v) for v in all_vars]
    send_all = [send_rename2.get(v, v) for v in send_all]

    is_prefix = is_vars[: k - 1]
    is_rest = is_vars[k - 1 :]
    pr_vars = list(cs.recv_proc_vars)

    ext_s = 0
    if options.early_placement:
        ext_s = _extend_prefix(
            send_system, list(pvars) + is_prefix, is_rest, context
        )
    send_prefix = list(pvars) + is_prefix + is_rest[:ext_s]
    content_s = is_rest[ext_s:] + list(cs.data_vars)
    # per-element mode: reader iterations join the message identity so
    # every dynamic read gets its own message (the unoptimized form)
    extra_msg_s = (
        [v + "$r" for v in reader.iter_vars] if per_element else []
    )

    buf = fresh_buffer()
    send_frag = None
    if multicast:
        pack_keep = send_prefix + content_s
        pack_sys = _project_onto(send_system, pack_keep, send_all)
        pack_scan = _scan_or_none(pack_sys, pack_keep, context)
        dest_keep = send_prefix + pr_vars
        dest_sys = _project_onto(send_system, dest_keep, send_all)
        dest_scan = _scan_or_none(dest_sys, dest_keep, context)
        if pack_scan is not None and dest_scan is not None:
            dests = "dests_" + buf

            def at_boundary(build_content):
                return [
                    CNewBuffer(buf),
                    build_content(
                        CPack(buf, cs.read_access.array.name,
                              _lins(cs.data_vars))
                    ),
                    CNewDestSet(dests),
                    scan_to_cast(
                        dest_scan,
                        CCollectDest(dests, _lins(pr_vars)),
                        skip=len(send_prefix),
                    ),
                    CSendMulti(
                        buf, dests, cs.label, _lins(pvars + tuple(is_prefix))
                    ),
                ]

            node = scan_to_cast_with_boundary(
                pack_scan,
                skip=len(send_prefix),
                boundary=len(send_prefix),
                at_boundary=at_boundary,
            )
            send_frag = _Fragment(node, writer, k - 1 + ext_s, "after")
    else:
        keep = send_prefix + pr_vars + extra_msg_s + content_s
        sys_ = _project_onto(send_system, keep, send_all)
        result = _scan_or_none(sys_, keep, context)
        if result is not None:
            msg_vars = [v for v in pr_vars + extra_msg_s if sys_.involves(v)]
            node = scan_to_cast_with_boundary(
                result,
                skip=len(send_prefix),
                boundary=len(send_prefix) + len(msg_vars),
                at_boundary=_send_leaf(
                    cs, buf, pr_vars,
                    list(pvars) + is_prefix + pr_vars + extra_msg_s,
                    pvars, options,
                ),
            )
            send_frag = _Fragment(
                node, writer, min(k - 1 + ext_s, len(is_vars)), "after"
            )

    # ---------------- receive side ------------------------------------------
    recv_rename = {rp: p for rp, p in zip(cs.recv_proc_vars, pvars)}
    recv_system = cs.system.rename(recv_rename)
    recv_all = [recv_rename.get(v, v) for v in all_vars]

    ir_vars = list(reader.iter_vars)
    ir_prefix = ir_vars if per_element else ir_vars[: k - 1]
    ir_rest = [] if per_element else ir_vars[k - 1 :]
    ps_vars = list(cs.send_proc_vars)
    is_s_prefix = [v + "$s" for v in is_prefix]
    is_s_pinned = [v + "$s" for v in is_rest[:ext_s]]
    content_r = [v + "$s" for v in is_rest[ext_s:]] + list(cs.data_vars)

    ext_r = 0
    if options.early_placement and ir_rest:
        msg_vars = [
            v
            for v in ps_vars + is_s_prefix
            if recv_system.involves(v)
        ]
        ext_r = _extend_recv_prefix(
            recv_system,
            list(pvars) + ir_prefix,
            ir_rest,
            msg_vars,
            context,
        )
    recv_prefix = list(pvars) + ir_prefix + ir_rest[:ext_r]

    keep_r = recv_prefix + ps_vars + is_s_prefix + is_s_pinned + content_r
    sys_r = _project_onto(recv_system, keep_r, recv_all)
    result_r = _scan_or_none(sys_r, keep_r, context)
    if result_r is None:
        return send_frag, None
    # the sender's tag layout: ps dims, is prefix [, pr dims [, reader
    # iteration in per-element mode]] -- a multicast carries no pr dims
    recv_tag = ps_vars + is_s_prefix
    if not multicast:
        recv_tag += list(pvars) + (ir_vars if per_element else [])
    msg_vars_r = [
        v for v in ps_vars + is_s_prefix + is_s_pinned if sys_r.involves(v)
    ]
    node = scan_to_cast_with_boundary(
        result_r,
        skip=len(recv_prefix),
        boundary=len(recv_prefix) + len(msg_vars_r),
        at_boundary=_recv_leaf(
            cs, fresh_buffer(), ps_vars, recv_tag, pvars, options,
            multicast=multicast,
        ),
    )
    return send_frag, _Fragment(node, reader, k - 1 + ext_r, "before")


def _preload_side(
    cs: CommSet,
    pvars: Tuple[str, ...],
    context: System,
    options: SPMDOptions,
    sending: bool,
) -> Optional[CNode]:
    """One side of a set moved outside the nest (Theorem 4 preload,
    Section 4.4.3 finalization): a standalone loop nest over this
    processor's virtual processors, which play ``p_s`` when sending and
    ``p_r`` when receiving; None when this side has nothing to do."""
    if sending:
        mine, peer = cs.send_proc_vars, list(cs.recv_proc_vars)
    else:
        mine, peer = cs.recv_proc_vars, list(cs.send_proc_vars)
    rename = dict(zip(mine, pvars))
    keep = list(pvars) + peer + list(cs.data_vars)
    proj = _project_onto(
        cs.system.rename(rename),
        keep,
        [rename.get(v, v) for v in cs.all_vars()],
    )
    result = _scan_or_none(proj, keep, context)
    if result is None:
        return None
    buf = fresh_buffer()
    if sending:
        leaf = _send_leaf(cs, buf, peer, list(pvars) + peer, pvars, options)
    else:
        leaf = _recv_leaf(cs, buf, peer, peer + list(pvars), pvars, options)
    rank = len(pvars)
    return scan_to_cast_with_boundary(
        result,
        skip=0,
        boundary=rank + len([v for v in peer if proj.involves(v)]),
        at_boundary=leaf,
        virt_dims={p: (dim, rank) for dim, p in enumerate(pvars)},
    )


# ---------------------------------------------------------------------------
# master structure
# ---------------------------------------------------------------------------

def _build_master(
    program: Program,
    comps: Dict[str, CompDecomp],
    pvars: Tuple[str, ...],
    context: System,
    fragments: List[_Fragment],
) -> CBlock:
    """The mirrored nest with per-statement refinement and fragment
    insertion, wrapped in virtual-processor loops."""
    rank = len(pvars)
    # per-statement refined scans
    stmt_scans: Dict[str, ScanResult] = {}
    for stmt in program.statements():
        comp = comps[stmt.name]
        order = list(pvars) + list(stmt.iter_vars)
        try:
            stmt_scans[stmt.name] = scan(
                comp.system(pvars), order, context=context
            )
        except EmptyPolyhedronError:
            stmt_scans[stmt.name] = None

    # group fragments by (anchor container id, child index, side)
    frag_index: Dict[Tuple[int, int, str], List[CNode]] = {}
    for frag in fragments:
        depth = frag.depth
        chain = frag.stmt.loops
        if depth > len(chain):
            depth = len(chain)
        container = chain[depth - 1] if depth >= 1 else None
        child_idx = frag.stmt.path[depth]
        key = (id(container), child_idx, frag.side)
        frag_index.setdefault(key, []).append(frag.node)

    def loop_level(stmt: Statement, loop: Loop) -> int:
        return stmt.loops.index(loop)

    def statements_under(nodes) -> List[Statement]:
        out = []
        for node in nodes:
            if isinstance(node, Statement):
                out.append(node)
            else:
                out.extend(statements_under(node.body))
        return out

    def build_body(nodes, container) -> CBlock:
        block = CBlock([])
        for idx, node in enumerate(nodes):
            key_b = (id(container), idx, "before")
            for frag_node in frag_index.get(key_b, []):
                block.children.append(frag_node)
            if isinstance(node, Statement):
                guards = guards_from_system(
                    comps[node.name].placement_only(pvars)
                )
                compute = CCompute(node)
                if guards:
                    block.children.append(
                        CGuard(guards, CBlock([compute]))
                    )
                else:
                    block.children.append(compute)
            else:
                block.children.append(build_loop(node))
            key_a = (id(container), idx, "after")
            for frag_node in frag_index.get(key_a, []):
                block.children.append(frag_node)
        return block

    def build_loop(loop: Loop) -> CNode:
        # refinement: all statements under this loop agree on the bounds?
        stmts = statements_under(loop.body)
        per_stmt = []
        for stmt in stmts:
            res = stmt_scans.get(stmt.name)
            if res is None:
                per_stmt.append(None)
                continue
            level = rank + loop_level(stmt, loop)
            per_stmt.append(res.loops[level])
        refined = None
        if per_stmt and all(sl is not None for sl in per_stmt):
            first = per_stmt[0]
            same = all(
                sl.lowers == first.lowers
                and sl.uppers == first.uppers
                and sl.assignment == first.assignment
                and sl.div_guard == first.div_guard
                and sl.step == first.step
                for sl in per_stmt
            )
            if same:
                refined = first
        body = build_body(loop.body, loop)
        if refined is not None:
            return _wrap_level(refined, body, {})
        plain = ScanLoop(
            loop.var,
            lowers=[(1, loop.lower)],
            uppers=[(1, loop.upper)],
        )
        return _wrap_level(plain, body, {})

    nest = build_body(program.body, None)

    # wrap in virtual processor loops (innermost dim innermost)
    space = next(iter(comps.values())).space
    wrapped: CNode = nest
    pdomain = space.virtual_domain(pvars)
    result = scan(pdomain, list(pvars), context=context, check_empty=False)
    for dim in range(rank - 1, -1, -1):
        level = result.loops[dim]
        if level.is_degenerate():
            lower = upper = level.assignment
        else:
            lower, upper = level.lower_expr(), level.upper_expr()
        wrapped = CVirtLoop(
            pvars[dim],
            lower,
            upper,
            dim,
            rank,
            wrapped if isinstance(wrapped, CBlock) else CBlock([wrapped]),
        )
    return CBlock([wrapped])


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

def _reset_fresh_name_counters() -> None:
    """Make each compilation a deterministic function of its inputs.

    Fresh names (FM/lexmax auxiliaries, uniform-family offsets, message
    buffers) only need to be distinct within one compile; restarting
    their counters at compile entry makes identical inputs produce
    bit-identical artifacts and identical content-addressed cache keys
    across repeats and across processes.
    """
    from ..core.group import reset_offset_names
    from ..polyhedra.lexmax import reset_aux_names as _reset_lexmax
    from ..polyhedra.omega import reset_aux_names as _reset_omega
    from .cast import reset_buffer_names

    reset_offset_names()
    _reset_lexmax()
    _reset_omega()
    reset_buffer_names()


def generate_spmd(
    program: Program,
    comps: Dict[str, CompDecomp],
    initial_data: Optional[Dict[str, DataDecomp]] = None,
    final_data: Optional[Dict[str, DataDecomp]] = None,
    options: Optional[SPMDOptions] = None,
) -> SPMD:
    """Compile a program + decompositions into an SPMD node program.

    ``comps`` maps statement names to computation decompositions (all on
    the same processor space).  ``initial_data`` maps array names to the
    initial data decomposition; reads of values defined outside the nest
    whose array has an entry get Theorem-4 preload communication, other
    arrays are assumed replicated (every processor already has them).
    ``final_data`` requests finalization (Section 4.4.3): live-out
    values are written back to their homes under the final layout after
    the nest.
    """
    options = options or SPMDOptions()
    _reset_fresh_name_counters()
    context = program.assumptions
    spaces = {id(c.space) for c in comps.values()}
    if len(spaces) != 1:
        raise SPMDGenerationError(
            "all computation decompositions must share one processor space"
        )
    space = next(iter(comps.values())).space
    pvars = tuple(f"p{k}" for k in range(space.rank))

    trees = all_trees(program)
    commsets: List[CommSet] = []
    plans = []
    fragments: List[_Fragment] = []
    preload_sends: List[CNode] = []
    preload_recvs: List[CNode] = []
    final_sends: List[CNode] = []
    final_recvs: List[CNode] = []

    def without_self_reuse(sets):
        for cs in sets:
            yield from eliminate_self_reuse(cs) if options.self_reuse else [cs]

    def one_sender(sets, d_init):
        # a replicated layout has every processor hold the data; one
        # canonical sender per element keeps each value sent once
        for cs in sets:
            yield from canonicalize_senders(cs) if d_init.is_replicated() else [cs]

    def lower_outside(sets, sends, recvs):
        for cs in sets:
            if cs.is_empty():
                continue
            commsets.append(cs)
            for side, out in ((True, sends), (False, recvs)):
                node = _preload_side(cs, pvars, context, options, side)
                if node is not None:
                    out.append(node)

    for (stmt_name, ridx), tree in trees.items():
        stmt = program.statement(stmt_name)
        access = stmt.reads[ridx]
        label = f"{stmt_name}.r{ridx}."
        for leaf in tree.writer_leaves():
            base_sets = from_leaf(
                leaf,
                access,
                comps[stmt_name],
                comps[leaf.writer.name],
                assumptions=context,
                label=label,
            )
            for cs in without_self_reuse(base_sets):
                if cs.is_empty():
                    continue
                plan = build_plan(
                    cs,
                    aggregate=options.aggregate,
                    detect_multicast=options.multicast,
                    context=context,
                )
                commsets.append(cs)
                plans.append(plan)
                for frag in _carried_fragments(cs, plan, pvars, context, options):
                    if frag is not None:
                        fragments.append(frag)
        if initial_data and access.array.name in initial_data:
            d_init = initial_data[access.array.name]
            for leaf in tree.bottom_leaves():
                sets = initial_comm(
                    leaf,
                    access,
                    comps[stmt_name],
                    d_init,
                    assumptions=context,
                    label=label,
                )
                lower_outside(
                    without_self_reuse(one_sender(sets, d_init)),
                    preload_sends,
                    preload_recvs,
                )

    # finalization (Section 4.4.3)
    if final_data:
        from ..core.finalization import (
            finalization_comm,
            finalization_initial,
        )
        from ..dataflow.finalize import final_write_tree

        for array_name, d_final in final_data.items():
            array = program.arrays[array_name]
            tree = final_write_tree(program, array)
            probe = tree.stmt
            # one label per leaf: the sets of different leaves connect
            # the same processor pairs, so a shared label would give
            # distinct messages the same tag
            for k, leaf in enumerate(tree.writer_leaves()):
                sets = finalization_comm(
                    leaf,
                    probe,
                    array,
                    comps[leaf.writer.name],
                    d_final,
                    assumptions=context,
                    label=f"{array_name}.w{k}.",
                )
                lower_outside(sets, final_sends, final_recvs)
            if initial_data and array_name in initial_data:
                d_init = initial_data[array_name]
                for k, leaf in enumerate(tree.bottom_leaves()):
                    sets = finalization_initial(
                        leaf,
                        probe,
                        array,
                        d_init,
                        d_final,
                        assumptions=context,
                        label=f"{array_name}.b{k}.",
                    )
                    lower_outside(
                        one_sender(sets, d_init), final_sends, final_recvs
                    )

    master = _build_master(program, comps, pvars, context, fragments)

    children: List[CNode] = []
    if preload_sends or preload_recvs:
        children.append(CComment("preload: initial data movement (Thm 4)"))
        children.extend(preload_sends)
        children.extend(preload_recvs)
    children.append(CComment("main nest"))
    children.extend(master.children)
    if final_sends or final_recvs:
        children.append(
            CComment("finalization: write-back to the final layout (4.4.3)")
        )
        children.extend(final_sends)
        children.extend(final_recvs)
    tree = CBlock(children)

    node = compile_node_program(
        tree, space.rank, program.params, vectorize=options.vectorize
    )
    return SPMD(
        program=program,
        space=space,
        tree=tree,
        source=node.__source__,
        c_text=emit_c(tree),
        node=node,
        commsets=commsets,
        plans=plans,
    )
