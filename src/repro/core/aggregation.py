"""Message aggregation and multicast detection (paper Section 6.2).

All elements of a communication set share one dependence level k, so
batching every transfer within an iteration of loop k into one message
is always legal.  The send code scans the set in

    (p_s, i_s[1..k-1], p_r,  i_s[k..], a, i_r...)

order: each instance of the outer (message) loops produces one message;
the inner loops pack items.  The receive side scans

    (p_r, i_r[1..k-1], p_s, i_s[1..k-1],  i_s[k..], a, i_r[k..])

so items are unpacked in exactly the order the sender packed them (the
relation pins i_r[j] == i_s[j] for j < k, so the two message streams
match one-to-one in FIFO order).

Multicast (Section 6.2.1): when the content-loop bounds do not involve
the receiver, every receiver gets an identical message; pack once,
send to each receiver (or use a collective).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..polyhedra import (
    SUBSUME,
    LinExpr,
    ScanResult,
    System,
    eliminate_many,
    implies_equality,
    implies_inequality,
    integer_feasible,
    scan,
    simplify,
)
from .commsets import CommSet


@dataclass
class MessagePlan:
    """How one communication set becomes messages.

    ``send_order``/``recv_order``: full lexicographic scan orders.
    ``send_msg_prefix``/``recv_msg_prefix``: how many leading variables
    identify a message (the rest enumerate its contents).
    ``content_vars``: the shared content enumeration (identical on both
    sides, guaranteeing pack order == unpack order).
    """

    commset: CommSet
    agg_level: int                   # 0 = per-element messages
    send_order: Tuple[str, ...]
    recv_order: Tuple[str, ...]
    send_msg_prefix: int
    recv_msg_prefix: int
    content_vars: Tuple[str, ...]
    multicast: bool = False

    def describe(self) -> str:
        lvl = f"level {self.agg_level}" if self.agg_level else "per-element"
        mc = " multicast" if self.multicast else ""
        return (
            f"plan[{self.commset.label}] {lvl}{mc}: send "
            f"{self.send_order[: self.send_msg_prefix]} | "
            f"{self.send_order[self.send_msg_prefix:]}"
        )


def build_plan(
    commset: CommSet,
    aggregate: bool = True,
    detect_multicast: bool = True,
    context: Optional[System] = None,
) -> MessagePlan:
    """Choose scan orders and message boundaries for a communication set."""
    cs = commset
    aux = tuple(cs.aux_vars)

    if not aggregate:
        # Section 5.3's unoptimized form: one message per element.
        send_order = (
            cs.send_proc_vars
            + cs.send_iter_vars
            + cs.recv_proc_vars
            + cs.recv_iter_vars
            + cs.data_vars
            + aux
        )
        recv_order = (
            cs.recv_proc_vars
            + cs.recv_iter_vars
            + cs.send_proc_vars
            + cs.send_iter_vars
            + cs.data_vars
            + aux
        )
        return MessagePlan(
            cs,
            agg_level=0,
            send_order=_present(cs, send_order),
            recv_order=_present(cs, recv_order),
            send_msg_prefix=len(_present(cs, send_order)),
            recv_msg_prefix=len(_present(cs, recv_order)),
            content_vars=(),
        )

    if cs.write_stmt is None or cs.finalization:
        # Preload / finalization: everything between one (p_s, p_r) pair
        # travels in a single message before (resp. after) the nest.
        content = cs.data_vars + cs.send_iter_vars + cs.recv_iter_vars + aux
        send_order = cs.send_proc_vars + cs.recv_proc_vars + content
        recv_order = cs.recv_proc_vars + cs.send_proc_vars + content
        plan = MessagePlan(
            cs,
            agg_level=0,
            send_order=_present(cs, send_order),
            recv_order=_present(cs, recv_order),
            send_msg_prefix=len(cs.send_proc_vars) + len(cs.recv_proc_vars),
            recv_msg_prefix=len(cs.send_proc_vars) + len(cs.recv_proc_vars),
            content_vars=_present(cs, content),
        )
    else:
        k = max(1, cs.level)
        outer_s = cs.send_iter_vars[: k - 1]
        inner_s = cs.send_iter_vars[k - 1 :]
        outer_r = cs.recv_iter_vars[: k - 1]
        inner_r = cs.recv_iter_vars[k - 1 :]
        content = inner_s + cs.data_vars
        send_order = (
            cs.send_proc_vars
            + outer_s
            + cs.recv_proc_vars
            + content
            + inner_r
            + outer_r
            + aux
        )
        recv_order = (
            cs.recv_proc_vars
            + outer_r
            + cs.send_proc_vars
            + outer_s
            + content
            + inner_r
            + aux
        )
        plan = MessagePlan(
            cs,
            agg_level=k,
            send_order=_present(cs, send_order),
            recv_order=_present(cs, recv_order),
            send_msg_prefix=_prefix_len(
                cs,
                cs.send_proc_vars + outer_s + cs.recv_proc_vars,
            ),
            recv_msg_prefix=_prefix_len(
                cs,
                cs.recv_proc_vars + outer_r + cs.send_proc_vars + outer_s,
            ),
            content_vars=_present(cs, content),
        )

    if detect_multicast and plan.content_vars:
        plan.multicast = _contents_independent_of_receiver(plan, context)
    return plan


def _present(cs: CommSet, names: Tuple[str, ...]) -> Tuple[str, ...]:
    """Keep variables actually constrained in the system, preserving order
    and dropping duplicates."""
    sys_vars = cs.system.variables()
    seen = dict.fromkeys(n for n in names if n in sys_vars)
    return tuple(seen)


def _prefix_len(cs: CommSet, names: Tuple[str, ...]) -> int:
    return len(_present(cs, names))


def _contents_independent_of_receiver(
    plan: MessagePlan, context: Optional[System]
) -> bool:
    """Multicast test (Section 6.2.1): identical contents per receiver.

    Semantically: given the message prefix, the set of content tuples
    must not depend on the receiving processor.  We project the set
    onto (prefix, content, p_r) and check it factors into
    (prefix, content) x (prefix, p_r): every constraint of the joint
    projection must be implied by the two marginals.  Projection uses
    Fourier-Motzkin, exact for the unit-coefficient systems in our
    domain; on failure we conservatively answer False.
    """
    cs = plan.commset
    recv_procs = [v for v in cs.recv_proc_vars]
    prefix = [
        v
        for v in plan.send_order[: plan.send_msg_prefix]
        if v not in recv_procs
    ]
    keep = set(prefix) | set(plan.content_vars) | set(recv_procs)
    others = [v for v in cs.all_vars() if v not in keep]
    try:
        # Subsumption keeps the constraint lists short: every surviving
        # joint constraint costs one integer implication check below.
        joint = simplify(eliminate_many(cs.system, others), level=SUBSUME)
        marginal_content = simplify(
            eliminate_many(joint, recv_procs), level=SUBSUME
        )
        marginal_recv = simplify(
            eliminate_many(joint, list(plan.content_vars)), level=SUBSUME
        )
    except Exception:
        return False
    product = marginal_content.intersect(marginal_recv)
    if context is not None:
        product = product.intersect(context)
    for eq in joint.equalities:
        if not implies_equality(product, eq):
            return False
    for ineq in joint.inequalities:
        if not implies_inequality(product, ineq):
            return False
    # Only worth calling multicast when one message can actually have
    # several receivers: two distinct p_r for the same prefix.
    rename = {v: v + "$2" for v in recv_procs}
    doubled = marginal_recv.intersect(marginal_recv.rename(rename))
    if context is not None:
        doubled = doubled.intersect(context)
    for v in recv_procs:
        try:
            branch = doubled.copy()
            branch.add_lt(LinExpr.var(v), LinExpr.var(v + "$2"))
        except Exception:
            continue
        if integer_feasible(branch):
            return True
    return False
