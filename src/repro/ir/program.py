"""Whole programs: loop nests + arrays + symbolic parameters."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..polyhedra import LinExpr, System
from .arrays import Access, Array
from .loops import Loop, Node, Statement

#: the attributes :class:`Program` memoizes per instance
_MEMOS = ("_run_nest", "_live_out_nest", "_key_text")


@dataclass
class Program:
    """A program in the paper's domain (Section 4.1).

    ``body`` is a sequence of loops/statements; ``params`` are the
    symbolic constants; ``assumptions`` constrain the parameters (e.g.
    ``N >= 1``) and flow into every analysis as context.
    """

    name: str
    body: List[Node]
    params: Tuple[str, ...] = ()
    assumptions: System = field(default_factory=System)
    arrays: Dict[str, Array] = field(default_factory=dict)

    #: the compiled sequential nests of :mod:`repro.ir.interp` and the
    #: program's canonical text in :func:`repro.core.serialize.job_key`,
    #: built there on first use; dropped by :meth:`finalize` and never
    #: pickled (class defaults, not fields)
    _run_nest = None
    _live_out_nest = None
    _key_text = None

    def __post_init__(self):
        self.finalize()

    # -- structural bookkeeping -------------------------------------------

    def finalize(self) -> None:
        """Recompute statement loop chains, paths and the array table
        (and drop the nests and key text built from the old ones)."""
        for memo in _MEMOS:
            self.__dict__.pop(memo, None)
        self.arrays = {}
        seen_vars: List[str] = []
        counter = [0]

        def walk(nodes: Sequence[Node], loops: Tuple[Loop, ...], path: Tuple[int, ...]):
            for idx, node in enumerate(nodes):
                if isinstance(node, Statement):
                    counter[0] += 1
                    if not node.name:
                        node.name = f"S{counter[0]}"
                    node.loops = loops
                    node.path = path + (idx,)
                    self._register_arrays(node)
                else:
                    if node.var in seen_vars:
                        raise ValueError(
                            f"duplicate loop variable {node.var!r}; loop "
                            "variables must be unique within a program"
                        )
                    seen_vars.append(node.var)
                    walk(node.body, loops + (node,), path + (idx,))

        walk(self.body, (), ())

    def _register_arrays(self, stmt: Statement) -> None:
        for access in [stmt.lhs, *stmt.reads]:
            known = self.arrays.get(access.array.name)
            if known is None:
                self.arrays[access.array.name] = access.array
            elif known is not access.array:
                raise ValueError(
                    f"two distinct Array objects named {access.array.name!r}"
                )

    def __getstate__(self):
        state = self.__dict__.copy()
        for memo in _MEMOS:
            state.pop(memo, None)
        return state

    # -- queries ---------------------------------------------------------------

    def statements(self) -> List[Statement]:
        out: List[Statement] = []

        def walk(nodes):
            for node in nodes:
                if isinstance(node, Statement):
                    out.append(node)
                else:
                    walk(node.body)

        walk(self.body)
        return out

    def statement(self, name: str) -> Statement:
        for stmt in self.statements():
            if stmt.name == name:
                return stmt
        raise KeyError(name)

    def writes_to(self, array: Array) -> List[Statement]:
        return [s for s in self.statements() if s.lhs.array is array]

    def loop_vars(self) -> List[str]:
        out: List[str] = []

        def walk(nodes):
            for node in nodes:
                if isinstance(node, Loop):
                    out.append(node.var)
                    walk(node.body)

        walk(self.body)
        return out

    def single_nest(self) -> Loop:
        """The unique top-level loop (most analyses work per-nest)."""
        loops = [n for n in self.body if isinstance(n, Loop)]
        if len(loops) != 1 or len(self.body) != 1:
            raise ValueError(f"program {self.name} is not a single loop nest")
        return loops[0]

    def pretty(self) -> str:
        lines: List[str] = []

        def walk(nodes, indent):
            for node in nodes:
                if isinstance(node, Statement):
                    lines.append("  " * indent + str(node))
                else:
                    lines.append(
                        "  " * indent
                        + f"for {node.var} = {node.lower} to {node.upper} do"
                    )
                    walk(node.body, indent + 1)

        walk(self.body, 0)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.pretty()
