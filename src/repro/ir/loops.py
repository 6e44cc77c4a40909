"""Loop nests and statements (paper Section 4.1).

The program domain is a set of loop nests whose bounds are affine
expressions of outer loop indices and symbolic constants, containing
assignment statements whose array subscripts are affine too.  A
statement's right-hand side is an opaque scalar function of the values
it reads (the compiler never needs to understand the arithmetic, only
the access pattern -- exactly the paper's model).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Sequence, Tuple, Union

from ..polyhedra import LinExpr, System
from .arrays import Access, Array

_STMT_COUNTER = itertools.count(1)


@dataclass
class Statement:
    """An assignment ``lhs = fn(reads...)`` at some nesting depth.

    ``fn`` receives the read values (in ``reads`` order) and the integer
    environment of the enclosing loop variables and parameters; it
    returns the scalar to store.  ``guard_reads_lhs`` marks statements
    inside conditionals (Section 4.1): they are modeled as also reading
    the previous value of the lhs location.
    """

    lhs: Access
    reads: List[Access]
    fn: Callable
    name: str = ""
    text: str = ""
    guard_reads_lhs: bool = False

    # Filled in by Program.finalize():
    loops: Tuple["Loop", ...] = field(default_factory=tuple)
    path: Tuple[int, ...] = field(default_factory=tuple)

    #: picklable recipe for rebuilding ``fn`` (the parser's RHS AST; see
    #: :func:`repro.lang.parser.compile_fn_spec`).  ``fn`` itself is a
    #: closure and cannot be pickled; statements with an ``fn_spec``
    #: round-trip through the compile cache, ones built directly from
    #: Python callables do not.
    fn_spec: Optional[tuple] = None

    #: the generated code, built on first use: ``{None: kernel}`` for
    #: :meth:`kernel`, ``{var: run}`` for each :meth:`range_kernel`;
    #: never pickled (a class default, not a field)
    _kernel = None

    #: :meth:`gatherable`'s verdict, computed on first use; never pickled
    _gather = None

    def __post_init__(self):
        # unnamed statements get "S<k>" when the owning Program finalizes
        if self.guard_reads_lhs and self.lhs not in self.reads:
            self.reads = list(self.reads) + [self.lhs]

    @property
    def depth(self) -> int:
        return len(self.loops)

    @property
    def iter_vars(self) -> Tuple[str, ...]:
        return tuple(loop.var for loop in self.loops)

    def domain(self) -> System:
        """The iteration set of the statement as a System."""
        out = System()
        for loop in self.loops:
            out.add_range(LinExpr.var(loop.var), loop.lower, loop.upper)
        return out

    def domain_renamed(self, suffix: str) -> Tuple[System, Tuple[str, ...]]:
        """Domain with iteration variables suffixed (for multi-space systems)."""
        mapping = {v: v + suffix for v in self.iter_vars}
        return self.domain().rename(mapping), tuple(
            v + suffix for v in self.iter_vars
        )

    def execute(self, arrays: Mapping[str, "np.ndarray"], env: Mapping[str, int]):
        """One instance, interpreted: the reference :meth:`kernel` and
        the compiled oracle are checked against."""
        values = [arrays[a.array.name][a.evaluate(env)] for a in self.reads]
        arrays[self.lhs.array.name][self.lhs.evaluate(env)] = self.fn(values, env)

    def kernel(self) -> Callable:
        """``kernel(arrays, env)``, equivalent to :meth:`execute` bit for
        bit: generated Python source (:mod:`repro.ir.kernels`), built on
        first use and cached on the instance."""
        return self._generated(None)

    def range_kernel(self, var: str) -> Callable:
        """``run(arrays, env, lo, stop, step)``: this statement for
        ``var`` in ``range(lo, stop, step)``, equivalent bit for bit to
        one :meth:`kernel` call per iterate in ascending order; built on
        first use and cached on the instance per loop variable."""
        return self._generated(var)

    def gatherable(self) -> bool:
        """Does :meth:`kernel` with an index vector bound to a loop
        variable compute every instance at once, element for element
        (see :func:`repro.ir.kernels.gatherable`)?  Computed on first
        use and cached on the instance."""
        if self._gather is None:
            from .kernels import gatherable  # cycle: kernels uses loops

            self._gather = gatherable(self)
        return self._gather

    def _generated(self, var: Optional[str]) -> Callable:
        cache = self._kernel
        if cache is None:
            cache = self._kernel = {}
        fn = cache.get(var)
        if fn is None:
            # cycle: kernels uses loops
            from .kernels import compile_kernel, compile_range_kernel

            fn = cache[var] = (
                compile_kernel(self)
                if var is None
                else compile_range_kernel(self, var)
            )
        return fn

    def __str__(self) -> str:
        if self.text:
            return self.text
        reads = ", ".join(str(r) for r in self.reads)
        return f"{self.lhs} = fn({reads})"

    def __hash__(self):
        return id(self)

    def __eq__(self, other):
        return self is other

    # -- pickling ---------------------------------------------------------
    # ``fn`` is a closure; the AST recipe in ``fn_spec`` stands in for it
    # on the wire and is recompiled on load.  Generated kernels and the
    # gather verdict are dropped too (rebuilt on first use after load).

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_kernel", None)
        state.pop("_gather", None)
        if state.get("fn_spec") is not None:
            state["fn"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        if self.fn is None and self.fn_spec is not None:
            from ..lang.parser import compile_fn_spec  # cycle: lazy

            self.fn = compile_fn_spec(self.fn_spec)


@dataclass
class Loop:
    """``for var = lower to upper do body`` (inclusive bounds, step 1)."""

    var: str
    lower: LinExpr
    upper: LinExpr
    body: List[Union["Loop", Statement]] = field(default_factory=list)

    def __post_init__(self):
        self.lower = LinExpr.coerce(self.lower)
        self.upper = LinExpr.coerce(self.upper)

    def statements(self):
        for child in self.body:
            if isinstance(child, Statement):
                yield child
            else:
                yield from child.statements()

    def __str__(self) -> str:
        return f"for {self.var} = {self.lower} to {self.upper}"

    def __hash__(self):
        return id(self)

    def __eq__(self, other):
        return self is other


Node = Union[Loop, Statement]


def common_loops(s1: Statement, s2: Statement) -> int:
    """Number of loops enclosing both statements (identical loop objects)."""
    count = 0
    for l1, l2 in zip(s1.loops, s2.loops):
        if l1 is not l2:
            break
        count += 1
    return count


def textually_before(s1: Statement, s2: Statement) -> bool:
    """Does s1 appear before s2 in the program text?

    Statements are compared by their body-index paths from the root;
    the statement whose path is lexicographically smaller comes first.
    """
    if s1 is s2:
        return False
    return s1.path < s2.path
