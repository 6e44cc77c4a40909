"""Generated Python for the sequential semantics.

One printer renders a statement as straight-line Python: affine
subscripts become integer expressions over local names, and the
right-hand side is printed from the statement's ``fn_spec`` AST (the
same recipe :func:`repro.lang.parser.compile_fn_spec` closes over), so
no closure tree or ``LinExpr.evaluate`` runs per instance.  Every
constant -- numbers, opaque-call names, statement objects -- is bound
by name in the function's globals, never printed with ``repr``.  A
statement without an ``fn_spec`` (built from a raw Python callable)
calls ``stmt.fn(values, env)`` from the generated code instead.

The printer has four users:

* :func:`compile_kernel` -- one ``kernel(arrays, env)`` per statement,
  equivalent bit for bit to :meth:`Statement.execute`;
* :func:`compile_range_kernel` -- ``run(arrays, env, lo, stop, step)``,
  the same instance in a ``for`` over one loop variable, equivalent to
  one ``kernel`` call per iterate in ascending order;
* :func:`compile_run` -- the whole program as one loop nest,
  equivalent to the tree walk of :func:`repro.ir.interp.run_traced`;
* :func:`compile_live_out` -- the same nest recording, per written
  location, the ``(statement index, iteration)`` of its last write.

Each operation happens in the reference's order on the reference's
operand types: all reads first (``cond`` statements read everything
eagerly), then the right-hand side left to right, then the store.
The generated functions are closures over ``exec`` globals: callers
cache them on the owning object and keep them out of pickled state.
"""

from __future__ import annotations

import keyword
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .loops import Statement
from .program import Program


class _Namespace:
    """The globals of one generated function, plus its local names."""

    def __init__(self):
        self.globals: Dict[str, object] = {}
        self._locals: Dict[Tuple[str, str], str] = {}

    def const(self, value) -> str:
        """A fresh global name bound to ``value``."""
        name = f"_k{len(self.globals)}"
        self.globals[name] = value
        return name

    def local(self, prefix: str, name: str) -> str:
        """A stable Python local for a program name: ``<prefix>_<name>``
        when that is an identifier, a numbered ``_<prefix><k>`` if not.
        Internal names start with ``_`` and prefixes are single letters,
        so neither form collides with them or with another name."""
        key = (prefix, name)
        out = self._locals.get(key)
        if out is None:
            if name.isidentifier() and not keyword.iskeyword(name):
                out = f"{prefix}_{name}"
            else:
                out = f"_{prefix}{len(self._locals)}"
            self._locals[key] = out
        return out


def _affine(expr, var: Callable[[str], str]) -> str:
    """``expr`` as an integer Python expression over ``var(name)``."""
    parts: List[str] = []
    for name, coeff in expr.terms():
        term = var(name) if abs(coeff) == 1 else f"{abs(coeff)} * {var(name)}"
        if not parts:
            parts.append(term if coeff > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if coeff > 0 else f"- {term}")
    if expr.const or not parts:
        sign = "-" if expr.const < 0 else "+"
        parts.append(f"{sign} {abs(expr.const)}" if parts else str(expr.const))
    return " ".join(parts)


def _subscript(access, var) -> str:
    """The index of ``access``: ``i - 1``, ``i, j`` or ``()``."""
    return ", ".join(_affine(e, var) for e in access.indices) or "()"


def _tuple(items) -> str:
    items = list(items)
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


def _rhs(node, ns: _Namespace, reads: Sequence[str], env_var) -> str:
    """The fn_spec AST ``node`` as one Python expression."""
    from ..lang import parser as ast  # cycle: lang builds on ir

    if isinstance(node, ast.ENum):
        return ns.const(node.value)
    if isinstance(node, ast.EVar):
        return env_var(node.name)
    if isinstance(node, ast.ERef):
        return reads[node.index]
    if isinstance(node, (ast.EBin, ast.ECmp)):
        if node.op not in ast._BINOPS and node.op not in ast._CMPOPS:
            raise ValueError(f"unknown operator {node.op!r}")
        left = _rhs(node.left, ns, reads, env_var)
        right = _rhs(node.right, ns, reads, env_var)
        return f"({left} {node.op} {right})"
    if isinstance(node, ast.ECall):
        args = ", ".join(_rhs(a, ns, reads, env_var) for a in node.args)
        return f"{ns.const(ast._opaque)}({ns.const(node.name)}, [{args}])"
    raise TypeError(node)


def _statement(
    stmt: Statement,
    ns: _Namespace,
    var: Callable[[str], str],
    env_var: Callable[[str], str],
    env: str,
    pad: str,
) -> List[str]:
    """Source lines executing one instance of ``stmt``.

    ``var`` names the local holding a loop variable or parameter for
    subscripts, ``env_var`` the expression for an RHS variable, and
    ``env`` the mapping a raw ``fn`` receives.  Array objects are
    bound to locals ``a_<name>`` by the caller.
    """
    lines: List[str] = []
    reads = []
    for k, access in enumerate(stmt.reads):
        arr = ns.local("a", access.array.name)
        lines.append(f"{pad}_r{k} = {arr}[{_subscript(access, var)}]")
        reads.append(f"_r{k}")
    spec = stmt.fn_spec
    if spec is None:
        value = f"{ns.const(stmt)}.fn([{', '.join(reads)}], {env})"
    elif spec[0] == "expr":
        value = _rhs(spec[1], ns, reads, env_var)
    elif spec[0] == "cond":
        rhs = _rhs(spec[1], ns, reads, env_var)
        cond = _rhs(spec[2], ns, reads, env_var)
        value = f"{rhs} if {cond} else {reads[spec[3]]}"
    else:
        raise ValueError(f"unknown fn_spec kind {spec[0]!r}")
    lhs = stmt.lhs
    arr = ns.local("a", lhs.array.name)
    lines.append(f"{pad}{arr}[{_subscript(lhs, var)}] = {value}")
    return lines


def _arrays_of(stmts: Sequence[Statement]) -> List[str]:
    names: List[str] = []
    for stmt in stmts:
        for access in (*stmt.reads, stmt.lhs):
            if access.array.name not in names:
                names.append(access.array.name)
    return names


def _build(ns: _Namespace, lines: List[str], name: str, label: str):
    source = "\n".join(lines) + "\n"
    code = compile(source, f"<{label}>", "exec")
    exec(code, ns.globals)
    fn = ns.globals[name]
    fn.__source__ = source
    return fn


def _instance(
    stmt: Statement, loop_var: Optional[str]
) -> Tuple[_Namespace, List[str], List[str]]:
    """(namespace, header, body) of one instance of ``stmt``: the header
    reads every subscript variable but ``loop_var`` (which the caller
    binds, or None) from ``env`` once, up front, then binds the arrays;
    the body is indented for a ``for`` over ``loop_var`` when given."""
    ns = _Namespace()
    header: List[str] = []
    bound = set() if loop_var is None else {ns.local("v", loop_var)}

    def var(name):
        local = ns.local("v", name)
        if local not in bound:
            bound.add(local)
            header.append(f"    {local} = env[{name!r}]")
        return local

    def env_var(name):
        local = ns.local("v", name)
        return local if local in bound else f"env[{name!r}]"

    # every subscript is evaluated on every instance: read its
    # variables once, up front
    for access in (*stmt.reads, stmt.lhs):
        for expr in access.indices:
            for name, _ in expr.terms():
                var(name)
    pad = "    " if loop_var is None else "        "
    body = _statement(stmt, ns, var, env_var, "env", pad)
    header += [
        f"    {ns.local('a', a)} = arrays[{a!r}]" for a in _arrays_of([stmt])
    ]
    return ns, header, body


def compile_kernel(stmt: Statement) -> Callable:
    """``kernel(arrays, env)``: one instance of ``stmt``, as
    :meth:`Statement.execute` runs it."""
    ns, header, body = _instance(stmt, None)
    lines = ["def kernel(arrays, env):", *header, *body]
    return _build(ns, lines, "kernel", f"kernel {stmt.name}")


def compile_range_kernel(stmt: Statement, loop_var: str) -> Callable:
    """``run(arrays, env, lo, stop, step)``: ``stmt`` for ``loop_var``
    in ``range(lo, stop, step)``, ascending, as that many
    :func:`compile_kernel` calls with ``env[loop_var]`` set to each
    iterate would run it.  ``loop_var`` is a Python local; the other
    subscript variables are read from ``env`` once, up front.  A raw
    ``fn`` gets ``env[loop_var]`` written before each call."""
    ns, header, body = _instance(stmt, loop_var)
    loop = ns.local("v", loop_var)
    if stmt.fn_spec is None:
        body.insert(0, f"        env[{loop_var!r}] = {loop}")
    lines = [
        "def run(arrays, env, lo, stop, step):",
        *header,
        f"    for {loop} in range(lo, stop, step):",
        *body,
    ]
    return _build(ns, lines, "run", f"range kernel {stmt.name} {loop_var}")


def _nest(program: Program, record_writes: bool) -> Tuple[_Namespace, List[str]]:
    """The body of ``program`` as one loop nest (shared by run and
    live-out); free variables come from ``params``."""
    ns = _Namespace()
    index = {id(s): k for k, s in enumerate(program.statements())}
    header: List[str] = []
    params: set = set()
    raw = any(s.fn_spec is None for s in program.statements())
    body: List[str] = []

    def emit(nodes, loops: Tuple[str, ...], depth: int):
        pad = "    " * depth

        def var(name):
            if name in loops:
                return ns.local("i", name)
            local = ns.local("p", name)
            if local not in params:
                params.add(local)
                header.append(f"    {local} = params[{name!r}]")
            return local

        for node in nodes:
            if isinstance(node, Statement):
                if record_writes:
                    loc = _tuple(_affine(e, var) for e in node.lhs.indices)
                    it = _tuple(var(v) for v in node.iter_vars)
                    body.append(
                        f"{pad}_w[{node.lhs.array.name!r}, {loc}]"
                        f" = ({index[id(node)]}, {it})"
                    )
                else:
                    body.extend(_statement(node, ns, var, var, "_env", pad))
                continue
            low = _affine(node.lower, var)
            high = _affine(node.upper, var)
            local = ns.local("i", node.var)
            body.append(f"{pad}for {local} in range({low}, {high} + 1):")
            # a raw ``fn`` sees the loop variables in ``_env``, set and
            # popped exactly as the tree walk does
            track = raw and not record_writes and any(
                s.fn_spec is None for s in node.statements()
            )
            if track:
                body.append(f"{pad}    _env[{node.var!r}] = {local}")
            before = len(body)
            emit(node.body, loops + (node.var,), depth + 1)
            if len(body) == before:
                body.append(f"{pad}    pass")
            if track:
                body.append(f"{pad}_env.pop({node.var!r}, None)")

    emit(program.body, (), 1)
    lines = list(header)
    if record_writes:
        lines.append("    _w = {}")
    else:
        if raw:
            lines.append("    _env = dict(params)")
        lines.extend(
            f"    {ns.local('a', a)} = arrays[{a!r}]"
            for a in _arrays_of(program.statements())
        )
    return ns, lines + body


def compile_run(program: Program) -> Callable:
    """``run(arrays, params)``: the program's sequential execution."""
    ns, body = _nest(program, record_writes=False)
    lines = ["def run(arrays, params):", *body, "    return arrays"]
    return _build(ns, lines, "run", f"run {program.name}")


def compile_live_out(program: Program) -> Callable:
    """``live_out(params)``: ``{(array, location): (statement index,
    iteration)}`` of each location's last write, in first-write order."""
    ns, body = _nest(program, record_writes=True)
    lines = ["def live_out(params):", *body, "    return _w"]
    return _build(ns, lines, "live_out", f"live_out {program.name}")
