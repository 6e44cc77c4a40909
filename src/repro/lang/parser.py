"""Parser for the paper's loop pseudo-language.

Produces :class:`repro.ir.Program` objects.  The accepted grammar covers
every example in the paper::

    array X[N + 1]            # optional declarations (sizes affine)
    assume N >= 3             # optional parameter assumptions
    for t = 0 to T do
      for i = 3 to N do
        s1: X[i] = X[i - 3]   # optional statement labels

Subscripts accept both ``X[i][j]`` and ``X[i, j]``.  Right-hand sides
are arbitrary arithmetic over array references, numbers and scalar
parameters; unknown function names (``f(...)``) become deterministic
opaque combiners so dataflow mistakes perturb results detectably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..ir.arrays import Access, Array
from ..ir.loops import Loop, Statement
from ..ir.program import Program
from ..polyhedra import LinExpr, System
from .lexer import Token, tokenize


class ParseError(Exception):
    """Syntax error or non-affine expression where one is required."""


# -- RHS expression AST -------------------------------------------------------

@dataclass
class ENum:
    value: float


@dataclass
class EVar:
    name: str  # loop variable or symbolic parameter, read from env


@dataclass
class ERef:
    index: int  # position in the statement's read list


@dataclass
class EBin:
    op: str
    left: object
    right: object


@dataclass
class ECall:
    name: str
    args: List[object]


@dataclass
class ECmp:
    op: str
    left: object
    right: object


def _opaque(name: str, args: List[float]) -> float:
    """Deterministic nonlinear stand-in for an unknown function call."""
    seed = sum(ord(ch) for ch in name)
    mixed = sum((k + 1.3) * a for k, a in enumerate(args))
    phase = seed + mixed
    # sin(+-inf) is NaN in IEEE arithmetic; math.sin raises instead, which
    # would abort a run whose values overflow
    wave = math.sin(phase) if math.isfinite(phase) else math.nan
    return wave * 0.25 + (sum(args) / max(len(args), 1))


_BINOPS: Dict[str, Callable[[float, float], float]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
}


def _compile_expr(node) -> Callable:
    """Compile the RHS AST to fn(values, env) -> float."""
    if isinstance(node, ENum):
        value = node.value
        return lambda values, env: value
    if isinstance(node, EVar):
        name = node.name
        return lambda values, env: env[name]
    if isinstance(node, ERef):
        index = node.index
        return lambda values, env: values[index]
    if isinstance(node, EBin):
        op = _BINOPS[node.op]
        left = _compile_expr(node.left)
        right = _compile_expr(node.right)
        return lambda values, env: op(left(values, env), right(values, env))
    if isinstance(node, ECall):
        name = node.name
        args = [_compile_expr(a) for a in node.args]
        return lambda values, env: _opaque(
            name, [a(values, env) for a in args]
        )
    if isinstance(node, ECmp):
        op = _CMPOPS[node.op]
        left = _compile_expr(node.left)
        right = _compile_expr(node.right)
        return lambda values, env: op(left(values, env), right(values, env))
    raise TypeError(node)


_CMPOPS: Dict[str, Callable[[float, float], bool]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def compile_fn_spec(spec) -> Callable:
    """Rebuild a Statement's executable ``fn`` from its AST spec.

    ``spec`` is ``("expr", rhs_ast)`` for plain assignments or
    ``("cond", rhs_ast, cond_ast, lhs_index)`` for guarded ones -- the
    picklable record the parser leaves on every Statement so compiled
    programs can round-trip through the compile cache (closures
    themselves cannot be pickled).
    """
    kind = spec[0]
    if kind == "expr":
        return _compile_expr(spec[1])
    if kind == "cond":
        _rhs, _cond, _idx = spec[1], spec[2], spec[3]
        cond_fn = _compile_expr(_cond)
        rhs_fn = _compile_expr(_rhs)

        def fn(values, env, _c=cond_fn, _r=rhs_fn, _i=_idx):
            return _r(values, env) if _c(values, env) else values[_i]

        return fn
    raise ValueError(f"unknown fn_spec kind {kind!r}")


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token plumbing ---------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        tok = self.next()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value or kind
            raise ParseError(
                f"line {tok.line}: expected {want!r}, found {tok.value!r}"
            )
        return tok

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        tok = self.peek()
        if tok.kind == kind and (value is None or tok.value == value):
            return self.next()
        return None

    # -- affine expressions --------------------------------------------------

    def parse_affine(self) -> LinExpr:
        expr = self._affine_term()
        while True:
            if self.accept("OP", "+"):
                expr = expr + self._affine_term()
            elif self.accept("OP", "-"):
                expr = expr - self._affine_term()
            else:
                return expr

    def _affine_term(self) -> LinExpr:
        expr = self._affine_factor()
        while self.accept("OP", "*"):
            rhs = self._affine_factor()
            if expr.is_constant():
                expr = rhs * expr.const
            elif rhs.is_constant():
                expr = expr * rhs.const
            else:
                raise ParseError(
                    f"non-affine product: ({expr}) * ({rhs})"
                )
        return expr

    def _affine_factor(self) -> LinExpr:
        if self.accept("OP", "-"):
            return -self._affine_factor()
        if self.accept("OP", "+"):
            return self._affine_factor()
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.next()
            return LinExpr.const_expr(int(tok.value))
        if tok.kind == "IDENT":
            self.next()
            return LinExpr.var(tok.value)
        if self.accept("OP", "("):
            inner = self.parse_affine()
            self.expect("OP", ")")
            return inner
        raise ParseError(f"line {tok.line}: expected affine expression")

    # -- RHS expressions ----------------------------------------------------------

    def parse_rhs(self, reads: List[Access], arrays: Dict[str, Array]):
        return self._rhs_additive(reads, arrays)

    def _rhs_additive(self, reads, arrays):
        node = self._rhs_multiplicative(reads, arrays)
        while True:
            if self.accept("OP", "+"):
                node = EBin("+", node, self._rhs_multiplicative(reads, arrays))
            elif self.accept("OP", "-"):
                node = EBin("-", node, self._rhs_multiplicative(reads, arrays))
            else:
                return node

    def _rhs_multiplicative(self, reads, arrays):
        node = self._rhs_unary(reads, arrays)
        while True:
            if self.accept("OP", "*"):
                node = EBin("*", node, self._rhs_unary(reads, arrays))
            elif self.accept("OP", "/"):
                node = EBin("/", node, self._rhs_unary(reads, arrays))
            elif self.accept("OP", "%"):
                node = EBin("%", node, self._rhs_unary(reads, arrays))
            else:
                return node

    def _rhs_unary(self, reads, arrays):
        if self.accept("OP", "-"):
            return EBin("-", ENum(0.0), self._rhs_unary(reads, arrays))
        return self._rhs_primary(reads, arrays)

    def _rhs_primary(self, reads, arrays):
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.next()
            return ENum(float(tok.value))
        if self.accept("OP", "("):
            node = self._rhs_additive(reads, arrays)
            self.expect("OP", ")")
            return node
        if tok.kind == "IDENT":
            self.next()
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.value == "[":
                access = self._finish_access(tok.value, arrays)
                reads.append(access)
                return ERef(len(reads) - 1)
            if nxt.kind == "OP" and nxt.value == "(":
                self.next()
                args = []
                if not self.accept("OP", ")"):
                    args.append(self._rhs_additive(reads, arrays))
                    while self.accept("OP", ","):
                        args.append(self._rhs_additive(reads, arrays))
                    self.expect("OP", ")")
                return ECall(tok.value, args)
            return EVar(tok.value)
        raise ParseError(f"line {tok.line}: expected expression")

    # -- accesses ------------------------------------------------------------------

    def _finish_access(self, array_name: str, arrays: Dict[str, Array]) -> Access:
        """Parse ``[e][e]...`` or ``[e, e]`` after the array name."""
        indices: List[LinExpr] = []
        while self.accept("OP", "["):
            indices.append(self.parse_affine())
            while self.accept("OP", ","):
                indices.append(self.parse_affine())
            self.expect("OP", "]")
        if array_name not in arrays:
            raise ParseError(
                f"array {array_name!r} used but not declared; add an "
                f"'array {array_name}[...]' line or pass sizes to parse()"
            )
        return Access(arrays[array_name], tuple(indices))

    # -- statements / structure ----------------------------------------------------

    def parse_program(
        self,
        name: str,
        predeclared: Dict[str, Array],
        extra_assumptions: Optional[System],
    ) -> Program:
        arrays = dict(predeclared)
        assumptions = (
            extra_assumptions.copy() if extra_assumptions else System()
        )
        # Header: array / assume lines
        while True:
            tok = self.peek()
            if tok.kind == "KEYWORD" and tok.value == "array":
                self.next()
                aname = self.expect("IDENT").value
                dims: List[LinExpr] = []
                while self.accept("OP", "["):
                    dims.append(self.parse_affine())
                    while self.accept("OP", ","):
                        dims.append(self.parse_affine())
                    self.expect("OP", "]")
                arrays[aname] = Array(aname, tuple(dims))
                self.expect("NEWLINE")
            elif tok.kind == "KEYWORD" and tok.value == "assume":
                self.next()
                lhs = self.parse_affine()
                op = self.expect("OP").value
                rhs = self.parse_affine()
                self._add_assumption(assumptions, lhs, op, rhs)
                self.expect("NEWLINE")
            else:
                break
        body = self.parse_block(arrays)
        self.expect("EOF")
        loop_vars = set()

        def collect(nodes):
            for node in nodes:
                if isinstance(node, Loop):
                    loop_vars.add(node.var)
                    collect(node.body)

        collect(body)
        params = set()
        for node_vars in _free_vars(body):
            params |= node_vars
        params -= loop_vars
        return Program(
            name=name,
            body=body,
            params=tuple(sorted(params)),
            assumptions=assumptions,
        )

    @staticmethod
    def _add_assumption(assumptions: System, lhs: LinExpr, op: str, rhs: LinExpr):
        if op == ">=":
            assumptions.add_inequality(lhs - rhs)
        elif op == "<=":
            assumptions.add_inequality(rhs - lhs)
        elif op == ">":
            assumptions.add_inequality(lhs - rhs - 1)
        elif op == "<":
            assumptions.add_inequality(rhs - lhs - 1)
        elif op == "==":
            assumptions.add_equality(lhs - rhs)
        else:
            raise ParseError(f"bad assume operator {op!r}")

    def parse_block(self, arrays: Dict[str, Array]) -> List:
        nodes: List = []
        while True:
            tok = self.peek()
            if tok.kind in ("DEDENT", "EOF"):
                return nodes
            if tok.kind == "KEYWORD" and tok.value == "for":
                nodes.append(self.parse_for(arrays))
            elif tok.kind == "KEYWORD" and tok.value == "if":
                nodes.extend(self.parse_if(arrays))
            else:
                nodes.append(self.parse_assign(arrays))

    def parse_if(self, arrays: Dict[str, Array]) -> List[Statement]:
        """``if <cmp> then`` blocks of assignments (paper Section 4.1).

        Each enclosed assignment is modeled as an *unconditional*
        value-selection: it also reads its own left-hand side and
        stores either the new value or the old one, so the dataflow
        analysis sees a write at every iteration -- exactly the paper's
        treatment of loop-free conditionals.
        """
        self.expect("KEYWORD", "if")
        cond_reads: List[Access] = []
        left = self._rhs_additive(cond_reads, arrays)
        op = self.expect("OP").value
        if op not in _CMPOPS:
            raise ParseError(f"bad comparison operator {op!r}")
        right = self._rhs_additive(cond_reads, arrays)
        cond_ast = ECmp(op, left, right)
        self.expect("KEYWORD", "then")
        self.expect("NEWLINE")
        self.expect("INDENT")
        statements: List[Statement] = []
        while True:
            tok = self.peek()
            if tok.kind in ("DEDENT", "EOF"):
                break
            statements.append(
                self._parse_guarded_assign(arrays, cond_ast, cond_reads)
            )
        self.expect("DEDENT")
        return statements

    def _parse_guarded_assign(
        self,
        arrays: Dict[str, Array],
        cond_ast,
        cond_reads: List[Access],
    ) -> Statement:
        label = ""
        tok = self.peek()
        if (
            tok.kind == "IDENT"
            and self.tokens[self.pos + 1].kind == "OP"
            and self.tokens[self.pos + 1].value == ":"
        ):
            label = self.next().value
            self.next()
        array_name = self.expect("IDENT").value
        lhs = self._finish_access(array_name, arrays)
        self.expect("OP", "=")
        reads: List[Access] = list(cond_reads)
        text_start = self.pos
        rhs_ast = self.parse_rhs(reads, arrays)
        self.expect("NEWLINE")
        # where the old lhs value will sit in the final reads list
        lhs_index = (
            reads.index(lhs) if lhs in reads else len(reads)
        )
        spec = ("cond", rhs_ast, cond_ast, lhs_index)
        text = f"if ... then {lhs} = " + _render_tokens(
            self.tokens[text_start : self.pos - 1]
        )
        return Statement(
            lhs=lhs,
            reads=reads,
            fn=compile_fn_spec(spec),
            name=label,
            text=text,
            guard_reads_lhs=True,
            fn_spec=spec,
        )

    def parse_for(self, arrays: Dict[str, Array]) -> Loop:
        self.expect("KEYWORD", "for")
        var = self.expect("IDENT").value
        self.expect("OP", "=")
        lower = self.parse_affine()
        self.expect("KEYWORD", "to")
        upper = self.parse_affine()
        self.expect("KEYWORD", "do")
        self.expect("NEWLINE")
        self.expect("INDENT")
        body = self.parse_block(arrays)
        self.expect("DEDENT")
        return Loop(var, lower, upper, body)

    def parse_assign(self, arrays: Dict[str, Array]) -> Statement:
        label = ""
        tok = self.peek()
        if (
            tok.kind == "IDENT"
            and self.tokens[self.pos + 1].kind == "OP"
            and self.tokens[self.pos + 1].value == ":"
        ):
            label = self.next().value
            self.next()  # ':'
        array_name = self.expect("IDENT").value
        lhs = self._finish_access(array_name, arrays)
        self.expect("OP", "=")
        reads: List[Access] = []
        text_start = self.pos
        ast = self.parse_rhs(reads, arrays)
        self.expect("NEWLINE")
        spec = ("expr", ast)
        text = f"{lhs} = " + _render_tokens(
            self.tokens[text_start : self.pos - 1]
        )
        return Statement(
            lhs=lhs, reads=reads, fn=compile_fn_spec(spec), name=label,
            text=text, fn_spec=spec,
        )


def _render_tokens(tokens: List[Token]) -> str:
    parts = []
    for tok in tokens:
        if tok.kind in ("NEWLINE", "INDENT", "DEDENT"):
            continue
        parts.append(tok.value)
    text = " ".join(parts)
    for before, after in ((" [", "["), ("[ ", "["), (" ]", "]"), (" ,", ","), ("( ", "("), (" )", ")")):
        text = text.replace(before, after)
    return text


def _free_vars(body) -> List[frozenset]:
    """Variable sets appearing in loop bounds, subscripts and array dims."""
    out: List[frozenset] = []

    def walk(nodes):
        for node in nodes:
            if isinstance(node, Loop):
                out.append(node.lower.variables())
                out.append(node.upper.variables())
                walk(node.body)
            else:
                for access in [node.lhs, *node.reads]:
                    out.append(access.variables())
                    for dim in access.array.dims:
                        out.append(dim.variables())

    walk(body)
    return out


def parse(
    source: str,
    name: str = "program",
    arrays: Optional[Dict[str, Tuple]] = None,
    assumptions: Optional[System] = None,
) -> Program:
    """Parse pseudo-language source into a Program.

    ``arrays`` optionally pre-declares sizes, e.g.
    ``{"X": (LinExpr.var("N") + 1,)}``, as an alternative to ``array``
    lines in the source.
    """
    predeclared: Dict[str, Array] = {}
    if arrays:
        for aname, dims in arrays.items():
            if isinstance(dims, Array):
                predeclared[aname] = dims
            else:
                predeclared[aname] = Array(aname, tuple(dims))
    parser = _Parser(tokenize(source))
    return parser.parse_program(name, predeclared, assumptions)
