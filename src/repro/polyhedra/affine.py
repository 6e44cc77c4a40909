"""Integer affine expressions over named variables.

Everything in the paper -- loop bounds, array subscripts, decompositions,
last-write relations -- is an affine function of loop indices and symbolic
constants.  ``LinExpr`` is the shared currency: an immutable linear
expression with integer coefficients plus an integer constant term.

Variables are plain strings.  By convention the rest of the package uses
suffixes to keep variable roles apart when several spaces are glued into
one system (e.g. ``i$r`` for a read iteration variable, ``i$w`` for a
write iteration variable, ``p$r``/``p$s`` for processor variables).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Tuple, Union
from weakref import KeyedRef

from _weakref import _remove_dead_weakref  # what WeakValueDictionary uses

Coeffs = Dict[str, int]
ExprLike = Union["LinExpr", int]

#: the intern table: key -> weak reference to the one live instance
#: with that key; :func:`_forget` drops an entry when its instance dies.
_TABLE: Dict[Tuple, KeyedRef] = {}


def _forget(ref: KeyedRef) -> None:
    # atomic, and a no-op when the key was already re-bound to a live
    # instance -- a plain ``del`` could evict that newcomer.
    _remove_dead_weakref(_TABLE, ref.key)


def _intern(coeffs: Coeffs, const: int, vec: Tuple = None) -> "LinExpr":
    """The trusted constructor: the instance for ``coeffs``/``const``.

    ``coeffs`` must be clean by construction -- int values, no zeros --
    and is adopted, not copied (instances never mutate ``_coeffs``, so
    several may share one dict).  ``vec`` is ``tuple(sorted(coeffs
    .items()))`` when the caller already holds it.
    """
    key = (tuple(sorted(coeffs.items())) if vec is None else vec, const)
    ref = _TABLE.get(key)
    if ref is not None:
        found = ref()
        if found is not None:
            return found
    self = object.__new__(LinExpr)
    self._coeffs = coeffs
    self.const = const
    self.key = key
    self._hash = hash(key)
    self._content = -1
    self._norm = None
    self._canon = None
    mine = KeyedRef(self, _forget, key)
    while True:
        # setdefault is atomic: of two threads racing to build one key
        # the loser adopts the winner's instance, so identity equality
        # holds across threads.
        ref = _TABLE.setdefault(key, mine)
        if ref is mine:
            return self
        found = ref()
        if found is not None:
            return found
        _remove_dead_weakref(_TABLE, key)  # died, callback still pending


def _add_scaled(coeffs: Coeffs, terms, scale: int) -> None:
    """``coeffs += scale * terms`` in place (``scale != 0``), staying clean."""
    for var, coeff in terms:
        total = coeffs.get(var, 0) + coeff * scale
        if total:
            coeffs[var] = total
        else:
            del coeffs[var]


class LinExpr:
    """An affine expression ``sum(coeff[v] * v) + const`` with int coeffs.

    Instances are *hash-consed*: building the same expression twice
    yields the same object, so equality **is** identity (there is no
    ``__eq__``) and the hash is computed once.  The intern table holds
    weak references -- expressions are reclaimed normally once nothing
    else uses them.  Being immutable and unique, an instance memoises
    ``content``/``normalized_ineq``/``canonical_equality`` in slots; a
    memo never points back at its own instance (no reference cycle).

    ``key`` is the canonical ``(sorted coeff tuple, const)`` interning
    key: stable, hashable and totally orderable -- systems build cache
    keys from it.  Like ``const`` it is a plain slot, read-only by
    convention.  ``terms()`` iterates in the order the first
    construction produced; every operator reproduces the order its
    ``+``/unary ``-``/``*`` definition would, because equality
    elimination picks pivots in that order (DESIGN.md section 8).
    """

    __slots__ = (
        "_coeffs", "const", "key", "_hash",
        "_content", "_norm", "_canon", "__weakref__",
    )

    def __new__(cls, coeffs: Mapping[str, int] | None = None, const: int = 0):
        clean: Coeffs = {}
        if coeffs:
            for var, coeff in coeffs.items():
                coeff = int(coeff)
                if coeff != 0:
                    clean[var] = coeff
        return _intern(clean, int(const))

    # hash-consed instances are immutable; copying returns self, and
    # pickling round-trips through the constructor so the intern table
    # is consulted on reconstruction instead of bypassing __new__.

    def __copy__(self) -> "LinExpr":
        return self

    def __deepcopy__(self, memo) -> "LinExpr":
        return self

    def __reduce__(self):
        return (LinExpr, (self._coeffs, self.const))

    # -- constructors -----------------------------------------------------

    @staticmethod
    def var(name: str, coeff: int = 1) -> "LinExpr":
        """The expression ``coeff * name``."""
        coeff = int(coeff)
        return _intern({name: coeff} if coeff else {}, 0)

    @staticmethod
    def const_expr(value: int) -> "LinExpr":
        """The constant expression ``value``."""
        return _intern({}, int(value), ())

    @staticmethod
    def coerce(value: ExprLike) -> "LinExpr":
        """Turn an int into a constant expression; pass LinExpr through."""
        if isinstance(value, LinExpr):
            return value
        return _intern({}, int(value), ())

    # -- inspection --------------------------------------------------------

    @property
    def coeffs(self) -> Coeffs:
        return dict(self._coeffs)

    def coeff(self, var: str) -> int:
        return self._coeffs.get(var, 0)

    def variables(self) -> frozenset:
        return frozenset(self._coeffs)

    def is_constant(self) -> bool:
        return not self._coeffs

    def is_zero(self) -> bool:
        return not self._coeffs and self.const == 0

    def terms(self) -> Iterable[Tuple[str, int]]:
        return self._coeffs.items()

    def content(self) -> int:
        """gcd of all coefficients (not the constant); 0 if constant."""
        g = self._content
        if g < 0:
            g = self._content = math.gcd(*self._coeffs.values())
        return g

    # -- arithmetic ---------------------------------------------------------
    # Every operator is one pass over one dict and one interning.

    def combine(self, a: int, other: "LinExpr", b: int) -> "LinExpr":
        """``a * self + b * other`` (the Fourier-Motzkin combination)."""
        if a == 1:
            coeffs = dict(self._coeffs)
        else:
            coeffs = {v: c * a for v, c in self._coeffs.items()} if a else {}
        if b:
            _add_scaled(coeffs, other._coeffs.items(), b)
        return _intern(coeffs, self.const * a + other.const * b)

    def __add__(self, other: ExprLike) -> "LinExpr":
        if isinstance(other, LinExpr):
            return self.combine(1, other, 1)
        return _intern(self._coeffs, self.const + int(other), self.key[0])

    __radd__ = __add__

    def __sub__(self, other: ExprLike) -> "LinExpr":
        if isinstance(other, LinExpr):
            return self.combine(1, other, -1)
        return _intern(self._coeffs, self.const - int(other), self.key[0])

    def __rsub__(self, other: int) -> "LinExpr":
        # ``int - self``; LinExpr - LinExpr is always __sub__
        return _intern(
            {v: -c for v, c in self._coeffs.items()}, int(other) - self.const
        )

    def __neg__(self) -> "LinExpr":
        return self.__rsub__(0)

    def __mul__(self, scalar: int) -> "LinExpr":
        return self.combine(int(scalar), self, 0)

    __rmul__ = __mul__

    def split(self, var: str) -> Tuple[int, "LinExpr"]:
        """Read ``self >= 0`` (or ``== 0``) as a bound on ``var``.

        With ``self == coeff*var + rest`` returns ``(coeff, bound)``:
        ``bound`` is ``-rest`` when ``coeff > 0`` (``coeff*var >= bound``)
        and ``rest`` otherwise (``-coeff*var <= bound``); ``(0, self)``
        when ``var`` is absent.
        """
        coeff = self._coeffs.get(var)
        if coeff is None:
            return 0, self
        if coeff > 0:
            rest = {v: -c for v, c in self._coeffs.items() if v != var}
            return coeff, _intern(rest, -self.const)
        rest = dict(self._coeffs)
        del rest[var]
        return coeff, _intern(rest, self.const)

    def divide_exact(self, divisor: int) -> "LinExpr":
        """Divide every coefficient and the constant by ``divisor``.

        Raises ValueError if any term is not divisible.
        """
        if divisor == 0:
            raise ValueError("division by zero")
        coeffs = {}
        for var, coeff in self._coeffs.items():
            if coeff % divisor:
                raise ValueError(f"{coeff}*{var} not divisible by {divisor}")
            coeffs[var] = coeff // divisor
        if self.const % divisor:
            raise ValueError(f"constant {self.const} not divisible by {divisor}")
        return _intern(coeffs, self.const // divisor)

    def normalized_ineq(self) -> "LinExpr":
        """Tighten ``self >= 0`` over the integers.

        Divides by the gcd of the coefficients, taking the floor of the
        constant term -- the standard integer tightening step.
        """
        if self.content() <= 1:
            return self
        norm = self._norm
        if norm is None:
            g = self._content
            norm = self._norm = _intern(
                {v: c // g for v, c in self._coeffs.items()},
                self.const // g,  # floor division tightens
            )
            norm._content = 1
        return norm

    def canonical_equality(self) -> "LinExpr":
        """The canonical representative of the class of ``self == 0``.

        Divides by the gcd of the coefficients (when the constant
        permits) and fixes the sign so the first variable's coefficient
        is positive: ``2x - 2y == 0`` and ``-x + y == 0`` both
        canonicalize to ``x - y``.
        """
        canon = self._canon
        if canon is None:
            canon = self
            g = self.content()
            if g > 1 and self.const % g == 0:
                canon = self.divide_exact(g)
            vec = canon.key[0]
            if vec and vec[0][1] < 0:
                canon = -canon
            if canon is self:
                canon = True  # not ``self``: that would be a cycle
            else:
                canon._canon = True
            self._canon = canon
        return self if canon is True else canon

    # -- substitution / evaluation ------------------------------------------

    def substitute(self, env: Mapping[str, ExprLike]) -> "LinExpr":
        """Replace each variable in ``env`` by the given expression."""
        if self._coeffs.keys().isdisjoint(env):
            return self
        coeffs: Coeffs = {}
        const = self.const
        for term in self._coeffs.items():
            var, coeff = term
            if var not in env:
                _add_scaled(coeffs, (term,), 1)
                continue
            value = env[var]
            if isinstance(value, LinExpr):
                _add_scaled(coeffs, value._coeffs.items(), coeff)
                value = value.const
            const += int(value) * coeff
        return _intern(coeffs, const)

    def substitute_scaled(self, var: str, replacement: "LinExpr", scale: int) -> "LinExpr":
        """Substitute ``var := replacement / scale`` assuming ``scale * var ==
        replacement``; multiplies the rest of the expression by ``scale``.

        Returns an expression equal to ``scale * self`` with ``var``
        eliminated.  Used when an equality pins ``scale*var == replacement``.
        """
        coeff = self._coeffs.get(var, 0)
        coeffs = (
            {v: c * scale for v, c in self._coeffs.items() if v != var}
            if scale else {}
        )
        if coeff:
            _add_scaled(coeffs, replacement._coeffs.items(), coeff)
        return _intern(coeffs, self.const * scale + replacement.const * coeff)

    def rename(self, mapping: Mapping[str, str]) -> "LinExpr":
        if self._coeffs.keys().isdisjoint(mapping):
            return self
        coeffs: Coeffs = {}
        for var, coeff in self._coeffs.items():
            new = mapping.get(var, var)
            coeffs[new] = coeffs.get(new, 0) + coeff
        if len(coeffs) < len(self._coeffs):  # names merged: may cancel
            coeffs = {v: c for v, c in coeffs.items() if c}
        return _intern(coeffs, self.const)

    def evaluate(self, env: Mapping[str, int]) -> int:
        total = self.const
        for var, coeff in self._coeffs.items():
            total += coeff * env[var]
        return total

    # -- hash / display -------------------------------------------------------
    # No __eq__: instances are interned, so the default identity
    # comparison is structural equality.  The hash stays the key's (not
    # the id's) so set and dict iteration order -- and with it the
    # generated code -- is the same in every process.

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"LinExpr({self})"

    def __str__(self) -> str:
        parts = []
        for var in sorted(self._coeffs):
            coeff = self._coeffs[var]
            if coeff == 1:
                term = var
            elif coeff == -1:
                term = f"-{var}"
            else:
                term = f"{coeff}*{var}"
            if parts and not term.startswith("-"):
                parts.append(f"+ {term}")
            elif parts:
                parts.append(f"- {term[1:]}")
            else:
                parts.append(term)
        if self.const or not parts:
            if parts:
                sign = "+" if self.const >= 0 else "-"
                parts.append(f"{sign} {abs(self.const)}")
            else:
                parts.append(str(self.const))
        return " ".join(parts)


def var(name: str) -> LinExpr:
    """Shorthand for :meth:`LinExpr.var`."""
    return LinExpr.var(name)


def const(value: int) -> LinExpr:
    """Shorthand for :meth:`LinExpr.const_expr`."""
    return LinExpr.const_expr(value)


def linear_combination(pairs: Iterable[Tuple[int, str]], constant: int = 0) -> LinExpr:
    """Build ``sum(c*v) + constant`` from (coeff, var) pairs."""
    coeffs: Coeffs = {}
    for coeff, name in pairs:
        coeffs[name] = coeffs.get(name, 0) + coeff
    return LinExpr(coeffs, constant)
