"""Systems of linear equalities and inequalities (integer polyhedra).

A :class:`System` is the paper's "system of linear inequalities": a
conjunction of constraints ``expr == 0`` and ``expr >= 0`` over named
integer variables.  Iteration domains, decompositions, last-write
relations and communication sets are all Systems; the compiler operates
on them by projection (see :mod:`repro.polyhedra.fourier_motzkin` and
:mod:`repro.polyhedra.omega`) and scanning (:mod:`repro.polyhedra.scan`).
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from .affine import ExprLike, LinExpr


class InfeasibleError(Exception):
    """Raised when a constraint is syntactically unsatisfiable (e.g. -1 >= 0)."""


#: the canonical representative of the class of ``expr == 0`` (memoised)
canonical_equality = LinExpr.canonical_equality


class System:
    """A conjunction of ``eq == 0`` and ``ineq >= 0`` constraints.

    Systems are mutable while being built; ``canonical_key()`` derives
    (and caches) an order-independent canonical form used for hashing,
    equality, and keying the projection/feasibility caches.  Every
    mutation invalidates the cached form.

    Invariant (*normal on entry*): every member of ``inequalities`` is
    its own ``normalized_ineq()`` and no two are the same expression; no
    two ``equalities`` share a ``canonical_equality()`` and none is
    constant.  ``add_*`` establish it; whoever assigns the lists or
    calls :meth:`of_normal` must hand over constraints that satisfy it
    already -- any sub-list of another system's constraints does.
    """

    __slots__ = ("equalities", "inequalities", "_canon")

    def __init__(
        self,
        equalities: Iterable[LinExpr] = (),
        inequalities: Iterable[LinExpr] = (),
    ):
        self.equalities: List[LinExpr] = []
        self.inequalities: List[LinExpr] = []
        self._canon = None
        for eq in equalities:
            self.add_equality(eq)
        for ineq in inequalities:
            self.add_inequality(ineq)

    # -- construction -----------------------------------------------------

    @classmethod
    def of_normal(
        cls, equalities: List[LinExpr], inequalities: List[LinExpr]
    ) -> "System":
        """Adopt two lists that already satisfy the class invariant: no
        normalisation, no duplicate scan."""
        out = cls.__new__(cls)
        out.equalities = equalities
        out.inequalities = inequalities
        # _canon stays None: a few callers mutate the new system's
        # constraint lists directly, which would leave a copied key stale.
        out._canon = None
        return out

    def copy(self) -> "System":
        return System.of_normal(list(self.equalities), list(self.inequalities))

    def add_equality(self, expr: ExprLike) -> None:
        """Add ``expr == 0``; drops trivial ``0 == 0`` and duplicates.

        The duplicate test is modulo scaling and sign: ``2x - 2y == 0``
        is recognized as already present when ``x - y == 0`` is.
        """
        expr = LinExpr.coerce(expr)
        if expr.is_constant():
            if expr.const != 0:
                raise InfeasibleError(f"unsatisfiable equality {expr} == 0")
            return
        canon = expr.canonical_equality()
        for existing in self.equalities:
            if existing.canonical_equality() is canon:
                return
        self._canon = None
        self.equalities.append(expr)

    def add_inequality(self, expr: ExprLike) -> None:
        """Add ``expr >= 0``; drops trivially-true constants."""
        expr = LinExpr.coerce(expr)
        if expr.is_constant():
            if expr.const < 0:
                raise InfeasibleError(f"unsatisfiable inequality {expr} >= 0")
            return
        expr = expr.normalized_ineq()
        # expressions are interned: the membership scan compares pointers
        if expr in self.inequalities:
            return
        self._canon = None
        self.inequalities.append(expr)

    def add_le(self, lhs: ExprLike, rhs: ExprLike) -> None:
        """Add ``lhs <= rhs``."""
        self.add_inequality(LinExpr.coerce(rhs) - LinExpr.coerce(lhs))

    def add_lt(self, lhs: ExprLike, rhs: ExprLike) -> None:
        """Add ``lhs < rhs`` (integer: ``lhs <= rhs - 1``)."""
        self.add_inequality(LinExpr.coerce(rhs) - LinExpr.coerce(lhs) - 1)

    def add_eq(self, lhs: ExprLike, rhs: ExprLike) -> None:
        """Add ``lhs == rhs``."""
        self.add_equality(LinExpr.coerce(lhs) - LinExpr.coerce(rhs))

    def add_range(self, expr: ExprLike, low: ExprLike, high: ExprLike) -> None:
        """Add ``low <= expr <= high``."""
        self.add_le(low, expr)
        self.add_le(expr, high)

    def intersect(self, other: "System") -> "System":
        """Conjunction of two systems (a new System)."""
        out = self.copy()
        for eq in other.equalities:
            out.add_equality(eq)
        for ineq in other.inequalities:
            out.add_inequality(ineq)
        return out

    @staticmethod
    def conjunction(systems: Sequence["System"]) -> "System":
        out = System()
        for sys_ in systems:
            out = out.intersect(sys_)
        return out

    # -- inspection ---------------------------------------------------------

    def constraints(self) -> Iterable[Tuple[LinExpr, bool]]:
        """Yield (expr, is_equality) pairs."""
        for eq in self.equalities:
            yield eq, True
        for ineq in self.inequalities:
            yield ineq, False

    def variables(self) -> frozenset:
        names = set()
        for expr, _ in self.constraints():
            names |= expr.variables()
        return frozenset(names)

    def size(self) -> int:
        """Total constraint count (equalities + inequalities)."""
        return len(self.equalities) + len(self.inequalities)

    def involves(self, name: str) -> bool:
        return any(expr.coeff(name) != 0 for expr, _ in self.constraints())

    def constraints_involving(self, name: str) -> List[Tuple[LinExpr, bool]]:
        return [
            (expr, is_eq)
            for expr, is_eq in self.constraints()
            if expr.coeff(name) != 0
        ]

    def is_trivially_true(self) -> bool:
        return not self.equalities and not self.inequalities

    def canonical_key(self) -> Tuple[Tuple, Tuple]:
        """An order-independent canonical form of the constraint set.

        Equalities are canonicalized modulo scaling and sign; both
        groups are sorted by their interning keys.  Two systems with the
        same canonical key denote the same integer set *syntactically*
        (same constraints up to ordering and equality scaling) -- the
        property the projection and feasibility caches key on.

        The key is cached; any ``add_*`` call invalidates it.  Callers
        that mutate ``equalities``/``inequalities`` directly must do so
        on a fresh copy (``copy()`` drops the cached key).
        """
        if self._canon is None:
            eqs = sorted({e.canonical_equality().key for e in self.equalities})
            ineqs = sorted({i.key for i in self.inequalities})
            self._canon = (tuple(eqs), tuple(ineqs))
        return self._canon

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, System):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    # -- transformation -------------------------------------------------------

    def substitute(self, env: Mapping[str, ExprLike]) -> "System":
        """Substitute variables; may raise InfeasibleError if a constraint
        becomes a false constant."""
        out = System()
        for eq in self.equalities:
            out.add_equality(eq.substitute(env))
        for ineq in self.inequalities:
            out.add_inequality(ineq.substitute(env))
        return out

    def rename(self, mapping: Mapping[str, str]) -> "System":
        out = System()
        for eq in self.equalities:
            out.add_equality(eq.rename(mapping))
        for ineq in self.inequalities:
            out.add_inequality(ineq.rename(mapping))
        return out

    def satisfies(self, env: Mapping[str, int]) -> bool:
        """Check a concrete integer point against every constraint."""
        for eq in self.equalities:
            if eq.evaluate(env) != 0:
                return False
        for ineq in self.inequalities:
            if ineq.evaluate(env) < 0:
                return False
        return True

    # -- display ---------------------------------------------------------------

    def __str__(self) -> str:
        lines = [f"{eq} == 0" for eq in self.equalities]
        lines += [f"{ineq} >= 0" for ineq in self.inequalities]
        return "{ " + " ; ".join(lines) + " }"

    def __repr__(self) -> str:
        return f"System({len(self.equalities)} eqs, {len(self.inequalities)} ineqs)"
