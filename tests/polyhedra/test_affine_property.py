"""Property tests for the single-pass arithmetic kernel.

Every single-pass operator of :class:`LinExpr` is compared with a
reference built only from ``+``, unary ``-`` and ``*`` -- the
definitions the operators had before they were fused.  Since instances
are interned, "equal" below always means *the same object*.
"""

import copy
import math
import pickle
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.polyhedra import InfeasibleError, LinExpr, System
from repro.polyhedra import canonical_equality as system_canonical_equality

NAMES = ["i", "j", "k", "n", "p"]

small = st.integers(min_value=-6, max_value=6)
exprs = st.builds(
    LinExpr, st.dictionaries(st.sampled_from(NAMES), small, max_size=4), small
)
values = st.one_of(small, exprs)
envs = st.dictionaries(st.sampled_from(NAMES), values, max_size=3)
renamings = st.dictionaries(
    st.sampled_from(NAMES), st.sampled_from(NAMES), max_size=3
)


# -- the old definitions, kept as the reference ------------------------------

def ref_substitute(expr, env):
    result = LinExpr({}, expr.const)
    for name, coeff in expr.terms():
        if name in env:
            result = result + LinExpr.coerce(env[name]) * coeff
        else:
            result = result + LinExpr.var(name, coeff)
    return result


def ref_without(expr, name):
    return expr + LinExpr.var(name) * (-expr.coeff(name))


def ref_rename(expr, mapping):
    result = LinExpr({}, expr.const)
    for name, coeff in expr.terms():
        result = result + LinExpr.var(mapping.get(name, name)) * coeff
    return result


def ref_content(expr):
    g = 0
    for _name, coeff in expr.terms():
        g = math.gcd(g, abs(coeff))
    return g


def ref_normalized_ineq(expr):
    g = ref_content(expr)
    if g <= 1:
        return expr
    return LinExpr({v: c // g for v, c in expr.terms()}, expr.const // g)


def ref_canonical_equality(expr):
    g = ref_content(expr)
    if g > 1 and expr.const % g == 0:
        expr = expr.divide_exact(g)
    for _name, coeff in sorted(expr.terms()):
        if coeff < 0:
            return -expr
        break
    return expr


# -- operators ------------------------------------------------------------------

class TestOperatorsMatchReference:
    @given(exprs, envs)
    def test_substitute(self, expr, env):
        assert expr.substitute(env) is ref_substitute(expr, env)

    @given(exprs, envs)
    def test_substitute_untouched_returns_self(self, expr, env):
        if not (expr.variables() & set(env)):
            assert expr.substitute(env) is expr

    @given(exprs, st.sampled_from(NAMES), exprs, small)
    def test_substitute_scaled(self, expr, name, replacement, scale):
        reference = (
            ref_without(expr, name) * scale + replacement * expr.coeff(name)
        )
        assert expr.substitute_scaled(name, replacement, scale) is reference

    @given(exprs, values)
    def test_sub(self, a, b):
        assert a - b is a + (-LinExpr.coerce(b))

    @given(exprs, small)
    def test_rsub(self, a, k):
        assert k - a is LinExpr.coerce(k) + (-a)

    @given(exprs, small, exprs, small)
    def test_combine(self, f, a, g, b):
        assert f.combine(a, g, b) is f * a + g * b

    @given(exprs, renamings)
    def test_rename(self, expr, mapping):
        assert expr.rename(mapping) is ref_rename(expr, mapping)

    @given(exprs, st.sampled_from(NAMES))
    def test_split(self, expr, name):
        coeff, bound = expr.split(name)
        assert coeff == expr.coeff(name)
        rest = ref_without(expr, name)
        if coeff > 0:
            assert bound is -rest       # coeff*name >= bound
        elif coeff < 0:
            assert bound is rest        # -coeff*name <= bound
        else:
            assert bound is expr
        assert name not in bound.variables() or coeff == 0

    @given(exprs, small)
    def test_clean_by_construction(self, expr, scalar):
        # the trusted constructor is only ever handed zero-free dicts
        for built in (-expr, expr * scalar, expr + 1, expr - expr,
                      LinExpr.var("i", scalar)):
            assert all(c != 0 and type(c) is int for _v, c in built.terms())
            assert built is LinExpr(built.coeffs, built.const)


# -- identity equality -------------------------------------------------------------

class TestEqualityIsIdentity:
    def test_no_python_level_eq(self):
        assert LinExpr.__eq__ is object.__eq__

    @given(exprs, exprs)
    def test_eq_iff_is_iff_key(self, a, b):
        assert (a == b) == (a is b) == (a.key == b.key)
        assert (a != b) == (a is not b)
        if a is b:
            assert hash(a) == hash(b) == hash(a.key)

    @given(exprs)
    def test_round_trips_return_the_instance(self, expr):
        assert copy.copy(expr) is expr
        assert copy.deepcopy(expr) is expr
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(expr, protocol)) is expr
        assert LinExpr(expr.coeffs, expr.const) is expr

    def test_built_concurrently_from_two_threads(self):
        """Two threads racing to intern the same fresh keys end up
        holding the same instances."""
        rounds, width = 200, 40
        built = [[None] * rounds, [None] * rounds]
        barrier = threading.Barrier(2, timeout=30)

        def build(slot):
            for r in range(rounds):
                barrier.wait()
                built[slot][r] = [
                    LinExpr({"race": r + 1, "w": w + 1}, -w)
                    for w in range(width)
                ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=build, args=(s,)) for s in (0, 1)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        for mine, theirs in zip(*built):
            for a, b in zip(mine, theirs):
                assert a.key == b.key and a is b and a == b

    def test_reclaimed_when_unreferenced(self):
        from repro.polyhedra import affine

        expr = LinExpr({"reclaim_me": 7}, 7)
        norm = expr.normalized_ineq()        # fills the memo slots
        expr.canonical_equality()
        key, norm_key = expr.key, norm.key
        assert key in affine._TABLE
        del expr, norm
        # no reference cycle through the memo slots: refcounting alone
        # reclaims both, without a gc pass
        assert key not in affine._TABLE
        assert norm_key not in affine._TABLE


# -- memoised derived forms -----------------------------------------------------------

class TestMemoisedForms:
    @given(exprs)
    def test_content(self, expr):
        assert expr.content() == ref_content(expr) == expr.content()

    @given(exprs)
    def test_normalized_ineq(self, expr):
        first = expr.normalized_ineq()
        assert first is ref_normalized_ineq(expr)
        assert expr.normalized_ineq() is first            # memo
        assert first.normalized_ineq() is first           # normal on entry

    @given(exprs)
    def test_canonical_equality(self, expr):
        first = expr.canonical_equality()
        assert first is ref_canonical_equality(expr)
        assert expr.canonical_equality() is first         # memo
        assert first.canonical_equality() is first        # idempotent
        assert system_canonical_equality(expr) is first
        assert (-expr).canonical_equality() is first or expr.is_constant()


# -- System entry points --------------------------------------------------------------

def _add_all(system, expressions, add):
    for expr in expressions:
        try:
            add(system, expr)
        except InfeasibleError:
            pass


class TestSystemInvariant:
    def test_scaled_equality_is_a_duplicate(self):
        x, y = LinExpr.var("x"), LinExpr.var("y")
        system = System()
        system.add_equality(x - y)
        system.add_equality(x * 2 - y * 2)
        system.add_equality(y - x)
        assert system.equalities == [x - y]

    def test_inequality_tightens_and_dedups(self):
        i = LinExpr.var("i")
        system = System()
        system.add_inequality(i * 2 - 3)      # 2i >= 3  ->  i >= 2
        system.add_inequality(i - 2)
        system.add_inequality(i * 3 - 4)      # 3i >= 4  ->  i >= 2
        assert system.inequalities == [i - 2]

    @settings(max_examples=60)
    @given(st.lists(exprs, max_size=6), st.lists(exprs, max_size=8))
    def test_normal_on_entry_and_unique(self, eqs, ineqs):
        system = System()
        _add_all(system, eqs, System.add_equality)
        _add_all(system, ineqs, System.add_inequality)
        for derived in (system, system.copy(), system.intersect(system),
                        system.rename({}), system.substitute({})):
            assert all(
                e.normalized_ineq() is e for e in derived.inequalities
            )
            assert len(set(derived.inequalities)) == len(derived.inequalities)
            canon = [e.canonical_equality() for e in derived.equalities]
            assert len(set(canon)) == len(canon)
            assert not any(e.is_constant() for e in derived.equalities)
            assert derived == system

    @settings(max_examples=60)
    @given(st.lists(exprs, max_size=6), st.lists(exprs, max_size=6))
    def test_of_normal_adopts_sublists(self, ineqs, more):
        system = System()
        _add_all(system, ineqs, System.add_inequality)
        adopted = System.of_normal([], system.inequalities[::2])
        rebuilt = System((), system.inequalities[::2])
        assert adopted == rebuilt
        assert adopted.inequalities == rebuilt.inequalities
        _add_all(adopted, more, System.add_inequality)
        _add_all(rebuilt, more, System.add_inequality)
        assert adopted.inequalities == rebuilt.inequalities
