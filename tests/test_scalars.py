"""Differential and guard tests of the `scalars` coercion layer.

The references below are the per-module scalar dispatchers that `scalars`
replaced: `forms`' multiply, add and divide (with their `_numeric`
helper) and `dynamics`' torus-entry scaling.  The new rules must give the
same value of the same type wherever the references did, with these
intended differences:

* a product, sum or quotient that the reference computed in float64 (a
  surd with an inexact operand, or two floats) is now an mpf, accurate to
  the 50-digit result;
* a rational surd paired with a field element lifts into K, where the
  references raised;
* a field element divided by a float, or a float by a field element,
  raises TypeError: a field element has no number without a place (the
  reference read the float as an exact binary fraction);
* `act` embeds a field element at its place when the matrix entry it
  scales is inexact, where the reference had no place to embed it at.

The differential runs at 55 digits, the precision `DecomposableForm`
evaluates at; below DEFAULT_DPS the new rules compute at DEFAULT_DPS,
which the references did not (see `test_inexact_ops_use_default_dps`).
"""

import ast
import math
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpc, mpf

from sadiclab import dynamics as dy
from sadiclab import forms as fm
from sadiclab import numberfield as nf
from sadiclab import sadic as sd
from sadiclab import scalars as sc
from sadiclab.errors import NotInField
from sadiclab.numberfield import DEFAULT_DPS, FieldElement
from sadiclab.surd import QuadraticSurd

Q = nf.create_field([0, 1])
Q2 = nf.create_field([-2, 0, 1])
Q_REAL = nf.archimedean_places(Q)[0]
Q2_REAL = nf.archimedean_places(Q2)[0]

# ---------------------------------------------------------------------------
# References: the dispatchers as they were in forms and dynamics

_EXACT_REAL = (int, Fraction, QuadraticSurd)
_EXACT = (int, Fraction, FieldElement, QuadraticSurd)


def ref_numeric(x, dps=DEFAULT_DPS):
    if isinstance(x, QuadraticSurd):
        return x.to_mpf(dps)
    if isinstance(x, Fraction):
        return mpf(x.numerator) / x.denominator
    if isinstance(x, int):
        return mpf(x)
    if isinstance(x, complex):
        return mpc(x.real, x.imag)
    return x


def ref_mul(a, b):
    if isinstance(a, FieldElement) or isinstance(b, FieldElement):
        if isinstance(a, FieldElement) and isinstance(b, FieldElement):
            return a * b
        f, s = (a, b) if isinstance(a, FieldElement) else (b, a)
        if isinstance(s, (int, Fraction)):
            return f * Fraction(s)
        raise TypeError("cannot mix field elements with floats in one factor")
    if isinstance(a, QuadraticSurd) or isinstance(b, QuadraticSurd):
        if isinstance(a, _EXACT_REAL) and isinstance(b, _EXACT_REAL):
            sa = a if isinstance(a, QuadraticSurd) else QuadraticSurd(a)
            sb = b if isinstance(b, QuadraticSurd) else QuadraticSurd(b)
            return sa * sb
        return float(a if not isinstance(a, QuadraticSurd) else float(a)) * \
            float(b if not isinstance(b, QuadraticSurd) else float(b))
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return Fraction(a) * Fraction(b)
    return ref_numeric(a) * ref_numeric(b)


def ref_add(a, b):
    if isinstance(a, FieldElement) or isinstance(b, FieldElement):
        f, s = (a, b) if isinstance(a, FieldElement) else (b, a)
        if isinstance(s, FieldElement):
            return f + s
        if isinstance(s, (int, Fraction)):
            return f + Fraction(s)
        raise TypeError("cannot mix field elements with floats")
    if isinstance(a, QuadraticSurd) or isinstance(b, QuadraticSurd):
        if isinstance(a, _EXACT_REAL) and isinstance(b, _EXACT_REAL):
            sa = a if isinstance(a, QuadraticSurd) else QuadraticSurd(a)
            sb = b if isinstance(b, QuadraticSurd) else QuadraticSurd(b)
            return sa + sb
        return ref_numeric(a) + ref_numeric(b)
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return Fraction(a) + Fraction(b)
    return ref_numeric(a) + ref_numeric(b)


def ref_div(a, b):
    if isinstance(b, FieldElement):
        return (a if isinstance(a, FieldElement) else
                b.field.element([Fraction(a)])) * b.inverse()
    if isinstance(a, FieldElement):
        return a * (Fraction(1) / Fraction(b))
    if (isinstance(a, QuadraticSurd) or isinstance(b, QuadraticSurd)) and \
            isinstance(a, _EXACT_REAL) and isinstance(b, _EXACT_REAL):
        sa = a if isinstance(a, QuadraticSurd) else QuadraticSurd(a)
        sb = b if isinstance(b, QuadraticSurd) else QuadraticSurd(b)
        return sa / sb
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return Fraction(a) / Fraction(b)
    return ref_numeric(a) / ref_numeric(b)


def ref_to_float(x):
    if isinstance(x, (QuadraticSurd, Fraction)):
        return float(x)
    if isinstance(x, FieldElement):
        raise TypeError("cannot coerce a field element without a place")
    return float(x)


def ref_scale_entry(factor, entry, place):
    if entry == 0:
        return entry
    if isinstance(factor, _EXACT) and isinstance(entry, _EXACT):
        if isinstance(factor, FieldElement) or isinstance(entry, FieldElement):
            f = factor if isinstance(factor, FieldElement) else None
            if f is None:
                return entry * Fraction(factor) if not isinstance(entry, QuadraticSurd) \
                    else entry * factor
            return f * entry if isinstance(entry, FieldElement) else f * Fraction(entry)
        if isinstance(factor, QuadraticSurd) or isinstance(entry, QuadraticSurd):
            a = factor if isinstance(factor, QuadraticSurd) else QuadraticSurd(factor)
            b = entry if isinstance(entry, QuadraticSurd) else QuadraticSurd(entry)
            return a * b
        return Fraction(factor) * Fraction(entry)
    if place.kind == "complex":
        return complex(ref_to_float(factor)) * complex(ref_to_float(entry))
    return ref_to_float(factor) * ref_to_float(entry)


# ---------------------------------------------------------------------------
# Draws

fracs = st.fractions(min_value=-20, max_value=20, max_denominator=12)
ints = st.integers(-30, 30)
surds = st.builds(lambda a, b: QuadraticSurd(a, b, 2), fracs,
                  st.one_of(st.just(Fraction(0)), fracs))
fe_q = st.builds(lambda a: Q.element([a]), fracs)
fe_q2 = st.builds(lambda a, b: Q2.element([a, b]), fracs, fracs)
floats = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
mpfs = st.builds(lambda x, k: mpf(x) / k, floats, st.integers(1, 9))
scalars = st.one_of(ints, fracs, surds, fe_q, fe_q2, floats, mpfs)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (TypeError, ValueError, ZeroDivisionError) as e:
        return e


def _is_fe(c):
    return isinstance(c, FieldElement)


def _rational_surd_meets_field(a, b):
    pair = {type(a), type(b)}
    surd = a if isinstance(a, QuadraticSurd) else b
    return pair == {QuadraticSurd, FieldElement} and surd.is_rational()


def _fe_value(c, field):
    """An exact scalar of K as a FieldElement, for the expected lifts."""
    if isinstance(c, FieldElement):
        return c
    if isinstance(c, QuadraticSurd):
        return field.element([c.as_fraction()])
    return field.element([c])


def _exact_mpf(c):
    """c at 60 digits, computed independently of the code under test."""
    if isinstance(c, QuadraticSurd):
        return mpf(c.a.numerator) / c.a.denominator + \
            mpf(c.b.numerator) / c.b.denominator * mp.sqrt(c.d)
    if isinstance(c, Fraction):
        return mpf(c.numerator) / c.denominator
    return mpf(c)


def _same(got, want):
    assert type(got) is type(want), (got, want)
    if isinstance(want, FieldElement):
        assert got.field == want.field and got.coords == want.coords
    else:
        assert got == want, (got, want)


def _check(new, ref, exact_op, a, b):
    with mp.workdps(DEFAULT_DPS + 5):
        want = _outcome(ref, a, b)
        got = _outcome(new, a, b)
    if _rational_surd_meets_field(a, b):
        field = a.field if _is_fe(a) else b.field
        lifted = _outcome(exact_op, _fe_value(a, field), _fe_value(b, field))
        if isinstance(lifted, Exception):
            assert type(got) is type(lifted)
        else:
            _same(got, lifted)
    elif exact_op is _truediv and {type(a), type(b)} == {FieldElement, float}:
        assert isinstance(got, TypeError)
    elif isinstance(want, Exception):
        assert isinstance(got, Exception), (a, b, got)
    elif type(want) is float:
        assert type(got) is mpf, (a, b, got)
        with mp.workdps(60):
            exact = exact_op(_exact_mpf(a), _exact_mpf(b))
            assert abs(got - exact) <= mpf(10) ** -45 * max(1, abs(exact))
    else:
        _same(got, want)


def _mul(a, b):
    return a * b


def _add(a, b):
    return a + b


def _truediv(a, b):
    return a / b


class TestDifferential:
    @settings(max_examples=400, deadline=None)
    @given(scalars, scalars)
    def test_mul(self, a, b):
        _check(sc.mul, ref_mul, _mul, a, b)

    @settings(max_examples=400, deadline=None)
    @given(scalars, scalars)
    def test_add(self, a, b):
        _check(sc.add, ref_add, _add, a, b)

    @settings(max_examples=400, deadline=None)
    @given(scalars, scalars)
    def test_div(self, a, b):
        _check(sc.div, ref_div, _truediv, a, b)

    @pytest.mark.parametrize("a, b", [(3, 4), (-6, 4), (0, 5)])
    def test_rational_pairs_stay_fractions(self, a, b):
        for op in (sc.mul, sc.add, sc.div):
            assert type(op(a, b)) is Fraction
        assert sc.div(a, b) == Fraction(a, b)

    def test_surd_times_mpf_keeps_digits(self):
        with mp.workdps(DEFAULT_DPS):
            third = mpf(1) / 3
            got = sc.mul(QuadraticSurd.sqrt(2), third)
            assert type(got) is mpf
            assert abs(got - mp.sqrt(2) / 3) < mpf(10) ** -45

    def test_inexact_ops_use_default_dps(self):
        # at mpmath's default 15 digits the product still carries 50
        got = sc.mul(Fraction(1, 3), mpf(2))
        with mp.workdps(60):
            assert abs(got - mpf(2) / 3) < mpf(10) ** -45

    def test_irrational_surd_is_not_in_the_field(self):
        with pytest.raises(NotInField):
            sc.mul(Q2.element([1, 1]), QuadraticSurd.sqrt(3))


@st.composite
def _scale_pairs(draw):
    """(factor, entry) for a torus entry scaling one real-place entry.

    The lattice's determinant check has no product of a field element and
    a surd, nor of two fields, so such pairs swap the entry for a
    Fraction; `TestDifferential` covers their lift.
    """
    nonzero_floats = st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)
    nonzero = st.one_of(
        st.integers(1, 30), fracs.filter(bool),
        surds.filter(lambda s: not s.is_zero()),
        fe_q.filter(lambda e: not e.is_zero()),
        fe_q2.filter(lambda e: not e.is_zero()),
        nonzero_floats, nonzero_floats.map(lambda x: mpf(x) / 7))
    factor, entry = draw(nonzero), draw(nonzero)
    kinds = {type(c) for c in (factor, entry)}
    fields = {c.field for c in (factor, entry) if isinstance(c, FieldElement)}
    if len(fields) > 1 or kinds == {FieldElement, QuadraticSurd}:
        entry = draw(fracs.filter(bool))
    return factor, entry


class TestScaleEntry:
    @settings(max_examples=300, deadline=None)
    @given(_scale_pairs())
    def test_act_matches_reference(self, pair):
        factor, entry = pair
        field = next((c.field for c in pair if isinstance(c, FieldElement)), Q)
        place = Q2_REAL if field == Q2 else Q_REAL
        exact = sc.is_exact(factor)
        inverse = sc.div(1, factor) if exact else 1 / factor
        t = dy.TorusElement(field, [place], 2, [[factor, inverse]])
        x = dy.OrbitPoint(field, [place], 2, [[[entry, 0], [0, 1]]],
                          unimodular=False)
        want = _outcome(ref_scale_entry, factor, entry, place)
        got = _outcome(lambda: dy.act(t, x).g[0][0][0])
        if isinstance(want, Exception) and \
                any(map(_is_fe, pair)) and not all(map(sc.is_exact, pair)):
            expect = float(sc.to_mpf(factor, place)) * float(sc.to_mpf(entry, place))
            assert type(got) is float
            assert got == pytest.approx(expect, rel=1e-12)
        elif isinstance(want, Exception):
            assert isinstance(got, Exception)
        else:
            _same(got, want)

    def test_zero_entries_are_kept(self):
        t = dy.TorusElement(Q, [Q_REAL], 2, [[2.0, 0.5]])
        x = dy.OrbitPoint.identity(Q, [Q_REAL], 2)
        assert dy.act(t, x).g[0][0][1] == 0
        assert type(dy.act(t, x).g[0][0][1]) is int


# ---------------------------------------------------------------------------
# One membership rule at finite places


class TestFiniteMembership:
    places = nf.archimedean_places(Q) + nf.finite_places(Q, 2)

    def test_torus_element_rejects_irrational_surds(self):
        s2 = QuadraticSurd.sqrt(2)
        with pytest.raises(NotInField, match="finite-place entry"):
            dy.TorusElement(Q, self.places[1:], 2, [[s2, s2 / 2]])

    def test_sadic_vector_accepts_rational_surds(self):
        x = sd.SAdicVector(self.places, [(1, 0), (QuadraticSurd(3), 0)])
        assert sd.local_norms(x)[1] == 1

    def test_sadic_vector_rejects_floats(self):
        with pytest.raises(NotInField):
            sd.SAdicVector(self.places, [(1, 0), (1.0, 0)])

    def test_form_rejects_irrational_surds(self):
        s2 = QuadraticSurd.sqrt(2)
        with pytest.raises(NotInField, match="at p2_0"):
            fm.DecomposableForm(Q, self.places, 2,
                                [[(1, 0), (0, 1)], [(s2, 0), (0, 1)]])


# ---------------------------------------------------------------------------
# The rules live in one module

_GUARDED = ("cli", "dynamics", "lattice", "sadic")
_SCALAR_TYPES = {"QuadraticSurd", "FieldElement"}


def _names(node):
    if isinstance(node, ast.Tuple):
        return {n for elt in node.elts for n in _names(elt)}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Name):
        return {node.id}
    return set()


def test_no_scalar_type_dispatch_outside_scalars():
    src = pathlib.Path(sc.__file__).parent
    offences = []
    for mod in _GUARDED:
        tree = ast.parse((src / f"{mod}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "isinstance" and len(node.args) == 2:
                names = _names(node.args[1])
                if names & _SCALAR_TYPES or any("EXACT" in n for n in names):
                    offences.append(f"{mod}.py:{node.lineno}")
    assert offences == []


# Every module-level function and class of the package, and every method
# of its classes but the dunder ones, is named somewhere outside its own
# definition: in the package, the tests, the demos or the benchmark harness
# (whose tracer names its targets in strings).

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree):
    """(owner, node) of every module-level definition and of every method
    of a module-level class; owner names the definitions the node is in."""
    for top in tree.body:
        if isinstance(top, _DEFINITIONS):
            yield (), top
        if isinstance(top, ast.ClassDef):
            for item in top.body:
                if isinstance(item, _DEFINITIONS[:2]):
                    yield (top.name,), item


def _mentions(tree):
    """(owner, name) for every name the tree uses, where owner names the
    module-level definition and, in a class, the method around the use."""
    out = set()
    inner = {id(node): owner + (node.name,) for owner, node in _definitions(tree)}

    def visit(node, owner):
        owner = inner.get(id(node), owner)
        if isinstance(node, ast.Name):
            out.add((owner, node.id))
        elif isinstance(node, ast.Attribute):
            out.add((owner, node.attr))
        elif isinstance(node, ast.alias):
            out.add((owner, node.name))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out.add((owner, node.value))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, ())
    return out


def _source_trees():
    return {path: ast.parse(path.read_text())
            for folder in ("src", "tests", "demos", "perfbench")
            for path in sorted((_ROOT / folder).rglob("*.py"))}


def _package_definitions():
    """(qualified name, path, owner, node) of every package definition."""
    for path in sorted((_ROOT / "src" / "sadiclab").glob("*.py")):
        for owner, node in _definitions(ast.parse(path.read_text())):
            yield ".".join((path.stem,) + owner + (node.name,)), path, owner, node


def _namers():
    """The files that name each non-dunder package definition outside it,
    by qualified name.  The package's `__init__.py` names no definition:
    a re-export is no use."""
    init = _ROOT / "src" / "sadiclab" / "__init__.py"
    mentions = {path: _mentions(tree) for path, tree in _source_trees().items()
                if path != init}
    out = {}
    for qualname, path, owner, node in _package_definitions():
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        own = owner + (node.name,)
        out[qualname] = {where for where, found in mentions.items()
                         for used, name in found
                         if name == node.name and (where != path or used[:len(own)] != own)}
    return out


def test_every_package_definition_is_named_elsewhere():
    assert [name for name, where in _namers().items() if not where] == []


# The package definitions that only the tests name, each with the reason
# it is kept; every other definition serves the package, the demos or the
# benchmark harness.

_TEST_ONLY = {
    "dynamics.OrbitPoint.to_jsonable":
        "acceptance writes the `--point file:` JSON with it",
    "dynamics.RaySchedule.torus_element": "the exact oracle in test_crosschecks",
    "dynamics.act": "the T_R action, the exact oracle in test_crosschecks",
    "forms.DecomposableForm.compose": "the GL-invariance test of value spectra",
    "lattice.PointCloud.valuation_fallbacks":
        "telemetry for observability (ROADMAP aim 4)",
    "sadic.BalancingTarget": "acceptance c02 balances S-units to its targets",
    "sadic.BalancingTarget.equal_split": "acceptance builds its targets with it",
    "sadic.pseudoball_contains": "the pseudoballs of the README",
    "sadic.unit_balance": "acceptance c02 balances S-units with it",
}


def test_only_listed_definitions_serve_the_tests_alone():
    tests = _ROOT / "tests"
    only = [name for name, where in _namers().items()
            if where and all(tests in path.parents for path in where)]
    # a listed definition that the tests no longer name alone leaves the list
    assert sorted(set(only) ^ set(_TEST_ONLY)) == []


# Every defaulted parameter of a package function is set by some call in
# the package, the tests, the demos or the benchmark harness.  Calls match
# definitions by name: a keyword sets its parameter, a positional argument
# the parameter in its place (after self or cls in a method), and *args or
# **kwargs every parameter; `C(...)`, and `cls(...)` in a classmethod of
# C, call C.__init__.


def _decorated(node, name):
    return any(_names(d) == {name} for d in node.decorator_list)


def _calls(tree):
    """(callee name, call) for every call in the tree."""
    out = []

    def visit(node, cls, maker):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, _DEFINITIONS[:2]):
            maker = cls if _decorated(node, "classmethod") else None
        elif isinstance(node, ast.Call):
            for name in _names(node.func):
                out.append((maker if name == "cls" and maker else name, node))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, maker)

    visit(tree, None, None)
    return out


def test_every_defaulted_parameter_is_set_by_a_call():
    calls = {}
    for tree in _source_trees().values():
        for name, call in _calls(tree):
            calls.setdefault(name, []).append(call)
    unset = []
    for qualname, _, owner, node in _package_definitions():
        if isinstance(node, ast.ClassDef):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args]
        defaulted = params[len(params) - len(args.defaults):] + [
            a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        if owner and not _decorated(node, "staticmethod"):
            params = params[1:]
        seen = set()
        for call in calls.get(owner[0] if node.name == "__init__" else node.name, []):
            if any(isinstance(a, ast.Starred) for a in call.args) or \
                    any(k.arg is None for k in call.keywords):
                seen.update(defaulted)
            seen.update(params[:len(call.args)])
            seen.update(k.arg for k in call.keywords)
        unset += [f"{qualname}.{name}" for name in defaulted if name not in seen]
    assert unset == []


# The window of S-integer points is enumerated in one place:
# `lattice._window_rows` alone calls `_numerator_grid` and sweeps the
# denominator exponents (an `itertools.product` over range(E + 1) per prime).


class _WindowSweeps(ast.NodeVisitor):
    def __init__(self, module):
        self.module = module
        self.functions = []
        self.found = set()

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    def visit_Call(self, node):
        callee = _names(node.func)
        where = (self.module, ".".join(self.functions))
        if "_numerator_grid" in callee:
            self.found.add(where + ("grid",))
        mentioned = {n for arg in node.args + [k.value for k in node.keywords]
                     for sub in ast.walk(arg) for n in _names(sub)}
        if "product" in callee and mentioned & {"E", "primes"}:
            self.found.add(where + ("denominator sweep",))
        self.generic_visit(node)


def test_window_enumerated_in_one_helper():
    src = pathlib.Path(sc.__file__).parent
    found = set()
    for path in sorted(src.glob("*.py")):
        visitor = _WindowSweeps(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        found |= visitor.found
    assert found == {("lattice", "_window_rows", "grid"),
                     ("lattice", "_window_rows", "denominator sweep")}


# Ray multipliers are math.exp's: numpy's exp on an array rounds some
# arguments differently (16 of the 1,530 archimedean exponents of one
# default survey), so it would change artifacts.


def test_dynamics_takes_exp_from_math():
    tree = ast.parse((pathlib.Path(sc.__file__).parent / "dynamics.py").read_text())
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "exp"
             and _names(node.value) != {"math"}]
    assert calls == []


def test_parse_real_defaults():
    assert sc.parse_real({"b": 1, "d": 5}) == QuadraticSurd.sqrt(5)
    assert sc.parse_real({"a": "1/2"}) == Fraction(1, 2)
    assert sc.parse_real(0.5) == Fraction(1, 2)
    assert math.isclose(float(sc.parse_real(Q.element([3]))), 3.0)
