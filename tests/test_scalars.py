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
import json
import math
import pathlib
from fractions import Fraction

import pytest
import numpy as np
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpc, mpf

from sadiclab import dynamics as dy
from sadiclab import forms as fm
from sadiclab import numberfield as nf
from sadiclab import sadic as sd
from sadiclab import scalars as sc
from sadiclab.errors import NotInField, NotUnimodular
from sadiclab.lattice import SLattice
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
        x = SLattice(field, [place], 2, [[[entry, 0], [0, 1]]],
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
        x = SLattice.identity(Q, [Q_REAL], 2)
        assert dy.act(t, x).g[0][0][1] == 0
        assert type(dy.act(t, x).g[0][0][1]) is int


def test_to_mpf_takes_numbers_only():
    # a tuple used to become an mpf with mantissa 1 and exponent 2
    with pytest.raises(TypeError, match="is not a number"):
        sc.to_mpf((1, 2))
    with pytest.raises(TypeError):
        sc.to_mpf("1.5")
    # a factor row written as pairs reaches it through `_canonical_scalar`
    with pytest.raises(TypeError, match="is not a number"):
        fm.DecomposableForm(Q, [Q_REAL], 2, [[[(1, 0), (1, QuadraticSurd.sqrt(2))]]])
    assert sc.to_mpf(np.float64(0.1)) == mpf(0.1)
    assert sc.to_mpf(np.float32(0.5)) == mpf(0.5)
    assert sc.to_mpf(np.int64(7)) == 7
    assert sc.to_mpf(np.complex128(1 + 2j)) == mpc(1, 2)
    assert sc.to_mpf(True) == 1


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

    def test_every_constructor_rejects_one_entry_alike(self):
        s2 = QuadraticSurd.sqrt(2)
        eye = [[1, 0], [0, 1]]
        builds = [
            lambda: dy.TorusElement(Q, self.places[1:], 2, [[s2, 1]]),
            lambda: sd.SAdicVector(self.places, [(1, 0), (s2, 0)]),
            lambda: SLattice(Q, self.places, 2, [eye, [[s2, 0], [0, 1]]]),
            lambda: fm.make_form(Q, self.places, [eye, [(s2, 0), (0, 1)]]),
        ]
        texts = []
        for build in builds:
            with pytest.raises(NotInField) as err:
                build()
            texts.append(str(err.value))
        assert texts == [f"finite-place entry {s2!r} at p2_0 is not an exact "
                         "element of K"] * 4

    def test_lattice_checks_entries_before_determinants(self):
        s2 = QuadraticSurd.sqrt(2)
        with pytest.raises(NotInField, match="at p2_0"):
            SLattice(Q, self.places, 2, [[[0, 0], [0, 0]], [[s2, 0], [0, 1]]])

    def test_zero_diagonal_entry_is_singular(self):
        with pytest.raises(NotUnimodular, match=r"^singular matrix at r0$"):
            dy.TorusElement(Q, self.places[:1], 2, [[0, 1]])


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


# The determinant rule is `scalars.check_det`: no module but `scalars` and
# `linalg` calls a `det` (`linalg.det` or `np.linalg.det`).


def test_determinants_only_in_scalars():
    src = pathlib.Path(sc.__file__).parent
    calls = []
    for path in sorted(src.glob("*.py")):
        if path.stem in ("scalars", "linalg"):
            continue
        calls += [f"{path.stem}.py:{node.lineno}"
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Call) and "det" in _names(node.func)]
    assert calls == []


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
    "lattice.SLattice.to_jsonable":
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


# Every field of a package dataclass is read as an attribute somewhere in
# the package (not its `__init__.py`), the demos or the benchmark harness,
# or is listed below with the reason it is kept.  Reads match fields by
# name, as `_namers` matches definitions, so a field whose name another
# object's attribute also has (a `point`, a `window`) counts as read.

_UNREAD_FIELDS = {
    "forms.ValueSpectrum.candidates": "telemetry for observability (ROADMAP aim 4)",
    "lattice.MahlerReport.radius": "`dataclasses.asdict` writes it to mahler.json",
    "lattice.MahlerVerdict.supnorm_systole":
        "`dataclasses.asdict` writes it to mahler.json",
}


def _dataclass_fields():
    """(qualified name, field name) of every field of a package dataclass."""
    for path in sorted((_ROOT / "src" / "sadiclab").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and any(
                    _names(d) == {"dataclass"} for d in node.decorator_list):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        yield f"{path.stem}.{node.name}.{item.target.id}", item.target.id


def test_every_dataclass_field_is_read():
    init, tests = _ROOT / "src" / "sadiclab" / "__init__.py", _ROOT / "tests"
    read = {node.attr for path, tree in _source_trees().items()
            if path != init and tests not in path.parents
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [name for name, field in _dataclass_fields() if field not in read]
    # a listed field that something now reads leaves the list
    assert sorted(set(unread) ^ set(_UNREAD_FIELDS)) == []


# Every defaulted parameter of a package function is set by some call in
# the package, the demos or the benchmark harness, or is listed below with
# the reason the tests alone set it: a test must not keep a parameter
# alive that nothing else sets.  Calls match definitions by name: a keyword sets its parameter, a positional argument
# the parameter in its place (after self or cls in a method), and *args or
# **kwargs every parameter; `C(...)`, and `cls(...)` in a classmethod of
# C, call C.__init__.


_TEST_SET = {
    "cli.main.argv": "tests drive the CLI in-process; the console script "
                     "reads sys.argv",
    "forms.littlewood_scan.chunk":
        "small chunks carry the prefix minimum across chunk ends at small N",
    "lattice.PointCloud.norms_under.arch_mults":
        "the per-step oracle that test_schedule_kernel checks the kernel against",
    "lattice.PointCloud.norms_under.fin_shifts":
        "the per-step oracle that test_schedule_kernel checks the kernel against",
}


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
    tests = _ROOT / "tests"
    calls = {}
    for path, tree in _source_trees().items():
        if tests in path.parents:
            continue
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
    # a listed parameter that a call outside the tests now sets leaves the list
    assert sorted(set(unset) ^ set(_TEST_SET)) == []


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


# A finite place is built one way: `numberfield._finite_places` alone calls
# `FinitePlace(...)`, so a refined place is an entry of a shared place list.


class _PlaceBuilds(_WindowSweeps):
    def visit_Call(self, node):
        if "FinitePlace" in _names(node.func):
            self.found.add((self.module, ".".join(self.functions), node.lineno))
        self.generic_visit(node)


def test_finite_place_built_in_one_helper():
    src = pathlib.Path(sc.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        visitor = _PlaceBuilds(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        found += [where[:2] for where in visitor.found]
    assert found == [("numberfield", "_finite_places")]


# No shared value grows without bound: no module-level function or method
# of the package is memoised by `functools.cache` or by an `lru_cache` whose
# maxsize is None, so a long session keeps a fixed number of fields
# (`numberfield.FIELD_CACHE_SIZE`) and windows (`lattice.WINDOW_CACHE_SIZE`).
# A memo made inside a call, such as `forms.norm_form`'s `minor`, goes
# with the call.


def _unbounded_memo(decorator):
    if isinstance(decorator, ast.Call):
        size = decorator.args[:1] + [k.value for k in decorator.keywords if k.arg == "maxsize"]
        return _names(decorator.func) == {"lru_cache"} and any(
            isinstance(s, ast.Constant) and s.value is None for s in size)
    return _names(decorator) == {"cache"}


def test_no_unbounded_memo_at_module_level():
    assert [qualname for qualname, _, _, node in _package_definitions()
            if any(map(_unbounded_memo, node.decorator_list))] == []


@pytest.mark.parametrize("decorator, unbounded", [
    ("functools.cache", True), ("cache", True),
    ("functools.lru_cache(maxsize=None)", True), ("lru_cache(None)", True),
    ("functools.lru_cache(maxsize=32)", False), ("functools.lru_cache", False),
    ("functools.cached_property", False),
])
def test_unbounded_memo_decorators(decorator, unbounded):
    assert _unbounded_memo(ast.parse(decorator, mode="eval").body) is unbounded


# Float decisions derive their tolerances (ROADMAP item 23): no float
# literal below 1e-6 in absolute value and no power of 10 with a negative
# exponent, written negated or as a difference (`10 ** (5 - dps)`), stands
# anywhere in `src/` but in the definitions listed below, each with its
# item 23 row or the reason it stays.

_SMALL_CONSTANTS = {
    "forms._cf_recognize": "item 23: a ratio is rational, 10^-(dps-10)",
    "forms._rank_at_place": "item 23: factor independence of inexact entries",
    "forms._ratio_rational": "item 23: a ratio is real; a ratio is 0",
    "forms._report_from_spectra": "item 23: a value lies in a cluster's window",
    "forms._spectrum_from_pairs": "item 23: two values are one",
    "forms.littlewood_scan": "a derived bound: the rounding of alpha and beta at dps digits",
    "numberfield.ArchimedeanPlace.root": "Newton's stopping step, no decision",
    "numberfield._complex_places": "pairs float roots; the exact root counts re-check "
                                   "the pairing, and a mismatch raises",
    "numberfield._float_roots": "Durand-Kerner's stopping step; `root` refines each root",
    "sadic.BalancingTarget.validate_against": "item 23: targets multiply to the content",
    "sadic._left_inverse": "item 23: rank of the log vectors",
    "sadic.balancing_constant": "item 23: rank of the log vectors",
    "sadic.unit_balance": "item 23: tie between objectives",
    "scalars.check_det": "item 23: singular, det != 1 (entries that do not lift)",
}


def _negative_power_of_ten(node):
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)):
        return False
    base, exponent = node.left, node.right
    if isinstance(base, ast.Call) and len(base.args) == 1:
        base = base.args[0]                 # mpf(10)
    return isinstance(base, ast.Constant) and base.value == 10 and (
        isinstance(exponent, ast.UnaryOp) and isinstance(exponent.op, ast.USub)
        or isinstance(exponent, ast.BinOp) and isinstance(exponent.op, ast.Sub)
        or isinstance(exponent, ast.Constant) and exponent.value < 0)


def _small_constants(module, tree):
    """The definitions of a module that hold a float literal below 1e-6 or
    a power of 10 with a negative exponent, by qualified name."""
    found = set()

    def visit(node, owner):
        if isinstance(node, _DEFINITIONS):
            owner += (node.name,)
        if isinstance(node, ast.Constant) and isinstance(node.value, float) and \
                0 < abs(node.value) < 1e-6 or _negative_power_of_ten(node):
            found.add(".".join((module,) + owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, ())
    return found


def test_small_constants_only_where_listed():
    found = set()
    for path in sorted((_ROOT / "src" / "sadiclab").glob("*.py")):
        found |= _small_constants(path.stem, ast.parse(path.read_text()))
    # a listed definition that holds no such constant any more leaves the list
    assert sorted(found ^ set(_SMALL_CONSTANTS)) == []


@pytest.mark.parametrize("source, found", [
    ("x = 1e-7", True), ("x = -1e-7", True), ("x = 1e-6", False), ("x = 0.0", False),
    ("x = 10 ** -3", True), ("x = mpf(10) ** (-(dps + 10))", True),
    ("x = 10.0 ** (1 - dps)", True), ("x = 10 ** 6", False), ("x = 2.0 ** -53", False),
    ("x = '1e-15'", False),
])
def test_small_constants_found(source, found):
    assert bool(_small_constants("m", ast.parse(source))) is found


# Ray multipliers are math.exp's: numpy's exp on an array rounds some
# arguments differently (16 of the 1,530 archimedean exponents of one
# default survey), so it would change artifacts.


def test_dynamics_takes_exp_from_math():
    tree = ast.parse((pathlib.Path(sc.__file__).parent / "dynamics.py").read_text())
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "exp"
             and _names(node.value) != {"math"}]
    assert calls == []


@pytest.mark.parametrize("entry", [3, -1, Fraction(-1, 2), QuadraticSurd.sqrt(2),
                                   QuadraticSurd(1, Fraction(2, 3), 3),
                                   QuadraticSurd(4), Q.element([Fraction(5, 2)])])
def test_real_spec_reads_back_as_the_same_value(entry):
    from sadiclab import cli
    spec = json.loads(json.dumps(sc.real_spec(entry)))
    assert cli._parse_scalar(spec, "/m") == entry


@pytest.mark.parametrize("entry", [1.0, 0.5, mpf(1), mpc(1, 1), True,
                                   nf.create_field([1, 0, 1]).element([0, 1])])
def test_real_spec_refuses_inexact_entries(entry):
    # a float's repr "1.0" would read back as the exact 1
    with pytest.raises(TypeError, match="^no exact real spec for "):
        sc.real_spec(entry)


def test_point_with_a_float_entry_has_no_file_spelling():
    places = nf.archimedean_places(Q) + nf.finite_places(Q, 2)
    eye = [[1, 0], [0, 1]]
    x = SLattice(Q, places, 2, [[[1.0, 0], [0, 1]], eye])
    with pytest.raises(TypeError):
        x.to_jsonable()


def test_parse_real_defaults():
    assert sc.parse_real({"b": 1, "d": 5}) == QuadraticSurd.sqrt(5)
    assert sc.parse_real({"a": "1/2"}) == Fraction(1, 2)
    assert sc.parse_real(0.5) == Fraction(1, 2)
    assert math.isclose(float(sc.parse_real(Q.element([3]))), 3.0)
