import copy
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from sadiclab import cli
from sadiclab import dynamics as dy
from sadiclab import forms as fm
from sadiclab import lattice as lt
from sadiclab import sadic as sd
from sadiclab.errors import SchemaError
from sadiclab.surd import QuadraticSurd


MINIMAL = {"min_poly": [0, 1]}
Q_WITH_2 = {"min_poly": [0, 1],
            "places": {"archimedean": "all", "finite_primes": [2]}}


def _assert_not_imported(statement, modules=("jsonschema", "sympy")):
    """Run `statement` in a fresh interpreter; none of `modules` may load."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = ("import sys; import sadiclab.cli as cli; "
            f"{statement}; "
            f"loaded = [m for m in {list(modules)!r} if m in sys.modules]; "
            "assert not loaded, f'imported {loaded}'")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


# A config that passes the schema and uses every block and every key.
FULL = {
    "min_poly": [1, 0, 1], "integral_basis": [[1, 0], [0, 1]],
    "places": {"archimedean": "all", "finite_primes": [5]},
    "s_units": [],
    "window": {"H": 2, "E": 1, "cap": 1000},
    "systole": {"n": 2, "diagonal_flow": {"values": [0.5, 1]},
                "matrices": [[[1, 0], [0, 1]]]},
    "mahler": {"n": 2, "radius": 0.5, "diagonal_flow": {"values": [0.0]},
               "matrices_list": []},
    "orbit_survey": {"point": "identity", "active_places": ["r0"],
                     "steps": 20, "grid": "0:1:2", "expect": {}},
    "nilpotent_check": {"n": 2, "radius": 1.5, "matrices": []},
    "expanding": {"positions": [[0, 1]], "tau": 2, "place": "r0"},
    "form": {"places": ["r0"], "factors": [], "factors_per_place": [],
             "builtin": "x", "norm_field": {"min_poly": [-2, 0, 1],
                                            "basis": []}},
    "spectrum": {"heights": [10, 100], "cap": 0.9, "denominator_exponent": 0},
    "littlewood": {"alpha": 1, "beta": "2", "N": 100},
}

# the keywords the walk in cli._violations implements
WALKED_KEYWORDS = {"type", "properties", "additionalProperties", "required",
                   "items", "minItems", "maxItems", "minimum",
                   "exclusiveMinimum", "maximum", "const"}

# values that hit each type rule: bools, integral and non-integral floats,
# infinities, strings, empty and non-empty containers, null
ODD_VALUES = [True, False, 0, -1, 1, 2, 10 ** 10, 0.0, 2.0, 0.5, -0.5,
              math.inf, -math.inf, "all", "x", [], [0, 1, 2], [[0]], {},
              {"a": 1}, None]


REFERENCE = jsonschema.validators.validator_for(cli.CONFIG_SCHEMA)(
    cli.CONFIG_SCHEMA)


def _pointer(path):
    return "/" + "/".join(str(p) for p in path)


def _reference_errors(config):
    """(pointer, message) of every error and of `best_match`, per jsonschema."""
    errors = list(REFERENCE.iter_errors(config))
    best = jsonschema.exceptions.best_match(errors)
    return ([(_pointer(e.absolute_path), e.message) for e in errors],
            None if best is None else (_pointer(best.absolute_path), best.message))


def _walk_errors(config):
    best = cli._best_violation(config, cli.CONFIG_SCHEMA)
    return ([(_pointer(p), m) for p, m in cli._violations(config, cli.CONFIG_SCHEMA)],
            None if best is None else (_pointer(best[0]), best[1]))


def _nodes(node, path=()):
    yield path, node
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


@st.composite
def mutated_configs(draw):
    """FULL with one to four faults: keys deleted or added, values replaced."""
    config = {"root": copy.deepcopy(FULL)}
    for _ in range(draw(st.integers(1, 4))):
        path, node = draw(st.sampled_from(list(_nodes(config["root"]))))
        path = ("root",) + path
        parent = config
        for key in path[:-1]:
            parent = parent[key]
        value = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        action = draw(st.sampled_from(["delete", "add", "replace"]))
        if action == "delete" and len(path) > 1:
            del parent[path[-1]]
        elif action == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(["aaa", "zzz", "H", "Min_poly", "1"]))] = value
        elif action == "add" and isinstance(node, list):
            node.append(value)
        else:
            parent[path[-1]] = value
    return config["root"]


class TestSchemaWalk:
    def test_schema_uses_only_walked_keywords(self):
        # a keyword outside this set would be checked by the reference
        # validator but not by the walk
        def subschemas(schema):
            yield schema
            for sub in schema.get("properties", {}).values():
                yield from subschemas(sub)
            if "items" in schema:
                yield from subschemas(schema["items"])

        for schema in subschemas(cli.CONFIG_SCHEMA):
            assert set(schema) <= WALKED_KEYWORDS, set(schema) - WALKED_KEYWORDS
            assert schema.get("additionalProperties", False) is False
            assert isinstance(schema.get("const", ""), str)

    def test_full_config_is_valid(self):
        assert _walk_errors(FULL) == _reference_errors(FULL) == ([], None)

    @settings(max_examples=600, deadline=None)
    @given(mutated_configs())
    def test_walk_matches_reference_validator(self, config):
        assert _walk_errors(config) == _reference_errors(config)

    @pytest.mark.parametrize("statement", [
        "pass",
        f"cli.parse_config({json.dumps(Q_WITH_2)!r})",
        "from sadiclab.errors import SchemaError\n"
        "try: cli.parse_config({'min_poly': [0, 1], 'window': {'H': 0}})\n"
        "except SchemaError: pass\n"
        "else: raise AssertionError('no SchemaError')",
        "import tempfile\n"
        "with tempfile.TemporaryDirectory() as out: assert cli.main(['--config', "
        + repr(json.dumps(dict(Q_WITH_2, window={"H": 2, "E": 1},
                               systole={"matrices": [[[1, 1], [0, 1]]] * 2})))
        + ", '--out', out, 'systole']) == 0",
    ], ids=["import", "valid", "invalid", "systole"])
    def test_cli_runs_do_not_import_the_reference_validator(self, statement):
        _assert_not_imported(statement)

    @pytest.mark.parametrize("config, line", [
        ({"min_poly": [0, 1], "bogus": 1},
         "/: Additional properties are not allowed ('bogus' was unexpected)"),
        ({"min_poly": [0, 1], "zzz": 1, "aaa": 2},
         "/: Additional properties are not allowed ('aaa', 'zzz' were unexpected)"),
        ({"window": {"H": 2}}, "/: 'min_poly' is a required property"),
        ({"bogus": 1},
         "/: Additional properties are not allowed ('bogus' was unexpected)"),
        ({"min_poly": "x"}, "/min_poly: 'x' is not of type 'array'"),
        ({"min_poly": [0, 1], "window": {"H": True}},
         "/window/H: True is not of type 'integer'"),
        ({"min_poly": [0, 1], "window": {"H": 0}},
         "/window/H: 0 is less than the minimum of 1"),
        ({"min_poly": [0, 1], "mahler": {"radius": 0}},
         "/mahler/radius: 0 is less than or equal to the minimum of 0"),
        ({"min_poly": [0, 1], "places": {"archimedean": "some"}},
         "/places/archimedean: 'all' was expected"),
        ({"min_poly": [0, 1],
          "expanding": {"positions": [[0, 1, 2]], "tau": 2, "place": "r0"}},
         "/expanding/positions/0: [0, 1, 2] is too long"),
        ({"min_poly": [0, 1], "window": {"E": -1, "cap": 0}},
         "/window/cap: 0 is less than the minimum of 1"),
        ({"min_poly": [0, "a", "b"]}, "/min_poly/2: 'b' is not of type 'integer'"),
        ({"min_poly": [0, 1], "window": {"h": 1}},
         "/window: Additional properties are not allowed ('h' was unexpected)"),
        # the Hensel precision is a constant, not a setting
        ({"min_poly": [0, 1], "hensel_precision": 10},
         "/: Additional properties are not allowed ('hensel_precision' was unexpected)"),
        # nor is the working precision of forms
        ({"min_poly": [0, 1], "precision": 50},
         "/: Additional properties are not allowed ('precision' was unexpected)"),
    ])
    def test_golden_error_lines(self, tmp_path, capsys, config, line):
        # pinned from the jsonschema-based validation the walk replaced
        code = cli.main(["--config", json.dumps(config),
                         "--out", str(tmp_path), "systole"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {line}\n"

    def test_negative_cap_rejected(self):
        config = {"min_poly": [0, 1], "spectrum": {"heights": [3], "cap": -1}}
        with pytest.raises(SchemaError) as err:
            cli.parse_config(config)
        assert str(err.value) == "/spectrum/cap: -1 is less than the minimum of 0"
        config["spectrum"]["cap"] = 0
        cli.parse_config(config)


class TestParseConfig:
    def test_config_schema_is_valid(self):
        # the schema is a constant, so it is checked here once, not on import
        jsonschema.validators.validator_for(cli.CONFIG_SCHEMA).check_schema(
            cli.CONFIG_SCHEMA)

    @pytest.mark.parametrize("config", [
        dict(Q_WITH_2, window={"H": 24, "E": 4},
             orbit_survey={"point": "identity", "steps": 20}),
        {"min_poly": [1, 0, 1],
         "places": {"archimedean": "all", "finite_primes": [5]},
         "window": {"H": 2, "E": 1},
         "systole": {"n": 2, "matrices": [[[3, 2], [4, 3]]] * 3}},
        {"min_poly": [0, 1],
         "form": {"factors": [[1, 0], [{"b": 1, "d": 2}, -1]]},
         "spectrum": {"heights": [10, 100, 1000], "cap": 0.9}},
    ])
    def test_start_up_does_not_import_sympy(self, config):
        # field set-up (irreducibility, discriminant, factors mod p) runs
        # on polyarith, and norm forms are a division-free determinant
        _assert_not_imported(f"cli.parse_config({json.dumps(config)!r})")

    @pytest.mark.parametrize("subcommand", ["norm-form", "form-spectrum"])
    def test_norm_form_runs_do_not_import_sympy(self, subcommand, tmp_path):
        config = {"min_poly": [0, 1],
                  "form": {"norm_field": {"min_poly": [-1, -1, 1],
                                          "basis": [[1, 0], [1, 1]]}},
                  "spectrum": {"heights": [10, 20, 40], "cap": 0.9}}
        _assert_not_imported(f"assert cli.run({subcommand!r}, "
                             f"{json.dumps(config)!r}, {str(tmp_path)!r}) == 0")

    def test_minimal_defaults(self):
        cfg = cli.parse_config(json.dumps(MINIMAL))
        assert cfg.window.H == 50 and cfg.window.E == 5
        assert [p.kind for p in cfg.places] == ["real"]
        assert cli.parse_config(Q_WITH_2).places[1].precision == 30

    def test_unknown_key_rejected(self):
        with pytest.raises(SchemaError) as err:
            cli.parse_config('{"min_poly": [0, 1], "fastmode": true}')
        assert err.value.pointer == "/"

    def test_ramified_prime_surfaced_with_pointer(self):
        with pytest.raises(SchemaError) as err:
            cli.parse_config(
                '{"min_poly": [1, 0, 1], "places": {"finite_primes": [2]}}')
        assert err.value.pointer == "/places/finite_primes/0"

    def test_reducible_poly_pointer(self):
        with pytest.raises(SchemaError) as err:
            cli.parse_config('{"min_poly": [-1, 0, 1]}')
        assert err.value.pointer == "/min_poly"

    def test_file_source(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(Q_WITH_2))
        cfg = cli.parse_config(str(path))
        assert [p.name for p in cfg.places] == ["r0", "p2_0"]


def reference_csv(header, rows):
    """The CSV of rows, written a cell at a time by the per-cell rule."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(json.dumps(str(cell)) if math.isnan(cell) or math.isinf(cell)
                             else f"{cell:.17g}")
            elif isinstance(cell, (int, Fraction)):
                cells.append(str(cell))
            else:
                text = str(cell)
                if "," in text or '"' in text:
                    text = '"' + text.replace('"', '""') + '"'
                cells.append(text)
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode("utf-8")


_CSV_CELLS = st.one_of(
    st.floats(), st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                                  -2.5e-310, 1e300, -1e300, 0.1]),
    st.integers(), st.integers(-3, 3), st.booleans(), st.fractions(),
    st.floats().map(np.float64), st.sampled_from([-0.0, 0.0, math.nan]).map(np.float64),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.text(alphabet='ab,"0 -.', max_size=5))


@st.composite
def csv_tables(draw):
    """A header and its columns, each drawn from a few distinct cells so
    that cells repeat within a column, as in a heat map."""
    width, count = draw(st.integers(1, 4)), draw(st.integers(0, 12))
    columns = []
    for _ in range(width):
        pool = draw(st.lists(_CSV_CELLS, min_size=1, max_size=4))
        columns.append(draw(st.lists(st.sampled_from(pool), min_size=count,
                                     max_size=count)))
    return tuple(f"c{i}" for i in range(width)), columns


class TestEmitReport:
    def test_json_is_byte_stable(self):
        data = {"b": 1.0 / 3.0, "a": [1, 2.5, "x"], "c": None}
        assert cli.emit_report(data) == cli.emit_report(data)
        assert cli.emit_report(data).startswith(b'{"a":')

    def test_float_formatting(self):
        out = cli.emit_report({"x": 0.1}).decode()
        assert "0.10000000000000001" in out

    def test_empty_spectrum_header_only(self):
        out = cli.emit_report((("magnitude", "count", "witness"), []), "csv")
        assert out == b"magnitude,count,witness\n"

    def test_csv_quoting(self):
        out = cli.emit_report((("a",), [("x,y",)]), "csv")
        assert out == b'a\n"x,y"\n'

    @settings(max_examples=300, deadline=None)
    @given(csv_tables())
    @example((("a", "b"), [[], []]))
    @example((("a", "b"), [[0.0, -0.0, 0.0, -0.0], [-0.0, 0, False, Fraction(0)]]))
    def test_csv_matches_the_cell_by_cell_rule(self, table):
        header, columns = table
        rows = list(zip(*columns))
        want = reference_csv(header, rows)
        assert cli.emit_report((header, columns), "csv") == want
        # no rows, given as zip(*rows) gives them, is the header alone
        assert cli.emit_report((header, list(zip(*rows))), "csv") == want



class TestRun:
    def test_field_info(self, tmp_path):
        code = cli.main(["--config", json.dumps(Q_WITH_2),
                         "--out", str(tmp_path), "field-info"])
        assert code == 0
        data = json.loads((tmp_path / "field-info.json").read_text())
        assert data["unit_rank"] == 1
        assert data["unit_generators"] == [["2"]]

    def test_field_info_unit_rank_is_dirichlets(self, tmp_path):
        # supplied generators 2 and 4 span rank 1 over S = {inf, 2}
        config = dict(Q_WITH_2, s_units=[[2], [4]])
        code = cli.main(["--config", json.dumps(config),
                         "--out", str(tmp_path), "field-info"])
        assert code == 0
        data = json.loads((tmp_path / "field-info.json").read_text())
        assert data["unit_rank"] == 1
        assert data["unit_generators"] == [["2"], ["4"]]
        assert [v.get("precision") for v in data["places"]] == [None, 30]

    def test_orbit_survey_identity_exit_zero(self, tmp_path):
        # the identity however it is spelled; a file's former label key,
        # like every key but "matrices", is ignored
        eye = [["1", "0"], ["0", "1"]]
        specs = ["identity", "rational:1,0;0,1"]
        for k, extra in enumerate(({}, {"provenance": "explicit"})):
            path = tmp_path / f"point{k}.json"
            path.write_text(json.dumps(dict(extra, matrices=[eye, eye])))
            specs.append(f"file:{path}")
        outs = []
        for k, spec in enumerate(specs):
            out = tmp_path / str(k)
            code = cli.main([
                "--config", json.dumps(Q_WITH_2), "--out", str(out),
                "orbit-survey", "--point", spec,
                "--grid", "0:6:7,-4:4", "--height", "15", "--denom", "4"])
            assert code == 0
            verdict = json.loads((out / "orbit-survey.json").read_text())
            assert verdict.pop("point") == spec
            assert verdict["consistent"] is True
            assert verdict["prediction"] == "non-divergent"
            outs.append((verdict, (out / "heatmap.csv").read_bytes()))
        assert all(o == outs[0] for o in outs)
        heat = outs[0][1].decode().splitlines()
        assert heat[0] == "s,k,min_content,min_supnorm,witness"
        assert len(heat) == 1 + 7 * 9

    def test_orbit_survey_corrupted_expectation_exits_two(self, tmp_path):
        config = dict(Q_WITH_2)
        config["orbit_survey"] = {
            "expect": {"r0+,p2_0+": "diverging-trend"}}   # actually bounded
        code = cli.main([
            "--config", json.dumps(config), "--out", str(tmp_path),
            "orbit-survey", "--point", "identity",
            "--grid", "0:6:7,-4:4", "--height", "15", "--denom", "4"])
        assert code == 2
        verdict = json.loads((tmp_path / "orbit-survey.json").read_text())
        assert not verdict["consistent"]

    def test_form_reconstruct_rejects_sqrt2_ratio(self, tmp_path):
        config = {
            "min_poly": [0, 1],
            "form": {"factors": [[1, 0],
                                 [{"a": 0, "b": 1, "d": 2}, -1]]},
        }
        code = cli.main(["--config", json.dumps(config),
                         "--out", str(tmp_path), "form-reconstruct"])
        assert code == 0
        data = json.loads((tmp_path / "form-reconstruct.json").read_text())
        assert data["status"] == "no-rational-reconstruction"

    def test_form_reconstruct_rejects_a_near_rational_surd(self, tmp_path):
        # x((1 + 10^-45 sqrt2) x - y): -1 / (1 + 10^-45 sqrt2) is an
        # irrational surd within 10^-44 of -1, which a 50-digit continued
        # fraction took for -1
        config = {"min_poly": [0, 1],
                  "form": {"factors": [[1, 0],
                                       [{"a": 1, "b": "1e-45", "d": 2}, -1]]}}
        assert cli.main(["--config", json.dumps(config),
                         "--out", str(tmp_path), "form-reconstruct"]) == 0
        assert json.loads((tmp_path / "form-reconstruct.json").read_text()) == {
            "evidence": "coefficient 1 at r0 has no bounded-denominator ratio "
                        "to the pivot",
            "status": "no-rational-reconstruction"}

    def test_form_reconstruct_over_a_finite_place(self, tmp_path):
        config = {"min_poly": [0, 1], "places": {"finite_primes": [2]},
                  "form": {"places": ["r0", "p2_0"],
                           "factors": [[2, 0], [3, -2]]}}
        assert cli.main(["--config", json.dumps(config),
                         "--out", str(tmp_path), "form-reconstruct"]) == 0
        assert json.loads((tmp_path / "form-reconstruct.json").read_text()) == {
            "alpha": [2, 2], "evidence": "", "g": [3, -2, 0],
            "monomials": ["x1^2", "x1^1x2^1", "x2^2"], "status": "reconstructed"}

    def test_form_spectrum_of_a_builtin_probe(self, tmp_path):
        config = {"min_poly": [0, 1], "form": {"builtin": "dependent-factors"},
                  "spectrum": {"heights": [5, 10, 30], "cap": 5.0}}
        assert cli.main(["--config", json.dumps(config),
                         "--out", str(tmp_path), "form-spectrum"]) == 0
        data = json.loads((tmp_path / "form-spectrum.json").read_text())
        assert data["verdict"] == "discrete-trend"
        assert data["min_nonzero"] == 0.38196601125010515      # 2 - phi
        assert data["zero_count"] == 30

    def test_unknown_builtin_probe_is_an_error_line(self, tmp_path, capsys):
        config = {"min_poly": [0, 1], "form": {"builtin": "nope"},
                  "spectrum": {"heights": [5]}}
        assert cli.main(["--config", json.dumps(config),
                         "--out", str(tmp_path), "form-spectrum"]) == 1
        assert capsys.readouterr().err == (
            "error: /form/builtin: unknown probe 'nope'; "
            "have ['dependent-factors', 'indecomposable']\n")

    def test_form_spectrum_with_factors_per_place(self, tmp_path):
        config = {"min_poly": [0, 1], "places": {"finite_primes": [3]},
                  "form": {"factors_per_place": [[[1, 0], [1, -1]],
                                                 [[1, 0], [1, -1]]]},
                  "spectrum": {"heights": [4], "denominator_exponent": 1}}
        assert cli.main(["--config", json.dumps(config),
                         "--out", str(tmp_path), "form-spectrum"]) == 0
        data = json.loads((tmp_path / "form-spectrum.json").read_text())
        assert (data["distinct"], data["zero_count"]) == (11, 14)

    def test_survey_anomaly_exits_2(self, tmp_path, monkeypatch):
        # plant a misclassification at the rational identity point
        monkeypatch.setattr(dy, "classify_ray", lambda rep: "diverging-trend")
        config = dict(Q_WITH_2, window={"H": 4, "E": 1},
                      orbit_survey={"steps": 10})
        assert cli.main(["--config", json.dumps(config),
                         "--out", str(tmp_path), "orbit-survey"]) == 2
        data = json.loads((tmp_path / "orbit-survey.json").read_text())
        assert data["anomalies"] == [
            "no bounded-below ray found; a full-S orbit is never divergent"]
        assert data["consistent"] is False

    def test_form_spectrum_anomaly_exits_2(self, tmp_path, monkeypatch):
        # plant a reconstruction of x(sqrt2 x - y), which accumulates
        monkeypatch.setattr(fm, "rationality_reconstruct", lambda form:
                            fm.ReconstructionResult("reconstructed", g=(1, -1, 0)))
        config = {"min_poly": [0, 1],
                  "form": {"factors": [[1, 0], [{"a": 0, "b": 1, "d": 2}, -1]]},
                  "spectrum": {"heights": [10, 100, 1000], "cap": 0.9}}
        assert cli.main(["--config", json.dumps(config),
                         "--out", str(tmp_path), "form-spectrum"]) == 2
        data = json.loads((tmp_path / "form-spectrum.json").read_text())
        assert data["verdict"] == "accumulation-detected"
        assert data["anomalies"] == [
            "form reconstructs to a rational multiple of (1, -1, 0) yet shows accumulation"]

    @pytest.mark.parametrize("spectrum, message", [
        ({"heights": [10]}, "window size 441 exceeds cap 50"),
        ({"heights": [10], "cap": 1e9}, "capped scan of 220 points exceeds cap 50"),
        # the capped scan at H = 8 fits, the report's uncapped first window not
        ({"heights": [6, 7, 8], "cap": 0.9}, "window size 169 exceeds cap 50")])
    def test_form_spectrum_keeps_the_window_cap(self, tmp_path, capsys, spectrum,
                                                message):
        config = {"min_poly": [0, 1], "window": {"cap": 50},
                  "form": {"factors": [[1, 0], [{"a": 0, "b": 1, "d": 2}, -1]]},
                  "spectrum": spectrum}
        assert cli.main(["--config", json.dumps(config),
                         "--out", str(tmp_path), "form-spectrum"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_form_spectrum_writes_nothing_when_a_window_fails(self, tmp_path):
        # the report's scan of H = 8 serves the spectrum, so the spectrum
        # is not written when the report's first window (169 points) fails
        config = {"min_poly": [0, 1], "window": {"cap": 50},
                  "form": {"factors": [[1, 0], [{"a": 0, "b": 1, "d": 2}, -1]]},
                  "spectrum": {"heights": [6, 7, 8], "cap": 0.9}}
        assert cli.main(["--config", json.dumps(config),
                         "--out", str(tmp_path / "out"), "form-spectrum"]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("second", [["9", "-7/9"], ["9/7", "-1/9"]])
    def test_rational_controls_are_discrete(self, tmp_path, second):
        config = {"min_poly": [0, 1], "form": {"factors": [[1, 0], second]},
                  "spectrum": {"heights": [10, 100, 1000], "cap": 0.9}}
        assert cli.main(["--config", json.dumps(config),
                         "--out", str(tmp_path), "form-spectrum"]) == 0
        data = json.loads((tmp_path / "form-spectrum.json").read_text())
        assert data["verdict"] == "discrete-trend"
        assert "anomalies" not in data

    def test_norm_form(self, tmp_path):
        config = {"min_poly": [0, 1],
                  "form": {"norm_field": {"min_poly": [-2, 0, 1]}}}
        code = cli.main(["--config", json.dumps(config),
                         "--out", str(tmp_path), "norm-form"])
        assert code == 0
        data = json.loads((tmp_path / "norm-form.json").read_text())
        assert data["coefficients"] == ["1", "0", "-2"]

    def test_littlewood(self, tmp_path):
        config = {"min_poly": [0, 1],
                  "littlewood": {"alpha": "1/2", "beta": "0.3", "N": 10}}
        code = cli.main(["--config", json.dumps(config),
                         "--out", str(tmp_path), "littlewood"])
        assert code == 0
        data = json.loads((tmp_path / "littlewood.json").read_text())
        assert data["minimum"] == 0.0 and data["argmin"] == 2

    def test_expanding(self, tmp_path):
        config = {"min_poly": [0, 1],
                  "expanding": {"positions": [[1, 2]], "tau": 2,
                                "place": "r0"}}
        code = cli.main(["--config", json.dumps(config),
                         "--out", str(tmp_path), "expanding"])
        assert code == 0
        data = json.loads((tmp_path / "expanding.json").read_text())
        assert data["entries"] == ["2", "1/2"]

    def test_systole_sweep_csv(self, tmp_path):
        config = {"min_poly": [0, 1], "window": {"H": 10},
                  "systole": {"diagonal_flow": {"values": [0, 1, 2]}}}
        code = cli.main(["--config", json.dumps(config),
                         "--out", str(tmp_path), "systole"])
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "param,min_content,min_supnorm,witness"
        assert len(lines) == 4

    def test_error_exit_code(self, tmp_path, capsys):
        code = cli.main(["--config", '{"min_poly": [0, 1], "bogus": 1}',
                         "--out", str(tmp_path), "field-info"])
        assert code == 1
        assert "bogus" in capsys.readouterr().err

    def test_non_unimodular_matrix_is_an_error_line(self, tmp_path, capsys):
        config = dict(Q_WITH_2, systole={"matrices": [[[2, 0], [0, 1]],
                                                      [[1, 0], [0, 1]]]})
        code = cli.main(["--config", json.dumps(config),
                         "--out", str(tmp_path), "systole"])
        assert code == 1
        assert capsys.readouterr().err == "error: det at r0 is 2, not 1\n"

    def test_irrational_finite_place_entry_is_an_error_line(self, tmp_path,
                                                            capsys):
        config = {"min_poly": [0, 1], "places": {"finite_primes": [7]},
                  "window": {"H": 2},
                  "systole": {"n": 2, "matrices": [
                      [[1, 0], [0, 1]],
                      [[{"a": 0, "b": 1, "d": 2}, 0],
                       [0, {"a": 0, "b": 0.5, "d": 2}]]]}}
        code = cli.main(["--config", json.dumps(config),
                         "--out", str(tmp_path), "systole"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: finite-place entry QuadraticSurd(0 + 1*sqrt(2)) at p7_0 "
            "is not an exact element of K\n")

    def test_non_integral_norm_form_is_an_error_line(self, tmp_path, capsys):
        config = {"min_poly": [0, 1],
                  "form": {"norm_field": {"min_poly": [-2, 0, 1],
                                          "basis": [["1/2", "1/2"], [0, 1]]}}}
        code = cli.main(["--config", json.dumps(config),
                         "--out", str(tmp_path), "norm-form"])
        assert code == 1
        assert capsys.readouterr().err == \
            "error: norm form expansion is not integral\n"

    @pytest.mark.parametrize("grid", [[], ["--grid=-800:800:3,-2:2"]])
    def test_overflowing_ray_parameter_is_an_error_line(self, tmp_path, capsys,
                                                        grid):
        # the staircase rays balance ln 401 at the real place: 12 * 10 *
        # ln 401 is about 719, and e^719 overflows float64
        config = {"min_poly": [0, 1],
                  "places": {"archimedean": "all", "finite_primes": [401]},
                  "window": {"H": 3, "E": 1}}
        code = cli.main(["--config", json.dumps(config),
                         "--out", str(tmp_path), "orbit-survey"] + grid)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ray parameter ") and " at r0 " in err
        assert err.count("\n") == 1

    def test_finite_ray_parameter_beyond_int64_is_an_error_line(self, tmp_path,
                                                                capsys):
        big = 99999999999999999999
        code = cli.main(["--config", json.dumps(dict(Q_WITH_2, window={"H": 2, "E": 1})),
                         "--out", str(tmp_path), "orbit-survey",
                         f"--grid=0:1:2,{big}:{big}"])
        assert code == 1
        assert capsys.readouterr().err == \
            f"error: ray parameter {big} at p2_0 moves a norm over 2097152 bits\n"

    # json.dumps writes math.inf as Infinity, which json.loads and the
    # schema's number accept
    @pytest.mark.parametrize("command, block, value", [
        ("systole", "systole", 800), ("mahler", "mahler", -800),
        ("systole", "systole", math.inf), ("mahler", "mahler", -math.inf)])
    def test_overflowing_diagonal_flow_is_an_error_line(self, tmp_path, capsys,
                                                        command, block, value):
        config = {"min_poly": [0, 1], "window": {"H": 2, "E": 0},
                  block: {"diagonal_flow": {"values": [value]}}}
        if block == "mahler":
            config[block]["radius"] = 0.5
        code = cli.main(["--config", json.dumps(config),
                         "--out", str(tmp_path), command])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: ray parameter {float(value)!r} at r0 overflows float64 "
            "in its diagonal entries\n")

    @pytest.mark.parametrize("command, config, line", [
        ("systole", {"systole": {"matrices": [[["x", 0], [0, 1]]]}},
         "/systole/matrices/0/0/0: Invalid literal for Fraction: 'x'"),
        ("systole", {"systole": {"matrices": [5]}},
         "/systole/matrices/0: 5 is not of type 'array'"),
        ("form-reconstruct",
         {"form": {"factors": [[1, 0], [{"a": 1, "b": 1, "d": -3}, 1]]}},
         "/form/factors/1/0: radicand must be positive"),
        ("littlewood", {"littlewood": {"alpha": "x", "beta": 1, "N": 10}},
         "/littlewood/alpha: Invalid literal for Fraction: 'x'"),
        ("littlewood", {"littlewood": {"alpha": [1], "beta": 1, "N": 10}},
         "/littlewood/alpha: cannot parse coefficient [1]"),
        ("field-info", {"places": {"finite_primes": [4]}},
         "/places/finite_primes/0: 4 is not prime"),
        ("expanding", {"expanding": {"positions": [[1, 1]], "tau": 2, "place": "r0"}},
         "/expanding/positions: bad position (1, 1)"),
        ("expanding", {"expanding": {"positions": [], "tau": 2, "place": "r0"}},
         "/expanding/positions: need at least one position"),
        ("field-info", {"s_units": ["x"]}, "/s_units/0: 'x' is not of type 'array'"),
        ("field-info", {"s_units": [[1, 2]]}, "/s_units: too many coordinates"),
        ("norm-form", {"form": {"norm_field": {"min_poly": [-2, 0, 1],
                                               "basis": [["x", 0], [0, 1]]}}},
         "/form/norm_field: Invalid literal for Fraction: 'x'"),
        ("form-spectrum", {"form": {"factors": [[1, 0], [0, 1]]},
                           "spectrum": {"heights": [0]}},
         "/spectrum/heights/0: 0 is less than the minimum of 1"),
    ])
    def test_malformed_config_value_is_an_error_line(self, tmp_path, capsys,
                                                     command, config, line):
        code = cli.main(["--config", json.dumps(dict(MINIMAL, **config)),
                         "--out", str(tmp_path), command])
        assert code == 1
        assert capsys.readouterr().err == f"error: {line}\n"

    @pytest.mark.parametrize("flags, line", [
        (["--grid", "0:1:0"], "/orbit_survey/grid: want finite s bounds and a step"),
        (["--grid", "0:inf:3"], "/orbit_survey/grid: want finite s bounds and a step"),
        (["--grid", "a:1:3"],
         "/orbit_survey/grid: could not convert string to float: 'a'"),
        (["--point", "rational:1,x;0,1"],
         "/orbit_survey/point: Invalid literal for Fraction: 'x'"),
        (["--point", "file:{missing}"],
         "/orbit_survey/point: [Errno 2] No such file or directory: '{missing}'"),
        (["--places", "x"],
         "/places/finite_primes: invalid literal for int() with base 10: 'x'"),
        (["--field", "x"], "/min_poly: invalid literal for int() with base 10: 'x'"),
        (["--height", "0"], "/window/H: 0 is less than the minimum of 1"),
        (["--grid=0:1:3,5:1"],
         "/orbit_survey/grid: want k_min <= k_max <= k_min + 8388608"),
        (["--grid=0:1:2,0:99999999999999999999"],
         "/orbit_survey/grid: want k_min <= k_max <= k_min + 8388608"),
        (["--point", "file:{pair}"],
         "/orbit_survey/point: matrix count does not match S"),
        (["--point", "eye"], "/orbit_survey/point: cannot parse point 'eye'"),
    ])
    def test_bad_survey_flag_is_an_error_line(self, tmp_path, capsys, flags, line):
        missing = str(tmp_path / "missing.json")
        pair = tmp_path / "pair.json"          # two matrices for S = {r0}
        pair.write_text(json.dumps({"matrices": [[[1, 0], [0, 1]]] * 2}))
        code = cli.main(["--config", json.dumps(dict(MINIMAL, window={"H": 2, "E": 1})),
                         "--out", str(tmp_path), "orbit-survey"]
                        + [f.format(missing=missing, pair=pair) for f in flags])
        assert code == 1
        assert capsys.readouterr().err == f"error: {line.format(missing=missing)}\n"
        assert not (tmp_path / "orbit-survey.json").exists()

    @pytest.mark.parametrize("blob, line", [
        ({"point": [[[1, 0], [0, 1]]]}, "/: 'matrices' is a required property"),
        ([[[[1, 0], [0, 1]]]], "/: [[[[1, 0], [0, 1]]]] is not of type 'object'"),
        ({"matrices": [5]}, "/matrices/0: 5 is not of type 'array'"),
        ({"matrices": [[["x", 0], [0, 1]]]},
         "/matrices/0/0/0: Invalid literal for Fraction: 'x'"),
        ({"matrices": [[[{"a": 1, "b": 1, "d": -3}, 0], [0, 1]]]},
         "/matrices/0/0/0: radicand must be positive"),
    ])
    def test_file_point_is_read_as_config_matrices(self, tmp_path, capsys, blob, line):
        # the file's own pointer follows the config key that names it
        path = tmp_path / "point.json"
        path.write_text(json.dumps(blob))
        code = cli.main(["--config", json.dumps(dict(MINIMAL, window={"H": 2, "E": 1})),
                         "--out", str(tmp_path), "orbit-survey", "--point", f"file:{path}"])
        assert code == 1
        assert capsys.readouterr().err == f"error: /orbit_survey/point: {line}\n"
        assert not (tmp_path / "orbit-survey.json").exists()

    def test_file_point_round_trip_of_a_surd_entry(self, tmp_path):
        # a point off K: to_jsonable writes sqrt2 as its {"a", "b", "d"}
        # spec, and the CLI's survey of the file is the library's, with no
        # prediction and no anomaly
        cfg = cli.parse_config(dict(MINIMAL, window={"H": 6, "E": 0}))
        s2 = QuadraticSurd.sqrt(2)
        x = lt.SLattice(cfg.field, cfg.places, 2, [[[1, s2], [0, 1]]])
        blob = x.to_jsonable()
        assert blob["matrices"] == [[["1", {"a": "0", "b": "1", "d": 2}], ["0", "1"]]]
        path = tmp_path / "point.json"
        path.write_text(json.dumps(blob))
        code = cli.main(["--config", json.dumps(cfg.raw), "--out", str(tmp_path),
                         "orbit-survey", "--point", f"file:{path}", "--grid=0:4:5"])
        assert code == 0
        verdict = json.loads((tmp_path / "orbit-survey.json").read_text())
        assert verdict["prediction"] == "" and verdict["anomalies"] == []
        assert verdict["consistent"] is True
        survey = dy.divergence_survey(x, cfg.places, cfg.window, heat_s=[0, 1, 2, 3, 4])
        assert verdict["classifications"] == survey.classifications()
        assert (tmp_path / "heatmap.csv").read_bytes() == cli.emit_report(
            (list(survey.heat), list(survey.heat.values())), "csv")

    @pytest.mark.parametrize("grid, cells", [("0:1:101,0:0", 101),
                                             ("0:1:26,0:3", 104),
                                             ("0:1:5", 125)])   # 25 k values
    def test_grid_beyond_the_window_cap_is_an_error_line(self, tmp_path, capsys,
                                                         grid, cells):
        # the cap bounds the heat map's cells as it bounds the window
        config = dict(Q_WITH_2, window={"H": 2, "E": 1, "cap": 100})
        code = cli.main(["--config", json.dumps(config),
                         "--out", str(tmp_path), "orbit-survey", f"--grid={grid}"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: /orbit_survey/grid: grid of {cells} cells exceeds the "
            "window cap 100\n")
        assert not (tmp_path / "orbit-survey.json").exists()
        assert cli.main(["--config", json.dumps(config), "--out", str(tmp_path),
                         "orbit-survey", "--grid=0:1:25,0:3"]) == 0

    @pytest.mark.parametrize("active, grid", [("r0", "0:8:30,0:3"),
                                              ("p2_0", "0:1:10000000000000,0:3")])
    def test_grid_counts_the_cells_of_the_active_places(self, tmp_path,
                                                        active, grid):
        # s moves only r0 and k only p2_0: each survey has 30 or 4 cells
        config = dict(Q_WITH_2, window={"H": 2, "E": 1, "cap": 100})
        assert cli.main(["--config", json.dumps(config), "--out", str(tmp_path),
                         "orbit-survey", f"--active-places={active}",
                         f"--grid={grid}"]) == 0
        with open(tmp_path / "heatmap.csv") as fh:
            assert len(fh.read().splitlines()) == 1 + (30 if active == "r0" else 4)

    def test_grid_is_checked_before_its_values_are_built(self):
        places = cli.parse_config(Q_WITH_2).places
        with pytest.raises(SchemaError, match="grid of 1000000000000 cells"):
            cli._parse_grid("0:1:1000000000000", places[:1], 10 ** 8)

    @pytest.mark.parametrize("grid, active, cells", [("0:1:1000001", slice(0, 1), 1000001),
                                                     ("0:1:40001,0:24", slice(0, 2), 1000025)])
    def test_grid_beyond_the_cell_bound_is_rejected(self, grid, active, cells):
        # below the window cap, above the heat map's own bound: checked on
        # the counts alone, before any list is built
        places = cli.parse_config(Q_WITH_2).places[active]
        with pytest.raises(SchemaError, match=f"^/orbit_survey/grid: grid of {cells} cells "
                                              f"exceeds the bound of {cli.GRID_CELLS} cells$"):
            cli._parse_grid(grid, places, 10 ** 8)
        # a grid at the bound parses
        s, k = cli._parse_grid("0:1:40000,0:24", cli.parse_config(Q_WITH_2).places, 10 ** 8)
        assert len(s) * len(k) == cli.GRID_CELLS

    def test_missing_config_file_is_an_error_line(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        code = cli.main(["--config", missing, "--out", str(tmp_path), "orbit-survey"])
        assert code == 1
        assert capsys.readouterr().err == \
            f"error: /: [Errno 2] No such file or directory: '{missing}'\n"

    def test_largest_ray_parameter_in_range_runs(self, tmp_path):
        # 12 * 10 * ln 367 is about 708.6, below ln(max float64), about 709.8.
        # From step 11 on two stair rays' contents lie below the float64
        # range, and every stair witness still attains the window minimum.
        config = {"min_poly": [0, 1],
                  "places": {"archimedean": "all", "finite_primes": [367]},
                  "window": {"H": 3, "E": 1}}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.run("orbit-survey", config, str(tmp_path)) == 0
            cfg = cli.parse_config(config)
            x = lt.SLattice.identity(cfg.field, cfg.places, 2)
            survey = dy.divergence_survey(x, cfg.places, cfg.window, steps=20)
        cloud = lt.PointCloud(x, cfg.window)
        points = {cloud.format_point(i): cloud.point(i) for i in range(cloud.count)}

        def exact_content(z, params):
            # the identity point moved by diag(e^s, e^-s), diag(367^k, 367^-k)
            (s, k), coords = params, [e.coords[0] for e in z]
            arch = [mpf(c.numerator) / c.denominator * mp.exp(mpf(s) * d)
                    for c, d in zip(coords, (1, -1))]
            fin = [c * Fraction(367) ** (k * d) for c, d in zip(coords, (1, -1))]
            return sd.content(sd.SAdicVector(cfg.places, [arch, fin]), 50)

        rays = dict(dy.default_ray_catalog(cfg.places, steps=20))
        stairs = [r for r in survey.rays if r.name.startswith("stair:")]
        assert len(stairs) == 4
        with mp.workdps(50):
            for ray in stairs:
                schedule = dy.RaySchedule(cfg.places, [(1, -1)] * 2, rays[ray.name])
                rows = dy.trajectory(x, schedule, cfg.window)
                assert tuple(row.min_content for row in rows) == ray.contents
                for step, row in list(zip(zip(*rays[ray.name]), rows))[11:]:
                    contents = {text: exact_content(z, step)
                                for text, z in points.items()}
                    least = min(contents.values())
                    assert contents[row.content_witness] <= least * (1 + mpf("1e-12"))

    def test_heat_map_cell_beyond_float_range_of_a_factor(self, tmp_path):
        # e^700 2^-1200 is a normal float, though 2^-1200 is not
        code = cli.main(["--config", json.dumps(dict(Q_WITH_2, window={"H": 2, "E": 1})),
                         "--out", str(tmp_path), "orbit-survey",
                         "--grid=-700:700:3,-1200:-1200"])
        assert code == 0
        first = (tmp_path / "heatmap.csv").read_text().splitlines()[1]
        content = math.ldexp(math.exp(700), -1200)
        assert first.startswith(f"-700,-1200,{content:.17g},")
        assert first.startswith("-700,-1200,5.8903694562812292e-58,")
        assert first.endswith(',"(0, 1)"')

    def test_form_spectrum_square_radicand_spellings_agree(self, tmp_path):
        # {"b": 1} is 1*sqrt(1) = 1: both spellings are x (x + sqrt2 y)
        outputs = []
        for second in ([{"b": 1}, {"b": 1, "d": 2}], [1, {"b": 1, "d": 2}]):
            out = tmp_path / str(len(outputs))
            config = {"min_poly": [0, 1], "form": {"factors": [[1, 0], second]},
                      "spectrum": {"heights": [10, 20, 40], "cap": 0.9}}
            assert cli.run("form-spectrum", config, str(out)) == 0
            outputs.append({name: (out / name).read_bytes()
                            for name in ("spectrum.csv", "form-spectrum.json")})
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0]["form-spectrum.json"])["distinct"] > 0

    def test_form_spectrum_scans_the_first_and_largest_height(self, tmp_path,
                                                              monkeypatch):
        seen = []
        scan = fm._scan

        def recording(form, window, magnitude_cap, *plan):
            seen.append(window.H)
            return scan(form, window, magnitude_cap, *plan)

        monkeypatch.setattr(fm, "_scan", recording)
        config = {"min_poly": [0, 1],
                  "form": {"factors": [[1, 0], [{"b": 1, "d": 2}, -1]]},
                  "spectrum": {"heights": [10, 20, 40], "cap": 0.9}}
        assert cli.main(["--config", json.dumps(config),
                         "--out", str(tmp_path), "form-spectrum"]) == 0
        # one scan of the largest height finds m and serves the CLI's
        # spectrum and every window of the report
        assert seen == [40]

    def test_form_spectrum_expands_the_factors_for_the_strips_once(
            self, tmp_path, monkeypatch):
        calls = []
        expand = fm.DecomposableForm._expand

        def recording(form, factor_rows):
            calls.append(factor_rows)
            return expand(form, factor_rows)

        monkeypatch.setattr(fm.DecomposableForm, "_expand", recording)
        config = {"min_poly": [0, 1],
                  "form": {"factors": [[1, 0], [{"b": 1, "d": 2}, -1]]},
                  "spectrum": {"heights": [10, 20, 40], "cap": 0.9}}
        assert cli.main(["--config", json.dumps(config),
                         "--out", str(tmp_path), "form-spectrum"]) == 0
        # at most once per place as the form is built and once for the
        # strips, which each scan's plan reads
        assert len(calls) <= 2

    @pytest.mark.parametrize("heights", [[10, 1000, 1000], [1000, 1000, 1000]])
    def test_form_spectrum_repeated_heights_are_an_error_line(self, tmp_path,
                                                              capsys, heights):
        config = {"min_poly": [0, 1],
                  "form": {"factors": [[1, 0], [{"b": 1, "d": 2}, -1]]},
                  "spectrum": {"heights": heights, "cap": 0.9}}
        assert cli.main(["--config", json.dumps(config),
                         "--out", str(tmp_path), "form-spectrum"]) == 1
        assert capsys.readouterr().err == \
            f"error: need at least three distinct heights, got {heights}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["--config", "{}", "orbit-survey", "--height", "abc"],
        ["--config", "{}", "no-such-command"],
        ["field-info"],
        ["--config", "{}", "--precision", "80", "field-info"],
    ], ids=["bad-int", "unknown-subcommand", "no-config", "precision-flag"])
    def test_usage_errors_exit_1(self, tmp_path, capsys, argv):
        # 2 is the anomaly's exit code, so a usage error must not take it
        with pytest.raises(SystemExit) as info:
            cli.main(["--out", str(tmp_path)] + argv)
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: sadiclab") and ": error: " in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", [["--precision", "80"], ["--precision=80"]])
    def test_unknown_flag_before_the_subcommand_is_named(self, tmp_path, capsys,
                                                         flag):
        # argparse alone reads "80" as the subcommand: invalid choice: '80'
        with pytest.raises(SystemExit) as info:
            cli.main(["--out", str(tmp_path), "--config", "{}", *flag,
                      "form-spectrum"])
        assert info.value.code == 1
        assert capsys.readouterr().err.endswith(
            f"sadiclab: error: unrecognized arguments: {flag[0]}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("config, csv_sha256, json_sha256", [
        # x (sqrt2 x - y) without a cap: the H = 30 scan, in height-shell
        # order, and the report, whose first window is uncapped too
        ({"min_poly": [0, 1],
          "form": {"factors": [[1, 0], [{"b": 1, "d": 2}, -1]]},
          "spectrum": {"heights": [5, 10, 30]}},
         "7c0cc4036e4aa39ec6f57de73e2eda9b7e5418ba0d112fda0eb5563e297ffcb8",
         "4c0d11f7d64f429c2e6d266ea78fe9a8419e3fdba40a6962229455d2f1979345"),
        # the norm form of Q(2^(1/3)), n = 3, without a cap
        ({"min_poly": [0, 1],
          "form": {"norm_field": {"min_poly": [-2, 0, 0, 1]}},
          "spectrum": {"heights": [4]}},
         "067c687519ce610464a0b4413476299d8902ff2c544dfeff81d2d3864c693f78",
         "d435e76cda7a135eff89248dc166626002c0b3cf24d08e1256878a8b226b05f8"),
    ])
    def test_uncapped_form_spectrum_golden_artifacts(self, tmp_path, config,
                                                     csv_sha256, json_sha256):
        # pinned from the per-point evaluation that the integer refine
        # replaced; the witnesses lock the height-shell scan order
        assert cli.run("form-spectrum", config, str(tmp_path)) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("spectrum.csv", "form-spectrum.json")}
        assert digests == {"spectrum.csv": csv_sha256,
                           "form-spectrum.json": json_sha256}

    @pytest.mark.parametrize("H, E, heatmap_sha256", [
        (24, 4, "0be9c353e89dccb0834043136ceb0e03b1c238164db6fa34bc13fa60d4315347"),
        (32, 6, "1823859c84f64ff6086c09cd6bab359d1238641a7a827aed6d8a4c0aaf1b473d"),
    ])
    def test_orbit_survey_golden_artifacts(self, tmp_path, H, E, heatmap_sha256):
        # Digests of the artifacts written by the point-by-point evaluation
        # that the schedule kernel replaced.
        config = dict(Q_WITH_2, window={"H": H, "E": E},
                      orbit_survey={"point": "identity", "steps": 20})
        assert cli.run("orbit-survey", config, str(tmp_path)) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("heatmap.csv", "orbit-survey.json")}
        assert digests == {
            "heatmap.csv": heatmap_sha256,
            "orbit-survey.json":
                "fe78e6e0867c99e75f40c133e2503e46d5ebb76791dbd4f00fc5f87b6b1fdcef",
        }

    @pytest.mark.parametrize("window, check, golden", [
        ({"H": 2, "E": 1},
         {"radius": 0.5, "matrices": [[[4, 0], [0, "1/4"]], [["1/4", 0], [0, 4]]]},
         b'{"is_nilpotent_span":true,"kept":3,"radius":0.5,"witnesses":['
         b'{"coords":[["0"],["1"],["0"]],"sup_norm":0.0625},'
         b'{"coords":[["0"],["1/2"],["0"]],"sup_norm":0.125},'
         b'{"coords":[["0"],["2"],["0"]],"sup_norm":0.125}]}\n'),
        ({"H": 1, "E": 1}, {"radius": 3.0},
         "9a1663f050bd5cc2b24b8b1a3c899f9781d6469fb7a48bc3abb41ee2bac39c04"),
    ])
    def test_nilpotent_check_golden_artifact(self, tmp_path, window, check, golden):
        # pinned from the implementation that preceded sadiclab.linalg
        config = dict(Q_WITH_2, window=window, nilpotent_check=check)
        assert cli.run("nilpotent-check", config, str(tmp_path)) == 0
        data = (tmp_path / "nilpotent-check.json").read_bytes()
        if isinstance(golden, bytes):
            assert data == golden
        else:
            assert hashlib.sha256(data).hexdigest() == golden

    @pytest.mark.parametrize("config, sha256", [
        # n = 3 over S = {inf, 2}: 39 kept, not nilpotent
        (dict(Q_WITH_2, window={"H": 1, "E": 1},
              nilpotent_check={"n": 3, "radius": 1.5}),
         "13e99790c3894fcfea6c7ccf0f0b74c4bcafd1f3ddd4129d2e67edc7162a70bf"),
        # Q(i) over its complex place and both places above 5: 4 kept
        ({"min_poly": [1, 0, 1],
          "places": {"archimedean": "all", "finite_primes": [5]},
          "window": {"H": 1, "E": 1}, "nilpotent_check": {"radius": 1.5}},
         "d8335d30f31dcd8dfca271cdd51dc53b87674e93b11874a52a75a9d4d44b7461"),
        # a 2/3 shear over S = {inf, 3}: 1 kept
        ({"min_poly": [0, 1],
          "places": {"archimedean": "all", "finite_primes": [3]},
          "window": {"H": 2, "E": 1},
          "nilpotent_check": {"radius": 2.0,
                              "matrices": [[[1, "2/3"], [0, 1]]] * 2}},
         "8a3532c058f9afb04a8727ce93bf5d07461200584aa15f6c08f0e9a34c43295a"),
    ])
    def test_nilpotent_check_golden_artifact_per_point_loop(self, tmp_path, config,
                                                             sha256):
        # pinned from the per-point loop that the adjoint point cloud replaced
        assert cli.run("nilpotent-check", config, str(tmp_path)) == 0
        data = (tmp_path / "nilpotent-check.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == sha256

    def test_orbit_survey_long_ray_keeps_small_contents(self, tmp_path):
        # at s = +-400 the squares of the scaled coordinates leave the
        # float64 range, while the content e^-400 does not
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main([
                "--config", json.dumps(dict(MINIMAL, window={"H": 6})),
                "--out", str(tmp_path), "orbit-survey", "--grid=-400:400:3"])
        assert code == 0
        with open(tmp_path / "heatmap.csv", newline="") as fh:
            rows = {row["s"]: row for row in csv.DictReader(fh)}
        for s in ("-400", "400"):
            assert float(rows[s]["min_content"]) == pytest.approx(
                math.exp(-400), rel=1e-12, abs=0)

    def test_orbit_survey_field_and_places_flags(self, tmp_path):
        code = cli.main([
            "--config", json.dumps(MINIMAL), "--out", str(tmp_path),
            "orbit-survey", "--field", "0,1", "--places", "2",
            "--point", "identity", "--grid", "0:4:5,-3:3",
            "--height", "12", "--denom", "3"])
        assert code == 0
        verdict = json.loads((tmp_path / "orbit-survey.json").read_text())
        assert verdict["active_places"] == ["r0", "p2_0"]


# Diagonal-flow configs: (config without a block, n, values), with the
# sha256 of systole.json, sweep.csv and mahler.json (radius 0.5) as the
# float diagonal lattices of the CLI's former flow path wrote them.
FLOWS = [
    (dict(MINIMAL, window={"H": 10}), 2, [0, 1, 2],
     ("7ef81e90ff0021cdbc9062bc250364b05184ebc40f563a8977ec60315ab92b17",
      "eb8cb1cb50b9dc475dfbb720c5a27cd9dc8153c6390c3861a6c9a1414d0a0ebd",
      "3f9b01a646db62ae80d70fd34e3aa8cde595047cd5ebb35774e2c83d63dc2255")),
    (dict(Q_WITH_2, window={"H": 8, "E": 3}), 2, [-300, -1.5, 0, 0.25, 300, 700],
     ("138731d7c749dbbc9deedad043d794041f3b555e065a91b1a7995c2d370243d4",
      "93c80bfe582138cd95522b23dec7998acd4fce3f3b12ac0b9a8f2e7ecb9297d3",
      "7c5bddd9578d9f1d34ed4bf763b09649085ca6452c5ee8c599cc7b41f67ad893")),
    ({"min_poly": [1, 0, 1],
      "places": {"archimedean": "all", "finite_primes": [5]},
      "window": {"H": 2, "E": 1}}, 2, [-2, 0.5, 300, 700],
     ("7a708786357d8203cb7d8cef09399c539d992665bce4a698fd89c937e1220076",
      "a65b9e12c296e199c6d4cacda9980a14172add3bba3022a75e5735fb529faf69",
      "78fabe7934540f30dcaba2a35351e0ec01ebb7efb6cd0879b772d6e65f439720")),
    ({"min_poly": [-2, 0, 1],
      "places": {"archimedean": "all", "finite_primes": [7]},
      "window": {"H": 2, "E": 1}}, 2, [-300, -0.75, 3, 700],
     ("bb4d2cf4f1cccd007d221277d1de5d6726b239f5ed9938137bb34bb6ac14159c",
      "c3073a21f1838b8629d57eb351b6cd8de11f0c031eef12c58b2c8de7d4b7a7d1",
      "40a4f93f1a2fa45fb6c1a69af1323859f80394c37f9cf2e0d66eaa3ae5647c01")),
    (dict(Q_WITH_2, window={"H": 2, "E": 1}), 3, [-300, -1, 0.5, 300, 700],
     ("9028f0c8fea4fd74d384409bd18084915ebcebd89322a6cf63c0a6e29a43a851",
      "bc3b646c17e66df485e2862fd48e8ba44ffb1a1581b6402128db371a2bb85456",
      "4e322149e06780701b4987628173bab238099e6570909a83fecebcf860bbe5b6")),
]

# Q, S = {inf, 2}, H = 1, E = 60: at s = 708 the image e^-708 / 2^54 of
# (0, 1/2^54) is subnormal as a float, while its content and that of
# (0, 1) are e^-708, a normal float
FLOW_EDGE = dict(Q_WITH_2, window={"H": 1, "E": 60})


def _spy_on_kernel(monkeypatch):
    """The list that each `systoles_under` call, with the (steps, n) of each
    table and index or None, and each `_skyline` call are appended to."""
    calls = []
    kernel, skyline = lt.PointCloud.systoles_under, lt._skyline

    def counted(self, arch, fin):
        calls.append(("systoles_under", [None if a is None else (len(a[1]), a[0].shape[1])
                                         for a in arch + fin]))
        return kernel(self, arch, fin)
    monkeypatch.setattr(lt.PointCloud, "systoles_under", counted)
    monkeypatch.setattr(lt, "_skyline", lambda features:
                        calls.append("_skyline") or skyline(features))
    return calls


def _float_flow_lattices(cfg, values, n):
    """The flow as float lattices: diag(e^s, 1, ..., e^-s) at the first
    archimedean place and the identity elsewhere, one SLattice per s."""
    arch = next(p for p in cfg.places if p.kind != "finite")
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    lats = []
    for s in values:
        diag = [math.exp(s)] + [1.0] * (n - 2) + [math.exp(-s)]
        mats = [[[diag[i] if i == j else 0.0 for j in range(n)] for i in range(n)]
                if place is arch else eye for place in cfg.places]
        lats.append(lt.SLattice(cfg.field, cfg.places, n, mats))
    return lats


def _normal_images(lat, window):
    """Whether every nonzero archimedean image coordinate is a normal float.

    An image beyond float64, such as e^709 (1 + sqrt 2), is inf (or nan
    where inf meets 0 in the matmul) and is not normal.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        cloud = lt.PointCloud(lat, window)
    for _, W in cloud.arch:
        parts = np.abs(np.concatenate([W.real, W.imag]))
        if not np.isfinite(parts).all() or \
                (parts[parts != 0] < np.finfo(np.float64).tiny).any():
            return False
    return True


class TestDiagonalFlow:
    @pytest.mark.parametrize("base, n, values, digests", FLOWS)
    def test_flow_golden_artifacts(self, tmp_path, base, n, values, digests):
        flow = {"n": n, "diagonal_flow": {"values": values}}
        assert cli.run("systole", dict(base, systole=flow), str(tmp_path)) == 0
        assert cli.run("mahler", dict(base, mahler=dict(flow, radius=0.5)),
                       str(tmp_path)) == 0
        names = ("systole.json", "sweep.csv", "mahler.json")
        got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in names)
        assert got == digests

    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from(FLOWS),
           values=st.lists(st.floats(-709, 709) | st.sampled_from(
               [0, 1, -1, 0.5, 300, -300, 700, -700, 708, -708]),
               min_size=1, max_size=4))
    # over Q(sqrt2), the float lattice's image e^709 (1 + sqrt 2) overflows
    @example(case=FLOWS[3], values=[709.0])
    def test_flow_matches_float_lattices(self, case, values):
        base, n = case[:2]
        cfg = cli.parse_config(dict(base, window={"H": 2, "E": 1}))
        rows = cli._diagonal_flow(cfg, "systole", n, values)
        assert len(rows) == len(values)
        for row, lat in zip(rows, _float_flow_lattices(cfg, values, n)):
            if not _normal_images(lat, cfg.window):
                continue
            ref = lt.systole(lat, cfg.window)
            assert (repr(row.min_content), repr(row.min_supnorm),
                    row.content_witness, row.supnorm_witness) == \
                (repr(ref.min_content), repr(ref.min_supnorm),
                 ref.content_witness, ref.supnorm_witness)

    @pytest.mark.parametrize("command", ["systole", "mahler"])
    def test_flow_reads_one_cloud_with_one_kernel_call(self, tmp_path, monkeypatch,
                                                      command):
        calls, lattices = [], []

        def counted(name):
            method = getattr(lt.PointCloud, name)

            def wrapper(self, *args, **kwargs):
                calls.append(name)
                return method(self, *args, **kwargs)
            monkeypatch.setattr(lt.PointCloud, name, wrapper)

        for name in ("__init__", "systoles_under", "norms_under"):
            counted(name)
        init = lt.SLattice.__init__

        def slattice(self, field, places, n, g, *args, **kwargs):
            lattices.append(g)
            init(self, field, places, n, g, *args, **kwargs)
        monkeypatch.setattr(lt.SLattice, "__init__", slattice)
        base, n, values = FLOWS[1][:3]
        block = {"n": n, "diagonal_flow": {"values": values}}
        if command == "mahler":
            block["radius"] = 0.5
        assert cli.run(command, dict(base, **{command: block}), str(tmp_path)) == 0
        assert calls == ["__init__", "systoles_under"]
        # one lattice, the identity, and no float entries anywhere
        assert len(lattices) == 1
        assert all(type(c) is int for mat in lattices[0] for row in mat for c in row)

    @pytest.mark.parametrize("command, block, lattices", [
        ("systole", {"matrices": [[[2, 1], [1, 1]], [[1, 0], [0, 1]]]}, 1),
        ("mahler", {"radius": 0.5, "matrices_list": [
            [[[2, 1], [1, 1]], [[1, 0], [0, 1]]],
            [[[1, 0], [0, 1]], [[1, 1], [0, 1]]]]}, 2),
    ])
    def test_lattices_are_one_step_schedules(self, tmp_path, monkeypatch, command,
                                             block, lattices):
        calls = _spy_on_kernel(monkeypatch)
        config = dict(Q_WITH_2, window={"H": 6, "E": 2}, **{command: block})
        assert cli.run(command, config, str(tmp_path)) == 0
        # one call per lattice, which moves neither r0 nor p2_0
        assert calls == [("systoles_under", [None, None])] * lattices

    @pytest.mark.parametrize("command", ["systole", "mahler"])
    def test_flow_leaves_every_other_place_unmoved(self, tmp_path, monkeypatch,
                                                   command):
        calls = _spy_on_kernel(monkeypatch)
        base, n, values = FLOWS[1][:3]
        block = {"n": n, "diagonal_flow": {"values": values}}
        if command == "mahler":
            block["radius"] = 0.5
        assert cli.run(command, dict(base, **{command: block}), str(tmp_path)) == 0
        # multipliers at r0, the flow's place, and None at p2_0
        assert calls == [("systoles_under", [(len(values), n), None]), "_skyline"]

    def test_flow_content_at_the_float_edge(self, tmp_path):
        config = dict(FLOW_EDGE, systole={"diagonal_flow": {"values": [708]}})
        assert cli.run("systole", config, str(tmp_path)) == 0
        rows = json.loads((tmp_path / "systole.json").read_text())["rows"]
        assert math.exp(-708) == 3.3075530036384078e-308
        assert rows == [{"param": 708, "min_content": 3.3075530036384078e-308,
                         "min_supnorm": 1, "witness": "(0, 1)"}]

    def test_mahler_passes_at_the_float_edge(self, tmp_path):
        config = dict(FLOW_EDGE, mahler={"radius": 1e-310,
                                         "diagonal_flow": {"values": [708]}})
        assert cli.run("mahler", config, str(tmp_path)) == 0
        report = json.loads((tmp_path / "mahler.json").read_text())
        assert report["first_failure"] == -1
        assert report["family_precompact_at_scale"] is True
        assert report["verdicts"][0]["content_systole"] == math.exp(-708)
        assert report["verdicts"][0]["content_witness"] == "(0, 1)"

    @pytest.mark.parametrize("command, block, line", [
        ("mahler", {"radius": 1, "diagonal_flow": {"values": []}},
         "/mahler/diagonal_flow/values: need at least one lattice"),
        ("mahler", {"radius": 1, "matrices_list": []},
         "/mahler/matrices_list: need at least one lattice"),
        ("systole", {"n": 1, "diagonal_flow": {"values": [0]}},
         "/systole/n: a diagonal flow needs n >= 2"),
        ("systole", {"n": 1, "diagonal_flow": {"values": [1]}},
         "/systole/n: a diagonal flow needs n >= 2"),
        ("mahler", {"n": 1, "radius": 0.5, "diagonal_flow": {"values": [0]}},
         "/mahler/n: a diagonal flow needs n >= 2"),
    ])
    def test_flow_and_family_error_lines(self, tmp_path, capsys, command, block,
                                         line):
        code = cli.main(["--config", json.dumps(dict(MINIMAL, **{command: block})),
                         "--out", str(tmp_path), command])
        assert code == 1
        assert capsys.readouterr().err == f"error: {line}\n"

    def test_empty_systole_flow_writes_empty_rows(self, tmp_path):
        # no step, so no window is enumerated, not even one beyond the cap
        config = dict(MINIMAL, window={"H": 50, "cap": 100},
                      systole={"diagonal_flow": {"values": []}})
        assert cli.run("systole", config, str(tmp_path)) == 0
        assert (tmp_path / "systole.json").read_text() == '{"rows":[]}\n'
        assert (tmp_path / "sweep.csv").read_text().splitlines() == \
            ["param,min_content,min_supnorm,witness"]
