"""Command-line front door: config parsing, dispatch, deterministic reports.

Configs are JSON checked against the constant `CONFIG_SCHEMA` by one walk
over it, with JSON Schema's rules for the eleven keywords it uses: unknown
keys are rejected, and the one error reported carries a JSON pointer and
is the one the reference validator's `best_match` picks.  Every artifact
is emitted through one canonical writer (sorted keys, floats at 17
significant digits) so reruns are byte identical.  Exit codes: 0
success, 1 error, 2 for a verdict that contradicts the shipped
theoretical predictions -- CI can tell a bug from a mathematical
surprise.
"""

import argparse
import contextlib
import dataclasses
import json
import math
import numbers
import os
import sys
from fractions import Fraction

from . import dynamics as dy
from . import forms as fm
from . import lattice as lt
from . import numberfield as nf
from . import sadic as sd
from .errors import SadicLabError, SchemaError
from .scalars import parse_real, to_mpf

DEFAULT_PRECISION = 50
DEFAULT_H = 50
DEFAULT_E = 5
DEFAULT_HENSEL = 30

# lists of rows, and matrices given one per place; each command reads the entries
_ROWS = {"type": "array", "items": {"type": "array"}}
_MATRICES = {"type": "array", "items": _ROWS}
_FLOW = {"type": "object", "additionalProperties": False,
         "properties": {"values": {"type": "array", "items": {"type": "number"}}},
         "required": ["values"]}

_BLOCK_SCHEMAS = {
    "systole": {
        "type": "object", "additionalProperties": False,
        "properties": {
            "n": {"type": "integer", "minimum": 1},
            "diagonal_flow": _FLOW,
            "matrices": _MATRICES,
        },
    },
    "mahler": {
        "type": "object", "additionalProperties": False,
        "properties": {
            "n": {"type": "integer", "minimum": 1},
            "radius": {"type": "number", "exclusiveMinimum": 0},
            "diagonal_flow": _FLOW,
            "matrices_list": {"type": "array", "items": _MATRICES},
        },
        "required": ["radius"],
    },
    "orbit_survey": {
        "type": "object", "additionalProperties": False,
        "properties": {
            "point": {"type": "string"},
            "active_places": {"type": "array", "items": {"type": "string"}},
            "steps": {"type": "integer", "minimum": 10},
            "grid": {"type": "string"},
            "expect": {"type": "object"},
        },
    },
    "nilpotent_check": {
        "type": "object", "additionalProperties": False,
        "properties": {
            "n": {"type": "integer", "minimum": 2, "maximum": 4},
            "radius": {"type": "number", "exclusiveMinimum": 0},
            "matrices": _MATRICES,
        },
        "required": ["radius"],
    },
    "expanding": {
        "type": "object", "additionalProperties": False,
        "properties": {
            "positions": {"type": "array",
                          "items": {"type": "array", "minItems": 2,
                                    "maxItems": 2,
                                    "items": {"type": "integer"}}},
            "tau": {"type": "number", "exclusiveMinimum": 1},
            "place": {"type": "string"},
        },
        "required": ["positions", "tau", "place"],
    },
    "form": {
        "type": "object", "additionalProperties": False,
        "properties": {
            "places": {"type": "array", "items": {"type": "string"}},
            "factors": _ROWS,
            "factors_per_place": _MATRICES,
            "builtin": {"type": "string"},
            "norm_field": {
                "type": "object", "additionalProperties": False,
                "properties": {
                    "min_poly": {"type": "array",
                                 "items": {"type": "integer"}},
                    "basis": _ROWS,
                },
                "required": ["min_poly"],
            },
        },
    },
    "spectrum": {
        "type": "object", "additionalProperties": False,
        "properties": {
            "heights": {"type": "array", "items": {"type": "integer", "minimum": 1},
                        "minItems": 1},
            "cap": {"type": "number", "minimum": 0},
            "denominator_exponent": {"type": "integer", "minimum": 0},
        },
        "required": ["heights"],
    },
    "littlewood": {
        "type": "object", "additionalProperties": False,
        "properties": {
            "alpha": {}, "beta": {},
            "N": {"type": "integer", "minimum": 1, "maximum": 10 ** 9},
        },
        "required": ["alpha", "beta", "N"],
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["min_poly"],
    "properties": {
        "min_poly": {"type": "array", "items": {"type": "integer"},
                     "minItems": 2},
        "integral_basis": {"type": "array"},
        "places": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "archimedean": {"const": "all"},
                "finite_primes": {"type": "array",
                                  "items": {"type": "integer", "minimum": 2}},
            },
        },
        "s_units": _ROWS,
        "precision": {"type": "integer", "minimum": 15},
        "window": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "H": {"type": "integer", "minimum": 1},
                "E": {"type": "integer", "minimum": 0},
                "cap": {"type": "integer", "minimum": 1},
            },
        },
        "hensel_precision": {"type": "integer", "minimum": 2},
        **_BLOCK_SCHEMAS,
    },
}


# JSON Schema's types: an integral float is an integer, and a bool is
# neither an integer nor a number.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or isinstance(v, float) and v.is_integer()),
}


def _violations(value, schema, path=()):
    """Yield (path, message) for every way `value` breaks `schema`.

    Keywords are checked in schema order, with the reference Python
    validator's message texts.  As in JSON Schema, every keyword but `type`
    and `const` passes a value of a type it does not apply to, so a node
    of the wrong type (and no `const`) yields only its `type` error.  Only
    the keywords CONFIG_SCHEMA uses are handled; tests/test_cli.py keeps it
    that way and checks every error against the reference validator.
    """
    number = _TYPES["number"](value)
    obj, array = isinstance(value, dict), isinstance(value, list)
    for key, arg in schema.items():
        if key == "type" and not _TYPES[arg](value):
            yield path, f"{value!r} is not of type {arg!r}"
        elif key == "const" and value != arg:  # every const here is a string
            yield path, f"{arg!r} was expected"
        elif key == "minimum" and number and value < arg:
            yield path, f"{value!r} is less than the minimum of {arg!r}"
        elif key == "exclusiveMinimum" and number and value <= arg:
            yield path, (f"{value!r} is less than or equal to "
                         f"the minimum of {arg!r}")
        elif key == "maximum" and number and value > arg:
            yield path, f"{value!r} is greater than the maximum of {arg!r}"
        elif key == "properties" and obj:
            for name, sub in arg.items():
                if name in value:
                    yield from _violations(value[name], sub, path + (name,))
        elif key == "additionalProperties" and obj and arg is False:
            props = schema.get("properties", {})
            extras = sorted((k for k in value if k not in props), key=str)
            if extras:
                names = ", ".join(repr(k) for k in extras)
                verb = "was" if len(extras) == 1 else "were"
                yield path, ("Additional properties are not allowed "
                             f"({names} {verb} unexpected)")
        elif key == "required" and obj:
            for name in arg:
                if name not in value:
                    yield path, f"{name!r} is a required property"
        elif key == "items" and array:
            for i, item in enumerate(value):
                yield from _violations(item, arg, path + (i,))
        elif key == "minItems" and array and len(value) < arg:
            yield path, f"{value!r} " + (
                "should be non-empty" if arg == 1 else "is too short")
        elif key == "maxItems" and array and len(value) > arg:
            yield path, f"{value!r} is too long"


def _best_violation(raw):
    """The violation the reference validator's `best_match` reports, or None.

    Its relevance key ranks the shortest path first, then the
    lexicographically greatest; every violation at one path comes from one
    schema node, so the rest of the key ties and `max` keeps the first in
    schema order.
    """
    return max(_violations(raw, CONFIG_SCHEMA),
               key=lambda v: (-len(v[0]), v[0]), default=None)


@dataclasses.dataclass
class RunConfig:
    raw: dict
    field: object
    places: list
    precision: int
    window: lt.HeightWindow
    hensel_precision: int
    s_units_supplied: object

    def place_by_name(self, name):
        for p in self.places:
            if p.name == name:
                return p
        raise SchemaError("/places", f"unknown place name {name!r}")

    def block(self, name):
        return self.raw.get(name, {})


@contextlib.contextmanager
def _pointing_at(pointer):
    """Raise an error met reading one config value as a SchemaError there."""
    try:
        yield
    except SchemaError:
        raise
    except (SadicLabError, ArithmeticError, LookupError, OSError, TypeError,
            ValueError) as e:
        raise SchemaError(pointer, str(e)) from e


def _read_config(source):
    """The raw config of a dict, an inline JSON string or a file path."""
    if isinstance(source, dict):
        return source
    if not source.lstrip().startswith("{"):
        with _pointing_at("/"), open(source, "r", encoding="utf-8") as fh:
            source = fh.read()
    try:
        return json.loads(source)
    except json.JSONDecodeError as e:
        raise SchemaError("/", f"invalid JSON: {e}") from e


def parse_config(source):
    """Validate and build a RunConfig from a dict, a path or inline JSON."""
    raw = _read_config(source)
    error = _best_violation(raw)
    if error is not None:
        path, message = error
        raise SchemaError("/" + "/".join(str(p) for p in path), message)
    with _pointing_at("/min_poly"):
        field = nf.create_field(raw["min_poly"], raw.get("integral_basis"))
    precision = raw.get("precision", DEFAULT_PRECISION)
    hensel = raw.get("hensel_precision", DEFAULT_HENSEL)
    places = nf.archimedean_places(field)
    for i, p in enumerate(raw.get("places", {}).get("finite_primes", [])):
        with _pointing_at(f"/places/finite_primes/{i}"):
            places.extend(nf.finite_places(field, p, precision=hensel))
    wraw = raw.get("window", {})
    window = lt.HeightWindow(wraw.get("H", DEFAULT_H), wraw.get("E", DEFAULT_E),
                             wraw.get("cap", 10 ** 8))
    return RunConfig(raw=raw, field=field, places=places, precision=precision,
                     window=window, hensel_precision=hensel,
                     s_units_supplied=raw.get("s_units"))


# ---------------------------------------------------------------------------
# Canonical emission


def _fmt_float(x):
    if math.isnan(x) or math.isinf(x):
        return json.dumps(str(x))
    return f"{x:.17g}"


def _canon_json(obj):
    if isinstance(obj, dict):
        items = ",".join(f"{json.dumps(str(k))}:{_canon_json(v)}"
                         for k, v in sorted(obj.items(), key=lambda kv: str(kv[0])))
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canon_json(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    return json.dumps(str(obj))


def emit_report(result, fmt="json"):
    """Byte-stable serialization of a report.

    JSON: sorted keys, floats at 17 significant digits.  CSV expects
    (header, rows) with cells already scalar.
    """
    if fmt == "json":
        return (_canon_json(result) + "\n").encode("utf-8")
    if fmt == "csv":
        header, rows = result
        lines = [",".join(header)]
        for row in rows:
            cells = []
            for cell in row:
                if isinstance(cell, float):
                    cells.append(_fmt_float(cell))
                elif isinstance(cell, (int, Fraction)):
                    cells.append(str(cell))
                else:
                    text = str(cell)
                    if "," in text or '"' in text:
                        text = '"' + text.replace('"', '""') + '"'
                    cells.append(text)
            lines.append(",".join(cells))
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}")


def _write(outdir, name, data):
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "wb") as fh:
        fh.write(data)
    return path


# ---------------------------------------------------------------------------
# Shared builders


def _parse_scalar(c, pointer):
    """A config entry: an int, the Fraction of a float or string, or the
    surd of a real spec."""
    if isinstance(c, bool) or not isinstance(c, (int, float, str, dict)):
        raise SchemaError(pointer, f"cannot parse coefficient {c!r}")
    if isinstance(c, int):
        return c
    with _pointing_at(pointer):
        return parse_real(c) if isinstance(c, dict) else Fraction(c)


def _norm_form(nfld):
    """(field, norm form) of a config's `norm_field` block."""
    basis = nfld.get("basis")
    with _pointing_at("/form/norm_field"):
        target = nf.create_field(nfld["min_poly"])
        elems = None if basis is None else [
            target.element([Fraction(str(c)) for c in row]) for row in basis]
    return target, fm.norm_form(target, elems)


def _build_form(cfg):
    block = cfg.block("form")
    if not block:
        raise SchemaError("/form", "missing form block")
    if "builtin" in block:
        probes = fm.builtin_probes()
        name = block["builtin"]
        if name not in probes:
            raise SchemaError("/form/builtin",
                              f"unknown probe {name!r}; have {sorted(probes)}")
        return probes[name]
    if "norm_field" in block:
        return _norm_form(block["norm_field"])[1]
    names = block.get("places")
    places = [cfg.place_by_name(n) for n in names] if names else list(cfg.places)
    if "factors_per_place" in block:
        per_place = _parse_matrices(block["factors_per_place"],
                                    "/form/factors_per_place")
    elif "factors" in block:
        rows = _parse_matrix(block["factors"], "/form/factors")
        per_place = [rows for _ in places]
    else:
        raise SchemaError("/form", "need factors, builtin or norm_field")
    return fm.make_form(cfg.field, places, per_place)


def _diagonal_flow(cfg, block, n, values):
    """Window systoles of diag(e^s, 1, ..., 1, e^-s) O^n, one step per s.

    The flow acts at the first archimedean place of S: one ray of the
    schedule kernel on the identity point, so one cloud serves every value.
    """
    arch = [p for p in cfg.places if p.kind != "finite"]
    if not arch:
        raise SchemaError("/places", "diagonal flow needs an archimedean place")
    if n < 2:
        raise SchemaError(f"/{block}/n", "a diagonal flow needs n >= 2")
    if not values:
        return []
    ray = dy.RaySchedule(arch[:1], [dy._n2_direction(n)], values)
    x = dy.OrbitPoint.identity(cfg.field, cfg.places, n)
    return dy.trajectory(x, ray, cfg.window).rows


def _parse_matrix(rows, pointer):
    return [[_parse_scalar(c, f"{pointer}/{i}/{j}") for j, c in enumerate(row)]
            for i, row in enumerate(rows)]


def _parse_matrices(mats, pointer):
    return [_parse_matrix(m, f"{pointer}/{k}") for k, m in enumerate(mats)]


def _point_from_spec(cfg, spec):
    if spec == "identity":
        return dy.OrbitPoint.identity(cfg.field, cfg.places, 2)
    if spec.startswith("rational:"):
        body = spec[len("rational:"):]
        with _pointing_at("/orbit_survey/point"):
            rows = [[Fraction(c) for c in row.split(",")]
                    for row in body.split(";")]
        return dy.OrbitPoint.from_rational(cfg.field, cfg.places, len(rows), rows)
    if spec.startswith("file:"):
        with _pointing_at("/orbit_survey/point"):
            with open(spec[len("file:"):], "r", encoding="utf-8") as fh:
                data = json.load(fh)
            mats = [[[Fraction(c) for c in row] for row in mat]
                    for mat in data["matrices"]]
        if len(mats) != len(cfg.places):
            raise SchemaError("/orbit_survey/point",
                              "matrix count does not match S")
        return dy.OrbitPoint(cfg.field, cfg.places, len(mats[0]), mats,
                             provenance=data.get("provenance", "rational"))
    raise SchemaError("/orbit_survey/point", f"cannot parse point {spec!r}")


def _parse_grid(text, active, cap):
    """'s_min:s_max:steps[,k_min:k_max]' -> (s values, k values), each
    None when no place of `active` moves by it.

    A k range holds at least one value and at most 2 SHIFT_BITS + 1: a
    wider one holds a k with |k| > SHIFT_BITS, which `RaySchedule`
    rejects at every finite place.  The heat map's cells, counted as
    `dy._heat_schedule` builds them (s at archimedean places, k at finite
    ones, `dy.HEAT_K` without a k range), must not exceed the window's
    size bound `cap`; that is checked before any list is built.
    """
    parts = [part.split(":") for part in text.split(",")]
    if len(parts[0]) != 3 or len(parts) > 1 and len(parts[1]) != 2:
        raise SchemaError("/orbit_survey/grid", "want s_min:s_max:steps[,k_min:k_max]")
    with _pointing_at("/orbit_survey/grid"):
        lo, hi, steps = float(parts[0][0]), float(parts[0][1]), int(parts[0][2])
        k = [int(v) for v in parts[1]] if len(parts) > 1 else None
    if steps < 1 or not math.isfinite(lo + hi):
        raise SchemaError("/orbit_survey/grid", "want finite s bounds and a step")
    if k and not 0 <= k[1] - k[0] <= 2 * lt.SHIFT_BITS:
        raise SchemaError("/orbit_survey/grid",
                          f"want k_min <= k_max <= k_min + {2 * lt.SHIFT_BITS}")
    s_used = any(p.kind != "finite" for p in active)
    k_used = any(p.kind == "finite" for p in active)
    cells = (steps if s_used else 1) * (
        (k[1] - k[0] + 1 if k else len(dy.HEAT_K)) if k_used else 1)
    if cells > cap:
        raise SchemaError("/orbit_survey/grid",
                          f"grid of {cells} cells exceeds the window cap {cap}")
    return ([lo + i * (hi - lo) / max(steps - 1, 1) for i in range(steps)]
            if s_used else None,
            list(range(k[0], k[1] + 1)) if k and k_used else None)


# ---------------------------------------------------------------------------
# Subcommand implementations


def _cmd_field_info(cfg, outdir):
    places = []
    for p in cfg.places:
        entry = {"name": p.name, "kind": p.kind}
        if p.kind == "finite":
            entry.update(p=p.p, residue_degree=p.residue_degree,
                         precision=p.precision)
        else:
            entry["root"] = repr(p.root_float())
        places.append(entry)
    with _pointing_at("/s_units"):
        units = nf.s_unit_group(cfg.field, cfg.places, cfg.s_units_supplied)
    report = {
        "min_poly": list(cfg.field.min_poly),
        "degree": cfg.field.degree,
        "discriminant": cfg.field.discriminant,
        "places": places,
        "unit_rank": units.rank,
        "unit_generators": [[str(c) for c in u.coords] for u in units.generators],
        "torsion_generator": [str(c) for c in units.torsion_generator.coords],
        "balancing_constant": sd.balancing_constant(units),
    }
    _write(outdir, "field-info.json", emit_report(report))
    return 0


def _cmd_systole(cfg, outdir):
    block = cfg.block("systole")
    n = block.get("n", 2)
    if "diagonal_flow" in block:
        values = block["diagonal_flow"]["values"]
        rows = [(s, r.min_content, r.min_supnorm, r.content_witness)
                for s, r in zip(values, _diagonal_flow(cfg, "systole", n, values))]
    elif "matrices" in block:
        mats = _parse_matrices(block["matrices"], "/systole/matrices")
        lat = lt.SLattice(cfg.field, cfg.places, n, mats)
        rep = lt.systole(lat, cfg.window)
        rows = [(0.0, rep.min_content, rep.min_supnorm, rep.content_witness)]
    else:
        raise SchemaError("/systole", "need diagonal_flow or matrices")
    header = ("param", "min_content", "min_supnorm", "witness")
    _write(outdir, "sweep.csv", emit_report((header, rows), "csv"))
    _write(outdir, "systole.json", emit_report(
        {"rows": [dict(zip(header, r)) for r in rows]}))
    return 0


def _cmd_mahler(cfg, outdir):
    block = cfg.block("mahler")
    n = block.get("n", 2)
    if "diagonal_flow" in block:
        values = block["diagonal_flow"]["values"]
        if not values:
            raise SchemaError("/mahler/diagonal_flow/values",
                              "need at least one lattice")
        report = lt.mahler_report(block["radius"],
                                  _diagonal_flow(cfg, "mahler", n, values))
    elif "matrices_list" in block:
        if not block["matrices_list"]:
            raise SchemaError("/mahler/matrices_list", "need at least one lattice")
        lats = [lt.SLattice(cfg.field, cfg.places, n,
                            _parse_matrices(mats, f"/mahler/matrices_list/{i}"))
                for i, mats in enumerate(block["matrices_list"])]
        report = lt.mahler_test(lats, block["radius"], cfg.window)
    else:
        raise SchemaError("/mahler", "need diagonal_flow or matrices_list")
    # the artifact holds every field of the report and of its verdicts
    _write(outdir, "mahler.json", emit_report(dataclasses.asdict(report)))
    return 0


def _cmd_orbit_survey(cfg, outdir):
    block = cfg.block("orbit_survey")
    point_spec = block.get("point", "identity")
    point = _point_from_spec(cfg, point_spec)
    active_names = block.get("active_places")
    active = [cfg.place_by_name(n) for n in active_names] if active_names \
        else list(cfg.places)
    heat_s = heat_k = None
    s_max = 10.0
    if block.get("grid"):
        heat_s, heat_k = _parse_grid(block["grid"], active, cfg.window.cap)
        s_max = max(abs(v) for v in heat_s or [0.0]) or 10.0
    steps = block.get("steps", 20)
    survey = dy.divergence_survey(point, active, cfg.window, steps=steps,
                                  s_max=s_max, heat_s=heat_s, heat_k=heat_k)
    header = ("s", "k", "min_content", "min_supnorm", "witness")
    _write(outdir, "heatmap.csv", emit_report(
        (header, [[r[h] for h in header] for r in survey.heat]), "csv"))
    anomalies = list(survey.anomalies)
    expected = block.get("expect", {})
    got = survey.classifications()
    for ray_name, want in sorted(expected.items()):
        if got.get(ray_name) != want:
            anomalies.append(
                f"expected {ray_name} -> {want}, got {got.get(ray_name)}")
    verdict = {
        "point": point_spec,
        "active_places": [p.name for p in active],
        "prediction": survey.prediction,
        "classifications": got,
        "anomalies": anomalies,
        "consistent": not anomalies,
    }
    _write(outdir, "orbit-survey.json", emit_report(verdict))
    return 2 if anomalies else 0


def _cmd_nilpotent_check(cfg, outdir):
    block = cfg.block("nilpotent_check")
    n = block.get("n", 2)
    if "matrices" in block:
        mats = _parse_matrices(block["matrices"], "/nilpotent_check/matrices")
    else:
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        mats = [eye for _ in cfg.places]
    lat = lt.SLattice(cfg.field, cfg.places, n, mats)
    rep = lt.nilpotent_span_check(lat, block["radius"], cfg.window)
    out = {
        "radius": block["radius"],
        "is_nilpotent_span": rep.is_nilpotent_span,
        "kept": rep.kept,
        "witnesses": [{"coords": [[str(c) for c in co] for co in w.coords],
                       "sup_norm": w.sup_norm} for w in rep.witness_basis],
    }
    _write(outdir, "nilpotent-check.json", emit_report(out))
    return 0


def _cmd_expanding(cfg, outdir):
    block = cfg.block("expanding")
    place = cfg.place_by_name(block["place"])
    with _pointing_at("/expanding/positions"):
        t = dy.expanding_element(block["positions"], Fraction(str(block["tau"])),
                                 place)
    out = {
        "place": place.name,
        "tau": float(block["tau"]),
        "entries": [str(c) for c in t.entries[0]],
    }
    _write(outdir, "expanding.json", emit_report(out))
    return 0


def _cmd_form_spectrum(cfg, outdir):
    form = _build_form(cfg)
    block = cfg.block("spectrum")
    heights = sorted(block["heights"])
    E = block.get("denominator_exponent", 0)
    cap = block.get("cap")
    window = lt.HeightWindow(heights[-1], E)
    spec = fm.value_spectrum(form, window, magnitude_cap=cap,
                             dps=cfg.precision)
    rows = [(e.magnitude, e.count, e.witness) for e in spec.entries]
    _write(outdir, "spectrum.csv", emit_report(
        (("magnitude", "count", "witness"), rows), "csv"))
    out = {
        "heights": heights,
        "min_nonzero": spec.min_nonzero,
        "min_gap": spec.min_gap,
        "distinct": len(spec.entries),
        "zero_count": spec.zero_count,
    }
    if len(heights) >= 3:
        rep = fm.discreteness_report(form, heights, E=E, dps=cfg.precision)
        out["verdict"] = rep.verdict
        if rep.cluster:
            out["cluster_center"] = rep.cluster.center
            out["cluster_members"] = len(rep.cluster.members)
            out["per_window_counts"] = rep.cluster.per_window_counts
    _write(outdir, "form-spectrum.json", emit_report(out))
    return 0


def _cmd_form_reconstruct(cfg, outdir):
    form = _build_form(cfg)
    rep = fm.rationality_reconstruct(form, precision=cfg.precision)
    out = {"status": rep.status, "evidence": rep.evidence}
    if rep.status == "reconstructed":
        out["g"] = list(rep.g)
        out["monomials"] = ["".join(f"x{i+1}^{e}" for i, e in enumerate(mono) if e)
                            for mono in form.basis]
        alpha = [to_mpf(a, p, cfg.precision)
                 for a, p in zip(rep.alpha, form.places)]
        out["alpha"] = [float(abs(v)) * (-1 if v.real < 0 else 1)
                        for v in alpha]
    _write(outdir, "form-reconstruct.json", emit_report(out))
    return 0


def _cmd_norm_form(cfg, outdir):
    block = cfg.block("form")
    if "norm_field" not in block:
        block = {"norm_field": {"min_poly": list(cfg.field.min_poly)}}
    target, form = _norm_form(block["norm_field"])
    out = {
        "field_min_poly": list(target.min_poly),
        "degree": target.degree,
        "coefficients": [str(c) for c in form.expansions[0]],
        "monomials": ["*".join(f"x{i+1}^{e}" for i, e in enumerate(mono) if e)
                      for mono in form.basis],
    }
    _write(outdir, "norm-form.json", emit_report(out))
    return 0


def _cmd_littlewood(cfg, outdir):
    block = cfg.block("littlewood")
    res = fm.littlewood_scan(_parse_scalar(block["alpha"], "/littlewood/alpha"),
                             _parse_scalar(block["beta"], "/littlewood/beta"),
                             block["N"])
    _write(outdir, "records.csv", emit_report(
        (("n", "value"), [(n, v) for n, v in res.records]), "csv"))
    out = {"N": block["N"], "minimum": res.minimum, "argmin": res.argmin,
           "records": len(res.records)}
    _write(outdir, "littlewood.json", emit_report(out))
    return 0


_COMMANDS = {
    "field-info": _cmd_field_info,
    "systole": _cmd_systole,
    "mahler": _cmd_mahler,
    "orbit-survey": _cmd_orbit_survey,
    "nilpotent-check": _cmd_nilpotent_check,
    "expanding": _cmd_expanding,
    "form-spectrum": _cmd_form_spectrum,
    "form-reconstruct": _cmd_form_reconstruct,
    "norm-form": _cmd_norm_form,
    "littlewood": _cmd_littlewood,
}


def run(subcommand, config, outdir="."):
    """Dispatch a validated config; returns the process exit code."""
    if subcommand not in _COMMANDS:
        raise ValueError(f"unknown subcommand {subcommand}")
    cfg = config if isinstance(config, RunConfig) else parse_config(config)
    return _COMMANDS[subcommand](cfg, outdir)


def _with_survey_flags(raw, args):
    """raw with each given `orbit-survey` flag written over the config key
    it stands for, so that the config's checks cover the flags."""
    def ints(text, pointer):
        with _pointing_at(pointer):
            return [int(c) for c in text.split(",")]

    raw = dict(raw)
    if args.field is not None:
        raw["min_poly"] = ints(args.field, "/min_poly")
    for name, key, value in (
            ("places", "finite_primes",
             args.places and ints(args.places, "/places/finite_primes")),
            ("window", "H", args.height), ("window", "E", args.denom),
            ("orbit_survey", "point", args.point),
            ("orbit_survey", "active_places",
             args.active_places and args.active_places.split(",")),
            ("orbit_survey", "grid", args.grid)):
        if value is not None and isinstance(raw.setdefault(name, {}), dict):
            raw[name] = dict(raw[name], **{key: value})
    return raw


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sadiclab",
        description="S-adic lattice geometry, orbit surveys and decomposable forms")
    parser.add_argument("--config", required=True,
                        help="path to a JSON config, or inline JSON")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--precision", type=int, default=None,
                        help="override the config precision")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker hint; results are identical for any value")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        if name == "orbit-survey":
            sp.add_argument("--field", default=None,
                            help="override min_poly, ascending comma ints")
            sp.add_argument("--places", default=None,
                            help="override finite primes, comma ints")
            sp.add_argument("--point", default=None,
                            help="identity | rational:<rows> | file:<path>")
            sp.add_argument("--active-places", default=None, type=str,
                            help="comma-separated place names")
            sp.add_argument("--grid", default=None,
                            help="s_min:s_max:steps[,k_min:k_max]")
            sp.add_argument("--height", type=int, default=None)
            sp.add_argument("--denom", type=int, default=None)
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be at least 1")
    try:
        raw = _read_config(args.config)
        if args.precision is not None and isinstance(raw, dict):
            raw = dict(raw, precision=args.precision)
        if args.subcommand == "orbit-survey" and isinstance(raw, dict):
            raw = _with_survey_flags(raw, args)
        return run(args.subcommand, parse_config(raw), args.out)
    except SadicLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
