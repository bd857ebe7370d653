"""JSON wire formats.

Every rational travels as a string -- "3", "-1/2" -- never as a JSON
number with a fractional part.  Floats are rejected on decode (including
``1e3`` and ``NaN``) and can never be produced on encode: :func:`dumps`
walks its input, once, to enforce that.  A key or string holding a
lone surrogate, which UTF-8 cannot encode, is rejected on decode too, and
so is a vertex name that XML 1.0 cannot carry into the SVG figures.
Structural validation is :func:`validate`, a walk of the value and a JSON
Schema together that knows the twelve keywords this module's schemas use;
semantic validation is whatever the target constructors raise, re-wrapped
as :class:`SchemaError`.
"""

from __future__ import annotations

import json
import re

from .graphs import (
    AtomicMeasure,
    CurvatureData,
    GraphError,
    GraphPoint,
    MetrizedGraph,
    PLFunction,
)
from .polyhedra import Polyhedron
from .rat import Rat, rat, rat_str
from .svg import xml_name
from .testideals import MonomialIdeal, TestIdealError
from .toric import PolyComplex, ToricAtomicMeasure, ToricError, ToricPLFunction


class SchemaError(ValueError):
    """The input does not match a wire format."""


_RAT_PATTERN = r"^-?[0-9]+(/[0-9]+)?$"
_RAT_RE = re.compile(_RAT_PATTERN)
RAT_SCHEMA = {"type": "string", "pattern": _RAT_PATTERN}


# Digits allowed in a JSON integer and in the numerator or the denominator
# of a wire rational: CPython's default limit on int-from-string
# conversion, checked here so that an over-long number gets this module's
# message.
MAX_RAT_DIGITS = 4300


def rat_from_str(s) -> Rat:
    if not isinstance(s, str) or not _RAT_RE.fullmatch(s):
        raise SchemaError(f"not a rational string: {s!r}")
    digits = max(len(part.lstrip("-")) for part in s.split("/"))
    if digits > MAX_RAT_DIGITS:
        raise SchemaError(
            f"rational has too many digits: {digits} in its numerator or "
            f"denominator, at most {MAX_RAT_DIGITS} allowed"
        )
    try:
        return rat(s)
    except (ValueError, ZeroDivisionError) as ex:
        raise SchemaError(str(ex)) from None


def _arr(items, **kw):
    return {"type": "array", "items": items, **kw}


def _obj(required, optional={}):
    """A closed object: these required properties, these optional ones and
    no others."""
    return {
        "type": "object",
        "required": list(required),
        "additionalProperties": False,
        "properties": {**required, **optional},
    }


_STR = {"type": "string"}
VEC2_SCHEMA = _arr(RAT_SCHEMA, minItems=2, maxItems=2)

GRAPH_SCHEMA = _obj(
    {
        "vertices": _arr(_STR, minItems=1),
        "edges": _arr(
            _obj(
                {"a": _STR, "b": _STR, "len": RAT_SCHEMA},
                {"w": {"type": "integer", "minimum": 1}},
            )
        ),
    },
    {"theta": {"type": "object", "additionalProperties": RAT_SCHEMA}},
)

_EDGE_INDEX = {"type": "integer", "minimum": 0}
POINT_SCHEMA = {
    "oneOf": [
        _obj({"vertex": _STR}),
        _obj({"edge": _EDGE_INDEX, "offset": RAT_SCHEMA}),
    ]
}

PLF_SCHEMA = _obj(
    {"vertex_values": {"type": "object", "additionalProperties": RAT_SCHEMA}},
    {
        "breakpoints": _arr(
            _obj({"edge": _EDGE_INDEX, "offset": RAT_SCHEMA, "value": RAT_SCHEMA})
        )
    },
)

MEASURE_SCHEMA = _obj({"atoms": _arr(_obj({"point": POINT_SCHEMA, "mass": RAT_SCHEMA}))})

COMPLEX_SCHEMA = _obj(
    {
        "dim": {"const": 2},
        "cells": _arr(
            _obj({"points": _arr(VEC2_SCHEMA, minItems=1)}, {"rays": _arr(VEC2_SCHEMA)}),
            minItems=1,
        ),
    }
)

TORIC_PLF_SCHEMA = _obj(
    {"pieces": _arr(_obj({"grad": VEC2_SCHEMA, "const": RAT_SCHEMA}), minItems=1)}
)

IDEAL_SCHEMA = _obj(
    {
        "n": {"type": "integer", "minimum": 1},
        "gens": _arr(_arr({"type": "integer", "minimum": 0})),
    }
)


# The JSON Schema keywords the schemas of this package use, with their
# Draft 2020-12 meaning; validate interprets exactly these.
_KEYWORDS = frozenset((
    "type", "properties", "required", "additionalProperties", "items", "minItems",
    "maxItems", "minimum", "maximum", "pattern", "const", "oneOf",
))
_TYPES = {"object": dict, "array": list, "string": str, "integer": int}


def _same(a, b) -> bool:
    """JSON equality, under which true is not 1."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def _first_error(obj, schema):
    """None, or (keys, message) for the first rule of schema that obj
    breaks, keys running from the failing node up to obj.  Keywords that
    do not apply to obj's JSON type are ignored, as in JSON Schema."""
    if not schema:
        return None
    if not _KEYWORDS.issuperset(schema):  # a fault in the schema, not the input
        raise TypeError(f"unsupported schema keywords {sorted(set(schema) - _KEYWORDS)}")
    want = schema.get("type")
    if want is not None and (isinstance(obj, bool) or not isinstance(obj, _TYPES[want])):
        return [], f"{obj!r} is not of type {want!r}"
    if "const" in schema and not _same(obj, schema["const"]):
        return [], f"{schema['const']!r} was expected"
    if "oneOf" in schema:
        valid = [s for s in schema["oneOf"] if _first_error(obj, s) is None]
        if not valid:
            return [], f"{obj!r} is not valid under any of the given schemas"
        if len(valid) > 1:
            return [], f"{obj!r} is valid under each of {', '.join(map(repr, valid))}"
    if isinstance(obj, dict):
        props, more = schema.get("properties", {}), schema.get("additionalProperties", {})
        for key in schema.get("required", ()):
            if key not in obj:
                return [], f"{key!r} is a required property"
        if more is False and not obj.keys() <= props.keys():
            extra = sorted(obj.keys() - props.keys(), key=str)
            names = ", ".join(map(repr, extra))
            verb = "was" if len(extra) == 1 else "were"
            return [], f"Additional properties are not allowed ({names} {verb} unexpected)"
        children = ((key, value, props.get(key, more)) for key, value in obj.items())
    elif isinstance(obj, list):
        least, most = schema.get("minItems", 0), schema.get("maxItems", len(obj))
        if len(obj) < least:
            return [], f"{obj!r} {'should be non-empty' if least == 1 else 'is too short'}"
        if len(obj) > most:
            return [], f"{obj!r} {'is expected to be empty' if most == 0 else 'is too long'}"
        items = schema.get("items", {})
        children = ((i, value, items) for i, value in enumerate(obj)) if items else ()
    else:
        pattern = schema.get("pattern")
        if isinstance(obj, str) and pattern is not None and not re.search(pattern, obj):
            return [], f"{obj!r} does not match {pattern!r}"
        if isinstance(obj, (int, float)) and not isinstance(obj, bool):
            if obj < schema.get("minimum", obj):
                return [], f"{obj!r} is less than the minimum of {schema['minimum']!r}"
            if obj > schema.get("maximum", obj):
                return [], f"{obj!r} is greater than the maximum of {schema['maximum']!r}"
        return None
    for key, value, sub in children:
        err = _first_error(value, sub)
        if err is not None:
            err[0].append(key)
            return err
    return None


def validate(obj, schema, where: str = "payload") -> None:
    """Raise SchemaError for the first rule of the JSON Schema that obj
    breaks, as "{where} at {path}: {message}", where path is the
    slash-separated path of the failing node ("." for obj itself).  Only
    the keywords in _KEYWORDS may occur in schema; any other raises
    TypeError, since it is a fault of the program, not of its input."""
    err = _first_error(obj, schema)
    if err is not None:
        keys, message = err
        path = "/".join(str(k) for k in reversed(keys)) or "."
        raise SchemaError(f"{where} at {path}: {message}")


# ---------------------------------------------------------------------------
# Graph-side codecs
# ---------------------------------------------------------------------------


def graph_from_json(obj):
    """-> (MetrizedGraph, CurvatureData | None); edges reference vertices
    by name, missing "w" means weight 1, missing theta entries mean 0."""
    validate(obj, GRAPH_SCHEMA, "graph")
    labels = obj["vertices"]
    for i, name in enumerate(labels):
        try:
            xml_name("vertex name", name)
        except ValueError as ex:
            raise SchemaError(f"graph at vertices/{i}: {ex}") from None
    index = {name: i for i, name in enumerate(labels)}
    if len(index) != len(labels):
        raise SchemaError("duplicate vertex names")
    edges = []
    for row in obj["edges"]:
        for end in (row["a"], row["b"]):
            if end not in index:
                raise SchemaError(f"edge endpoint {end!r} is not a vertex")
        edges.append(
            (index[row["a"]], index[row["b"]], rat_from_str(row["len"]), row.get("w", 1))
        )
    try:
        g = MetrizedGraph(labels, edges)
    except GraphError as ex:
        raise SchemaError(str(ex)) from None
    theta = None
    if "theta" in obj:
        degrees = [Rat(0)] * len(labels)
        for name, val in obj["theta"].items():
            if name not in index:
                raise SchemaError(f"theta key {name!r} is not a vertex")
            degrees[index[name]] = rat_from_str(val)
        theta = CurvatureData(g, degrees)
    return g, theta


def graph_to_json(g: MetrizedGraph, theta: CurvatureData | None = None) -> dict:
    out = {
        "vertices": list(g.labels),
        "edges": [
            {"a": g.labels[a], "b": g.labels[b], "len": rat_str(length), "w": w}
            for a, b, length, w in g.edges
        ],
    }
    if theta is not None:
        out["theta"] = {g.labels[v]: rat_str(d) for v, d in enumerate(theta.degrees)}
    return out


def point_from_json(g: MetrizedGraph, obj) -> GraphPoint:
    validate(obj, POINT_SCHEMA, "point")
    if "vertex" in obj:
        name = obj["vertex"]
        if name not in g.labels:
            raise SchemaError(f"unknown vertex {name!r}")
        return g.vertex_point(g.index_of(name))
    e = obj["edge"]
    if not 0 <= e < len(g.edges):
        raise SchemaError(f"edge index {e} out of range")
    try:
        return g.point(e, rat_from_str(obj["offset"]))
    except GraphError as ex:
        raise SchemaError(str(ex)) from None


def point_to_json(g: MetrizedGraph, pt: GraphPoint) -> dict:
    if pt.is_vertex():
        return {"vertex": g.labels[pt.index]}
    return {"edge": pt.index, "offset": rat_str(pt.offset)}


def plf_from_json(g: MetrizedGraph, obj) -> PLFunction:
    validate(obj, PLF_SCHEMA, "function")
    values_in = obj["vertex_values"]
    missing = [name for name in g.labels if name not in values_in]
    unknown = [name for name in values_in if name not in g.labels]
    if missing or unknown:
        raise SchemaError(
            f"vertex_values keys do not match the graph "
            f"(missing {missing!r}, unknown {unknown!r})"
        )
    values = [rat_from_str(values_in[name]) for name in g.labels]
    breaks = [[] for _ in g.edges]
    for row in obj.get("breakpoints", ()):
        e = row["edge"]
        if not 0 <= e < len(g.edges):
            raise SchemaError(f"breakpoint edge index {e} out of range")
        breaks[e].append((rat_from_str(row["offset"]), rat_from_str(row["value"])))
    for seq in breaks:
        seq.sort(key=lambda tv: tv[0])
    try:
        return PLFunction(g, values, tuple(tuple(seq) for seq in breaks))
    except GraphError as ex:
        raise SchemaError(str(ex)) from None


def plf_to_json(f: PLFunction) -> dict:
    g = f.graph
    return {
        "vertex_values": {g.labels[v]: rat_str(x) for v, x in enumerate(f.vertex_values)},
        "breakpoints": [
            {"edge": e, "offset": rat_str(t), "value": rat_str(x)}
            for e, row in enumerate(f.breaks)
            for t, x in row
        ],
    }


def measure_from_json(g: MetrizedGraph, obj) -> AtomicMeasure:
    validate(obj, MEASURE_SCHEMA, "measure")
    atoms = [
        (point_from_json(g, row["point"]), rat_from_str(row["mass"]))
        for row in obj["atoms"]
    ]
    return AtomicMeasure(g, atoms)


def measure_to_json(mu: AtomicMeasure) -> dict:
    return {
        "atoms": [
            {"point": point_to_json(mu.graph, pt), "mass": rat_str(m)}
            for pt, m in mu.atoms
        ]
    }


# ---------------------------------------------------------------------------
# Toric codecs
# ---------------------------------------------------------------------------


def vec2_from_json(row):
    return (rat_from_str(row[0]), rat_from_str(row[1]))


def vec2_to_json(v) -> list:
    return [rat_str(x) for x in v]


def complex_from_json(obj) -> PolyComplex:
    validate(obj, COMPLEX_SCHEMA, "complex")
    cells = []
    for c in obj["cells"]:
        pts = [vec2_from_json(p) for p in c["points"]]
        rays = [vec2_from_json(r) for r in c.get("rays", ())]
        try:
            cells.append(Polyhedron(pts, rays))
        except ValueError as ex:
            raise SchemaError(str(ex)) from None
    try:
        return PolyComplex(cells)
    except ToricError as ex:
        raise SchemaError(str(ex)) from None


def cell_to_json(cell: Polyhedron) -> dict:
    return {
        "points": [vec2_to_json(p) for p in cell.gen_points],
        "rays": [vec2_to_json(r) for r in cell.gen_rays],
    }


def complex_to_json(pc: PolyComplex) -> dict:
    return {"dim": 2, "cells": [cell_to_json(cell) for cell in pc.cells]}


def toric_plf_from_json(pc: PolyComplex, obj) -> ToricPLFunction:
    validate(obj, TORIC_PLF_SCHEMA, "pl function")
    pieces = [
        (vec2_from_json(row["grad"]), rat_from_str(row["const"]))
        for row in obj["pieces"]
    ]
    try:
        return ToricPLFunction(pc, pieces)
    except ToricError as ex:
        raise SchemaError(str(ex)) from None


def toric_plf_to_json(f: ToricPLFunction) -> dict:
    return {
        "pieces": [
            {"grad": vec2_to_json(grad), "const": rat_str(c)}
            for grad, c in f.pieces
        ]
    }


def toric_measure_to_json(mu: ToricAtomicMeasure) -> dict:
    return {
        "atoms": [
            {"point": vec2_to_json(pt), "mass": rat_str(m)} for pt, m in mu.atoms
        ]
    }


# ---------------------------------------------------------------------------
# Ideal codec
# ---------------------------------------------------------------------------


def ideal_from_json(obj) -> MonomialIdeal:
    validate(obj, IDEAL_SCHEMA, "ideal")
    try:
        return MonomialIdeal(obj["n"], [tuple(u) for u in obj["gens"]])
    except TestIdealError as ex:
        raise SchemaError(str(ex)) from None


def ideal_to_json(a: MonomialIdeal) -> dict:
    return {"n": a.n, "gens": [list(u) for u in a.gens]}


# ---------------------------------------------------------------------------
# Canonical text
# ---------------------------------------------------------------------------


def _reject_float(text):
    raise SchemaError(f"float literal {text!r} is not allowed; use rational strings")


def _parse_int(text):
    digits = len(text.lstrip("-"))
    if digits > MAX_RAT_DIGITS:
        raise SchemaError(f"integer has too many digits: {digits}, at most {MAX_RAT_DIGITS} allowed")
    return int(text)


def _reject_surrogates(obj, keys=(), what="string") -> None:
    """SchemaError naming the path of the first key or string value in obj
    that holds a lone surrogate, a code point that UTF-8 cannot encode."""
    if isinstance(obj, str):
        try:
            obj.encode("utf-8")
        except UnicodeEncodeError as ex:
            path = "/".join(map(str, keys)) or "."
            bad = ord(obj[ex.start])
            raise SchemaError(f"{what} at {path} holds the lone surrogate U+{bad:04X}: {obj!a}") from None
        return
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        _reject_surrogates(key, keys, "key")
        _reject_surrogates(value, keys + (key,))


def loads(text: str):
    """Parse JSON text; floats, over-long integers and lone surrogates in
    any key or string are SchemaErrors."""
    try:
        obj = json.loads(text, parse_float=_reject_float, parse_int=_parse_int,
                         parse_constant=_reject_float)
    except json.JSONDecodeError as ex:
        raise SchemaError(f"invalid JSON: {ex}") from None
    if "\\u" in text or not text.isascii():  # else no string can hold a surrogate
        _reject_surrogates(obj)
    return obj


def assert_no_floats(obj) -> None:
    """SchemaError "float at $.a[1].b" if obj's dicts, lists and tuples
    hold a float; the walk builds the path only once it finds one."""
    stack = [obj]
    while stack:
        x = stack.pop()
        if isinstance(x, float):
            raise SchemaError(f"float at {_float_path(obj, '$')}")
        if isinstance(x, (dict, list, tuple)):
            stack.extend(x.values() if isinstance(x, dict) else x)


def _float_path(obj, where: str):
    """The path of obj's first float, depth first, or None."""
    if isinstance(obj, float):
        return where
    steps = (obj.items() if isinstance(obj, dict) else enumerate(obj)
             if isinstance(obj, (list, tuple)) else ())
    fmt = "{}.{}" if isinstance(obj, dict) else "{}[{}]"
    return next(filter(None, (_float_path(v, fmt.format(where, k)) for k, v in steps)), None)


def dumps(obj) -> str:
    """Canonical serialization: sorted keys, 2-space indent, newline at end,
    reproducible byte-for-byte for equal input."""
    assert_no_floats(obj)
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
