"""JSON wire formats.

Every rational travels as a string -- "3", "-1/2" -- never as a JSON
number with a fractional part.  Floats are rejected on decode (including
``1e3`` and ``NaN``) and can never be produced on encode; :func:`dumps`
walks its input once more to enforce that.  Structural validation is
jsonschema; semantic validation is whatever the target constructors
raise, re-wrapped as :class:`SchemaError`.
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
from .testideals import MonomialIdeal, TestIdealError
from .toric import PolyComplex, ToricAtomicMeasure, ToricError, ToricPLFunction


class SchemaError(ValueError):
    """The input does not match a wire format."""


_RAT_PATTERN = r"^-?[0-9]+(/[0-9]+)?$"
_RAT_RE = re.compile(_RAT_PATTERN)
RAT_SCHEMA = {"type": "string", "pattern": _RAT_PATTERN}


# Digits allowed in the numerator or the denominator of a wire rational:
# CPython's default limit on int-from-string conversion, checked here so
# that an over-long rational gets this module's message.
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


VEC2_SCHEMA = _arr(RAT_SCHEMA, minItems=2, maxItems=2)

GRAPH_SCHEMA = {
    "type": "object",
    "required": ["vertices", "edges"],
    "additionalProperties": False,
    "properties": {
        "vertices": _arr({"type": "string"}, minItems=1),
        "edges": _arr(
            {
                "type": "object",
                "required": ["a", "b", "len"],
                "additionalProperties": False,
                "properties": {
                    "a": {"type": "string"},
                    "b": {"type": "string"},
                    "len": RAT_SCHEMA,
                    "w": {"type": "integer", "minimum": 1},
                },
            }
        ),
        "theta": {"type": "object", "additionalProperties": RAT_SCHEMA},
    },
}

POINT_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "required": ["vertex"],
            "additionalProperties": False,
            "properties": {"vertex": {"type": "string"}},
        },
        {
            "type": "object",
            "required": ["edge", "offset"],
            "additionalProperties": False,
            "properties": {
                "edge": {"type": "integer", "minimum": 0},
                "offset": RAT_SCHEMA,
            },
        },
    ]
}

PLF_SCHEMA = {
    "type": "object",
    "required": ["vertex_values"],
    "additionalProperties": False,
    "properties": {
        "vertex_values": {"type": "object", "additionalProperties": RAT_SCHEMA},
        "breakpoints": _arr(
            {
                "type": "object",
                "required": ["edge", "offset", "value"],
                "additionalProperties": False,
                "properties": {
                    "edge": {"type": "integer", "minimum": 0},
                    "offset": RAT_SCHEMA,
                    "value": RAT_SCHEMA,
                },
            }
        ),
    },
}

MEASURE_SCHEMA = {
    "type": "object",
    "required": ["atoms"],
    "additionalProperties": False,
    "properties": {
        "atoms": _arr(
            {
                "type": "object",
                "required": ["point", "mass"],
                "additionalProperties": False,
                "properties": {"point": POINT_SCHEMA, "mass": RAT_SCHEMA},
            }
        )
    },
}

COMPLEX_SCHEMA = {
    "type": "object",
    "required": ["dim", "cells"],
    "additionalProperties": False,
    "properties": {
        "dim": {"const": 2},
        "cells": _arr(
            {
                "type": "object",
                "required": ["points"],
                "additionalProperties": False,
                "properties": {
                    "points": _arr(VEC2_SCHEMA, minItems=1),
                    "rays": _arr(VEC2_SCHEMA),
                },
            },
            minItems=1,
        ),
    },
}

TORIC_PLF_SCHEMA = {
    "type": "object",
    "required": ["pieces"],
    "additionalProperties": False,
    "properties": {
        "pieces": _arr(
            {
                "type": "object",
                "required": ["grad", "const"],
                "additionalProperties": False,
                "properties": {"grad": VEC2_SCHEMA, "const": RAT_SCHEMA},
            },
            minItems=1,
        )
    },
}

IDEAL_SCHEMA = {
    "type": "object",
    "required": ["n", "gens"],
    "additionalProperties": False,
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "gens": _arr(_arr({"type": "integer", "minimum": 0})),
    },
}


# id(schema) -> (schema, validator); holding the schema keeps its id unique.
_VALIDATORS = {}


def validate(obj, schema, where: str = "payload") -> None:
    """Raise SchemaError naming jsonschema's best-matching error.  Each
    schema is checked and compiled once, so schemas should be long-lived
    objects such as the module-level constants.  jsonschema is imported on
    the first call: it is most of the package's import time."""
    import jsonschema

    entry = _VALIDATORS.get(id(schema))
    if entry is None:
        jsonschema.Draft202012Validator.check_schema(schema)
        entry = (schema, jsonschema.Draft202012Validator(schema))
        _VALIDATORS[id(schema)] = entry
    ex = jsonschema.exceptions.best_match(entry[1].iter_errors(obj))
    if ex is not None:
        path = "/".join(str(k) for k in ex.absolute_path) or "."
        raise SchemaError(f"{where} at {path}: {ex.message}")


# ---------------------------------------------------------------------------
# Graph-side codecs
# ---------------------------------------------------------------------------


def graph_from_json(obj):
    """-> (MetrizedGraph, CurvatureData | None); edges reference vertices
    by name, missing "w" means weight 1, missing theta entries mean 0."""
    validate(obj, GRAPH_SCHEMA, "graph")
    labels = obj["vertices"]
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


def _vec2_from_json(row):
    return (rat_from_str(row[0]), rat_from_str(row[1]))


def _vec2_to_json(v) -> list:
    return [rat_str(x) for x in v]


def complex_from_json(obj) -> PolyComplex:
    validate(obj, COMPLEX_SCHEMA, "complex")
    cells = []
    for c in obj["cells"]:
        pts = [_vec2_from_json(p) for p in c["points"]]
        rays = [_vec2_from_json(r) for r in c.get("rays", ())]
        try:
            cells.append(Polyhedron(pts, rays))
        except ValueError as ex:
            raise SchemaError(str(ex)) from None
    try:
        return PolyComplex(cells)
    except ToricError as ex:
        raise SchemaError(str(ex)) from None


def complex_to_json(pc: PolyComplex) -> dict:
    return {
        "dim": 2,
        "cells": [
            {
                "points": [_vec2_to_json(p) for p in cell.gen_points],
                "rays": [_vec2_to_json(r) for r in cell.gen_rays],
            }
            for cell in pc.cells
        ],
    }


def toric_plf_from_json(pc: PolyComplex, obj) -> ToricPLFunction:
    validate(obj, TORIC_PLF_SCHEMA, "pl function")
    pieces = [
        (_vec2_from_json(row["grad"]), rat_from_str(row["const"]))
        for row in obj["pieces"]
    ]
    try:
        return ToricPLFunction(pc, pieces)
    except ToricError as ex:
        raise SchemaError(str(ex)) from None


def toric_plf_to_json(f: ToricPLFunction) -> dict:
    return {
        "pieces": [
            {"grad": _vec2_to_json(grad), "const": rat_str(c)}
            for grad, c in f.pieces
        ]
    }


def toric_measure_to_json(mu: ToricAtomicMeasure) -> dict:
    return {
        "atoms": [
            {"point": _vec2_to_json(pt), "mass": rat_str(m)} for pt, m in mu.atoms
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


def loads(text: str):
    try:
        return json.loads(text, parse_float=_reject_float, parse_constant=_reject_float)
    except json.JSONDecodeError as ex:
        raise SchemaError(f"invalid JSON: {ex}") from None


def assert_no_floats(obj, where: str = "$") -> None:
    if isinstance(obj, float):
        raise SchemaError(f"float at {where}")
    if isinstance(obj, dict):
        for k, v in obj.items():
            assert_no_floats(v, f"{where}.{k}")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            assert_no_floats(v, f"{where}[{i}]")


def dumps(obj) -> str:
    """Canonical serialization: sorted keys, 2-space indent, newline at end,
    reproducible byte-for-byte for equal input."""
    assert_no_floats(obj)
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
