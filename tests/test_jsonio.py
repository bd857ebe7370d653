"""Wire-format round trips and rejection paths."""

import os
import pathlib
import random
import subprocess
import sys

import pytest

from skelpot import jsonio
from skelpot.graphs import MetrizedGraph, pl_equal
from skelpot.jsonio import SchemaError
from skelpot.rat import Rat
from skelpot.toric import pl_functions_equal
from skelpot.fixtures import counterexample_fixture

from helpers import rand_graph, rand_nef_theta, rand_plf


def test_rat_from_str():
    assert jsonio.rat_from_str("3") == 3
    assert jsonio.rat_from_str("-1/2") == Rat(-1, 2)
    for bad in ("1.5", "1e3", "", "1/0", "--3", " 1", None, 5):
        with pytest.raises(SchemaError):
            jsonio.rat_from_str(bad)


def test_graph_round_trip():
    rng = random.Random(61)
    for _ in range(25):
        g = rand_graph(rng)
        theta = rand_nef_theta(rng, g)
        obj = jsonio.graph_to_json(g, theta)
        g2, theta2 = jsonio.graph_from_json(obj)
        assert g2 == g
        assert theta2.degrees == theta.degrees
        # and the encoding is stable
        assert jsonio.graph_to_json(g2, theta2) == obj


def test_graph_decoding_defaults():
    obj = {
        "vertices": ["a", "b"],
        "edges": [{"a": "a", "b": "b", "len": "2"}],  # no "w"
        "theta": {"a": "1"},  # b defaults to 0
    }
    g, theta = jsonio.graph_from_json(obj)
    assert g.edges[0][3] == 1
    assert theta.degrees == (Rat(1), Rat(0))


def test_graph_rejections():
    base = {
        "vertices": ["a", "b"],
        "edges": [{"a": "a", "b": "b", "len": "1"}],
    }
    bad = [
        {**base, "vertices": ["a", "a"]},  # duplicate names
        {**base, "edges": [{"a": "a", "b": "zz", "len": "1"}]},  # unknown endpoint
        {**base, "edges": [{"a": "a", "b": "b", "len": "0"}]},  # zero length
        {**base, "edges": [{"a": "a", "b": "b", "len": "1", "w": 0}]},  # weight 0
        {**base, "theta": {"zz": "1"}},  # theta key not a vertex
        {**base, "extra": 1},  # additionalProperties
        {"vertices": ["a", "b"]},  # missing edges
        {**base, "edges": [{"a": "a", "b": "b", "len": 1}]},  # numeric len
    ]
    for obj in bad:
        with pytest.raises(SchemaError):
            jsonio.graph_from_json(obj)
    # disconnected
    with pytest.raises(SchemaError):
        jsonio.graph_from_json({"vertices": ["a", "b"], "edges": []})


def test_plf_round_trip():
    rng = random.Random(62)
    for _ in range(25):
        g = rand_graph(rng)
        f = rand_plf(rng, g)
        obj = jsonio.plf_to_json(f)
        f2 = jsonio.plf_from_json(g, obj)
        assert pl_equal(f2, f)
        assert jsonio.plf_to_json(f2) == obj


def test_plf_rejections():
    g = MetrizedGraph(["a", "b"], [(0, 1, 2, 1)])
    ok = {"vertex_values": {"a": "0", "b": "1"}}
    jsonio.plf_from_json(g, ok)
    bad = [
        {"vertex_values": {"a": "0"}},  # missing vertex
        {"vertex_values": {"a": "0", "b": "1", "c": "2"}},  # unknown vertex
        {"vertex_values": {"a": "0", "b": "1"},
         "breakpoints": [{"edge": 1, "offset": "1", "value": "0"}]},  # edge oob
        {"vertex_values": {"a": "0", "b": "1"},
         "breakpoints": [{"edge": 0, "offset": "5", "value": "0"}]},  # offset > len
        {"vertex_values": {"a": "0", "b": "1"},
         "breakpoints": [{"edge": 0, "offset": "0", "value": "0"}]},  # offset at end
    ]
    for obj in bad:
        with pytest.raises(SchemaError):
            jsonio.plf_from_json(g, obj)


def test_measure_round_trip_and_points():
    g = MetrizedGraph(["a", "b"], [(0, 1, 2, 1)])
    obj = {
        "atoms": [
            {"point": {"vertex": "a"}, "mass": "1/2"},
            {"point": {"edge": 0, "offset": "1"}, "mass": "3"},
        ]
    }
    mu = jsonio.measure_from_json(g, obj)
    assert mu.total_mass() == Rat(7, 2)
    assert jsonio.measure_to_json(mu) == obj
    with pytest.raises(SchemaError):
        jsonio.point_from_json(g, {"vertex": "zz"})
    with pytest.raises(SchemaError):
        jsonio.point_from_json(g, {"edge": 7, "offset": "1"})
    with pytest.raises(SchemaError):
        jsonio.point_from_json(g, {"edge": 0})  # schema: offset required


def test_complex_round_trip():
    fx = counterexample_fixture()
    for pc in (fx.pi, fx.pi_prime):
        obj = jsonio.complex_to_json(pc)
        pc2 = jsonio.complex_from_json(obj)
        assert len(pc2.cells) == len(pc.cells)
        assert jsonio.complex_to_json(pc2) == obj


def test_toric_plf_round_trip():
    fx = counterexample_fixture()
    for f in (fx.f.add_support(fx.psi), fx.f_prime.add_support(fx.psi)):
        obj = jsonio.toric_plf_to_json(f)
        f2 = jsonio.toric_plf_from_json(f.complex, obj)
        assert pl_functions_equal(f2, f)
        assert jsonio.toric_plf_to_json(f2) == obj
    # piece count must match the cell count
    with pytest.raises(SchemaError):
        jsonio.toric_plf_from_json(fx.pi, {"pieces": [{"grad": ["1", "0"], "const": "0"}]})


def test_ideal_round_trip():
    obj = {"n": 2, "gens": [[0, 2], [3, 0]]}
    a = jsonio.ideal_from_json(obj)
    assert jsonio.ideal_to_json(a) == obj
    with pytest.raises(SchemaError):
        jsonio.ideal_from_json({"n": 2, "gens": [[1, 2, 3]]})  # wrong arity
    with pytest.raises(SchemaError):
        jsonio.ideal_from_json({"n": 0, "gens": []})


def test_loads_rejects_floats():
    for text in ('{"x": 1.5}', '{"x": 1e3}', "[NaN]", "[Infinity]"):
        with pytest.raises(SchemaError):
            jsonio.loads(text)
    assert jsonio.loads('{"x": "1/2", "n": 3}') == {"x": "1/2", "n": 3}
    with pytest.raises(SchemaError):
        jsonio.loads("{not json")


def test_dumps_canonical():
    obj = {"b": [1, 2], "a": "1/2"}
    text = jsonio.dumps(obj)
    assert text == '{\n  "a": "1/2",\n  "b": [\n    1,\n    2\n  ]\n}\n'
    assert jsonio.dumps({"a": "1/2", "b": [1, 2]}) == text  # key order irrelevant
    with pytest.raises(SchemaError):
        jsonio.dumps({"a": 0.5})
    with pytest.raises(SchemaError):
        jsonio.dumps({"a": [1, [2, 3.0]]})


@pytest.mark.parametrize(
    "obj, schema",
    [
        ({"edge": 0}, jsonio.POINT_SCHEMA),
        ({"vertex": 3}, jsonio.POINT_SCHEMA),
        ({"edge": -1, "offset": "1.5"}, jsonio.POINT_SCHEMA),
        ({"vertices": [], "edges": [{"a": "x"}]}, jsonio.GRAPH_SCHEMA),
        ({"n": 0, "gens": [[1, -1]], "x": 1}, jsonio.IDEAL_SCHEMA),
        ({"dim": 3, "cells": [{"points": [["1"]]}]}, jsonio.COMPLEX_SCHEMA),
    ],
)
def test_validate_reports_jsonschemas_best_match(obj, schema):
    """The prebuilt validators report the error jsonschema.validate raises."""
    jsonschema = pytest.importorskip("jsonschema")
    with pytest.raises(jsonschema.ValidationError) as ref:
        jsonschema.validate(obj, schema, cls=jsonschema.Draft202012Validator)
    path = "/".join(str(k) for k in ref.value.absolute_path) or "."
    for _ in range(2):  # the second call reuses the cached validator
        with pytest.raises(SchemaError) as got:
            jsonio.validate(obj, schema, "x")
        assert str(got.value) == f"x at {path}: {ref.value.message}"


def test_jsonschema_is_imported_on_first_validation():
    """Importing the package and its CLI leaves jsonschema unloaded; the
    first validation loads it."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, skelpot, skelpot.cli\n"
        "print('jsonschema' in sys.modules)\n"
        "skelpot.jsonio.validate(1, skelpot.jsonio.RAT_SCHEMA, 'x')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.stdout == "False\n"
    assert "SchemaError: x at .: 1 is not of type 'string'" in proc.stderr
