"""Wire-format round trips and rejection paths."""

import copy
import functools
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelpot import jsonio, scenarios
from skelpot.graphs import MetrizedGraph, pl_equal
from skelpot.jsonio import SchemaError
from skelpot.rat import Rat
from skelpot.toric import pl_functions_equal
from skelpot.fixtures import counterexample_fixture

from helpers import rand_graph, rand_nef_theta, rand_plf, rand_proper_ideal


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


def test_float_message_names_its_path():
    """A float nested in a dict, a list and a tuple is named by its path;
    of several, the first in document order."""
    cases = (
        ({"a": [1, {"b": (2, 0.5)}]}, "float at $.a[1].b[1]"),
        ({"a": 1, "b": [(0, "x"), {"c": 1.5}], "d": 2.5}, "float at $.b[1].c"),
        ([({"k": 3.0},)], "float at $[0][0].k"),
        (0.5, "float at $"),
    )
    for obj, message in cases:
        with pytest.raises(SchemaError, match=re.escape(message) + "$"):
            jsonio.assert_no_floats(obj)
        with pytest.raises(SchemaError, match=re.escape(message) + "$"):
            jsonio.dumps(obj)
    jsonio.assert_no_floats({"a": [1, (2, "1/2")], "b": None, "c": True})


def test_loads_rejects_lone_surrogates():
    """A surrogate pair escape is one code point and passes; a lone
    surrogate, escaped or already in the str, is a SchemaError naming
    where it sits."""
    assert jsonio.loads('{"a": "\\ud83d\\ude00"}') == {"a": "\U0001F600"}
    assert jsonio.loads('["\\\\ud800"]') == ["\\ud800"]  # a backslash, then "ud800"
    assert jsonio.loads('{"é": ["ü"]}') == {"é": ["ü"]}
    cases = (
        ('{"a": ["x", "\\ud800"]}', "string at a/1 holds the lone surrogate U+D800"),
        ('{"a": {"\\udc00": "1"}}', "key at a holds the lone surrogate U+DC00"),
        ('["\\ud83d\\ud83d"]', "string at 0 holds the lone surrogate U+D83D"),
        ('"\udfff"', "string at . holds the lone surrogate U+DFFF"),
    )
    for text, message in cases:
        with pytest.raises(SchemaError, match=re.escape(message)):
            jsonio.loads(text)


def test_dumps_canonical():
    obj = {"b": [1, 2], "a": "1/2"}
    text = jsonio.dumps(obj)
    assert text == '{\n  "a": "1/2",\n  "b": [\n    1,\n    2\n  ]\n}\n'
    assert jsonio.dumps({"a": "1/2", "b": [1, 2]}) == text  # key order irrelevant
    with pytest.raises(SchemaError):
        jsonio.dumps({"a": 0.5})
    with pytest.raises(SchemaError):
        jsonio.dumps({"a": [1, [2, 3.0]]})




# ---------------------------------------------------------------------------
# validate against jsonschema, the reference implementation of JSON Schema
# ---------------------------------------------------------------------------

KEYWORDS = {
    "type", "properties", "required", "additionalProperties", "items", "minItems",
    "maxItems", "minimum", "maximum", "pattern", "const", "oneOf",
}

CODEC_SCHEMAS = {
    "graph": jsonio.GRAPH_SCHEMA,
    "f": jsonio.PLF_SCHEMA,
    "g": jsonio.PLF_SCHEMA,
    "measure": jsonio.MEASURE_SCHEMA,
    "complex": jsonio.COMPLEX_SCHEMA,
    "function": jsonio.TORIC_PLF_SCHEMA,
    "points": scenarios._POINTS_SCHEMA,
}


def _subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    for key in ("additionalProperties", "items"):
        if isinstance(schema.get(key), dict):
            yield from _subschemas(schema[key])
    for sub in schema.get("oneOf", ()):
        yield from _subschemas(sub)


def test_schemas_use_exactly_the_interpreted_keywords():
    roots = [v for k, v in vars(jsonio).items() if k.endswith("_SCHEMA")]
    roots += [schema for schema, _ in scenarios._KINDS.values()] + [scenarios._POINTS_SCHEMA]
    used = [s for root in roots for s in _subschemas(root)]
    assert set().union(*used) == KEYWORDS == jsonio._KEYWORDS
    assert {s["type"] for s in used if "type" in s} == set(jsonio._TYPES)
    # an unknown keyword is a fault of the program: not a SchemaError,
    # so the CLI exits 1, also when it sits below the root
    for obj, schema in [
        ("2026-10-19", {"format": "date"}),
        ({"a": "x"}, {"properties": {"a": {"type": "string", "format": "date"}}}),
    ]:
        with pytest.raises(TypeError, match="format"):
            jsonio.validate(obj, schema)


class _Reference:
    """jsonschema's Draft 2020-12 verdict next to validate's."""

    def __init__(self):
        self.jsonschema = pytest.importorskip("jsonschema")
        self.validators = {}

    def check(self, obj, schema):
        """Assert that both validators accept obj, or both reject it and
        validate's path is a prefix of the path of one of jsonschema's
        errors.  Returns whether obj was accepted."""
        v = self.validators.get(id(schema))
        if v is None:
            self.jsonschema.Draft202012Validator.check_schema(schema)
            v = self.validators[id(schema)] = self.jsonschema.Draft202012Validator(schema)
        paths = [[str(k) for k in ex.absolute_path] for ex in v.iter_errors(obj)]
        try:
            jsonio.validate(obj, schema, "x")
        except SchemaError as ex:
            path = str(ex).split(": ", 1)[0].removeprefix("x at ")
            keys = [] if path == "." else path.split("/")
            assert any(p[: len(keys)] == keys for p in paths), (obj, str(ex), paths)
            return False
        assert not paths, (obj, schema, paths)
        return True


@pytest.mark.parametrize(
    "obj, schema, accepted",
    [
        ({"edge": 0}, jsonio.POINT_SCHEMA, False),
        ({"vertex": 3}, jsonio.POINT_SCHEMA, False),
        ({"edge": -1, "offset": "1.5"}, jsonio.POINT_SCHEMA, False),
        ({"vertices": [], "edges": [{"a": "x"}]}, jsonio.GRAPH_SCHEMA, False),
        ({"n": 0, "gens": [[1, -1]], "x": 1}, jsonio.IDEAL_SCHEMA, False),
        ({"dim": 3, "cells": [{"points": [["1"]]}]}, jsonio.COMPLEX_SCHEMA, False),
        ({"edge": True, "offset": "1"}, jsonio.POINT_SCHEMA, False),
        ({"dim": True, "cells": [{"points": [["1", "2"]]}]}, jsonio.COMPLEX_SCHEMA, False),
        ({"pieces": [{"grad": ["1", "0", "2"], "const": "0"}]}, jsonio.TORIC_PLF_SCHEMA,
         False),
        ({"vertex_values": {"a": 1}, "b": 2, "a": 3}, jsonio.PLF_SCHEMA, False),
        # "$" matches before a final newline; rat_from_str rejects "3\n"
        (["3\n", "1"], jsonio.VEC2_SCHEMA, True),
        # the rules behind the schemas above, apart from the combinations
        # that they happen to use
        (1, {"oneOf": [{"type": "integer"}, {"minimum": 0}]}, False),
        (True, {"const": 1}, False),
        ([1, [True]], {"const": [1, [1]]}, False),
        ([1, [True]], {"const": [1, [True]]}, True),
        (True, {"minimum": 2, "maximum": 0}, True),
        (3, {"minimum": 3, "maximum": 3}, True),
        (4, {"minimum": 3, "maximum": 3}, False),
        ({"a": True}, {"additionalProperties": {"type": "integer"}}, False),
    ],
)
def test_validate_agrees_with_jsonschema(obj, schema, accepted):
    assert _Reference().check(obj, schema) == accepted


def _run_builtins_blocking(module, tmp_path):
    """Run every built-in in a fresh interpreter with `module` blocked
    from import; each must exit 0."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        f"sys.modules[{module!r}] = None\n"
        "from skelpot import cli, scenarios\n"
        "codes = {n: cli.main(['run', n, '--out', f'{sys.argv[1]}/{n}'])\n"
        "         for n in scenarios.builtin_names()}\n"
        "print(codes)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    codes = proc.stdout.splitlines()[-1]
    assert codes == str({name: 0 for name in scenarios.builtin_names()})


def test_builtins_run_without_jsonschema(tmp_path):
    """jsonschema is only the tests' reference: every built-in runs with
    it blocked from import."""
    _run_builtins_blocking("jsonschema", tmp_path)


def test_builtins_run_without_dataclasses(tmp_path):
    """The value classes build on rat.Frozen and typing.NamedTuple, so
    every built-in runs with dataclasses (and the inspect, ast and dis it
    pulls in) blocked from import."""
    _run_builtins_blocking("dataclasses", tmp_path)


# Values the mutator swaps in: lists, objects, null, bools, huge integers,
# small integers and bad rationals ("1/0" and "3\n" pass the rational pattern).
_SWAPS = st.one_of(
    st.sampled_from([[], ["1"], {}, {"x": "1"}, None, True, False, 10**40, -(10**40)]),
    st.integers(-2, 4),
    st.sampled_from(["1.5", "1/0", "3\n", "", "-", "1/-2", "1e3", "a", "0", "-1/2"]),
)


@functools.cache
def _toric_parts():
    """(complex, function) pairs of the counterexample fixture as JSON."""
    fx = counterexample_fixture()
    return [
        (jsonio.complex_to_json(pc), jsonio.toric_plf_to_json(f.add_support(fx.psi)))
        for pc, f in ((fx.pi, fx.f), (fx.pi_prime, fx.f_prime))
    ]


def _base_scenario(kind, rng):
    """A schema-valid scenario of this kind, drawn from rng."""
    payload = {}
    if kind.startswith("curve-"):
        g = rand_graph(rng)
        payload["graph"] = jsonio.graph_to_json(g, rand_nef_theta(rng, g))
        for field in {"curve-solve-ma": (), "curve-energy": ("f", "g")}.get(kind, ("f",)):
            payload[field] = jsonio.plf_to_json(rand_plf(rng, g))
    if kind == "curve-solve-ma":
        points = [{"vertex": rng.choice(g.labels)}, {"edge": 0, "offset": "1/3"}]
        payload["measure"] = {"atoms": [{"point": pt, "mass": "1/2"} for pt in points]}
        payload["anchor"] = g.labels[-1]
    if kind.startswith("toric-") and kind != "toric-counterexample":
        payload["complex"], function = rng.choice(_toric_parts())
        if kind in ("toric-concavity", "toric-ma"):
            payload["function"] = function
    if kind == "toric-retract":
        payload["points"] = [[str(rng.randint(-3, 3)), f"{rng.randint(-9, 9)}/4"]
                             for _ in range(rng.randint(1, 3))]
    if kind == "testideal":
        payload = jsonio.ideal_to_json(rand_proper_ideal(rng, rng.choice((2, 3))))
        payload.update(p=rng.choice((2, 3, 5)), comment="seeded")
        payload["lambda"] = f"{rng.randint(0, 9)}/{rng.randint(1, 4)}"
    return copy.deepcopy({"kind": kind, **payload})


def _nodes(obj):
    """Every (container, key) below obj, depth first."""
    keys = obj if isinstance(obj, dict) else range(len(obj)) if isinstance(obj, list) else ()
    for key in keys:
        yield obj, key
        yield from _nodes(obj[key])


def _pairs(scenario, kind):
    """(payload, schema) for the scenario and for every nested object that a
    codec validates on its own."""
    yield scenario, scenarios._KINDS[kind][0]
    if not isinstance(scenario, dict):
        return
    for field, schema in CODEC_SCHEMAS.items():
        if field in scenario:
            yield scenario[field], schema
    if "gens" in scenario:
        yield {k: scenario[k] for k in ("n", "gens") if k in scenario}, jsonio.IDEAL_SCHEMA
    atoms = scenario.get("measure")
    atoms = atoms.get("atoms") if isinstance(atoms, dict) else None
    for atom in atoms if isinstance(atoms, list) else ():
        if isinstance(atom, dict) and "point" in atom:
            yield atom["point"], jsonio.POINT_SCHEMA


def test_validate_agrees_with_jsonschema_on_mutated_scenarios():
    """Built-ins and seeded scenarios of every kind, with one to three
    leaves or subtrees dropped or swapped for another value: validate and
    jsonschema reach the same verdict on the scenario and on each nested
    object a codec validates, and a rejection points into a subtree that
    jsonschema also rejects."""
    ref = _Reference()
    builtins = {name: scenarios.load_builtin(name) for name in scenarios.builtin_names()}
    verdicts = []

    @settings(max_examples=900, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(builtins) + list(scenarios.KINDS)), st.data())
    def check(source, data):
        if source in builtins:
            scenario = copy.deepcopy(builtins[source])
        else:
            scenario = _base_scenario(source, random.Random(data.draw(st.integers(0, 2**32))))
        kind = scenario["kind"]
        for _ in range(data.draw(st.integers(1, 3))):
            nodes = list(_nodes(scenario))
            if not nodes:
                break
            parent, key = data.draw(st.sampled_from(nodes))
            if data.draw(st.booleans()):
                del parent[key]
            else:
                parent[key] = copy.deepcopy(data.draw(_SWAPS))
        verdicts.extend(ref.check(obj, schema) for obj, schema in _pairs(scenario, kind))

    check()
    assert len(verdicts) >= 2000
    assert min(verdicts.count(True), verdicts.count(False)) >= 500, verdicts.count(True)
