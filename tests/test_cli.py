"""End-to-end CLI: exit codes, error JSON on stderr, reproducible outputs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from skelpot import jsonio

from helpers import int_from_digits

RUN = [sys.executable, "-m", "skelpot.cli"]


def cli(*args, **kw):
    return subprocess.run(
        RUN + list(args), capture_output=True, text=True, timeout=120, **kw
    )


def write_scenario(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(jsonio.dumps(obj), encoding="utf-8")
    return str(path)


ENVELOPE_EDGE = {
    "kind": "curve-envelope",
    "graph": {
        "vertices": ["a", "b"],
        "edges": [{"a": "a", "b": "b", "len": "1", "w": 1}],
        "theta": {"a": "1", "b": "0"},
    },
    "f": {"vertex_values": {"a": "0", "b": "-2"}},
}


def test_run_envelope_scenario(tmp_path):
    path = write_scenario(tmp_path, "s.json", ENVELOPE_EDGE)
    out = tmp_path / "out"
    r = cli("run", path, "--out", str(out))
    assert r.returncode == 0, r.stderr
    result = json.loads((out / "result.json").read_text())
    assert result["kind"] == "curve-envelope"
    assert result["envelope"]["vertex_values"] == {"a": "-1", "b": "-2"}
    assert (out / "input.svg").exists() and (out / "envelope.svg").exists()
    # stdout lists what was written
    assert "result.json" in r.stdout


def test_rerun_is_byte_identical(tmp_path):
    path = write_scenario(tmp_path, "s.json", ENVELOPE_EDGE)
    blobs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        r = cli("run", path, "--out", str(out))
        assert r.returncode == 0
        blobs.append(
            [(p.name, p.read_bytes()) for p in sorted(out.iterdir())]
        )
    assert blobs[0] == blobs[1]


def test_builtin_scenario_runs(tmp_path):
    r = cli("run", "envelope_edge.json", "--out", str(tmp_path), "--format", "json")
    assert r.returncode == 0, r.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["envelope"]["vertex_values"] == {"a": "-1", "b": "-2"}
    assert not list(tmp_path.glob("*.svg"))  # --format json suppresses figures


def _stderr_error(r):
    err = json.loads(r.stderr)["error"]
    assert err["exit_code"] == r.returncode
    return err


def test_validation_exit_2(tmp_path):
    # malformed rational "1/0"
    bad = dict(ENVELOPE_EDGE)
    bad["f"] = {"vertex_values": {"a": "1/0", "b": "0"}}
    r = cli("run", write_scenario(tmp_path, "b.json", bad), "--out", str(tmp_path))
    assert r.returncode == 2
    assert _stderr_error(r)["kind"] == "validation"

    # unknown kind
    r = cli(
        "run",
        write_scenario(tmp_path, "k.json", {"kind": "nope"}),
        "--out", str(tmp_path),
    )
    assert r.returncode == 2

    # not a file, not a built-in
    r = cli("run", "no-such-scenario", "--out", str(tmp_path))
    assert r.returncode == 2

    # bad bbox
    r = cli("run", "envelope_edge.json", "--bbox", "-1", "--out", str(tmp_path))
    assert r.returncode == 2

    # missing subcommand / argparse errors also follow the contract
    r = cli()
    assert r.returncode == 2
    assert _stderr_error(r)["kind"] == "validation"


def test_rational_with_trailing_newline_exit_2(tmp_path):
    """A wire rational must be the whole string: "1\\n" is not "1"."""
    bad = json.loads(json.dumps(ENVELOPE_EDGE))
    bad["graph"]["edges"][0]["len"] = "1\n"
    r = cli("run", write_scenario(tmp_path, "n.json", bad), "--out", str(tmp_path))
    assert r.returncode == 2
    err = _stderr_error(r)
    assert err["kind"] == "validation"
    assert "not a rational string" in err["message"]
    with pytest.raises(jsonio.SchemaError):
        jsonio.rat_from_str("3\n")


def test_infeasible_exit_3(tmp_path):
    bad = {
        "kind": "curve-envelope",
        "graph": {
            "vertices": ["a", "b"],
            "edges": [{"a": "a", "b": "b", "len": "1", "w": 1}],
            "theta": {"a": "-1", "b": "0"},  # negative total mass
        },
        "f": {"vertex_values": {"a": "0", "b": "0"}},
    }
    r = cli("run", write_scenario(tmp_path, "i.json", bad), "--out", str(tmp_path))
    assert r.returncode == 3
    assert _stderr_error(r)["kind"] == "infeasible"

    mismatch = {
        "kind": "curve-solve-ma",
        "graph": {
            "vertices": ["a", "b"],
            "edges": [{"a": "a", "b": "b", "len": "1", "w": 1}],
            "theta": {"a": "1", "b": "1"},
        },
        "measure": {"atoms": [{"point": {"vertex": "a"}, "mass": "1"}]},  # total 1 != 2
    }
    r = cli("run", write_scenario(tmp_path, "m.json", mismatch), "--out", str(tmp_path))
    assert r.returncode == 3


def test_nonconcave_toric_ma_exit_3(tmp_path):
    """The benchmark generator's first toric-concavity file (seed 0), a
    moved Pi with a scaled f + psi, run as toric-ma: the message names the
    cells and the witness point in the wire format."""
    cells = [
        ([["-1", "1"], ["-1", "0"], ["-2", "0"]], []),
        ([["-1", "1"], ["-1", "0"]], [["1", "-1"]]),
        ([["-2", "0"], ["-1", "1"]], [["0", "1"]]),
        ([["-1", "1"]], [["0", "1"], ["1", "-1"]]),
        ([["-2", "0"], ["-1", "0"]], [["1", "-1"]]),
        ([["-2", "0"]], [["0", "1"], ["-1", "0"]]),
        ([["-2", "0"]], [["-1", "0"], ["1", "-1"]]),
    ]
    pieces = [
        (["1/3", "10/3"], "7/3"),
        (["1/3", "10/3"], "7/3"),
        (["16/3", "-5/3"], "37/3"),
        (["-14/3", "-5/3"], "7/3"),
        (["1/3", "10/3"], "7/3"),
        (["1/3", "-5/3"], "7/3"),
        (["1/3", "10/3"], "7/3"),
    ]
    scenario = {
        "kind": "toric-ma",
        "complex": {"dim": 2, "cells": [{"points": p, "rays": r} for p, r in cells]},
        "function": {"pieces": [{"grad": g, "const": c} for g, c in pieces]},
    }
    r = cli("run", write_scenario(tmp_path, "ma.json", scenario), "--out", str(tmp_path))
    assert r.returncode == 3
    assert _stderr_error(r) == {
        "exit_code": 3,
        "kind": "infeasible",
        "message": "function is not concave: the piece of cell 2 lies below it at (-3, 0), in cell 5",
    }


def test_lp_cap_env_var(tmp_path):
    import os

    env = dict(os.environ, SKELPOT_MAX_LP_VARS="1")
    path = write_scenario(tmp_path, "s.json", ENVELOPE_EDGE)
    r = cli("run", path, "--out", str(tmp_path), env=env)
    assert r.returncode == 2
    assert "SKELPOT_MAX_LP_VARS" in _stderr_error(r)["message"]

    env["SKELPOT_MAX_LP_VARS"] = "banana"
    r = cli("run", path, "--out", str(tmp_path), env=env)
    assert r.returncode == 2



def _solve_ma_grid(k):
    """curve-solve-ma on a k x k unit grid: theta 1 at every vertex, mass 1
    on one edge's midpoint and the rest at the first vertex."""
    names = [f"v{i}_{j}" for i in range(k) for j in range(k)]
    edges = [
        {"a": f"v{i}_{j}", "b": f"v{i + di}_{j + dj}", "len": "1", "w": 1}
        for i in range(k)
        for j in range(k)
        for di, dj in ((0, 1), (1, 0))
        if i + di < k and j + dj < k
    ]
    return {
        "kind": "curve-solve-ma",
        "graph": {"vertices": names, "edges": edges, "theta": dict.fromkeys(names, "1")},
        "measure": {"atoms": [
            {"point": {"vertex": names[0]}, "mass": str(k * k - 1)},
            {"point": {"edge": 0, "offset": "1/2"}, "mass": "1"},
        ]},
    }


def test_lp_cap_covers_solve_ma(tmp_path):
    """The cap counts solve_ma's sample points: 25 vertices and 1 interior atom."""
    import os

    path = write_scenario(tmp_path, "ma.json", _solve_ma_grid(5))
    r = cli("run", path, "--out", str(tmp_path / "ok"))
    assert r.returncode == 0, r.stderr
    env = dict(os.environ, SKELPOT_MAX_LP_VARS="1")
    r = cli("run", path, "--out", str(tmp_path / "capped"), env=env)
    assert r.returncode == 2
    err = _stderr_error(r)
    assert err["kind"] == "validation"
    assert err["message"] == (
        "solve_ma needs 26 sample points (vertices and interior points), "
        "above the cap of 1 (raise SKELPOT_MAX_LP_VARS)"
    )

_LINE = [["1", "0"], ["-1", "0"]]


@pytest.mark.parametrize(
    "cells",
    [
        # minimalize used to drop both points and fail (exit 1)
        [{"points": [["0", "0"], ["1", "0"]], "rays": _LINE + [["0", "1"]]}],
        # upper and lower half-planes: "region is not pointed" (exit 1)
        [
            {"points": [["0", "0"]], "rays": _LINE + [["0", "1"]]},
            {"points": [["0", "0"]], "rays": _LINE + [["0", "-1"]]},
        ],
        [{"points": [["0", "0"]], "rays": _LINE + [["0", "1"]]}],
    ],
)
def test_cell_containing_a_line_exit_2(tmp_path, cells):
    s = {"kind": "toric-skeleton", "complex": {"dim": 2, "cells": cells}}
    r = cli("run", write_scenario(tmp_path, "line.json", s), "--out", str(tmp_path))
    assert r.returncode == 2
    err = _stderr_error(r)
    assert err["kind"] == "validation"
    assert err["message"] == "cell 0 contains a line"


def _skeleton_pi():
    return jsonio.loads(
        (Path(jsonio.__file__).parent / "data" / "skeleton_pi.json").read_text()
    )


@pytest.mark.parametrize("kind", [[], {}], ids=["list", "object"])
def test_non_string_kind_exit_2(tmp_path, kind):
    s = _skeleton_pi()
    s["kind"] = kind  # unhashable, so rejected before the kind-table lookup
    r = cli("run", write_scenario(tmp_path, "k.json", s), "--out", str(tmp_path))
    assert r.returncode == 2
    err = _stderr_error(r)
    assert err["kind"] == "validation"
    assert err["message"] == f"unknown scenario kind {kind!r}"


def test_cell_spanning_a_line_exit_2(tmp_path):
    s = _skeleton_pi()
    s["complex"]["cells"][0] = {"points": [["0", "1"]], "rays": [["0", "1"]]}
    r = cli("run", write_scenario(tmp_path, "c.json", s), "--out", str(tmp_path))
    assert r.returncode == 2
    err = _stderr_error(r)
    assert err["kind"] == "validation"
    assert err["message"] == "cell 0 is not 2-dimensional"


def test_list_scenarios():
    r = cli("list-scenarios")
    assert r.returncode == 0
    rows = dict(line.split("\t") for line in r.stdout.splitlines())
    assert rows["counterexample.json"] == "toric-counterexample"
    assert rows["envelope_edge.json"] == "curve-envelope"
    assert len(rows) >= 5


def test_counterexample_builtin(tmp_path):
    r = cli("run", "counterexample.json", "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["skeletons_equal_unit_triangle"] is True
    assert result["sum_with_f_prime_is_concave"] is True
    assert result["sum_with_f_is_concave"] is False
    assert result["ma_is_unit_atom_at_1_0"] is True
    assert result["restrictions_to_skeleton_agree"] is True
    assert result["functions_differ"] is True
    for name in ("pi.svg", "pi_prime.svg", "delta.svg"):
        assert (tmp_path / name).exists()


def test_testideal_scenario(tmp_path):
    s = {"kind": "testideal", "n": 2, "p": 2, "gens": [[1, 1]], "lambda": "5/2"}
    r = cli("run", write_scenario(tmp_path, "t.json", s), "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["test_ideal"] == {"n": 2, "gens": [[2, 2]]}
    assert result["newton_agrees"] is True

    s["p"] = 4  # not prime
    r = cli("run", write_scenario(tmp_path, "t4.json", s), "--out", str(tmp_path))
    assert r.returncode == 2


def test_failing_newton_certificate_reports_false_and_exits_0(tmp_path, monkeypatch):
    """A wrong chain-route answer is reported, not raised: newton_agrees is
    false and the run exits 0."""
    from skelpot import cli as cli_mod, scenarios
    from skelpot.testideals import unit_ideal

    monkeypatch.setattr(scenarios, "test_ideal", lambda a, lam, p: unit_ideal(a.n))
    assert cli_mod.main(["run", "testideal_basic.json", "--out", str(tmp_path), "--format", "json"]) == 0
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["test_ideal"] == {"n": 2, "gens": [[0, 0]]}
    assert result["newton_agrees"] is False


def test_testideal_large_prime(tmp_path):
    s = {"kind": "testideal", "n": 2, "p": 2**61 - 1,
         "gens": [[2, 0], [1, 1], [0, 3]], "lambda": "5/2"}
    r = cli("run", write_scenario(tmp_path, "t.json", s), "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["newton_agrees"] is True

    s["p"] = 3317044064679887385961981  # past the exact Miller-Rabin range
    r = cli("run", write_scenario(tmp_path, "big.json", s), "--out", str(tmp_path))
    assert r.returncode == 2
    assert "3317044064679887385961981" in _stderr_error(r)["message"]



@pytest.mark.parametrize(
    "gens, p, expected",
    [([[2**k, 0], [1, 1], [0, 2]], 2, [[0, 1], [1, 0]]) for k in (20, 40, 70)]
    + [([[2**40, 0, 0], [0, 3, 0], [0, 0, 3]], 3, [[0, 0, 1], [0, 1, 0], [2**40 // 3, 0, 0]])],
    ids=["20", "40", "70", "n3-2^40"],
)
def test_testideal_huge_exponent_exit_0(tmp_path, gens, p, expected):
    """testideal_basic.json with x^2 raised to x^(2^k), and the three-variable
    (x^(2^40), y^3, z^3) at p = 3: in process, exit 0 with the expected
    ideal on both routes.  A chain route that walks the query box ran 4 s
    at 2^20 and exited 1 at 2^40 (MemoryError) and 2^70 (OverflowError); a
    Newton route that sliced every t ran past 55 s on the three-variable
    ideal."""
    from skelpot import cli as cli_mod, scenarios

    s = scenarios.load_builtin("testideal_basic.json")
    s.update(n=len(gens[0]), gens=gens, p=p)
    path = write_scenario(tmp_path, "huge.json", s)
    assert cli_mod.main(["run", path, "--out", str(tmp_path / "out"), "--format", "json"]) == 0
    result = json.loads((tmp_path / "out" / "result.json").read_text())
    assert result["test_ideal"] == {"n": len(gens[0]), "gens": expected}
    assert result["newton_agrees"] is True


def test_integer_with_too_many_digits_exit_2(tmp_path):
    """An integer literal past CPython's 4300-digit conversion limit is a
    validation error naming the limit, not an internal one."""
    from skelpot import scenarios

    text = json.dumps(scenarios.load_builtin("testideal_basic.json"))
    assert text.count('"p": 2') == 1
    path = tmp_path / "p.json"
    path.write_text(text.replace('"p": 2', '"p": ' + "9" * 5000), encoding="utf-8")
    r = cli("run", str(path), "--out", str(tmp_path / "out"))
    assert r.returncode == 2
    err = _stderr_error(r)
    assert err["kind"] == "validation"
    assert "too many digits" in err["message"] and str(jsonio.MAX_RAT_DIGITS) in err["message"]
    assert "sys.set_int_max_str_digits" not in r.stderr


def test_answer_past_the_int_digit_limit_exit_0(tmp_path):
    """Every input number is under MAX_RAT_DIGITS, but the envelope's value
    F(a) = u(b) + len = 1/d2 + 1/d1 has a 4,401-digit denominator: in
    process, result.json is written and the run exits 0.  Serializing the
    answer once ended in exit 1 (ValueError: Exceeds the limit (4300
    digits) for integer string conversion)."""
    from skelpot import cli as cli_mod

    d1, d2 = 10**2200 + 1, 10**2200 + 3
    s = json.loads(json.dumps(ENVELOPE_EDGE))
    s["graph"]["edges"][0]["len"] = f"1/{d1}"
    s["f"]["vertex_values"] = {"a": "1", "b": f"1/{d2}"}
    path = write_scenario(tmp_path, "big.json", s)
    assert cli_mod.main(["run", path, "--out", str(tmp_path / "out")]) == 0
    result = json.loads((tmp_path / "out" / "result.json").read_text())
    num, den = result["envelope"]["vertex_values"]["a"].split("/")
    assert len(den) == 4401
    assert (int_from_digits(num), int_from_digits(den)) == (d1 + d2, d1 * d2)


def test_testideal_rejects_four_variables(tmp_path):
    s = {"kind": "testideal", "n": 4, "p": 2, "gens": [[1, 0, 0, 1]], "lambda": "1"}
    r = cli("run", write_scenario(tmp_path, "t.json", s), "--out", str(tmp_path))
    assert r.returncode == 2
    assert _stderr_error(r)["kind"] == "validation"


_HUGE = "1" + "0" * 5000  # past CPython's 4300-digit int conversion limit


def _assert_too_many_digits(r):
    assert r.returncode == 2
    err = _stderr_error(r)
    assert err["kind"] == "validation"
    assert "too many digits" in err["message"]
    assert "sys.set_int_max_str_digits" not in r.stderr


def test_huge_rational_in_curve_file_exit_2(tmp_path):
    s = json.loads(json.dumps(ENVELOPE_EDGE))
    s["graph"]["theta"]["a"] = _HUGE
    r = cli("run", write_scenario(tmp_path, "h.json", s), "--out", str(tmp_path))
    _assert_too_many_digits(r)

    s["graph"]["theta"]["a"] = "1/" + _HUGE  # denominators count too
    r = cli("run", write_scenario(tmp_path, "d.json", s), "--out", str(tmp_path))
    _assert_too_many_digits(r)


def test_huge_rational_in_toric_file_exit_2(tmp_path):
    s = _skeleton_pi()
    s["complex"]["cells"][0]["points"][0][0] = "-" + _HUGE
    r = cli("run", write_scenario(tmp_path, "t.json", s), "--out", str(tmp_path))
    _assert_too_many_digits(r)


def test_rational_at_the_digit_limit_is_accepted():
    limit = jsonio.MAX_RAT_DIGITS
    assert jsonio.rat_from_str("9" * limit) == 10**limit - 1
    with pytest.raises(jsonio.SchemaError, match="too many digits"):
        jsonio.rat_from_str("9" * (limit + 1))


def test_result_json_has_no_floats(tmp_path):
    for builtin in ("envelope_edge.json", "ma_star.json", "skeleton_pi.json",
                    "testideal_basic.json", "counterexample.json"):
        out = tmp_path / builtin.replace(".json", "")
        r = cli("run", builtin, "--out", str(out), "--format", "json")
        assert r.returncode == 0, r.stderr
        text = (out / "result.json").read_text()
        jsonio.assert_no_floats(jsonio.loads(text))  # loads itself rejects floats


def _envelope_edge_named(label):
    """ENVELOPE_EDGE with vertex "a" renamed to label, as JSON text whose
    non-ASCII characters (lone surrogates too) are escapes."""
    s = json.loads(json.dumps(ENVELOPE_EDGE))
    s["graph"]["vertices"][0] = s["graph"]["edges"][0]["a"] = label
    s["graph"]["theta"] = {label: "1", "b": "0"}
    s["f"]["vertex_values"] = {label: "0", "b": "-2"}
    return json.dumps(s)


@pytest.mark.parametrize("label", ["a\ud800", "\udfff", "a\udbff\udbff"])
def test_lone_surrogate_exit_2(tmp_path, capsys, label):
    """A lone surrogate in a vertex name, a theta key or a breakpoint value
    is a validation error naming its path; UTF-8 cannot write it to
    result.json, which used to end the run in exit 1."""
    from skelpot import cli as cli_mod

    path = tmp_path / "s.json"
    path.write_text(_envelope_edge_named(label), encoding="utf-8")
    assert cli_mod.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "validation"
    assert "string at graph/vertices/0 holds the lone surrogate" in err["message"]
    s = json.loads(json.dumps(ENVELOPE_EDGE))
    s["graph"]["theta"]["b\ud800"] = "0"
    path.write_text(json.dumps(s), encoding="utf-8")
    assert cli_mod.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "key at graph/theta holds the lone surrogate U+D800" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("label", ["a\u0001", "\u0000", "a\u001f", "a\ufffe", "a\uffff", "\u000b"])
def test_vertex_name_outside_xml_exit_2(tmp_path, capsys, label):
    """A vertex name with a character that XML 1.0 forbids would make the
    SVG figures malformed; it is a validation error.  Tab, LF and CR are
    allowed."""
    from skelpot import cli as cli_mod

    path = tmp_path / "s.json"
    path.write_text(_envelope_edge_named(label), encoding="utf-8")
    assert cli_mod.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "validation"
    assert err["message"].startswith("graph at vertices/0: vertex name")
    assert f"U+{ord(label[-1]):04X}" in err["message"]
    path.write_text(_envelope_edge_named("a\t\n\r"), encoding="utf-8")
    assert cli_mod.main(["run", str(path), "--out", str(tmp_path / "ok")]) == 0


def test_main_keeps_its_contract_across_calls(tmp_path, capsys):
    """The parser is built once per process; in-process calls still get
    their own exit codes and error JSON: a good run, then a bad --format,
    then an unknown built-in."""
    from skelpot import cli as cli_mod

    assert cli_mod._build_parser() is cli_mod._build_parser()
    out = tmp_path / "out"
    assert cli_mod.main(["run", "envelope_edge.json", "--out", str(out), "--format", "json"]) == 0
    assert (out / "result.json").exists() and not list(out.glob("*.svg"))
    capsys.readouterr()
    assert cli_mod.main(["run", "envelope_edge.json", "--out", str(out), "--format", "pdf"]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "validation" and "--format" in err["message"]
    assert cli_mod.main(["run", "no_such_builtin.json", "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {
        "exit_code": 2,
        "kind": "validation",
        "message": "'no_such_builtin.json' is neither a file nor a built-in scenario",
    }
    assert cli_mod.main(["run", "envelope_edge.json", "--out", str(out / "again")]) == 0


def test_main_maps_each_failure_class_to_its_exit_code(tmp_path, capsys, monkeypatch):
    """Each class of the failure table, and a subclass listed before its
    base, gets its own exit code and kind; anything else is internal, with
    its class name in the message."""
    from skelpot import cli as cli_mod, scenarios
    from skelpot.potential import EnvelopeInfeasible, MassMismatch, PotentialError
    from skelpot.testideals import TestIdealError
    from skelpot.toric import ComplexInvalid, ToricError

    cases = [
        (jsonio.SchemaError("s"), 2, "validation", "s"),
        (ComplexInvalid("c"), 2, "validation", "c"),
        (EnvelopeInfeasible("e"), 3, "infeasible", "e"),
        (MassMismatch("m"), 3, "infeasible", "m"),
        (ToricError("t"), 3, "infeasible", "t"),
        (TestIdealError("i"), 3, "infeasible", "i"),
        (FileNotFoundError("f"), 2, "validation", "f"),
        (PotentialError("p"), 1, "internal", "p"),
        (KeyError("k"), 1, "internal", "KeyError: 'k'"),
    ]
    for ex, code, kind, message in cases:
        def fail(*args, ex=ex, **kwargs):
            raise ex

        monkeypatch.setattr(scenarios, "execute", fail)
        assert cli_mod.main(["run", "envelope_edge.json", "--out", str(tmp_path)]) == code
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"exit_code": code, "kind": kind, "message": message}
    # no class in the table is shadowed by an earlier row
    for k, (classes, _, _) in enumerate(cli_mod._FAILURES):
        for earlier, _, _ in cli_mod._FAILURES[:k]:
            assert not any(issubclass(c, earlier) for c in classes)
