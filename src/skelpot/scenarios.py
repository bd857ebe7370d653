"""Scenario execution: a validated JSON payload in, a result dict plus
SVG figures out.  Pure functions of their input, so re-running a scenario
reproduces every output byte."""

from __future__ import annotations

import importlib.resources
from typing import NamedTuple

from . import jsonio
from .fixtures import CELL_LABELS, DELTA, counterexample_fixture
from .jsonio import SchemaError
from .polyhedra import poly_equal
from .potential import energy, envelope, orthogonality_residual, solve_ma
from .rat import Rat, rat_str
from .svg import render_svg
from .testideals import PRIME_LIMIT, is_prime, newton_certifies, test_ideal
from .toric import (
    SupportFn,
    is_concave,
    pl_functions_equal,
    restrict_to_skeleton,
    retraction,
    skeleton,
    support_on_complex,
    toric_ma,
    validate_complex,
)

DEFAULT_MAX_LP_VARS = 512
DEFAULT_BBOX = Rat(3)


class ScenarioOutput(NamedTuple):
    result: dict
    figures: dict  # file name -> svg text


class _Options(NamedTuple):
    bbox: object = DEFAULT_BBOX
    max_lp_vars: int = DEFAULT_MAX_LP_VARS


def _schema(required, optional={}):
    text = {"type": "string"}
    return jsonio._obj({"kind": text, **required}, {"comment": text, **optional})


_ANY = {}  # nested payloads are validated by their own codecs
_POINTS_SCHEMA = {"type": "array", "items": jsonio.VEC2_SCHEMA, "minItems": 1}


def _graph_with_theta(payload):
    g, theta = jsonio.graph_from_json(payload["graph"])
    if theta is None:
        raise SchemaError("this scenario needs a graph with theta data")
    return g, theta


def _check_lp_cap(g, points, opts: _Options, what="envelope") -> None:
    need = g.n_vertices + len(points)
    if need > opts.max_lp_vars:
        raise SchemaError(
            f"{what} needs {need} sample points (vertices and interior points), "
            f"above the cap of {opts.max_lp_vars} (raise SKELPOT_MAX_LP_VARS)"
        )


# ---------------------------------------------------------------------------
# Curve kinds
# ---------------------------------------------------------------------------


def _run_curve_envelope(payload, opts: _Options) -> ScenarioOutput:
    g, theta = _graph_with_theta(payload)
    u = jsonio.plf_from_json(g, payload["f"])
    _check_lp_cap(g, u.breakpoints(), opts)
    res = envelope(g, theta, u)
    result = {
        "envelope": jsonio.plf_to_json(res.envelope),
        "lp": {
            "n_vars": res.lp_summary["n_vars"],
            "n_constraints": res.lp_summary["n_constraints"],
            "objective": rat_str(res.lp_summary["objective"]),
        },
    }
    return ScenarioOutput(
        result,
        {
            "input.svg": render_svg(g, overlay=u),
            "envelope.svg": render_svg(g, overlay=res.envelope),
        },
    )


def _run_curve_solve_ma(payload, opts: _Options) -> ScenarioOutput:
    g, theta = _graph_with_theta(payload)
    mu = jsonio.measure_from_json(g, payload["measure"])
    _check_lp_cap(g, [pt for pt, _ in mu.atoms if not pt.is_vertex()], opts, "solve_ma")
    anchor = 0
    if "anchor" in payload:
        if payload["anchor"] not in g.labels:
            raise SchemaError(f"anchor {payload['anchor']!r} is not a vertex")
        anchor = g.index_of(payload["anchor"])
    f = solve_ma(g, theta, mu, anchor=anchor)
    return ScenarioOutput(
        {"potential": jsonio.plf_to_json(f)},
        {"potential.svg": render_svg(g, overlay=f)},
    )


def _run_curve_orthogonality(payload, opts: _Options) -> ScenarioOutput:
    g, theta = _graph_with_theta(payload)
    u = jsonio.plf_from_json(g, payload["f"])
    _check_lp_cap(g, u.breakpoints(), opts)
    residual = orthogonality_residual(g, theta, u)
    return ScenarioOutput(
        {"residual": rat_str(residual), "residual_is_zero": residual == 0}, {}
    )


def _run_curve_energy(payload, opts: _Options) -> ScenarioOutput:
    g, theta = _graph_with_theta(payload)
    u1 = jsonio.plf_from_json(g, payload["f"])
    u2 = jsonio.plf_from_json(g, payload["g"])
    _check_lp_cap(g, u1.breakpoints(), opts)
    _check_lp_cap(g, u2.breakpoints(), opts)
    phi1 = envelope(g, theta, u1).envelope
    phi2 = envelope(g, theta, u2).envelope
    return ScenarioOutput(
        {
            "envelope_f": jsonio.plf_to_json(phi1),
            "envelope_g": jsonio.plf_to_json(phi2),
            "energy": rat_str(energy(g, theta, phi1, phi2)),
        },
        {},
    )


# ---------------------------------------------------------------------------
# Toric kinds
# ---------------------------------------------------------------------------


def _complex_from(payload):
    pc = jsonio.complex_from_json(payload["complex"])
    validate_complex(pc)
    return pc


def _run_toric_skeleton(payload, opts: _Options) -> ScenarioOutput:
    pc = _complex_from(payload)
    skel = skeleton(pc)
    return ScenarioOutput(
        {"skeleton": [jsonio.cell_to_json(cell) for cell in skel]},
        {
            "complex.svg": render_svg(pc, bbox=opts.bbox),
            "skeleton.svg": render_svg(list(skel), bbox=opts.bbox),
        },
    )


def _run_toric_retract(payload, opts: _Options) -> ScenarioOutput:
    pc = _complex_from(payload)
    jsonio.validate(payload["points"], _POINTS_SCHEMA, "points")
    images = [
        jsonio.vec2_to_json(retraction(pc, jsonio.vec2_from_json(row)))
        for row in payload["points"]
    ]
    return ScenarioOutput(
        {"images": images}, {"complex.svg": render_svg(pc, bbox=opts.bbox)}
    )


def _run_toric_concavity(payload, opts: _Options) -> ScenarioOutput:
    pc = _complex_from(payload)
    f = jsonio.toric_plf_from_json(pc, payload["function"])
    ok, witness = is_concave(f)
    result = {"concave": ok}
    if witness is not None:
        result["witness"] = {
            "cells": list(witness["facet"]),
            "point": jsonio.vec2_to_json(witness["point"]),
        }
    return ScenarioOutput(result, {"complex.svg": render_svg(pc, bbox=opts.bbox)})


def _run_toric_ma(payload, opts: _Options) -> ScenarioOutput:
    pc = _complex_from(payload)
    f = jsonio.toric_plf_from_json(pc, payload["function"])
    mu = toric_ma(f)
    return ScenarioOutput(
        {
            "measure": jsonio.toric_measure_to_json(mu),
            "total_mass": rat_str(mu.total_mass()),
        },
        {"complex.svg": render_svg(pc, bbox=opts.bbox)},
    )


def _run_toric_counterexample(payload, opts: _Options) -> ScenarioOutput:
    fx = counterexample_fixture()

    skel = skeleton(fx.pi)
    skel_prime = skeleton(fx.pi_prime)
    skeletons_match = (
        len(skel) == 1
        and len(skel_prime) == 1
        and poly_equal(skel[0], DELTA)
        and poly_equal(skel_prime[0], DELTA)
    )

    sum_prime = fx.f_prime.add_support(fx.psi)
    # min(u, 1, 1 + v) on the cells of Pi'
    min_form = support_on_complex(
        SupportFn((((1, 0), 0), ((0, 0), 1), ((0, 1), 1))), fx.pi_prime
    )
    concave_prime, _ = is_concave(sum_prime)

    sum_plain = fx.f.add_support(fx.psi)
    concave_plain, witness = is_concave(sum_plain)
    witness_cells = sorted(witness["facet"]) if witness else []

    mu = toric_ma(sum_prime)
    expected_atom = ((Rat(1), Rat(0)), Rat(1))

    result = {
        "skeletons_equal_unit_triangle": skeletons_match,
        "sum_with_f_prime_is_concave": concave_prime,
        "sum_with_f_prime_equals_min_form": sum_prime == min_form,
        "sum_with_f_is_concave": concave_plain,
        "nonconcavity_witness_cells": [CELL_LABELS[i] for i in witness_cells],
        "ma_measure": jsonio.toric_measure_to_json(mu),
        "ma_is_unit_atom_at_1_0": mu.atoms == (expected_atom,),
        "restrictions_to_skeleton_agree": restrict_to_skeleton(fx.f)
        == restrict_to_skeleton(fx.f_prime),
        "functions_differ": not pl_functions_equal(fx.f, fx.f_prime),
    }
    figures = {
        "pi.svg": render_svg(fx.pi, bbox=opts.bbox, labels=list(CELL_LABELS)),
        "pi_prime.svg": render_svg(
            fx.pi_prime,
            bbox=opts.bbox,
            labels=["delta", "sigma1p", "sigma2p", "sigma3p", "sigma4", "sigma5", "sigma6"],
        ),
        "delta.svg": render_svg(DELTA, bbox=opts.bbox),
    }
    return ScenarioOutput(result, figures)


# ---------------------------------------------------------------------------
# Test-ideal kind
# ---------------------------------------------------------------------------


def _run_testideal(payload, opts: _Options) -> ScenarioOutput:
    p = payload["p"]
    if p >= PRIME_LIMIT:
        raise SchemaError(f"p must be below {PRIME_LIMIT}, where primality is exact")
    if not is_prime(p):
        raise SchemaError(f"p = {p} is not prime")
    a = jsonio.ideal_from_json({"n": payload["n"], "gens": payload["gens"]})
    lam = jsonio.rat_from_str(payload["lambda"])
    if lam < 0:
        raise SchemaError("lambda must be >= 0")
    tau = test_ideal(a, lam, p)
    result = {
        "test_ideal": jsonio.ideal_to_json(tau),
        "newton_agrees": newton_certifies(a, lam, tau),
    }
    return ScenarioOutput(result, {})


# ---------------------------------------------------------------------------
# Registry and entry points
# ---------------------------------------------------------------------------

_GRAPH_F = {"graph": _ANY, "f": _ANY}

_KINDS = {
    "curve-envelope": (_schema(_GRAPH_F), _run_curve_envelope),
    "curve-solve-ma": (
        _schema({"graph": _ANY, "measure": _ANY}, {"anchor": {"type": "string"}}),
        _run_curve_solve_ma,
    ),
    "curve-orthogonality": (_schema(_GRAPH_F), _run_curve_orthogonality),
    "curve-energy": (_schema({"graph": _ANY, "f": _ANY, "g": _ANY}), _run_curve_energy),
    "toric-skeleton": (_schema({"complex": _ANY}), _run_toric_skeleton),
    "toric-retract": (
        _schema({"complex": _ANY, "points": _ANY}),
        _run_toric_retract,
    ),
    "toric-concavity": (
        _schema({"complex": _ANY, "function": _ANY}),
        _run_toric_concavity,
    ),
    "toric-ma": (_schema({"complex": _ANY, "function": _ANY}), _run_toric_ma),
    "toric-counterexample": (_schema({}), _run_toric_counterexample),
    "testideal": (
        _schema(
            {
                "n": {"type": "integer", "minimum": 1, "maximum": 3},
                "p": {"type": "integer", "minimum": 2},
                "gens": _ANY,
                "lambda": jsonio.RAT_SCHEMA,
            }
        ),
        _run_testideal,
    ),
}

KINDS = tuple(sorted(_KINDS))


def execute(scenario, *, bbox=DEFAULT_BBOX, max_lp_vars=DEFAULT_MAX_LP_VARS):
    """Run one scenario dict.  Raises SchemaError for malformed payloads and
    lets mathematical failures (infeasible envelope, mass mismatch,
    non-concave input, ...) propagate as their library exceptions."""
    if not isinstance(scenario, dict) or "kind" not in scenario:
        raise SchemaError('a scenario is an object with a "kind" field')
    kind = scenario["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise SchemaError(f"unknown scenario kind {kind!r}")
    schema, runner = _KINDS[kind]
    jsonio.validate(scenario, schema, f"{kind} scenario")
    out = runner(scenario, _Options(bbox=bbox, max_lp_vars=max_lp_vars))
    return ScenarioOutput({"kind": kind, **out.result}, out.figures)


def builtin_names() -> tuple:
    root = importlib.resources.files("skelpot") / "data"
    return tuple(sorted(p.name for p in root.iterdir() if p.name.endswith(".json")))


def load_builtin(name: str) -> dict:
    root = importlib.resources.files("skelpot") / "data"
    path = root / name
    if not path.is_file():
        raise SchemaError(f"no built-in scenario named {name!r}")
    return jsonio.loads(path.read_text(encoding="utf-8"))
