"""Tests of the benchmark's own code: generators, gate, tracer, metric names.

    python3 -m pytest -q bench
"""

import json
import sys

import pytest

import gate as gate_mod
import generators as gen
import run
import tracer as tr

run.load_program()


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_bytes(workload):
    for index in (0, 1):
        first = gen.block(workload, 7, index)
        again = gen.block(workload, 7, index)
        assert [sc["text"] for sc in first] == [sc["text"] for sc in again]
        for sc in first:
            if sc["text"] is not None:
                assert gen.canonical(json.loads(sc["text"])) == sc["text"]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_other_seed_gives_other_scenarios(workload):
    a = {sc["text"] for sc in gen.block(workload, 1, 0)}
    b = {sc["text"] for sc in gen.block(workload, 2, 0)}
    assert a != b


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_every_scenario_runs_as_expected(workload):
    """Each generated scenario passes scenarios.execute, or raises the
    exception recorded next to it, and passes the whole gate."""
    gate = gate_mod.Gate(run.load_golden()["digests"])
    runner = run.InProcess()
    block = gen.block(workload, 3, 0)
    for sc in block:
        _, outcome = runner.run(sc)
        gate.check(sc, outcome)
    assert gate.failures == []
    assert any(sc["expect"]["error"] for sc in block) == (workload != "testideal-mix")


def test_golden_covers_golden_blocks_and_builtins():
    digests = run.load_golden()["digests"]
    for workload in gen.WORKLOADS:
        for sc in gen.block(workload, gen.GOLDEN_SEED, 0):
            if sc["expect"]["exit"] == 0:
                key = sc["expect"].get("digests_of") or gate_mod.scenario_key(sc)
                assert key in digests, sc["slot"]


def test_gate_counts_mismatches_without_raising():
    block = gen.block("testideal-mix", gen.GOLDEN_SEED, 0)
    sc = next(sc for sc in block if sc["slot"] == "deep-chain")
    runner = run.InProcess()
    _, good = runner.run(sc)
    gate = gate_mod.Gate(run.load_golden()["digests"])
    assert gate.check(sc, good)
    assert not gate.check(sc, {**good, "result": good["result"].replace("20", "21", 1)})
    flipped = json.loads(good["result"])
    flipped["newton_agrees"] = False
    with_flag = {**good, "result": json.dumps(flipped)}
    assert not gate.check(sc, with_flag)
    assert not gate.check(sc, {**good, "result": None})
    assert not gate.check(sc, {**good, "error": "TestIdealError"})


def test_tracer_wraps_every_binding_site_and_restores_them():
    import skelpot
    import skelpot.polyhedra
    import skelpot.potential
    import skelpot.testideals
    import skelpot.toric

    rat_mod = sys.modules["skelpot.rat"]
    sites = [
        (skelpot.potential, "lp_solve"),
        (skelpot.polyhedra, "lp_solve"),
        (skelpot.testideals, "lp_solve"),
        (sys.modules["skelpot.lp"], "lp_solve"),
        (skelpot, "lp_solve"),
        (skelpot.toric, "solve_linear"),
        (rat_mod, "solve_linear"),
        (skelpot.polyhedra, "matrix_rank"),
    ]
    before = [getattr(mod, name) for mod, name in sites]
    tracer = tr.Tracer()
    tracer.install()
    try:
        for (mod, name), original in zip(sites, before):
            assert getattr(mod, name).__wrapped__ is original
        runner = run.InProcess()
        for sc in (gen.builtin_scenario("ma_star.json"), gen.builtin_scenario("envelope_edge.json")):
            _, outcome = runner.run(sc)
            assert outcome["error"] is None
    finally:
        tracer.uninstall()
    assert [getattr(mod, name) for mod, name in sites] == before
    metrics = tr.aggregate(tracer.spans, tracer.stats)
    assert metrics["lp.lp_solve.by_potential.calls"] == metrics["lp.lp_solve.calls"] == 1
    assert metrics["rat.solve_linear.calls"] >= 1  # solve_ma's function-local import
    assert metrics["scenarios.execute.calls"] == 2
    for span_id, parent, _, _, t0, t1, own in tracer.spans:
        assert parent < span_id and 0 <= own <= t1 - t0


def test_benchmark_json_names_what_run_reports():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
