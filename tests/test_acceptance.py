"""Acceptance gate: one test per criterion, exact tolerances, stated budgets.

Each test prints a single verdict line (visible with -v as the test outcome,
and with -s as text); a failed assertion is the FAIL."""

import itertools
import random
import time

import numpy as np
import pytest

from skelpot import jsonio, scenarios
from skelpot.fixtures import CELL_LABELS, counterexample_fixture
from skelpot.graphs import (
    CurvatureData,
    MetrizedGraph,
    PLFunction,
    pl_equal,
    pl_max,
)
from skelpot.polyhedra import Polyhedron, poly_equal
from skelpot.potential import (
    MassMismatch,
    energy,
    envelope,
    is_theta_psh,
    ma_measure,
    orthogonality_residual,
    solve_ma,
)
from skelpot.rat import Rat
from skelpot.testideals import (
    GradedSequence,
    asymptotic_test_ideal,
    frobenius_power,
    frobenius_root,
    newton_test_ideal,
    test_ideal as tau,
)
from skelpot.toric import (
    ToricPLFunction,
    is_concave,
    pl_functions_equal,
    restrict_to_skeleton,
    skeleton,
    toric_ma,
)

from helpers import (
    rand_graph,
    rand_ideal,
    rand_lambda,
    rand_nef_theta,
    rand_plf,
    rand_proper_ideal,
    rand_psh,
    rand_retraction_triple,
)


def _verdict(n, label, elapsed, detail):
    print(f"criterion {n} ({label}): PASS in {elapsed:.2f}s -- {detail}")


def _env(g, theta, u, **kw):
    return envelope(g, theta, u, **kw).envelope


def _sup_abs(f: PLFunction) -> Rat:
    best = max(abs(x) for x in f.vertex_values)
    for e in range(len(f.graph.edges)):
        for _, val in f.samples(e):
            best = max(best, abs(val))
    return best


def _dominates(f: PLFunction, g: PLFunction) -> bool:
    return pl_equal(pl_max(f, g), f)


def test_criterion_1_counterexample_reproduction():
    t0 = time.perf_counter()
    fx = counterexample_fixture()
    delta = Polyhedron(((0, 0), (1, 0), (0, 1)))

    skel, skel_prime = skeleton(fx.pi), skeleton(fx.pi_prime)
    assert len(skel) == 1 and poly_equal(skel[0], delta)
    assert len(skel_prime) == 1 and poly_equal(skel_prime[0], delta)

    sum_prime = fx.f_prime.add_support(fx.psi)
    ok, _ = is_concave(sum_prime)
    assert ok
    min_form = ToricPLFunction(
        fx.pi_prime,
        (
            ((1, 0), 0),  # u on the triangle
            ((0, 0), 1),
            ((0, 1), 1),
            ((1, 0), 0),
            ((1, 0), 0),
            ((1, 0), 0),
            ((1, 0), 0),
        ),
    )
    assert sum_prime == min_form  # the min(1, 1+v, u) cell data

    sum_plain = fx.f.add_support(fx.psi)
    ok, witness = is_concave(sum_plain)
    assert not ok
    names = {CELL_LABELS[i] for i in witness["facet"]}
    assert names == {"sigma1", "sigma3"}

    mu = toric_ma(sum_prime)
    assert mu.atoms == (((Rat(1), Rat(0)), Rat(1)),)

    assert restrict_to_skeleton(fx.f) == restrict_to_skeleton(fx.f_prime)
    assert not pl_functions_equal(fx.f, fx.f_prime)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _verdict(1, "counterexample", elapsed, "five exact facts reproduced")


def test_criterion_2_orthogonality():
    t0 = time.perf_counter()
    rng = random.Random(2001)
    for _ in range(200):
        g = rand_graph(rng)
        theta = rand_nef_theta(rng, g)
        u = rand_plf(rng, g)
        assert orthogonality_residual(g, theta, u) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _verdict(2, "orthogonality", elapsed, "residual exactly 0 on 200 graphs")


def test_criterion_3_envelope_laws():
    t0 = time.perf_counter()
    rng = random.Random(3001)
    for _ in range(500):
        g = rand_graph(rng, max_v=5, max_e=7)
        theta = rand_nef_theta(rng, g)
        u = rand_plf(rng, g)
        v = rand_plf(rng, g)
        pu = _env(g, theta, u)
        pv = _env(g, theta, v)

        # (i) monotone: u <= u' implies P(u) <= P(u')
        h = rand_plf(rng, g, breaks=False)
        shift = min(min(val for _, val in h.samples(e)) for e in range(len(g.edges))) \
            if g.edges else min(h.vertex_values)
        bigger = u + h.add_const(-shift)
        assert _dominates(_env(g, theta, bigger), pu)

        # (iii) additive constants: P(u + c) = P(u) + c
        c = Rat(rng.randint(-8, 8), rng.randint(1, 4))
        assert pl_equal(_env(g, theta, u.add_const(c)), pu.add_const(c))

        # (v) sup-norm contraction
        assert _sup_abs(pu - pv) <= _sup_abs(u - v)

        # (vii) positive scaling: P_{t theta}(t u) = t P_theta(u)
        t = Rat(rng.randint(1, 6), rng.randint(1, 3))
        theta_t = CurvatureData(g, [t * d for d in theta.degrees])
        assert pl_equal(_env(g, theta_t, u.scale(t)), pu.scale(t))

        # idempotence
        assert pl_equal(_env(g, theta, pu), pu)

        # max-stability: max of psh is psh, dominated by P(max(u, v))
        m = pl_max(pu, pv)
        assert is_theta_psh(g, theta, m)[0]
        assert _dominates(_env(g, theta, pl_max(u, v)), m)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _verdict(3, "envelope laws", elapsed,
             "(i), (iii), (v), (vii), idempotence, max-stability on 500 instances")


def test_criterion_4_retraction_psh_preservation():
    t0 = time.perf_counter()
    from skelpot.graphs import compose_retraction, subgraph_graph

    rng = random.Random(4001)
    for _ in range(200):
        g, sub, theta = rand_retraction_triple(rng)
        phi = rand_psh(rng, g, theta)
        emb = subgraph_graph(g, sub)
        phi_tau = compose_retraction(g, sub, emb.restrict(phi))
        ok, _ = is_theta_psh(g, theta, phi_tau)
        assert ok  # preservation
        assert _dominates(phi_tau, phi)  # domination phi <= phi o tau
    elapsed = time.perf_counter() - t0
    _verdict(4, "retraction", elapsed,
             "psh preserved and dominating on 200 triples "
             "(the toric fixture certifies the 2-D failure in criterion 1)")


def test_criterion_5_ma_solver_round_trip():
    t0 = time.perf_counter()
    rng = random.Random(5001)
    done = 0
    while done < 200:
        g = rand_graph(rng)
        theta = rand_nef_theta(rng, g)
        if theta.total() == 0:
            continue  # solve_ma needs positive mass to anchor against
        phi = rand_psh(rng, g, theta)
        mu = ma_measure(g, theta, phi)
        back = solve_ma(g, theta, mu, anchor=0)
        c = phi.vertex_values[0] - back.vertex_values[0]
        assert pl_equal(back.add_const(c), phi)  # recovery up to a constant

        # uniqueness: two anchored solves differ by a constant
        other = solve_ma(g, theta, mu, anchor=g.n_vertices - 1)
        d = back - other
        assert not d.prune().breakpoints()
        assert len(set(d.vertex_values)) == 1

        done += 1

    # mass mismatch is rejected
    g = MetrizedGraph(["a", "b"], [(0, 1, 1, 1)])
    theta = CurvatureData(g, [Rat(1), Rat(1)])
    bad = ma_measure(g, theta, PLFunction(g, [Rat(0), Rat(0)], ((),)))
    bad = type(bad)(g, [(pt, m + 1) for pt, m in bad.atoms])
    with pytest.raises(MassMismatch):
        solve_ma(g, theta, bad)
    elapsed = time.perf_counter() - t0
    _verdict(5, "ma solver", elapsed,
             "round trip up to constant on 200 instances; mismatch rejected")


def test_criterion_6_rationality():
    t0 = time.perf_counter()
    rng = random.Random(6001)
    for _ in range(25):
        g = rand_graph(rng)
        theta = rand_nef_theta(rng, g)
        phi1 = rand_psh(rng, g, theta)
        phi2 = rand_psh(rng, g, theta)
        val = energy(g, theta, phi1, phi2)
        assert isinstance(val, Rat)  # exact rational, never a float

    # serialization is schema-enforced float-free end to end
    payload = {
        "kind": "curve-energy",
        "graph": {
            "vertices": ["a", "b"],
            "edges": [{"a": "a", "b": "b", "len": "1", "w": 1}],
            "theta": {"a": "1", "b": "0"},
        },
        "f": {"vertex_values": {"a": "0", "b": "-2"}},
        "g": {"vertex_values": {"a": "1", "b": "0"}},
    }
    out = scenarios.execute(payload)
    jsonio.assert_no_floats(out.result)
    text = jsonio.dumps(out.result)
    assert jsonio.rat_from_str(out.result["energy"]) == jsonio.rat_from_str(
        jsonio.loads(text)["energy"]
    )
    with pytest.raises(jsonio.SchemaError):
        jsonio.dumps({"energy": 0.5})
    elapsed = time.perf_counter() - t0
    _verdict(6, "rationality", elapsed,
             "energies exact rationals; float-free serialization enforced")


def test_criterion_7_test_ideal_identity_suite():
    t0 = time.perf_counter()
    rng = random.Random(7001)
    primes = (2, 3, 5)
    for i in range(300):
        p = primes[i % 3]
        n = rng.randint(1, 3)
        fam = i % 7
        if fam == 0:
            # membership commutes with Frobenius powers (box <= 6 per variable)
            a = rand_ideal(rng, n)
            e = rng.randint(0, 2)
            ap = frobenius_power(a, p, e)
            q = p**e
            for u in itertools.product(range(7), repeat=n):
                assert a.contains_exponent(u) == ap.contains_exponent(
                    tuple(q * x for x in u)
                )
        elif fam == 1:
            # root of a Frobenius power, and power of a root
            a = rand_proper_ideal(rng, n)
            e = rng.randint(0, 3)
            assert frobenius_root(frobenius_power(a, p, e), p, e) == a
            assert frobenius_power(frobenius_root(a, p, e), p, e).contains(a)
        elif fam == 2:
            # a is contained in tau(a^1)
            a = rand_proper_ideal(rng, n)
            assert tau(a, 1, p).contains(a)
        elif fam == 3:
            # member ideals sit inside the asymptotic ideal
            b = rand_proper_ideal(rng, n, max_exp=3)
            seq = GradedSequence.powers(b)
            m = rng.randint(1, 3)
            assert asymptotic_test_ideal(seq, m, p).contains(tau(seq.ideal(m), 1, p))
        elif fam == 4:
            # monotone in the ideal
            a = rand_proper_ideal(rng, n)
            b = a + rand_ideal(rng, n)
            lam = rand_lambda(rng)
            assert tau(b, lam, p).contains(tau(a, lam, p))
        elif fam == 5:
            # power compatibility
            a = rand_proper_ideal(rng, n, max_exp=4)
            m = rng.randint(2, 3)
            lam = rand_lambda(rng, num_max=8)
            assert tau(a**m, lam, p) == tau(a, m * lam, p)
        else:
            # subadditivity for m in {2, 3}
            b = rand_proper_ideal(rng, n, max_exp=3)
            seq = GradedSequence.powers(b)
            m = rng.choice((2, 3))
            lam = rand_lambda(rng, num_max=6)
            one = asymptotic_test_ideal(seq, lam, p)
            assert (one**m).contains(asymptotic_test_ideal(seq, m * lam, p))

    for i in range(100):
        p = primes[i % 3]
        a = rand_proper_ideal(rng, rng.randint(2, 3))
        lam = rand_lambda(rng)
        assert tau(a, lam, p) == newton_test_ideal(a, lam)

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _verdict(7, "test ideals", elapsed,
             "identity suite on 300 instances; Newton oracle agreement on 100")


def test_criterion_8_brute_force_envelope_oracle():
    t0 = time.perf_counter()
    shapes = (
        ("K1", 1, ()),
        ("K2", 2, ((0, 1),)),
        ("P3", 3, ((0, 1), (1, 2))),
        ("K3", 3, ((0, 1), (1, 2), (0, 2))),
    )
    checked = 0
    for name, nv, pairs in shapes:
        g = MetrizedGraph(
            [f"v{i}" for i in range(nv)], [(a, b, 1, 1) for a, b in pairs]
        )
        theta = CurvatureData(g, [Rat(1)] * nv)
        lap = np.zeros((nv, nv), dtype=np.int64)
        for a, b in pairs:
            lap[a, b] += 1
            lap[b, a] += 1
            lap[a, a] -= 1
            lap[b, b] -= 1
        for u in itertools.product(range(3), repeat=nv):
            obstacle = PLFunction(g, [Rat(x) for x in u], tuple(() for _ in pairs))
            env = _env(g, theta, obstacle)
            assert not env.breakpoints()  # affine data keeps the envelope affine

            # every psh candidate c <= u on the 1/64 grid; constants below
            # min(u) never beat max(c, min(u)), so the box below is enough
            lo = 64 * min(u)
            axes = [np.arange(lo, 64 * x + 1, dtype=np.int64) for x in u]
            grids = np.meshgrid(*axes, indexing="ij")
            cand = np.stack([gr.ravel() for gr in grids], axis=1)
            feasible = cand[((cand @ lap.T) + 64 >= 0).all(axis=1)]
            assert len(feasible)  # the constant min(u) is always a candidate
            best64 = feasible.max(axis=0)
            # max-closure, asserted not assumed: the componentwise max of the
            # feasible set is itself feasible, hence the best candidate
            assert ((lap @ best64) + 64 >= 0).all()
            for v in range(nv):
                m = Rat(int(best64[v]), 64)
                assert env.vertex_values[v] >= m  # dominates every candidate
                assert env.vertex_values[v] - m <= Rat(1, 64)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _verdict(8, "brute-force oracle", elapsed,
             f"{checked} (graph, obstacle) pairs vs full 1/64-grid enumeration")
