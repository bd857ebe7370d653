"""Envelope law suite on randomized graphs.  The acceptance module reruns
these laws at volume; here each law gets a focused loop plus the edge cases
that tend to break implementations (loops, multi-edges, breakpoints on u)."""

import random

from skelpot import CurvatureData, envelope, is_theta_psh, pl_equal, pl_max
from skelpot.rat import Rat

from helpers import rand_graph, rand_nef_theta, rand_plf

N = 40


def _env(g, theta, u):
    return envelope(g, theta, u).envelope


def _sup_abs(f):
    vals = [abs(v) for v in f.vertex_values]
    vals += [abs(v) for row in f.breaks for _, v in row]
    return max(vals)


def _dominates(f, g):
    """f >= g pointwise (PL functions on a shared graph)."""
    return pl_equal(pl_max(f, g), f)


def _nonneg_plf(rng, g):
    f = rand_plf(rng, g)
    lo = min(
        list(f.vertex_values) + [v for row in f.breaks for _, v in row]
    )
    return f.add_const(-lo) if lo < 0 else f


def test_monotone():
    rng = random.Random(101)
    for _ in range(N):
        g = rand_graph(rng)
        theta = rand_nef_theta(rng, g)
        u = rand_plf(rng, g)
        h = _nonneg_plf(rng, g)
        assert _dominates(_env(g, theta, u + h), _env(g, theta, u))


def test_additive_constants():
    rng = random.Random(102)
    for _ in range(N):
        g = rand_graph(rng)
        theta = rand_nef_theta(rng, g)
        u = rand_plf(rng, g)
        c = Rat(rng.randint(-12, 12), rng.randint(1, 5))
        assert pl_equal(_env(g, theta, u.add_const(c)), _env(g, theta, u).add_const(c))


def test_sup_contraction():
    rng = random.Random(103)
    for _ in range(N):
        g = rand_graph(rng)
        theta = rand_nef_theta(rng, g)
        u, v = rand_plf(rng, g), rand_plf(rng, g)
        bound = _sup_abs(u - v)
        assert _sup_abs(_env(g, theta, u) - _env(g, theta, v)) <= bound


def test_positive_scaling():
    rng = random.Random(104)
    for _ in range(N):
        g = rand_graph(rng)
        theta = rand_nef_theta(rng, g)
        u = rand_plf(rng, g)
        t = Rat(rng.randint(1, 9), rng.randint(1, 4))
        scaled_theta = CurvatureData(g, tuple(t * d for d in theta.degrees))
        assert pl_equal(
            _env(g, scaled_theta, u.scale(t)), _env(g, theta, u).scale(t)
        )


def test_idempotent():
    rng = random.Random(105)
    for _ in range(N):
        g = rand_graph(rng)
        theta = rand_nef_theta(rng, g)
        p = _env(g, theta, rand_plf(rng, g))
        assert pl_equal(_env(g, theta, p), p)


def test_max_stability():
    rng = random.Random(106)
    for _ in range(N):
        g = rand_graph(rng)
        theta = rand_nef_theta(rng, g)
        u, v = rand_plf(rng, g), rand_plf(rng, g)
        pu, pv = _env(g, theta, u), _env(g, theta, v)
        m = pl_max(pu, pv)
        ok, _ = is_theta_psh(g, theta, m)
        assert ok
        # hence m is a candidate for the envelope of max(u, v)
        assert _dominates(_env(g, theta, pl_max(u, v)), m)
