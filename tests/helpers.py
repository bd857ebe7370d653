"""Shared randomized-instance generators.  Every generator takes an
explicit random.Random so suites stay reproducible run to run."""

from __future__ import annotations

import random
from fractions import Fraction

from skelpot import (
    CurvatureData,
    MetrizedGraph,
    MonomialIdeal,
    PLFunction,
    Subgraph,
    envelope,
)
from skelpot.rat import Rat, rat


def rand_len(rng: random.Random, den: int = 10) -> Rat:
    d = rng.randint(1, den)
    return Rat(rng.randint(1, 3 * d), d)


def rand_value(rng: random.Random, den: int = 8, span: int = 3) -> Rat:
    d = rng.randint(1, den)
    return Rat(rng.randint(-span * d, span * d), d)


def rand_graph(rng: random.Random, max_v: int = 6, max_e: int = 9, den: int = 10):
    """Connected multigraph (loops allowed), <= max_v vertices, <= max_e
    edges, rational lengths with denominators <= den."""
    n = rng.randint(1, max_v)
    labels = tuple(f"v{i}" for i in range(n))
    edges = []
    for i in range(1, n):
        edges.append((rng.randrange(i), i, rand_len(rng, den), rng.randint(1, 3)))
    extra = rng.randint(0, max(0, max_e - len(edges)))
    for _ in range(extra):
        a, b = rng.randrange(n), rng.randrange(n)
        edges.append((a, b, rand_len(rng, den), rng.randint(1, 3)))
    return MetrizedGraph(labels, edges)


def rand_nef_theta(rng: random.Random, g: MetrizedGraph, den: int = 6) -> CurvatureData:
    degs = [rand_value(rng, den, 2) for _ in range(g.n_vertices)]
    total = sum(degs, start=Rat(0))
    if total < 0:
        degs[rng.randrange(len(degs))] -= total  # rebalance to make it nef
    return CurvatureData(g, degs)


def rand_plf(rng: random.Random, g: MetrizedGraph, den: int = 8, breaks: bool = True):
    values = tuple(rand_value(rng, den) for _ in range(g.n_vertices))
    rows = []
    for e in range(len(g.edges)):
        length = g.edge_length(e)
        row = []
        if breaks and rng.random() < 0.4:
            k = rng.randint(1, 2)
            cuts = rng.sample(range(1, 8), k)
            for c in sorted(cuts):
                row.append((length * Rat(c, 8), rand_value(rng, den)))
        rows.append(tuple(row))
    return PLFunction(g, values, tuple(rows))


def rand_psh(rng: random.Random, g, theta):
    """A certified theta-psh function: the envelope of a random bound."""
    u = rand_plf(rng, g)
    return envelope(g, theta, u).envelope


def rand_retraction_triple(rng: random.Random, max_sub_v: int = 4, max_trees: int = 3):
    """(graph, subgraph, theta) with theta nef and supported on the
    subgraph: hanging trees carry degree zero, so the retraction keeps
    psh-ness (it fails otherwise, already on one edge with positive degree
    at the hanging end)."""
    sub_g = rand_graph(rng, max_v=max_sub_v, max_e=6)
    ns = sub_g.n_vertices
    labels = list(sub_g.labels)
    edges = list(sub_g.edges)
    n = ns
    for _ in range(rng.randint(0, max_trees)):
        parent = rng.randrange(n)
        labels.append(f"t{n}")
        edges.append((parent, n, rand_len(rng), rng.randint(1, 3)))
        n += 1
    g = MetrizedGraph(labels, edges)
    sub = Subgraph(range(ns), range(len(sub_g.edges)))
    sub_theta = rand_nef_theta(rng, sub_g)
    degs = list(sub_theta.degrees) + [Rat(0)] * (n - ns)
    return g, sub, CurvatureData(g, degs)


def rand_ideal(rng: random.Random, n: int, max_gens: int = 4, max_exp: int = 5):
    gens = [
        tuple(rng.randint(0, max_exp) for _ in range(n))
        for _ in range(rng.randint(1, max_gens))
    ]
    return MonomialIdeal(n, gens)


def rand_proper_ideal(rng: random.Random, n: int, max_gens: int = 4, max_exp: int = 5):
    """Nonzero, non-unit ideal (resamples until it gets one)."""
    while True:
        a = rand_ideal(rng, n, max_gens, max_exp)
        if not a.is_zero() and not a.is_unit():
            return a


def rand_lambda(rng: random.Random, den_max: int = 6, num_max: int = 12) -> Rat:
    return Rat(rng.randint(0, num_max), rng.randint(1, den_max))


def int_from_digits(s: str) -> int:
    """The int a decimal string spells, read in pieces of 500 digits, under
    the interpreter's limit on str-to-int conversion."""
    sign, s = (-1, s[1:]) if s.startswith("-") else (1, s)
    value = 0
    for i in range(0, len(s), 500):
        piece = s[i : i + 500]
        value = value * 10 ** len(piece) + int(piece)
    return sign * value


def forbid_fraction_arithmetic(monkeypatch, where: str) -> None:
    """Make Fraction's +, -, * and / raise AssertionError, saying where,
    until monkeypatch.undo(): a kernel that computes in int runs on."""

    def no_arithmetic(*args):
        raise AssertionError(f"Fraction arithmetic {where}")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(Fraction, name, no_arithmetic)
