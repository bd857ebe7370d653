import random
import re

import pytest

import graph_oracle
import pl_oracle
from helpers import rand_graph, rand_len, rand_plf, rand_value
from skelpot import (
    AtomicMeasure,
    CurvatureData,
    GraphError,
    GraphPoint,
    MetrizedGraph,
    PLFunction,
    RetractionError,
    Subgraph,
    complement_components,
    compose_retraction,
    pl_equal,
    pl_max,
    retract_point,
    subgraph_graph,
)
import skelpot.graphs as graphs_mod
from skelpot.rat import Rat

PATH = MetrizedGraph(("a", "b", "c"), ((0, 1, 1, 1), (1, 2, "3/2", 2)))


def test_graph_validation():
    with pytest.raises(GraphError):
        MetrizedGraph(("a", "b"), ())  # disconnected
    with pytest.raises(GraphError):
        MetrizedGraph(("a",), ((0, 0, 0, 1),))  # zero length
    with pytest.raises(GraphError):
        MetrizedGraph(("a", "a"), ((0, 1, 1, 1),))  # duplicate label
    with pytest.raises(GraphError):
        MetrizedGraph(("a", "b"), ((0, 1, 1, 0),))  # weight must be >= 1
    loop = MetrizedGraph(("a",), ((0, 0, 2, 3),))
    assert loop.n_vertices == 1


def test_incident_covers_loops():
    loop = MetrizedGraph(("a",), ((0, 0, 2, 1),))
    assert loop.incident(0) == [(0, 0), (0, 1)]


def test_point_normalization():
    assert PATH.point(0, Rat(0)) == GraphPoint("v", 0)
    assert PATH.point(0, Rat(1)) == GraphPoint("v", 1)
    mid = PATH.point(1, Rat(3, 4))
    assert not mid.is_vertex() and mid.offset == Rat(3, 4)


def test_plf_evaluation_and_slopes():
    f = PLFunction(PATH, (0, 2, 1), (((Rat(1, 2), Rat(2)),), ()))
    # first edge rises to 2 at the midpoint then stays
    assert f.value_at(PATH.point(0, Rat(1, 4))) == 1
    assert f.value_at(PATH.point(0, Rat(3, 4))) == 2
    slopes = dict()
    for e, tag, w, s in f.directional_slopes(GraphPoint("v", 0)):
        slopes[(e, tag)] = (w, s)
    assert slopes[(0, "from_a")] == (1, Rat(4))
    left_right = f.directional_slopes(GraphPoint("e", 0, Rat(1, 2)))
    assert {s for _, tag, _, s in left_right} == {Rat(-4), Rat(0)}


def test_plf_validation():
    with pytest.raises(GraphError):
        PLFunction(PATH, (0, 0))  # wrong arity
    with pytest.raises(GraphError):
        PLFunction(PATH, (0, 0, 0), (((Rat(2), Rat(1)),), ()))  # off the edge
    with pytest.raises(GraphError):
        PLFunction(
            PATH, (0, 0, 0), (((Rat(1, 2), 0), (Rat(1, 2), 1)), ())
        )  # duplicate offset


def test_plf_one_breakpoint_row_per_edge():
    """Too few or too many breakpoint rows is a GraphError, checked before
    any row is read against its edge."""
    for rows in (((),), ((), (), ())):
        with pytest.raises(GraphError, match="one breakpoint sequence per edge required"):
            PLFunction(PATH, (0, 0, 0), rows)


def test_plf_arithmetic_and_prune():
    f = PLFunction(PATH, (0, 1, 0))
    g = PLFunction(PATH, (1, 0, 1))
    s = f + g
    assert s.vertex_values == (Rat(1), Rat(1), Rat(1))
    assert all(row == () for row in s.breaks)  # constant sum, pruned
    d = f - g
    assert d.value_at(PATH.point(0, Rat(1, 2))) == 0
    # a redundant collinear breakpoint disappears
    r = PLFunction(PATH, (0, 1, 0), (((Rat(1, 2), Rat(1, 2)),), ())).prune()
    assert r.breaks[0] == ()


def test_pl_max_inserts_crossings():
    f = PLFunction(PATH, (0, 1, 0))
    g = PLFunction(PATH, (1, 0, 1))
    m = pl_max(f, g)
    assert m.vertex_values == (Rat(1), Rat(1), Rat(1))
    assert m.breaks[0] == ((Rat(1, 2), Rat(1, 2)),)
    assert m.value_at(PATH.point(1, Rat(3, 4))) == Rat(1, 2)
    assert pl_equal(pl_max(m, f), m)


def _rand_breaks(rng, g, most):
    """Per edge up to `most` breakpoints at multiples of length / 12."""
    rows = []
    for e in range(len(g.edges)):
        cuts = sorted(rng.sample(range(1, 12), rng.randint(0, most)))
        rows.append(tuple((g.edge_length(e) * Rat(c, 12), rand_value(rng)) for c in cuts))
    return rows


def _rand_pair(rng):
    """Two PL functions on one random graph.  Half the graphs gain a loop
    and an edge parallel to their first; in half the pairs v copies some
    vertex values and breakpoints of u, so u - v vanishes on grid points."""
    g = rand_graph(rng, max_v=4, max_e=5)
    if rng.random() < 0.5:
        a, b = g.edges[0][:2] if g.edges else (0, 0)
        loop = (b, b, rand_len(rng), rng.randint(1, 3))
        g = MetrizedGraph(g.labels, g.edges + (loop, (a, b, rand_len(rng), 2)))
    n = g.n_vertices
    u = PLFunction(g, [rand_value(rng) for _ in range(n)], _rand_breaks(rng, g, 4))
    vv = [rand_value(rng) for _ in range(n)]
    rows = _rand_breaks(rng, g, 4)
    if rng.random() < 0.5:
        vv = [x if rng.random() < 0.5 else y for x, y in zip(u.vertex_values, vv)]
        rows = [
            sorted(dict(list(r) + [b for b in ub if rng.random() < 0.5]).items())
            for r, ub in zip(rows, u.breaks)
        ]
    return u, PLFunction(g, vv, rows)


def _query_points(rng, f):
    g = f.graph
    pts = [g.vertex_point(v) for v in range(g.n_vertices)] + f.breakpoints()
    pts += [g.point(e, g.edge_length(e) * Rat(rng.randint(1, 999), 1000)) for e in range(len(g.edges))]
    return pts


def _with_collinear_points(rng, f):
    """f with extra breakpoints on its own segments: equal to f."""
    rows = []
    for e, row in enumerate(f.breaks):
        c = f.graph.edge_length(e) * Rat(rng.randint(1, 47), 48)
        rows.append(sorted({c: pl_oracle.value_at(f, f.graph.point(e, c)), **dict(row)}.items()))
    return PLFunction(f.graph, f.vertex_values, rows)


def _agrees_with_oracle(rng, u, v):
    add, sub = u + v, u - v
    assert add == pl_oracle.merge(u, v, lambda a, b: a + b)
    assert sub == pl_oracle.merge(u, v, lambda a, b: a - b)
    assert pl_max(u, v) == pl_oracle.pl_max(u, v)
    assert pl_max(v, u) == pl_oracle.pl_max(v, u)
    assert pl_equal(u, v) == pl_oracle.pl_equal(u, v)
    u2 = _with_collinear_points(rng, u)
    assert pl_equal(u, u2) and pl_oracle.pl_equal(u, u2)
    for f in (u, v):
        for pt in _query_points(rng, f):
            assert f.value_at(pt) == pl_oracle.value_at(f, pt)
            assert f.directional_slopes(pt) == pl_oracle.directional_slopes(f, pt)
    # + and - insert no breakpoint at a crossing strictly between samples
    for w in (add, sub):
        for e, row in enumerate(w.breaks):
            grid = {t for t, _ in u.breaks[e]} | {t for t, _ in v.breaks[e]}
            assert {t for t, _ in row} <= grid


def test_pl_operations_agree_with_scanning_oracle():
    """The one-walk merge and bisecting queries against the scanning forms,
    on 1,000 seeded pairs with several breakpoints per edge."""
    rng = random.Random(2207)
    for _ in range(1000):
        _agrees_with_oracle(rng, *_rand_pair(rng))


def test_pl_operations_agree_with_oracle_on_a_dense_edge():
    rng = random.Random(22)
    g = MetrizedGraph(("a", "b"), ((0, 1, 1, 1),))
    for shared in (False, True):
        cuts = sorted(rng.sample(range(1, 4000), 200))
        u = PLFunction(g, (0, 1), [[(Rat(c, 4000), rand_value(rng)) for c in cuts]])
        rows = [[(t, x if shared and rng.random() < 0.5 else rand_value(rng)) for t, x in u.breaks[0]]]
        v = PLFunction(g, (0, 1) if shared else (1, 0), rows)
        _agrees_with_oracle(rng, u, v)


def test_measure_canonicalization():
    mu = AtomicMeasure(
        PATH,
        {
            GraphPoint("v", 1): Rat(2),
            GraphPoint("e", 0, Rat(1, 2)): Rat(0),
            GraphPoint("v", 0): Rat(-1),
        },
    )
    assert len(mu.atoms) == 2  # the zero atom is gone
    assert mu.total_mass() == 1
    assert not mu.is_nonnegative()
    assert (mu + mu.scale(-1)).atoms == ()


# -- retraction ---------------------------------------------------------


def _tree_graph():
    # triangle 0-1-2 with a hanging path 1-3-4 and a leaf 2-5
    edges = (
        (0, 1, 1, 1),
        (1, 2, 1, 1),
        (0, 2, 1, 1),
        (1, 3, "1/2", 1),
        (3, 4, 1, 2),
        (2, 5, 2, 1),
    )
    g = MetrizedGraph(tuple("abcdef"), edges)
    sub = Subgraph({0, 1, 2}, {0, 1, 2})
    return g, sub


def test_complement_components():
    g, sub = _tree_graph()
    comps = complement_components(g, sub)
    assert len(comps) == 2
    attach = sorted(a for _, _, a in comps)
    assert attach == [1, 2]
    by_attach = {a: (edges, verts) for edges, verts, a in comps}
    assert by_attach[1] == ((3, 4), (3, 4))
    assert by_attach[2] == ((5,), (5,))


def test_complement_rejects_two_attachments():
    g = MetrizedGraph("abc", ((0, 1, 1, 1), (1, 2, 1, 1), (0, 2, 1, 1)))
    sub = Subgraph({0, 2}, {2})
    with pytest.raises(GraphError):
        complement_components(g, sub)


def test_retract_point():
    g, sub = _tree_graph()
    assert retract_point(g, sub, GraphPoint("v", 4)) == GraphPoint("v", 1)
    assert retract_point(g, sub, GraphPoint("e", 5, Rat(1))) == GraphPoint("v", 2)
    stay = GraphPoint("e", 0, Rat(1, 3))
    assert retract_point(g, sub, stay) == stay


def test_compose_retraction_values():
    g, sub = _tree_graph()
    emb = subgraph_graph(g, sub)
    f_sub = PLFunction(emb.graph, (3, 5, 7))
    F = compose_retraction(g, sub, f_sub)
    assert F.vertex_values == (Rat(3), Rat(5), Rat(7), Rat(5), Rat(5), Rat(7))
    assert F.value_at(g.point(4, Rat(1, 2))) == 5  # constant on the tree


def test_compose_retraction_validates_the_subgraph_once(monkeypatch):
    calls = []
    validate = graphs_mod._validate_subgraph

    def counting(g, sub):
        calls.append(sub)
        return validate(g, sub)

    monkeypatch.setattr(graphs_mod, "_validate_subgraph", counting)
    g, sub = _tree_graph()
    f_sub = PLFunction(subgraph_graph(g, sub).graph, (3, 5, 7))
    calls.clear()
    compose_retraction(g, sub, f_sub)
    assert calls == [sub]


def test_restrict_inverts_composition():
    g, sub = _tree_graph()
    emb = subgraph_graph(g, sub)
    f_sub = PLFunction(emb.graph, (0, 1, -2), (((Rat(1, 4), Rat(2)),), (), ()))
    F = compose_retraction(g, sub, f_sub)
    assert pl_equal(emb.restrict(F), f_sub)


def test_subgraph_validation():
    g, _ = _tree_graph()
    with pytest.raises(GraphError):
        complement_components(g, Subgraph({0, 9}, set()))  # vertex out of range
    with pytest.raises(GraphError):
        subgraph_graph(g, Subgraph({0, 1}, {1}))  # edge endpoint missing
    with pytest.raises(GraphError):
        subgraph_graph(g, Subgraph({0, 4}, set()))  # induced graph disconnected


def test_restrict_rejects_a_function_on_another_graph():
    """A function on a graph of the same shape but other edge lengths is
    not a function on the big graph, so restrict refuses it."""
    g, sub = _tree_graph()
    emb = subgraph_graph(g, sub)
    other = MetrizedGraph(g.labels, tuple((a, b, length + 1, w) for a, b, length, w in g.edges))
    with pytest.raises(RetractionError, match="function does not live on this graph"):
        emb.restrict(PLFunction(other, (0,) * 6))


def test_retract_point_off_the_graph():
    g, sub = _tree_graph()
    for x in (GraphPoint("v", 6), GraphPoint("v", -1), GraphPoint("e", 6, Rat(1, 2))):
        with pytest.raises(RetractionError, match="point not located"):
            retract_point(g, sub, x)


def _retraction_case(rng):
    """A connected multigraph on at most 7 vertices, with loops and
    parallel edges: a core with a spanning tree and extra edges, vertices
    hanging off it, sometimes edges anywhere; vertices and edges are
    shuffled.  The subgraph is the core with its tree and some of its
    extra edges, then sometimes perturbed: emptied, a vertex or an edge
    added or dropped, or an index out of range added."""
    n = rng.randint(1, 7)
    core = rng.randint(1, n)
    tree = [(rng.randrange(i), i) for i in range(1, core)]
    extra = []
    for _ in range(rng.randint(0, 3)):
        a = rng.randrange(core)
        extra.append((a, rng.choice((a, rng.randrange(core)))))
    hanging = [(rng.randrange(i), i) for i in range(core, n)]
    anywhere = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.choice((0, 0, 1, 2)))]
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [(perm[a], perm[b], kind) for kind, part in enumerate((tree, extra, hanging, anywhere)) for a, b in part]
    rng.shuffle(rows)
    g = MetrizedGraph([f"v{i}" for i in range(n)], [(a, b, rng.randint(1, 3), rng.randint(1, 2)) for a, b, _ in rows])
    verts = {perm[v] for v in range(core)}
    edges = {e for e, (_, _, kind) in enumerate(rows) if kind == 0 or (kind == 1 and rng.random() < 0.6)}
    m = len(rows)
    move = rng.randrange(12)
    if move == 0:
        verts = set()
    elif move == 1:
        verts.add(rng.choice((-1, n, n + 1)))
    elif move == 2:
        edges.add(rng.choice((-1, m, m + 2)))
    elif move == 3 and m:
        edges.add(rng.randrange(m))
    elif move == 4 and edges:
        edges.discard(rng.choice(sorted(edges)))
    elif move == 5:
        verts.add(rng.randrange(n))
    elif move == 6 and len(verts) > 1:
        verts.discard(rng.choice(sorted(verts)))
    return g, Subgraph(verts, edges)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except GraphError as exc:
        return type(exc), str(exc)


def _kind(outcome):
    """The outcome's message with the number of attachment points elided,
    or "ok"."""
    return "ok" if outcome[0] == "ok" else re.sub(r"at \d+ points", "at k points", outcome[1])


def test_retraction_agrees_with_the_union_find_oracle():
    """On 5,000 seeded graphs and subgraphs, complement_components,
    retract_point and compose_retraction return what the former
    union-find bodies return, or raise the same class with the same
    message; every RetractionError message and the ok case occur."""
    rng = random.Random(20261020)
    seen = set()
    for _ in range(5000):
        g, sub = _retraction_case(rng)
        want = _outcome(graph_oracle.complement_components, g, sub)
        assert _outcome(complement_components, g, sub) == want
        seen.add(_kind(want))
        m = len(g.edges)
        for x in (
            GraphPoint("v", rng.randrange(-1, g.n_vertices + 1)),
            GraphPoint("e", rng.randrange(-1, m + 1), Rat(1, 2)),
        ):
            got = _outcome(retract_point, g, sub, x)
            assert got == _outcome(graph_oracle.retract_point, g, sub, x)
            seen.add(_kind(got))
        emb = _outcome(graph_oracle.subgraph_graph, g, sub)
        f = rand_plf(rng, emb[1].graph) if emb[0] == "ok" and rng.random() < 0.8 else rand_plf(rng, g)
        got = _outcome(compose_retraction, g, sub, f)
        assert got == _outcome(graph_oracle.compose_retraction, g, sub, f)
        seen.add(_kind(got))
        if got[0] == "ok":
            assert emb[1].restrict(got[1]) == f
    assert seen == {
        "ok",
        "subgraph needs at least one vertex",
        "subgraph vertex out of range",
        "subgraph edge out of range",
        "subgraph edge endpoints must be subgraph vertices",
        "subgraph must be connected",
        "complement component touches the subgraph at k points, need exactly 1",
        "complement component is not a tree",
        "point not located",
        "function does not live on this subgraph",
    }
