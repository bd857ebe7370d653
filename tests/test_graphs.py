import pytest

from skelpot import (
    AtomicMeasure,
    CurvatureData,
    GraphError,
    GraphPoint,
    MetrizedGraph,
    PLFunction,
    Subgraph,
    complement_components,
    compose_retraction,
    pl_equal,
    pl_max,
    retract_point,
    subgraph_graph,
)
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
