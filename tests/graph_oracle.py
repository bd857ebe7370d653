"""Subgraph validation and complement components by their former bodies,
kept as test oracles.

skelpot walks a graph one way, `graphs._reach`, crossing only the edges
its caller admits: every edge for connectivity, the subgraph's edges for
subgraph connectivity, edges whose far end is off the subgraph for the
hanging trees.  The routines here take the older routes: subgraph
connectivity rescans every subgraph edge for each vertex it pops, and the
complement components come from a union-find over tagged ("v", x) and
("e", e) keys.  `retract_point`, `subgraph_graph` and `compose_retraction`
are skelpot's bodies routed through these two, so the tests can compare
whole retractions, exceptions and their order included.
"""

from __future__ import annotations

from skelpot.graphs import (
    GraphPoint,
    MetrizedGraph,
    PLFunction,
    RetractionError,
    Subgraph,
    SubgraphEmbedding,
)


def _validate_subgraph(g: MetrizedGraph, sub: Subgraph):
    if not sub.vertices:
        raise RetractionError("subgraph needs at least one vertex")
    if any(not 0 <= v < g.n_vertices for v in sub.vertices):
        raise RetractionError("subgraph vertex out of range")
    for e in sub.edges:
        if not 0 <= e < len(g.edges):
            raise RetractionError("subgraph edge out of range")
        a, b, _, _ = g.edges[e]
        if a not in sub.vertices or b not in sub.vertices:
            raise RetractionError("subgraph edge endpoints must be subgraph vertices")
    # induced connectivity
    seen = {min(sub.vertices)}
    stack = [min(sub.vertices)]
    while stack:
        v = stack.pop()
        for e in sub.edges:
            a, b, _, _ = g.edges[e]
            for x, y in ((a, b), (b, a)):
                if x == v and y in sub.vertices and y not in seen:
                    seen.add(y)
                    stack.append(y)
    if seen != sub.vertices:
        raise RetractionError("subgraph must be connected")


def complement_components(g: MetrizedGraph, sub: Subgraph) -> list:
    """Components of (graph minus subgraph): each is (edges, vertices,
    attachments) with attachments the subgraph vertices its edges touch.
    Raises unless every component is a tree attached at exactly one point."""
    _validate_subgraph(g, sub)
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for v in range(g.n_vertices):
        if v not in sub.vertices:
            parent[("v", v)] = ("v", v)
    for e in range(len(g.edges)):
        if e not in sub.edges:
            parent[("e", e)] = ("e", e)
    for e in range(len(g.edges)):
        if e in sub.edges:
            continue
        a, b, _, _ = g.edges[e]
        if a not in sub.vertices:
            union(("e", e), ("v", a))
        if b not in sub.vertices:
            union(("e", e), ("v", b))
    groups = {}
    for key in parent:
        groups.setdefault(find(key), []).append(key)
    comps = []
    for members in groups.values():
        edges = sorted(i for k, i in members if k == "e")
        verts = sorted(i for k, i in members if k == "v")
        if not edges and not verts:
            continue
        attach = set()
        for e in edges:
            a, b, _, _ = g.edges[e]
            for x in (a, b):
                if x in sub.vertices:
                    attach.add(x)
        if not edges:
            # an isolated non-subgraph vertex cannot happen in a connected
            # graph whose subgraph edges stay inside the subgraph
            raise RetractionError("complement component with no edges")
        if len(attach) != 1:
            raise RetractionError(
                f"complement component touches the subgraph at {len(attach)} points, need exactly 1"
            )
        if len(edges) != len(verts):
            raise RetractionError("complement component is not a tree")
        comps.append((tuple(edges), tuple(verts), attach.pop()))
    return comps


def retract_point(g: MetrizedGraph, sub: Subgraph, x: GraphPoint) -> GraphPoint:
    comps = complement_components(g, sub)
    if x.is_vertex():
        if x.index in sub.vertices:
            return x
        for edges, verts, attach in comps:
            if x.index in verts:
                return GraphPoint("v", attach)
    else:
        if x.index in sub.edges:
            return x
        for edges, verts, attach in comps:
            if x.index in edges:
                return GraphPoint("v", attach)
    raise RetractionError("point not located")


def subgraph_graph(g: MetrizedGraph, sub: Subgraph) -> SubgraphEmbedding:
    _validate_subgraph(g, sub)
    verts = sorted(sub.vertices)
    vmap = {v: i for i, v in enumerate(verts)}
    labels = tuple(g.labels[v] for v in verts)
    edges = []
    emap = {}
    for e in sorted(sub.edges):
        a, b, length, w = g.edges[e]
        emap[e] = len(edges)
        edges.append((vmap[a], vmap[b], length, w))
    return SubgraphEmbedding(
        big=g,
        sub=sub,
        graph=MetrizedGraph(labels, tuple(edges)),
        vertex_to_sub=vmap,
        edge_to_sub=emap,
    )


def compose_retraction(g: MetrizedGraph, sub: Subgraph, f_on_sub: PLFunction) -> PLFunction:
    emb = subgraph_graph(g, sub)
    if f_on_sub.graph != emb.graph:
        raise RetractionError("function does not live on this subgraph")
    comps = complement_components(g, sub)
    vv = [None] * g.n_vertices
    for v, sv in emb.vertex_to_sub.items():
        vv[v] = f_on_sub.vertex_values[sv]
    for edges, verts, attach in comps:
        aval = f_on_sub.vertex_values[emb.vertex_to_sub[attach]]
        for v in verts:
            vv[v] = aval
    breaks = [() for _ in g.edges]
    for e, se in emb.edge_to_sub.items():
        breaks[e] = f_on_sub.breaks[se]
    return PLFunction(g, tuple(vv), tuple(breaks))
