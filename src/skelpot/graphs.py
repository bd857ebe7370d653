"""Metrized graphs, piecewise linear functions, and retractions.

A metrized graph is a finite connected multigraph with positive rational
edge lengths and positive integer edge weights (multiplicities).  Loops and
parallel edges are allowed.  Points are either vertices or interior points
of an edge, addressed by (edge index, offset); offsets 0 and length
canonicalize to the endpoints, so point equality is unambiguous.

PL functions carry rational vertex values plus per-edge interior
breakpoints and are linear between consecutive samples; every slope is
rational by construction.  Two PL functions combine (+, -, max) in one
walk along each edge's two sample lists, and point queries bisect.

Retraction onto a subgraph collapses hanging trees to their attachment
points; it is only defined when every complement component is a tree meeting
the subgraph in exactly one point, and validation enforces that.  One
walk, `_reach`, crossing only the edges its caller admits, serves graph
and subgraph connectivity and the complement components.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from typing import NamedTuple

from .rat import Frozen, Rat, rat, rat_str

ZERO = Rat(0)


class GraphError(Exception):
    pass


class RetractionError(GraphError):
    pass


class GraphPoint(Frozen):
    """A point of the geometric realization: ('v', index, 0) at a vertex or
    ('e', edge, offset) strictly inside an edge.  Build via MetrizedGraph
    .point / .vertex_point so canonicalization is guaranteed."""

    _fields = ("kind", "index", "offset")

    def __init__(self, kind, index, offset=ZERO):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "offset", offset)

    def is_vertex(self) -> bool:
        return self.kind == "v"

    def sort_key(self):
        return (0 if self.kind == "v" else 1, self.index, self.offset)


class MetrizedGraph(Frozen):
    _fields = ("labels", "edges")  # edges: (a, b, length, weight) with vertex indices a, b

    def __init__(self, labels, edges):
        labels = tuple(str(x) for x in labels)
        if len(set(labels)) != len(labels) or not labels:
            raise GraphError("vertex labels must be nonempty and unique")
        rows = []
        for a, b, length, weight in edges:
            a, b = int(a), int(b)
            if not (0 <= a < len(labels) and 0 <= b < len(labels)):
                raise GraphError("edge endpoint out of range")
            length = rat(length)
            if length <= 0:
                raise GraphError("edge lengths must be positive")
            if not isinstance(weight, int) or isinstance(weight, bool) or weight < 1:
                raise GraphError("edge weights must be positive integers")
            rows.append((a, b, length, int(weight)))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "edges", tuple(rows))
        if len(_reach(self, 0, lambda e, w: True)) != len(labels):
            raise GraphError("graph must be connected")

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @cached_property
    def _ends(self) -> tuple:
        """Per vertex, its (edge, end) pairs by edge index, a-side first."""
        ends = [[] for _ in self.labels]
        for e, (a, b, _, _) in enumerate(self.edges):
            ends[a].append((e, 0))
            ends[b].append((e, 1))
        return tuple(map(tuple, ends))

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise GraphError(f"unknown vertex label {label!r}") from None

    def edge_length(self, e: int):
        return self.edges[e][2]

    def vertex_point(self, v: int) -> GraphPoint:
        if not 0 <= v < self.n_vertices:
            raise GraphError("vertex index out of range")
        return GraphPoint("v", v)

    def point(self, e: int, offset) -> GraphPoint:
        a, b, length, _ = self.edges[e]
        offset = rat(offset)
        if offset < 0 or offset > length:
            raise GraphError(f"offset {rat_str(offset)} outside edge of length {rat_str(length)}")
        if offset == 0:
            return GraphPoint("v", a)
        if offset == length:
            return GraphPoint("v", b)
        return GraphPoint("e", e, offset)

    def incident(self, v: int):
        """(edge index, end) pairs with end 0 for the a-side, 1 for the
        b-side, by edge index; a loop at v yields both ends."""
        return list(self._ends[v])


# ---------------------------------------------------------------------------
# PL functions
# ---------------------------------------------------------------------------


class PLFunction(Frozen):
    """Continuous piecewise linear function: values at vertices, plus sorted
    strictly interior (offset, value) breakpoints per edge."""

    _fields = ("graph", "vertex_values", "breaks")  # breaks: per edge, (offset, value) pairs

    def __init__(self, graph, vertex_values, breaks=None):
        vertex_values = tuple(rat(x) for x in vertex_values)
        if len(vertex_values) != graph.n_vertices:
            raise GraphError("one value per vertex required")
        breaks = ((),) * len(graph.edges) if breaks is None else tuple(breaks)
        if len(breaks) != len(graph.edges):
            raise GraphError("one breakpoint sequence per edge required")
        norm = []
        for e, seq in enumerate(breaks):
            length = graph.edge_length(e)
            row = tuple((rat(t), rat(v)) for t, v in seq)
            for t, _ in row:
                if not (0 < t < length):
                    raise GraphError("breakpoints must be strictly interior")
            offs = [t for t, _ in row]
            if sorted(set(offs)) != offs:
                raise GraphError("breakpoint offsets must strictly increase")
            norm.append(row)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "vertex_values", vertex_values)
        object.__setattr__(self, "breaks", tuple(norm))

    def samples(self, e: int):
        """All (offset, value) samples on edge e including both endpoints."""
        a, b, length, _ = self.graph.edges[e]
        return (
            (ZERO, self.vertex_values[a]),
            *self.breaks[e],
            (length, self.vertex_values[b]),
        )

    def value_at(self, pt: GraphPoint):
        if pt.is_vertex():
            return self.vertex_values[pt.index]
        samples = self.samples(pt.index)
        i = bisect_left(samples, (pt.offset,))
        return _interp(samples[i - 1], samples[i], pt.offset)

    def breakpoints(self):
        out = []
        for e, row in enumerate(self.breaks):
            out.extend(GraphPoint("e", e, t) for t, _ in row)
        return out

    def directional_slopes(self, pt: GraphPoint):
        """Outgoing slopes at pt: list of (edge, tag, weight, slope) where
        tag identifies the direction.  Covers loops (two directions) and
        interior breakpoints (left/right)."""
        g = self.graph
        out = []
        if pt.is_vertex():
            v = pt.index
            for e, end in g.incident(v):
                samples = self.samples(e)
                w = g.edges[e][3]
                if end == 0:
                    (t0, v0), (t1, v1) = samples[0], samples[1]
                    out.append((e, "from_a", w, (v1 - v0) / (t1 - t0)))
                else:
                    (t0, v0), (t1, v1) = samples[-2], samples[-1]
                    out.append((e, "from_b", w, (v0 - v1) / (t1 - t0)))
        else:
            e, t = pt.index, pt.offset
            samples = self.samples(e)
            w = g.edges[e][3]
            i = bisect_left(samples, (t,))
            vt = _interp(samples[i - 1], samples[i], t)
            (t0, v0), (t1, v1) = samples[i - 1], samples[i + 1 if samples[i][0] == t else i]
            out.append((e, "left", w, (v0 - vt) / (t - t0)))
            out.append((e, "right", w, (v1 - vt) / (t1 - t)))
        return out

    # -- arithmetic -----------------------------------------------------

    def _merge(self, other, op):
        """op pointwise, in one walk along each edge: at every offset where
        either function has a sample, and where self - other changes sign
        strictly inside a grid segment.  There both functions are affine
        and equal some v, so op(v, v) is exact for max, and collinear (so
        pruned again) for + and -."""
        g = self.graph
        if other.graph != g:
            raise GraphError("PL functions live on different graphs")
        vv = tuple(op(a, b) for a, b in zip(self.vertex_values, other.vertex_values))
        breaks = []
        for e in range(len(g.edges)):
            fs, gs = self.samples(e), other.samples(e)
            i = j = 0
            row, last = [], None
            while i < len(fs):
                t = min(fs[i][0], gs[j][0])
                ft = fs[i][1] if fs[i][0] == t else _interp(fs[i - 1], fs[i], t)
                gt = gs[j][1] if gs[j][0] == t else _interp(gs[j - 1], gs[j], t)
                if last is not None:
                    t0, f0, d0 = last
                    d1 = ft - gt
                    if d0 < 0 < d1 or d1 < 0 < d0:
                        tc = t0 + (t - t0) * d0 / (d0 - d1)
                        vc = _interp((t0, f0), (t, ft), tc)
                        row.append((tc, op(vc, vc)))
                row.append((t, op(ft, gt)))
                last = (t, ft, ft - gt)
                i += fs[i][0] == t
                j += gs[j][0] == t
            breaks.append(row[1:-1])
        return PLFunction(g, vv, tuple(breaks)).prune()

    def __add__(self, other):
        return self._merge(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._merge(other, lambda a, b: a - b)

    def scale(self, t):
        t = rat(t)
        return PLFunction(
            self.graph,
            tuple(t * v for v in self.vertex_values),
            tuple(tuple((o, t * v) for o, v in row) for row in self.breaks),
        )

    def add_const(self, c):
        c = rat(c)
        return PLFunction(
            self.graph,
            tuple(v + c for v in self.vertex_values),
            tuple(tuple((o, v + c) for o, v in row) for row in self.breaks),
        )

    def prune(self):
        """Drop breakpoints where the two adjacent segments are collinear.
        Collinearity is checked against the last kept sample, so runs of
        redundant points collapse in one pass."""
        breaks = []
        for e in range(len(self.graph.edges)):
            samples = list(self.samples(e))
            keep = []
            prev = samples[0]
            for i in range(1, len(samples) - 1):
                t0, v0 = prev
                t1, v1 = samples[i]
                t2, v2 = samples[i + 1]
                if (v1 - v0) * (t2 - t1) != (v2 - v1) * (t1 - t0):
                    keep.append((t1, v1))
                    prev = (t1, v1)
            breaks.append(tuple(keep))
        return PLFunction(self.graph, self.vertex_values, tuple(breaks))


def pl_max(f: PLFunction, g: PLFunction) -> PLFunction:
    """Pointwise max, with exact breakpoints at crossing offsets."""
    return f._merge(g, max)


def pl_equal(f: PLFunction, g: PLFunction) -> bool:
    """Pruned forms are canonical: prune keeps exactly the offsets where the
    left and right slopes differ."""
    return f.prune() == g.prune()


def _interp(s0, s1, t):
    """The value at offset t of the segment between samples s0 and s1."""
    (t0, v0), (t1, v1) = s0, s1
    return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


# ---------------------------------------------------------------------------
# Curvature and measures
# ---------------------------------------------------------------------------


class CurvatureData(Frozen):
    """A vertex-supported divisor-like weight: rational degree per vertex.
    Nef at graph level means the total degree is >= 0."""

    _fields = ("graph", "degrees")

    def __init__(self, graph, degrees):
        degrees = tuple(rat(x) for x in degrees)
        if len(degrees) != graph.n_vertices:
            raise GraphError("one degree per vertex required")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "degrees", degrees)

    def total(self):
        return sum(self.degrees, start=ZERO)

    def degree_at(self, pt: GraphPoint):
        return self.degrees[pt.index] if pt.is_vertex() else ZERO


class AtomicMeasure(Frozen):
    """Finitely supported rational measure; zero-mass atoms are dropped on
    construction so support is canonical."""

    _fields = ("graph", "atoms")  # atoms: sorted (GraphPoint, mass) pairs, masses nonzero

    def __init__(self, graph, atoms):
        if isinstance(atoms, dict):
            atoms = atoms.items()
        norm = {}
        for pt, mass in atoms:
            mass = rat(mass)
            if not isinstance(pt, GraphPoint):
                raise GraphError("atoms must be keyed by GraphPoint")
            if mass != 0:
                norm[pt] = norm.get(pt, ZERO) + mass
        rows = tuple(
            (pt, m) for pt, m in sorted(norm.items(), key=lambda kv: kv[0].sort_key()) if m != 0
        )
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "atoms", rows)

    def total_mass(self):
        return sum((m for _, m in self.atoms), start=ZERO)

    def is_nonnegative(self) -> bool:
        return all(m >= 0 for _, m in self.atoms)

    def __add__(self, other):
        if other.graph != self.graph:
            raise GraphError("measures live on different graphs")
        merged = dict(self.atoms)
        for pt, m in other.atoms:
            merged[pt] = merged.get(pt, ZERO) + m
        return AtomicMeasure(self.graph, merged)

    def scale(self, t):
        t = rat(t)
        return AtomicMeasure(self.graph, {pt: t * m for pt, m in self.atoms})


# ---------------------------------------------------------------------------
# Subgraphs and retraction
# ---------------------------------------------------------------------------


class Subgraph(Frozen):
    _fields = ("vertices", "edges")  # two frozensets of indices

    def __init__(self, vertices, edges):
        object.__setattr__(self, "vertices", frozenset(int(v) for v in vertices))
        object.__setattr__(self, "edges", frozenset(int(e) for e in edges))


def _reach(g: MetrizedGraph, start: int, step) -> set:
    """The vertices reachable from start along the edges e, to far ends w,
    that step(e, w) admits."""
    seen = {start}
    stack = [start]
    while stack:
        for e, end in g._ends[stack.pop()]:
            w = g.edges[e][1 - end]
            if w not in seen and step(e, w):
                seen.add(w)
                stack.append(w)
    return seen


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
    if _reach(g, min(sub.vertices), lambda e, w: e in sub.edges) != sub.vertices:
        raise RetractionError("subgraph must be connected")


def complement_components(g: MetrizedGraph, sub: Subgraph) -> list:
    """Components of (graph minus subgraph): each is (edges, vertices,
    attachment) with attachment the one subgraph vertex its edges touch.
    Components with vertices come first, by least vertex; then each edge
    joining two subgraph vertices outside sub.edges, by index.  Raises
    unless every component is a tree attached at exactly one point."""
    _validate_subgraph(g, sub)
    return _hanging_trees(g, sub)


def _hanging_trees(g: MetrizedGraph, sub: Subgraph) -> list:
    """complement_components on a subgraph already validated."""
    inside = sub.vertices
    comps, seen = [], set()
    for v in range(g.n_vertices):
        if v not in inside and v not in seen:
            verts = _reach(g, v, lambda e, w: w not in inside)
            seen |= verts
            comps.append(({e for x in verts for e, _ in g._ends[x]}, verts))
    for e, (a, b, _, _) in enumerate(g.edges):
        if e not in sub.edges and a in inside and b in inside:
            comps.append(({e}, set()))
    out = []
    for edges, verts in comps:
        attach = {x for e in edges for x in g.edges[e][:2] if x in inside}
        if len(attach) != 1:
            raise RetractionError(
                f"complement component touches the subgraph at {len(attach)} points, need exactly 1"
            )
        if len(edges) != len(verts):
            raise RetractionError("complement component is not a tree")
        out.append((tuple(sorted(edges)), tuple(sorted(verts)), attach.pop()))
    return out


def retract_point(g: MetrizedGraph, sub: Subgraph, x: GraphPoint) -> GraphPoint:
    """Retraction onto the subgraph: identity on it, each hanging tree
    collapses to its attachment vertex."""
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


class SubgraphEmbedding(NamedTuple):
    """The subgraph as a metrized graph in its own right, with index maps."""

    big: MetrizedGraph
    sub: Subgraph
    graph: MetrizedGraph
    vertex_to_sub: dict
    edge_to_sub: dict

    def restrict(self, f: PLFunction) -> PLFunction:
        if f.graph != self.big:
            raise RetractionError("function does not live on this graph")
        vv = [ZERO] * self.graph.n_vertices
        for v, sv in self.vertex_to_sub.items():
            vv[sv] = f.vertex_values[v]
        breaks = [() for _ in self.graph.edges]
        for e, se in self.edge_to_sub.items():
            breaks[se] = f.breaks[e]
        return PLFunction(self.graph, tuple(vv), tuple(breaks))


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


def compose_retraction(
    g: MetrizedGraph, sub: Subgraph, f_on_sub: PLFunction
) -> PLFunction:
    """F composed with the retraction: equals F on the subgraph and is
    constant (the attachment value) on every hanging tree."""
    emb = subgraph_graph(g, sub)
    if f_on_sub.graph != emb.graph:
        raise RetractionError("function does not live on this subgraph")
    comps = _hanging_trees(g, sub)  # sub was validated by subgraph_graph
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
