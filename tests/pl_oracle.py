"""Scanning forms of the PL-function operations: the tests' oracle for
skelpot.graphs.

Each function is the straightforward version of a PLFunction method or
graphs function, written as a module function of the PL function(s) it
acts on.  `value_at` scans an edge's samples for the segment holding the
point; `directional_slopes` takes a breakpoint's neighbours as the max and
min over all samples; `merge` and `pl_max` evaluate both functions with
`value_at` at every offset of the union of their breakpoints.  They are
quadratic in the breakpoints of one edge, which is fine for tests.
"""

from __future__ import annotations

from skelpot.graphs import GraphError, GraphPoint, PLFunction
from skelpot.rat import Rat

ZERO = Rat(0)


def value_at(self: PLFunction, pt: GraphPoint):
    if pt.is_vertex():
        return self.vertex_values[pt.index]
    t = pt.offset
    samples = self.samples(pt.index)
    for (t0, v0), (t1, v1) in zip(samples, samples[1:]):
        if t0 <= t <= t1:
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    raise GraphError("point outside edge")


def directional_slopes(self: PLFunction, pt: GraphPoint):
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
        vt = value_at(self, pt)
        left = max(((t0, v0) for t0, v0 in samples if t0 < t), key=lambda s: s[0])
        right = min(((t1, v1) for t1, v1 in samples if t1 > t), key=lambda s: s[0])
        out.append((e, "left", w, (left[1] - vt) / (t - left[0])))
        out.append((e, "right", w, (right[1] - vt) / (right[0] - t)))
    return out


def merge(self: PLFunction, other: PLFunction, op):
    g = self.graph
    if other.graph != g:
        raise GraphError("PL functions live on different graphs")
    vv = tuple(op(a, b) for a, b in zip(self.vertex_values, other.vertex_values))
    breaks = []
    for e in range(len(g.edges)):
        offs = sorted(
            {t for t, _ in self.breaks[e]} | {t for t, _ in other.breaks[e]}
        )
        row = tuple(
            (t, op(value_at(self, GraphPoint("e", e, t)), value_at(other, GraphPoint("e", e, t))))
            for t in offs
        )
        breaks.append(row)
    return PLFunction(g, vv, tuple(breaks)).prune()


def pl_max(f: PLFunction, g: PLFunction) -> PLFunction:
    """Pointwise max, with exact breakpoints at crossing offsets."""
    gr = f.graph
    if g.graph != gr:
        raise GraphError("PL functions live on different graphs")
    vv = tuple(max(a, b) for a, b in zip(f.vertex_values, g.vertex_values))
    breaks = []
    for e in range(len(gr.edges)):
        offs = sorted({t for t, _ in f.breaks[e]} | {t for t, _ in g.breaks[e]})
        length = gr.edge_length(e)
        grid = [ZERO] + offs + [length]
        row = []
        for t0, t1 in zip(grid, grid[1:]):
            f0 = value_at(f, gr.point(e, t0))
            f1 = value_at(f, gr.point(e, t1))
            g0 = value_at(g, gr.point(e, t0))
            g1 = value_at(g, gr.point(e, t1))
            # crossing of the two affine pieces inside (t0, t1)?
            d0, d1 = f0 - g0, f1 - g1
            if d0 * d1 < 0:
                tc = t0 + (t1 - t0) * d0 / (d0 - d1)
                vc = f0 + (f1 - f0) * (tc - t0) / (t1 - t0)
                row.append((tc, vc))
            if t1 != length:
                row.append((t1, max(f1, g1)))
        breaks.append(tuple(row))
    return PLFunction(gr, vv, tuple(breaks)).prune()


def pl_equal(f: PLFunction, g: PLFunction) -> bool:
    if f.graph != g.graph:
        return False
    diff = merge(f, g, lambda a, b: a - b)
    if any(v != 0 for v in diff.vertex_values):
        return False
    return all(not row or all(v == 0 for _, v in row) for row in diff.breaks)
