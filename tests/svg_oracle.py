"""The Fraction renderers that skelpot.svg replaced, kept as a test oracle.

skelpot.svg draws on homogeneous integer points and clips with the
division-free polyhedra.clip_ring.  The routines here are its former
bodies, unchanged: every coordinate a Fraction, mapped to the canvas by
Fraction arithmetic, and the box clipped by the former clip_ring, whose
crossings divide so that w stays in {0, 1}, with planar_oracle's
convex_hull_2d on Fraction keys.  Both must print the same bytes.
"""

from __future__ import annotations

from skelpot.graphs import MetrizedGraph, PLFunction
from skelpot.polyhedra import Polyhedron, inequalities
from skelpot.rat import Rat, rat, rat_str, rfloor, vec_sub
from skelpot.svg import _BACKGROUND, _HEADER, _MARGIN, _PALETTE, _RASTER, _SIZE
from skelpot.toric import PolyComplex

from planar_oracle import convex_hull_2d, vec_add, vec_scale


def clip_ring(ring, hps):
    """Sutherland-Hodgman clipping (Commun. ACM 1974) of a counterclockwise
    ring of generators (x, y, w) by each halfplane <n, x> <= c in turn: keep
    the generators with side <n, (x, y)> - c*w <= 0 and the crossing on each
    ring edge that changes side.  Equal w cross at (s*q - t*p) / (s - t); a
    point a and a ray r at a - (s_a/s_r)*r, and a ray parallel to the line
    (s_r = 0) is kept as itself, so w stays in {0, 1}.  None when no point
    is left: two disjoint half-strips still share a ray."""
    for n, c in hps:
        side = [n[0] * g[0] + n[1] * g[1] - c if g[2] else n[0] * g[0] + n[1] * g[1] for g in ring]
        cut = []
        for k, (q, t) in enumerate(zip(ring, side)):
            p, s = ring[k - 1], side[k - 1]
            if (s <= 0) != (t <= 0):
                if p[2] == q[2]:
                    cut.append(((s * q[0] - t * p[0]) / (s - t), (s * q[1] - t * p[1]) / (s - t), q[2]))
                else:
                    (a, sa), (r, sr) = ((p, s), (q, t)) if p[2] else ((q, t), (p, s))
                    if sr != 0:  # else the crossing is r, kept as a generator
                        f = sa / sr
                        cut.append((a[0] - f * r[0], a[1] - f * r[1], 1))
            if t <= 0:
                cut.append(q)
        if not any(g[2] for g in cut):
            return None
        ring = cut
    return ring


def _snap(q) -> str:
    """Exact rational -> decimal string on the 1/8-px raster.

    floor(8q + 1/2) for q = a/b is (16a + b) // (2b), all in int."""
    a, b = int(q.numerator), int(q.denominator)
    eighths = (2 * _RASTER * a + b) // (2 * b)
    thousandths = eighths * 125
    sign = "-" if thousandths < 0 else ""
    whole, frac = divmod(abs(thousandths), 1000)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}." + f"{frac:03d}".rstrip("0")


def _xy(p) -> str:
    return f"{_snap(p[0])},{_snap(p[1])}"


def _line(p, q, color: str, width: str = "2") -> str:
    return (
        f'<line x1="{_snap(p[0])}" y1="{_snap(p[1])}" x2="{_snap(q[0])}" '
        f'y2="{_snap(q[1])}" stroke="{color}" stroke-width="{width}"/>'
    )


def _circle(p, r: str, fill: str) -> str:
    return f'<circle cx="{_snap(p[0])}" cy="{_snap(p[1])}" r="{r}" fill="{fill}"/>'


def _text(p, s: str, size: str = "14", anchor: str = "start") -> str:
    # what xml.sax.saxutils.escape does, without importing urllib with it
    s = s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return (
        f'<text x="{_snap(p[0])}" y="{_snap(p[1])}" font-family="monospace" '
        f'font-size="{size}" text-anchor="{anchor}" fill="#111111">{s}</text>'
    )


def _document(body) -> str:
    return "\n".join([_HEADER, _BACKGROUND, *body, "</svg>"]) + "\n"


# ---------------------------------------------------------------------------
# Plane mapping for polyhedral data
# ---------------------------------------------------------------------------


class _Plane:
    """Maps the box [-b, b]^2 to the canvas, y pointing up; holds the ring
    of the box's corners, counterclockwise, for clipping."""

    def __init__(self, b):
        b = rat(b)
        if b <= 0:
            raise ValueError("bounding box half-width must be positive")
        self.b = b
        self.scale = Rat(_SIZE - 2 * _MARGIN) / (2 * b)
        self.ring = [(-b, -b, 1), (b, -b, 1), (b, b, 1), (-b, b, 1)]

    def to_px(self, p):
        x = _MARGIN + (rat(p[0]) + self.b) * self.scale
        y = _SIZE - _MARGIN - (rat(p[1]) + self.b) * self.scale
        return (x, y)


def _clipped_hull(poly: Polyhedron, plane: _Plane, facets=None):
    """Hull vertices of poly ∩ box, in drawing order; None when disjoint.

    The box's corner ring is clipped by each inequality of poly, of any
    dimension.  They come from facets() when given (a complex passes its
    cached cell facets) and from inequalities() otherwise.  convex_hull_2d
    drops the repeated and collinear points the cuts leave and puts the
    vertices in canonical order."""
    ring = clip_ring(plane.ring, facets() if facets is not None else inequalities(poly))
    return None if ring is None else convex_hull_2d(ring)


def _render_complex(pc: PolyComplex, bbox, labels) -> str:
    plane = _Plane(bbox)
    if labels is None:
        labels = [f"c{i}" for i in range(len(pc.cells))]
    if len(labels) != len(pc.cells):
        raise ValueError("one label per cell required")
    fills, edges, texts = [], [], []
    for i, cell in enumerate(pc.cells):
        hull = _clipped_hull(cell, plane, lambda: pc.halfplanes[i])
        if hull is None:
            continue
        color = _PALETTE[i % len(_PALETTE)]
        px = [plane.to_px(p) for p in hull]
        if len(px) >= 3:
            pts = " ".join(_xy(p) for p in px)
            fills.append(
                f'<polygon points="{pts}" fill="{color}" fill-opacity="0.3" '
                'stroke="#222222" stroke-width="1.5"/>'
            )
        elif len(px) == 2:
            edges.append(_line(px[0], px[1], "#222222", "1.5"))
        else:
            edges.append(_circle(px[0], "2.5", "#222222"))
        cx = sum((p[0] for p in hull), start=Rat(0)) / len(hull)
        cy = sum((p[1] for p in hull), start=Rat(0)) / len(hull)
        texts.append(_text(plane.to_px((cx, cy)), labels[i], anchor="middle"))
    return _document(fills + edges + texts)


def _render_skeleton(polys, bbox) -> str:
    plane = _Plane(bbox)
    lines, dots = [], []
    for poly in polys:
        if poly.ambient_dim != 2:
            raise ValueError("only 2-D data can be rendered")
        hull = _clipped_hull(poly, plane)
        if hull is None:
            continue
        px = [plane.to_px(p) for p in hull]
        if len(px) == 1:
            dots.append(_circle(px[0], "3", "#111111"))
        elif len(px) == 2:
            lines.append(_line(px[0], px[1], "#111111"))
        else:
            for a, b in zip(px, px[1:] + px[:1]):
                lines.append(_line(a, b, "#111111"))
    return _document(lines + dots)


# ---------------------------------------------------------------------------
# Graph drawing
# ---------------------------------------------------------------------------


def _vertex_positions(n: int):
    """Evenly spaced (by perimeter) positions on a square outline."""
    side = Rat(_SIZE - 2 * _MARGIN)
    m = Rat(_MARGIN)
    out = []
    for k in range(n):
        d = 4 * side * k / n
        s = rfloor(d / side)
        r = d - s * side
        out.append(
            (m + r, m) if s == 0 else (m + side, m + r) if s == 1
            else (m + side - r, m + side) if s == 2 else (m, m + side - r)
        )
    return out


def _edge_polyline(pa, pb, copy_index: int, loop_index: int | None):
    """Polyline vertices for one drawn edge; parallel copies bow out."""
    if loop_index is not None:
        d = Rat(18 * (loop_index + 1))
        return [
            pa,
            vec_add(pa, (d, -d)),
            vec_add(pa, (Rat(0), -2 * d)),
            vec_add(pa, (-d, -d)),
            pa,
        ]
    mid = vec_scale(Rat(1, 2), vec_add(pa, pb))
    j = copy_index
    off = Rat(16 * ((j + 1) // 2) * (1 if j % 2 else -1))
    if off == 0:
        return [pa, pb]
    dx, dy = vec_sub(pb, pa)
    denom = max(abs(dx), abs(dy))
    perp = (-dy * off / denom, dx * off / denom)
    return [pa, vec_add(mid, perp), pb]


def _along(polyline, frac):
    """Point at parameter frac in [0, 1], linear in segment count."""
    segs = len(polyline) - 1
    t = rat(frac) * segs
    i = min(rfloor(t), segs - 1)
    local = t - i
    return vec_add(
        polyline[i], vec_scale(local, vec_sub(polyline[i + 1], polyline[i]))
    )


def _render_graph(g: MetrizedGraph, overlay: PLFunction | None) -> str:
    if overlay is not None and overlay.graph != g:
        raise ValueError("overlay function lives on a different graph")
    pos = _vertex_positions(g.n_vertices)
    pair_seen: dict = {}
    loop_seen: dict = {}
    edge_elems, marker_elems = [], []
    for e, (a, b, length, _w) in enumerate(g.edges):
        color = _PALETTE[e % len(_PALETTE)] if overlay is not None else "#555555"
        if a == b:
            k = loop_seen.get(a, 0)
            loop_seen[a] = k + 1
            line = _edge_polyline(pos[a], pos[a], 0, k)
        else:
            key = (min(a, b), max(a, b))
            j = pair_seen.get(key, 0)
            pair_seen[key] = j + 1
            line = _edge_polyline(pos[a], pos[b], j, None)
        pts = " ".join(_xy(p) for p in line)
        edge_elems.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        if overlay is not None:
            for t, val in overlay.breaks[e]:
                p = _along(line, t / length)
                marker_elems.append(_circle(p, "3", color))
                marker_elems.append(
                    _text(vec_add(p, (Rat(5), Rat(-5))), rat_str(val), size="11")
                )
    dots, labels = [], []
    for v, p in enumerate(pos):
        dots.append(_circle(p, "4", "#111111"))
        name = g.labels[v]
        if overlay is not None:
            name = f"{name}={rat_str(overlay.vertex_values[v])}"
        labels.append(_text(vec_add(p, (Rat(6), Rat(-8))), name))
    return _document(edge_elems + marker_elems + dots + labels)


def render_svg(obj, *, bbox=3, overlay: PLFunction | None = None, labels=None) -> str:
    """skelpot.svg.render_svg through the Fraction renderers."""
    if isinstance(obj, MetrizedGraph):
        return _render_graph(obj, overlay)
    if isinstance(obj, PolyComplex):
        return _render_complex(obj, bbox, labels)
    if isinstance(obj, Polyhedron):
        return _render_skeleton([obj], bbox)
    return _render_skeleton(obj, bbox)
