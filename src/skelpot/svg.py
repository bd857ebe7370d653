"""Deterministic SVG 1.1 rendering of 2-D objects.

Raster rule: every emitted coordinate is an exact rational, held as a
homogeneous integer point (x, y, w), w > 0, and snapped to a 1/8-px grid
(round-half-up) by one int floor division; it is printed as a decimal
with at most three places (1/8 = 0.125 is exact).  No floating point is
involved anywhere, and no Fraction arithmetic runs per coordinate, so
equal input yields byte-identical output.

Renderable objects: a metrized graph (optionally with a PL overlay), a
polyhedral complex (cells clipped to the bounding box and labeled), a
single polyhedron, or a sequence of polyhedra (drawn as a skeleton:
1-dimensional pieces and polygon boundaries become line segments).  A
vertex name or cell label holding a character that XML 1.0 does not allow
is refused with ValueError, since no escape can write it.

Every piece is clipped to the box by polyhedra.clip_ring, the
Sutherland-Hodgman kernel that toric also uses for cell ∩ cell: the box's
integer corner ring is cut by each inequality of the piece in turn (the facets of
a cell; both sides of its line and its bounded ends for a segment, ray or
line; the x- and y-lines through a point), so an unbounded piece needs no
special handling of its rays, and each cut costs O(ring).
"""

from __future__ import annotations

import re

from .graphs import MetrizedGraph, PLFunction
from .polyhedra import Polyhedron, clip_ring, convex_hull_2d, inequalities, over_common_denominator
from .rat import Rat, rat, rat_str
from .toric import PolyComplex

_SIZE = 640
_MARGIN = 80
_RASTER = 8

_PALETTE = (
    "#3366cc",
    "#dc3912",
    "#ff9900",
    "#109618",
    "#990099",
    "#0099c6",
    "#dd4477",
    "#66aa00",
)

_HEADER = (
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    f'width="{_SIZE}" height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">'
)
_BACKGROUND = f'<rect x="0" y="0" width="{_SIZE}" height="{_SIZE}" fill="#ffffff"/>'


def _snap(x, w=1) -> str:
    """The rational x/w, w > 0 -> decimal string on the 1/8-px raster.

    floor(8x/w + 1/2) is (16x + w) // (2w), all in int on int data."""
    eighths = (2 * _RASTER * x + w) // (2 * w)
    thousandths = eighths * 125
    sign = "-" if thousandths < 0 else ""
    whole, frac = divmod(abs(thousandths), 1000)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}." + f"{frac:03d}".rstrip("0")


def _pt(x, y, w):
    """The homogeneous point (x, y, w), w > 0, as its snapped coordinates."""
    return _snap(x, w), _snap(y, w)


def _line(p, q, color: str, width: str = "2") -> str:
    return (
        f'<line x1="{p[0]}" y1="{p[1]}" x2="{q[0]}" '
        f'y2="{q[1]}" stroke="{color}" stroke-width="{width}"/>'
    )


def _circle(p, r: str, fill: str) -> str:
    return f'<circle cx="{p[0]}" cy="{p[1]}" r="{r}" fill="{fill}"/>'


# The code points that XML 1.0 does not allow in a document, all outside
# str.isprintable(); compiled by re on first use.
_NOT_XML = "[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"


def xml_name(kind: str, name: str) -> str:
    """name, or ValueError naming it when it holds a character that XML 1.0
    does not allow, which would leave the figure malformed."""
    bad = None if name.isprintable() else re.search(_NOT_XML, name)
    if bad:
        raise ValueError(
            f"{kind} {name!a} holds U+{ord(bad.group()):04X}, "
            "which XML 1.0 does not allow in the SVG figures"
        )
    return name


def _text(p, s: str, size: str = "14", anchor: str = "start") -> str:
    # what xml.sax.saxutils.escape does, without importing urllib with it
    s = s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return (
        f'<text x="{p[0]}" y="{p[1]}" font-family="monospace" '
        f'font-size="{size}" text-anchor="{anchor}" fill="#111111">{s}</text>'
    )


def _document(body) -> str:
    return "\n".join([_HEADER, _BACKGROUND, *body, "</svg>"]) + "\n"


# ---------------------------------------------------------------------------
# Plane mapping for polyhedral data
# ---------------------------------------------------------------------------


class _Plane:
    """Maps the box [-b, b]^2, b = B/D, to the canvas, y pointing up; holds
    the ring of the box's corners, counterclockwise, for clipping."""

    def __init__(self, b):
        b = rat(b)
        if b <= 0:
            raise ValueError("bounding box half-width must be positive")
        self.b = b
        self.B, self.D = B, D = int(b.numerator), int(b.denominator)
        self.ring = [(-B, -B, D), (B, -B, D), (B, B, D), (-B, B, D)]

    def to_px(self, x, y, w):
        """The model point (x/w, y/w) on the canvas, snapped: the centre
        plus (x, -y) times the scale (_SIZE/2 - _MARGIN) / b."""
        c, k = _SIZE // 2 * w * self.B, (_SIZE // 2 - _MARGIN) * self.D
        return _pt(c + k * x, c - k * y, w * self.B)


def _clipped_hull(poly: Polyhedron, plane: _Plane, facets=None):
    """Hull vertices of poly ∩ box, in drawing order; None when disjoint.

    The box's corner ring is clipped by each inequality of poly, of any
    dimension: facets when given (a complex passes its cached cell facets)
    and inequalities(poly) otherwise.  convex_hull_2d drops the repeated
    and collinear points the cuts leave and puts the vertices in canonical
    order."""
    ring = clip_ring(plane.ring, facets if facets is not None else inequalities(poly))
    return None if ring is None else convex_hull_2d([(Rat(x, w), Rat(y, w)) for x, y, w in ring])


def _render_complex(pc: PolyComplex, bbox, labels) -> str:
    plane = _Plane(bbox)
    if labels is None:
        labels = [f"c{i}" for i in range(len(pc.cells))]
    if len(labels) != len(pc.cells):
        raise ValueError("one label per cell required")
    for label in labels:
        xml_name("cell label", label)
    fills, edges, texts = [], [], []
    for i, cell in enumerate(pc.cells):
        hull = _clipped_hull(cell, plane, pc.halfplanes[i])
        if hull is None:
            continue
        color = _PALETTE[i % len(_PALETTE)]
        L, keys = over_common_denominator(hull)
        px = [plane.to_px(x, y, L) for x, y in keys]
        if len(px) >= 3:
            pts = " ".join(map(",".join, px))
            fills.append(
                f'<polygon points="{pts}" fill="{color}" fill-opacity="0.3" '
                'stroke="#222222" stroke-width="1.5"/>'
            )
        elif len(px) == 2:
            edges.append(_line(px[0], px[1], "#222222", "1.5"))
        else:
            edges.append(_circle(px[0], "2.5", "#222222"))
        centroid = plane.to_px(sum(x for x, _ in keys), sum(y for _, y in keys), L * len(keys))
        texts.append(_text(centroid, labels[i], anchor="middle"))
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
        L, keys = over_common_denominator(hull)
        px = [plane.to_px(x, y, L) for x, y in keys]
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
    """Evenly spaced (by perimeter) positions on a square outline, as
    homogeneous points of weight n."""
    side, m = (_SIZE - 2 * _MARGIN) * n, _MARGIN * n
    out = []
    for k in range(n):
        s, r = divmod(4 * (_SIZE - 2 * _MARGIN) * k, side)
        out.append(
            (m + r, m, n) if s == 0 else (m + side, m + r, n) if s == 1
            else (m + side - r, m + side, n) if s == 2 else (m, m + side - r, n)
        )
    return out


def _edge_polyline(pa, pb, copy_index: int, loop_index: int | None):
    """Polyline vertices for one drawn edge, homogeneous; pa and pb have
    the same weight.  Parallel copies bow out."""
    x, y, w = pa
    if loop_index is not None:
        d = 18 * (loop_index + 1) * w
        return [pa, (x + d, y - d, w), (x, y - 2 * d, w), (x - d, y - d, w), pa]
    j = copy_index
    off = 16 * ((j + 1) // 2) * (1 if j % 2 else -1)
    if off == 0:
        return [pa, pb]
    dx, dy = pb[0] - x, pb[1] - y
    m = max(abs(dx), abs(dy))
    # the midpoint plus (-dy, dx) * off / m
    return [pa, ((x + pb[0]) * m - 2 * w * dy * off, (y + pb[1]) * m + 2 * w * dx * off, 2 * w * m), pb]


def _along(polyline, frac):
    """Point at parameter frac in [0, 1], linear in segment count."""
    a, b = int(frac.numerator), int(frac.denominator)
    segs = len(polyline) - 1
    i = min(segs * a // b, segs - 1)
    u = segs * a - i * b  # the offset u/b into segment i
    (x0, y0, w0), (x1, y1, w1) = polyline[i], polyline[i + 1]
    return ((b - u) * x0 * w1 + u * x1 * w0, (b - u) * y0 * w1 + u * y1 * w0, b * w0 * w1)


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
        pts = " ".join(",".join(_pt(*p)) for p in line)
        edge_elems.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        if overlay is not None:
            for t, val in overlay.breaks[e]:
                x, y, w = _along(line, t / length)
                marker_elems.append(_circle(_pt(x, y, w), "3", color))
                marker_elems.append(_text(_pt(x + 5 * w, y - 5 * w, w), rat_str(val), size="11"))
    dots, labels = [], []
    for v, (x, y, w) in enumerate(pos):
        dots.append(_circle(_pt(x, y, w), "4", "#111111"))
        name = xml_name("vertex name", g.labels[v])
        if overlay is not None:
            name = f"{name}={rat_str(overlay.vertex_values[v])}"
        labels.append(_text(_pt(x + 6 * w, y - 8 * w, w), name))
    return _document(edge_elems + marker_elems + dots + labels)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def render_svg(obj, *, bbox=3, overlay: PLFunction | None = None, labels=None) -> str:
    """SVG text for a graph, complex, polyhedron or sequence of polyhedra.

    bbox is the half-width b of the clipping box [-b, b]^2 used for
    polyhedral data (unbounded cells are cut there); it is ignored for
    graphs, whose layout is combinatorial.
    """
    if isinstance(obj, MetrizedGraph):
        return _render_graph(obj, overlay)
    if isinstance(obj, PolyComplex):
        return _render_complex(obj, bbox, labels)
    if isinstance(obj, Polyhedron):
        return _render_skeleton([obj], bbox)
    if isinstance(obj, (list, tuple)) and all(isinstance(p, Polyhedron) for p in obj):
        return _render_skeleton(obj, bbox)
    raise TypeError(f"cannot render {type(obj).__name__}")
