"""Rendering: byte-reproducible SVG 1.1 on a 1/8-px raster."""

import os
import pathlib
import random
import re
import subprocess
import sys
from functools import cmp_to_key
from xml.dom import minidom

import pytest
from hypothesis import given, settings, strategies as st

from skelpot import jsonio, svg as svg_mod
from skelpot.fixtures import CELL_LABELS, counterexample_fixture
from skelpot.graphs import CurvatureData, MetrizedGraph, PLFunction
from skelpot.polyhedra import (
    Polyhedron,
    angle_order,
    convex_hull_2d,
    halfplanes,
    is_pointed,
    minimalize,
    poly_dim,
)
from skelpot.rat import Rat, cross2, rfloor
from skelpot.scenarios import builtin_names, execute, load_builtin
from skelpot.svg import render_svg
from skelpot.toric import PolyComplex, skeleton

import svg_oracle
from helpers import rand_graph, rand_len, rand_plf
from planar_oracle import box, clip_thin, intersect2


def _coords(svg):
    # every numeric attribute in the document
    return re.findall(r'(?:x|y|cx|cy|x1|y1|x2|y2)="(-?[0-9.]+)"', svg) + [
        tok
        for points in re.findall(r'points="([^"]+)"', svg)
        for pair in points.split()
        for tok in pair.split(",")
    ]


def test_unit_triangle_skeleton_is_three_segments():
    tri = Polyhedron(((0, 0), (1, 0), (0, 1)))
    svg = render_svg(tri)
    assert svg.startswith("<svg ")
    assert svg.count("<line ") == 3
    assert "<polygon" not in svg


def test_byte_reproducible():
    fx = counterexample_fixture()
    a = render_svg(fx.pi, labels=list(CELL_LABELS))
    b = render_svg(fx.pi, labels=list(CELL_LABELS))
    assert a == b
    g = MetrizedGraph(["a", "b"], [(0, 1, 1, 1), (0, 1, 1, 2), (0, 0, 2, 1)])
    f = PLFunction(g, [Rat(0), Rat(1)], (((Rat(1, 2), Rat(2)),), (), ()))
    assert render_svg(g, overlay=f) == render_svg(g, overlay=f)


def _thousandths(tok):
    neg = tok.startswith("-")
    tok = tok.lstrip("-")
    whole, _, frac = tok.partition(".")
    assert len(frac) <= 3
    v = int(whole) * 1000 + int(frac.ljust(3, "0") or "0")
    return -v if neg else v


def test_raster_snapping():
    svg = render_svg(Polyhedron(((Rat(1, 3), Rat(1, 7)), (1, 1))), bbox=2)
    toks = _coords(svg)
    assert toks
    for tok in toks:
        # the 1/8-px raster: value * 1000 is an integer multiple of 125
        assert _thousandths(tok) % 125 == 0


def test_complex_clipping_and_labels():
    fx = counterexample_fixture()
    svg = render_svg(fx.pi, bbox=3, labels=list(CELL_LABELS))
    for name in CELL_LABELS:
        assert f">{name}</text>" in svg
    # unbounded cells are clipped: no coordinate leaves the canvas
    for tok in _coords(svg):
        v = float(tok)
        assert -1 <= v <= 641
    with pytest.raises(ValueError, match="label per cell"):
        render_svg(fx.pi, labels=["just-one"])


def test_bbox_validation_and_types():
    tri = Polyhedron(((0, 0), (1, 0), (0, 1)))
    with pytest.raises(ValueError):
        render_svg(tri, bbox=0)
    with pytest.raises(TypeError):
        render_svg("not renderable")
    with pytest.raises(ValueError, match="2-D"):
        render_svg([Polyhedron(((0, 0, 0),))])


def test_graph_overlay_markers():
    g = MetrizedGraph(["a", "b"], [(0, 1, 2, 1)])
    f = PLFunction(g, [Rat(0), Rat(0)], (((Rat(1), Rat(-1)),),))
    svg = render_svg(g, overlay=f)
    assert "a=0" in svg and "b=0" in svg  # vertex value labels
    assert ">-1</text>" in svg  # breakpoint value marker
    g2 = MetrizedGraph(["x", "y"], [(0, 1, 2, 1)])
    with pytest.raises(ValueError, match="different graph"):
        render_svg(g2, overlay=f)


def test_skeleton_of_refined_complex_renders():
    fx = counterexample_fixture()
    svg = render_svg(list(skeleton(fx.refined())), bbox=2)
    assert svg.count("<line ") >= 6  # two triangles
    assert svg.rstrip().endswith("</svg>")


def _clip_by_intersect2(poly, plane, facets=None):
    """Clipping through bare-polyhedron intersection, ignoring any cached
    facets, and parametric clipping for thin pieces: the reference route
    for the complex renderer."""
    if poly_dim(poly) < 2:
        return clip_thin(poly, plane)
    cut = intersect2(poly, box(plane.b))
    if cut is None:
        return None
    pts = minimalize(cut).gen_points
    return convex_hull_2d(pts) if len(pts) > 2 else list(pts)


def test_complex_clipping_matches_bare_intersections(monkeypatch):
    fx = counterexample_fixture()
    complexes = (fx.pi, fx.pi_prime, fx.refined())
    cases = [(pc, bbox) for pc in complexes for bbox in (3, Rat(1, 2))]
    cached = [render_svg(pc, bbox=bbox) for pc, bbox in cases]
    monkeypatch.setattr(svg_mod, "_clipped_hull", _clip_by_intersect2)
    assert cached == [render_svg(pc, bbox=bbox) for pc, bbox in cases]


_BOXES = (Rat(1, 2), Rat(3), Rat(7, 3))
_RAYS = ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 2), (2, -1), (-3, -1))


@st.composite
def _clip_cases(draw):
    """(cell, b): a 2-dimensional pointed cell, bounded or not, with its
    points on the grid of step b/12 (so on the box [-b, b]^2 now and then)
    or, shrunk, strictly inside the box; it may be moved so one of its
    points sits on a corner or an edge of the box."""
    b = draw(st.sampled_from(_BOXES))
    step = b / draw(st.sampled_from((12, 36)))
    coord = st.integers(-30, 30).map(lambda k: k * step)
    pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=4, unique=True))
    rays = draw(st.lists(st.sampled_from(_RAYS), max_size=2, unique=True))
    cell = Polyhedron(pts, rays)
    anchor = draw(st.sampled_from((None, (b, b), (-b, b), (b, -b), (-b, -b), (b, 0), (0, -b))))
    if anchor is not None:
        p = draw(st.sampled_from(pts))
        cell = cell.translate((anchor[0] - p[0], anchor[1] - p[1]))
    if poly_dim(cell) < 2 or not is_pointed(cell):
        return draw(st.nothing())
    return cell, b


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_clip_cases(), st.randoms(use_true_random=False))
def test_box_cut_matches_halfplane_intersection(case, rnd):
    """The box ring cut by the cell's facets, in any facet order, gives the
    hull of the halfplane intersection of cell and box."""
    cell, b = case
    plane = svg_mod._Plane(b)
    want = _clip_by_intersect2(cell, plane)
    assert svg_mod._clipped_hull(cell, plane) == want
    facets = list(halfplanes(cell))
    rnd.shuffle(facets)
    assert svg_mod._clipped_hull(cell, plane, tuple(facets)) == want


def test_box_cut_degenerate_cases():
    """Cells disjoint from the box, touching it at a corner or along an
    edge, and strictly inside it."""
    plane = svg_mod._Plane(3)
    cases = [
        (Polyhedron(((4, 4), (5, 4), (4, 5))), None),  # disjoint
        (Polyhedron(((-4, 0),), ((-1, 0), (-1, 1))), None),  # unbounded, disjoint
        (Polyhedron(((3, 3), (4, 3), (3, 4))), [(3, 3)]),  # the corner
        (Polyhedron(((3, -3),), ((1, 0), (0, -1))), [(3, -3)]),  # a cone at a corner
        (Polyhedron(((3, -1), (4, -1), (3, 1), (4, 1))), [(3, -1), (3, 1)]),  # along an edge
        (Polyhedron(((-5, -3), (5, -3)), ((0, -1),)), [(-3, -3), (3, -3)]),  # along a side
        (Polyhedron(((0, 0), (1, 0), (0, 1))), [(0, 0), (1, 0), (0, 1)]),  # inside
        (Polyhedron(((0, 0),), ((1, 0), (0, 1))), [(0, 0), (3, 0), (3, 3), (0, 3)]),
    ]
    for cell, want in cases:
        got = svg_mod._clipped_hull(cell, plane)
        assert got == (None if want is None else [tuple(map(Rat, p)) for p in want])
        assert got == _clip_by_intersect2(cell, plane)


_DIRS = ((1, 0), (0, 1), (1, 1), (1, -1), (-1, 2), (2, -1), (-3, -1), (1, 3))


@st.composite
def _thin_cases(draw):
    """(piece, b): a point, segment, set of collinear points, half-line or
    line, with its points on the grid of step b/12 along a direction from
    _DIRS (so often outside the box [-b, b]^2 and now and then on its
    boundary); it may be moved so one of its points sits on a corner or an
    edge of the box."""
    b = draw(st.sampled_from(_BOXES))
    step = b / 12
    coord = st.integers(-30, 30).map(lambda k: k * step)
    base = (draw(coord), draw(coord))
    d = draw(st.sampled_from(_DIRS))
    if draw(st.booleans()):
        d = (-d[0], -d[1])
    kind = draw(st.sampled_from(("point", "segment", "collinear", "half-line", "line")))
    if kind == "point":
        ks = [0]
    elif kind == "segment":
        ks = [0, draw(st.integers(1, 24))]
    else:
        ks = draw(st.lists(st.integers(-12, 12), min_size=1, max_size=4, unique=True))
    pts = [(base[0] + k * step * d[0], base[1] + k * step * d[1]) for k in ks]
    rays = {"half-line": [d], "line": [d, (-d[0], -d[1])]}.get(kind, [])
    anchor = draw(st.sampled_from((None, (b, b), (-b, b), (b, -b), (-b, -b), (b, 0), (0, -b))))
    piece = Polyhedron(pts, rays)
    if anchor is not None:
        p = draw(st.sampled_from(pts))
        piece = piece.translate((anchor[0] - p[0], anchor[1] - p[1]))
    return piece, b


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_thin_cases())
def test_thin_piece_cut_matches_parametric_clipping(case):
    """The box ring cut by the inequalities of a point, segment, collinear
    set, half-line or line gives the parametric clip: the same list for a
    bounded piece, and the same endpoints (or None) for an unbounded one,
    whose parametric endpoints follow its direction instead of sorting."""
    piece, b = case
    plane = svg_mod._Plane(b)
    got, want = svg_mod._clipped_hull(piece, plane), clip_thin(piece, plane)
    if not piece.gen_rays or want is None:
        assert got == want
    else:
        assert got is not None and set(got) == set(want)


def _snap_by_fraction(q):
    eighths = rfloor(q * 8 + Rat(1, 2))
    thousandths = eighths * 125
    sign = "-" if thousandths < 0 else ""
    whole, frac = divmod(abs(thousandths), 1000)
    return f"{sign}{whole}" + (f".{frac:03d}".rstrip("0") if frac else "")


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.builds(Rat, st.integers(-(10**12), 10**12), st.integers(1, 10**6)),
        st.integers(-(10**4), 10**4).map(lambda k: Rat(2 * k + 1, 16)),  # ties
    )
)
def test_snap_in_integers_matches_fraction_rounding(q):
    assert svg_mod._snap(q) == _snap_by_fraction(q)


def test_snap_rounds_ties_up():
    assert [svg_mod._snap(Rat(k, 16)) for k in (-3, -1, 1, 3)] == ["-0.125", "0", "0.125", "0.25"]


def test_svg_escapes_text_without_saxutils():
    """Importing the package and its CLI leaves xml.sax.saxutils unloaded,
    and _text escapes as xml.sax.saxutils.escape does."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, skelpot, skelpot.cli\n"
        "print('xml.sax.saxutils' in sys.modules)\n"
        "from xml.sax.saxutils import escape\n"
        "s = 'a&b<c>d\"e\\'f &amp; <<>>'\n"
        "print(skelpot.svg._text((0, 0), s).endswith('>' + escape(s) + '</text>'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.stdout == "False\nTrue\n", proc.stderr


# ---------------------------------------------------------------------------
# Two routes: the integer raster against the Fraction renderers
# ---------------------------------------------------------------------------


def _rand_graph_case(rng):
    """A seeded graph of 1-40 vertices with loops and parallel edges, and
    an overlay summed from three rand_plf functions, so an edge carries up
    to six breakpoints."""
    g = rand_graph(rng, max_v=40, max_e=60)
    a, b = g.edges[0][:2] if g.edges else (0, 0)
    extra = [(b, b, rand_len(rng), 1) for _ in range(rng.randint(0, 2))]
    extra += [(a, b, rand_len(rng), 2) for _ in range(rng.randint(0, 4))]
    g = MetrizedGraph(g.labels, g.edges + tuple(extra))
    return g, rand_plf(rng, g) + rand_plf(rng, g) + rand_plf(rng, g)


def test_graph_renderer_matches_fraction_oracle():
    rng = random.Random(23)
    for _ in range(60):
        g, f = _rand_graph_case(rng)
        assert render_svg(g) == svg_oracle.render_svg(g)
        assert render_svg(g, overlay=f) == svg_oracle.render_svg(g, overlay=f)


def _rand_cell(rng, b):
    """A 2-dimensional pointed cell, bounded or not, with its points on the
    grid of step b/12 or b/36, often reaching past the box [-b, b]^2."""
    step = b / rng.choice((12, 36))
    while True:
        pts = [(rng.randint(-30, 30) * step, rng.randint(-30, 30) * step) for _ in range(rng.randint(1, 4))]
        cell = Polyhedron(pts, rng.sample(_RAYS, rng.randint(0, 2)))
        if poly_dim(cell) == 2 and is_pointed(cell):
            return cell


def _rand_thin(rng, b):
    """A point, segment, collinear set, half-line or line on the grid of
    step b/12 along a direction from _DIRS."""
    step = b / 12
    base = (rng.randint(-30, 30) * step, rng.randint(-30, 30) * step)
    d = rng.choice(_DIRS)
    ks = rng.sample(range(-12, 13), rng.randint(1, 4))
    pts = [(base[0] + k * step * d[0], base[1] + k * step * d[1]) for k in ks]
    return Polyhedron(pts, rng.choice(([], [d], [d, (-d[0], -d[1])])))


def test_complex_and_skeleton_renderers_match_fraction_oracle():
    rng = random.Random(23)
    fx = counterexample_fixture()
    for b in (Rat(1, 2), Rat(7, 3), Rat(3), Rat(10)):
        for pc in (fx.pi, fx.pi_prime, fx.refined()):
            assert render_svg(pc, bbox=b) == svg_oracle.render_svg(pc, bbox=b)
            pieces = list(skeleton(pc))
            assert render_svg(pieces, bbox=b) == svg_oracle.render_svg(pieces, bbox=b)
        for _ in range(15):
            cells = [_rand_cell(rng, b) for _ in range(rng.randint(1, 4))]
            pc = PolyComplex(cells)
            assert render_svg(pc, bbox=b) == svg_oracle.render_svg(pc, bbox=b)
            pieces = [_rand_thin(rng, b) for _ in range(rng.randint(1, 4))] + cells
            assert render_svg(pieces, bbox=b) == svg_oracle.render_svg(pieces, bbox=b)


# ---------------------------------------------------------------------------
# Well-formed XML
# ---------------------------------------------------------------------------


def _rand_fan(rng):
    """A complete simplicial fan at a random rational apex: rays from _DIRS
    and their negatives, sorted by angle, each turn less than pi."""
    dirs = sorted({d for r in _DIRS for d in (r, (-r[0], -r[1]))}, key=cmp_to_key(angle_order))
    while True:
        rays = sorted(rng.sample(dirs, rng.randint(3, 6)), key=cmp_to_key(angle_order))
        if all(cross2(r, s) > 0 for r, s in zip(rays, rays[1:] + rays[:1])):
            break
    apex = (Rat(rng.randint(-9, 9), rng.randint(1, 4)), Rat(rng.randint(-9, 9), rng.randint(1, 4)))
    return PolyComplex([Polyhedron([apex], [r, s]) for r, s in zip(rays, rays[1:] + rays[:1])])


def test_every_figure_is_well_formed_xml():
    """Every SVG of the built-ins, and of generated envelope scenarios whose
    vertex names hold XML's special characters and of generated fans, parses
    with xml.dom.minidom."""
    outs = [execute(load_builtin(name)) for name in builtin_names()]
    rng = random.Random(5)
    names = ("a&b", "<v>", 'q"t', "x'y", "tab\there", "é", "\U0001F600", "]]>")
    for _ in range(3):
        g, f = _rand_graph_case(rng)
        g = MetrizedGraph([f"{names[v % len(names)]}{v}" for v in range(g.n_vertices)], g.edges)
        f = PLFunction(g, f.vertex_values, f.breaks)
        graph = jsonio.graph_to_json(g, CurvatureData(g, [1] * g.n_vertices))
        outs.append(execute({"kind": "curve-envelope", "graph": graph, "f": jsonio.plf_to_json(f)}))
    for _ in range(3):
        outs.append(execute({"kind": "toric-skeleton", "complex": jsonio.complex_to_json(_rand_fan(rng))}))
    figures = [svg for out in outs for svg in out.figures.values()]
    assert len(figures) == 8 + 3 * 2 + 3 * 2
    for svg in figures:
        assert minidom.parseString(svg.encode("utf-8")).documentElement.tagName == "svg"


@pytest.mark.parametrize("bad", ["\x01", "\x00", "\x1f", "\ufffe", "\ud800", "\x0b"])
def test_names_outside_xml_are_refused_by_the_renderer(bad):
    """A vertex name or cell label built in Python with a character that
    XML 1.0 forbids raises ValueError naming it, instead of a malformed
    figure; tab, LF and CR pass, and the figure parses."""
    g = MetrizedGraph([f"a{bad}", "b"], [(0, 1, 1, 1)])
    with pytest.raises(ValueError, match=re.escape(f"vertex name {f'a{bad}'!a} holds U+{ord(bad):04X}")):
        render_svg(g)
    pi = counterexample_fixture().pi
    labels = [f"c{bad}"] + list(CELL_LABELS[1:])
    with pytest.raises(ValueError, match=re.escape(f"cell label {f'c{bad}'!a} holds U+{ord(bad):04X}")):
        render_svg(pi, labels=labels)
    for svg in (
        render_svg(MetrizedGraph(["a\t\n\r", "b"], [(0, 1, 1, 1)])),
        render_svg(pi, labels=["d\te\nf\r"] + list(CELL_LABELS[1:])),
    ):
        assert minidom.parseString(svg.encode("utf-8")).documentElement.tagName == "svg"
