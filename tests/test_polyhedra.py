import importlib
import itertools
import math
import pkgutil
import random

import pytest
from hypothesis import given, settings, strategies as st

import skelpot
from skelpot import svg as svg_mod
from skelpot import toric as toric_mod
from skelpot.fixtures import counterexample_fixture
from skelpot.polyhedra import (
    Polyhedron,
    cell_ring,
    clip_ring,
    convex_hull_2d,
    halfplanes,
    hull_area_2d,
    inequalities,
    minimalize,
    poly_contains,
    poly_dim,
    poly_equal,
    poly_is_subset,
    is_pointed,
    recession,
)
from skelpot.rat import Rat, adjugate, cramer, primitive
from skelpot.toric import PolyComplex, ToricError, _cell_flags, _facets, decompose, refine, retraction

from helpers import forbid_fraction_arithmetic
from linear_oracle import solve_linear
from lp_oracle import LinearProgram, lp_solve
from planar_oracle import (
    convex_hull_2d as fraction_convex_hull_2d,
    fraction_cell_flags,
    fraction_decompose,
    fraction_facets,
    fraction_halfplane_contains,
    fraction_halfplanes,
    halfplane_contains,
    fraction_is_pointed,
    fraction_minimalize,
    fraction_poly_contains,
    fraction_poly_dim,
    fraction_primitive,
    fraction_retraction,
    halfplanes_by_normals,
    intersect2,
    matrix_rank,
    poly_dim_by_rank,
    vrep_from_halfplanes,
)

SQUARE = Polyhedron(((0, 0), (1, 0), (1, 1), (0, 1)))
QUADRANT = Polyhedron(((0, 0),), ((1, 0), (0, 1)))


def test_contains_basic():
    assert poly_contains(SQUARE, (Rat(1, 2), Rat(1, 2)))
    assert poly_contains(SQUARE, (0, 1))
    assert not poly_contains(SQUARE, (1, Rat(3, 2)))
    assert poly_contains(QUADRANT, (100, 7))
    assert not poly_contains(QUADRANT, (-1, 0))


def test_dim():
    assert poly_dim(SQUARE) == 2
    assert poly_dim(Polyhedron(((0, 0), (1, 1)))) == 1
    assert poly_dim(Polyhedron(((2, 3),))) == 0
    assert poly_dim(QUADRANT) == 2


def test_subset_equal():
    inner = Polyhedron(((0, 0), (1, 0), (0, 1)))
    assert poly_is_subset(inner, SQUARE)
    assert not poly_is_subset(SQUARE, inner)
    shuffled = Polyhedron(((1, 1), (0, 0), (0, 1), (1, 0), (Rat(1, 2), Rat(1, 2))))
    assert poly_equal(SQUARE, shuffled)


def test_minimalize_drops_redundant():
    fat = Polyhedron(
        ((0, 0), (1, 0), (1, 1), (0, 1), (Rat(1, 2), Rat(1, 2))),
        ((1, 0), (2, 0), (0, 3)),
    )
    slim = minimalize(fat)
    assert slim.gen_points == ((Rat(0), Rat(0)),)  # the rest absorbed by the rays
    assert len(slim.gen_rays) == 2
    assert poly_equal(fat, slim)


def test_minimalize_keeps_a_point_of_a_line():
    """Points (0,0), (1,0) and rays +-(1,0): each point lies in the other
    plus the line, but not both may go."""
    line = Polyhedron(((0, 0), (1, 0)), ((1, 0), (-1, 0)))
    slim = minimalize(line)
    assert slim.gen_points == ((Rat(1), Rat(0)),)
    assert slim.gen_rays == ((-1, 0), (1, 0))
    assert poly_equal(line, slim)
    strip = Polyhedron(((0, 0), (1, 0), (0, 1)), ((1, 0), (-1, 0)))
    assert poly_equal(strip, minimalize(strip))


def test_translate_and_recession():
    moved = QUADRANT.translate((3, -1))
    assert poly_contains(moved, (3, -1))
    assert not poly_contains(moved, (2, 0))
    rec = recession(moved)
    assert poly_equal(rec, QUADRANT)


def test_halfplanes_roundtrip():
    hps = halfplanes(SQUARE)
    assert len(hps) == 4
    assert halfplane_contains(hps, (Rat(1, 2), 1))
    assert not halfplane_contains(hps, (Rat(1, 2), Rat(9, 8)))
    back = vrep_from_halfplanes(hps)
    assert poly_equal(back, SQUARE)


def test_halfplanes_unbounded():
    strip = Polyhedron(((0, 0), (0, 1)), ((1, 0),))
    hps = halfplanes(strip)
    back = vrep_from_halfplanes(hps)
    assert poly_equal(back, strip)


def test_vrep_empty():
    # x <= -1 and x >= 0 with y boxed: empty but pointed
    hps = (
        ((1, 0), Rat(-1)),
        ((-1, 0), Rat(0)),
        ((0, 1), Rat(1)),
        ((0, -1), Rat(0)),
    )
    assert vrep_from_halfplanes(hps) is None


def test_intersect2():
    shifted = SQUARE.translate((Rat(1, 2), Rat(1, 2)))
    cap = intersect2(SQUARE, shifted)
    assert poly_equal(
        cap,
        Polyhedron(((Rat(1, 2), Rat(1, 2)), (1, Rat(1, 2)), (1, 1), (Rat(1, 2), 1))),
    )
    far = SQUARE.translate((5, 5))
    assert intersect2(SQUARE, far) is None


def test_hull_and_area():
    pts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1), (2, 1)]
    hull = convex_hull_2d(pts)
    assert len(hull) == 4
    assert hull_area_2d(pts) == 4
    assert hull_area_2d([(0, 0), (1, 0), (0, 1)]) == Rat(1, 2)
    assert hull_area_2d([(0, 0), (1, 1)]) == 0


def test_random_membership_agrees_with_halfplanes():
    rng = random.Random(7)
    for _ in range(40):
        pts = [
            (Rat(rng.randint(-4, 4)), Rat(rng.randint(-4, 4)))
            for _ in range(rng.randint(3, 6))
        ]
        poly = Polyhedron(tuple(pts))
        if poly_dim(poly) != 2:
            continue
        hps = halfplanes(poly)
        for _ in range(10):
            u = (Rat(rng.randint(-8, 8), 2), Rat(rng.randint(-8, 8), 2))
            assert poly_contains(poly, u) == halfplane_contains(hps, u)


def test_point_needed():
    with pytest.raises(Exception):
        Polyhedron((), ((1, 0),))


def test_vrep_parallel_normals_contain_a_line():
    # a slab and a half-plane: pointedness fails before emptiness is asked
    with pytest.raises(ValueError, match="contains a line"):
        vrep_from_halfplanes((((1, 0), Rat(1)), ((-1, 0), Rat(0))))
    with pytest.raises(ValueError, match="contains a line"):
        vrep_from_halfplanes((((1, 0), Rat(-1)), ((-1, 0), Rat(0))))


def test_is_pointed():
    assert is_pointed(QUADRANT)
    assert is_pointed(SQUARE)
    assert not is_pointed(Polyhedron(((0, 0),), ((1, 0), (-1, 0))))
    assert not is_pointed(Polyhedron(((0, 0),), ((1, 1), (0, -1), (-1, 0))))
    assert is_pointed(Polyhedron(((0, 0),), ((1, 1), (0, -1), (1, 0))))


# ---------------------------------------------------------------------------
# Two routes: determinant predicates against LP membership
# ---------------------------------------------------------------------------


def _lp_feasible(gens, target, n_points):
    """Is target = sum c_i gens_i with c >= 0, the first n_points
    coefficients summing to 1 (no such row when n_points is None)?"""
    cons = [(tuple(g[i] for g in gens), "=", target[i]) for i in range(len(target))]
    if n_points is not None:
        cons.append((tuple([1] * n_points + [0] * (len(gens) - n_points)), "=", 1))
    res = lp_solve(LinearProgram(objective=(0,) * len(gens), constraints=cons, nonneg=True))
    return res.status == "optimal"


def _lp_contains(poly, u):
    gens = poly.gen_points + poly.gen_rays
    return _lp_feasible(gens, u, len(poly.gen_points))


def _lp_minimalize(poly):
    """minimalize with every redundancy decided by the LP: each generator
    against the kept ones and the ones not yet visited."""
    pts = sorted(set(poly.gen_points))
    rays = sorted({primitive(r) for r in poly.gen_rays})
    keep_r = []
    for i, r in enumerate(rays):
        others = keep_r + rays[i + 1 :]
        if not others or not _lp_feasible(others, r, None):
            keep_r.append(r)
    keep_p = []
    for i, p in enumerate(pts):
        others = keep_p + pts[i + 1 :]
        if not others or not _lp_contains(Polyhedron(others, keep_r), p):
            keep_p.append(p)
    return Polyhedron(keep_p, keep_r)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ToricError) as ex:
        return type(ex).__name__, str(ex)


_small = st.integers(-2, 2)


@st.composite
def _degenerate_polyhedra(draw):
    """Single points, collinear point sets, opposite and repeated rays."""
    base = (draw(_small), draw(_small))
    shape = draw(st.sampled_from(["point", "collinear", "general"]))
    if shape == "point":
        pts = [base]
    elif shape == "collinear":
        d = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1)]))
        ks = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=4))
        pts = [(base[0] + k * d[0], base[1] + k * d[1]) for k in ks]
    else:
        pts = draw(st.lists(st.tuples(_small, _small), min_size=1, max_size=5))
    ray = st.tuples(_small, _small).filter(lambda r: r != (0, 0))
    rays = draw(st.lists(ray, max_size=3))
    if rays and draw(st.booleans()):
        rays.append((-rays[0][0], -rays[0][1]))
    return Polyhedron(pts, rays)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    _degenerate_polyhedra(),
    st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=6),
)
def test_planar_predicates_match_lp(poly, queries):
    for a, b in queries:
        u = (Rat(a, 2), Rat(b, 2))
        assert poly_contains(poly, u) == _lp_contains(poly, u)
    assert _outcome(minimalize, poly) == _outcome(_lp_minimalize, poly)


# ---------------------------------------------------------------------------
# vrep_from_halfplanes returns minimal generators
# ---------------------------------------------------------------------------

_normal = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda n: n != (0, 0))
_offset = st.builds(Rat, st.integers(-6, 6), st.integers(1, 3))


@st.composite
def _halfplane_sets(draw):
    """1-6 halfplanes, some followed by an opposite one whose offset makes
    the pair cut out a strip, a line, or nothing."""
    hps = []
    for n, c in draw(st.lists(st.tuples(_normal, _offset), min_size=1, max_size=6)):
        hps.append((n, c))
        if draw(st.integers(0, 3)) == 0:
            gap = draw(st.sampled_from([Rat(0), Rat(1, 2), Rat(2), Rat(-1)]))
            hps.append(((-n[0], -n[1]), gap - c))
    return hps


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_halfplane_sets())
def test_vrep_from_halfplanes_output_is_minimal(hps):
    """The output needs no minimalize: it is None, raises for a region
    containing a line, or equals its own minimalization."""
    try:
        out = vrep_from_halfplanes(hps)
    except ValueError as ex:
        assert "not pointed" in str(ex)
        return
    assert out is None or out == minimalize(out)
    if out is not None:
        assert all(halfplane_contains(hps, p) for p in out.gen_points)


# ---------------------------------------------------------------------------
# cell ∩ cell: the clipping kernel against vrep_from_halfplanes
# ---------------------------------------------------------------------------


def _cut(a, facets):
    """a ∩ {<n, x> <= c for (n, c) in facets} by clipping a's ring,
    minimalized; None when empty."""
    ring = clip_ring(cell_ring(a), facets)
    if ring is None:
        return None
    return minimalize(
        Polyhedron([(g[0] / g[2], g[1] / g[2]) for g in ring if g[2]], [g[:2] for g in ring if not g[2]])
    )


def _cut_by_vrep(a, b):
    out = vrep_from_halfplanes(halfplanes(a) + halfplanes(b))
    return None if out is None else minimalize(out)


_RAYS = ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 2), (2, -1), (-3, -1))
_coord = st.integers(-6, 6).map(lambda k: Rat(k, 2))


@st.composite
def _pointed_cells(draw):
    """A minimal 2-dimensional pointed cell, bounded or not, with its points
    on the half-integer grid of [-3, 3]^2."""
    pts = draw(st.lists(st.tuples(_coord, _coord), min_size=1, max_size=4, unique=True))
    rays = draw(st.lists(st.sampled_from(_RAYS), max_size=2, unique=True))
    cell = Polyhedron(pts, rays)
    if poly_dim(cell) < 2 or not is_pointed(cell):
        return draw(st.nothing())
    return minimalize(cell)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_pointed_cells(), _pointed_cells(), st.randoms(use_true_random=False))
def test_cell_cut_matches_halfplane_intersection(a, b, rnd):
    """Either cell's ring cut by the other's facets, in any facet order,
    gives the halfplane intersection of both."""
    want = _cut_by_vrep(a, b)
    for x, y in ((a, b), (b, a)):
        facets = list(halfplanes(y))
        rnd.shuffle(facets)
        assert _cut(x, facets) == want


def test_cell_cut_pinned_cases():
    """A ray parallel to a cutting line, disjoint parallel half-strips
    (which share only a ray at infinity), and cells touching along an edge
    or at a vertex, which refine drops."""
    up = ((0, 1),)
    strip = Polyhedron(((0, 0), (1, 0)), up)
    half = Rat(1, 2)
    cases = [
        (strip, Polyhedron(((half, -1), (3, -1)), up), Polyhedron(((half, 0), (1, 0)), up)),
        (strip, Polyhedron(((2, 0), (3, 0)), up), None),
        (strip, Polyhedron(((1, 0), (2, 0)), up), Polyhedron(((1, 0),), up)),
        (Polyhedron(((0, 0), (1, 0), (0, 1))), Polyhedron(((1, 0), (1, 1), (0, 1))), Polyhedron(((1, 0), (0, 1)))),
        (Polyhedron(((0, 0), (1, 0), (0, 1))), Polyhedron(((1, 0), (2, 0), (1, -1))), Polyhedron(((1, 0),))),
        (Polyhedron(((0, 0),), ((1, 0), (0, 1))), Polyhedron(((0, 0),), ((0, 1), (-1, 0))), Polyhedron(((0, 0),), up)),
    ]
    for a, b, want in cases:
        a, b = minimalize(a), minimalize(b)
        want = None if want is None else minimalize(want)
        for x, y in ((a, b), (b, a)):
            assert _cut(x, halfplanes(y)) == want == _cut_by_vrep(x, y)
        if want is None or poly_dim(want) < 2:
            assert list(toric_mod._overlaps(PolyComplex([a]), PolyComplex([b]))) == []


def _int_ring(ring):
    """A ring of Rat generators scaled to coprime int triples."""
    out = []
    for x, y, w in ring:
        den = math.lcm(x.denominator, y.denominator)
        out.append((int(x * den), int(y * den), w * den))
    return out


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_pointed_cells(), _pointed_cells())
def test_clip_ring_stays_in_int(a, b):
    """On an int ring, by rows with a Rat or an int right-hand side, every
    generator clip_ring returns is a triple of Python ints with gcd 1, and
    read as (x/w, y/w) it is the cut of the Rat ring."""
    ring = _int_ring(cell_ring(a))
    facets = halfplanes(b)
    int_rows = [((n[0] * c.denominator, n[1] * c.denominator), int(c.numerator)) for n, c in facets]
    want = _cut(a, facets)
    for rows in (facets, int_rows):
        cut = clip_ring(ring, rows)
        if cut is None:
            assert want is None
            continue
        assert all(type(x) is int for g in cut for x in g)
        assert all(math.gcd(*g) == 1 for g in cut)
        pts = [(Rat(x, w), Rat(y, w)) for x, y, w in cut if w]
        assert minimalize(Polyhedron(pts, [g[:2] for g in cut if not g[2]])) == want


_hull_coord = st.builds(Rat, st.integers(-12, 12), st.sampled_from((1, 1, 2, 3, 4, 6, 7)))


@st.composite
def _hull_points(draw):
    """Points with mixed denominators, some given as ints, with runs of
    collinear points and repeated points."""
    pts = draw(st.lists(st.tuples(_hull_coord, _hull_coord), max_size=10))
    if pts and draw(st.booleans()):
        p, q = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
        for k in draw(st.lists(st.integers(-3, 6), min_size=1, max_size=5)):
            pts.append((p[0] + Rat(k, 3) * (q[0] - p[0]), p[1] + Rat(k, 3) * (q[1] - p[1])))
    if pts:
        pts += draw(st.lists(st.sampled_from(pts), max_size=4))
    return [tuple(int(x) if x.denominator == 1 and draw(st.booleans()) else x for x in p) for p in pts]


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(_hull_points())
def test_convex_hull_matches_fraction_oracle(pts):
    """The int-keyed chain returns the Fraction chain's Rat points, in its
    order."""
    got = convex_hull_2d(pts)
    assert got == fraction_convex_hull_2d(pts)
    assert all(type(x) is Rat for p in got for x in p)


# ---------------------------------------------------------------------------
# Two routes: the int cone generators against the Fraction bodies
# ---------------------------------------------------------------------------

_q12 = st.builds(Rat, st.integers(-12, 12), st.integers(1, 12))


@st.composite
def _rational_polyhedra(draw):
    """Points with denominators up to 12, with repeated points and runs of
    collinear ones, and rays with parallel and non-primitive copies and
    sometimes an opposite pair; each coordinate that is an integer is
    given as int or as Rat."""
    pts = draw(st.lists(st.tuples(_q12, _q12), min_size=1, max_size=4))
    if draw(st.booleans()):
        (a, b), (c, d) = pts[0], pts[-1]
        for k in draw(st.lists(st.integers(-3, 6), min_size=1, max_size=3)):
            pts.append((a + Rat(k, 3) * (c - a), b + Rat(k, 3) * (d - b)))
    pts += draw(st.lists(st.sampled_from(pts), max_size=2))
    rays = draw(st.lists(st.tuples(_q12, _q12).filter(any), max_size=3))
    if rays and draw(st.booleans()):
        t = draw(st.sampled_from((Rat(1, 2), Rat(7, 3), 2, 6)))
        rays.append((t * rays[0][0], t * rays[0][1]))
    if rays and draw(st.booleans()):
        rays.append((-rays[-1][0], -rays[-1][1]))

    def given_as(v):
        return tuple(int(x) if x.denominator == 1 and draw(st.booleans()) else x for x in v)

    return Polyhedron([given_as(p) for p in pts], [given_as(r) for r in rays])


@settings(max_examples=700, deadline=None, derandomize=True)
@given(_rational_polyhedra(), st.lists(st.tuples(_q12, _q12), max_size=4))
def test_cone_generator_predicates_match_fraction_bodies(poly, queries):
    """Membership, dimension, pointedness, facets, minimalize, primitive,
    the simplicial flags and decompose give the Fraction bodies' values, or
    raise their exceptions with their messages, at generic points and at
    points of the polyhedron."""
    assert all(type(x) is int for g in poly.cone_gens for x in g)
    assert poly.cone_gens is poly.cone_gens
    assert poly_dim(poly) == fraction_poly_dim(poly)
    assert is_pointed(poly) == fraction_is_pointed(poly)
    assert _outcome(halfplanes, poly) == _outcome(fraction_halfplanes, poly)
    assert [primitive(r) for r in poly.gen_rays] == [fraction_primitive(r) for r in poly.gen_rays]
    slim = minimalize(poly)
    assert slim == fraction_minimalize(poly)
    # the generators minimalize keeps on its result are the result's own
    assert slim.cone_gens == Polyhedron(slim.gen_points, slim.gen_rays).cone_gens
    if poly_dim(poly) == 2 and is_pointed(poly):
        assert _cell_flags(slim) == fraction_cell_flags(slim)
    (a, b), (c, d) = poly.gen_points[0], poly.gen_points[-1]
    inside = (Rat(a + c) / 2, Rat(b + d) / 2)
    if poly.gen_rays:
        inside = (inside[0] + poly.gen_rays[-1][0], inside[1] + poly.gen_rays[-1][1])
    for u in queries + [inside, poly.gen_points[-1]]:
        assert poly_contains(poly, u) == fraction_poly_contains(poly, u)
        assert _outcome(decompose, poly, u) == _outcome(fraction_decompose, poly, u)
        for hps in (inequalities(poly),) + ((halfplanes(poly),) if poly_dim(poly) == 2 else ()):
            assert halfplane_contains(hps, u) == fraction_halfplane_contains(hps, u)


def test_cone_gens_leave_equality_hash_and_repr_alone():
    a = Polyhedron(((Rat(1, 2), Rat(-1, 3)), (1, 0)), ((2, 4),))
    b = Polyhedron(a.gen_points, a.gen_rays)
    assert a.cone_gens == ((3, -2, 6), (1, 0, 1), (1, 2, 0))
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "cone_gens" not in repr(a)


def test_planar_predicates_stay_in_int(monkeypatch):
    """With Fraction's arithmetic made to raise, membership, minimalize,
    is_pointed, poly_dim and the facet keys still run on an integer
    complex (the counterexample's Pi, with doubled rays and repeated and
    redundant points), and give the Fraction bodies' values; so do
    decompose and retraction, at int and Rat points, which only build
    their Rat results."""
    cells = [
        Polyhedron(c.gen_points + c.gen_points[:1], [(2 * r[0], 2 * r[1]) for r in c.gen_rays])
        for c in counterexample_fixture().pi.cells
    ]
    cells[0] = Polyhedron(cells[0].gen_points + ((0, 0),), ())
    cells.append(Polyhedron(((0, 0), (1, 0), (2, 0), (1, 1), (0, 2))))
    queries = [(0, 0), (1, 1), (-3, 2), (5, -7), (1, 0), (Rat(1, 3), Rat(-5, 2)), (Rat(7, 4), Rat(1, 6))]

    forbid_fraction_arithmetic(monkeypatch, "on an integer complex")
    got = [
        (poly_dim(c), is_pointed(c), minimalize(c), [poly_contains(c, u) for u in queries])
        for c in cells
    ]
    pc = PolyComplex(cells[:-1])
    facets = [_facets(pc, i) for i in range(len(pc.cells))]
    images = [retraction(pc, u) for u in queries]
    parts = [[_outcome(decompose, c, u) for u in queries] for c in pc.cells]
    assert all(type(x) is int for c in cells for g in c.cone_gens for x in g)
    monkeypatch.undo()
    assert images == [fraction_retraction(pc, u) for u in queries]
    assert parts == [[_outcome(fraction_decompose, c, u) for u in queries] for c in pc.cells]
    assert got == [
        (fraction_poly_dim(c), fraction_is_pointed(c), fraction_minimalize(c),
         [fraction_poly_contains(c, u) for u in queries])
        for c in cells
    ]
    assert facets == [fraction_facets(pc, i) for i in range(len(pc.cells))]


def test_package_has_one_clipping_kernel(monkeypatch):
    """vrep_from_halfplanes and the parametric clip_thin live in the tests
    only: the SVG box cut, for cells, segments and points alike, and
    toric's cell ∩ cell all call polyhedra.clip_ring."""
    for info in pkgutil.iter_modules(skelpot.__path__):
        mod = importlib.import_module(f"skelpot.{info.name}")
        for name in ("vrep_from_halfplanes", "_clip_thin", "clip_thin"):
            assert not hasattr(mod, name), f"skelpot.{info.name} binds {name}"
    callers = []

    def counting(name):
        def clip(ring, hps):
            callers.append(name)
            return clip_ring(ring, hps)

        return clip

    for mod in (svg_mod, toric_mod):
        assert mod.clip_ring is clip_ring
        monkeypatch.setattr(mod, "clip_ring", counting(mod.__name__))
    fx = counterexample_fixture()
    svg_mod.render_svg(fx.pi)
    refine(fx.pi, fx.pi_prime)
    assert set(callers) == {"skelpot.svg", "skelpot.toric"}
    callers.clear()
    svg_mod.render_svg([Polyhedron(((0, 0), (1, 2))), Polyhedron(((1, -1),))])
    assert callers == ["skelpot.svg"] * 2


# ---------------------------------------------------------------------------
# Two routes: planar and 3x3 kernels against general elimination
# ---------------------------------------------------------------------------


def test_matrix_rank():
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([[1, 0], [0, 1], [1, 1]]) == 2
    assert matrix_rank([]) == 0


def _decompose_by_elimination(cell, u):
    """decompose through solve_linear: fewer than 3 columns are completed
    to a square system by unit columns, whose coefficients must vanish."""
    cell = minimalize(cell)
    pts, rays = cell.gen_points, cell.gen_rays
    cols = [p + (1,) for p in pts] + [r + (0,) for r in rays]
    if len(cols) > 3:
        raise ToricError("cell is not simplicial")
    units = [tuple(int(i == k) for i in range(3)) for k in range(3)]
    for extra in itertools.combinations(units, 3 - len(cols)):
        full = cols + list(extra)
        try:
            sol = solve_linear([[c[i] for c in full] for i in range(3)], [u[0], u[1], 1])
            break
        except ValueError as ex:
            if len(cols) == 3:
                raise ToricError(f"cell is not simplicial: {ex}") from ex
    if any(x != 0 for x in sol[len(cols) :]) or any(x < 0 for x in sol[: len(cols)]):
        raise ToricError("point is outside the cell")
    return tuple(sol[: len(pts)]), tuple(sol[len(pts) : len(cols)])


_q = st.sampled_from(sorted({Rat(a, b) for a in range(-3, 4) for b in (1, 2, 3)}))
_entry = st.sampled_from(list(range(-2, 3)) + [Rat(-1, 2), Rat(1, 3), Rat(3, 2)])


@st.composite
def _planar_cases(draw):
    """A polyhedron (a lone point, collinear points or general rational
    points, plus rays, sometimes with an opposite pair), a query point,
    often one of the polyhedron, and a square system of at most 3 rows."""
    base = (draw(_q), draw(_q))
    shape = draw(st.sampled_from(["point", "collinear", "general"]))
    if shape == "point":
        pts = [base]
    elif shape == "collinear":
        d = draw(st.tuples(_q, _q))
        ks = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3))
        pts = [(base[0] + k * d[0], base[1] + k * d[1]) for k in ks]
    else:
        pts = [base] + draw(st.lists(st.tuples(_q, _q), max_size=3))
    rays = draw(st.lists(st.tuples(_q, _q).filter(lambda r: r != (0, 0)), max_size=3))
    if rays and draw(st.booleans()):
        rays.append((-rays[0][0], -rays[0][1]))
    u = (draw(_q), draw(_q))
    if draw(st.booleans()):  # a point of the polyhedron
        (a, b), (c, d) = pts[0], pts[-1]
        u = ((a + c) / 2, (b + d) / 2)
        if rays:
            u = (u[0] + rays[-1][0], u[1] + rays[-1][1])
    k = draw(st.integers(1, 3))
    matrix = [[draw(_entry) for _ in range(k)] for _ in range(k)]
    rhs = [draw(_entry) for _ in range(k)]
    return Polyhedron(pts, rays), u, matrix, rhs


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_planar_cases())
def test_inequalities_describe_every_planar_piece(case):
    """A point satisfies the inequalities of a polyhedron of any dimension
    exactly when the generators carry it."""
    poly, u, _, _ = case
    assert halfplane_contains(inequalities(poly), u) == poly_contains(poly, u)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(_planar_cases())
def test_planar_kernels_match_general_routes(case):
    poly, u, matrix, rhs = case
    assert poly_dim(poly) == poly_dim_by_rank(poly)
    assert _outcome(halfplanes, poly) == _outcome(halfplanes_by_normals, poly)
    assert _outcome(decompose, poly, u) == _outcome(_decompose_by_elimination, poly, u)
    k = len(matrix)
    cols = [tuple(row[j] for row in matrix) for j in range(k)]
    d, nums = cramer(cols, rhs)
    try:
        sol = solve_linear(matrix, rhs)
    except ValueError:
        assert d == 0
        return
    assert d != 0 and tuple(Rat(x) / d for x in nums) == sol
    adj = adjugate(matrix)
    assert all(
        sum(matrix[i][m] * adj[m][j] for m in range(k)) == (d if i == j else 0)
        for i in range(k)
        for j in range(k)
    )
