"""Planar toric machinery around the two-model fixture: one boundary datum,
two complexes with identical skeleton, opposite concavity behaviour."""

import itertools
import random
import re
from collections import Counter
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelpot import (
    ComplexInvalid,
    PolyComplex,
    Polyhedron,
    SupportFn,
    ToricError,
    ToricPLFunction,
    compose_with_retraction,
    counterexample_fixture,
    decompose,
    fan_of_p2,
    is_concave,
    pl_functions_equal,
    poly_equal,
    recession_fan,
    refine,
    refine_function,
    restrict_to_skeleton,
    retraction,
    retraction_affine,
    skeleton,
    support_on_complex,
    toric_ma,
    validate_complex,
)
from skelpot import polyhedra as polyhedra_mod
from skelpot import scenarios
from skelpot import toric as toric_mod
from skelpot.toric import _facets
from skelpot.polyhedra import halfplanes, poly_dim
from skelpot.rat import Rat, rat_str

from helpers import forbid_fraction_arithmetic
from linear_oracle import solve_linear
from planar_oracle import (
    check_continuity_by_meets,
    compose_with_retraction_by_subsets,
    fraction_active_piece,
    fraction_cell_flags,
    fraction_check_continuity,
    fraction_decompose,
    fraction_facets,
    fraction_halfplanes,
    fraction_is_concave,
    fraction_retraction,
    intersect2,
    is_concave_by_meets,
    meet,
    recession_fan_pairwise,
    restrict_to_skeleton_by_subsets,
    skeleton_pairwise,
    validate_complex_pairwise,
    vertex_link_ok,
)

DELTA = Polyhedron(((0, 0), (1, 0), (0, 1)))


@pytest.fixture(scope="module")
def fx():
    return counterexample_fixture()


def test_complexes_are_valid(fx):
    for pc in (fx.pi, fx.pi_prime):
        flags = validate_complex(pc, fan_of_p2())
        assert all(flags.simplicial)
        assert all(flags.unimodular)


def test_validate_rejects_wrong_fan(fx):
    # quadrant fan does not match the recession cones
    quadrant_fan = (Polyhedron(((0, 0),), ((1, 0), (0, 1))),)
    with pytest.raises(ComplexInvalid):
        validate_complex(fx.pi, quadrant_fan)


def test_own_fan_is_not_minimalized_again(fx, monkeypatch):
    """validate_complex minimalizes no cone of the complex's own recession
    fan, which is minimal already: building and validating Pi calls
    minimalize once per cell and once per recession cone.  Other fans'
    cones are still minimalized, and every verdict and ComplexInvalid
    message is the one given for the same fan with its rays doubled, whose
    cones are all minimalized."""
    calls = []
    real = toric_mod.minimalize
    monkeypatch.setattr(toric_mod, "minimalize", lambda k: calls.append(k) or real(k))
    pc = PolyComplex(fx.pi.cells)
    validate_complex(pc, recession_fan(pc))
    assert len(pc.cells) == 7 and len(calls) == 14

    def outcome(pc, fan):
        try:
            return validate_complex(pc, fan)
        except ComplexInvalid as ex:
            return str(ex)

    quadrant_fan = (Polyhedron(((0, 0),), ((1, 0), (0, 1))),)
    cells = list(fx.pi.cells)
    complexes = [fx.pi, fx.pi_prime, PolyComplex(cells[1:]), PolyComplex(cells + cells[:1])]
    complexes.append(PolyComplex(_DOUBLE_COVER))
    messages = set()
    for pc in complexes:
        for fan in (recession_fan(pc), fan_of_p2(), quadrant_fan, recession_fan(fx.pi)):
            doubled = [Polyhedron(k.gen_points, [(2 * x, 2 * y) for x, y in k.gen_rays]) for k in fan]
            calls.clear()
            got = outcome(pc, fan)
            assert not any(k in recession_fan(pc) for k in calls)
            assert got == outcome(pc, doubled)
            messages.add(got if isinstance(got, str) else "valid")
    assert len(messages) == 5


def test_validate_rejects_overlap():
    cells = (
        Polyhedron(((0, 0),), ((1, 0), (0, 1))),
        Polyhedron(((0, 0),), ((1, 1), (-1, 0), (0, -1))),
    )
    with pytest.raises(ComplexInvalid):
        validate_complex(PolyComplex(cells), recession_fan(PolyComplex(cells)))


def test_shared_skeleton_is_the_unit_triangle(fx):
    for pc in (fx.pi, fx.pi_prime):
        skel = skeleton(pc)
        assert len(skel) == 1
        assert poly_equal(skel[0], DELTA)


def test_retractions_differ_off_the_skeleton(fx):
    u = (Rat(5), Rat(1, 3))
    assert retraction(fx.pi, u) == (Rat(2, 3), Rat(1, 3))
    assert retraction(fx.pi_prime, u) == (Rat(1), Rat(0))


def test_retraction_fixes_skeleton(fx):
    for pc in (fx.pi, fx.pi_prime):
        for u in ((Rat(1, 3), Rat(1, 3)), (Rat(0), Rat(0)), (Rat(1, 2), Rat(1, 2))):
            assert retraction(pc, u) == u


def test_retraction_affine_matches_pointwise(fx):
    for pc in (fx.pi, fx.pi_prime):
        for cell in pc.cells:
            A, b = retraction_affine(cell)
            probes = list(cell.gen_points)
            probes += [
                tuple(p + 2 * r for p, r in zip(cell.gen_points[0], ray))
                for ray in cell.gen_rays
            ]
            for u in probes:
                img = tuple(
                    sum(A[i][j] * u[j] for j in range(2)) + b[i] for i in range(2)
                )
                assert retraction(pc, u) == img


def test_retraction_does_not_minimalize_again(fx, monkeypatch):
    """Complex cells are minimalized once, when the complex is built, so
    retraction decomposes in them directly; its points match the public
    decompose, which minimalizes first."""
    rng = random.Random(31)
    points = [
        tuple(Rat(rng.randint(-30, 30), rng.choice((1, 1, 2, 3))) for _ in range(2))
        for _ in range(80)
    ]
    expected = []
    for u in points:
        cell = fx.pi.cells[fx.pi.cells_containing(u)[0]]
        a, _ = decompose(cell, u)
        expected.append(
            tuple(sum(ai * p[k] for ai, p in zip(a, cell.gen_points)) for k in range(2))
        )
    calls = Counter()

    def counting(fn):
        def wrapped(*args):
            calls["minimalize"] += 1
            return fn(*args)

        return wrapped

    for mod in (polyhedra_mod, toric_mod):
        monkeypatch.setattr(mod, "minimalize", counting(mod.minimalize))
    assert [retraction(fx.pi, u) for u in points] == expected
    assert calls == Counter()


def test_decompose_unique_on_simplicial_cell(fx):
    sigma1 = fx.pi.cells[fx.labels["sigma1"]]
    a, lam = decompose(sigma1, (Rat(5), Rat(1, 3)))
    assert sum(a) == 1 and all(x >= 0 for x in a)
    assert all(t >= 0 for t in lam)
    assert a == (Rat(1, 3), Rat(2, 3))


def test_decompose_cell_containing_a_line_is_a_toric_error():
    line = Polyhedron(((0, 0), (1, 0)), ((1, 0), (-1, 0)))
    with pytest.raises(ToricError, match="not simplicial"):
        decompose(line, (Rat(1, 2), 0))


def test_retraction_affine_of_a_line_raises_toric_error():
    """A point with two opposite rays is a line, not a full-dimensional
    simplicial cell: retraction_affine raises ToricError, as decompose does
    on the same cell."""
    line = Polyhedron(((0, 0),), ((1, 0), (-1, 0)))
    with pytest.raises(ToricError, match="full-dimensional simplicial cell"):
        retraction_affine(line)
    with pytest.raises(ToricError):
        decompose(line, (0, 0))


def test_support_function_of_triangle(fx):
    # min(0, u, v) on a few probes
    assert fx.psi.value((Rat(2), Rat(3))) == 0
    assert fx.psi.value((Rat(-1), Rat(4))) == -1
    assert fx.psi.value((Rat(-2), Rat(-3))) == -3


def test_boundary_data_restricts_equally(fx):
    assert restrict_to_skeleton(fx.f) == restrict_to_skeleton(fx.f_prime) == (fx.g[0],)
    assert not pl_functions_equal(fx.f, fx.f_prime)


def test_pinned_functions_come_from_the_retraction(fx):
    assert pl_functions_equal(fx.f, compose_with_retraction(fx.pi, fx.g))
    assert pl_functions_equal(
        fx.f_prime, compose_with_retraction(fx.pi_prime, fx.g)
    )


def test_concavity_split(fx):
    h_prime = fx.f_prime.add_support(fx.psi)
    ok, witness = is_concave(h_prime)
    assert ok and witness is None

    h = fx.f.add_support(fx.psi)
    ok, witness = is_concave(h)
    assert not ok
    bad = {fx.labels["sigma1"], fx.labels["sigma3"]}
    assert set(witness["facet"]) == bad


def test_concave_sum_is_the_min_form(fx):
    h_prime = fx.f_prime.add_support(fx.psi)
    min_form = support_on_complex(
        SupportFn((((0, 0), 1), ((0, 1), 1), ((1, 0), 0))), fx.pi_prime
    )
    assert pl_functions_equal(h_prime, min_form)


def test_ma_unit_mass_at_corner(fx):
    h_prime = fx.f_prime.add_support(fx.psi)
    mu = toric_ma(h_prime)
    assert mu.atoms == (((Rat(1), Rat(0)), Rat(1)),)


def test_ma_rejects_nonconcave(fx):
    h = fx.f.add_support(fx.psi)
    with pytest.raises(ToricError) as err:
        toric_ma(h)
    assert str(err.value) == _not_concave_message(is_concave(h)[1])
    assert str(err.value) == "function is not concave: the piece of cell 1 lies below it at (0, 2), in cell 3"


def _not_concave_message(witness):
    (i, j), (x, y) = witness["facet"], witness["point"]
    return f"function is not concave: the piece of cell {i} lies below it at ({rat_str(x)}, {rat_str(y)}), in cell {j}"


def test_common_refinement(fx):
    fine = fx.refined()
    assert len(fine.cells) == 9
    validate_complex(fine, fan_of_p2())
    moved = refine_function(fx.f_prime, fine)
    assert pl_functions_equal(moved, fx.f_prime)


def test_refined_retraction_fixes_f_prime(fx):
    # the one documented refinement demo: f' composed with the retraction of
    # the common refinement reproduces f' exactly.  The refined skeleton is
    # strictly larger (a second bounded triangle appears), so the boundary
    # data is f' restricted to all of it.
    fine = fx.refined()
    moved = refine_function(fx.f_prime, fine)
    skel = skeleton(fine)
    assert len(skel) == 2
    assert poly_equal(skel[1], Polyhedron(((0, 1), (1, 0), (1, 1))))
    assert pl_functions_equal(
        compose_with_retraction(fine, restrict_to_skeleton(moved)), moved
    )


def test_toric_plf_continuity_enforced(fx):
    broken = list(fx.f.pieces)
    broken[1] = ((0, -1), 5)
    with pytest.raises(ToricError):
        ToricPLFunction(fx.pi, tuple(broken))


# ---------------------------------------------------------------------------
# Cached facets and the oracle's meets against bare-polyhedron intersections
# ---------------------------------------------------------------------------

# (unimodular map as rows, integer shift)
_MOVES = (
    (((1, 1), (0, 1)), (2, -1)),
    (((0, -1), (1, 0)), (-3, 0)),
    (((2, 1), (1, 1)), (1, 4)),
)


def _moved(pc, move, seed):
    (m, shift) = move

    def image(v):
        return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])

    cells = [
        Polyhedron(
            [tuple(x + s for x, s in zip(image(p), shift)) for p in c.gen_points],
            [image(r) for r in c.gen_rays],
        )
        for c in pc.cells
    ]
    random.Random(seed).shuffle(cells)
    return PolyComplex(cells)


def _complex_pairs():
    """(pi, pi') of the fixture, then copies of both moved the same way,
    each with its cells shuffled."""
    fx = counterexample_fixture()
    pairs = [(fx.pi, fx.pi_prime)]
    for k, move in enumerate(_MOVES):
        pairs.append((_moved(fx.pi, move, 2 * k), _moved(fx.pi_prime, move, 2 * k + 1)))
    return pairs


_UNIMODULAR = (((1, 0), (0, 1)), ((1, 0), (0, -1)), ((1, 1), (0, 1)), ((0, -1), (1, 0)), ((2, 1), (1, 1)), ((3, 2), (-2, -1)))
_q12 = st.builds(Rat, st.integers(-48, 48), st.integers(1, 12))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ToricError as ex:
        return type(ex).__name__, str(ex)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from(("pi", "pi_prime")),
    st.sampled_from(_UNIMODULAR),
    st.tuples(_q12, _q12),
    st.integers(0, 2**16),
    st.lists(st.tuples(_q12, _q12), max_size=6),
)
def test_cone_generator_routes_match_fraction_bodies_on_moved_complexes(which, m, shift, seed, queries):
    """On Pi and Pi' moved by a unimodular map and a rational shift, with
    their cells shuffled, the facets, their keys, the simplicial flags,
    decompose and retraction give the Fraction bodies' values or raise
    their errors with their messages: at random points, at the vertices and
    at the midpoints of the bounded facets, which lie in several cells."""
    pc = _moved(getattr(counterexample_fixture(), which), (m, shift), seed)
    points = list(queries) + list(pc.vertices())
    for i, cell in enumerate(pc.cells):
        assert pc.halfplanes[i] == fraction_halfplanes(cell)
        assert _facets(pc, i) == fraction_facets(pc, i)
        assert toric_mod._cell_flags(cell) == fraction_cell_flags(cell)
        for (pts, _), _ in _facets(pc, i):
            if len(pts) == 2:
                points.append(((pts[0][0] + pts[1][0]) / 2, (pts[0][1] + pts[1][1]) / 2))
    for u in points:
        assert _outcome(retraction, pc, u) == _outcome(fraction_retraction, pc, u)
        for cell in pc.cells:
            assert _outcome(decompose, cell, u) == _outcome(fraction_decompose, cell, u)


def test_meet_matches_intersect2():
    for pair in _complex_pairs():
        for pc in pair:
            validate_complex(pc, recession_fan(pc))
            n = len(pc.cells)
            empty = 0
            for i in range(n):
                for j in range(n):
                    inter = intersect2(pc.cells[i], pc.cells[j])
                    assert meet(pc, i, j) == inter, (i, j)
                    empty += inter is None
            assert 0 < empty < n * n  # both outcomes are exercised
            assert meet(pc, 0, 1) is meet(pc, 1, 0)  # one cache entry per pair


def _refine_by_intersect2(a, b):
    cells = []
    for ca in a.cells:
        for cb in b.cells:
            inter = intersect2(ca, cb)
            if inter is not None and poly_dim(inter) == 2:
                cells.append(inter)
    return PolyComplex(cells)


def test_refine_matches_pairwise_intersect2():
    for a, b in _complex_pairs():
        for x, y in ((a, b), (b, a)):
            fine = refine(x, y)
            assert fine.cells == _refine_by_intersect2(x, y).cells
            assert len(fine.cells) == 9


def test_fixture_and_concavity_compute_each_cell_facets_once(monkeypatch):
    """Building the fixture and checking both sums for concavity computes
    the facets of each cell of each complex at most once, by either route
    (the complex's cache or polyhedra.intersect2)."""
    calls = []

    def counting(poly):
        calls.append(poly)
        return halfplanes(poly)

    monkeypatch.setattr(toric_mod, "halfplanes", counting)
    monkeypatch.setattr(polyhedra_mod, "halfplanes", counting)
    fx = counterexample_fixture()
    assert not is_concave(fx.f.add_support(fx.psi))[0]
    assert is_concave(fx.f_prime.add_support(fx.psi))[0]
    cells = {id(c) for pc in (fx.pi, fx.pi_prime) for c in pc.cells}
    counts = Counter(id(poly) for poly in calls)
    assert set(counts) <= cells
    assert max(counts.values()) == 1


# ---------------------------------------------------------------------------
# pl_functions_equal against the common-refinement route
# ---------------------------------------------------------------------------


def _equal_by_refinement(f, g):
    """Transport both functions to the common refinement and compare."""
    if f.complex == g.complex:
        return f.pieces == g.pieces
    common = refine(f.complex, g.complex)
    return refine_function(f, common).pieces == refine_function(g, common).pieces


def _moved_function(f, move, seed):
    """f on _moved(f.complex, move, seed): the cells are shuffled the same
    way, and each piece x -> <g, x> + c becomes y -> <g', y> + c' with
    y = m x + shift, so g' solves m^T g' = g and c' = c - <g', shift>."""
    order = list(range(len(f.complex.cells)))
    random.Random(seed).shuffle(order)
    return ToricPLFunction(_moved(f.complex, move, seed), [_moved_piece(f.pieces[k], move) for k in order])


def _moved_piece(piece, move):
    (m, shift), (g, c) = move, piece
    gp = solve_linear([[m[0][0], m[1][0]], [m[0][1], m[1][1]]], g)
    return gp, c - gp[0] * shift[0] - gp[1] * shift[1]


def _function_pairs():
    fx = counterexample_fixture()
    fine = fx.refined()
    f_fine = refine_function(fx.f_prime, fine)
    bumped = list(f_fine.pieces)
    bumped[4] = ((Rat(7), Rat(-2)), Rat(3))
    pairs = [
        (fx.f, fx.f_prime),
        (fx.f_prime, f_fine),
        (fx.f, f_fine),
        (fx.f_prime, ToricPLFunction(fine, bumped, check=False)),
    ]
    for k, move in enumerate(_MOVES):
        pairs.append((_moved_function(fx.f, move, 2 * k), _moved_function(fx.f_prime, move, 2 * k + 1)))
        pairs.append((_moved_function(fx.f_prime, move, 2 * k), _moved_function(fx.f_prime, move, 2 * k + 1)))
    return pairs


def test_pl_functions_equal_matches_refinement():
    outcomes = []
    for f, g in _function_pairs():
        for a, b in ((f, g), (g, f)):
            assert pl_functions_equal(a, b) == _equal_by_refinement(a, b)
            outcomes.append(pl_functions_equal(a, b))
    assert True in outcomes and False in outcomes


# ---------------------------------------------------------------------------
# Local validation against the pairwise route of planar_oracle
# ---------------------------------------------------------------------------

# five cones at the origin, each spanning two consecutive rays: together they
# turn twice around it, and each ray bounds two of them on opposite sides
_DOUBLE_COVER = tuple(
    Polyhedron(((0, 0),), (a, b))
    for a, b in itertools.pairwise(((1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3), (1, 0)))
)

_IDENTITY = (((1, 0), (0, 1)), (0, 0))


def _dilated_triangle(k):
    """The unimodular triangulation of k * conv(0, e1, e2) by lattice
    triangles, with a fan at infinity: a half-strip on each boundary segment
    and a cone at each corner.  k*k + 3k + 3 cells."""
    cells = []
    for a in range(k):
        for b in range(k - a):
            cells.append(Polyhedron(((a, b), (a + 1, b), (a, b + 1))))
            if a + b < k - 1:
                cells.append(Polyhedron(((a + 1, b), (a + 1, b + 1), (a, b + 1))))
    down, left, out = (0, -1), (-1, 0), (1, 1)
    for a in range(k):
        cells.append(Polyhedron(((a, 0), (a + 1, 0)), (down,)))
        cells.append(Polyhedron(((0, a), (0, a + 1)), (left,)))
        cells.append(Polyhedron(((a, k - a), (a + 1, k - a - 1)), (out,)))
    cells.append(Polyhedron(((0, 0),), (down, left)))
    cells.append(Polyhedron(((k, 0),), (down, out)))
    cells.append(Polyhedron(((0, k),), (left, out)))
    return cells


def _interpolant(pc, value, slope):
    """The PL function on a simplicial complex with the given value at each
    vertex and slope along each ray direction."""
    pieces = []
    for cell in pc.cells:
        rows = [[p[0], p[1], 1] for p in cell.gen_points]
        rows += [[r[0], r[1], 0] for r in cell.gen_rays]
        rhs = [value(p) for p in cell.gen_points] + [slope(r) for r in cell.gen_rays]
        gx, gy, c = solve_linear(rows, rhs)
        pieces.append(((gx, gy), c))
    return ToricPLFunction(pc, pieces)


_KINDS = ("valid", "drop", "duplicate", "split", "overlap", "two sheets", "double cover")
_SHIFT = (Rat(1, 2), Rat(1, 3))  # puts no vertex of a lattice complex on another's boundary


@st.composite
def _complex_cases(draw, kind):
    """(complex, function or None): a triangulated dilated triangle with its
    fan at infinity, or a corruption of one of the given kind, moved by a
    unimodular map with its cells shuffled.  Valid complexes carry a
    continuous PL function, concave or not."""
    k = draw(st.integers(1, 3))
    cells = _dilated_triangle(k)
    pick = draw(st.integers(0, len(cells) - 1))
    if kind == "drop":
        del cells[pick]
    elif kind == "duplicate":
        cells.append(cells[pick])
    elif kind == "split":
        # a T-junction: cut a lattice triangle at the midpoint of an edge
        p, q, r = cells[pick % (k * k)].gen_points
        m = ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)
        cells[pick % (k * k)] = Polyhedron((p, m, r))
        cells.append(Polyhedron((m, q, r)))
    elif kind == "overlap":
        cells.append(cells[pick].translate(_SHIFT))
    elif kind == "two sheets":
        cells += [c.translate(_SHIFT) for c in cells]
    elif kind == "double cover":
        cells = list(_DOUBLE_COVER)
    move = draw(st.sampled_from(_MOVES + (_IDENTITY,)))
    seed = draw(st.integers(0, 2**16))
    pc = PolyComplex(cells)
    if kind != "valid":
        return _moved(pc, move, seed), None
    if draw(st.booleans()):
        # the interpolant of -(x^2 + xy + y^2), falling steeply along the rays
        f = _interpolant(pc, lambda p: -(p[0] ** 2 + p[0] * p[1] + p[1] ** 2), lambda r: -100)
    else:
        rng = random.Random(seed)
        values = {v: rng.randint(-3, 3) for v in pc.vertices()}
        slopes = {r: rng.randint(-3, 3) for c in pc.cells for r in c.gen_rays}
        f = _interpolant(pc, values.__getitem__, slopes.__getitem__)
    return _moved(pc, move, seed), _moved_function(f, move, seed)


def _validated(validate, fan, pc):
    try:
        return validate(pc, fan(pc))
    except ComplexInvalid:
        return None


@pytest.mark.parametrize("kind", _KINDS)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_local_validation_matches_pairwise_route(kind, data):
    pc, f = data.draw(_complex_cases(kind))
    local = _validated(validate_complex, recession_fan, pc)
    pairwise = _validated(validate_complex_pairwise, recession_fan_pairwise, pc)
    assert local == pairwise
    assert (local is not None) == (kind == "valid")
    if f is None:
        return
    assert f.complex == pc
    assert is_concave(f) == is_concave_by_meets(f)
    check_continuity_by_meets(f)
    # a jump across every facet of cell 0, and a corner cone's piece turned
    # about its vertex, which agrees with its neighbours there but not along
    # the rays
    corner = next(i for i, c in enumerate(pc.cells) if len(c.gen_points) == 1)
    (gx, gy), c = f.pieces[corner]
    (vx, vy), = pc.cells[corner].gen_points
    for i, piece in ((0, (f.pieces[0][0], f.pieces[0][1] + 1)), (corner, ((gx + 1, gy), c - vx))):
        broken = list(f.pieces)
        broken[i] = piece
        with pytest.raises(ToricError, match="disagree on their shared face"):
            ToricPLFunction(pc, broken)
        with pytest.raises(ToricError, match="disagree on their shared face"):
            check_continuity_by_meets(ToricPLFunction(pc, broken, check=False))


def test_concave_interpolant_on_dilated_triangles():
    # the generator above does produce concave and non-concave functions
    pc = PolyComplex(_dilated_triangle(3))
    h = _interpolant(pc, lambda p: -(p[0] ** 2 + p[0] * p[1] + p[1] ** 2), lambda r: -100)
    assert is_concave(h) == is_concave_by_meets(h) == (True, None)
    g = _interpolant(pc, lambda p: p[0] ** 2, lambda r: 0)
    ok, witness = is_concave(g)
    assert not ok and (ok, witness) == is_concave_by_meets(g)


# ---------------------------------------------------------------------------
# Continuity, active pieces and concavity on int rows against Fraction bodies
# ---------------------------------------------------------------------------


@st.composite
def _function_cases(draw):
    """(f, psi): f on a triangulated dilated triangle with its fan at
    infinity (an interpolant) or on Pi or Pi' (the fixture's functions and
    their sums with psi), moved by a unimodular map with its cells
    shuffled; at times one piece is turned about its cell's first point and
    shifted, and f is built unchecked.  psi is a support function of a few
    random pieces, or the fixture's psi, moved along."""
    move = draw(st.sampled_from(_MOVES + (_IDENTITY,)))
    seed = draw(st.integers(0, 2**16))
    rng = random.Random(seed)
    k = draw(st.integers(0, 3))
    if k:
        pc = PolyComplex(_dilated_triangle(k))
        if draw(st.booleans()):
            f = _interpolant(pc, lambda p: -(p[0] ** 2 + p[0] * p[1] + p[1] ** 2), lambda r: -100)
        else:
            values = {v: rng.randint(-3, 3) for v in pc.vertices()}
            slopes = {r: rng.randint(-3, 3) for c in pc.cells for r in c.gen_rays}
            f = _interpolant(pc, values.__getitem__, slopes.__getitem__)
        psi = [((rng.randint(-2, 2), rng.randint(-2, 2)), rng.randint(-2, 2)) for _ in range(rng.randint(1, 4))]
    else:
        fx = counterexample_fixture()
        f = draw(st.sampled_from((fx.f, fx.f_prime)))
        if draw(st.booleans()):
            f = f.add_support(fx.psi)
        psi = fx.psi.pieces
    f = _moved_function(f, move, seed)
    psi = SupportFn([_moved_piece(piece, move) for piece in psi])
    if draw(st.booleans()):
        i = draw(st.integers(0, len(f.pieces) - 1))
        (gx, gy), c = f.pieces[i]
        dx, dy, dc = draw(st.tuples(_q12, _q12, st.sampled_from((0, 0, Rat(1, 7), -1))))
        p = f.complex.cells[i].gen_points[0]
        pieces = list(f.pieces)
        pieces[i] = ((gx + dx, gy + dy), c - dx * p[0] - dy * p[1] + dc)
        f = ToricPLFunction(f.complex, pieces, check=False)
    return f, psi


def test_int_row_checks_match_fraction_bodies():
    """Continuity, the active piece of psi on each cell and concavity on
    the int rows give the Fraction bodies' verdicts, witnesses and
    ToricError messages, on continuous and on perturbed functions; toric_ma
    names the oracle's witness when it rejects a function.  The cases
    reach broken and kept continuity, concave functions, concavity failing
    at a point and along a ray, and psi active and not affine on a cell."""
    seen = set()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_function_cases())
    def check(case):
        f, psi = case
        broken = _outcome(f._check_continuity)
        assert broken == _outcome(fraction_check_continuity, f)
        active = [toric_mod._active_piece(psi, cell) for cell in f.complex.cells]
        assert active == [fraction_active_piece(psi, cell) for cell in f.complex.cells]
        ok, witness = fraction_is_concave(f)
        assert is_concave(f) == (ok, witness)
        if not ok:
            assert _outcome(toric_ma, f) == ("ToricError", _not_concave_message(witness))
            j = witness["facet"][1]
            seen.add("point" if witness["point"] in f.complex.cells[j].gen_points else "ray")
        seen.update((("continuous", broken is None), ("concave", ok)))
        seen.update(("active", piece is not None) for piece in active)

    check()
    assert seen == {"point", "ray"} | {(k, v) for k in ("continuous", "concave", "active") for v in (True, False)}


def test_pl_function_checks_stay_in_int(monkeypatch):
    """With Fraction's arithmetic made to raise, continuity, _active_piece
    and a passing is_concave still run on the fixture's functions and
    psi, built anew so that their int rows are computed then; afterwards,
    with Fraction arithmetic, they agree with the Fraction bodies."""
    fx = counterexample_fixture()
    h_prime = fx.f_prime.add_support(fx.psi)
    cells = fx.pi.cells + fx.pi_prime.cells
    forbid_fraction_arithmetic(monkeypatch, "in a PL-function check")
    fs = [ToricPLFunction(f.complex, f.pieces) for f in (fx.f, fx.f_prime, h_prime)]
    psi = SupportFn(fx.psi.pieces)
    active = [toric_mod._active_piece(psi, c) for c in cells]
    concave = is_concave(fs[2])
    monkeypatch.undo()
    assert all(type(x) is int for f in fs for row in f.int_rows for x in row)
    for f in fs:
        fraction_check_continuity(f)
    assert concave == fraction_is_concave(h_prime) == (True, None)
    assert active == [fraction_active_piece(fx.psi, c) for c in cells]
    assert None not in active


def test_int_rows_leave_equality_hash_and_repr_alone(fx):
    psi = SupportFn(fx.psi.pieces)
    psi.int_rows
    assert psi == fx.psi and hash(psi) == hash(fx.psi) and repr(psi) == repr(fx.psi)
    assert "int_rows" not in repr(psi)
    f = ToricPLFunction(fx.pi, fx.f.pieces)
    assert f == fx.f and f.int_rows is f.int_rows


_COMPLEX_CACHES = (
    "halfplanes", "facet_owners", "facet_pairs", "facet_pair_gens", "recession_fan", "skeleton"
)


def test_complex_and_function_fields_cannot_be_reassigned(fx):
    """A complex and a PL function are values: their caches are computed
    from their fields, so reassigning a field would leave them stale.  Both
    former reproductions now stop at the assignment, and the objects keep
    answering as before."""
    h, h2 = fx.f.add_support(fx.psi), fx.f_prime.add_support(fx.psi)
    verdict, image = is_concave(h), retraction(fx.pi, (2, 3))
    for obj, name, value in (
        (h, "pieces", h2.pieces),
        (h, "complex", h2.complex),
        (fx.pi, "cells", fx.pi_prime.cells),
    ):
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert is_concave(h) == verdict and verdict[0] is False
    assert retraction(fx.pi, (2, 3)) == image


def test_equal_complexes_and_functions_hash_equal(fx):
    pc = PolyComplex(fx.pi.cells)
    f = ToricPLFunction(pc, fx.f.pieces)
    assert pc == fx.pi and hash(pc) == hash(fx.pi)
    assert f == fx.f and hash(f) == hash(fx.f)
    assert len({f, fx.f, ToricPLFunction(fx.pi_prime, fx.f_prime.pieces), fx.f_prime}) == 2
    assert f != ToricPLFunction(fx.pi_prime, fx.f.pieces, check=False)


def test_cached_properties_are_computed_once(monkeypatch, fx):
    """Each cached property is computed on first read and then read back:
    the facets of the cells once each, however often they are read."""
    hps = []

    def counting_halfplanes(poly):
        hps.append(poly)
        return halfplanes(poly)

    monkeypatch.setattr(toric_mod, "halfplanes", counting_halfplanes)
    pc = PolyComplex(fx.pi.cells)
    f = ToricPLFunction(pc, fx.f.pieces)
    validate_complex(pc, recession_fan(pc))
    is_concave(f)
    pc.cells_containing((2, 3))
    for name in _COMPLEX_CACHES:
        assert getattr(pc, name) is getattr(pc, name)
    assert recession_fan(pc) is pc.recession_fan and skeleton(pc) is skeleton(pc) is pc.skeleton
    assert f.int_rows is f.int_rows and pc.cells[1].cone_gens is pc.cells[1].cone_gens
    assert sorted(map(id, hps)) == sorted(map(id, pc.cells))


def test_cached_properties_stay_out_of_repr_equality_and_hash(fx):
    pc, fresh = PolyComplex(fx.pi.cells), PolyComplex(fx.pi.cells)
    f, fresh_f = ToricPLFunction(pc, fx.f.pieces), ToricPLFunction(fresh, fx.f.pieces, check=False)
    for name in _COMPLEX_CACHES:
        getattr(pc, name)
    f.int_rows
    assert "facet_owners" in vars(pc) and "int_rows" in vars(f) and "int_rows" not in vars(fresh_f)
    assert pc == fresh and hash(pc) == hash(fresh) and repr(pc) == repr(fresh)
    assert f == fresh_f and hash(f) == hash(fresh_f) and repr(f) == repr(fresh_f)
    for name in _COMPLEX_CACHES + ("int_rows", "cone_gens"):
        assert name not in repr(pc) and name not in repr(f)


def test_double_cover_around_a_vertex_is_rejected():
    pc = PolyComplex(_DOUBLE_COVER)
    # facets pair up and every boundary direction occurs twice at the origin
    assert all(len(own) == 2 for own in pc.facet_owners.values())
    assert vertex_link_ok(pc, (0, 0))
    with pytest.raises(ComplexInvalid, match="cells 0 and 2 overlap in dimension 2"):
        validate_complex_pairwise(pc, recession_fan_pairwise(pc))
    with pytest.raises(
        ComplexInvalid,
        match=re.escape("cells around vertex (0, 0) do not tile the plane"),
    ):
        validate_complex(pc, recession_fan(pc))


def test_recession_fan_matches_pairwise_dedup():
    fx = counterexample_fixture()
    complexes = [pc for pair in _complex_pairs() for pc in pair] + [fx.refined()]
    for pc in complexes:
        fan = recession_fan(pc)
        assert fan == recession_fan_pairwise(pc)
        assert recession_fan(pc) is fan  # computed once per complex
        assert sum(poly_dim(k) == 2 for k in fan) == 3


def test_large_complex_is_validated_from_local_data(monkeypatch):
    """A 211-cell complex is validated, and a function on it checked for
    continuity and concavity, with no pairwise intersection and the facets
    of each cell computed once."""
    clips, hps = [], []
    original_clip = polyhedra_mod.clip_ring

    def counting_clip(ring, rows):
        clips.append(rows)
        return original_clip(ring, rows)

    def counting_halfplanes(poly):
        hps.append(poly)
        return halfplanes(poly)

    for mod in (toric_mod, polyhedra_mod):
        monkeypatch.setattr(mod, "clip_ring", counting_clip)
        monkeypatch.setattr(mod, "halfplanes", counting_halfplanes)
    pc = PolyComplex(_dilated_triangle(13))
    assert len(pc.cells) == 211
    flags = validate_complex(pc, recession_fan(pc))
    assert all(flags.simplicial)
    # all but the half-strips along the diagonal edge
    assert sum(flags.unimodular) == len(pc.cells) - 13
    h = _interpolant(pc, lambda p: -(p[0] ** 2 + p[0] * p[1] + p[1] ** 2), lambda r: -100)
    assert is_concave(h) == (True, None)
    assert clips == []
    counts = Counter(id(poly) for poly in hps)
    assert set(counts) <= {id(c) for c in pc.cells}
    assert max(counts.values()) == 1


def test_directions_sort_by_exact_angle():
    ccw = [(1, 0), (3, 1), (1, 1), (0, 1), (-1, 2), (-1, 0), (-2, -1), (0, -1), (1, -1)]
    for seed in range(6):
        dirs = ccw[:]
        random.Random(seed).shuffle(dirs)
        assert sorted(dirs, key=cmp_to_key(polyhedra_mod.angle_order)) == ccw


def test_dropped_or_duplicated_cell_is_named(fx):
    for k in range(len(fx.pi.cells)):
        cells = list(fx.pi.cells)
        with pytest.raises(ComplexInvalid, match=f"^cells {k} and 7 overlap in dimension 2$"):
            validate_complex(PolyComplex(cells + [cells[k]]), fan_of_p2())
        del cells[k]
        with pytest.raises(ComplexInvalid, match=r"belongs to cells \[\d\], expected exactly 2$"):
            validate_complex(PolyComplex(cells), fan_of_p2())


# ---------------------------------------------------------------------------
# The skeleton from the facet table against the pairwise route
# ---------------------------------------------------------------------------

_FANS = (
    ((1, 0), (0, 1), (-1, -1)),
    ((1, 0), (0, 1), (-1, 0), (0, -1)),
    ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)),
    ((1, 0), (0, 1), (-1, 2), (0, -1)),
)


def _strip(ys, merge=None):
    """The plane cut along the polyline through the points (x, ys[x]): a
    half-strip above and one below each segment, and a quadrant on each
    side of both ends.  With merge = x, the two upper half-strips at
    (x, ys[x]) form one cell with three points, which needs the polyline
    to turn upward there."""
    pts = list(enumerate(ys))
    up, down, left, right = (0, 1), (0, -1), (-1, 0), (1, 0)
    cells = []
    for p, q in itertools.pairwise(pts):
        cells += [Polyhedron((p, q), (up,)), Polyhedron((p, q), (down,))]
    if merge is not None:
        cells[2 * merge - 2] = Polyhedron(pts[merge - 1 : merge + 2], (up,))
        del cells[2 * merge]
    cells += [
        Polyhedron((pts[0],), (up, left)),
        Polyhedron((pts[0],), (left, down)),
        Polyhedron((pts[-1],), (right, up)),
        Polyhedron((pts[-1],), (down, right)),
    ]
    return cells


@st.composite
def _skeleton_cases(draw, kind):
    """(complex, continuous function or None), moved by a unimodular map
    with the cells shuffled.  The skeleton has dimension 2 for triangulated
    dilated triangles and for the common refinement of the fixture (two
    triangles, with a cone at each end of their shared edge), 1 for strips
    and 0 for fans.  A strip may have a three-point cell, which carries no
    interpolant (None)."""
    if kind == "triangles":
        k = draw(st.integers(0, 3))
        cells = _dilated_triangle(k) if k else list(counterexample_fixture().refined().cells)
    elif kind == "strip":
        ys = draw(st.lists(st.integers(-2, 2), min_size=2, max_size=5))
        bends = [x for x in range(1, len(ys) - 1) if 2 * ys[x] < ys[x - 1] + ys[x + 1]]
        cells = _strip(ys, draw(st.sampled_from([None] + bends)))
    else:
        rays = draw(st.sampled_from(_FANS))
        cells = [Polyhedron(((0, 0),), (a, b)) for a, b in zip(rays, rays[1:] + rays[:1])]
    move = draw(st.sampled_from(_MOVES + (_IDENTITY,)))
    seed = draw(st.integers(0, 2**16))
    pc = PolyComplex(cells)
    if any(len(c.gen_points) + len(c.gen_rays) != 3 for c in pc.cells):
        return _moved(pc, move, seed), None
    rng = random.Random(seed)
    values = {v: rng.randint(-3, 3) for v in pc.vertices()}
    slopes = {r: rng.randint(-3, 3) for c in pc.cells for r in c.gen_rays}
    f = _moved_function(_interpolant(pc, values.__getitem__, slopes.__getitem__), move, seed)
    return f.complex, f


def _composed(pc, g):
    """The pieces of compose_with_retraction(pc, g), or the message of its
    ToricError; the oracle route must give the same."""
    outcomes = []
    for compose in (compose_with_retraction, compose_with_retraction_by_subsets):
        try:
            outcomes.append(compose(pc, g).pieces)
        except ToricError as e:
            outcomes.append(str(e))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


@pytest.mark.parametrize("kind, dim", [("triangles", 2), ("strip", 1), ("fan", 0)])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_skeleton_matches_pairwise_route(kind, dim, data):
    pc, f = data.draw(_skeleton_cases(kind))
    validate_complex(pc, recession_fan(pc))
    skel = skeleton(pc)
    assert skel == skeleton_pairwise(pc)
    assert skeleton(pc) is skel  # computed once per complex
    assert max(poly_dim(s) for s in skel) == dim
    # owners by vertex sets against owners by inclusion, on pieces that name
    # their cell
    labelled = ToricPLFunction(pc, [((i, 0), 0) for i in range(len(pc.cells))], check=False)
    assert restrict_to_skeleton(labelled) == restrict_to_skeleton_by_subsets(labelled)
    # data that jumps between skeleton faces, so that the owners show in the
    # result or in its continuity error
    rng = random.Random(len(pc.cells))
    g = [((rng.randint(-2, 2), rng.randint(-2, 2)), rng.randint(-2, 2)) for _ in skel]
    _composed(pc, g)
    if f is None:
        return
    g = list(restrict_to_skeleton(f))
    assert g == list(restrict_to_skeleton_by_subsets(f))
    resize = data.draw(st.sampled_from((0, 0, 0, -1, 1)))
    g = g[:-1] if resize < 0 else g + g[:resize]
    out = _composed(pc, g)
    if resize == 0:
        # the retraction fixes the bounded cells, where g is f itself
        assert [out[i] for i, c in enumerate(pc.cells) if not c.gen_rays] == [
            f.pieces[i] for i, c in enumerate(pc.cells) if not c.gen_rays
        ]


def test_compose_with_retraction_errors_are_pinned(fx):
    # the upper cell over (0, 1), (1, 0), (2, 1) is valid, but its points lie
    # in neither skeleton segment
    pc = PolyComplex(_strip((1, 0, 1), merge=1))
    validate_complex(pc, recession_fan(pc))
    assert len(skeleton(pc)) == 2
    g = [((1, 0), 0), ((0, 1), 0)]
    for compose in (compose_with_retraction, compose_with_retraction_by_subsets):
        with pytest.raises(ToricError, match="^retraction image of cell 0 spans several skeleton cells$"):
            compose(pc, g)
        with pytest.raises(ToricError, match="^one affine piece per skeleton cell required$"):
            compose(fx.pi, g)


def test_large_skeleton_is_read_off_the_facet_table(monkeypatch):
    """On a 211-cell complex, skeleton, restriction to it and composition
    with the retraction test no polyhedral membership or inclusion."""
    pc = PolyComplex(_dilated_triangle(13))
    validate_complex(pc, recession_fan(pc))
    h = _interpolant(pc, lambda p: p[0] * p[1], lambda r: -1)
    calls = Counter()

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    for mod, name in (
        (polyhedra_mod, "poly_contains"),
        (polyhedra_mod, "poly_is_subset"),
        (toric_mod, "poly_is_subset"),
    ):
        monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    skel = skeleton(pc)
    g = restrict_to_skeleton(h)
    composed = compose_with_retraction(pc, g)
    assert calls == Counter()
    assert len(skel) == 169 and all(poly_dim(s) == 2 for s in skel)
    bounded = [i for i, c in enumerate(pc.cells) if not c.gen_rays]
    assert [composed.pieces[i] for i in bounded] == [h.pieces[i] for i in bounded]


def test_counterexample_fixture_is_built_once_and_left_unchanged():
    """Every call returns the same objects, and running the scenario that
    uses them leaves them equal to a fresh build."""
    fx = counterexample_fixture()
    assert counterexample_fixture() is fx
    for _ in range(2):
        scenarios.execute(scenarios.load_builtin("counterexample.json"))
    assert counterexample_fixture() is fx
    assert fx == counterexample_fixture.__wrapped__()
