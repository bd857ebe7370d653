"""Planar toric machinery around the two-model fixture: one boundary datum,
two complexes with identical skeleton, opposite concavity behaviour."""

import random
from collections import Counter

import pytest

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
from skelpot import toric as toric_mod
from skelpot.polyhedra import halfplanes, intersect2, poly_dim
from skelpot.rat import Rat

from linear_oracle import solve_linear

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
    with pytest.raises(ToricError):
        toric_ma(h)


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
# Cached facets and meets against bare-polyhedron intersections
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


def test_meet_matches_intersect2():
    for pair in _complex_pairs():
        for pc in pair:
            validate_complex(pc, recession_fan(pc))
            n = len(pc.cells)
            empty = 0
            for i in range(n):
                for j in range(n):
                    inter = intersect2(pc.cells[i], pc.cells[j])
                    assert pc.meet(i, j) == inter, (i, j)
                    empty += inter is None
            assert 0 < empty < n * n  # both outcomes are exercised
            assert pc.meet(0, 1) is pc.meet(1, 0)  # one cache entry per pair


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
    (m, shift) = move
    order = list(range(len(f.complex.cells)))
    random.Random(seed).shuffle(order)
    pieces = []
    for k in order:
        g, c = f.pieces[k]
        gp = solve_linear([[m[0][0], m[1][0]], [m[0][1], m[1][1]]], g)
        pieces.append((gp, c - gp[0] * shift[0] - gp[1] * shift[1]))
    return ToricPLFunction(_moved(f.complex, move, seed), pieces)


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
