"""The exact simplex oracle (lp_oracle.py): hand-solved instances,
degenerate cases, and a randomized cross-check against brute-force vertex
enumeration in two variables."""

import importlib
import itertools
import pkgutil
import random

import pytest

import skelpot
from skelpot.rat import Rat

from linear_oracle import solve_linear
from lp_oracle import LinearProgram, LPError, check_certificate, lp_solve


def test_textbook_max():
    # max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0 -> 36 at (2,6)
    lp = LinearProgram(
        objective=(3, 5),
        constraints=[((1, 0), "<=", 4), ((0, 2), "<=", 12), ((3, 2), "<=", 18)],
        nonneg=True,
    )
    res = lp_solve(lp)
    assert res.status == "optimal"
    assert res.value == 36
    assert res.point == (Rat(2), Rat(6))
    assert check_certificate(lp, res)


def test_infeasible():
    lp = LinearProgram(
        objective=(1,),
        constraints=[((1,), "<=", 1), ((1,), ">=", 2)],
        nonneg=True,
    )
    assert lp_solve(lp).status == "infeasible"


def test_unbounded():
    lp = LinearProgram(objective=(1,), constraints=[((1,), ">=", 0)], nonneg=True)
    assert lp_solve(lp).status == "unbounded"


def test_free_variables():
    # without nonneg, min is attained at a negative coordinate
    lp = LinearProgram(
        objective=(-1, -1),
        constraints=[((1, 1), ">=", -3), ((1, -1), "=", 1)],
    )
    res = lp_solve(lp)
    assert res.status == "optimal"
    assert res.point[0] + res.point[1] == -3
    assert res.point[0] - res.point[1] == 1


def test_equality_only():
    lp = LinearProgram(
        objective=(0, 0),
        constraints=[((2, 1), "=", 5), ((1, -1), "=", 1)],
    )
    res = lp_solve(lp)
    assert res.status == "optimal"
    assert res.point == (Rat(2), Rat(1))


def test_rational_data():
    lp = LinearProgram(
        objective=(Rat(1, 3),),
        constraints=[((Rat(2, 7),), "<=", Rat(3, 5))],
        nonneg=True,
    )
    res = lp_solve(lp)
    assert res.value == Rat(1, 3) * Rat(21, 10)


def test_degenerate_does_not_cycle():
    # classic degeneracy: several constraints through the origin
    lp = LinearProgram(
        objective=(Rat(3, 4), -150, Rat(1, 50), -6),
        constraints=[
            ((Rat(1, 4), -60, Rat(-1, 25), 9), "<=", 0),
            ((Rat(1, 2), -90, Rat(-1, 50), 3), "<=", 0),
            ((0, 0, 1, 0), "<=", 1),
        ],
        nonneg=True,
    )
    res = lp_solve(lp)
    assert res.status == "optimal"
    assert res.value == Rat(1, 20)


def test_bad_shapes_rejected():
    with pytest.raises(LPError):
        LinearProgram(objective=(1, 2), constraints=[((1,), "<=", 0)])
    with pytest.raises(LPError):
        LinearProgram(objective=(1,), constraints=[((1,), "~", 0)])


def _brute_force_2d(constraints):
    """Optimal value of max x+y by enumerating all constraint intersections
    (plus axis constraints); None when no feasible vertex exists."""
    rows = [(coeffs, rel, rhs) for coeffs, rel, rhs in constraints]
    rows += [((1, 0), ">=", 0), ((0, 1), ">=", 0)]

    def feasible(pt):
        for coeffs, rel, rhs in rows:
            lhs = coeffs[0] * pt[0] + coeffs[1] * pt[1]
            if rel == "<=" and lhs > rhs:
                return False
            if rel == ">=" and lhs < rhs:
                return False
            if rel == "=" and lhs != rhs:
                return False
        return True

    best = None
    for (c1, _, b1), (c2, _, b2) in itertools.combinations(rows, 2):
        try:
            pt = solve_linear([list(c1), list(c2)], [b1, b2])
        except ValueError:
            continue
        if feasible(pt):
            val = pt[0] + pt[1]
            if best is None or val > best:
                best = val
    return best


def test_random_2d_against_vertex_enumeration():
    rng = random.Random(4021)
    for _ in range(60):
        rows = []
        for _ in range(rng.randint(2, 5)):
            coeffs = (Rat(rng.randint(-4, 4)), Rat(rng.randint(-4, 4)))
            rows.append((coeffs, "<=", Rat(rng.randint(0, 8))))
        # box to keep the brute force total
        rows.append(((1, 0), "<=", 10))
        rows.append(((0, 1), "<=", 10))
        lp = LinearProgram(objective=(1, 1), constraints=rows, nonneg=True)
        res = lp_solve(lp)
        expect = _brute_force_2d(rows)
        if expect is None:
            assert res.status == "infeasible"
        else:
            assert res.status == "optimal"
            assert res.value == expect
            assert check_certificate(lp, res)


def test_package_has_no_simplex():
    """The simplex lives in the tests only: skelpot solves each problem
    with an exact method fitted to its structure."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("skelpot.lp")
    for info in pkgutil.iter_modules(skelpot.__path__):
        mod = importlib.import_module(f"skelpot.{info.name}")
        for name in ("lp_solve", "LinearProgram", "reoptimize", "LPError"):
            assert not hasattr(mod, name), f"skelpot.{info.name} binds {name}"


def test_package_has_no_dense_solver():
    """Dense elimination lives in the tests only: skelpot solves its
    Laplacian systems with a sparse LDL^T factor and its systems of at most
    3 unknowns by cofactor expansion."""
    for info in pkgutil.iter_modules(skelpot.__path__):
        mod = importlib.import_module(f"skelpot.{info.name}")
        for name in ("solve_linear", "_laplacian"):
            assert not hasattr(mod, name), f"skelpot.{info.name} binds {name}"
    assert not hasattr(skelpot, "solve_linear")
