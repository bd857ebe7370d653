import dataclasses
import random
import sys

import pytest

from skelpot.graphs import GraphPoint, MetrizedGraph
from skelpot.polyhedra import Polyhedron
from skelpot.toric import PolyComplex, SupportFn
from skelpot.rat import (
    ZERO,
    Rat,
    adjugate,
    cramer,
    cross2,
    det,
    det3,
    dot,
    primitive,
    rat,
    rat_str,
    rceil,
    rfloor,
)

from helpers import int_from_digits
from linear_oracle import solve_linear


def test_rat_parsing():
    assert rat("3/4") == Rat(3, 4)
    assert rat("-7") == Rat(-7)
    assert rat(5) == Rat(5)
    assert rat(Rat(2, 6)) == Rat(1, 3)


def test_rat_shares_rationals():
    q = Rat(22, 7)
    assert rat(q) is q


def test_value_classes_keep_frozen_dataclass_behaviour():
    """rat.Frozen replaces frozen dataclasses: equality needs the same
    class, the hash is that of the field tuple, the repr reads
    Name(field=value, ...), and no attribute can be set or deleted."""
    half = Rat(1, 2)
    pt = GraphPoint("e", 1, half)
    twin = dataclasses.make_dataclass(
        "GraphPoint", ["kind", "index", "offset"], frozen=True
    )("e", 1, half)
    assert repr(pt) == repr(twin) == f"GraphPoint(kind='e', index=1, offset={half!r})"
    assert hash(pt) == hash(twin) == hash(("e", 1, half))
    assert pt == GraphPoint("e", 1, half) and pt != GraphPoint("e", 2, half)
    assert pt != twin
    assert GraphPoint("v", 0) != ("v", 0, 0)
    pts, rays = ((Rat(0), Rat(0)),), ((Rat(1), Rat(0)),)
    poly = Polyhedron([(0, 0)], [(1, 0)])
    assert hash(poly) == hash((pts, rays))
    assert repr(poly) == f"Polyhedron(gen_points={pts!r}, gen_rays={rays!r})"
    # the incidence cache _ends is not a field
    assert repr(MetrizedGraph(["a"], [])) == "MetrizedGraph(labels=('a',), edges=())"
    with pytest.raises(AttributeError, match="cannot assign to field 'offset'"):
        pt.offset = ZERO
    with pytest.raises(AttributeError, match="cannot delete field 'gen_rays'"):
        del poly.gen_rays
    with pytest.raises(AttributeError):
        poly.extra = 1
    assert pt.offset == half and poly.gen_rays == rays


def test_frozen_key_is_the_tuple_of_fields():
    """Each class reads its key with one attrgetter; with one field (and on
    a subclass of a base with none) the key is still the 1-tuple, so ==,
    hash and repr mean what they did."""
    cells = [Polyhedron([(0, 0)], [(1, 0), (0, 1)])]
    pc = PolyComplex(cells)
    assert pc._key(pc) == (pc.cells,) and hash(pc) == hash((pc.cells,))
    assert pc == PolyComplex(cells) and pc != PolyComplex([Polyhedron([(0, 0)], [(1, 0), (1, 1)])])
    assert repr(pc) == f"PolyComplex(cells={pc.cells!r})"
    sf = SupportFn([((0, 0), 0)])
    assert hash(sf) == hash((sf.pieces,)) and sf == SupportFn([((0, 0), 0)])
    pt = GraphPoint("v", 0)
    assert pt._key(pt) == ("v", 0, ZERO) and pt != GraphPoint("v", 1)


@pytest.mark.parametrize("bad", ["", "1.5", "3/0", "x", "1/2/3", None])
def test_rat_rejects(bad):
    with pytest.raises((ValueError, TypeError)):
        rat(bad)


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)


def test_rat_str_roundtrip():
    for q in (Rat(0), Rat(-3), Rat(22, 7), Rat(-1, 2)):
        assert rat(rat_str(q)) == q
    assert rat_str(Rat(4, 2)) == "2"


def test_rat_str_past_the_int_digit_limit():
    """rat_str writes numerators and denominators past the interpreter's
    4300-digit limit on int-to-str conversion, and leaves the limit as it
    was."""
    limit = sys.get_int_max_str_digits()
    assert rat_str(Rat(10**5000 + 1, 3)) == "1" + "0" * 4999 + "1/3"
    rng = random.Random(7)
    ints = [10**600 - 1, 10**600, 10**4300, 10**5000 + 10**2400, 7**20000]
    ints += [rng.getrandbits(rng.randint(1, 60_000)) | 1 for _ in range(40)]
    for n in ints:
        for k in (n, -n):
            s = rat_str(k)
            assert int_from_digits(s) == k and s.lstrip("-")[0] != "0"
        num, _, den = rat_str(Rat(n + 1, 3 * n + 2)).partition("/")
        assert Rat(int_from_digits(num), int_from_digits(den or "1")) == Rat(n + 1, 3 * n + 2)
    assert sys.get_int_max_str_digits() == limit


def test_floor_ceil_are_ints():
    assert rfloor(Rat(7, 2)) == 3 and isinstance(rfloor(Rat(7, 2)), int)
    assert rceil(Rat(7, 2)) == 4 and isinstance(rceil(Rat(7, 2)), int)
    assert rfloor(Rat(-7, 2)) == -4
    assert rceil(Rat(-7, 2)) == -3
    assert rfloor(Rat(6)) == rceil(Rat(6)) == 6


def test_vector_helpers():
    u, v = (rat(1), rat("1/2")), (rat("1/3"), rat(2))
    assert dot(u, v) == Rat(1, 3) + 1
    assert cross2((Rat(1), Rat(0)), (Rat(0), Rat(1))) == 1
    assert primitive((Rat(4, 6), Rat(-2, 3))) == (1, -1)
    assert det3((Rat(1), 0, 0), (0, Rat(1), 0), (0, 0, Rat(1))) == 1


def test_solve_linear():
    # 2x + y = 5, x - y = 1  ->  x = 2, y = 1
    sol = solve_linear([[2, 1], [1, -1]], [5, 1])
    assert tuple(sol) == (Rat(2), Rat(1))
    with pytest.raises(ValueError):
        solve_linear([[1, 1], [2, 2]], [1, 3])


def test_small_kernel_stays_in_int():
    m = [[2, 1, 0], [1, -1, 3], [0, 4, 1]]
    d, adj = det(m), adjugate(m)
    assert d == -27 and type(d) is int
    assert all(type(x) is int for row in adj for x in row)
    assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*adj)] for row in m] == [
        [d if i == j else 0 for j in range(3)] for i in range(3)
    ]
    assert det([]) == 1 and adjugate([[5]]) == ((1,),)
    # columns (2, 1) and (1, -1), target (5, 1): x = (2, 1) with d = -3
    assert cramer([(2, 1), (1, -1)], (5, 1)) == (-3, [-6, -3])
    assert cramer([(1, 2), (2, 4)], (1, 1)) == (0, [])
    with pytest.raises(ValueError):
        det([[1] * 4] * 4)
