"""Frobenius powers/roots and test ideals for monomial ideals.

Dual routes everywhere: the floor-division root is checked against its
defining minimality property, the stabilization-loop test ideal against
the Newton-polyhedron membership oracle, the walked root against the
floors of a brute-force power, and the dual vertices that certify its rows
against brute-force powers and the general simplex.
"""

import ast
import json
import pathlib
import random
from itertools import permutations
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import skelpot.testideals
from skelpot.testideals import (
    GradedSequence,
    MonomialIdeal,
    asymptotic_test_ideal as asymptotic_tau,
    frobenius_power,
    frobenius_root,
    unit_ideal,
    zero_ideal,
)
from skelpot.testideals import TestIdealError as IdealError
from skelpot.testideals import newton_test_ideal as newton_tau
from skelpot.testideals import test_ideal as tau
from skelpot.testideals import (
    _antichain,
    _certified_root,
    _dual_vertices,
    _row_bounds,
    _staircase,
    _stop_exponent,
    is_prime,
    newton_certifies,
    newton_normals,
)
from skelpot.rat import Rat, rceil

from helpers import rand_lambda, rand_proper_ideal
from lp_oracle import LinearProgram, lp_solve
from newton_oracle import newton_by_slices
from planar_oracle import matrix_rank


def I(n, *gens):
    return MonomialIdeal(n, gens)


def test_ideals_are_frozen_values():
    a = I(2, (3, 0), (0, 2))
    for name, value in (("gens", ((1, 1),)), ("n", 3), ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(a, name, value)
    assert a.gens == ((0, 2), (3, 0)) and a.n == 2
    b = I(2, (3, 0)) + I(2, (0, 2))  # built by _from_valid
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != I(3, (3, 0, 0), (0, 2, 0)) and a != I(2, (3, 0))
    assert repr(a) == "(y^2, x^3)"


def test_ideal_normalization():
    a = I(2, (3, 0), (3, 1), (0, 2), (1, 2))
    assert a.gens == ((0, 2), (3, 0))  # antichain, sorted
    assert I(1, (0,)).is_unit()
    assert MonomialIdeal(2, ()).is_zero()
    with pytest.raises(IdealError):
        MonomialIdeal(2, ((1,),))
    with pytest.raises(IdealError):
        MonomialIdeal(2, ((-1, 0),))


_ideals = st.integers(1, 3).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(*[st.integers(0, 5)] * n), max_size=5),
        st.lists(st.tuples(*[st.integers(0, 5)] * n), max_size=5),
        st.integers(0, 4),
    )
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_ideals)
def test_products_match_validating_constructor(case):
    """Products, sums, intersections and powers, which skip re-validating
    their exponent vectors, equal the ideals the validating constructor
    builds from the same vectors; the zero ideal is included."""
    n, ga, gb, m = case
    a, b = MonomialIdeal(n, ga), MonomialIdeal(n, gb)

    def times(c, d):
        sums = [tuple(x + y for x, y in zip(u, v)) for u in c.gens for v in d.gens]
        return MonomialIdeal(n, sums)

    assert a * b == times(a, b)
    assert a + b == MonomialIdeal(n, a.gens + b.gens)
    lcms = [tuple(map(max, u, v)) for u in a.gens for v in b.gens]
    assert a.intersect(b) == MonomialIdeal(n, lcms)
    power = MonomialIdeal(n, [(0,) * n])
    for _ in range(m):
        power = times(power, a)
    assert a**m == power
    for ideal in (a * b, a + b, a.intersect(b), a**m):
        assert type(ideal) is MonomialIdeal and ideal.n == n


def test_ideal_arithmetic():
    a = I(2, (1, 0))
    b = I(2, (0, 1))
    assert (a * b).gens == ((1, 1),)
    assert (a + b).gens == ((0, 1), (1, 0))
    assert a.intersect(b).gens == ((1, 1),)
    assert (a**3).gens == ((3, 0),)
    assert (a + b) ** 2 == I(2, (2, 0), (1, 1), (0, 2))
    assert a**0 == unit_ideal(2)
    assert zero_ideal(2) * a == zero_ideal(2)


def test_frobenius_power_example():
    # (x^2, y^3) at p=3, e=1
    assert frobenius_power(I(2, (2, 0), (0, 3)), 3, 1) == I(2, (6, 0), (0, 9))


def test_frobenius_root_examples():
    assert frobenius_root(I(2, (3, 2)), 2, 1) == I(2, (1, 1))
    assert frobenius_root(I(1, (1,)), 2, 2) == unit_ideal(1)
    a = I(2, (5, 1), (2, 3))
    assert frobenius_root(frobenius_power(a, 3, 2), 3, 2) == a


def test_frobenius_rejects_bad_p():
    with pytest.raises(IdealError):
        frobenius_power(I(1, (1,)), 4, 1)
    with pytest.raises(IdealError):
        frobenius_root(I(1, (1,)), 2, -1)


def _largest_ideal_missing(n, w):
    """The largest monomial ideal that does not contain x^w."""
    gens = []
    for i in range(n):
        v = [0] * n
        v[i] = w[i] + 1
        gens.append(tuple(v))
    return MonomialIdeal(n, gens)


def test_root_minimality_oracle():
    """a^[1/q] is the smallest b with a inside b^[q]: containment holds, and
    for every generator w of the root there is no valid b avoiding w."""
    rng = random.Random(92)
    for _ in range(60):
        n = rng.choice((1, 2, 3))
        a = rand_proper_ideal(rng, n)
        p = rng.choice((2, 3, 5))
        e = rng.choice((1, 1, 2))
        b = frobenius_root(a, p, e)
        assert frobenius_power(b, p, e).contains(a)
        for w in b.gens:
            avoiding = _largest_ideal_missing(n, w)
            assert not frobenius_power(avoiding, p, e).contains(a)


def test_membership_commutes_with_frobenius():
    # x^u in a  iff  x^(q u) in a^[q], checked over an exponent box
    rng = random.Random(93)
    for _ in range(30):
        n = rng.choice((2, 3))
        a = rand_proper_ideal(rng, n)
        p = rng.choice((2, 3))
        e = rng.choice((1, 2))
        q = p**e
        fp = frobenius_power(a, p, e)
        for _ in range(40):
            u = tuple(rng.randint(0, 6) for _ in range(n))
            assert a.contains_exponent(u) == fp.contains_exponent(
                tuple(q * x for x in u)
            )


def test_root_identities():
    rng = random.Random(94)
    for _ in range(60):
        n = rng.choice((2, 3))
        a = rand_proper_ideal(rng, n)
        p = rng.choice((2, 3, 5))
        e = rng.choice((1, 2))
        # (a^[q])^[1/q] = a  and  a <= (a^[1/q])^[q]
        assert frobenius_root(frobenius_power(a, p, e), p, e) == a
        assert frobenius_power(frobenius_root(a, p, e), p, e).contains(a)
        # iterated roots compose
        assert frobenius_root(frobenius_root(a, p, 1), p, e) == frobenius_root(
            a, p, e + 1
        )


# -- test ideals --------------------------------------------------------


def test_test_ideal_spec_values():
    m2 = I(2, (1, 0), (0, 1))
    assert tau(m2**2, 1, 2) == m2
    a = I(2, (2, 1))
    assert tau(a, 1, 2).contains(a)
    assert tau(unit_ideal(2), "7/3", 5) == unit_ideal(2)
    assert tau(a, 0, 3) == unit_ideal(2)
    assert tau(zero_ideal(2), 1, 2) == zero_ideal(2)
    with pytest.raises(IdealError):
        tau(a, "-1/2", 2)


def test_test_ideal_monotone_in_lambda():
    a = I(2, (2, 0), (1, 1), (0, 3))
    prev = None
    for lam in (Rat(1, 3), Rat(2, 3), Rat(1), Rat(3, 2), Rat(2), Rat(3)):
        cur = tau(a, lam, 2)
        if prev is not None:
            assert prev.contains(cur)
        prev = cur


def test_test_ideal_monotone_in_ideal():
    rng = random.Random(95)
    for _ in range(25):
        n = rng.choice((2, 3))
        small = rand_proper_ideal(rng, n)
        big = small + rand_proper_ideal(rng, n)
        lam = rand_lambda(rng)
        p = rng.choice((2, 3, 5))
        assert tau(big, lam, p).contains(tau(small, lam, p))


def test_power_compatibility():
    rng = random.Random(96)
    for _ in range(25):
        n = rng.choice((2, 3))
        a = rand_proper_ideal(rng, n, max_exp=4)
        lam = rand_lambda(rng, num_max=8)
        p = rng.choice((2, 3, 5))
        m = rng.choice((2, 3))
        assert tau(a**m, lam, p) == tau(a, m * lam, p)


def test_newton_oracle_agreement():
    rng = random.Random(97)
    for _ in range(60):
        n = rng.choice((2, 3))
        a = rand_proper_ideal(rng, n)
        lam = rand_lambda(rng)
        p = rng.choice((2, 3, 5))
        assert tau(a, lam, p) == newton_tau(a, lam)


@st.composite
def _skoda_instances(draw):
    n = draw(st.integers(1, 3))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n).filter(any), min_size=1, max_size=3))
    lam = n + Rat(draw(st.integers(0, 8)), draw(st.sampled_from((3, 2, 4, 1))))
    return MonomialIdeal(n, gens), lam, draw(st.sampled_from((2, 3, 5)))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(_skoda_instances())
def test_skoda_theorem(instance):
    """tau(a^lam) = a * tau(a^(lam - 1)) for lam >= n (Hara-Takagi, Thm 4.1:
    a monomial ideal in n variables has analytic spread at most n).
    Neither route uses this identity."""
    a, lam, p = instance
    assert tau(a, lam, p) == a * tau(a, lam - 1, p)
    assert newton_tau(a, lam) == a * newton_tau(a, lam - 1)


@st.composite
def _chain_instances(draw):
    n = draw(st.integers(1, 3))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n).filter(any), min_size=1, max_size=4))
    lam = Rat(draw(st.integers(0, 18)), draw(st.integers(1, 6)))
    return MonomialIdeal(n, gens), lam, draw(st.sampled_from((2, 3, 5, 7)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_chain_instances())
def test_chain_route_matches_newton_route(instance):
    """The Frobenius-root chain and the Newton interior criterion give the
    same tau(a^lam), whatever the count ceil(lam * p^e) at the stable
    index."""
    a, lam, p = instance
    assert tau(a, lam, p) == newton_tau(a, lam)


@st.composite
def _law_instances(draw):
    n = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(0, 4)] * n).filter(any)
    a = MonomialIdeal(n, draw(st.lists(vec, min_size=1, max_size=3)))
    b = a + MonomialIdeal(n, draw(st.lists(vec, min_size=1, max_size=2)))
    lam, mu = (Rat(draw(st.integers(0, 12)), draw(st.integers(1, 4))) for _ in range(2))
    return a, b, lam, mu, draw(st.sampled_from((2, 3, 5, 7)))


_ROUTES = {"chain": tau, "newton": lambda a, lam, p: newton_tau(a, lam)}


@pytest.mark.parametrize("route", sorted(_ROUTES))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(instance=_law_instances())
def test_test_ideal_laws(route, instance):
    """On both routes, with a inside b: tau is monotone in lambda and in
    the ideal, and subadditive, tau(a^(lam+mu)) <= tau(a^lam) tau(a^mu)
    (Hara-Yoshida, Trans. AMS 2003, Thm 6.10)."""
    a, b, lam, mu, p = instance
    t = _ROUTES[route]
    lo, hi = sorted((lam, mu))
    assert t(a, lo, p).contains(t(a, hi, p))
    assert t(b, lam, p).contains(t(a, lam, p))
    assert (t(a, lam, p) * t(a, mu, p)).contains(t(a, lam + mu, p))


def test_newton_oracle_known_values():
    m2 = I(2, (1, 0), (0, 1))
    assert newton_tau(m2**2, 1) == m2
    assert newton_tau(m2**2, Rat(1, 2)) == unit_ideal(2)
    # principal (xy): tau jumps exactly at integers
    xy = I(2, (1, 1))
    assert newton_tau(xy, Rat(99, 100)) == unit_ideal(2)
    assert newton_tau(xy, 1) == xy
    assert newton_tau(xy, Rat(5, 2)) == I(2, (2, 2))


def test_deep_chain_power_compatibility():
    """The instance whose stabilization chain pauses before e reaches its
    stable range: both the direct route and the route through the cube of
    the ideal must agree with the oracle (this exercises the query-based
    root on large counts)."""
    a = MonomialIdeal(3, [(4, 0, 2), (0, 4, 1), (2, 1, 3)])
    lam = Rat(11, 2)
    direct = tau(a, lam, 2)
    via_cube = tau(a**3, lam / 3, 2)
    assert direct == via_cube == newton_tau(a, lam)


def _stable_roots(rng, count):
    """(a, m, p, e) for count random (a, lambda, p), each at every e from
    the stable index of _stop_exponent up to two past it, with
    m = ceil(lambda * p^e): n = 2 or 3, two or three generators with
    exponents <= 3, lambda = a/b with a <= 4 and b <= 2.  Brute-force
    powers cost ~m^(g-1) sums, so three generators take p = 2."""
    out = []
    while len(out) < 3 * count:
        a = rand_proper_ideal(rng, rng.choice((2, 3)), max_gens=rng.choice((2, 3)), max_exp=3)
        if len(a.gens) < 2:
            continue
        p = rng.choice((2, 3)) if len(a.gens) == 2 else 2
        lam = Rat(rng.randint(1, 4), rng.randint(1, 2))
        e = _stop_exponent(a, lam, p)
        out.extend((a, rceil(lam * p**k), p, k) for k in range(e, e + 3))
    return out


def test_query_route_matches_materialized_floors():
    """The chain route's root against the definition, the floors of the
    minimal generators of a^m (enumerated by _power_by_counts), at every e
    from the stable index up to two past it."""
    roots = _stable_roots(random.Random(98), 12)
    assert {len(a.gens) for a, *_ in roots} == {2, 3} and {a.n for a, *_ in roots} == {2, 3}
    for a, m, p, e in roots:
        root = _certified_root(a, m, p, e)
        assert root == frobenius_root(_power_by_counts(a, m), p, e), (a, m, p, e)
        assert _antichain(root.gens) == root.gens


@st.composite
def _stable_instances(draw):
    """n = 2 or 3 (mostly 3), two or three generators with exponents <= 3,
    lambda = a/b with a <= 3 and b <= 2, and e at the stable index or one
    past it; three generators take p = 2, as in _stable_roots."""
    n = draw(st.sampled_from((3, 3, 3, 2)))
    k = draw(st.integers(2, 3))
    vec = st.tuples(*[st.integers(0, 3)] * n)
    ideals = st.lists(vec, min_size=k, max_size=k, unique=True).map(lambda gs: MonomialIdeal(n, gs))
    a = draw(ideals.filter(lambda a: len(a.gens) == k))
    p = draw(st.sampled_from((2, 3))) if k == 2 else 2
    lam = Rat(draw(st.integers(1, 3)), draw(st.integers(1, 2)))
    e = _stop_exponent(a, lam, p) + draw(st.integers(0, 1))
    return a, rceil(lam * p**e), p, e


def _power_by_counts(a, m, q=1):
    """a^m from its definition, every sum of m generators (at least two),
    enumerated by the count of each generator; with q > 1, the ideal of the
    floors of those sums divided by q, which is frobenius_root(a^m, p, e)
    at q = p^e (a sum that is not minimal floors above the floors of a
    minimal one).  Far cheaper at m near 60 than the repeated squaring of
    MonomialIdeal.__pow__, whose products it skips."""
    gens = a.gens

    def sums(k, left, base):
        if k == len(gens) - 2:  # c of gens[k], the rest of the last one
            start = tuple(b + left * y for b, y in zip(base, gens[k + 1]))
            step = tuple(x - y for x, y in zip(gens[k], gens[k + 1]))
            for c in range(left + 1):
                yield tuple((s + c * d) // q for s, d in zip(start, step))
            return
        for c in range(left + 1):
            yield from sums(k + 1, left - c, tuple(b + c * x for b, x in zip(base, gens[k])))

    return MonomialIdeal(a.n, sums(0, m, (0,) * a.n))


def test_bounded_slices_match_floors():
    """The walked slices against the floors of the minimal generators of
    a^m at and past the stable index, on instances that reach rows with no
    member in the box and rows whose least member is z = 0."""
    real = skelpot.testideals._staircase
    seen = set()

    def spy(least, by, bz):
        def spied(y):
            z = least(y)
            if z > bz:
                seen.add("row with no member")
            elif z == 0:
                seen.add("member at z = 0")
            return z

        return real(spied, by, bz)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_stable_instances())
    def check(instance):
        a, m, p, e = instance
        with patch.object(skelpot.testideals, "_staircase", spy):
            got = _certified_root(a, m, p, e)
        floors = _power_by_counts(a, m, p**e)
        if m <= 12:
            assert _power_by_counts(a, m) == a**m
            assert floors == frobenius_root(a**m, p, e)
        assert got == floors

    check()
    assert seen == {"row with no member", "member at z = 0"}


@st.composite
def _tau_instances(draw):
    """n <= 3, one to five generators with exponents <= 10, lambda with
    denominator <= 7 and p in {2, 3, 5, 7}."""
    n = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(0, 10)] * n).filter(any)
    gens = draw(st.lists(vec, min_size=1, max_size=5))
    den = draw(st.integers(1, 7))
    lam = Rat(draw(st.integers(1, 4 * den)), den)
    return MonomialIdeal(n, gens), lam, draw(st.sampled_from((2, 3, 5, 7)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_tau_instances())
def test_stable_index_decides_every_row(instance):
    """At the stable index every row's certificates meet (lo == hi), so the
    chain route raises on no row, and it agrees with the Newton route."""
    a, lam, p = instance
    assert tau(a, lam, p) == newton_tau(a, lam)


def _log2_ceil(x):
    return (x - 1).bit_length()


def test_staircase_against_brute_force_scan():
    """_staircase on random up-closed sets in [0,by] x [0,bz], a row with
    no member reading as any value past bz.  It reads each row at most
    once, and at most 4 (#corners + 1) ceil(log2(by + bz + 2)) rows."""
    rng = random.Random(102)
    for _ in range(400):
        by, bz = rng.randint(0, 40), rng.randint(0, 40)
        gens = [(rng.randint(0, by + 1), rng.randint(0, bz + 1)) for _ in range(rng.randint(0, 6))]
        row = [min([d for c, d in gens if c <= y] + [bz + 1 + rng.randint(0, 9)]) for y in range(by + 1)]
        truth = [(y, z) for y, z in enumerate(row) if z <= bz and (y == 0 or z < row[y - 1])]
        read = []

        def least(y):
            read.append(y)
            return row[y]

        assert _staircase(least, by, bz) == truth
        assert len(read) == len(set(read))
        assert len(read) <= 4 * (len(truth) + 1) * _log2_ceil(by + bz + 2)


@st.composite
def _certificate_rows(draw):
    """A row v = prefix + (y, z) of the root (a^m)^[1/q], any q: n = 2 or 3
    (the rows of _certified_root), 2-4 generators with exponents <= 6, a
    count m and a scale q."""
    n = draw(st.integers(2, 3))
    vec = st.tuples(*[st.integers(0, 6)] * n).filter(any)
    gens = draw(st.lists(vec, min_size=2, max_size=4, unique=True))
    m = draw(st.integers(1, 12))
    q = draw(st.sampled_from((1, 2, 3, 4, 8, 9, 25)))
    cap = -(-m * 6 // q) + 1
    prefix = draw(st.tuples(*[st.integers(0, cap)] * (n - 2)))
    y = draw(st.integers(0, cap))
    return tuple(gens), m, q, prefix, y, cap


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_certificate_rows(), st.randoms(use_true_random=False))
def test_row_bounds_against_the_power(row, rnd):
    """Below lo every point is a non-member and from hi on every point a
    member of the root, at any q, by brute force: v is a member iff
    q*v + (q-1)*(1,..,1) lies in a^m, enumerated by _power_by_counts.  lo
    past bz means the row has no member at all.  Both bounds are ints in
    [0, bz + 1]."""
    gens, m, q, prefix, y, bz = row
    power = _power_by_counts(MonomialIdeal._from_valid(len(gens[0]), gens), m)
    lo, hi = _row_bounds(gens, _dual_vertices(gens), q, m, prefix, bz)(y)

    def member(z):
        return power.contains_exponent(q * x + q - 1 for x in prefix + (y, z))

    assert type(lo) is int and type(hi) is int
    assert 0 <= lo <= hi <= bz + 1
    if lo > bz:
        assert not member(bz) and not member(rnd.randint(0, bz))
        return
    if lo > 0:
        assert not member(lo - 1) and not member(rnd.randint(0, lo - 1))
    if hi <= bz:
        assert member(hi) and member(rnd.randint(hi, bz + 3))


def test_small_e_roots_match_or_raise():
    """Below the stable index the certificates can leave a row undecided:
    on random roots at e = 1 to 4, all below it, each root either equals
    the floors of the generators of a^m or raises RuntimeError naming the
    row, never a wrong ideal; both happen."""
    rng = random.Random(104)
    matched = raised = 0
    for _ in range(40):
        n = rng.choice((2, 3))
        a = rand_proper_ideal(rng, n)
        if len(a.gens) < 2:
            continue
        m, p = rng.randint(6, 40), rng.choice((2, 3))
        power = a**m
        for e in range(1, 5):
            assert e < _stop_exponent(a, Rat(m, p**e), p)
            try:
                root = _certified_root(a, m, p, e)
            except RuntimeError as ex:
                assert "is undecided" in str(ex) and "below the stable index" in str(ex)
                raised += 1
                continue
            assert root == frobenius_root(power, p, e)
            matched += 1
    assert matched and raised


def test_undecided_row_exits_1_internal(tmp_path, capsys, monkeypatch):
    """With the stopping rule forced to e = 1, (y, x^3) at lambda = 9/2 and
    p = 2 reaches a row the certificates leave undecided: the command line
    reports it as an internal error with exit 1, not as infeasible."""
    from skelpot import cli as cli_mod

    a = I(2, (0, 1), (3, 0))
    with pytest.raises(RuntimeError):
        _certified_root(a, 9, 2, 1)
    path = tmp_path / "t.json"
    path.write_text(
        '{"kind": "testideal", "n": 2, "p": 2, "gens": [[0, 1], [3, 0]], "lambda": "9/2"}',
        encoding="utf-8",
    )
    monkeypatch.setattr(skelpot.testideals, "_stop_exponent", lambda *args: 1)
    assert cli_mod.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["exit_code"] == 1 and err["kind"] == "internal"
    assert err["message"].startswith("RuntimeError: row ")
    assert not (tmp_path / "out").exists()


def test_package_has_no_assert_statements():
    """python -O strips assert statements, so no check of src/skelpot may
    be one."""
    root = pathlib.Path(skelpot.testideals.__file__).parent
    files = sorted(root.glob("*.py"))
    assert len(files) > 5
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)], path.name


def test_probe_rows_query_counts():
    """The two probe families of large outputs: the certificates decide
    every row at the stable index, in every variable order, so the chain
    route lists the 2,000 generators at n = 2, lambda = 10^3, and agrees
    with the Newton route on the n = 3 family."""
    a = I(2, (3, 0), (0, 3), (1, 1))
    got = tau(a, 1000, 2)
    assert got == newton_tau(a, 1000) and len(got.gens) == 2000
    base = ((7, 0, 1), (0, 9, 2), (2, 3, 11))
    for order in permutations(range(3)):
        a = MonomialIdeal(3, [tuple(g[i] for i in order) for g in base])
        assert tau(a, 20, 3) == newton_tau(a, 20), order


@pytest.mark.parametrize(
    "a, lam, p",
    [(I(2, (2**k, 0), (1, 1), (0, 2)), 1, 2) for k in (20, 40, 70)]
    + [(I(2, (3, 0), (0, 3), (1, 1)), 1000, 2), (I(3, (4, 0, 2), (0, 4, 1), (2, 1, 3)), Rat(11, 2), 2)],
    ids=["2^20", "2^40", "2^70", "n2-1000", "deep-chain"],
)
def test_probes_follow_the_staircase_not_the_box(monkeypatch, a, lam, p):
    """Rows read stay within #generators * ceil(log2(box size)): the walk
    costs what the answer has, however large the box (2^70 wide for the
    first family).  The Newton route's rows are exact too: within the same
    bound on its own box."""
    expected = newton_tau(a, lam)
    reads, boxes = [], []
    real_walk, real_corners = skelpot.testideals._staircase, skelpot.testideals._corners

    def walk(least, by, bz):
        return real_walk(lambda y: reads.append(y) or least(y), by, bz)

    def corners(box, row):
        boxes.append(box)
        return real_corners(box, row)

    monkeypatch.setattr(skelpot.testideals, "_staircase", walk)
    monkeypatch.setattr(skelpot.testideals, "_corners", corners)
    got = tau(a, lam, p)
    assert got == expected
    e = _stop_exponent(a, lam, p)
    q = p**e
    m = rceil(Rat(lam) * q)
    box = [-((q - 1 - m * max(u[i] for u in a.gens)) // q) for i in range(a.n)]
    assert reads and len(reads) <= len(got.gens) * _log2_ceil(sum(box) + 2)
    reads.clear()
    assert newton_tau(a, lam) == expected
    assert reads and len(reads) <= len(got.gens) * _log2_ceil(sum(boxes[-1]) + 2)


def test_power_root_matches_definition():
    """_power_root against the floors of the minimal generators of a^m on
    every path: the zero, unit and principal closed forms at any e, and
    the walked roots at and past the stable index."""
    from skelpot.testideals import _power_root

    rng = random.Random(101)
    cases = [(zero_ideal(2), 0), (zero_ideal(2), 3), (unit_ideal(3), 5), (I(2, (1, 2)), 0)]
    for _ in range(30):
        cases.append((rand_proper_ideal(rng, rng.choice((1, 2, 3)), max_gens=1), rng.randint(1, 40)))
    for a, m in cases:
        p = rng.choice((2, 3, 5))
        e = rng.randint(1, 3)
        assert _power_root(a, m, p, e) == frobenius_root(a**m, p, e)
    for a, m, p, e in _stable_roots(rng, 4):
        assert _power_root(a, m, p, e) == frobenius_root(_power_by_counts(a, m), p, e)


def test_basis_table_stays_in_int():
    """The dual-vertex table keeps integer data integer: every vertex is a
    tuple of Python ints over a positive int denominator, in lowest terms,
    feasible and tight on enough generators and axes to be a vertex, and
    min <w, y> over the table is the optimum of the packing relaxation
    max sum(c), sum(c_k u_k) <= w, c >= 0, by the simplex oracle."""
    rng = random.Random(106)
    cases = [((4, 0, 2), (0, 4, 1), (2, 1, 3), (1, 1, 1))]
    for _ in range(20):
        n = rng.choice((2, 3))
        cases.append(tuple({tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(rng.randint(2, 4))} - {(0,) * n}))
    for gens in cases:
        n = len(gens[0])
        table = _dual_vertices(gens)
        assert table and table == tuple(sorted(set(table)))
        for y, den in table:
            assert type(den) is int and den > 0 and all(type(x) is int and x >= 0 for x in y)
            assert gcd(den, *y) == 1
            sums = [sum(a * b for a, b in zip(y, u)) for u in gens]
            assert min(sums) == den
            tight = [tuple(Rat(x) for x in u) for u, s in zip(gens, sums) if s == den]
            axes = [tuple(Rat(int(i == j)) for j in range(n)) for i in range(n) if y[i] == 0]
            assert matrix_rank(tight + axes) == n
        for _ in range(3):
            w = tuple(rng.randint(0, 12) for _ in range(n))
            res = lp_solve(LinearProgram(
                objective=(Rat(1),) * len(gens),
                constraints=[(tuple(Rat(u[i]) for u in gens), "<=", Rat(w[i])) for i in range(n)],
                nonneg=True,
            ))
            assert res.value == min(Rat(sum(a * b for a, b in zip(w, y)), den) for y, den in table)


def test_newton_slices_stay_in_int(monkeypatch):
    """Scaled by the denominator of lambda once, every constraint that
    reaches _newton_row is a tuple of ints with an int right-hand side,
    and every row's least point it returns is an exact int; the integer
    route still agrees with the chain on n = 1, 2 and 3."""
    real = skelpot.testideals._newton_row
    seen, ns = set(), set()

    def checked(constraints, prefix, bz):
        for c, r in constraints:
            assert type(c) is tuple and all(type(x) is int for x in c) and type(r) is int
        least = real(constraints, prefix, bz)

        def typed(y):
            z = least(y)
            assert type(z) is int
            seen.add(len(prefix) + 2)
            return z

        return typed

    monkeypatch.setattr(skelpot.testideals, "_newton_row", checked)
    rng = random.Random(103)
    for den in range(1, 8):
        for _ in range(6):
            n = rng.choice((1, 2, 3))
            ns.add(n)
            a = rand_proper_ideal(rng, n, max_exp=4)
            lam = Rat(rng.choice([k for k in range(1, 4 * den) if gcd(k, den) == 1]), den)
            assert lam.denominator == den
            p = rng.choice((2, 3, 5, 7))
            got = newton_tau(a, lam)
            assert all(type(x) is int for g in got.gens for x in g)
            assert got == tau(a, lam, p)
    assert seen == {2, 3} and ns == {1, 2, 3}


def test_newton_route_matches_slice_oracle():
    """The Newton route on the corner walker against the slice-by-slice
    oracle and the chain route, on seeded ideals in one to three variables
    with exponents up to 6 and lambda = a/b, a <= 36, b <= 3; the walker's
    corners are a sorted minimal antichain as they come."""
    rng = random.Random(105)
    for _ in range(300):
        n = rng.choice((1, 2, 3, 3))
        a = rand_proper_ideal(rng, n, max_exp=6)
        lam = Rat(rng.randint(1, 36), rng.randint(1, 3))
        got = newton_tau(a, lam)
        assert _antichain(got.gens) == got.gens
        assert got == newton_by_slices(a, lam) == tau(a, lam, rng.choice((2, 3, 5)))


# the pinned deep chain and the two huge-exponent inputs of the CLI tests
_PINNED = (
    (((4, 0, 2), (0, 4, 1), (2, 1, 3)), Rat(11, 2), 2),
    (((2**70, 0), (1, 1), (0, 2)), Rat(1), 2),
    (((2**40, 0, 0), (0, 3, 0), (0, 0, 3)), Rat(1), 3),
)


def _candidates(t):
    """t itself; t with one generator dropped, moved down one step or moved
    up one step; and t's generators out of order and with a non-minimal
    one added, which no constructor would build."""
    yield t
    for k, g in enumerate(t.gens):
        rest = t.gens[:k] + t.gens[k + 1 :]
        yield MonomialIdeal(t.n, rest)
        for i in range(t.n):
            for d in (-1, 1):
                if g[i] + d >= 0:
                    yield MonomialIdeal(t.n, rest + (g[:i] + (g[i] + d,) + g[i + 1 :],))
    yield MonomialIdeal._from_valid(t.n, t.gens[::-1])
    yield MonomialIdeal._from_valid(t.n, t.gens + tuple((g[0] + 1,) + g[1:] for g in t.gens[-1:]))


def _assert_certificate_verdicts(a, lam):
    truth = newton_tau(a, lam)
    assert newton_certifies(a, lam, truth)
    for cand in _candidates(truth):
        assert newton_certifies(a, lam, cand) == (cand == truth), (a, lam, cand)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_chain_instances())
def test_newton_certificate_decides_like_the_newton_route(instance):
    """newton_certifies(a, lam, cand) == (newton_test_ideal(a, lam) == cand)
    for the true ideal and for every one-generator corruption of it: the
    zero and unit ideals, lambda = 0 and n = 1 included."""
    a, lam, _ = instance
    _assert_certificate_verdicts(a, lam)


@pytest.mark.parametrize("gens, lam, p", _PINNED, ids=["deep-chain", "2^70", "n3-2^40"])
def test_newton_certificate_on_pinned_inputs(gens, lam, p):
    a = MonomialIdeal(len(gens[0]), gens)
    assert newton_certifies(a, lam, tau(a, lam, p))
    _assert_certificate_verdicts(a, lam)


def test_newton_certificate_on_trivial_inputs():
    """lambda = 0, the zero and unit ideals and n = 1, against candidates of
    every shape: zero, unit, proper, another variable count, not an ideal."""
    for n in (1, 2, 3):
        others = (zero_ideal(n), unit_ideal(n), I(n, (1,) * n), unit_ideal(n % 3 + 1), None)
        for a in (zero_ideal(n), unit_ideal(n), I(n, (2,) * n)):
            for lam in (Rat(0), Rat(1, 2), Rat(3)):
                _assert_certificate_verdicts(a, lam)
                truth = newton_tau(a, lam)
                for cand in others:
                    assert newton_certifies(a, lam, cand) == (truth == cand), (a, lam, cand)


def test_newton_certificate_walks_nothing(monkeypatch):
    """The certificate decides the pinned inputs with the corner walker, the
    row certificates and their helpers all broken."""
    cases = []
    for gens, lam, p in _PINNED:
        a = MonomialIdeal(len(gens[0]), gens)
        t = tau(a, lam, p)
        cases.append((a, lam, t, MonomialIdeal(a.n, t.gens[1:])))

    def broken(*args, **kwargs):
        raise AssertionError("the certificate walked")

    for name in ("_corners", "_staircase", "_least", "_row_bounds", "_dual_vertices", "_newton_row"):
        monkeypatch.setattr(skelpot.testideals, name, broken)
    for a, lam, t, dropped in cases:
        assert newton_certifies(a, lam, t)
        assert not newton_certifies(a, lam, dropped)


def test_newton_normals_are_a_cached_property(monkeypatch):
    """newton_normals is computed once per ideal, though both the chain
    route's stopping rule and the certificate read it, and stays out of
    repr, == and hash."""
    calls = []
    real = skelpot.testideals._normalize_nonneg

    def counting(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(skelpot.testideals, "_normalize_nonneg", counting)
    a = I(3, (4, 0, 2), (0, 4, 1), (2, 1, 3))
    text, key = repr(a), hash(a)
    normals = newton_normals(a)
    computed = len(calls)
    assert computed > 0
    assert newton_certifies(a, Rat(11, 2), tau(a, Rat(11, 2), 2))
    assert a.newton_normals is normals and newton_normals(a) is normals
    assert len(calls) == computed
    fresh = I(3, *a.gens)
    assert "newton_normals" in vars(a) and "newton_normals" not in vars(fresh)
    assert repr(a) == text == repr(fresh) and "newton_normals" not in text
    assert a == fresh and hash(a) == key == hash(fresh)


def test_testideals_does_not_use_the_simplex():
    for name in ("lp_solve", "LinearProgram"):
        assert not hasattr(skelpot.testideals, name)


def test_is_prime_against_trial_division():
    def trial(p):
        return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))

    assert [p for p in range(-3, 5000) if is_prime(p)] == [
        p for p in range(-3, 5000) if trial(p)
    ]
    # strong pseudoprimes to the first few prime bases
    for c in (2047, 1373653, 25326001, 3215031751, 3825123056546413051,
              318665857834031151167461):
        assert not is_prime(c)
    assert is_prime(2**61 - 1) and is_prime(2**64 - 59)
    with pytest.raises(IdealError, match="below"):
        is_prime(skelpot.testideals.PRIME_LIMIT)


# -- graded sequences ---------------------------------------------------


def test_sequence_table_validation():
    m2 = I(2, (1, 0), (0, 1))
    with pytest.raises(IdealError):
        GradedSequence.table({1: m2, 2: m2**3})  # a_1 * a_1 not inside a_2
    with pytest.raises(IdealError):
        GradedSequence.table({})
    with pytest.raises(IdealError):
        GradedSequence.table({1: zero_ideal(2), 2: zero_ideal(2)})
    seq = GradedSequence.table({1: m2, 2: m2**2, 4: m2**4})
    assert seq.ideal(2) == m2**2
    with pytest.raises(IdealError):
        seq.ideal(3)


@pytest.mark.parametrize("index", [1.5, "2", True, 2.0])
def test_sequence_table_rejects_non_int_index(index):
    """A table index must be a plain int: a float, a string or a bool is
    refused, not truncated or read as 1."""
    x2 = I(1, (2,))
    with pytest.raises(IdealError, match="not an int"):
        GradedSequence.table({index: x2, 3: x2**3})


def test_asymptotic_matches_plain_for_principal():
    """The asymptotic test ideal of the powers of b is tau(b^lam): for
    principal b, which has a closed form, and for b with several
    generators, whose roots are read off their row certificates; those
    are also checked against the Newton route."""
    rng = random.Random(99)
    for _ in range(8):
        n = rng.choice((2, 3))
        b = MonomialIdeal(n, (tuple(rng.randint(0, 4) for _ in range(n)),))
        if b.is_unit():
            continue
        lam = rand_lambda(rng, num_max=6)
        p = rng.choice((2, 3, 5))
        assert asymptotic_tau(GradedSequence.powers(b), lam, p) == tau(
            b, lam, p
        )
    done = 0
    while done < 8:
        n = rng.choice((2, 3))
        b = rand_proper_ideal(rng, n, max_exp=4)
        if len(b.gens) < 2:
            continue
        lam = rand_lambda(rng, num_max=6)
        p = rng.choice((2, 3, 5))
        seq = GradedSequence.powers(b)
        assert asymptotic_tau(seq, lam, p) == tau(b, lam, p) == newton_tau(b, lam)
        done += 1


@pytest.mark.parametrize("kind", ["powers", "table"])
@pytest.mark.parametrize(
    "m, lam, p, message",
    [
        (1, Rat(-1, 2), 3, "exponent must be >= 0"),
        (0, Rat(1, 2), 3, "sequence indices start at 1"),
        (-2, Rat(1), 3, "sequence indices start at 1"),
        (0, Rat(-1, 2), 3, "sequence indices start at 1"),
        (1, Rat(1, 2), 4, "p must be prime"),
    ],
    ids=["negative-exponent", "index-zero", "negative-index", "both", "composite-p"],
)
def test_member_test_ideal_rejects_bad_input(kind, m, lam, p, message):
    """Both kinds check the index, then the exponent, then p, before any
    work."""
    b = I(2, (2, 0), (1, 1), (0, 2))
    if kind == "powers":
        seq = GradedSequence.powers(b)
    else:
        seq = GradedSequence.table({1: b, 2: b**2})
    with pytest.raises(IdealError, match=message):
        seq.member_test_ideal(m, lam, p)
    # a power is never materialized, yet the member is tau of that power
    for k in (1, 2, 3) if kind == "powers" else (1, 2):
        for lam in (Rat(1, 2), Rat(5, 3)):
            assert seq.member_test_ideal(k, lam, 3) == tau(b**k, lam, 3)


def test_asymptotic_contains_members():
    b = I(2, (2, 0), (1, 1), (0, 2))
    seq = GradedSequence.powers(b)
    for m in (1, 2):
        member = tau(seq.ideal(m), 1, 3)
        assert asymptotic_tau(seq, m, 3).contains(member)


def test_subadditivity():
    rng = random.Random(100)
    for _ in range(10):
        n = rng.choice((2, 3))
        b = rand_proper_ideal(rng, n, max_exp=3)
        seq = GradedSequence.powers(b)
        lam = rand_lambda(rng, den_max=3, num_max=5)
        p = rng.choice((2, 3, 5))
        one = asymptotic_tau(seq, lam, p)
        for m in (2, 3):
            assert (one**m).contains(asymptotic_tau(seq, m * lam, p))


def test_asymptotic_errors():
    with pytest.raises(IdealError):
        GradedSequence.powers(zero_ideal(2))
    b = I(2, (2, 1), (0, 3))
    for seq in (GradedSequence.powers(b), GradedSequence.table({1: b})):
        with pytest.raises(IdealError, match="exponent must be >= 0"):
            asymptotic_tau(seq, Rat(-1, 2), 2)
        with pytest.raises(IdealError, match="p must be prime"):
            asymptotic_tau(seq, Rat(-1, 2), 4)
    # a short table is no error: the result is its one member
    assert asymptotic_tau(GradedSequence.table({1: b}), Rat(3, 2), 2) == tau(b, Rat(3, 2), 2)


def test_asymptotic_table_regressions():
    """Tables whose members agree at m = 1, 2 and grow at m = 4: a stop at
    the first repeat missed the m = 4 member, the sum contains it."""
    x2, x4 = I(1, (2,)), I(1, (4,))
    seq = GradedSequence.table({1: x2, 2: x4, 4: x4})
    assert asymptotic_tau(seq, 1, 2) == I(1, (1,))
    xy2, xy4 = I(2, (2, 2)), I(2, (4, 4))
    seq = GradedSequence.table({1: xy2, 2: xy4, 4: xy4})
    assert asymptotic_tau(seq, 1, 2) == I(2, (1, 1))


@st.composite
def _sequence_instances(draw):
    """The powers of a random ideal, or a random table made graded by adding
    a_i * a_j to a_(i+j), in increasing index order."""
    n = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    ideals = st.lists(vec, min_size=1, max_size=3).map(lambda gens: MonomialIdeal(n, gens))
    lam = Rat(draw(st.integers(0, 8)), draw(st.integers(1, 4)))
    p = draw(st.sampled_from((2, 3, 5)))
    if draw(st.booleans()):
        return GradedSequence.powers(draw(ideals)), lam, p
    table = {}
    for m in sorted(draw(st.sets(st.integers(1, 6), min_size=1, max_size=4))):
        a = draw(ideals)
        for i in table:
            if m - i in table:
                a = a + table[i] * table[m - i]
        table[m] = a
    return GradedSequence.table(table), lam, p


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_sequence_instances())
def test_asymptotic_contains_every_member(instance):
    """tau(a_.^lam) contains tau(a_m^(lam/m)) for every member the sequence
    provides: each tabulated m, and m = 1..4 on powers, read off the
    materialized power."""
    seq, lam, p = instance
    got = asymptotic_tau(seq, lam, p)
    ms = range(1, 5) if seq.kind == "powers" else [m for m, _ in seq.entries]
    for m in ms:
        assert got.contains(tau(seq.ideal(m), lam / m, p))
