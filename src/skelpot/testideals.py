"""Frobenius calculus and test ideals for monomial ideals over F_p.

Bracket powers scale exponents, bracket roots floor-divide them, and the
test ideal tau(a^lambda) is the stable value of the increasing chain
(a^ceil(lambda p^e))^[1/p^e].  No power is materialized: a root is an
up-closed set whose staircase is walked corner to corner.  Membership of a
point is a packing integer program with at most 3 rows, bounded in closed
form by the dual vertices of its LP relaxation.  At the index that
_stop_exponent proves stable the bounds meet on every row, and each row's
least member is read off them: an undecided row is an error, never a guess.
A Newton-polyhedron route computes the same ideal from the interior
condition u + (1,..,1) in int(lambda * Newt(a)), exact row by row in
closed form, with the same corner walker; the tests compare the two
routes.  At runtime the chain route's answer is checked by
newton_certifies, which walks nothing: it tests the answer's generators and
the outer corners of its staircase against the interior condition, work
linear in the answer's size.
"""

from __future__ import annotations

import bisect
from functools import cache, cached_property
from itertools import combinations
from math import gcd
from operator import add, mul, sub
from typing import NamedTuple

from .rat import Frozen, adjugate, det as rat_det, rat, rceil

VAR_NAMES = ("x", "y", "z", "w")


class TestIdealError(Exception):
    pass


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this bound (Sorenson-Webster, Math. Comp. 2017: the least strong
# pseudoprime to all of them is 3317044064679887385961981).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; exact for p < PRIME_LIMIT, beyond which
    it raises TestIdealError rather than guess."""
    if p >= PRIME_LIMIT:
        raise TestIdealError(f"primality is decided only below {PRIME_LIMIT}")
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _check_prime(p):
    if not isinstance(p, int) or not is_prime(p):
        raise TestIdealError(f"p must be prime, got {p!r}")


def _antichain(vectors):
    """Minimal elements under componentwise <=, sorted.  Lex-sorted sweep:
    an accepted point can never be dominated by a later one, and dominance
    queries reduce to a running minimum (n=2) or a y/z staircase (n=3)."""
    vecs = sorted(set(vectors))
    if not vecs:
        return ()
    n = len(vecs[0])
    if n == 1:
        return (vecs[0],)
    if n == 2:
        out = []
        best = None
        for v in vecs:
            if best is None or v[1] < best:
                out.append(v)
                best = v[1]
        return tuple(out)
    if n == 3:
        out = []
        ys: list = []  # frontier y values, ascending
        zs: list = []  # matching minimal z values, strictly descending
        for v in vecs:
            _, y, z = v
            i = bisect.bisect_right(ys, y)
            if i > 0 and zs[i - 1] <= z:
                continue
            out.append(v)
            j = i
            while j < len(ys) and zs[j] >= z:
                j += 1
            ys[i:j] = [y]
            zs[i:j] = [z]
        return tuple(out)
    out = []
    for v in vecs:
        if not any(all(g[i] <= v[i] for i in range(n)) for g in out):
            out.append(v)
    return tuple(out)


class MonomialIdeal(Frozen):
    """Generators form a minimal antichain; () is the zero ideal and
    ((0,..,0),) the unit ideal."""

    _fields = ("n", "gens")

    def __init__(self, n: int, gens):
        if not isinstance(n, int) or n < 1:
            raise TestIdealError("need at least one variable")
        rows = []
        for g in gens:
            g = tuple(g)
            if len(g) != n or any(not isinstance(e, int) or e < 0 for e in g):
                raise TestIdealError(f"bad exponent vector {g!r} for n={n}")
            rows.append(g)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gens", _antichain(rows))

    @classmethod
    def _from_valid(cls, n: int, rows) -> "MonomialIdeal":
        """The ideal whose generators are rows, which already form a minimal
        antichain sorted as _antichain sorts it: nothing to check."""
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "n", n)
        object.__setattr__(ideal, "gens", tuple(rows))
        return ideal

    def __repr__(self):
        if self.is_zero():
            return f"MonomialIdeal({self.n}, 0)"
        names = VAR_NAMES[: self.n]
        terms = []
        for g in self.gens:
            parts = [
                nm if e == 1 else f"{nm}^{e}"
                for nm, e in zip(names, g)
                if e > 0
            ]
            terms.append("*".join(parts) if parts else "1")
        return f"({', '.join(terms)})"

    def is_zero(self) -> bool:
        return not self.gens

    @cached_property
    def newton_normals(self) -> tuple:
        """Supporting directions c >= 0 covering every facet of
        Newt(a) = conv(gens) + R^n_{>=0}.  Axis directions plus (in
        dimension 3) cross products of edge-direction candidates; dimension
        <= 3 only."""
        n = self.n
        if n > 3:
            raise TestIdealError("Newton-polyhedron machinery supports at most 3 variables")
        axes = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
        if n == 1:
            return (axes[0],)
        diffs = [tuple(map(sub, g, h)) for g in self.gens for h in self.gens if g != h]
        if n == 2:
            found = (_normalize_nonneg((d[1], -d[0])) for d in diffs)
        else:
            found = (_normalize_nonneg(_cross3(d, e)) for d, e in combinations(diffs + axes, 2))
        return tuple(sorted({*axes, *filter(None, found)}))

    def is_unit(self) -> bool:
        return self.gens == ((0,) * self.n,)

    def contains_exponent(self, u) -> bool:
        u = tuple(u)
        return any(all(g[i] <= u[i] for i in range(self.n)) for g in self.gens)

    def contains(self, other: "MonomialIdeal") -> bool:
        if self.n != other.n:
            raise TestIdealError("variable count mismatch")
        return all(self.contains_exponent(g) for g in other.gens)

    def __le__(self, other):
        return other.contains(self)

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if self.n != other.n:
            raise TestIdealError("variable count mismatch")
        sums = [tuple(map(add, a, b)) for a in self.gens for b in other.gens]
        return MonomialIdeal._from_valid(self.n, _antichain(sums))

    def __pow__(self, m: int) -> "MonomialIdeal":
        if not isinstance(m, int) or m < 0:
            raise TestIdealError("power must be a nonnegative integer")
        result = MonomialIdeal._from_valid(self.n, ((0,) * self.n,))
        base = self
        while m:
            if m & 1:
                result = result * base
            base = base * base
            m >>= 1
        return result

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if self.n != other.n:
            raise TestIdealError("variable count mismatch")
        return MonomialIdeal._from_valid(self.n, _antichain(self.gens + other.gens))

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if self.n != other.n:
            raise TestIdealError("variable count mismatch")
        lcms = [tuple(map(max, a, b)) for a in self.gens for b in other.gens]
        return MonomialIdeal._from_valid(self.n, _antichain(lcms))


def unit_ideal(n: int) -> MonomialIdeal:
    return MonomialIdeal(n, ((0,) * n,))


def zero_ideal(n: int) -> MonomialIdeal:
    return MonomialIdeal(n, ())


def frobenius_power(a: MonomialIdeal, p: int, e: int) -> MonomialIdeal:
    """a^[p^e]: generators scaled componentwise by p^e."""
    _check_prime(p)
    if e < 0:
        raise TestIdealError("e must be >= 0")
    q = p**e
    return MonomialIdeal(a.n, (tuple(x * q for x in g) for g in a.gens))


def frobenius_root(a: MonomialIdeal, p: int, e: int) -> MonomialIdeal:
    """a^[1/p^e]: the smallest b with a contained in b^[p^e]; for monomial
    ideals this is generated by the componentwise floors of the generators."""
    _check_prime(p)
    if e < 0:
        raise TestIdealError("e must be >= 0")
    q = p**e
    return MonomialIdeal(a.n, (tuple(x // q for x in g) for g in a.gens))


def _dual_vertices(gens) -> tuple:
    """The vertices y of {y >= 0 : <y, u_k> >= 1 for every generator u_k}
    as sorted (integer numerators, denominator): by LP duality the packing
    relaxation  max sum(c)  s.t.  sum(c_k u_k) <= w,  c >= 0  has optimum
    min <w, y> over them.  Each is the complementary dual point
    y_S = 1 adj U[S,B] / det U[S,B], y = 0 off S, of a nonsingular basic
    subsystem (coordinates S, generators B, |S| = |B| <= n), kept when
    feasible.  Up to scale they are the facet normals nu of Newt(a) with
    h(nu) = min <nu, u_k> > 0 (blocking duality), each as nu / h(nu)."""
    n, g = len(gens[0]), len(gens)
    duals = set()
    for k in range(1, min(n, g) + 1):
        for S in combinations(range(n), k):
            for B in combinations(range(g), k):
                mat = [[gens[b][i] for b in B] for i in S]
                det = rat_det(mat)
                if det == 0:
                    continue
                y = [0] * n
                for i, col in zip(S, zip(*adjugate(mat))):
                    y[i] = sum(col) if det > 0 else -sum(col)
                det = abs(det)
                if min(y) >= 0 and all(sum(map(mul, y, u)) >= det for u in gens):
                    d = gcd(det, *y)
                    duals.add((tuple(yi // d for yi in y), det // d))
    return tuple(sorted(duals))


def _least(pred, lo: int, hi: int) -> int:
    """The least x in [lo, hi] with pred(x), pred monotone, else hi + 1: a
    gallop up from lo, then bisection; O(log(x - lo)) calls, none repeated."""
    step = 1
    while lo <= hi:
        mid = min(lo + step - 1, hi)
        if pred(mid):
            while lo < mid:
                half = (lo + mid) // 2
                lo, mid = (lo, half) if pred(half) else (half + 1, mid)
            return mid
        lo, step = mid + 1, 2 * step
    return lo


def _row_bounds(gens, duals, q: int, m: int, prefix, bz: int):
    """bounds(y) = (lo, hi) for the row v = prefix + (y, z) of the root
    (a^m)^[1/q], any q: v is a member iff the packing query at
    w = q*v + (q-1)*(1,..,1) fits m generators.  Its LP relaxation has
    optimum min <w, a>/den over the dual vertices (a, den), each linear in
    y and z.  Below lo some vertex has <w, a> < m*den: a certified
    non-member.  From hi on every vertex has <w, a> >= (m + r - 1)*den,
    r = min(n, g), so an optimal basic solution (at most r positive
    coordinates) floors to m generators: a certified member.  A bound past
    bz reads bz + 1: the row has no member (lo; its least one is at most
    bz) or no certificate (hi).

    When m = ceil(lambda*q) and q >= the q* of _stop_exponent, lo == hi on
    every row.  Write w = q*(v+1) - 1 and take a vertex, nu/h up to scale
    with nu a facet normal of Newt(a) and h = h(nu) > 0.
    * If <nu, v+1> <= lambda*h, then <w, nu> <= q*lambda*h - sum(nu) < m*h:
      the vertex certifies a non-member.
    * Otherwise the gap is at least 1/den(lambda), so <w, nu> >=
      q*lambda*h + q/den - sum(nu) >= (m + r - 1)*h as soon as
      q >= den*(sum(nu) + r*h), which q* guarantees.
    So on each vertex the two thresholds coincide, and both bounds are the
    least z that clears every facet inequality."""
    spare = min(len(gens[0]), len(gens)) - 1
    wp = [q * x + q - 1 for x in prefix]
    rows, top = [], bz + 1
    for a, den in duals:
        # <w, a> >= m*den  <=>  c*z >= t - s*y, and u for (m + r - 1)*den
        t = m * den - sum(map(mul, wp, a)) - (q - 1) * (a[-2] + a[-1])
        rows.append((t, t + spare * den, q * a[-2], q * a[-1]))

    def bounds(y):  # a plain loop: this runs about once per row
        lo = hi = 0
        for t, u, s, c in rows:
            sy = s * y
            zt, zu = (-((sy - t) // c), -((sy - u) // c)) if c else (top * (t > sy), top * (u > sy))
            lo, hi = (zt if zt > lo else lo), (zu if zu > hi else hi)
        return min(lo, top), min(hi, top)

    return bounds


def _staircase(least, by: int, bz: int) -> list:
    """The corners (minimal points), by increasing y, of an up-closed set in
    [0, by] x [0, bz], given least(y): the least z of row y in the set, or
    any value past bz if the row has none.  From a corner (y0, z0), first
    (-1, bz + 1), the next lies at the least y > y0 with least(y) < z0,
    found by a gallop, and sits at least(y).  Each row is read once."""
    least = cache(least)
    corners, y0, z0 = [], -1, bz + 1
    while z0 > 0 and (y0 := _least(lambda y: least(y) < z0, y0 + 1, by)) <= by:
        z0 = least(y0)
        corners.append((y0, z0))
    return corners


def _corners(box, row) -> list:
    """The corners (minimal points), sorted, of an up-closed set in N^n,
    n = 2 or 3, whose corners lie in box: row(prefix) is the least function
    of the rows prefix + (y, z) for _staircase.  For n = 3 the slices
    t = 0, 1, .. grow with t up to the limit slice t = box[0], walked first;
    from slice t a gallop on t finds the next slice that differs, whose
    corners outside slice t are new, until the slice equals the limit."""
    by, bz = box[-2:]

    @cache
    def walk(prefix):
        return _staircase(row(prefix), by, bz)

    if len(box) == 2:
        return walk(())
    limit = walk(box[:1])
    cand, t, prev = [], 0, set()
    while True:
        corners = walk((t,))
        cand.extend((t, y, z) for y, z in corners if (y, z) not in prev)
        if corners == limit:
            break
        prev = set(corners)
        t = _least(lambda s: walk((s,)) != corners, t + 1, box[0])
    # sorted by t, then y, and minimal: a corner new at t lies outside
    # slice t - 1, which holds every earlier slice
    return cand


def _certified_root(a: MonomialIdeal, m: int, p: int, e: int) -> MonomialIdeal:
    """(a^m)^[1/p^e] without materializing a^m: v is in the root iff
    q*v + (q-1)*(1,..,1) lies in the exponent set of a^m (q = p^e), an
    up-closed criterion (n = 2 or 3) whose minimal points lie in a box of
    size ~ (m/q) * max exponent.  _corners walks it, each row's least
    member the lo of _row_bounds.  e must be at least
    _stop_exponent(a, lam, p) for a lambda with m = ceil(lam * p^e), where
    lo == hi on every row; below it a row may be left undecided, and that
    raises RuntimeError rather than guess."""
    q, gens, n = p**e, a.gens, a.n
    box = tuple(max(0, -((q - 1 - m * max(u[i] for u in gens)) // q)) for i in range(n))
    duals = _dual_vertices(gens)

    def row(prefix):
        bounds = _row_bounds(gens, duals, q, m, prefix, box[-1])

        def least(y):
            lo, hi = bounds(y)
            if lo != hi:
                raise RuntimeError(
                    f"row {prefix + (y,)} of (a^{m})^[1/{p}^{e}] is undecided for "
                    f"z in [{lo}, {hi}): e is below the stable index"
                )
            return lo

        return least

    return MonomialIdeal._from_valid(n, _corners(box, row))


def _power_root(a: MonomialIdeal, m: int, p: int, e: int) -> MonomialIdeal:
    """(a^m)^[1/p^e]: the componentwise floors of the minimal generators of
    a^m, re-minimalized.  No power is materialized: a principal ideal has a
    closed form, and every other root is read off its certificates by
    _certified_root (e at the stable index, 2 <= n <= 3, at least two
    generators)."""
    if a.is_zero():
        return zero_ideal(a.n) if m > 0 else unit_ideal(a.n)
    if m == 0 or a.is_unit():
        return unit_ideal(a.n)
    if len(a.gens) == 1:
        q = p**e
        return MonomialIdeal(a.n, (tuple((x * m) // q for x in a.gens[0]),))
    return _certified_root(a, m, p, e)


def _stop_exponent(b: MonomialIdeal, lam, p: int) -> int:
    """Smallest e such that the Frobenius-root chain at q = p^e provably
    equals its union.

    The chain member at q is J = (b^cnt)^[1/q] with cnt = ceil(lam*q) <
    lam*q + 1.  Two elementary facts pin the union down at a single finite
    index:

    * every u in J has <nu, u+1> > lam*h(nu) for each supporting direction
      nu >= 0 of Newt(b) with h(nu) = min over generators of <nu, gen>
      (divide the defining inequality of q*u + (q-1)*1 by q);
    * conversely, if u clears every such inequality by at least 1/den(lam)
      -- and any strict rational gap is at least that big -- then rounding
      a real decomposition of q*(u+1) shows q*u + (q-1)*1 really is a sum
      of cnt generators plus slop, once q >= q* = den(lam) * max over nu
      of h(nu) + sum(nu) + (g-1)*<nu, cap>, cap the componentwise maximum
      of the g generators.  The one extra generator of the ceiling costs
      h(nu); the floor-rounding wastes at most (g-1) generators, hence the
      (g-1)*<nu, cap> correction.

    Since <nu, cap> >= h(nu), q* >= den*(sum(nu) + g*h(nu)) for every
    facet normal nu, which is what the proof in _row_bounds needs: from
    q* on, the certificates decide every row of the chain member.

    Consecutive-agreement stopping is NOT sound here: chains exist that
    pause for several steps and then grow (e.g. (y^3, x^3*y) at lambda=3/4,
    p=2 pauses for e in {2,3,4} and picks up x at e=5)."""
    gens = b.gens
    shift = [1 + (len(gens) - 1) * max(col) for col in zip(*gens)]
    worst = max(min(sum(map(mul, nu, u)) for u in gens) + sum(map(mul, nu, shift))
                for nu in b.newton_normals)
    qstar = int(rat(lam).denominator) * max(worst, 1)
    e = 1
    while p**e < qstar:
        e += 1
    return e


def _trivial_tau(a: MonomialIdeal, lam):
    """tau(a^lambda) if lambda = 0 or a is the unit or zero ideal, else None;
    TestIdealError if lambda < 0.  Shared by both routes and the certificate."""
    if lam < 0:
        raise TestIdealError("exponent must be >= 0")
    if lam == 0 or a.is_unit():
        return unit_ideal(a.n)
    if a.is_zero():
        return zero_ideal(a.n)


def test_ideal(a: MonomialIdeal, lam, p: int) -> MonomialIdeal:
    """tau(a^lambda): the union of the increasing chain
    (a^ceil(lambda p^e))^[1/p^e], evaluated at one provably-stable index
    (see _stop_exponent).  At most 3 variables."""
    _check_prime(p)
    lam = rat(lam)
    if (trivial := _trivial_tau(a, lam)) is not None:
        return trivial
    e = _stop_exponent(a, lam, p)
    return _power_root(a, rceil(lam * p**e), p, e)


# ---------------------------------------------------------------------------
# Graded sequences and asymptotic test ideals
# ---------------------------------------------------------------------------


class GradedSequence(NamedTuple):
    """a_m for m >= 1: either powers of a fixed ideal or an explicit table
    (checked for a_m * a_n <= a_{m+n} on all applicable pairs)."""

    kind: str
    base: MonomialIdeal | None = None
    entries: tuple = ()

    @classmethod
    def powers(cls, b: MonomialIdeal) -> "GradedSequence":
        if b.is_zero():
            raise TestIdealError("power sequences of the zero ideal are all zero")
        return cls(kind="powers", base=b)

    @classmethod
    def table(cls, mapping) -> "GradedSequence":
        mapping = dict(mapping)
        bad = [m for m in mapping if type(m) is not int]
        if bad:
            raise TestIdealError(f"table index {bad[0]!r} is not an int")
        rows = tuple(sorted(mapping.items()))
        if not rows:
            raise TestIdealError("empty table")
        if any(m < 1 for m, _ in rows):
            raise TestIdealError("table indices start at 1")
        n = rows[0][1].n
        if any(ideal.n != n for _, ideal in rows):
            raise TestIdealError("table entries must share the variable count")
        if all(ideal.is_zero() for _, ideal in rows):
            raise TestIdealError("some a_m must be nonzero")
        table = dict(rows)
        for m, am in rows:
            for k, ak in rows:
                if m + k in table and not table[m + k].contains(am * ak):
                    raise TestIdealError(
                        f"multiplicativity fails: a_{m} * a_{k} is not "
                        f"inside a_{m + k}"
                    )
        return cls(kind="table", entries=rows)

    def ideal(self, m: int) -> MonomialIdeal:
        if m < 1:
            raise TestIdealError("sequence indices start at 1")
        if self.kind == "powers":
            return self.base**m
        for k, ideal in self.entries:
            if k == m:
                return ideal
        raise TestIdealError(f"the table does not provide a_{m}")

    def member_test_ideal(self, m: int, lam, p: int) -> MonomialIdeal:
        """tau(a_m^{lam}).  A power a_m = b^m is never materialized: by power
        compatibility (Hara-Yoshida, Trans. AMS 2003) tau((b^m)^lam) =
        tau(b^{m*lam})."""
        lam = rat(lam)
        if m < 1:
            raise TestIdealError("sequence indices start at 1")
        if lam < 0:
            raise TestIdealError("exponent must be >= 0")
        if self.kind == "powers":
            return test_ideal(self.base, m * lam, p)
        return test_ideal(self.ideal(m), lam, p)


def asymptotic_test_ideal(seq: GradedSequence, lam, p: int) -> MonomialIdeal:
    """tau(a_.^lambda).  On the powers of b every member tau((b^m)^{lambda/m})
    equals tau(b^lambda) by power compatibility, so that is the result.  A
    table fixes only finitely many members: the result is their sum over
    every tabulated m, the ideal that the table's members generate.  It lies
    inside the asymptotic test ideal of every graded sequence that extends
    the table."""
    _check_prime(p)
    lam = rat(lam)
    if seq.kind == "powers":
        return test_ideal(seq.base, lam, p)
    members = [seq.member_test_ideal(m, lam / m, p) for m, _ in seq.entries]
    return sum(members[1:], members[0])


# ---------------------------------------------------------------------------
# Newton-polyhedron oracle (independent route, n <= 3)
# ---------------------------------------------------------------------------


def _cross3(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _normalize_nonneg(c):
    """Scale/flip an integer vector to have all entries >= 0; None if the
    signs are mixed (such directions never support a Newton polyhedron)."""
    if all(x == 0 for x in c):
        return None
    if all(x <= 0 for x in c):
        c = tuple(-x for x in c)
    if any(x < 0 for x in c):
        return None
    g = gcd(*c)
    return tuple(x // g for x in c)


def newton_normals(a: MonomialIdeal) -> tuple:
    """Supporting directions covering every facet of Newt(a): a.newton_normals."""
    return a.newton_normals


def _newton_row(constraints, prefix, bz: int):
    """least(y) for the row v = prefix + (y, z): the least z with
    <c, v> > r for every (c, r), or bz + 1 if no z will do.  Exact, and in
    integers (integer data, c >= 0)."""
    k, top = len(prefix), bz + 1
    rows = [(r - sum(map(mul, c, prefix)), c[k], c[k + 1]) for c, r in constraints]

    def least(y):
        z = 0
        for t, s, c in rows:  # c*z > t - s*y
            zt = (t - s * y) // c + 1 if c else top * (t >= s * y)
            z = zt if zt > z else z
        return z

    return least


def _newton_constraints(a: MonomialIdeal, lam):
    """(constraints, box): the interior condition as integer rows (c, r),
    u a member iff <c, u> > r for each, with every facet inequality scaled
    by the denominator of lambda once; and a box holding every minimal
    member."""
    num, den = int(lam.numerator), int(lam.denominator)
    constraints = []
    for c in a.newton_normals:
        h = min(sum(ci * gi for ci, gi in zip(c, g)) for g in a.gens)
        # <c, u + 1> > lam * h  <=>  <den*c, u> > num*h - den*sum(c)
        constraints.append((tuple(den * ci for ci in c), num * h - den * sum(c)))
    # a minimal u with u_i > 0 has c_i*(u_i - 1) <= r for some (c, r), c_i > 0
    box = tuple(max((r // c[i] + 1 for c, r in constraints if c[i]), default=0) for i in range(a.n))
    return constraints, box


def newton_test_ideal(a: MonomialIdeal, lam) -> MonomialIdeal:
    """tau(a^lambda) via the interior criterion: exponents u with
    u + (1,..,1) in the interior of lambda * Newt(a), walked by _corners
    on integer data.  Independent of p."""
    if (trivial := _trivial_tau(a, rat(lam))) is not None:
        return trivial
    constraints, box = _newton_constraints(a, rat(lam))
    corners = [box] if a.n == 1 else _corners(
        box, lambda prefix: _newton_row(constraints, prefix, box[-1]))
    return MonomialIdeal._from_valid(a.n, corners)


def newton_certifies(a: MonomialIdeal, lam, tau) -> bool:
    """Whether tau == newton_test_ideal(a, lam), decided without walking:
    tau's generators are sorted and minimal, each meets the interior
    condition, and no outer corner of tau's staircase, capped at the
    Newton box, does.  Padded to (t, y, z) and swept by t, the outer
    corners are (t_0 - 1, cap, cap) and, for each distinct t_j, those of
    the y/z staircase of the generators up to t_j, placed at t_{j+1} - 1
    (the box's t after the last).  They dominate every monomial of the box
    outside tau, so tau holds every minimal member.  Linear work in the
    generators plus the slice staircases."""
    if (trivial := _trivial_tau(a, rat(lam))) is not None:
        return trivial == tau
    constraints, box = _newton_constraints(a, rat(lam))
    pad = (0,) * (3 - a.n)
    rows = [pad + c + (r,) for c, r in constraints]
    bt, by, bz = pad + box

    def interior(t, y, z) -> bool:
        for ct, cy, cz, r in rows:
            if ct * t + cy * y + cz * z <= r:
                return False
        return True

    if type(tau) is not MonomialIdeal or tau.n != a.n or not tau.gens:
        return False  # the box itself is a member, so tau is not zero
    gens = [pad + g for g in tau.gens]
    if not all(map(tuple.__lt__, gens, gens[1:])):
        return False
    outer = [(gens[0][0] - 1, by, bz)]
    ys, zs = [], []  # the staircase so far: ys ascending, zs descending
    for (t, y, z), nxt in zip(gens, gens[1:] + [None]):
        i = bisect.bisect_right(ys, y)
        if (i and zs[i - 1] <= z) or not interior(t, y, z):
            return False  # an earlier generator divides it, or no member
        j = i
        while j < len(ys) and zs[j] >= z:
            j += 1
        ys[i:j], zs[i:j] = [y], [z]
        if nxt is None or nxt[0] > t:  # slices t to u all equal this staircase
            u = bt if nxt is None else nxt[0] - 1
            outer.append((u, ys[0] - 1, bz))
            outer.extend((u, ys[k + 1] - 1, zs[k] - 1) for k in range(len(ys) - 1))
            outer.append((u, by, zs[-1] - 1))
    return not any(min(v) >= 0 and interior(*v) for v in outer)
