"""The Newton-polyhedron test ideal by slicing every t, kept as a test oracle.

skelpot lists the minimal points of the interior criterion
u + (1,..,1) in int(lambda * Newt(a)) with the same corner walker as the
chain route (`testideals._corners`): exact least points of each row, a
gallop from corner to corner and a gallop on t from slice to slice.
`slice_mingens` takes the older route: it recurses on the last
coordinates for every t = 0, 1, .. until the slice equals the limit slice,
then minimalizes what it collected.  `newton_by_slices` builds the same
integer constraints as `newton_test_ideal` and hands them to it.  The
tests check the walker's Newton route against both.
"""

from __future__ import annotations

from skelpot.rat import rat
from skelpot.testideals import MonomialIdeal, _antichain, newton_normals


def slice_mingens(constraints, dim):
    """Minimal integer points u >= 0 with <c, u> > r for every (c, r); the
    constraint data is integer (c >= 0), so only int // and - are used.
    Returns a tuple of tuples, or () when no point satisfies the system
    (the zero ideal)."""
    if dim == 1:
        z = 0
        for c, r in constraints:
            if c[0] == 0:
                if not (0 > r):
                    return ()
            else:
                z = max(z, r // c[0] + 1)
        return ((z,),)
    # limit slice: constraints that survive u_1 -> infinity
    limit = [(c[1:], r) for c, r in constraints if c[0] == 0]
    limit_gens = slice_mingens(limit, dim - 1)
    # bound beyond which every dropped constraint is strictly slack
    t_star = 0
    for c, r in constraints:
        if c[0] > 0:
            t_star = max(t_star, r // c[0] + 1)
    gens = []
    for t in range(t_star + 2):
        sliced = [(c[1:], r - c[0] * t) for c, r in constraints]
        sub = slice_mingens(sliced, dim - 1)
        gens.extend((t,) + v for v in sub)
        if sub == limit_gens:
            break
    return _antichain(gens)


def newton_by_slices(a: MonomialIdeal, lam) -> MonomialIdeal:
    """tau(a^lambda) for a proper nonzero ideal a and lambda > 0, by the
    interior criterion with every facet inequality scaled by the
    denominator of lambda, minimal points by slice_mingens."""
    lam = rat(lam)
    num, den = int(lam.numerator), int(lam.denominator)
    constraints = []
    for c in newton_normals(a):
        h = min(sum(ci * gi for ci, gi in zip(c, g)) for g in a.gens)
        # <c, u + 1> > lam * h  <=>  <den*c, u> > num*h - den*sum(c)
        constraints.append((tuple(den * ci for ci in c), num * h - den * sum(c)))
    return MonomialIdeal(a.n, slice_mingens(constraints, a.n))
