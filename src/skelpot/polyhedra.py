"""Rational polyhedra in generator (V-) representation.

A polyhedron is conv(points) + cone(rays) with at least one point.  That is
the natural form for polyhedral complexes built from fans and skeletons.
The predicates run on the int generators of the cone over the polyhedron,
its cached property cone_gens: a point p becomes (X, Y, W), its numerators
over their least common denominator W, and a ray its primitive int vector
with 0 appended.  A point u lies in the polyhedron when its own (X, Y, W)
lies in that cone, and by Caratheodory's theorem some linearly independent
subset of at most three generators then carries it, which Cramer's rule
decides.  Dimension is decided by cross products.  Rat appears only at the
boundary: in the generators and in each facet's right-hand side.  For the
2-dimensional case there is a full facet (H-) representation, read off the
convex hull of the generators, with hull and hull-area tools, and one
clipping kernel: a cell's counterclockwise ring of points and rays cut by
halfplanes (Sutherland-Hodgman), which the SVG layer uses to cut its box by
a cell and toric to intersect two cells.  The ring is homogeneous and the
kernel divides nothing, so an integer ring stays integer; the hull scales
its points to one common denominator and runs on int as well.
inequalities extends the facets to pieces of dimension 0 and 1 (both sides
of their line, and caps at bounded ends), so the same kernel cuts the box
by every piece.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, cmp_to_key

from .rat import Frozen, Rat, rat, dot, vec_sub, primitive, cramer, cross2

ZERO = Rat(0)


class Polyhedron(Frozen):
    """conv(gen_points) + cone(gen_rays); gen_points is never empty."""

    _fields = ("gen_points", "gen_rays")

    def __init__(self, gen_points, gen_rays=()):
        pts = tuple(tuple(rat(x) for x in p) for p in gen_points)
        rays = tuple(tuple(rat(x) for x in r) for r in gen_rays)
        if not pts:
            raise ValueError("a polyhedron needs at least one generator point")
        d = len(pts[0])
        if any(len(p) != d for p in pts) or any(len(r) != d for r in rays):
            raise ValueError("mixed ambient dimensions")
        if any(all(x == 0 for x in r) for r in rays):
            raise ValueError("zero vector is not a valid ray")
        object.__setattr__(self, "gen_points", pts)
        object.__setattr__(self, "gen_rays", rays)

    @property
    def ambient_dim(self) -> int:
        return len(self.gen_points[0])

    @cached_property
    def cone_gens(self) -> tuple:
        """The int generators of the cone over the polyhedron:
        homogeneous(p) for each point and the primitive int vector of each
        ray with 0 appended, in generator order."""
        return tuple(map(homogeneous, self.gen_points)) + tuple(
            primitive(r) + (0,) for r in self.gen_rays
        )

    def translate(self, v):
        v = tuple(rat(x) for x in v)
        return Polyhedron(
            tuple(tuple(a + b for a, b in zip(p, v)) for p in self.gen_points),
            self.gen_rays,
        )


def homogeneous(p) -> tuple:
    """(X, Y, W) for a rational point p: its numerators over their least
    common denominator W > 0, a primitive int vector (in any dimension)."""
    w = math.lcm(*(int(x.denominator) for x in p))
    return tuple(int(x.numerator) * (w // int(x.denominator)) for x in p) + (w,)


def _split(poly: Polyhedron):
    """poly.cone_gens as its point generators and its primitive rays."""
    gens = poly.cone_gens
    k = len(poly.gen_points)
    return gens[:k], [g[:-1] for g in gens[k:]]


def _cone_contains(r, gens) -> bool:
    """Is r a nonnegative combination of gens?  Vectors have at most 3
    coordinates.  By Caratheodory's theorem some linearly independent
    subset of gens carries r if any combination does; each subset is solved
    by Cramer's rule on a nonsingular minor, then checked on every
    coordinate.  Coefficients are kept as numerators over the minor, so
    nothing is divided, and int vectors stay in int."""
    k = len(r)
    if not any(r):
        return True
    for size in range(1, min(k, len(gens)) + 1):
        for sub in itertools.combinations(gens, size):
            det, nums = cramer(sub, r)
            if det != 0 and all(a * det >= 0 for a in nums) and all(
                sum(a * g[i] for a, g in zip(nums, sub)) == det * r[i] for i in range(k)
            ):
                return True
    return False


def poly_contains(poly: Polyhedron, u) -> bool:
    """Exact membership: is u = sum a_i p_i + sum t_j r_j with a in the
    simplex and t >= 0?  Ambient dimension at most 2.  Decided as
    homogeneous(u) in the cone of poly.cone_gens."""
    u = tuple(rat(x) for x in u)
    d = poly.ambient_dim
    if len(u) != d:
        raise ValueError("point dimension mismatch")
    if d > 2:
        raise ValueError("membership is decided in ambient dimension at most 2")
    return _cone_contains(homogeneous(u), poly.cone_gens)


def recession(poly: Polyhedron) -> Polyhedron:
    """Recession cone, presented with the origin as its single point."""
    d = poly.ambient_dim
    return Polyhedron(((ZERO,) * d,), poly.gen_rays)


def poly_dim(poly: Polyhedron) -> int:
    """Dimension of the affine hull, in ambient dimension at most 2: the
    number of independent directions among the rays and W0*p - W*p0 from
    the first point to the others, on their (X, W), decided by cross2."""
    if poly.ambient_dim > 2:
        raise ValueError("dimension is decided in ambient dimension at most 2")
    pts, rays = _split(poly)
    *p0, w0 = pts[0]
    dirs = [tuple(w0 * x - g[-1] * x0 for x, x0 in zip(g, p0)) for g in pts[1:]] + rays
    dirs = [v for v in dirs if any(v)]
    if not dirs:
        return 0
    if poly.ambient_dim == 2 and any(cross2(dirs[0], v) != 0 for v in dirs[1:]):
        return 2
    return 1


def poly_is_subset(a: Polyhedron, b: Polyhedron) -> bool:
    """a subset of b, via generators: points of a in b, rays of a in rec(b)."""
    rb = recession(b)
    return all(poly_contains(b, p) for p in a.gen_points) and all(
        poly_contains(rb, r) for r in a.gen_rays
    )


def poly_equal(a: Polyhedron, b: Polyhedron) -> bool:
    return poly_is_subset(a, b) and poly_is_subset(b, a)


def minimalize(poly: Polyhedron) -> Polyhedron:
    """Drop redundant generators (points inside the hull of the others,
    rays inside the cone of the others).  Canonically sorted output.

    Each generator is tested against the ones kept so far and the ones not
    yet visited, never against one already dropped, so the polyhedron never
    changes.  (Against all the others, two points of a polyhedron that
    contains a line could each lie in the other plus the line, and both
    would go.)  Redundancy is decided on cone_gens, and the generators kept
    are seeded as the result's cone_gens, the one write to a cached
    property from outside its class (rat.Frozen)."""
    gens, rays = _split(poly)
    pts = sorted((p, g) for g, p in dict(zip(gens, poly.gen_points)).items())
    rays = sorted(set(rays))
    keep_r = []
    for i, r in enumerate(rays):
        others = keep_r + rays[i + 1 :]
        if not others or not _cone_contains(r, others):
            keep_r.append(r)
    lifted = [r + (0,) for r in keep_r]
    keep_p = []
    for i, (p, g) in enumerate(pts):
        others = [h for _, h in keep_p + pts[i + 1 :]]
        if others and poly.ambient_dim > 2:
            raise ValueError("membership is decided in ambient dimension at most 2")
        if not others or not _cone_contains(g, others + lifted):
            keep_p.append((p, g))
    out = Polyhedron(tuple(p for p, _ in keep_p), tuple(keep_r))
    out.__dict__["cone_gens"] = tuple(g for _, g in keep_p) + tuple(lifted)
    return out


def is_pointed(poly: Polyhedron) -> bool:
    """True when poly contains no line: no ray r has -r in the cone of the
    rays."""
    rays = _split(poly)[1]
    return not any(_cone_contains(tuple(-x for x in r), rays) for r in rays)


# ---------------------------------------------------------------------------
# 2-dimensional H-representation and hulls
# ---------------------------------------------------------------------------


def halfplanes(poly: Polyhedron) -> tuple:
    """Facet inequalities (n, c) meaning <n, x> <= c, for a 2-dimensional
    polyhedron in the plane.  Normals are primitive integer vectors.

    The facets are read off the convex hull of the points and of each point
    moved along each ray: a hull edge is a facet exactly when no ray
    increases its outward normal.  (A facet spanned by a point p and a ray r
    shows up as the hull edge from p to p + r.)  The hull runs on L*p and
    L*(p + r), L the points' common denominator; c = <n, a>/L at vertex a.
    """
    if poly.ambient_dim != 2:
        raise ValueError("halfplanes is 2-dimensional only")
    if poly_dim(poly) != 2:
        raise ValueError("halfplanes needs a full-dimensional cell")
    gens, rays = _split(poly)
    L = math.lcm(*(g[2] for g in gens))
    pts = [(x * (L // w), y * (L // w)) for x, y, w in gens]
    hull = _hull_keys(set(pts) | {(x + L * r[0], y + L * r[1]) for x, y in pts for r in rays})
    out = []
    for a, b in zip(hull, hull[1:] + hull[:1]):
        # the hull runs counterclockwise, so the outward normal points right
        n = primitive((b[1] - a[1], a[0] - b[0]))
        if all(n[0] * r[0] + n[1] * r[1] <= 0 for r in rays):
            out.append((n, Rat(n[0] * a[0] + n[1] * a[1], L)))
    return tuple(sorted(out))


def inequalities(poly: Polyhedron) -> tuple:
    """Rows (n, c) meaning <n, x> <= c whose solutions are exactly poly, a
    planar polyhedron of any dimension.  A 2-dimensional one gets its
    facets.  A lower-dimensional piece lies on the line through its first
    point along its primitive direction d, taken as (1, 0) for a point: it
    gets both sides of that line, and at each end that no ray leaves a cap
    <±d, x> <= max <±d, p> over its points.  A point thus gets the x- and
    y-lines through it."""
    if poly.ambient_dim != 2:
        raise ValueError("inequalities is 2-dimensional only")
    if poly_dim(poly) == 2:
        return halfplanes(poly)
    pts, rays = poly.gen_points, poly.gen_rays
    p0 = pts[0]
    dirs = [v for v in (vec_sub(p, p0) for p in pts[1:]) if any(v)] + list(rays)
    d = primitive(dirs[0]) if dirs else (1, 0)
    n = (-d[1], d[0])
    c = dot(n, p0)
    out = [(n, c), ((d[1], -d[0]), -c)]
    along = [dot(d, p) for p in pts]
    if all(dot(d, r) < 0 for r in rays):
        out.append((d, max(along)))
    if all(dot(d, r) > 0 for r in rays):
        out.append(((-d[0], -d[1]), -min(along)))
    return tuple(out)


def holds_at(hps, g) -> bool:
    """Does every <n, x> <= c of hps hold at the point g = (X, Y, W),
    W > 0?  Tested as c.den*<n, (X, Y)> <= c.num*W, in int on int rows."""
    x, y, w = g
    return all(c.denominator * (n[0] * x + n[1] * y) <= c.numerator * w for n, c in hps)


def interior_point(poly: Polyhedron):
    """Mean of the points plus sum of the rays: inside a 2-dimensional
    polyhedron, as a strictly positive combination of all its generators."""
    pts, rays = poly.gen_points, poly.gen_rays
    return tuple(sum(p[k] for p in pts) / len(pts) + sum(r[k] for r in rays) for k in (0, 1))


def angle_order(a, b) -> int:
    """Compare directions by exact angle in [0, 2 pi): the half-plane first,
    then the sign of cross2."""
    ha, hb = (0 if d[1] > 0 or (d[1] == 0 and d[0] > 0) else 1 for d in (a, b))
    c = cross2(a, b)
    return ha - hb or (c < 0) - (c > 0)


def cell_ring(poly: Polyhedron) -> list:
    """Generators (x, y, w) of a minimalized pointed 2-dimensional polyhedron,
    points with w = 1 and rays with w = 0, counterclockwise: sorted by the
    angle at which an interior point u sees them, p - u for p and r for r."""
    u = interior_point(poly)
    seen = [((p[0] - u[0], p[1] - u[1]), (p[0], p[1], 1)) for p in poly.gen_points]
    seen += [(r, (r[0], r[1], 0)) for r in poly.gen_rays]
    return [g for _, g in sorted(seen, key=cmp_to_key(lambda a, b: angle_order(a[0], b[0])))]


def clip_ring(ring, hps):
    """Sutherland-Hodgman clipping (Commun. ACM 1974) of a counterclockwise
    ring of homogeneous generators (x, y, w), the point (x/w, y/w) when
    w > 0 and the ray (x, y) when w = 0, by each halfplane <n, x> <= c in
    turn: keep the generators with side c.den*<n, (x, y)> - c.num*w <= 0
    and the crossing on each ring edge that changes side.  Nothing is
    divided.  Two points, or two rays, with sides s and t cross at
    sign(s - t)*(s*q - t*p), so w > 0 or the ray keeps its direction; a
    point a and a ray r at sign(s_r)*(s_r*a - s_a*r), and a ray parallel to
    the line (s_r = 0) is kept as itself.  On int data every crossing is
    divided by its gcd, so ints stay small ints.  None when no point is
    left: two disjoint half-strips still share a ray."""
    for n, c in hps:
        cn, cd = c.numerator, c.denominator
        side = [cd * (n[0] * g[0] + n[1] * g[1]) - cn * g[2] for g in ring]
        cut = []
        for k, (q, t) in enumerate(zip(ring, side)):
            p, s = ring[k - 1], side[k - 1]
            if (s <= 0) != (t <= 0):
                # the crossing u*a - v*b; for a point and a ray, u is the ray's side
                u, a, v, b = (t, p, s, q) if p[2] and not q[2] else (s, q, t, p)
                if u != 0:  # else the crossing is b, which is kept
                    u, v = (u, v) if u > 0 else (-u, -v)
                    cut.append(_reduced(*(u * x - v * y for x, y in zip(a, b))))
            if t <= 0:
                cut.append(q)
        if not any(g[2] for g in cut):
            return None
        ring = cut
    return ring


def _reduced(x, y, w):
    """(x, y, w) divided by its gcd when all three are int."""
    if type(x) is type(y) is type(w) is int:
        g = math.gcd(x, y, w)
        return (x // g, y // g, w // g)
    return (x, y, w)


def over_common_denominator(points):
    """(L, [(X, Y), ...]): the least common denominator L of the
    coordinates of the rational points, and each point as int numerators
    over it, in order."""
    L = math.lcm(*(x.denominator for p in points for x in p))
    return L, [(int(x.numerator) * (L // int(x.denominator)),
                int(y.numerator) * (L // int(y.denominator))) for x, y in points]


def _chain(keys) -> list:
    """One monotone chain of Andrew's algorithm over int points: pop while
    the last two kept and the new point fail to turn left."""
    out = []
    for k in keys:
        while len(out) >= 2:
            a, b = out[-2], out[-1]
            if (b[0] - a[0]) * (k[1] - a[1]) - (b[1] - a[1]) * (k[0] - a[0]) > 0:
                break
            out.pop()
        out.append(k)
    return out


def _hull_keys(keys) -> list:
    """Andrew's monotone chain on a set of int points: the hull vertices in
    counterclockwise order, collinear points pruned."""
    keys = sorted(keys)
    if len(keys) <= 2:
        return keys
    return _chain(keys)[:-1] + _chain(reversed(keys))[:-1]


def convex_hull_2d(points) -> list:
    """Andrew's monotone chain; returns hull vertices in counterclockwise
    order (collinear points pruned), as Rat pairs.  The points are scaled
    to one common denominator, so sorting and cross products run on int."""
    pts = list({(rat(p[0]), rat(p[1])) for p in points})
    point_of = dict(zip(over_common_denominator(pts)[1], pts))
    return [point_of[k] for k in _hull_keys(point_of)]


def hull_area_2d(points) -> Rat:
    """Area of conv(points), exact (shoelace on the hull)."""
    hull = convex_hull_2d(points)
    if len(hull) < 3:
        return ZERO
    s = ZERO
    for i in range(len(hull)):
        x1, y1 = hull[i]
        x2, y2 = hull[(i + 1) % len(hull)]
        s += x1 * y2 - x2 * y1
    return s / 2
