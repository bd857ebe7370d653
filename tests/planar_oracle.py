"""General-purpose planar routines kept as test oracles.

skelpot decides the dimension of a planar polyhedron with cross products,
reads its facets off a convex hull, and intersects cells by clipping one
cell's ring of generators by the other's facets.  The routines here take
the older, general route: rank by Gaussian elimination, facets by trying
every normal that a pair of generators suggests, and the generators of a
set of halfplanes by trying every pair of lines.  A point, segment or ray
is clipped to a box parametrically, by shrinking an interval of its line.
The convex hull here runs Andrew's chain on Fraction keys and cross
products; skelpot scales the points to one common denominator and runs it
on int.  The fraction_* routines are the former bodies of the planar
predicates (membership, dimension, pointedness, minimalize, facets and
their keys, the simplicial flags, decompose and retraction) and of the
PL-function checks (continuity across paired facets, the active piece of
a support function on a cell, concavity with its witness), which summed
and divided Fractions; skelpot now decides them on the int generators of
the cone over each polyhedron, against int rows of the pieces.

skelpot validates a complex from local data (paired facets, vertex links,
one sheet), walks only the paired facets for continuity and concavity, and
reads the skeleton off the same facet table.  The routines here take the
pairwise route: intersect every pair of cells (meet), require each
intersection to be a common face of both and no two cells to overlap in
dimension 2, check functions on every nonempty intersection, keep the
bounded faces that no other one contains, and find owners by polyhedral
inclusion.  The tests check the fitted routines against them.
"""

from __future__ import annotations

import itertools
import math
import weakref

from skelpot.polyhedra import (
    Polyhedron,
    halfplanes,
    holds_at,
    homogeneous,
    minimalize,
    poly_contains,
    poly_dim,
    poly_equal,
    poly_is_subset,
    recession,
)
from skelpot.rat import Rat, cramer, cross2, det3, dot, primitive, rfloor, vec_sub
from skelpot.rat import rat
from skelpot.toric import (
    ComplexInvalid,
    PolyComplex,
    SimplicialFlag,
    ToricError,
    ToricPLFunction,
    retraction_affine,
)

ZERO = Rat(0)
ONE = Rat(1)


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_scale(t, u):
    t = Rat(t)
    return tuple(t * a for a in u)


def matrix_rank(rows) -> int:
    """Exact rank of a list of rational row vectors."""
    work = [list(map(Rat, row)) for row in rows if any(Rat(x) != 0 for x in row)]
    rank = 0
    ncols = len(work[0]) if work else 0
    col = 0
    while work and col < ncols and rank < len(work):
        piv = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        work[rank], work[piv] = work[piv], work[rank]
        prow = work[rank]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                f = work[r][col] / prow[col]
                work[r] = [x - f * y for x, y in zip(work[r], prow)]
        rank += 1
        col += 1
    return rank


def poly_dim_by_rank(poly) -> int:
    p0 = poly.gen_points[0]
    rows = [vec_sub(p, p0) for p in poly.gen_points[1:]] + list(poly.gen_rays)
    return matrix_rank(rows)


def halfplanes_by_normals(poly) -> tuple:
    """Facet inequalities (n, c), <n, x> <= c, of a 2-dimensional polyhedron
    in the plane, with primitive integer normals.

    Candidate normals come from pairing generators: each facet of a 2-poly
    is spanned by a direction that is either (q - p) for generators p, q or
    a ray direction.  Rotating candidates by 90 degrees and keeping those
    valid and tight on two independent generators yields exactly the facets.
    """
    if poly.ambient_dim != 2:
        raise ValueError("halfplanes is 2-dimensional only")
    if poly_dim_by_rank(poly) != 2:
        raise ValueError("halfplanes needs a full-dimensional cell")
    pts, rays = tuple(sorted(set(poly.gen_points))), poly.gen_rays
    dirs = []
    for p, q in itertools.combinations(pts, 2):
        d = vec_sub(q, p)
        if any(x != 0 for x in d):
            dirs.append(d)
    dirs.extend(rays)
    out = {}
    for d in dirs:
        n = (-d[1], d[0])
        for normal in (n, (-n[0], -n[1])):
            # valid side: all generators satisfy <normal, x> <= c with
            # c = max over points, and rays must not increase the form
            if any(dot(normal, r) > 0 for r in rays):
                continue
            c = max(dot(normal, p) for p in pts)
            tight_pts = [p for p in pts if dot(normal, p) == c]
            tight_rays = [r for r in rays if dot(normal, r) == 0]
            # a facet of a 2-poly is 1-dimensional: needs two independent
            # tight generators
            if len(tight_pts) + len(tight_rays) < 2:
                continue
            if len(tight_pts) == 1 and not tight_rays:
                continue
            key = primitive(normal)
            scale = Rat(key[0], normal[0]) if normal[0] else Rat(key[1], normal[1])
            out[key] = c * scale
    return tuple(sorted((n, c) for n, c in out.items()))


def vrep_from_halfplanes(hps) -> Polyhedron | None:
    """Generators of {x : <n_i, x> <= c_i} in the plane, canonically sorted.

    Returns None when the region is empty, raises when it is not pointed
    (contains a line) since such cells never occur in valid complexes.

    The output is already minimal, so it needs no minimalize: every vertex
    kept lies in the region on two tight lines with independent normals, so
    it is extreme, and every ray kept is a primitive direction on the
    boundary of a pointed recession cone, so it is an extreme ray.
    """
    hps = [((rat(n[0]), rat(n[1])), rat(c)) for n, c in hps]
    verts = set()
    for (n1, c1), (n2, c2) in itertools.combinations(hps, 2):
        det = cross2(n1, n2)
        if det == 0:
            continue
        x = (c1 * n2[1] - c2 * n1[1]) / det
        y = (n1[0] * c2 - n2[0] * c1) / det
        if halfplane_contains(hps, (x, y)):
            verts.add((x, y))
    rays = set()
    for n, _ in hps:
        for d in ((-n[1], n[0]), (n[1], -n[0])):
            if all(dot(m, d) <= 0 for m, _ in hps):
                rays.add(primitive(d))
    for r in list(rays):
        if (-r[0], -r[1]) in rays:
            raise ValueError("region is not pointed (contains a line)")
    if not verts:
        # Parallel normals put a line into the rays above, so here some two
        # normals are independent and a nonempty region has a vertex.
        if any(cross2(n1, n2) != 0 for (n1, _), (n2, _) in itertools.combinations(hps, 2)):
            return None
        raise ValueError("region is not pointed (no vertex)")
    return Polyhedron(tuple(sorted(verts)), tuple(sorted(rays)))


def convex_hull_2d(points) -> list:
    """Andrew's monotone chain on exact rationals; returns hull vertices in
    counterclockwise order (collinear points pruned)."""
    pts = sorted({(rat(p[0]), rat(p[1])) for p in points})
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and cross2(vec_sub(lower[-1], lower[-2]), vec_sub(p, lower[-2])) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross2(vec_sub(upper[-1], upper[-2]), vec_sub(p, upper[-2])) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


# ---------------------------------------------------------------------------
# The Fraction bodies of the planar predicates
# ---------------------------------------------------------------------------


def fraction_primitive(v) -> tuple:
    """Scale a nonzero rational vector to coprime integers, first nonzero > 0
    not enforced; direction is preserved exactly."""
    v = tuple(Rat(x) for x in v)
    if all(x == 0 for x in v):
        raise ValueError("zero vector has no primitive representative")
    den = 1
    for x in v:
        den = den * x.denominator // math.gcd(den, int(x.denominator))
    ints = [int(x.numerator) * (den // int(x.denominator)) for x in v]
    g = 0
    for n in ints:
        g = math.gcd(g, n)
    return tuple(n // g for n in ints)


def fraction_cone_contains(r, gens) -> bool:
    """Is r a nonnegative combination of gens?  Cramer's rule on every
    linearly independent subset of at most len(r) of them, summed from Rat
    zero."""
    k = len(r)
    if all(x == 0 for x in r):
        return True
    for size in range(1, min(k, len(gens)) + 1):
        for sub in itertools.combinations(gens, size):
            det, nums = cramer(sub, r)
            if det != 0 and all(a * det >= 0 for a in nums) and all(
                sum((a * g[i] for a, g in zip(nums, sub)), start=ZERO) == det * r[i]
                for i in range(k)
            ):
                return True
    return False


def fraction_poly_contains(poly: Polyhedron, u) -> bool:
    """(u, 1) in the cone over the Rat generators (p, 1) and (r, 0)."""
    u = tuple(rat(x) for x in u)
    d = poly.ambient_dim
    if len(u) != d:
        raise ValueError("point dimension mismatch")
    if d > 2:
        raise ValueError("membership is decided in ambient dimension at most 2")
    gens = [p + (ONE,) for p in poly.gen_points] + [r + (ZERO,) for r in poly.gen_rays]
    return fraction_cone_contains(u + (ONE,), gens)


def fraction_poly_dim(poly: Polyhedron) -> int:
    """Cross products of the Rat directions p - p0 and of the rays."""
    if poly.ambient_dim > 2:
        raise ValueError("dimension is decided in ambient dimension at most 2")
    p0 = poly.gen_points[0]
    dirs = [vec_sub(p, p0) for p in poly.gen_points[1:]] + list(poly.gen_rays)
    dirs = [v for v in dirs if any(x != 0 for x in v)]
    if not dirs:
        return 0
    if poly.ambient_dim == 2 and any(cross2(dirs[0], v) != 0 for v in dirs[1:]):
        return 2
    return 1


def fraction_minimalize(poly: Polyhedron) -> Polyhedron:
    """Each generator against the kept ones and the ones not yet visited,
    a point through a new Polyhedron of the others."""
    pts = sorted(set(poly.gen_points))
    rays = sorted({fraction_primitive(r) for r in poly.gen_rays})
    keep_r = []
    for i, r in enumerate(rays):
        others = keep_r + rays[i + 1 :]
        if not others or not fraction_cone_contains(r, others):
            keep_r.append(r)
    keep_p = []
    for i, p in enumerate(pts):
        others = keep_p + pts[i + 1 :]
        if not others or not fraction_poly_contains(Polyhedron(tuple(others), tuple(keep_r)), p):
            keep_p.append(p)
    return Polyhedron(tuple(keep_p), tuple(keep_r))


def fraction_is_pointed(poly: Polyhedron) -> bool:
    rays = poly.gen_rays
    return not any(fraction_cone_contains(tuple(-x for x in r), rays) for r in rays)


def fraction_halfplanes(poly: Polyhedron) -> tuple:
    """The facets off the Fraction hull of the points and of each p + r."""
    if poly.ambient_dim != 2:
        raise ValueError("halfplanes is 2-dimensional only")
    if fraction_poly_dim(poly) != 2:
        raise ValueError("halfplanes needs a full-dimensional cell")
    pts, rays = poly.gen_points, poly.gen_rays
    hull = convex_hull_2d(pts + tuple(vec_add(p, r) for p in pts for r in rays))
    out = []
    for a, b in zip(hull, hull[1:] + hull[:1]):
        n = fraction_primitive((b[1] - a[1], a[0] - b[0]))
        if all(dot(n, r) <= 0 for r in rays):
            out.append((n, dot(n, a)))
    return tuple(sorted(out))


def halfplane_contains(hps, u) -> bool:
    """Does the point u satisfy every <n, x> <= c of hps?  Tested in int
    at homogeneous(u); skelpot calls holds_at on cone generators."""
    return holds_at(hps, homogeneous(u))


def fraction_halfplane_contains(hps, u) -> bool:
    return all(dot(n, u) <= c for n, c in hps)


def fraction_cell_flags(cell: Polyhedron):
    gens = [fraction_primitive((p[0], p[1], ONE)) for p in cell.gen_points]
    gens += [fraction_primitive((r[0], r[1], ZERO)) for r in cell.gen_rays]
    if len(gens) != 3:
        return False, False
    d = det3(*gens)
    return d != 0, abs(d) == 1


def fraction_facets(pc: PolyComplex, i: int):
    """Facets of cell i as canonical keys with their V-data, by Rat dot
    products against the Fraction facets."""
    cell = pc.cells[i]
    out = []
    for n, c in fraction_halfplanes(cell):
        pts = tuple(sorted(p for p in cell.gen_points if dot(n, p) == c))
        rays = tuple(sorted(fraction_primitive(r) for r in cell.gen_rays if dot(n, r) == 0))
        out.append(((pts, rays), (n, c)))
    return out


def fraction_minimal_decompose(cell: Polyhedron, u):
    pts, rays = cell.gen_points, cell.gen_rays
    cols = [(p[0], p[1], ONE) for p in pts] + [(r[0], r[1], ZERO) for r in rays]
    if len(cols) > 3:
        raise ToricError("cell is not simplicial")
    target = (u[0], u[1], ONE)
    d, nums = cramer(cols, target)
    if d == 0:
        raise ToricError("cell is not simplicial: singular system")
    if any(
        sum((x * col[i] for x, col in zip(nums, cols)), start=ZERO) != d * target[i]
        for i in range(3)
    ):
        raise ToricError("point is outside the cell")
    sol = [x / d for x in nums]
    a = tuple(sol[: len(pts)])
    lam = tuple(sol[len(pts):])
    if any(x < 0 for x in a) or any(x < 0 for x in lam):
        raise ToricError("point is outside the cell")
    return a, lam


def fraction_decompose(cell: Polyhedron, u):
    return fraction_minimal_decompose(fraction_minimalize(cell), tuple(rat(x) for x in u))


def fraction_retraction(pc: PolyComplex, u) -> tuple:
    """The point part of the Fraction decomposition in every cell whose
    Fraction facets hold at u."""
    u = tuple(rat(x) for x in u)
    owners = [
        i for i in range(len(pc.cells)) if fraction_halfplane_contains(fraction_halfplanes(pc.cells[i]), u)
    ]
    if not owners:
        raise ToricError(f"no cell contains {u}; the complex is not complete")
    results = []
    for i in owners:
        cell = pc.cells[i]
        a, _ = fraction_minimal_decompose(cell, u)
        pt = (
            sum((ai * p[0] for ai, p in zip(a, cell.gen_points)), start=ZERO),
            sum((ai * p[1] for ai, p in zip(a, cell.gen_points)), start=ZERO),
        )
        results.append(pt)
    first = results[0]
    if any(r != first for r in results[1:]):
        raise ToricError(f"retraction of {u} differs between containing cells")
    return first


def fraction_check_continuity(f) -> None:
    """Rat dot products of each paired facet's points and rays with the
    difference of the two pieces."""
    for i, j, (pts, rays) in f.complex.facet_pairs:
        (gi, ci), (gj, cj) = f.pieces[i], f.pieces[j]
        dg = (gi[0] - gj[0], gi[1] - gj[1])
        dc = ci - cj
        if any(dot(dg, p) + dc != 0 for p in pts) or any(
            dot(dg, r) != 0 for r in rays
        ):
            raise ToricError(
                f"pieces of cells {i} and {j} disagree on their shared face"
            )


def fraction_active_piece(psi, cell):
    """The first piece of psi that every piece dominates at the cell's Rat
    points and along its Rat rays."""
    for m, c in psi.pieces:
        ok = True
        for m2, c2 in psi.pieces:
            dg = (m2[0] - m[0], m2[1] - m[1])
            dc = c2 - c
            if any(dot(dg, p) + dc < 0 for p in cell.gen_points) or any(
                dot(dg, r) < 0 for r in cell.gen_rays
            ):
                ok = False
                break
        if ok:
            return (m, c)
    return None


def fraction_is_concave(h):
    """is_concave over the paired facets, by Rat dot products on the points
    and rays of cell j."""
    cells = h.complex.cells
    for i, j, _ in h.complex.facet_pairs:
        (gi, ci), (gj, cj) = h.pieces[i], h.pieces[j]
        dg = (gi[0] - gj[0], gi[1] - gj[1])
        dc = ci - cj
        # need dg.x + dc >= 0 on all of cell j
        for p in cells[j].gen_points:
            if dot(dg, p) + dc < 0:
                return False, {"facet": (i, j), "point": p}
        p0 = cells[j].gen_points[0]
        base = dot(dg, p0) + dc
        for r in cells[j].gen_rays:
            slope = dot(dg, r)
            if slope < 0:
                k = rfloor(base / (-slope)) + 1
                witness = (p0[0] + k * r[0], p0[1] + k * r[1])
                return False, {"facet": (i, j), "point": witness}
    return True, None


def box(b) -> Polyhedron:
    """The box [-b, b]^2."""
    return Polyhedron(((-b, -b), (b, -b), (b, b), (-b, b)))


def clip_thin(poly: Polyhedron, plane):
    """Clip a point / segment / half-line / line to the box [-b, b]^2 of an
    svg plane, b = plane.b.

    Parametric: write the piece as base + t*d and shrink the t-interval by
    each box halfplane.  Facets cannot be used here because halfplane
    representations only exist for full-dimensional cells."""
    slim = minimalize(poly)
    pts, rays = slim.gen_points, slim.gen_rays
    base = pts[0]
    d = None
    for p in pts[1:]:
        d = vec_sub(p, base)
    if rays:
        d = rays[0]
    if d is None:
        return [base] if poly_contains(box(plane.b), base) else None
    axis = 0 if d[0] != 0 else 1
    ts = [(p[axis] - base[axis]) / d[axis] for p in pts]
    lo, hi = min(ts), max(ts)
    for r in rays:  # parallel to d since dim(poly) = 1
        if r[axis] / d[axis] > 0:
            hi = None
        else:
            lo = None
    b = plane.b
    for n, c in (((1, 0), b), ((-1, 0), b), ((0, 1), b), ((0, -1), b)):
        a = n[0] * d[0] + n[1] * d[1]
        room = rat(c) - (n[0] * base[0] + n[1] * base[1])
        if a == 0:
            if room < 0:
                return None
        elif a > 0:
            hi = room / a if hi is None else min(hi, room / a)
        else:
            lo = room / a if lo is None else max(lo, room / a)
    if lo > hi:
        return None
    at = lambda t: vec_add(base, vec_scale(t, d))  # noqa: E731
    return [at(lo)] if lo == hi else [at(lo), at(hi)]


# ---------------------------------------------------------------------------
# Polyhedral complexes by intersecting every pair of cells
# ---------------------------------------------------------------------------

_MEETS = weakref.WeakKeyDictionary()


def intersect2(a, b):
    """Intersection of two full-dimensional cells in the plane (V-rep in,
    V-rep out); None when empty."""
    return vrep_from_halfplanes(halfplanes(a) + halfplanes(b))


def meet(pc: PolyComplex, i: int, j: int):
    """Intersection of cells i and j of pc (None when empty), from their
    cached facets; computed once per unordered pair."""
    key = (i, j) if i <= j else (j, i)
    cache = _MEETS.setdefault(pc, {})
    if key not in cache:
        cache[key] = vrep_from_halfplanes(
            pc.halfplanes[key[0]] + pc.halfplanes[key[1]]
        )
    return cache[key]


def is_face(pc: PolyComplex, i: int, face) -> bool:
    """Is `face` a face of cell i?  Computed by intersecting the cell with
    all of its halfplanes that are tight on `face`."""
    cell = pc.cells[i]
    hps = list(pc.halfplanes[i])
    tight = []
    for n, c in hps:
        if all(dot(n, p) == c for p in face.gen_points) and all(
            dot(n, r) == 0 for r in face.gen_rays
        ):
            tight.append((n, c))
    if not tight:
        return poly_equal(face, cell)
    for n, c in tight:
        hps.append(((-n[0], -n[1]), -c))
    cut = vrep_from_halfplanes(hps)
    return cut is not None and poly_equal(cut, face)


def vertex_link_ok(pc: PolyComplex, v) -> bool:
    """Every boundary direction at vertex v occurs exactly twice among the
    facets of the cells through v.  A double cover around v passes too;
    the pairwise overlap check catches it."""
    dirs = []
    for i, cell in enumerate(pc.cells):
        if v not in cell.gen_points:
            continue
        for (pts, rays), _ in fraction_facets(pc, i):
            if v not in pts:
                continue
            d = None
            for p in pts:
                if p != v:
                    d = primitive(vec_sub(p, v))
                    break
            if d is None:
                if not rays:
                    continue
                d = rays[0]
            dirs.append(d)
    counts = {}
    for d in dirs:
        counts[d] = counts.get(d, 0) + 1
    return bool(counts) and all(k == 2 for k in counts.values())


def recession_fan_pairwise(pc: PolyComplex) -> tuple:
    """Distinct recession cones of the cells, deduplicated by poly_equal."""
    cones = []
    for c in pc.cells:
        rc = minimalize(recession(c))
        if all(not poly_equal(rc, k) for k in cones):
            cones.append(rc)
    return tuple(cones)


def validate_complex_pairwise(pc: PolyComplex, fan) -> SimplicialFlag:
    """validate_complex by the pairwise route: intersections are common
    faces, interiors are disjoint, facets are paired, every boundary
    direction at a vertex occurs twice, and the recession cones form a fan
    equal to the given one."""
    cells = pc.cells
    for i, j in itertools.combinations(range(len(cells)), 2):
        inter = meet(pc, i, j)
        if inter is None:
            continue
        if poly_dim(inter) == 2:
            raise ComplexInvalid(f"cells {i} and {j} overlap in dimension 2")
        if not is_face(pc, i, inter) or not is_face(pc, j, inter):
            raise ComplexInvalid(
                f"cells {i} and {j} do not intersect in a common face"
            )
    seen = {}
    for i in range(len(cells)):
        for key, _ in fraction_facets(pc, i):
            seen.setdefault(key, []).append(i)
    for key, owners in seen.items():
        if len(owners) != 2:
            raise ComplexInvalid(
                f"facet {key} belongs to cells {owners}, expected exactly 2"
            )
    for v in pc.vertices():
        if not vertex_link_ok(pc, v):
            raise ComplexInvalid(f"cells around vertex {v} do not tile the plane")
    rec_cones = recession_fan_pairwise(pc)
    maximal = [k for k in rec_cones if poly_dim(k) == 2]
    for a, b in itertools.combinations(range(len(maximal)), 2):
        inter = intersect2(maximal[a], maximal[b])
        if inter is not None and poly_dim(inter) == 2:
            raise ComplexInvalid(
                f"recession cones of the complex overlap ({a}, {b})"
            )
    for k in rec_cones:
        if poly_dim(k) < 2 and not any(poly_is_subset(k, m) for m in maximal):
            raise ComplexInvalid("recession cones do not form a fan")
    fan_cells = list(fan.cells) if isinstance(fan, PolyComplex) else list(fan)
    fan_max = [minimalize(k) for k in fan_cells if poly_dim(k) == 2]
    for k in maximal:
        if not any(poly_equal(k, m) for m in fan_max):
            raise ComplexInvalid("recession fan does not match the expected fan")
    for m in fan_max:
        if not any(poly_equal(k, m) for k in maximal):
            raise ComplexInvalid("expected fan has a cone the complex misses")
    flags = [fraction_cell_flags(c) for c in cells]
    return SimplicialFlag(
        simplicial=tuple(s for s, _ in flags),
        unimodular=tuple(u for _, u in flags),
    )


def check_continuity_by_meets(f) -> None:
    """Raise ToricError unless the pieces of f agree on every nonempty
    intersection of two cells."""
    pc = f.complex
    for i, j in itertools.combinations(range(len(pc.cells)), 2):
        inter = meet(pc, i, j)
        if inter is None:
            continue
        (gi, ci), (gj, cj) = f.pieces[i], f.pieces[j]
        dg = (gi[0] - gj[0], gi[1] - gj[1])
        dc = ci - cj
        if any(dot(dg, p) + dc != 0 for p in inter.gen_points) or any(
            dot(dg, r) != 0 for r in inter.gen_rays
        ):
            raise ToricError(
                f"pieces of cells {i} and {j} disagree on their shared face"
            )


def is_concave_by_meets(h):
    """is_concave over every pair of cells whose meet is 1-dimensional."""
    cells = h.complex.cells
    for i, j in itertools.combinations(range(len(cells)), 2):
        inter = meet(h.complex, i, j)
        if inter is None or poly_dim(inter) != 1:
            continue
        for a, b in ((i, j), (j, i)):
            (ga, ca), (gb, cb) = h.pieces[a], h.pieces[b]
            dg = (ga[0] - gb[0], ga[1] - gb[1])
            dc = ca - cb
            for p in cells[b].gen_points:
                if dot(dg, p) + dc < 0:
                    return False, {"facet": (a, b), "point": p}
            p0 = cells[b].gen_points[0]
            base = dot(dg, p0) + dc
            for r in cells[b].gen_rays:
                slope = dot(dg, r)
                if slope < 0:
                    k = rfloor(base / (-slope)) + 1
                    witness = (p0[0] + k * r[0], p0[1] + k * r[1])
                    return False, {"facet": (a, b), "point": witness}
    return True, None


# ---------------------------------------------------------------------------
# Skeleton and its owners by polyhedral inclusion
# ---------------------------------------------------------------------------


def skeleton_pairwise(pc: PolyComplex) -> tuple:
    """Maximal bounded faces, largest dimension first: the bounded cells
    and the bounded facets and vertices of the unbounded cells, less those
    inside another candidate and repeats."""
    found = []
    for i, cell in enumerate(pc.cells):
        if not cell.gen_rays:
            found.append(cell)
            continue
        for (pts, rays), _ in fraction_facets(pc, i):
            if not rays:
                found.append(Polyhedron(pts))
        for p in cell.gen_points:
            found.append(Polyhedron((p,)))
    out = []
    for cand in found:
        if any(poly_is_subset(cand, other) and not poly_equal(cand, other) for other in found):
            continue
        if any(poly_equal(cand, k) for k in out):
            continue
        out.append(cand)
    return tuple(sorted(out, key=lambda c: (-poly_dim(c), c.gen_points)))


def restrict_to_skeleton_by_subsets(f) -> tuple:
    """The piece of the first cell containing each skeleton face."""
    cells = f.complex.cells
    return tuple(
        f.pieces[next(i for i, c in enumerate(cells) if poly_is_subset(s, c))]
        for s in skeleton_pairwise(f.complex)
    )


def compose_with_retraction_by_subsets(pc: PolyComplex, g_pieces):
    """compose_with_retraction for ((grad, const), ...) data in skeleton
    order, retracting each cell into the first skeleton face containing
    the hull of its points."""
    skel = skeleton_pairwise(pc)
    gp = tuple(((rat(g[0]), rat(g[1])), rat(c)) for g, c in g_pieces)
    if len(gp) != len(skel):
        raise ToricError("one affine piece per skeleton cell required")
    out = []
    for i, cell in enumerate(pc.cells):
        image = Polyhedron(cell.gen_points)
        owner = next((k for k, s in enumerate(skel) if poly_is_subset(image, s)), None)
        if owner is None:
            raise ToricError(f"retraction image of cell {i} spans several skeleton cells")
        (mg, cg), (A, b) = gp[owner], retraction_affine(cell)
        grad = (mg[0] * A[0][0] + mg[1] * A[1][0], mg[0] * A[0][1] + mg[1] * A[1][1])
        out.append((grad, mg[0] * b[0] + mg[1] * b[1] + cg))
    return ToricPLFunction(pc, tuple(out))
