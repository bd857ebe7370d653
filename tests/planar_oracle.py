"""General-purpose planar routines kept as test oracles.

skelpot decides the dimension of a planar polyhedron with cross products
and reads its facets off a convex hull.  The routines here take the older,
general route: rank by Gaussian elimination, and facets by trying every
normal that a pair of generators suggests.  The tests check the fitted
routines against them.
"""

from __future__ import annotations

import itertools

from skelpot.rat import Rat, dot, primitive, vec_sub


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
