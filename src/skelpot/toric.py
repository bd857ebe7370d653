"""Complete rational polyhedral complexes in the plane and their skeleta.

A PolyComplex is a finite set of full-dimensional cells (V-representation
polyhedra) that tile R^2 face-to-face; its recession cones form a complete
fan.  Validity is decided from local data: each facet is shared by two
cells, the cells around each vertex wind once, and there is one sheet.
The bounded cells make up the skeleton, and every point of the plane
retracts onto it by dropping the recession part of its barycentric-plus-ray
decomposition inside any containing cell.  Facet keys, cell flags,
containment, decompositions and retractions are decided on the int cone
generators of the cells (Polyhedron.cone_gens) and of the query point, and
turned into Rat only in what they return.  Complexes and PL functions are
rat.Frozen values, and their derived data (facets, facet owners, fan,
skeleton, int rows) are cached properties, computed at most once.

PL functions are stored as one affine piece per maximal cell.  Concavity is
a facet-local condition (the affine piece of one side must dominate the
function on the other side).  Continuity, concavity and the active piece
of a support function are decided on int rows of the pieces, over one
common denominator, against the same cone generators; only a failed
concavity test builds its Rat witness.  For concave functions with
recession equal to the support function of a lattice polytope P the
Monge-Ampere measure is atomic: each complex vertex carries 2! times the
area of the polygon spanned by the gradients of its incident cells, and the
masses add up to 2 * area(P).

Everything is exact; ambient dimension is capped at 2, which covers all the
geometry this package models.
"""

from __future__ import annotations

import itertools
from functools import cached_property, cmp_to_key
from typing import NamedTuple

from .polyhedra import (
    Polyhedron,
    angle_order,
    cell_ring,
    clip_ring,
    convex_hull_2d,
    halfplanes,
    holds_at,
    homogeneous,
    hull_area_2d,
    interior_point,
    is_pointed,
    minimalize,
    over_common_denominator,
    poly_dim,
    poly_is_subset,
    recession,
)
from .rat import Frozen, Rat, rat, rat_str, dot, rfloor, primitive, adjugate, cramer, cross2, det, det3, vec_sub

ZERO = Rat(0)
ONE = Rat(1)


class ToricError(Exception):
    pass


class ComplexInvalid(ToricError):
    pass


class PolyComplex(Frozen):
    """Cells must be pointed (contain no line) and 2-dimensional, and are
    minimalized at construction; validity (tiling, fan of recession cones, simpliciality)
    is established by validate_complex.

    Its derived data are cached properties: the facets of each cell
    (halfplanes), the cells owning each facet (facet_owners, facet_pairs,
    facet_pair_gens), the recession fan and the skeleton.  Validation, the
    checks of every function on the complex, and the cuts by its facets in
    refine, pl_functions_equal and the SVG layer all read them."""

    _fields = ("cells",)

    def __init__(self, cells):
        cells = tuple(cells)
        if not cells:
            raise ToricError("a complex needs at least one cell")
        if any(c.ambient_dim != 2 for c in cells):
            raise ToricError("cells must live in the plane")
        for i, c in enumerate(cells):
            if not is_pointed(c):
                raise ComplexInvalid(f"cell {i} contains a line")
            if poly_dim(c) != 2:
                raise ComplexInvalid(f"cell {i} is not 2-dimensional")
        object.__setattr__(self, "cells", tuple(minimalize(c) for c in cells))

    @cached_property
    def halfplanes(self) -> tuple:
        """The facets of each cell, one tuple per cell in cell order."""
        return tuple(map(halfplanes, self.cells))

    @cached_property
    def facet_owners(self) -> dict:
        """Each facet key of _facets -> [(cell, halfplane)] of the cells
        having it, in cell order."""
        owners = {}
        for i in range(len(self.cells)):
            for key, hp in _facets(self, i):
                owners.setdefault(key, []).append((i, hp))
        return owners

    @cached_property
    def facet_pairs(self) -> tuple:
        """(i, j, facet key) for each facet of exactly two cells i < j, in
        (i, j) order: on a valid complex, the pairs meeting in dimension 1."""
        own = self.facet_owners.items()
        return tuple(sorted((o[0][0], o[1][0], k) for k, o in own if len(o) == 2))

    @cached_property
    def facet_pair_gens(self) -> tuple:
        """(i, j, the int cone generators of their facet) in facet_pairs
        order: homogeneous(p) for each point and (r, 0) for each ray."""
        return tuple(
            (i, j, tuple(map(homogeneous, pts)) + tuple(r + (0,) for r in rays))
            for i, j, (pts, rays) in self.facet_pairs
        )

    @cached_property
    def recession_fan(self) -> tuple:
        """Distinct recession cones of the cells (origin-pointed polyhedra),
        in order of first occurrence.  Cells are pointed, so each
        minimalized cone is canonical and equal cones are equal tuples."""
        return tuple(dict.fromkeys(minimalize(recession(c)) for c in self.cells))

    @cached_property
    def skeleton(self) -> tuple:
        """Maximal bounded faces of a complex that validate_complex accepts,
        largest dimension first and each dimension ordered by its points:
        the bounded cells, the bounded facets that no bounded cell owns, and
        the vertices on no bounded facet.  (The union of these cells is the
        combinatorial skeleton.)  Read off facet_owners.

        Validity is what makes this exact: a bounded face inside another
        one is a face of it, a bounded facet is paired only with the cells
        owning it, and a vertex on a segment is one of its end points."""
        cells = self.cells
        segments = sorted((pts, own) for (pts, rays), own in self.facet_owners.items() if not rays)
        covered = {p for pts, _ in segments for p in pts}
        return (
            tuple(sorted((c for c in cells if not c.gen_rays), key=lambda c: c.gen_points))
            + tuple(Polyhedron(pts) for pts, own in segments if all(cells[i].gen_rays for i, _ in own))
            + tuple(Polyhedron((v,)) for v in self.vertices() if v not in covered)
        )

    def cells_containing(self, u) -> list:
        g = homogeneous(tuple(rat(x) for x in u))
        return [i for i, hps in enumerate(self.halfplanes) if holds_at(hps, g)]

    def vertices(self) -> tuple:
        out = set()
        for c in self.cells:
            out.update(c.gen_points)
        return tuple(sorted(out))


class SimplicialFlag(NamedTuple):
    simplicial: tuple
    unimodular: tuple


def _cell_flags(cell: Polyhedron):
    """(simplicial, unimodular) from the primitive lifts, cell.cone_gens."""
    gens = cell.cone_gens
    if len(gens) != 3:
        return False, False
    d = det3(*gens)
    return d != 0, abs(d) == 1


def _facets(pc: PolyComplex, i: int):
    """Facets of cell i as canonical keys with their V-data: the points
    with c.den*<n, (X, Y)> == c.num*W and the int rays orthogonal to n."""
    cell = pc.cells[i]
    gens = cell.cone_gens
    k = len(cell.gen_points)
    out = []
    for n, c in pc.halfplanes[i]:
        on = [c.denominator * (n[0] * x + n[1] * y) == c.numerator * w for x, y, w in gens[:k]]
        pts = tuple(sorted(p for p, yes in zip(cell.gen_points, on) if yes))
        rays = tuple(sorted(g[:2] for g in gens[k:] if n[0] * g[0] + n[1] * g[1] == 0))
        out.append(((pts, rays), (n, c)))
    return out


def _winds_once(corner_edges) -> bool:
    """Do the corners (each a cell's two edge directions at one of its
    vertices) close up around the point with winding number one?  Each
    corner turns counterclockwise from its first edge to its second by less
    than pi.  Sorted by their first edges, each must end where the next
    begins; then no two share a first edge (a corner's edges differ), and
    the turns add up to exactly 2 pi."""
    corners = sorted(
        (ds if cross2(*ds) > 0 else ds[::-1] for ds in corner_edges),
        key=cmp_to_key(lambda s, t: angle_order(s[0], t[0])),
    )
    return all(b == corners[(k + 1) % len(corners)][0] for k, (_, b) in enumerate(corners))


def recession_fan(pc: PolyComplex) -> tuple:
    """The distinct recession cones of the cells: pc.recession_fan."""
    return pc.recession_fan


def validate_complex(pc: PolyComplex, fan) -> SimplicialFlag:
    """Full validity check from local data, recession fan equal to the
    given fan, and per-cell simplicial/unimodular flags.  Raises
    ComplexInvalid with the offending cells named; returns the flags when
    valid.

    Each facet must belong to exactly two cells, on opposite sides, and the
    cells around each vertex must close up with winding number one.  Glued
    along their facets the cells then form a surface that covers the plane
    (a proper local homeomorphism onto a simply connected space), so its
    sheets are copies of the plane; one point inside cell 0 lying in no
    other cell leaves exactly one sheet."""
    cells = pc.cells
    owners = pc.facet_owners
    for own in owners.values():
        for (i, hp), (j, hq) in itertools.combinations(own, 2):
            if hp == hq:
                raise ComplexInvalid(f"cells {i} and {j} overlap in dimension 2")
    for key, own in owners.items():
        if len(own) != 2:
            raise ComplexInvalid(
                f"facet {key} belongs to cells {[i for i, _ in own]}, expected exactly 2"
            )
    corners = {}  # vertex -> cell -> its two edge directions there
    for (pts, rays), own in owners.items():
        for v in pts:
            other = [p for p in pts if p != v]
            d = primitive(vec_sub(other[0], v)) if other else rays[0]
            for i, _ in own:
                corners.setdefault(v, {}).setdefault(i, []).append(d)
    for v in sorted(corners):
        if not _winds_once(corners[v].values()):
            raise ComplexInvalid(
                f"cells around vertex ({rat_str(v[0])}, {rat_str(v[1])}) "
                "do not tile the plane"
            )
    inner = homogeneous(interior_point(cells[0]))
    for j in range(1, len(cells)):
        if holds_at(pc.halfplanes[j], inner):
            raise ComplexInvalid(f"cells 0 and {j} overlap in dimension 2")
    # The recession cones of a complete complex form a complete fan: every
    # direction recedes in some cell, and two cells whose cones share an
    # interior direction d would share interior points far out along d.  So
    # only the match with the given fan is left to check.
    # A cone of the complex's own fan is minimal already, and minimalize
    # is canonical, so it is not minimalized again.
    own = recession_fan(pc)
    maximal = [k for k in own if poly_dim(k) == 2]
    fan_cells = list(fan.cells) if isinstance(fan, PolyComplex) else list(fan)
    fan_max = {k if k in own else minimalize(k) for k in fan_cells if poly_dim(k) == 2}
    if any(k not in fan_max for k in maximal):
        raise ComplexInvalid("recession fan does not match the expected fan")
    if not fan_max <= set(maximal):
        raise ComplexInvalid("expected fan has a cone the complex misses")
    simplicial, unimodular = zip(*(_cell_flags(c) for c in cells))
    return SimplicialFlag(simplicial=simplicial, unimodular=unimodular)


def fan_of_p2() -> tuple:
    """The complete fan with rays e1, e2, -e1-e2 (three maximal cones)."""
    o = ((0, 0),)
    return (
        Polyhedron(o, ((1, 0), (0, 1))),
        Polyhedron(o, ((0, 1), (-1, -1))),
        Polyhedron(o, ((-1, -1), (1, 0))),
    )


# ---------------------------------------------------------------------------
# Skeleton and retraction
# ---------------------------------------------------------------------------


def skeleton(pc: PolyComplex) -> tuple:
    """The maximal bounded faces of a valid complex: pc.skeleton."""
    return pc.skeleton


def decompose(cell: Polyhedron, u):
    """Coefficients (a, lam) with u = sum a_i p_i + sum lam_j v_j, a >= 0
    summing to 1, lam >= 0.  Unique for simplicial cells; errors when the
    cell is not simplicial or u lies outside it."""
    q, nums, pts = _solve(minimalize(cell), tuple(rat(x) for x in u))
    a = tuple(Rat(x * g[2], q) for x, g in zip(nums, pts))
    return a, tuple(Rat(x, q) for x in nums[len(pts) :])  # the rays are primitive


def _solve(cell: Polyhedron, u):
    """(q, nums, point generators) with D*(u, 1) = homogeneous(u) = sum
    nums_i*G_i/d over cell.cone_gens by int cramer, q = d*D > 0: a_i =
    nums_i*W_i/q, a_i*p_i = nums_i*(X_i, Y_i)/q, lam_j = nums_j/q."""
    gens = cell.cone_gens
    if len(gens) > 3:
        raise ToricError("cell is not simplicial")
    target = homogeneous(u)
    # after minimalize, fewer than 3 columns are always independent
    d, nums = cramer(gens, target)
    if d == 0:
        raise ToricError("cell is not simplicial: singular system")
    if any(sum(x * g[i] for x, g in zip(nums, gens)) != d * target[i] for i in range(3)):
        raise ToricError("point is outside the cell")
    if d < 0:
        d, nums = -d, [-x for x in nums]
    if any(x < 0 for x in nums):
        raise ToricError("point is outside the cell")
    return d * target[2], nums, gens[: len(cell.gen_points)]


def retraction(pc: PolyComplex, u) -> tuple:
    """p(u): the point part of the decomposition of u in any containing
    cell, sum nums_i*(X_i, Y_i)/q in the terms of _solve; checked to agree
    across all containing cells."""
    u = tuple(rat(x) for x in u)
    owners = pc.cells_containing(u)
    if not owners:
        raise ToricError(f"no cell contains {u}; the complex is not complete")
    results = []
    for i in owners:
        q, nums, pts = _solve(pc.cells[i], u)
        results.append(tuple(Rat(sum(x * g[j] for x, g in zip(nums, pts)), q) for j in (0, 1)))
    first = results[0]
    if any(r != first for r in results[1:]):
        raise ToricError(f"retraction of {u} differs between containing cells")
    return first


def retraction_affine(cell: Polyhedron):
    """The retraction restricted to a simplicial cell is affine:
    returns (A, b) with p(u) = A u + b, as rows of A plus the shift."""
    return _minimal_retraction_affine(minimalize(cell))


def _minimal_retraction_affine(cell: Polyhedron):
    pts, rays = cell.gen_points, cell.gen_rays
    cols = [(p[0], p[1], ONE) for p in pts] + [(r[0], r[1], ZERO) for r in rays]
    if len(cols) != 3:
        raise ToricError("affine retraction needs a full-dimensional simplicial cell")
    rows = [[col[k] for col in cols] for k in range(3)]
    d = det(rows)
    if d == 0:
        raise ToricError(
            "affine retraction needs a full-dimensional simplicial cell: singular system"
        )
    # p(u) = sum_i a_i p_i with a = M^{-1} (u, 1) and M^{-1} = adj(M) / d
    adj = adjugate(rows)
    k = len(pts)

    def coef(j, c):
        return sum((pts[i][j] * adj[i][c] for i in range(k)), start=ZERO) / d

    A = [[coef(j, 0), coef(j, 1)] for j in range(2)]
    return A, (coef(0, 2), coef(1, 2))


# ---------------------------------------------------------------------------
# PL functions on complexes
# ---------------------------------------------------------------------------


def _pieces(pieces) -> tuple:
    """Affine pieces ((g_x, g_y), c) with every entry made a Rat."""
    return tuple(((rat(g[0]), rat(g[1])), rat(c)) for g, c in pieces)


class _AffinePieces(Frozen):
    """Base of the functions held as affine pieces ((g_x, g_y), c) in the
    field pieces."""

    @cached_property
    def int_rows(self) -> tuple:
        """The pieces <g, u> + c as int rows (L*g_x, L*g_y, L*c) over one
        common denominator L > 0.  Row i at the cone generator (X, Y, W) is
        L*W times piece i at (X, Y)/W, or L times its slope along (X, Y)
        when W = 0: differences of rows keep signs."""
        *xs, _ = homogeneous([x for (gx, gy), c in self.pieces for x in (gx, gy, c)])
        return tuple(zip(xs[0::3], xs[1::3], xs[2::3]))


class SupportFn(_AffinePieces):
    """min of affine pieces <m, u> + c; concave by construction."""

    _fields = ("pieces",)

    def __init__(self, pieces):
        rows = _pieces(pieces)
        if not rows:
            raise ToricError("a support function needs at least one piece")
        object.__setattr__(self, "pieces", rows)

    @classmethod
    def from_polytope(cls, vertices):
        return cls(tuple((v, ZERO) for v in vertices))

    def value(self, u):
        u = tuple(rat(x) for x in u)
        return min(dot(m, u) + c for m, c in self.pieces)


class ToricPLFunction(_AffinePieces):
    """One affine piece (gradient, constant) per maximal cell, continuous
    across every shared facet (verified at construction); on a valid
    complex that is continuity everywhere, as each vertex link is joined
    by facets."""

    _fields = ("complex", "pieces")

    def __init__(self, complex: PolyComplex, pieces, check: bool = True):
        pieces = _pieces(pieces)
        if len(pieces) != len(complex.cells):
            raise ToricError("one affine piece per cell required")
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "pieces", pieces)
        if check:
            self._check_continuity()

    def _check_continuity(self):
        rows = self.int_rows
        for i, j, gens in self.complex.facet_pair_gens:
            if any(_diffs(rows[i], rows[j], gens)):
                raise ToricError(f"pieces of cells {i} and {j} disagree on their shared face")

    def value(self, u):
        u = tuple(rat(x) for x in u)
        owners = self.complex.cells_containing(u)
        if not owners:
            raise ToricError(f"{u} lies in no cell")
        g, c = self.pieces[owners[0]]
        return dot(g, u) + c

    def add_support(self, psi: SupportFn) -> "ToricPLFunction":
        """Materialize psi + self on this complex; psi must be affine on
        each cell (one piece active throughout)."""
        out = []
        for i, cell in enumerate(self.complex.cells):
            active = _active_piece(psi, cell)
            if active is None:
                raise ToricError(
                    f"support function is not affine on cell {i}; refine the complex"
                )
            (m, c) = active
            (g, k) = self.pieces[i]
            out.append(((g[0] + m[0], g[1] + m[1]), k + c))
        return ToricPLFunction(self.complex, tuple(out))

    def scale(self, t) -> "ToricPLFunction":
        t = rat(t)
        return ToricPLFunction(
            self.complex,
            tuple(((t * g[0], t * g[1]), t * c) for g, c in self.pieces),
            check=False,
        )


def _active_piece(psi: SupportFn, cell: Polyhedron):
    """The piece of psi equal to psi on all of cell, if one exists: one
    that no other piece undercuts at any cone generator of the cell."""
    rows, gens = psi.int_rows, cell.cone_gens
    for piece, row in zip(psi.pieces, rows):
        if all(x >= 0 for other in rows for x in _diffs(other, row, gens)):
            return piece
    return None


def _diffs(a, b, gens):
    """(row a - row b) . G for each int cone generator G, lazily."""
    dx, dy, dc = a[0] - b[0], a[1] - b[1], a[2] - b[2]
    return (dx * x + dy * y + dc * w for x, y, w in gens)


def support_on_complex(psi: SupportFn, pc: PolyComplex) -> ToricPLFunction:
    zero = ToricPLFunction(pc, tuple((((0, 0), 0)) for _ in pc.cells), check=False)
    return zero.add_support(psi)


def compose_with_retraction(pc: PolyComplex, g_pieces) -> ToricPLFunction:
    """g composed with the retraction of pc.

    g_pieces: affine data on the skeleton, given either as a ToricPLFunction
    over the skeleton cells or as a list of ((grad, const), cell) pairs in
    skeleton order.  The result is affine on each maximal cell (errors when
    a cell's retraction image crosses skeleton cells) and continuous.

    A cell retracts into the first skeleton face whose points include the
    cell's points; on a valid complex that is the first face containing
    the hull of the cell's points.
    """
    skel = skeleton(pc)
    if isinstance(g_pieces, ToricPLFunction):
        if tuple(g_pieces.complex.cells) != tuple(skel):
            raise ToricError("g must live on the skeleton of this complex")
        gp = g_pieces.pieces
    else:
        gp = _pieces(g_pieces)
        if len(gp) != len(skel):
            raise ToricError("one affine piece per skeleton cell required")
    faces = [set(s.gen_points) for s in skel]
    out = []
    for i, cell in enumerate(pc.cells):
        image = set(cell.gen_points)
        owner = next((k for k, s in enumerate(faces) if image <= s), None)
        if owner is None:
            raise ToricError(f"retraction image of cell {i} spans several skeleton cells")
        (mg, cg) = gp[owner]
        A, b = _minimal_retraction_affine(cell)  # complex cells are minimal
        grad = (
            mg[0] * A[0][0] + mg[1] * A[1][0],
            mg[0] * A[0][1] + mg[1] * A[1][1],
        )
        const = mg[0] * b[0] + mg[1] * b[1] + cg
        out.append((grad, const))
    return ToricPLFunction(pc, tuple(out))


def restrict_to_skeleton(f: ToricPLFunction) -> tuple:
    """Affine data of f on each skeleton cell, in skeleton order: the piece
    of the first cell whose points include the face's points, which on a
    valid complex is the first cell containing the face."""
    cells = [set(c.gen_points) for c in f.complex.cells]
    out = []
    for s in skeleton(f.complex):
        pts = set(s.gen_points)
        out.append(f.pieces[next(i for i, c in enumerate(cells) if pts <= c)])
    return tuple(out)


# ---------------------------------------------------------------------------
# Concavity and Monge-Ampere
# ---------------------------------------------------------------------------


def is_concave(h: ToricPLFunction):
    """Facet-local concavity on a complete complex: across every shared
    1-dimensional face of cells i < j the piece of i must dominate h on j.
    Returns (True, None) or (False, witness dict).

    Each pair is tested once.  The difference of the two pieces is affine
    and, h being continuous, vanishes on the line through their facet, so
    it has opposite signs on the two sides: the piece of j dominates h on i
    exactly when the piece of i dominates h on j.  Tested on the int rows at
    the cone generators of cell j; the witness is the first failing point,
    or the first point plus the least whole multiple of the first failing
    ray at which the test fails."""
    cells, rows = h.complex.cells, h.int_rows
    for i, j, _ in h.complex.facet_pairs:
        gens = cells[j].cone_gens
        bad = next((k for k, x in enumerate(_diffs(rows[i], rows[j], gens)) if x < 0), None)
        if bad is None:
            continue
        pts = cells[j].gen_points
        if bad < len(pts):
            return False, {"facet": (i, j), "point": pts[bad]}
        (gi, ci), (gj, cj) = h.pieces[i], h.pieces[j]
        dg = (gi[0] - gj[0], gi[1] - gj[1])
        p0, r = pts[0], cells[j].gen_rays[bad - len(pts)]
        k = rfloor((dot(dg, p0) + ci - cj) / -dot(dg, r)) + 1
        return False, {"facet": (i, j), "point": (p0[0] + k * r[0], p0[1] + k * r[1])}
    return True, None


class ToricAtomicMeasure(Frozen):
    _fields = ("atoms",)  # of (point, mass), masses > 0, points distinct, sorted

    def __init__(self, atoms):
        rows = []
        for pt, m in atoms:
            pt = (rat(pt[0]), rat(pt[1]))
            m = rat(m)
            if m < 0:
                raise ToricError("toric measures have positive masses")
            if m > 0:
                rows.append((pt, m))
        rows.sort()
        if len({p for p, _ in rows}) != len(rows):
            raise ToricError("atom points must be distinct")
        object.__setattr__(self, "atoms", tuple(rows))

    def total_mass(self):
        return sum((m for _, m in self.atoms), start=ZERO)


def toric_ma(h: ToricPLFunction) -> ToricAtomicMeasure:
    """Monge-Ampere measure of a concave PL function whose recession is the
    support function of the lattice polytope P = conv(gradients): the atom
    at a complex vertex is 2 * area of the superdifferential there (the
    polygon spanned by the gradients of the incident cells); total mass is
    2 * area(P) exactly."""
    ok, witness = is_concave(h)
    if not ok:
        (i, j), (x, y) = witness["facet"], witness["point"]
        raise ToricError(
            f"function is not concave: the piece of cell {i} lies below it "
            f"at ({rat_str(x)}, {rat_str(y)}), in cell {j}"
        )
    grads = [g for g, _ in h.pieces]
    pvertices = convex_hull_2d(grads)
    for v in pvertices:
        if v[0].denominator != 1 or v[1].denominator != 1:
            raise ToricError(
                "recession is not the support function of a lattice polytope"
            )
    at: dict = {}  # vertex -> indices of the cells having it, in cell order
    for i, cell in enumerate(h.complex.cells):
        for v in set(cell.gen_points):
            at.setdefault(v, []).append(i)
    atoms = []
    total = ZERO
    for v in sorted(at):
        area = hull_area_2d([h.pieces[i][0] for i in at[v]])
        if area > 0:
            atoms.append((v, 2 * area))
            total += 2 * area
    expected = 2 * hull_area_2d(grads)
    if total != expected:
        raise ToricError(
            "superdifferential masses do not add up to 2*area(P); "
            "the recession of h does not match its gradient polytope"
        )
    return ToricAtomicMeasure(tuple(atoms))


# ---------------------------------------------------------------------------
# Refinement and cross-complex comparison
# ---------------------------------------------------------------------------


def _overlaps(a: PolyComplex, b: PolyComplex):
    """(i, j, a.cells[i] ∩ b.cells[j]) for each pair of cells overlapping in
    dimension 2: the ring of cell i, over one common denominator so that
    clip_ring runs on int, clipped by the facets of cell j."""
    for i, cell in enumerate(a.cells):
        ring = cell_ring(cell)
        den, keys = over_common_denominator([g[:2] for g in ring])
        ring = [(x, y, den * g[2]) for (x, y), g in zip(keys, ring)]
        for j in range(len(b.cells)):
            cut = clip_ring(ring, b.halfplanes[j])
            if cut is not None:
                inter = Polyhedron(
                    [(Rat(g[0], g[2]), Rat(g[1], g[2])) for g in cut if g[2]],
                    [g[:2] for g in cut if not g[2]],
                )
                if poly_dim(inter) == 2:
                    yield i, j, inter


def refine(a: PolyComplex, b: PolyComplex) -> PolyComplex:
    """Common refinement: all full-dimensional pairwise intersections."""
    return PolyComplex(tuple(inter for _, _, inter in _overlaps(a, b)))


def refine_function(f: ToricPLFunction, fine: PolyComplex) -> ToricPLFunction:
    """Transport f to a finer complex (each fine cell inside one f-cell)."""
    pieces = []
    for cell in fine.cells:
        owner = next(
            (i for i, c in enumerate(f.complex.cells) if poly_is_subset(cell, c)),
            None,
        )
        if owner is None:
            raise ToricError("target complex does not refine the function's complex")
        pieces.append(f.pieces[owner])
    return ToricPLFunction(fine, tuple(pieces), check=False)


def pl_functions_equal(f: ToricPLFunction, g: ToricPLFunction) -> bool:
    """Exact equality of PL functions on possibly different complexes: the
    pieces agree on every pair of cells that overlap in dimension 2."""
    if f.complex == g.complex:
        return f.pieces == g.pieces
    return all(f.pieces[i] == g.pieces[j] for i, j, _ in _overlaps(f.complex, g.complex))
