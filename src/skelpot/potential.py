"""Potential theory on metrized graphs.

The central notion: a PL function F is theta-psh when at every point x the
weighted outgoing slopes plus the theta-degree are nonnegative,

    sum_nu  w(nu) * slope_{x,nu}(F)  +  deg_theta(x)  >=  0,

where nu runs over the finitely many directions out of x, the weight of a
direction is the weight of its edge, and deg_theta is zero away from
vertices.  Only vertices and breakpoints can violate the inequality, so the
check is finite.

The Monge-Ampere operator assigns to F the atomic measure whose mass at x
is exactly that excess; its total telescopes to the total theta-degree.
dd^c is the theta = 0 case (a signed measure of total mass zero).

Envelopes are a Z-matrix linear complementarity problem.  Sample g at
its vertices and at the breakpoints of u, and absorb dd^c(u) into the
curvature d.  The candidates F = u - y are affine between samples, and F
is theta-psh exactly when  Delta y + d >= 0,  where Delta is the weighted
Laplacian of the samples (off-diagonal entries <= 0).  Feasible points are
closed under taking minima, so the envelope is u - y for the least y >= 0
with Delta y + d >= 0: the least-action principle of chip-firing.
Elimination finds it by pivoting only where the reduced slack is negative,
and an O(E) certificate (y >= 0, s = Delta y + d >= 0, y_v s_v = 0,
min y = 0) proves it least by the maximum principle on {y > 0}.

Both Laplacian solves go through one sparse Gaussian elimination in
minimum-degree order, `_eliminate`, which differs only in the vertices it
may pivot on: those with negative reduced slack for the envelope, every
vertex but the anchor for solve_ma, whose samples are the vertices and
the interior atoms of the measure.  No pivoting for stability is needed,
because every Schur complement of a Laplacian is again a Laplacian.  It
is fraction-free: rows are kept as coprime ints, positive multiples of the
rational rows, and only back-substitution builds Rats.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .graphs import (
    AtomicMeasure,
    CurvatureData,
    GraphError,
    GraphPoint,
    MetrizedGraph,
    PLFunction,
)
from .rat import Rat

ZERO = Rat(0)


class PotentialError(GraphError):
    pass


class EnvelopeInfeasible(PotentialError):
    """Raised when no theta-psh function exists (the envelope is -infinity)."""


class MassMismatch(PotentialError):
    pass


class SlopeRow(NamedTuple):
    point: GraphPoint
    slopes: tuple  # of (edge, tag, weight, slope)
    degree: object
    excess: object


class SlopeReport(NamedTuple):
    rows: tuple
    ok: bool

    def failing(self):
        return tuple(r for r in self.rows if r.excess < 0)


def _check_same_graph(g, *objs):
    for o in objs:
        if o.graph != g:
            raise PotentialError("data lives on a different graph")


def slope_report(g: MetrizedGraph, theta: CurvatureData, f: PLFunction) -> SlopeReport:
    _check_same_graph(g, theta, f)
    points = [g.vertex_point(v) for v in range(g.n_vertices)]
    points.extend(f.breakpoints())
    rows = []
    ok = True
    for pt in points:
        slopes = tuple(f.directional_slopes(pt))
        deg = theta.degree_at(pt)
        excess = sum((w * s for _, _, w, s in slopes), start=ZERO) + deg
        if excess < 0:
            ok = False
        rows.append(SlopeRow(point=pt, slopes=slopes, degree=deg, excess=excess))
    return SlopeReport(rows=tuple(rows), ok=ok)


def is_theta_psh(g: MetrizedGraph, theta: CurvatureData, f: PLFunction):
    """Decide the slope criterion; returns (verdict, full report)."""
    report = slope_report(g, theta, f)
    return report.ok, report


def ma_measure(g: MetrizedGraph, theta: CurvatureData, f: PLFunction) -> AtomicMeasure:
    """Monge-Ampere measure of f: the slope excess as an atomic measure.
    Total mass always equals the total theta-degree."""
    report = slope_report(g, theta, f)
    return AtomicMeasure(g, {row.point: row.excess for row in report.rows})


def dd_c(g: MetrizedGraph, f: PLFunction) -> AtomicMeasure:
    """Curvature of f alone (theta = 0): a signed measure of total mass 0."""
    return ma_measure(g, CurvatureData(g, (ZERO,) * g.n_vertices), f)


# ---------------------------------------------------------------------------
# Envelope
# ---------------------------------------------------------------------------


class EnvelopeResult(NamedTuple):
    envelope: PLFunction
    certificate: SlopeReport
    lp_summary: dict


def _sample_laplacian(g: MetrizedGraph, points):
    """The Laplacian of g sampled at its vertices and at the given points.

    Vertex v keeps index v; the interior points follow, edge by edge and in
    offset order.  Returns (nbrs, cuts): per sample, the summed conductance
    w/dt towards each neighbour along the edges' sample chains, with loops
    dropped (the off-diagonal entries of the Laplacian, negated); per edge,
    its (offset, index) pairs."""
    offsets = [set() for _ in g.edges]
    for pt in points:
        if not pt.is_vertex():
            offsets[pt.index].add(pt.offset)
    n = g.n_vertices
    cuts = []
    for offs in offsets:
        cuts.append([(t, n + i) for i, t in enumerate(sorted(offs))])
        n += len(offs)
    nbrs = [{} for _ in range(n)]
    for (a, b, length, w), cut in zip(g.edges, cuts):
        chain = [(ZERO, a), *cut, (length, b)]
        for (t0, x), (t1, y) in zip(chain, chain[1:]):
            if x == y:
                continue
            c = Rat(w) / (t1 - t0)
            nbrs[x][y] = nbrs[x].get(y, ZERO) + c
            nbrs[y][x] = nbrs[y].get(x, ZERO) + c
    return nbrs, cuts


def _from_samples(g: MetrizedGraph, values, cuts) -> PLFunction:
    """The PL function on g with the given values at the samples of
    _sample_laplacian, linear between them (collinear breakpoints pruned)."""
    breaks = tuple(tuple((t, values[i]) for t, i in cut) for cut in cuts)
    return PLFunction(g, values[: g.n_vertices], breaks).prune()


def _common(xs):
    """The lcm m of the Rats' denominators, and the ints x m."""
    m = math.lcm(*(x.denominator for x in xs))
    return m, [x.numerator * (m // x.denominator) for x in xs]


def _integer_rows(nbrs, d):
    """Each row of Delta x + d = 0 as coprime ints, a positive multiple of
    it: per sample, its conductances to its neighbours, and its d_v."""
    a, e = [], []
    for nb, dv in zip(nbrs, d):
        _, (ev, *cs) = _common([dv, *nb.values()])
        k = math.gcd(ev, *cs) or 1
        a.append({u: c // k for u, c in zip(nb, cs)})
        e.append(ev // k)
    return a, e


def _eliminate(nbrs, d, eligible, rows=None):
    """Gaussian elimination on the Laplacian in minimum-degree order.

    Solves (Delta x)_v + d_v = 0 at every vertex v that it eliminates, with
    x = 0 at the vertices it never eliminates.  The Schur complement is kept
    as _integer_rows: row u holds positive multiples of its off-diagonal
    entries, negated (their sum is the diagonal), and of the reduced d'_u,
    as e_u.  Each step eliminates, among the remaining vertices that
    eligible(v, e_v) admits, one with the fewest remaining neighbours (the
    least index on ties), so the interior sample points go first and cause
    no fill.  The pivot p_v is the sum of row v, since a Schur complement
    of a Laplacian is a Laplacian; p_v = 0 raises ValueError.  Row u
    becomes p_v row_u + a_uv row_v over its content: sums of positive
    terms, so nothing cancels.  Only v's neighbours change, so only they
    are tested again; a vertex once admitted stays admitted, as both
    callers' tests do.  The rows, _integer_rows(nbrs, d) unless given, are
    reduced in place.  Returns x as a list, one Rat per unknown."""
    n = len(d)
    a, e = rows or _integer_rows(nbrs, d)
    ready = {v for v in range(n) if eligible(v, e[v])}
    steps = []
    while ready:
        v = min(ready, key=lambda u: (len(a[u]), u))
        ready.remove(v)
        row, ev = a[v], e[v]
        pivot = sum(row.values())
        if not pivot:
            raise ValueError("zero pivot: the Laplacian block is singular")
        steps.append((v, pivot, row, ev))
        for u in row:
            old, auv = a[u], a[u].pop(v)
            new = {w: pivot * old.get(w, 0) + auv * row.get(w, 0)
                   for w in old.keys() | row.keys() - {u}}
            eu = pivot * e[u] + auv * ev
            k = math.gcd(eu, *new.values()) or 1
            a[u] = {w: c // k for w, c in new.items()}
            e[u] = eu // k
            if eligible(u, e[u]):
                ready.add(u)
    x = [ZERO] * n
    for v, pivot, row, ev in reversed(steps):
        m, xs = _common([x[u] for u in row])
        x[v] = Rat(sum(c * t for c, t in zip(row.values(), xs)) - ev * m, pivot * m)
    return x


def _slack(nbrs, y, d):
    """s = Delta y + d, with (Delta y)_v = sum_nu c_{v,nu} (y_v - y_nu)."""
    return [
        d[v] + sum((c * (y[v] - y[u]) for u, c in nb.items()), start=ZERO)
        for v, nb in enumerate(nbrs)
    ]


def _integer_slack(nbrs, y, d, rows=None):
    """Delta y + d on _integer_rows (given, or built), each row times the
    lcm of its y's denominators: a positive multiple of _slack, with its
    signs and zeros."""
    a, e = rows or _integer_rows(nbrs, d)
    scaled = [_common([y[v], *(y[u] for u in row)]) for v, row in enumerate(a)]
    return [ev * m + sum(c * (yv - t) for c, t in zip(row.values(), ys))
            for row, ev, (m, (yv, *ys)) in zip(a, e, scaled)]


def _least_feasible(nbrs, d):
    """Least y >= 0 with Delta y + d >= 0, by elimination on negative slack.

    A remaining vertex whose reduced d'_v is negative lies in the support of
    the least point y* (Chandrasekaran's argument), so eliminating it
    imposes (Delta y)_v + d_v = 0.  What remains is again a Z-matrix LCP:
    the Schur complement with the reduced d', whose least point is y*
    restricted to the remaining vertices, because its feasible points extend
    back through the eliminated rows with y_v > 0 and feasible sets are
    closed under min.  Eliminating v adds c_uv d'_v / pivot <= 0 to each
    neighbour's d'_u, so d' only decreases and an eligible vertex stays
    eligible.  When no remaining d' is negative, y = 0 there is feasible and
    least.  If every vertex is eliminated, the last pivot is the Schur
    complement of a connected Laplacian onto one vertex, which is 0: no
    feasible point exists.  Returns (y, _integer_slack).  The integer rows
    are built once; the elimination reduces a copy of them."""
    a, e = rows = _integer_rows(nbrs, d)
    try:
        y = _eliminate(nbrs, d, lambda v, dv: dv < 0, ([dict(r) for r in a], list(e)))
    except ValueError:
        raise EnvelopeInfeasible("no theta-psh function exists") from None
    return y, _integer_slack(nbrs, y, d, rows)


def _check_least(y, s) -> None:
    """y >= 0, s >= 0, y_v s_v = 0 and min y = 0 make y the least feasible
    point on a connected graph: if z is feasible and y - z peaks at a
    positive value, then at the peak y > 0, so s = 0 and Delta(y - z) <= 0
    there; the peak spreads to every neighbour, hence to the whole graph,
    and then min y > 0."""
    if (
        min(y) != 0
        or any(x < 0 for x in s)
        or any(a != 0 and b != 0 for a, b in zip(y, s))
    ):
        raise PotentialError("internal: envelope fails its least-point certificate")


def envelope(g: MetrizedGraph, theta: CurvatureData, u: PLFunction) -> EnvelopeResult:
    """Largest theta-psh function below u.

    Raises EnvelopeInfeasible when no theta-psh function exists at all (for
    instance when the total degree is negative).  The result comes with a
    recomputed psh certificate and a certificate that it is pointwise
    maximal.  lp_summary describes the problem as the linear program
    max sum F - u over the n slope rows in n unknowns (n = vertices plus
    breakpoints of u), with its optimal value.
    """
    _check_same_graph(g, theta, u)
    nbrs, cuts = _sample_laplacian(g, u.breakpoints())
    n = len(nbrs)
    # u at the samples, in their order; u is affine between samples, so its
    # curvature is -Delta u, and theta vanishes off the vertices
    us = [*u.vertex_values, *(x for row in u.breaks for _, x in row)]
    theta_s = list(theta.degrees) + [ZERO] * (n - g.n_vertices)
    y, s = _least_feasible(nbrs, _slack(nbrs, [-x for x in us], theta_s))
    _check_least(y, s)
    f0 = tuple(-yi for yi in y)
    env = _from_samples(g, [a + b for a, b in zip(f0, us)], cuts)
    report = slope_report(g, theta, env)
    if not report.ok:
        raise PotentialError("internal: envelope fails its own psh certificate")
    for v in range(g.n_vertices):
        if env.vertex_values[v] > u.vertex_values[v]:
            raise PotentialError("internal: envelope exceeds its bound")
    return EnvelopeResult(
        envelope=env,
        certificate=report,
        lp_summary={
            "n_vars": n,
            "n_constraints": n,
            "objective": sum(f0, start=ZERO),
        },
    )


# ---------------------------------------------------------------------------
# Dirichlet-type problem, energy, orthogonality
# ---------------------------------------------------------------------------


def solve_ma(
    g: MetrizedGraph, theta: CurvatureData, mu: AtomicMeasure, anchor: int = 0
) -> PLFunction:
    """Solve MA_theta(F) = mu with F(anchor) = 0.

    mu must be a nonnegative measure of total mass equal to the total
    theta-degree, supported on finitely many points.  On a connected graph
    the solution exists and is unique up to an additive constant; anchoring
    picks the representative.  The result is verified by recomputing its
    Monge-Ampere measure.
    """
    _check_same_graph(g, theta, mu)
    if not mu.is_nonnegative():
        raise MassMismatch("measure has a negative atom")
    if mu.total_mass() != theta.total():
        raise MassMismatch(
            "total mass must equal the total theta-degree "
            f"({mu.total_mass()} != {theta.total()})"
        )
    if not 0 <= anchor < g.n_vertices:
        raise PotentialError("anchor vertex out of range")
    nbrs, cuts = _sample_laplacian(g, (pt for pt, _ in mu.atoms))
    index = {(e, t): i for e, cut in enumerate(cuts) for t, i in cut}
    b = [-x for x in theta.degrees] + [ZERO] * (len(nbrs) - g.n_vertices)
    for pt, m in mu.atoms:
        b[pt.index if pt.is_vertex() else index[pt.index, pt.offset]] += m
    # (Delta F)_v = -b[v] off the anchor, with F(anchor) = 0: the grounded
    # Laplacian, positive definite on a connected graph (the anchor's row is
    # implied: rows sum to zero)
    try:
        f_vals = _eliminate(nbrs, b, lambda v, dv: v != anchor)
    except ValueError as ex:  # pragma: no cover - connected graphs are regular
        raise PotentialError(f"Laplacian solve failed: {ex}") from ex
    f = _from_samples(g, f_vals, cuts)
    if ma_measure(g, theta, f).atoms != mu.atoms:
        raise PotentialError("internal: solution does not reproduce the measure")
    return f


def energy(
    g: MetrizedGraph, theta: CurvatureData, phi1: PLFunction, phi2: PLFunction
):
    """The quadratic energy pairing
    E(phi1, phi2) = 1/2 * integral of (phi1 - phi2) against
    (MA(phi1) + MA(phi2)), the standard bilinear form normalized so that
    E(phi + c, phi) = c * total degree."""
    total = ma_measure(g, theta, phi1) + ma_measure(g, theta, phi2)
    return _integrate(phi1 - phi2, total) / 2


def orthogonality_residual(g: MetrizedGraph, theta: CurvatureData, u: PLFunction):
    """integral of (u - P(u)) against MA(P(u)); identically zero, returned
    exactly so callers can assert it."""
    env = envelope(g, theta, u).envelope
    ma = ma_measure(g, theta, env)
    return _integrate(u - env, ma)


def _integrate(f: PLFunction, mu: AtomicMeasure):
    """The pairing of f with an atomic measure: its atoms' masses times the
    values of f there."""
    return sum((m * f.value_at(pt) for pt, m in mu.atoms), start=ZERO)
