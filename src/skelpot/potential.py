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

Envelopes are a Z-matrix linear complementarity problem.  After
subdividing at the breakpoints of u and absorbing dd^c(u) into the
curvature d, the candidates F = u - y are affine on edges, and F is
theta-psh exactly when  Delta y + d >= 0,  where Delta is the weighted graph
Laplacian (off-diagonal entries <= 0).  Feasible points are closed under
taking minima, so the envelope is u - y for the least y >= 0 with
Delta y + d >= 0: the least-action principle of chip-firing.
Chandrasekaran's algorithm finds it in at most n rounds, and an O(E)
certificate (y >= 0, s = Delta y + d >= 0, y_v s_v = 0, min y = 0) proves
it least by the maximum principle on {y > 0}.

Every linear system here is a principal block of the Laplacian: Delta_JJ
for a growing vertex set J in the envelope, and the Laplacian grounded at
the anchor in solve_ma.  Both are symmetric positive definite M-matrices,
and both are solved by the one sparse LDL^T factor of `rat.LDLFactor`,
without pivoting.  The envelope appends each round's new vertices to the
factor and only back-substitutes; solve_ma factors in minimum-degree
order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    AtomicMeasure,
    CurvatureData,
    GraphError,
    GraphPoint,
    MetrizedGraph,
    PLFunction,
    subdivide,
)
from .rat import LDLFactor, Rat

ZERO = Rat(0)


class PotentialError(GraphError):
    pass


class EnvelopeInfeasible(PotentialError):
    """Raised when no theta-psh function exists (the envelope is -infinity)."""


class MassMismatch(PotentialError):
    pass


@dataclass(frozen=True)
class SlopeRow:
    point: GraphPoint
    slopes: tuple  # of (edge, tag, weight, slope)
    degree: object
    excess: object


@dataclass(frozen=True)
class SlopeReport:
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


@dataclass(frozen=True)
class EnvelopeResult:
    envelope: PLFunction
    certificate: SlopeReport
    lp_summary: dict


def _conductances(gs: MetrizedGraph):
    """Per vertex, the summed conductance w/l towards each neighbour; loops
    drop out.  These are the off-diagonal entries of the Laplacian, negated."""
    nbrs = [{} for _ in range(gs.n_vertices)]
    for a, b, length, w in gs.edges:
        if a == b:
            continue
        c = Rat(w) / length
        nbrs[a][b] = nbrs[a].get(b, ZERO) + c
        nbrs[b][a] = nbrs[b].get(a, ZERO) + c
    return nbrs


def _add_vertex(factor, nbrs, v, rhs) -> None:
    """Append vertex v to a factor of a principal block Delta_JJ of the
    Laplacian, J being the vertices in the factor: its row holds the
    conductances towards J, negated, and its diagonal the conductances
    towards every neighbour."""
    row = {u: -c for u, c in nbrs[v].items() if u in factor}
    factor.add(v, row, sum(nbrs[v].values(), start=ZERO), rhs)


def _min_degree_order(nbrs, skip):
    """The vertices other than skip in minimum-degree order: each next
    vertex has the fewest neighbours in the graph that eliminating the
    earlier ones leaves, where eliminating a vertex joins its neighbours
    into a clique.  Computed on the pattern alone, before any arithmetic, so
    an LDL^T factor taken in this order has little fill; the degree-2
    subdivision vertices go first and cause none."""
    adj = {v: set(nb) - {skip} for v, nb in enumerate(nbrs) if v != skip}
    order = []
    while adj:
        v = min(adj, key=lambda u: (len(adj[u]), u))
        clique = adj.pop(v)
        for u in clique:
            adj[u] |= clique
            adj[u] -= {u, v}
        order.append(v)
    return order


def _slack_at(nbrs, y, d, v):
    """s_v = (Delta y)_v + d_v, with (Delta y)_v = sum_nu c_{v,nu} (y_v - y_nu)."""
    return d[v] + sum((c * (y[v] - y[u]) for u, c in nbrs[v].items()), start=ZERO)


def _slack(nbrs, y, d):
    """s = Delta y + d at every vertex."""
    return [_slack_at(nbrs, y, d, v) for v in range(len(d))]


def _least_feasible(nbrs, d):
    """Least y >= 0 with Delta y + d >= 0 (Chandrasekaran's algorithm).

    J collects the vertices where y > 0 is forced; on J the slack is held at
    zero by solving Delta_JJ y_J = -d_J with y = 0 off J, and every vertex
    whose slack is still negative joins J, so there are at most n rounds.
    y only grows, and a vertex where the least feasible point vanishes never
    joins, so J = every vertex means that no feasible point exists.
    J only grows, so one LDL^T factor of Delta_JJ serves every round: the
    new vertices are appended in the order they join, and each round only
    back-substitutes.  Off J the slack is d until a neighbour joins J, so
    after the first round only J's outer neighbours are tested; the full
    slack is computed once, from the final y.  Returns (y, slack)."""
    n = len(d)
    y = [ZERO] * n
    factor = LDLFactor()
    frontier = set()
    grow = [v for v in range(n) if d[v] < 0]
    while grow:
        if len(factor) + len(grow) == n:
            raise EnvelopeInfeasible("no theta-psh function exists")
        for v in grow:
            _add_vertex(factor, nbrs, v, -d[v])
        frontier.difference_update(grow)
        frontier.update(u for v in grow for u in nbrs[v] if u not in factor)
        y = [ZERO] * n
        for v, x in factor.solve().items():
            y[v] = x
        grow = sorted(v for v in frontier if _slack_at(nbrs, y, d, v) < 0)
    return y, _slack(nbrs, y, d)


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
    max sum F - u over the n slope rows in n unknowns (n = vertices of the
    subdivided graph), with its optimal value.
    """
    _check_same_graph(g, theta, u)
    gs, smap = subdivide(g, u.breakpoints())
    us = smap.plf(u)
    theta_s = smap.curvature(theta)
    # us is affine on the subdivided edges, so its curvature is -Delta us
    nbrs = _conductances(gs)
    degrees = _slack(nbrs, [-x for x in us.vertex_values], theta_s.degrees)
    n = gs.n_vertices
    y, s = _least_feasible(nbrs, degrees)
    _check_least(y, s)
    f0 = tuple(-yi for yi in y)
    env_s = PLFunction(gs, tuple(a + b for a, b in zip(f0, us.vertex_values)), None)
    env = smap.plf_back(env_s)
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
    interior = [pt for pt, _ in mu.atoms if not pt.is_vertex()]
    gs, smap = subdivide(g, interior)
    theta_s = smap.curvature(theta)
    mu_s = smap.measure(mu)
    n = gs.n_vertices
    b = [mu_s.mass_at(gs.vertex_point(v)) - theta_s.degrees[v] for v in range(n)]
    # (Delta F)_v = -b[v] off the anchor, with F(anchor) = 0: the grounded
    # Laplacian, positive definite on a connected graph (the anchor's row is
    # implied: rows sum to zero)
    nbrs = _conductances(gs)
    factor = LDLFactor()
    try:
        for v in _min_degree_order(nbrs, anchor):
            _add_vertex(factor, nbrs, v, -b[v])
    except ValueError as ex:  # pragma: no cover - connected graphs are regular
        raise PotentialError(f"Laplacian solve failed: {ex}") from ex
    sol = factor.solve()
    f_vals = tuple(sol.get(v, ZERO) for v in range(n))
    f_s = PLFunction(gs, f_vals, None)
    f = smap.plf_back(f_s)
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
    diff = phi1 - phi2
    acc = ZERO
    for pt, m in total.atoms:
        acc += m * diff.value_at(pt)
    return acc / 2


def orthogonality_residual(g: MetrizedGraph, theta: CurvatureData, u: PLFunction):
    """integral of (u - P(u)) against MA(P(u)); identically zero, returned
    exactly so callers can assert it."""
    env = envelope(g, theta, u).envelope
    ma = ma_measure(g, theta, env)
    diff = u - env
    acc = ZERO
    for pt, m in ma.atoms:
        acc += m * diff.value_at(pt)
    return acc
