"""Envelope/Monge-Ampere unit tests against hand-solved instances.

The two-vertex oracle: edge a-b of length 1 and weight 1, theta = (1, 0),
bound u = (0, -2).  Feasibility forces F(b) <= -2 and the slope row at a
forces F(a) <= F(b) + 1, so the envelope is exactly (-1, -2)."""

import pytest

from skelpot import (
    AtomicMeasure,
    CurvatureData,
    EnvelopeInfeasible,
    GraphPoint,
    MassMismatch,
    MetrizedGraph,
    PLFunction,
    dd_c,
    energy,
    envelope,
    is_theta_psh,
    ma_measure,
    orthogonality_residual,
    pl_equal,
    solve_ma,
)
from hypothesis import given, settings, strategies as st

from skelpot import potential as potential_mod
from skelpot.potential import (
    PotentialError,
    _check_least,
    _eliminate,
    _integer_slack,
    _least_feasible,
    _sample_laplacian,
    _slack,
)
from skelpot.rat import Rat

import random
from fractions import Fraction

from helpers import rand_graph, rand_nef_theta, rand_plf, rand_psh, rand_value
from linear_oracle import least_feasible_rounds, solve_linear
from lp_oracle import LinearProgram, lp_solve

EDGE = MetrizedGraph(("a", "b"), ((0, 1, 1, 1),))


def test_envelope_edge_oracle():
    theta = CurvatureData(EDGE, (1, 0))
    u = PLFunction(EDGE, (0, -2))
    res = envelope(EDGE, theta, u)
    assert res.envelope.vertex_values == (Rat(-1), Rat(-2))
    assert res.certificate.ok
    assert res.lp_summary["n_vars"] == 2


def test_envelope_infeasible_when_total_degree_negative():
    theta = CurvatureData(EDGE, (0, -1))
    with pytest.raises(EnvelopeInfeasible):
        envelope(EDGE, theta, PLFunction(EDGE, (0, 0)))


def test_envelope_fixes_psh_input():
    # V-shaped u on a length-2 edge is itself psh for theta = (1, 1)
    g = MetrizedGraph(("a", "b"), ((0, 1, 2, 1),))
    theta = CurvatureData(g, (1, 1))
    u = PLFunction(g, (0, 0), (((Rat(1), Rat(-1)),),))
    ok, _ = is_theta_psh(g, theta, u)
    assert ok
    env = envelope(g, theta, u).envelope
    assert pl_equal(env, u)


def test_ma_of_kink():
    g = MetrizedGraph(("a", "b"), ((0, 1, 2, 1),))
    theta = CurvatureData(g, (1, 1))
    u = PLFunction(g, (0, 0), (((Rat(1), Rat(-1)),),))
    mu = ma_measure(g, theta, u)
    assert mu.atoms == ((GraphPoint("e", 0, Rat(1)), Rat(2)),)
    assert mu.total_mass() == theta.total()


def test_ddc_mass_zero():
    rng = random.Random(3)
    for _ in range(10):
        g = rand_graph(rng)
        f = rand_plf(rng, g)
        assert dd_c(g, f).total_mass() == 0


def test_solve_ma_recovers_kink():
    g = MetrizedGraph(("a", "b"), ((0, 1, 2, 1),))
    theta = CurvatureData(g, (1, 1))
    mu = AtomicMeasure(g, {GraphPoint("e", 0, Rat(1)): Rat(2)})
    f = solve_ma(g, theta, mu, anchor=0)
    expect = PLFunction(g, (0, 0), (((Rat(1), Rat(-1)),),))
    assert pl_equal(f, expect)


def test_solve_ma_rejects_mass_mismatch():
    theta = CurvatureData(EDGE, (1, 0))
    with pytest.raises(MassMismatch):
        solve_ma(EDGE, theta, AtomicMeasure(EDGE, {GraphPoint("v", 0): Rat(2)}))
    with pytest.raises(MassMismatch):
        solve_ma(
            EDGE,
            theta,
            AtomicMeasure(
                EDGE, {GraphPoint("v", 0): Rat(2), GraphPoint("v", 1): Rat(-1)}
            ),
        )


def test_solve_ma_anchors_differ_by_constant():
    rng = random.Random(17)
    g = rand_graph(rng, max_v=5)
    theta = rand_nef_theta(rng, g)
    phi = rand_psh(rng, g, theta)
    mu = ma_measure(g, theta, phi)
    f0 = solve_ma(g, theta, mu, anchor=0)
    f1 = solve_ma(g, theta, mu, anchor=g.n_vertices - 1)
    c = f0.vertex_values[0] - f1.vertex_values[0]
    assert pl_equal(f0, f1.add_const(c))


def test_energy_normalization():
    rng = random.Random(23)
    for _ in range(5):
        g = rand_graph(rng, max_v=5)
        theta = rand_nef_theta(rng, g)
        phi = rand_psh(rng, g, theta)
        c = Rat(rng.randint(-5, 5), rng.randint(1, 4))
        # E(phi + c, phi) = c * total degree, and the pairing is antisymmetric
        assert energy(g, theta, phi.add_const(c), phi) == c * theta.total()
        psi = rand_psh(rng, g, theta)
        assert energy(g, theta, phi, psi) == -energy(g, theta, psi, phi)


def test_orthogonality_on_fixed_instance():
    theta = CurvatureData(EDGE, (1, 0))
    u = PLFunction(EDGE, (0, -2))
    assert orthogonality_residual(EDGE, theta, u) == 0


@pytest.mark.parametrize("breaks", [None, (((Rat(1), Rat(-3)),),)])
@pytest.mark.parametrize("t", [-1, 0, 1])
def test_envelope_on_one_vertex(t, breaks):
    """A single vertex with a loop: its Laplacian is the 1x1 zero matrix, so
    theta = -1 reaches the zero pivot.  Otherwise nothing is eliminated
    without a breakpoint; with one, the loop splits into two parallel edges
    and only the vertex is eliminated, so the breakpoint keeps its value."""
    g = MetrizedGraph(("a",), ((0, 0, 2, 1),))
    theta = CurvatureData(g, (t,))
    u = PLFunction(g, (0,), breaks)
    if t < 0:
        with pytest.raises(EnvelopeInfeasible, match="no theta-psh function exists"):
            envelope(g, theta, u)
        return
    env = envelope(g, theta, u).envelope
    if breaks is None:
        assert env.vertex_values == (Rat(0),) and env.breaks == ((),)
    elif t == 0:
        assert env.vertex_values == (Rat(-3),) and env.breaks == ((),)
    else:
        assert env.vertex_values == (Rat(-5, 2),) and env.breaks == breaks


def test_slope_report_failing_rows():
    theta = CurvatureData(EDGE, (0, 0))
    f = PLFunction(EDGE, (0, 1))
    ok, report = is_theta_psh(EDGE, theta, f)
    assert not ok
    assert [r.point for r in report.failing()] == [GraphPoint("v", 1)]


# ---------------------------------------------------------------------------
# Two routes: the least-point (LCP) envelope against the general simplex
# ---------------------------------------------------------------------------


def _lp_envelope(g, theta, u):
    """The envelope by linear programming.  The unknowns are y = u - F at
    the vertices and then at u's breakpoints, edge by edge; F is affine
    between them.  Minimise sum y over y >= 0 and the slope rows
    sum_nu (w/l)(y_nu - y_x) <= theta_x + sum_nu (w/l)(u_nu - u_x), written
    here from the edge list and u.breaks.  Returns (F, optimal value, number
    of unknowns), or None when the LP is infeasible."""
    us = list(u.vertex_values)
    chains = []
    for (a, b, length, w), row in zip(g.edges, u.breaks):
        chain = [(Rat(0), a)]
        for t, x in row:
            chain.append((t, len(us)))
            us.append(x)
        chains.append((w, chain + [(length, b)]))
    n = len(us)
    lap = [[Rat(0)] * n for _ in range(n)]
    for w, chain in chains:
        for (t0, x), (t1, z) in zip(chain, chain[1:]):
            if x != z:
                c = Rat(w) / (t1 - t0)
                lap[x][z] += c
                lap[z][x] += c
                lap[x][x] -= c
                lap[z][z] -= c
    d = list(theta.degrees) + [Rat(0)] * (n - g.n_vertices)
    rows = []
    for x in range(n):
        slope_u = sum((c * uz for c, uz in zip(lap[x], us)), start=Rat(0))
        rows.append((tuple(lap[x]), "<=", d[x] + slope_u))
    res = lp_solve(LinearProgram((-Rat(1),) * n, rows, nonneg=True))
    if res.status == "infeasible":
        return None
    f = [a - y for a, y in zip(us, res.point)]
    breaks = tuple(tuple((t, f[i]) for t, i in chain[1:-1]) for _, chain in chains)
    return PLFunction(g, f[: g.n_vertices], breaks), res.value, n


@st.composite
def _envelope_instances(draw):
    """Connected multigraphs with loops and parallel edges, theta of either
    sign (negative totals are infeasible), and bounds with breakpoints."""
    q = lambda lo, hi, den: Rat(draw(st.integers(lo * den, hi * den)), den)  # noqa: E731
    n = draw(st.integers(1, 5))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    edges = [(a, b, q(1, 3, draw(st.integers(1, 4))), draw(st.integers(1, 3))) for a, b in edges]
    g = MetrizedGraph([f"v{i}" for i in range(n)], edges)
    theta = CurvatureData(g, [q(-2, 2, draw(st.integers(1, 3))) for _ in range(n)])
    breaks = []
    for _, _, length, _ in edges:
        cuts = draw(st.lists(st.integers(1, 7), max_size=2, unique=True))
        breaks.append(tuple((length * Rat(c, 8), q(-3, 3, 4)) for c in sorted(cuts)))
    u = PLFunction(g, [q(-3, 3, 4) for _ in range(n)], tuple(breaks))
    return g, theta, u


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_envelope_instances())
def test_envelope_matches_lp_oracle(instance):
    g, theta, u = instance
    expect = _lp_envelope(g, theta, u)
    if expect is None:
        with pytest.raises(EnvelopeInfeasible):
            envelope(g, theta, u)
        return
    res = envelope(g, theta, u)
    assert pl_equal(res.envelope, expect[0])
    assert res.lp_summary["objective"] == expect[1]
    assert res.lp_summary["n_vars"] == expect[2]


# ---------------------------------------------------------------------------
# Two routes: minimum-degree elimination against dense elimination and rounds
# ---------------------------------------------------------------------------


def _dense_laplacian(g):
    """The weighted Laplacian as dense rows, straight from the edge list:
    loops drop out and parallel edges add up."""
    n = g.n_vertices
    mat = [[Rat(0)] * n for _ in range(n)]
    for a, b, length, w in g.edges:
        if a != b:
            c = Rat(w) / length
            mat[a][a] += c
            mat[b][b] += c
            mat[a][b] -= c
            mat[b][a] -= c
    return mat


@st.composite
def _laplacian_instances(draw):
    """A connected multigraph with loops, parallel edges and rational
    conductances w/l; a right-hand side; the vertices in a random order, cut
    into the batches in which J grows; and an anchor."""
    q = lambda lo, hi, den: Rat(draw(st.integers(lo * den, hi * den)), den)  # noqa: E731
    n = draw(st.integers(2, 8))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
    edges = [(a, b, q(1, 5, draw(st.integers(1, 6))), draw(st.integers(1, 3))) for a, b in edges]
    g = MetrizedGraph([f"v{i}" for i in range(n)], edges)
    rhs = [q(-4, 4, draw(st.integers(1, 5))) for _ in range(n)]
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 2)))) if n > 2 else []
    return g, rhs, order, cuts, draw(st.integers(0, n - 1))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_laplacian_instances())
def test_laplacian_factor_matches_dense_elimination(instance):
    """_eliminate against dense elimination: Delta_JJ x = -d_J as J grows
    batch by batch (the envelope's systems), the Laplacian grounded at the
    anchor (solve_ma's system), and J = every vertex, where the last pivot
    is zero."""
    g, d, order, cuts, anchor = instance
    n = g.n_vertices
    lap = _dense_laplacian(g)
    nbrs = _sample_laplacian(g, ())[0]
    for hi in cuts + [n - 1]:
        J = order[:hi]
        expect = [Rat(0)] * n
        sol = solve_linear([[lap[a][b] for b in J] for a in J], [-d[v] for v in J])
        for v, x in zip(J, sol):
            expect[v] = x
        assert _eliminate(nbrs, d, lambda v, dv: v in J) == expect

    mat = [row[:] for row in lap]
    mat[anchor] = [Rat(int(j == anchor)) for j in range(n)]
    expect = solve_linear(mat, [Rat(0) if v == anchor else -d[v] for v in range(n)])
    assert _eliminate(nbrs, d, lambda v, dv: v != anchor) == list(expect)

    with pytest.raises(ValueError, match="zero pivot"):
        _eliminate(nbrs, d, lambda v, dv: True)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_laplacian_instances())
def test_least_feasible_matches_rounds(instance):
    """The least feasible point by elimination on negative reduced slack
    against Chandrasekaran's rounds with a dense solve per round: the same
    y, or EnvelopeInfeasible from both.  d has both signs, and its total
    (the total degree) is often negative."""
    g, d, _, _, _ = instance
    nbrs = _sample_laplacian(g, ())[0]
    try:
        expect = least_feasible_rounds(nbrs, d)
    except EnvelopeInfeasible:
        with pytest.raises(EnvelopeInfeasible, match="no theta-psh function exists"):
            _least_feasible(nbrs, d)
        return
    assert _least_feasible(nbrs, d)[0] == expect


_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


def test_laplacian_elimination_stays_in_int(monkeypatch):
    """With Fraction's arithmetic made to raise, _eliminate and
    _least_feasible still run on random graphs with rational lengths,
    sampled at the vertices and at breakpoints: the elimination and the
    slack compute in int, and only the results are built as Rats.  Checked
    afterwards with Fraction arithmetic: the grounded solve leaves zero
    slack off the anchor, and the least point agrees with the rounds."""
    rng = random.Random(251)
    cases = []
    for _ in range(60):
        g = rand_graph(rng)
        nbrs = _sample_laplacian(g, rand_plf(rng, g).breakpoints())[0]
        cases.append((nbrs, [rand_value(rng) for _ in nbrs], rng.randrange(g.n_vertices)))

    def least(nbrs, d):
        try:
            return _least_feasible(nbrs, d)
        except EnvelopeInfeasible:
            return None

    def no_arithmetic(*args):
        raise AssertionError("Fraction arithmetic in the Laplacian kernel")

    for name in _ARITHMETIC:
        monkeypatch.setattr(Fraction, name, no_arithmetic)
    got = [
        (_eliminate(nbrs, d, lambda v, dv: v != anchor), least(nbrs, d))
        for nbrs, d, anchor in cases
    ]
    monkeypatch.undo()
    assert sum(lf is not None for _, lf in got) >= 10
    for (nbrs, d, anchor), (x, lf) in zip(cases, got):
        assert all(type(t) is Rat for t in x)
        slack = _slack(nbrs, x, d)
        assert all(s == 0 for v, s in enumerate(slack) if v != anchor) and x[anchor] == 0
        try:
            expect = least_feasible_rounds(nbrs, d)
        except EnvelopeInfeasible:
            expect = None
        assert (None if lf is None else lf[0]) == expect


def test_least_feasible_builds_the_integer_rows_once(monkeypatch):
    """_least_feasible builds _integer_rows once and eliminates on a copy:
    its certificate is the slack on the unreduced rows, as _integer_slack
    computes it from scratch."""
    rng = random.Random(252)
    cases = []
    for _ in range(30):
        g = rand_graph(rng)
        nbrs = _sample_laplacian(g, rand_plf(rng, g).breakpoints())[0]
        cases.append((nbrs, [rand_value(rng) for _ in nbrs]))
    built = []
    real = potential_mod._integer_rows
    monkeypatch.setattr(potential_mod, "_integer_rows", lambda nbrs, d: built.append(d) or real(nbrs, d))
    feasible = 0
    for nbrs, d in cases:
        built.clear()
        try:
            y, s = _least_feasible(nbrs, d)
        except EnvelopeInfeasible:
            assert len(built) == 1
            continue
        assert len(built) == 1
        assert s == _integer_slack(nbrs, y, d)
        _check_least(y, s)
        feasible += 1
    assert feasible >= 5


def _sign(x):
    return (x > 0) - (x < 0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_laplacian_instances(), st.data())
def test_integer_slack_matches_rational_signs(instance, data):
    """The certificate's slack on the integer rows has the sign and the
    zeros of the rational Delta y + d, at a random y and at the least
    point; _check_least accepts the least point and rejects it with any
    one entry moved up or down."""
    g, d, _, _, _ = instance
    n = g.n_vertices
    nbrs = _sample_laplacian(g, ())[0]
    q = lambda: Rat(data.draw(st.integers(-12, 12)), data.draw(st.integers(1, 6)))  # noqa: E731
    y = [q() for _ in range(n)]
    assert list(map(_sign, _integer_slack(nbrs, y, d))) == list(map(_sign, _slack(nbrs, y, d)))
    try:
        y, s = _least_feasible(nbrs, d)
    except EnvelopeInfeasible:
        return
    assert list(map(_sign, s)) == list(map(_sign, _slack(nbrs, y, d)))
    _check_least(y, s)
    v = data.draw(st.integers(0, n - 1))
    step = Rat(data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9)))
    for moved in (y[v] + step, y[v] - step):
        z = y[:v] + [moved] + y[v + 1 :]
        s = _integer_slack(nbrs, z, d)
        assert list(map(_sign, s)) == list(map(_sign, _slack(nbrs, z, d)))
        with pytest.raises(PotentialError, match="least-point certificate"):
            _check_least(z, s)
