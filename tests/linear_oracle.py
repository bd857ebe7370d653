"""Dense Gauss-Jordan elimination and Chandrasekaran's rounds, kept as
test oracles.

skelpot solves its graph-Laplacian systems by one sparse fraction-free
elimination in minimum-degree order (`potential._eliminate`), on rows
scaled to ints, which finds the envelope's least feasible point by
pivoting only on negative reduced slack, and its systems of at most 3
unknowns by cofactor expansion.  The oracles here compute in Rat.
`solve_linear` takes the general route: dense elimination with row
pivoting on any square system.  `least_feasible_rounds` finds the least
feasible point the way skelpot once did, in rounds that each solve one
dense system.  The tests check the fitted solvers against both.
"""

from __future__ import annotations

from skelpot.potential import EnvelopeInfeasible
from skelpot.rat import Rat


def solve_linear(matrix, rhs):
    """Solve M x = b exactly by Gaussian elimination.

    matrix: list of rows (Rat), rhs: list (Rat).  Returns the unique solution
    or raises ValueError if the system is singular/inconsistent.  Square only.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("square systems only")
    aug = [[Rat(x) for x in row] + [Rat(b)] for row, b in zip(matrix, rhs, strict=True)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        aug[col], aug[piv] = aug[piv], aug[col]
        prow = aug[col]
        inv = 1 / prow[col]
        aug[col] = [x * inv for x in prow]
        prow = aug[col]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], prow)]
    return tuple(aug[r][n] for r in range(n))


def least_feasible_rounds(nbrs, d):
    """Least y >= 0 with Delta y + d >= 0 by Chandrasekaran's algorithm
    (Oper. Res. 18, 1970), where nbrs[v] maps each neighbour of v to the
    conductance between them.

    J collects the vertices where y > 0 is forced, in the order they join:
    each round solves Delta_JJ y_J = -d_J densely, with y = 0 off J, and
    every vertex whose slack (Delta y + d)_v is still negative joins J.  y
    only grows, and a vertex where the least feasible point vanishes never
    joins, so J = every vertex means that no feasible point exists, and
    raises EnvelopeInfeasible.  Returns y as a list."""
    n = len(d)
    y = [Rat(0)] * n
    J = []
    while True:
        grow = [
            v
            for v in range(n)
            if v not in J and d[v] + sum(c * (y[v] - y[u]) for u, c in nbrs[v].items()) < 0
        ]
        if not grow:
            return y
        J += grow
        if len(J) == n:
            raise EnvelopeInfeasible("no theta-psh function exists")
        lap = [[sum(nbrs[a].values()) if a == b else -nbrs[a].get(b, 0) for b in J] for a in J]
        y = [Rat(0)] * n
        for v, x in zip(J, solve_linear(lap, [-d[v] for v in J])):
            y[v] = x
