"""Dense Gauss-Jordan elimination kept as a test oracle.

skelpot solves its graph-Laplacian systems with a sparse LDL^T factor that
grows one vertex at a time, and its systems of at most 3 unknowns by
cofactor expansion.  `solve_linear` takes the general route: dense
elimination with row pivoting on any square system.  The tests check the
fitted solvers against it.
"""

from __future__ import annotations

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
