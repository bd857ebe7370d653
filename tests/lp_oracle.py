"""Exact rational linear programming: the test suite's general oracle.

A small dense two-phase simplex over Q with Bland's pivot rule, which makes
the solver deterministic and immune to cycling.  No floating point enters at
any stage; tolerances do not exist here.  skelpot itself solves every
problem with a method fitted to its structure; the tests check those
methods against this one.

Problems are stated as maximization over free variables by default
(`nonneg=True` restricts all variables to >= 0).  Relations are '<=', '=',
'>='.

The final basis is kept on the result, and dual multipliers are recomputed
from it on demand (`LPResult.duals`), giving an independently checkable
optimality certificate (`check_certificate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from skelpot.rat import Rat, dot, rat

from linear_oracle import solve_linear

ZERO = Rat(0)
ONE = Rat(1)

RELATIONS = ("<=", "=", ">=")


class LPError(Exception):
    pass


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective . x  subject to constraints; x free unless nonneg."""

    objective: tuple
    constraints: tuple  # of (coeffs, rel, rhs)
    nonneg: bool = False

    def __init__(self, objective, constraints, nonneg=False):
        obj = tuple(rat(c) for c in objective)
        rows = []
        for coeffs, rel, rhs in constraints:
            if rel not in RELATIONS:
                raise LPError(f"unknown relation {rel!r}")
            coeffs = tuple(rat(c) for c in coeffs)
            if len(coeffs) != len(obj):
                raise LPError("constraint arity does not match objective")
            rows.append((coeffs, rel, rat(rhs)))
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "constraints", tuple(rows))
        object.__setattr__(self, "nonneg", bool(nonneg))

    @property
    def n_vars(self) -> int:
        return len(self.objective)


@dataclass
class LPResult:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    point: tuple | None = None
    value: object = None
    _solver: object = field(default=None, repr=False)

    def duals(self) -> tuple:
        """Dual multipliers per original constraint, from the final basis."""
        if self.status != "optimal":
            raise LPError("duals exist only for optimal results")
        return self._solver.extract_duals()


class _Simplex:
    """Tableau simplex on the standard form max c.x, Ax = b, x >= 0, b >= 0."""

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        n = lp.n_vars
        # Column layout: original variables first (split x = x+ - x- when
        # free), then one slack/surplus per inequality, then artificials.
        self.var_cols = []
        cols = 0
        for _ in range(n):
            if lp.nonneg:
                self.var_cols.append((cols, None))
                cols += 1
            else:
                self.var_cols.append((cols, cols + 1))
                cols += 2
        rows = []
        self.row_sign = []
        for coeffs, rel, rhs in lp.constraints:
            if rhs < 0:
                coeffs = tuple(-c for c in coeffs)
                rhs = -rhs
                rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
                self.row_sign.append(-1)
            else:
                self.row_sign.append(1)
            rows.append((coeffs, rel, rhs))
        self.slack_col = {}
        for i, (_, rel, _) in enumerate(rows):
            if rel in ("<=", ">="):
                self.slack_col[i] = cols
                cols += 1
        self.art_col = {}
        for i, (_, rel, _) in enumerate(rows):
            if rel in (">=", "="):
                self.art_col[i] = cols
                cols += 1
        self.ncols = cols
        self.nart = len(self.art_col)
        # Build tableau rows [a_0 .. a_{ncols-1} | rhs].
        T = []
        basis = []
        for i, (coeffs, rel, rhs) in enumerate(rows):
            row = [ZERO] * (cols + 1)
            for j, c in enumerate(coeffs):
                pos, neg = self.var_cols[j]
                row[pos] += c
                if neg is not None:
                    row[neg] -= c
            if i in self.slack_col:
                row[self.slack_col[i]] = ONE if rel == "<=" else -ONE
            if i in self.art_col:
                row[self.art_col[i]] = ONE
                basis.append(self.art_col[i])
            else:
                basis.append(self.slack_col[i])
            row[cols] = rhs
            T.append(row)
        self.T = T
        self.basis = basis
        self.forbidden = set()  # artificial columns, after phase 1

    # -- core pivoting ---------------------------------------------------

    def _pivot(self, row_idx, col):
        T = self.T
        prow = T[row_idx]
        inv = ONE / prow[col]
        T[row_idx] = prow = [x * inv for x in prow]
        for r in range(len(T)):
            if r == row_idx:
                continue
            rr = T[r]
            f = rr[col]
            if f != 0:
                T[r] = [x - f * y for x, y in zip(rr, prow)]
        zr = self.zrow
        f = zr[col]
        if f != 0:
            self.zrow = [x - f * y for x, y in zip(zr, prow)]
        self.basis[row_idx] = col

    def _set_objective(self, cvec):
        """cvec over standard-form columns; rebuild the reduced-cost row."""
        self.cvec = list(cvec)
        zr = list(cvec) + [ZERO]
        for r, bcol in enumerate(self.basis):
            cb = cvec[bcol]
            if cb != 0:
                zr = [x - cb * y for x, y in zip(zr, self.T[r])]
        self.zrow = zr

    def _bland(self) -> str:
        """Run Bland's rule to optimality.  Returns 'optimal'|'unbounded'."""
        T = self.T
        ncols = self.ncols
        while True:
            zr = self.zrow
            enter = -1
            for j in range(ncols):
                if j in self.forbidden:
                    continue
                if zr[j] > 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            best = None  # (ratio, basis_var, row)
            for r in range(len(T)):
                a = T[r][enter]
                if a > 0:
                    ratio = T[r][ncols] / a
                    key = (ratio, self.basis[r])
                    if best is None or key < best:
                        best = (ratio, self.basis[r], r)
            if best is None:
                return "unbounded"
            self._pivot(best[2], enter)

    # -- phases ----------------------------------------------------------

    def solve(self) -> str:
        if self.nart:
            phase1 = [ZERO] * self.ncols
            for col in self.art_col.values():
                phase1[col] = -ONE
            self._set_objective(phase1)
            st = self._bland()
            assert st == "optimal"  # phase 1 is bounded by 0
            if self.zrow[self.ncols] != 0:
                # max of -(sum of artificials) < 0
                return "infeasible"
            self._evict_artificials()
            self.forbidden = set(self.art_col.values())
        self._set_objective(self._map_objective(self.lp.objective))
        return self._bland()

    def _evict_artificials(self):
        arts = set(self.art_col.values())
        for r in range(len(self.T)):
            if self.basis[r] in arts:
                row = self.T[r]
                piv = next(
                    (j for j in range(self.ncols) if j not in arts and row[j] != 0),
                    None,
                )
                if piv is not None:
                    self._pivot(r, piv)
                # else: the row is 0 = 0 (redundant); harmless to keep, the
                # artificial stays basic at value 0 and is never entered.

    def _map_objective(self, objective):
        cvec = [ZERO] * self.ncols
        for j, c in enumerate(objective):
            c = rat(c)
            pos, neg = self.var_cols[j]
            cvec[pos] += c
            if neg is not None:
                cvec[neg] -= c
        return cvec

    # -- extraction ------------------------------------------------------

    def extract_point(self) -> tuple:
        vals = [ZERO] * self.ncols
        for r, bcol in enumerate(self.basis):
            vals[bcol] = self.T[r][self.ncols]
        pt = []
        for pos, neg in self.var_cols:
            x = vals[pos]
            if neg is not None:
                x -= vals[neg]
            pt.append(x)
        return tuple(pt)

    def objective_value(self) -> Rat:
        # zrow rhs holds -(current objective value) relative to 0 start
        return -self.zrow[self.ncols]

    def extract_duals(self) -> tuple:
        """Solve y . A_B = c_B on the standard-form basis columns."""
        m = len(self.T)
        # Column vectors of the ORIGINAL standard-form matrix for the basis.
        A = self._std_matrix()
        mat = [[A[i][bcol] for i in range(m)] for bcol in self.basis]
        rhs = [self.cvec[bcol] for bcol in self.basis]
        y = solve_linear(mat, rhs)
        return tuple(
            y[i] * self.row_sign[i] for i in range(m)
        )

    def _std_matrix(self):
        if not hasattr(self, "_std"):
            lp = self.lp
            m = len(lp.constraints)
            A = [[ZERO] * self.ncols for _ in range(m)]
            for i, (coeffs, rel, rhs) in enumerate(lp.constraints):
                sign = self.row_sign[i]
                for j, c in enumerate(coeffs):
                    pos, neg = self.var_cols[j]
                    A[i][pos] += sign * c
                    if neg is not None:
                        A[i][neg] -= sign * c
                if i in self.slack_col:
                    rel_n = rel if sign == 1 else {"<=": ">=", ">=": "<="}[rel]
                    A[i][self.slack_col[i]] = ONE if rel_n == "<=" else -ONE
                if i in self.art_col:
                    A[i][self.art_col[i]] = ONE
            self._std = A
        return self._std


def lp_solve(lp: LinearProgram) -> LPResult:
    """Solve exactly; deterministic for fixed input (Bland's rule)."""
    solver = _Simplex(lp)
    status = solver.solve()
    if status != "optimal":
        return LPResult(status=status, _solver=solver)
    point = solver.extract_point()
    return LPResult(
        status="optimal",
        point=point,
        value=dot(lp.objective, point),
        _solver=solver,
    )


def check_certificate(lp: LinearProgram, result: LPResult) -> bool:
    """Verify optimality from first principles: primal feasibility, dual
    feasibility (with sign conditions per relation), complementary slackness,
    and matching objective values.  Raises LPError on any violation."""
    if result.status != "optimal":
        raise LPError("certificate applies to optimal results")
    x = result.point
    y = result.duals()
    for (coeffs, rel, rhs), yi in zip(lp.constraints, y, strict=True):
        lhs = dot(coeffs, x)
        if rel == "<=" and not lhs <= rhs:
            raise LPError("primal infeasibility in certificate")
        if rel == ">=" and not lhs >= rhs:
            raise LPError("primal infeasibility in certificate")
        if rel == "=" and lhs != rhs:
            raise LPError("primal infeasibility in certificate")
        if rel == "<=" and yi < 0:
            raise LPError("dual sign violation")
        if rel == ">=" and yi > 0:
            raise LPError("dual sign violation")
        if yi != 0 and lhs != rhs:
            raise LPError("complementary slackness violation")
    # dual feasibility: A^T y == c for free vars, >= c for nonneg vars
    for j in range(lp.n_vars):
        col = sum(
            (y[i] * lp.constraints[i][0][j] for i in range(len(lp.constraints))),
            start=ZERO,
        )
        cj = lp.objective[j]
        if lp.nonneg:
            if not col >= cj:
                raise LPError("dual feasibility violation")
            if x[j] != 0 and col != cj:
                raise LPError("complementary slackness violation (variables)")
        else:
            if col != cj:
                raise LPError("dual feasibility violation")
    dual_val = sum(
        (y[i] * lp.constraints[i][2] for i in range(len(lp.constraints))), start=ZERO
    )
    if dual_val != result.value:
        raise LPError("strong duality violation")
    return True
