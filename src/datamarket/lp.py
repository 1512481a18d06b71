"""Dense linear-program solver: two-phase primal simplex on a numpy tableau.

Problems are stated as ``maximize c.x subject to A x (relations) b, x >= 0``
with each relation one of ``"<="``, ``"="``, ``">="``.  The solver returns an
optimal basic feasible solution (a vertex of the feasible region) whenever
the optimum is finite.

Pivoting uses largest-coefficient pricing: the entering column is the one
with the largest reduced cost, ties going to the lowest index, and the
leaving row passes the minimum-ratio test, ties going to the lowest basic
variable.  Largest-coefficient pricing can cycle on a degenerate vertex, so
after ``_DEGENERATE_RUN`` consecutive degenerate pivots the entering column
is chosen by Bland's lowest-index rule instead, until the next nondegenerate
pivot.  Bland's rule cannot cycle and every nondegenerate pivot strictly
improves the objective, so the method terminates.  Every choice is a fixed
function of the tableau, so the solver is deterministic for a fixed input.

Every problem takes the same path, including one without rows or without
artificial variables: phase 1 then ends at once with a residual of 0.

An optimal solution carries the row duals too.  They are read off the final
tableau: the columns of the starting identity basis (each row's slack or
artificial) hold the basis inverse, so ``y = c_B B^-1`` is one
vector-matrix product and needs no factorisation.  That is why the
artificial columns stay in the tableau through phase 2, barred from
entering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

PIVOT_TOL = 1e-9
FEASIBILITY_TOL = 1e-7

LESS_EQUAL = "<="
EQUAL = "="
GREATER_EQUAL = ">="
_RELATIONS = (LESS_EQUAL, EQUAL, GREATER_EQUAL)

# Consecutive degenerate pivots after which Bland's rule picks the entering
# column until the objective moves again.
_DEGENERATE_RUN = 20


@dataclass(frozen=True, eq=False)
class LpProblem:
    """maximize c . x  subject to  A[k] . x  relations[k]  b[k]  for every
    row k, with x >= 0 implicit.  All four fields are numpy arrays."""

    c: np.ndarray
    A: np.ndarray
    relations: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        A = np.asarray(self.A, dtype=float)
        relations = np.asarray(self.relations, dtype=str)
        b = np.asarray(self.b, dtype=float)
        if c.ndim != 1 or A.shape != (b.size, c.size) or relations.shape != b.shape:
            raise ValueError(
                f"inconsistent shapes: c {c.shape}, A {A.shape}, "
                f"relations {relations.shape}, b {b.shape}"
            )
        unknown = set(relations.tolist()) - set(_RELATIONS)
        if unknown:
            raise ValueError(f"unknown relation {min(unknown)!r}")
        if not np.all(np.isfinite(b)):
            raise ValueError(f"constraint rhs must be finite, got {b[~np.isfinite(b)][0]}")
        for name, value in (("c", c), ("A", A), ("relations", relations), ("b", b)):
            object.__setattr__(self, name, value)

    @classmethod
    def make(cls, objective, rows) -> "LpProblem":
        """Build from an objective and ``(coefficients, relation, rhs)`` rows."""
        c = np.array(objective, dtype=float)
        n = c.size
        coeffs, relations, rhs = [], [], []
        for row, rel, value in rows:
            row = np.array(row, dtype=float)
            if row.shape != (n,):
                raise ValueError(f"constraint has {row.size} coefficients, expected {n}")
            coeffs.append(row)
            relations.append(rel)
            rhs.append(float(value))
        A = np.array(coeffs).reshape(len(coeffs), n)
        return cls(c, A, np.array(relations, dtype=str), np.array(rhs))

    @property
    def constraints(self) -> tuple[tuple[np.ndarray, str, float], ...]:
        """``(coefficients, relation, rhs)`` per row; coefficients are views of ``A``."""
        return tuple(zip(self.A, self.relations.tolist(), self.b.tolist()))

    @property
    def num_variables(self) -> int:
        return self.c.size


@dataclass(frozen=True)
class LpSolution:
    status: str
    x: tuple[float, ...]
    objective_value: float
    phase1_pivots: int = 0  # includes pivots that move artificials out of the basis
    phase2_pivots: int = 0
    degenerate_pivots: int = 0  # simplex pivots whose step was at most PIVOT_TOL
    # one per constraint row on an optimal status: >= 0 on "<=" rows, <= 0 on
    # ">=" rows, free on "=" rows; b . duals equals the objective value
    duals: tuple[float, ...] = ()


class _Tableau:
    """Standard-form tableau: original variables, then slacks/surpluses, then
    artificials, then the rhs; rows already normalized to non-negative rhs."""

    def __init__(self, problem: LpProblem):
        m, n = problem.A.shape
        flip = problem.b < 0
        rel = problem.relations
        rel = np.where(flip & (rel == LESS_EQUAL), GREATER_EQUAL,
                       np.where(flip & (rel == GREATER_EQUAL), LESS_EQUAL, rel))
        sign = np.where(flip, -1.0, 1.0)
        slack_rows = np.flatnonzero(rel != EQUAL)
        art_rows = np.flatnonzero(rel != LESS_EQUAL)
        n_slack, n_art = slack_rows.size, art_rows.size
        slack_cols = n + np.arange(n_slack)
        art_cols = n + n_slack + np.arange(n_art)

        T = np.zeros((m, n + n_slack + n_art + 1))
        np.multiply(problem.A, sign[:, None], out=T[:, :n])
        T[:, -1] = problem.b * sign
        T[slack_rows, slack_cols] = np.where(rel[slack_rows] == LESS_EQUAL, 1.0, -1.0)
        T[art_rows, art_cols] = 1.0
        basis = np.empty(m, dtype=np.intp)
        basis[slack_rows] = slack_cols  # every <= row keeps its slack basic
        basis[art_rows] = art_cols

        self.T = T
        self.basis = basis
        self.identity = basis.copy()  # row r's column of the starting identity basis
        self.sign = sign
        self.n_original = n
        self.n_structural = n + n_slack
        self.pivots = [0, 0]  # per phase; artificials leaving the basis count in phase 1
        self.phase = 0
        self.degenerate_pivots = 0

    def _pivot(self, row: int, col: int, reduced: np.ndarray | None = None) -> None:
        """Pivot in place, touching only the rows the pivot column reaches."""
        T = self.T
        pivot_row = T[row]
        pivot_row /= pivot_row[col]
        factors = T[:, col].tolist()
        for r in np.flatnonzero(T[:, col]).tolist():
            if r != row:
                T[r] -= factors[r] * pivot_row
        if reduced is not None:
            reduced -= reduced[col] * pivot_row[:reduced.size]
        self.basis[row] = col
        self.pivots[self.phase] += 1

    def _leaving_row(self, col: int) -> int:
        """Minimum-ratio row for entering ``col``; ties within PIVOT_TOL go to
        the lower basic variable.  -1 when no entry of the column is positive."""
        T = self.T
        column = T[:, col]
        rows = np.flatnonzero(column > PIVOT_TOL)
        ratios = T[rows, -1] / column[rows]
        basis = self.basis
        leaving = -1
        best_ratio = math.inf
        for r, ratio in zip(rows.tolist(), ratios.tolist()):
            if ratio < best_ratio - PIVOT_TOL or (
                abs(ratio - best_ratio) <= PIVOT_TOL
                and leaving >= 0
                and basis[r] < basis[leaving]
            ):
                best_ratio = ratio
                leaving = r
        return leaving

    def _run_simplex(self, cost: np.ndarray) -> bool:
        """Maximize cost.x over the tableau's first ``cost.size`` columns,
        which are the only ones that may enter.

        Returns False, leaving the tableau where it stopped, when an
        improving column has no positive entry (the objective is unbounded).
        """
        T = self.T
        # basic columns stay exact unit vectors, so their reduced costs stay 0
        reduced = cost - cost[self.basis] @ T[:, :cost.size]
        reduced[self.basis] = 0.0
        degenerate_run = 0
        while True:
            if degenerate_run < _DEGENERATE_RUN:
                entering = int(np.argmax(reduced))
                if reduced[entering] <= PIVOT_TOL:
                    return True
            else:
                improving = np.flatnonzero(reduced > PIVOT_TOL)
                if not improving.size:
                    return True
                entering = int(improving[0])
            leaving = self._leaving_row(entering)
            if leaving < 0:
                return False
            step = T[leaving, -1] / T[leaving, entering]
            self._pivot(leaving, entering, reduced)
            if step <= PIVOT_TOL:
                degenerate_run += 1
                self.degenerate_pivots += 1
            else:
                degenerate_run = 0

    def phase_one(self) -> float:
        """Drive artificials to zero; returns the residual infeasibility."""
        cost = np.zeros(self.T.shape[1] - 1)
        cost[self.n_structural:] = -1.0
        self._run_simplex(cost)
        return float(self.T[self.basis >= self.n_structural, -1].sum())

    def drop_artificials(self) -> None:
        """Pivot basic artificials out, or drop their rows when redundant.
        The artificial columns stay for the duals; phase 2 never enters them."""
        keep = np.ones(self.T.shape[0], dtype=bool)
        for r in np.flatnonzero(self.basis >= self.n_structural).tolist():
            candidates = np.flatnonzero(np.abs(self.T[r, : self.n_structural]) > PIVOT_TOL)
            if candidates.size:
                self._pivot(r, int(candidates[0]))
            else:
                keep[r] = False  # redundant: all zeros over the real columns
        if not keep.all():
            self.T = self.T[keep]
            self.basis = self.basis[keep]

    def phase_two(self, objective: np.ndarray) -> bool:
        """Maximize the objective; False when it is unbounded."""
        self.phase = 1
        self.cost = np.zeros(self.n_structural)
        self.cost[: self.n_original] = objective
        return self._run_simplex(self.cost)

    def result(self, status: str) -> LpSolution:
        counts = dict(phase1_pivots=self.pivots[0], phase2_pivots=self.pivots[1],
                      degenerate_pivots=self.degenerate_pivots)
        if status == INFEASIBLE:
            return LpSolution(INFEASIBLE, (), math.nan, **counts)
        if status == UNBOUNDED:
            return LpSolution(UNBOUNDED, (), math.inf, **counts)
        x = np.zeros(self.n_structural)
        x[self.basis] = self.T[:, -1]
        primal = x[: self.n_original]
        # y = c_B B^-1; a dropped redundant row has dual 0, absent from the sum
        duals = self.cost[self.basis] @ self.T[:, self.identity] * self.sign
        return LpSolution(OPTIMAL, tuple(primal.tolist()),
                          float(self.cost[: self.n_original] @ primal), **counts,
                          duals=tuple(duals.tolist()))


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve ``problem``; status is optimal, infeasible, or unbounded.

    On an optimal status the returned ``x`` is a basic feasible solution: it
    satisfies every constraint within ``FEASIBILITY_TOL`` and has at most as
    many positive entries as the standard-form tableau has rows.
    """
    tab = _Tableau(problem)
    if tab.phase_one() > FEASIBILITY_TOL:
        return tab.result(INFEASIBLE)
    tab.drop_artificials()
    if not tab.phase_two(problem.c):
        return tab.result(UNBOUNDED)
    return tab.result(OPTIMAL)


def check_feasible(problem: LpProblem) -> bool:
    """Phase-1 only: does a feasible point exist (within tolerance)?"""
    return _Tableau(problem).phase_one() <= FEASIBILITY_TOL


def constraint_residuals(problem: LpProblem, x) -> list[float]:
    """Violation amount of each constraint at ``x`` (0 when satisfied)."""
    excess = problem.A @ np.asarray(x, dtype=float) - problem.b
    rel = problem.relations
    return np.where(rel == LESS_EQUAL, np.maximum(excess, 0.0),
                    np.where(rel == GREATER_EQUAL, np.maximum(-excess, 0.0),
                             np.abs(excess))).tolist()
