"""Dense linear-program solver: two-phase primal simplex on a numpy tableau.

Problems are stated as ``maximize c.x subject to A x (relations) b, x >= 0``
with each relation one of ``"<="``, ``"="``, ``">="``.  The solver returns an
optimal basic feasible solution (a vertex of the feasible region) whenever
the optimum is finite.

A tableau is optimal when no reduced cost exceeds ``PIVOT_TOL``.  Otherwise
the entering column is the one with the largest reduced cost, ties going to
the lowest index (largest-coefficient pricing).  The leaving row is, among
the rows whose entry in that column exceeds ``PIVOT_TOL`` and whose ratio
lies within ``PIVOT_TOL`` of the minimum ratio, the one whose basic
variable is lowest: Bland's leaving rule under a tolerance.
Largest-coefficient pricing can cycle on a degenerate vertex, so after
``_DEGENERATE_RUN`` consecutive degenerate pivots the entering column is the
lowest-index one whose reduced cost exceeds ``PIVOT_TOL`` (Bland's entering
rule) instead, until the next nondegenerate pivot.  Bland's rule cannot
cycle and every nondegenerate pivot strictly improves the objective, so the
method terminates.  Every choice is a fixed function of the tableau, so the
solver is deterministic for a fixed input.

Every LP runs on one ``Tableau`` and its ``solve``: phase 1, then phase 2.
A caller that knows part of a feasible basis names it as a crash start, and
phase 1 covers only the rows it leaves out; with none left out, phase 1 ends
at once with no pivots.  ``Tableau.crash`` makes such a start by one
elimination, not a pivot per row, and adds the start's right-hand sides in
a fixed order.  The constructor calls it, and a caller may call it again to
extend the basis from the right-hand sides the first crash left.  A crash
counts as no pivot, so the pivot counts cover only the simplex.  The tableau
outlives its solves and takes new columns between them: column generation
then continues phase 2 from the previous optimum, whose basis stays feasible
when columns are added.  ``solve_lp`` solves a problem on a fresh tableau
with no crash start.

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

from .revenue import left_to_right

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


class Tableau:
    """Standard-form tableau: original variables, then slacks/surpluses, then
    artificials, then the rhs; rows already normalized to non-negative rhs.

    It outlives its solves and takes new columns between them.  ``rows[i]``
    starts with original column ``columns[i]`` basic (a crash start, made by
    ``crash``); every other row keeps its slack or artificial, which phase 1
    drives out.  The starting identity columns keep holding the basis
    inverse, so a new column's entries are that inverse times the column.
    Added columns follow the problem's variables in ``x``, in the order they
    were added.
    """

    def __init__(self, problem: LpProblem, rows=(), columns=()):
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
        self.identity = basis.copy()  # row r's column of the starting identity basis

        self.T = T
        self.basis = basis
        self.sign = sign
        self.cost = np.zeros(n + n_slack)
        self.cost[:n] = problem.c
        self.n_original = n
        self.n_structural = n + n_slack
        self.pivots = [0, 0]  # per phase; artificials leaving the basis count in phase 1
        self.phase = 0
        self.degenerate_pivots = 0
        self.crash(rows, columns)

    def crash(self, rows, columns) -> None:
        """Make ``columns[i]`` basic in ``rows[i]`` by one elimination, counted
        as no pivot.  Each column must be a unit vector on the named rows, 1
        in its own, and the new basis must leave every right-hand side
        non-negative (within ``FEASIBILITY_TOL``); otherwise ``ValueError``
        is raised before the tableau changes.  The new right-hand sides add
        their terms left to right, in ``rows`` order, as ``revenue`` adds a
        desire, not in the BLAS kernel's order."""
        T = self.T
        rows = np.asarray(rows, dtype=np.intp)
        columns = np.asarray(columns, dtype=np.intp)
        if not np.array_equal(T[np.ix_(rows, columns)], np.eye(rows.size)):
            raise ValueError("each starting column must be a unit vector on the named rows")
        others = np.ones(T.shape[0], dtype=bool)
        others[rows] = False
        touched = np.flatnonzero(others & T[:, columns].any(axis=1))
        factors = T[np.ix_(touched, columns)]
        eliminated = T[touched] - factors @ T[rows]
        eliminated[:, -1] = T[touched, -1] - left_to_right(factors * T[rows, -1])
        if (eliminated[:, -1] < -FEASIBILITY_TOL).any():
            raise ValueError("the starting basis is infeasible")
        T[touched] = eliminated
        self.basis[rows] = columns

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
        """Among the rows within PIVOT_TOL of the minimum ratio for entering
        ``col``, the one whose basic variable is lowest: Bland's leaving rule
        under a tolerance.  -1 when no entry of the column is positive."""
        column = self.T[:, col]
        rows = np.flatnonzero(column > PIVOT_TOL)
        if not rows.size:
            return -1
        ratios = self.T[rows, -1] / column[rows]
        tied = rows[ratios <= ratios.min() + PIVOT_TOL]
        return int(tied[np.argmin(self.basis[tied])])

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
            entering = int(np.argmax(reduced))
            if reduced[entering] <= PIVOT_TOL:
                return True
            if degenerate_run >= _DEGENERATE_RUN:  # Bland: the lowest improving column
                entering = int(np.argmax(reduced > PIVOT_TOL))
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

    def add_columns(self, c, A) -> None:
        """Append variables with objective ``c`` and constraint columns ``A``
        (one row per problem row); the current basis stays feasible."""
        A = np.asarray(A, dtype=float)
        entries = self.T[:, self.identity] @ (A * self.sign[:, None])
        n, added = self.n_original, entries.shape[1]
        self.T = np.concatenate((self.T[:, :n], entries, self.T[:, n:]), axis=1)
        self.basis[self.basis >= n] += added
        self.identity += added
        self.n_original += added
        self.n_structural += added
        self.cost = np.concatenate((self.cost[:n], c, self.cost[n:]))

    def solve(self) -> LpSolution:
        """Solve from the current basis; status is optimal, infeasible, or
        unbounded.  The first call runs phase 1, which ends at once with no
        pivots when no artificial is basic, and then phase 2; a later call,
        after ``add_columns``, continues phase 2 from the previous optimum.

        On an optimal status ``x`` is a basic feasible solution: it satisfies
        every constraint within ``FEASIBILITY_TOL`` and has at most as many
        positive entries as the standard-form tableau has rows.
        """
        if not self.phase:
            if self.phase_one() > FEASIBILITY_TOL:
                return self.result(INFEASIBLE)
            self.drop_artificials()
            self.phase = 1
        return self.result(OPTIMAL if self._run_simplex(self.cost) else UNBOUNDED)

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
    """Solve ``problem`` on a fresh tableau; see ``Tableau.solve``."""
    return Tableau(problem).solve()


def check_feasible(problem: LpProblem) -> bool:
    """Phase-1 only: does a feasible point exist (within tolerance)?"""
    return Tableau(problem).phase_one() <= FEASIBILITY_TOL


def constraint_residuals(problem: LpProblem, x) -> list[float]:
    """Violation amount of each constraint at ``x`` (0 when satisfied)."""
    excess = problem.A @ np.asarray(x, dtype=float) - problem.b
    rel = problem.relations
    return np.where(rel == LESS_EQUAL, np.maximum(excess, 0.0),
                    np.where(rel == GREATER_EQUAL, np.maximum(-excess, 0.0),
                             np.abs(excess))).tolist()
