import math
import random

import numpy as np
import pytest

from datamarket import lp
from datamarket.fixtures import gen_random
from datamarket.plc_opt import build_pricing_lp
from oracle_util import lp_vertex_enumeration


def make(objective, rows):
    return lp.LpProblem.make(objective, rows)


def test_single_variable_bound():
    sol = lp.solve_lp(make([1.0], [((1.0,), "<=", 1.0)]))
    assert sol.status == lp.OPTIMAL
    assert sol.x == (1.0,)
    assert sol.objective_value == pytest.approx(1.0)


def test_degenerate_tie_resolved_by_lowest_index():
    sol = lp.solve_lp(make([1.0, 1.0], [((1.0, 1.0), "<=", 1.0)]))
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == pytest.approx(1.0)
    assert sol.x == (1.0, 0.0)


def test_infeasible():
    sol = lp.solve_lp(make([1.0], [((1.0,), ">=", 2.0), ((1.0,), "<=", 1.0)]))
    assert sol.status == lp.INFEASIBLE


def test_unbounded():
    sol = lp.solve_lp(make([1.0], [((-1.0,), "<=", 1.0)]))
    assert sol.status == lp.UNBOUNDED


def test_no_constraints():
    assert lp.solve_lp(make([-1.0, 0.0], [])).x == (0.0, 0.0)
    assert lp.solve_lp(make([1.0], [])).status == lp.UNBOUNDED


def test_equality_row():
    sol = lp.solve_lp(make([1.0, 0.0], [((1.0, 1.0), "=", 1.0)]))
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == pytest.approx(1.0)
    assert sol.x == pytest.approx((1.0, 0.0))


def test_negative_rhs_normalization():
    # x >= -1 is vacuous under x >= 0
    sol = lp.solve_lp(make([-1.0], [((1.0,), ">=", -1.0)]))
    assert sol.status == lp.OPTIMAL
    assert sol.x == (0.0,)


def test_beale_cycling_example_terminates():
    # classic degenerate LP that cycles under naive pivoting; optimum is 1/20
    rows = [
        ((0.25, -60.0, -1 / 25, 9.0), "<=", 0.0),
        ((0.5, -90.0, -1 / 50, 3.0), "<=", 0.0),
        ((0.0, 0.0, 1.0, 0.0), "<=", 1.0),
    ]
    sol = lp.solve_lp(make([0.75, -150.0, 1 / 50, -6.0], rows))
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == pytest.approx(0.05)


def test_degenerate_fallback_engages_and_terminates():
    # Beale's example cycles under largest-coefficient pricing, so only the
    # switch to Bland's rule after a run of degenerate pivots ends the solve
    rows = [
        ((0.25, -60.0, -1 / 25, 9.0), "<=", 0.0),
        ((0.5, -90.0, -1 / 50, 3.0), "<=", 0.0),
        ((0.0, 0.0, 1.0, 0.0), "<=", 1.0),
    ]
    sol = lp.solve_lp(make([0.75, -150.0, 1 / 50, -6.0], rows))
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == pytest.approx(0.05)
    assert sol.degenerate_pivots >= lp._DEGENERATE_RUN
    assert sol.phase1_pivots == 0  # all rows are <= with rhs >= 0


def test_repeated_solves_are_identical():
    problem = build_pricing_lp(gen_random(20, 10, seed=3))
    first, second = lp.solve_lp(problem), lp.solve_lp(problem)
    assert first == second  # x, duals and pivot counts alike


def test_pivot_count_guard():
    # Bland's rule alone takes 966 pivots on this slack-budget instance
    sol = lp.solve_lp(build_pricing_lp(gen_random(30, 15, 41028, budget_scale=16)))
    assert sol.status == lp.OPTIMAL
    assert sol.phase1_pivots == 15  # one per shard-size equality row
    assert sol.phase1_pivots + sol.phase2_pivots <= 140


def test_check_feasible():
    assert lp.check_feasible(make([0.0], [((1.0,), "<=", 1.0)]))
    assert not lp.check_feasible(make([0.0], [((1.0,), "<=", -1.0)]))
    assert lp.check_feasible(make([0.0, 0.0], []))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        make([1.0, 2.0], [((1.0,), "<=", 1.0)])
    with pytest.raises(ValueError):
        make([1.0], [((1.0,), "<>", 1.0)])


def _random_bounded_problem(rng):
    n = rng.randint(1, 3)
    rows = []
    for _ in range(rng.randint(1, 4)):
        coeffs = tuple(rng.uniform(-1, 2) for _ in range(n))
        rows.append((coeffs, rng.choice(["<=", ">="]), rng.uniform(0, 2)))
    for k in range(n):  # keep the region bounded
        bound = tuple(1.0 if i == k else 0.0 for i in range(n))
        rows.append((bound, "<=", rng.uniform(0.5, 3.0)))
    objective = tuple(rng.uniform(-1, 2) for _ in range(n))
    return make(objective, rows)


def test_matches_vertex_enumeration_oracle():
    rng = random.Random(20260101)
    solved = 0
    for _ in range(120):
        problem = _random_bounded_problem(rng)
        sol = lp.solve_lp(problem)
        oracle = lp_vertex_enumeration(problem.c, problem.constraints)
        if oracle is None:
            assert sol.status == lp.INFEASIBLE
            continue
        assert sol.status == lp.OPTIMAL
        assert sol.objective_value == pytest.approx(oracle, abs=1e-7)
        solved += 1
    assert solved > 50  # the battery must actually exercise the optimal path


def test_optimal_solutions_are_basic_feasible():
    rng = random.Random(99)
    for _ in range(60):
        problem = _random_bounded_problem(rng)
        sol = lp.solve_lp(problem)
        if sol.status != lp.OPTIMAL:
            continue
        assert max(lp.constraint_residuals(problem, sol.x), default=0.0) <= 1e-7
        target = sum(c * v for c, v in zip(problem.c, sol.x))
        assert sol.objective_value == pytest.approx(target, abs=1e-7)
        assert sum(1 for v in sol.x if v > 1e-9) <= len(problem.constraints)


def _random_problem_with_equalities(rng):
    n = rng.randint(1, 4)
    rows = []
    for _ in range(rng.randint(1, 4)):
        coeffs = tuple(rng.uniform(-1, 2) for _ in range(n))
        rows.append((coeffs, rng.choice(["<=", ">=", "="]), rng.uniform(-1, 2)))
    for k in range(n):  # keep the region bounded
        bound = tuple(1.0 if i == k else 0.0 for i in range(n))
        rows.append((bound, "<=", rng.uniform(0.5, 3.0)))
    return make(tuple(rng.uniform(-1, 2) for _ in range(n)), rows)


def test_duals_satisfy_strong_duality_and_dual_feasibility():
    rng = random.Random(7)
    solved = 0
    for _ in range(200):
        problem = _random_problem_with_equalities(rng)
        sol = lp.solve_lp(problem)
        if sol.status != lp.OPTIMAL:
            continue
        solved += 1
        y = np.array(sol.duals)
        assert y.shape == problem.b.shape
        assert problem.b @ y == pytest.approx(problem.c @ np.array(sol.x), abs=1e-9)
        assert np.all(problem.c - y @ problem.A <= 1e-9)  # no column prices in
        rel = problem.relations
        assert np.all(y[rel == "<="] >= -1e-12)
        assert np.all(y[rel == ">="] <= 1e-12)
    assert solved > 50


def test_duals_match_highs_marginals_on_a_nondegenerate_lp():
    linprog = pytest.importorskip("scipy.optimize").linprog
    # optimum x = (3.2, 0.3, 0.5) with four positive basics: nondegenerate
    problem = make([3.0, 2.0, 1.0], [((1.0, 1.0, 1.0), "<=", 4.0),
                                     ((1.0, 3.0, 0.0), "<=", 6.0),
                                     ((1.0, 0.0, 0.0), "<=", 3.2),
                                     ((0.0, 0.0, 1.0), "=", 0.5)])
    sol = lp.solve_lp(problem)
    assert sol.x == pytest.approx((3.2, 0.3, 0.5))
    res = linprog(-problem.c, A_ub=problem.A[:3], b_ub=problem.b[:3],
                  A_eq=problem.A[3:], b_eq=problem.b[3:], method="highs")
    # HiGHS minimizes -c.x, so its marginals are the negated duals
    want = -np.concatenate((res.ineqlin.marginals, res.eqlin.marginals))
    assert sol.duals == pytest.approx(want.tolist(), abs=1e-12)
    assert sol.duals == pytest.approx([2.0, 0.0, 1.0, -1.0], abs=1e-12)


def test_a_redundant_equality_row_is_dropped_with_dual_zero():
    # the second row repeats the first, so its artificial stays basic at zero
    # after phase 1 with no real column to pivot on, and the row is dropped
    problem = make([1.0, 1.0], [((1.0, 1.0), "=", 1.0), ((1.0, 1.0), "=", 1.0),
                                ((1.0, 0.0), "<=", 0.7)])
    tab = lp.Tableau(problem)
    assert tab.phase_one() == 0.0
    tab.drop_artificials()
    assert tab.T.shape[0] == 2
    sol = lp.solve_lp(problem)
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == 1.0
    assert sol.duals[1] == 0.0
    assert problem.b @ np.array(sol.duals) == pytest.approx(sol.objective_value, abs=1e-12)
    assert lp.constraint_residuals(problem, sol.x) == pytest.approx([0.0] * 3, abs=1e-12)


def test_live_tableau_matches_a_cold_solve_as_columns_arrive():
    # x0 + x1 = 1, x1 + x2 <= 0.5, x0 - x2 <= 1.2; x0 starts basic in row 0
    rows = [((1.0, 1.0), "=", 1.0), ((0.0, 1.0), "<=", 0.5), ((1.0, 0.0), "<=", 1.2)]
    live = lp.Tableau(make([1.0, 2.0], rows), [0], [0])
    first = live.solve()
    assert first.status == lp.OPTIMAL
    assert first.objective_value == pytest.approx(1.5)
    live.add_columns([3.0], [[0.0], [1.0], [-1.0]])
    added = live.solve()
    full = lp.solve_lp(make([1.0, 2.0, 3.0], [((1.0, 1.0, 0.0), "=", 1.0),
                                             ((0.0, 1.0, 1.0), "<=", 0.5),
                                             ((1.0, 0.0, -1.0), "<=", 1.2)]))
    assert added.objective_value == pytest.approx(full.objective_value, rel=1e-12)
    assert added.duals == pytest.approx(full.duals, abs=1e-12)
    assert added.phase1_pivots == 0
    assert added.phase2_pivots >= first.phase2_pivots


@pytest.mark.parametrize("rows, basis_rows, basis_columns, message", [
    ([((1.0, 1.0), "=", 1.0), ((2.0, 0.0), "=", 1.0)], [0, 1], [0, 1], "unit vector"),
    ([((1.0, 1.0), "=", 1.0), ((0.0, 1.0), "<=", 0.5)], [0], [1], "infeasible"),
])
def test_live_tableau_rejects_a_bad_starting_basis(rows, basis_rows, basis_columns, message):
    with pytest.raises(ValueError, match=message):
        lp.Tableau(make([1.0, 1.0], rows), basis_rows, basis_columns)


def test_a_second_crash_keeps_both_checks():
    # x0 + x1 <= 1, x1 <= 2, x0 <= 0.5; x0 starts basic in row 2
    problem = make([1.0, 1.0], [((1.0, 1.0), "<=", 1.0), ((0.0, 1.0), "<=", 2.0),
                                ((1.0, 0.0), "<=", 0.5)])
    tableau = lp.Tableau(problem, [2], [0])
    start = tableau.T.copy()
    with pytest.raises(ValueError, match="unit vector"):
        tableau.crash([0, 1], [1, 4])  # x1 has a 1 in row 1 beside row 1's slack
    with pytest.raises(ValueError, match="infeasible"):
        tableau.crash([1], [1])  # x1 = 2 leaves row 0 at 0.5 - 2
    assert np.array_equal(tableau.T, start)
    tableau.crash([0], [1])
    sol = tableau.solve()
    cold = lp.solve_lp(problem)
    assert (sol.phase1_pivots, sol.phase2_pivots) == (0, 0)
    assert sol.x == pytest.approx((0.5, 0.5), abs=1e-12)
    assert sol.duals == pytest.approx(cold.duals, abs=1e-12)


def test_a_crash_start_on_some_rows_matches_solve_lp():
    # x1 starts basic in the first = row; the second = row and the >= row
    # keep their artificials, which phase 1 drives out
    problem = make([1.0, 2.0, 0.5], [((1.0, 1.0, 0.0), "=", 1.0),
                                     ((1.0, 0.0, 1.0), "=", 0.8),
                                     ((1.0, 0.0, 0.0), ">=", 0.5)])
    sol = lp.Tableau(problem, [0], [1]).solve()
    cold = lp.solve_lp(problem)
    assert sol.status == lp.OPTIMAL
    assert sol.phase1_pivots > 0
    assert sol.x == pytest.approx(cold.x, abs=1e-12)
    assert sol.x == pytest.approx((0.5, 0.5, 0.3), abs=1e-12)
    assert sol.duals == pytest.approx(cold.duals, abs=1e-12)


def _random_problem_with_private_columns(rng):
    """Shared variables, then one private variable per ``=`` row: a unit
    column, 1 in its row and 0 in every other.  The other rows are slack
    rows after the sign normalisation, and sometimes a ``>=`` row that needs
    an artificial.  Returns the problem, the number of shared variables, the
    number of ``=`` rows and whether any row needs an artificial besides
    them."""
    n, k = rng.randint(1, 4), rng.randint(1, 3)
    rows = []
    for r in range(k):
        private = tuple(1.0 if i == r else 0.0 for i in range(k))
        shared = tuple(rng.uniform(-1, 2) for _ in range(n))
        rows.append((shared + private, "=", rng.uniform(0, 2)))
    artificial = False
    for _ in range(rng.randint(0, 3)):
        shared = tuple(rng.uniform(-1, 2) for _ in range(n))
        kind = rng.random()
        if kind < 0.4:
            rows.append((shared + (0.0,) * k, "<=", rng.uniform(0, 2)))
        elif kind < 0.8:  # normalised to a <= row with a positive rhs
            rows.append((shared + (0.0,) * k, ">=", rng.uniform(-2, -0.01)))
        else:
            rows.append((shared + (0.0,) * k, ">=", rng.uniform(0.01, 1)))
            artificial = True
    if rng.random() < 0.8:  # keep the region bounded
        for i in range(n):
            bound = tuple(1.0 if c == i else 0.0 for c in range(n + k))
            rows.append((bound, "<=", rng.uniform(0.5, 3.0)))
    return make(tuple(rng.uniform(-1, 2) for _ in range(n + k)), rows), n, k, artificial


def test_a_crash_start_on_private_columns_matches_solve_lp():
    rng = random.Random(15)
    solved = full = 0
    for _ in range(200):
        problem, n, k, artificial = _random_problem_with_private_columns(rng)
        rows = sorted(rng.sample(range(k), rng.randint(0, k)))
        sol = lp.Tableau(problem, rows, [n + r for r in rows]).solve()
        cold = lp.solve_lp(problem)
        assert sol.status == cold.status
        if sol.status != lp.OPTIMAL:
            continue
        solved += 1
        assert sol.objective_value == pytest.approx(cold.objective_value, rel=1e-9, abs=1e-12)
        assert max(lp.constraint_residuals(problem, sol.x), default=0.0) <= 1e-7
        if len(rows) == k and not artificial:
            assert sol.phase1_pivots == 0
            full += 1
    assert solved > 100 and full > 20  # both kinds of start actually ran


def _ratio_tableau(entries, rhs, basics):
    """A tableau whose column 0 enters with ``entries`` down the rows, over
    right-hand sides ``rhs``, with variable ``basics[r]`` basic in row ``r``.
    Variables 1..k are private unit columns made basic by a crash start."""
    k = len(rhs)
    rows = [((a,) + tuple(1.0 if v == b else 0.0 for v in range(1, k + 1)), "=", r)
            for a, r, b in zip(entries, rhs, basics)]
    return lp.Tableau(make((0.0,) * (k + 1), rows), range(k), basics)


def _leaving_row_reference(entries, rhs, basics):
    """Bland's leaving rule under a tolerance, by brute force: among the rows
    within PIVOT_TOL of the minimum ratio, the lowest basic variable."""
    ratios = {r: rhs[r] / a for r, a in enumerate(entries) if a > lp.PIVOT_TOL}
    if not ratios:
        return -1
    least = min(ratios.values())
    return min((r for r, q in ratios.items() if q <= least + lp.PIVOT_TOL),
               key=lambda r: basics[r])


@pytest.mark.parametrize("rhs, basics", [
    ((1.5e-9, 6e-10, 0.0), (1, 2, 3)),  # the scan took row 2, outside the order
    ((0.0, 6e-10, 1.2e-9), (3, 2, 1)),  # the scan drifted to 1.2e-9 above the minimum
])
def test_near_tied_ratios_leave_by_the_lowest_basic_variable(rhs, basics):
    tableau = _ratio_tableau((1.0, 1.0, 1.0), rhs, basics)
    assert tableau._leaving_row(0) == 1


def test_leaving_row_matches_the_stated_rule_on_permuted_bases():
    rng = random.Random(18)
    for _ in range(2000):
        k = rng.randint(1, 6)
        entries = [rng.choice((-1.0, 0.0, 5e-10, 0.25, 0.5, 1.0, 2.0)) for _ in range(k)]
        rhs = [rng.choice((0.0, 1e-10)) + 4e-10 * rng.randint(0, 4) for _ in range(k)]
        basics = rng.sample(range(1, k + 1), k)
        tableau = _ratio_tableau(entries, rhs, basics)
        assert tableau._leaving_row(0) == _leaving_row_reference(entries, rhs, basics)


def test_problem_rejects_inconsistent_shapes_and_an_infinite_rhs():
    with pytest.raises(ValueError) as exc:
        lp.LpProblem(np.ones(2), np.ones((1, 3)), np.array(["<="]), np.ones(1))
    assert str(exc.value) == "inconsistent shapes: c (2,), A (1, 3), relations (1,), b (1,)"
    with pytest.raises(ValueError) as exc:
        make([1.0], [((1.0,), "<=", math.inf)])
    assert str(exc.value) == "constraint rhs must be finite, got inf"


def test_a_basic_artificial_is_pivoted_out_after_phase_one(monkeypatch):
    # three equalities in three variables whose phase 1 ends with an
    # artificial basic at zero in a row that still has a real coefficient:
    # drop_artificials pivots it out (a pivot without reduced costs) rather
    # than dropping the row
    problem = lp.LpProblem.make([-1, -1, 1], [([1, -1, 1], "=", 1), ([1, -1, 0], "=", 1),
                                              ([1, 0, -1], "=", 1)])
    pivots = []
    original = lp.Tableau._pivot

    def spy(self, row, col, reduced=None):
        pivots.append(reduced is None)
        return original(self, row, col, reduced)

    monkeypatch.setattr(lp.Tableau, "_pivot", spy)
    sol = lp.solve_lp(problem)
    assert True in pivots
    # HiGHS gives the same optimum and vertex
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == -1.0
    assert sol.x == (1.0, 0.0, 0.0)
    assert problem.b @ np.array(sol.duals) == pytest.approx(sol.objective_value, abs=1e-12)
    assert lp.constraint_residuals(problem, sol.x) == pytest.approx([0.0] * 3, abs=1e-12)
