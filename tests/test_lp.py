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
    assert first == second  # x, basis and pivot counts alike


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
    tab = lp._Tableau(problem)
    assert tab.phase_one() == 0.0
    tab.drop_artificials()
    assert tab.T.shape[0] == 2
    sol = lp.solve_lp(problem)
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == 1.0
    assert sol.duals[1] == 0.0
    assert problem.b @ np.array(sol.duals) == pytest.approx(sol.objective_value, abs=1e-12)
    assert lp.constraint_residuals(problem, sol.x) == pytest.approx([0.0] * 3, abs=1e-12)
