import itertools
import math
import tracemalloc

import numpy as np
import pytest

from datamarket import lp, plc_opt
from datamarket.fixtures import gen_lingap, gen_nonsub, gen_random, gen_sepgap, gen_vertex_cover
from datamarket.linear_opt import exact_bruteforce
from datamarket.model import Instance, prices_to_shardset
from datamarket.plc_opt import (build_pricing_lp, extract_allocation, plc_solution_to_dict,
                                solve_plc)
from datamarket.revenue import shard_revenue
from oracle_util import column_wants_reference, highs_plc_revenue, instance_battery

EPS = 0.001


def relation_counts(problem):
    counts = {lp.LESS_EQUAL: 0, lp.EQUAL: 0, lp.GREATER_EQUAL: 0}
    for _coeffs, rel, _rhs in problem.constraints:
        counts[rel] += 1
    return counts


def test_lp_structure_single_rich_buyer():
    problem = build_pricing_lp(Instance.make([math.inf], [[3.0]]))
    assert problem.num_variables == 1
    assert relation_counts(problem) == {lp.LESS_EQUAL: 0, lp.EQUAL: 1, lp.GREATER_EQUAL: 0}
    assert problem.c.tolist() == [3.0]


def test_lp_structure_example3():
    problem = build_pricing_lp(gen_nonsub(EPS))
    # 2 shard variables per dataset plus one revenue variable per buyer
    assert problem.num_variables == 2 * 2 + 2
    counts = relation_counts(problem)
    assert counts[lp.EQUAL] == 2  # shard sizes sum to one, per dataset
    assert counts[lp.LESS_EQUAL] == 4  # a budget row and a desire row per buyer


def test_lp_variable_count_is_values_plus_finite_buyers():
    inst = gen_random(4, 3, seed=8)
    problem = build_pricing_lp(inst)
    assert problem.num_variables == inst.n * inst.m + inst.n


def test_solve_plc_example3_extracts_both_budgets():
    sol = solve_plc(gen_nonsub(EPS))
    assert sol.total_revenue == pytest.approx(2.0, abs=1e-9)


def test_solve_plc_linearity_gap_curve():
    n, eps = 3, 0.1
    sol = solve_plc(gen_lingap(n, eps))
    assert sol.total_revenue == pytest.approx((2 * n - 1) * eps * (1 - eps), abs=1e-9)
    (curve,) = sol.shards
    sizes = [s for s, _ in curve.shards]
    assert sizes == pytest.approx([1 - eps, eps])


def test_solve_plc_separability_gap_is_linear():
    for m, k in [(4, 3), (3, 2), (2, 3)]:
        sol = solve_plc(gen_sepgap(m, k))
        assert sol.total_revenue == pytest.approx(max(k + 1, m), abs=1e-6)
        assert all(len(curve.shards) == 1 for curve in sol.shards)


def test_solve_plc_zero_budget_buyers_are_ignored():
    inst = Instance.make([0.0, 1.0], [[2.0], [1.0]])
    sol = solve_plc(inst)
    assert sol.per_buyer_revenue[0] == 0.0
    assert sol.total_revenue == pytest.approx(1.0)


def test_extract_allocation_zero_prices():
    inst = gen_random(3, 2, seed=77)
    alloc = extract_allocation(inst, prices_to_shardset((0.0, 0.0)))
    assert alloc.total_revenue == 0.0
    for bundle in alloc.bundles:
        assert bundle.fractions == (1.0, 1.0)


def test_extract_allocation_linearity_gap_payments():
    n, eps = 3, 0.1
    inst = gen_lingap(n, eps)
    alloc = extract_allocation(inst, solve_plc(inst).shards)
    for i in range(n - 1):
        assert alloc.bundles[i].payment == pytest.approx(eps * (1 - eps))
    assert alloc.bundles[n - 1].payment == pytest.approx(n * eps * (1 - eps))


def test_extract_allocation_matches_shard_revenue():
    for inst in instance_battery(30, seed=6, n_max=3, m_max=3):
        sol = solve_plc(inst)
        alloc = extract_allocation(inst, sol.shards)
        assert alloc.total_revenue == pytest.approx(sol.total_revenue, abs=1e-6)


def test_kink_bound_and_optimality_sandwich():
    for inst in instance_battery(50, seed=12, n_max=5, m_max=5):
        sol = solve_plc(inst)
        assert sol.positive_shard_count <= inst.n + inst.m
        per_buyer, total = shard_revenue(inst, sol.shards)
        assert per_buyer == sol.per_buyer_revenue
        assert sol.total_revenue >= exact_bruteforce(inst).revenue - 1e-6
        cap = sum(
            min(inst.budgets[i], sum(inst.values[i])) for i in range(inst.n)
        )
        assert sol.total_revenue <= cap + 1e-6


def test_all_infinite_budgets_yield_single_shards():
    for seed in range(10):
        base = gen_random(3, 4, seed=seed + 40)
        inst = Instance.make([math.inf] * base.n, base.values)
        sol = solve_plc(inst)
        assert all(len(curve.shards) == 1 for curve in sol.shards)
        assert sol.positive_shard_count <= inst.m


def test_solve_plc_is_deterministic():
    inst = gen_random(4, 4, seed=123)
    first = solve_plc(inst)
    second = solve_plc(inst)
    assert first.shards == second.shards
    assert first.per_buyer_revenue == second.per_buyer_revenue


@pytest.mark.parametrize("budget_scale", [0.25, 1.0, 4.0, 16.0])
@pytest.mark.parametrize("n, m", [(10, 5), (20, 10), (30, 15)])
def test_solve_plc_matches_highs(n, m, budget_scale):
    for seed in range(3):
        inst = gen_random(n, m, seed=seed, budget_scale=budget_scale)
        sol = solve_plc(inst)
        assert sol.total_revenue == pytest.approx(highs_plc_revenue(inst), rel=1e-7)
        assert sol.positive_shard_count <= inst.m + inst.n
        for j, curve in enumerate(sol.shards):
            buyer_values = {inst.values[i][j] for i in range(inst.n)}
            assert all(slope in buyer_values for _size, slope in curve.shards)
        for i in range(inst.n):
            desire = sum(size * slope for j, curve in enumerate(sol.shards)
                         for size, slope in curve.shards if slope <= inst.values[i][j] + 1e-9)
            assert sol.per_buyer_revenue[i] == pytest.approx(
                min(inst.budgets[i], desire), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("n, m, budget_scale", [(120, 60, 1.0), (60, 30, 16.0)])
def test_column_generation_matches_highs_on_large_instances(n, m, budget_scale):
    inst = gen_random(n, m, seed=0, budget_scale=budget_scale)
    sol = solve_plc(inst)
    assert sol.total_revenue == pytest.approx(highs_plc_revenue(inst), rel=1e-7)
    assert sol.positive_shard_count <= inst.m + inst.n
    assert solve_plc(inst) == sol  # curves, revenues and diagnostics alike
    stats = sol.diagnostics
    assert stats["z_columns"] < stats["z_columns_full"] == sum(
        len({row[j] for row in inst.values}) for j in range(m))
    if budget_scale > 1:
        assert stats["rounds"] > 1  # slack budgets need columns beyond the medians


def test_diagnostics_stay_out_of_the_output():
    inst = gen_random(10, 5, seed=2, budget_scale=4.0)
    sol = solve_plc(inst)
    assert set(sol.diagnostics) == {"rounds", "z_columns", "z_columns_full", "phase1_pivots",
                                    "phase2_pivots", "degenerate_pivots", "revenue_gap"}
    # the medians give the first master a feasible basis, and every later
    # round continues from the previous optimum
    assert sol.diagnostics["phase1_pivots"] == 0
    assert 0.0 <= sol.diagnostics["revenue_gap"] <= 1e-6
    assert "diagnostics" not in plc_solution_to_dict(sol)


def test_pricing_equals_full_lp_reduced_costs():
    """The suffix sums price every column as ``c - yA`` does on the full LP,
    at the duals of a master."""
    for budget_scale in (0.25, 4.0, 16.0):
        inst = gen_random(20, 10, seed=5, budget_scale=budget_scale)
        inst = Instance.make([math.inf] + list(inst.budgets[1:]), inst.values)
        market = plc_opt._Market.of(inst, plc_opt._money_scale(inst))
        medians = market.medians
        master = lp.solve_lp(plc_opt._build(market, medians))
        duals = np.array(master.duals)
        full = plc_opt._build(market, np.arange(market.slopes.size))
        want = (full.c - duals @ full.A)[:market.slopes.size]
        got = plc_opt._reduced_costs(market, duals)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert (want > lp.PIVOT_TOL).any()  # the medians alone are not optimal


def _warm_start_cases():
    for budget_scale in (0.25, 1.0, 4.0, 16.0):
        for seed in range(3):
            yield f"b{budget_scale:g}-seed{seed}", gen_random(15, 6, seed, budget_scale=budget_scale)
    base = gen_random(12, 5, seed=9, budget_scale=4.0)
    yield "every-budget-infinite", Instance.make([math.inf] * base.n, base.values)
    yield "a-zero-budget", Instance.make([0.0] + list(base.budgets[1:]), base.values)
    yield "one-distinct-value", Instance.make(
        base.budgets, [[0.5] + list(row[1:]) for row in base.values])


@pytest.mark.parametrize("inst", [inst for _, inst in _warm_start_cases()],
                         ids=[name for name, _ in _warm_start_cases()])
def test_every_warm_round_matches_a_cold_master(inst):
    """Each round's live tableau reaches the optimum a cold two-phase solve
    of the same master reaches, without a phase-1 pivot."""
    market = plc_opt._Market.of(inst, plc_opt._money_scale(inst))
    k, m = market.payers.size, inst.m
    rounds = 0
    for columns, warm in plc_opt._rounds(market):
        rounds += 1
        problem = plc_opt._build(market, columns)
        cold = lp.solve_lp(problem)
        assert warm.objective_value == pytest.approx(cold.objective_value, rel=1e-9)
        assert warm.phase1_pivots == 0
        # the live master holds the medians, the revenues, then each round's columns
        x = np.array(warm.x)
        x = np.concatenate((x[:m], x[m + k:], x[m:m + k]))
        assert max(lp.constraint_residuals(problem, x), default=0.0) <= 1e-7
    sol = solve_plc(inst)
    assert sol.diagnostics["rounds"] == rounds
    assert sol.positive_shard_count <= inst.m + inst.n
    assert solve_plc(inst) == sol


def _round_one_caps(market, columns):
    """Each payer's budget and desire at the master's columns, scaled."""
    payers = market.payers
    wants = column_wants_reference(market.values, market.dataset[columns], market.distinct[columns])
    return market.budgets[payers], wants[payers] @ market.slopes[columns]


def _crash_cases():
    yield from _warm_start_cases()
    base = gen_random(12, 5, seed=9, budget_scale=4.0)
    low = [[1e-3] * base.m]  # below every median: no desire at the medians
    yield "a-zero-desire", Instance.make([1.0] + list(base.budgets), low + list(base.values))
    yield "zero-desires-past-the-bland-switch", Instance.make(
        [1.0] * 25 + list(base.budgets), low * 25 + list(base.values))
    market = plc_opt._Market.of(base, 1.0)
    _, desire = _round_one_caps(market, market.medians)
    yield "a-budget-tied-with-its-desire", Instance.make(
        [desire[0] * (1 + 1e-11)] + list(base.budgets[1:]), base.values)
    yield "infinite-and-zero-budgets", Instance.make(
        [math.inf, 0.0, math.inf] + list(base.budgets[3:]), base.values)


@pytest.mark.parametrize("name, inst", list(_crash_cases()),
                         ids=[name for name, _ in _crash_cases()])
def test_round_one_crash_lands_where_pivoting_does(name, inst):
    """The master round 2 starts from has every revenue column crashed into
    its budget or desire row.  It takes no pivot and reaches, bit for bit,
    the optimum the simplex reaches from the medians alone, one pivot per
    revenue column."""
    market = plc_opt._Market.of(inst, plc_opt._money_scale(inst))
    k, m = market.payers.size, inst.m
    columns = market.medians
    crashed = plc_opt._master(market, plc_opt._round_one(market)[1]).solve()
    medians_only = lp.Tableau(plc_opt._build(market, columns), 2 * k + np.arange(m), np.arange(m))
    pivoted = medians_only.solve()
    assert (crashed.phase1_pivots, crashed.phase2_pivots, crashed.degenerate_pivots) == (0, 0, 0)
    assert pivoted.phase2_pivots == k
    assert crashed.x == pivoted.x
    assert crashed.duals == pivoted.duals
    budget, desire = _round_one_caps(market, columns)
    revenue = np.array(crashed.x[m:m + k])
    assert np.abs(revenue - np.minimum(budget, desire)).max(initial=0.0) <= lp.PIVOT_TOL
    # each extra case reaches the corner it is named for
    reached = {
        "a-zero-desire": (desire == 0.0).any(),
        "zero-desires-past-the-bland-switch": pivoted.degenerate_pivots > lp._DEGENERATE_RUN,
        "a-budget-tied-with-its-desire": ((desire < budget)
                                          & (budget - desire <= lp.PIVOT_TOL)).any(),
        "infinite-and-zero-budgets": k == inst.n - 3,
    }
    assert reached.get(name, True)


def _closed_form_cases():
    yield from _crash_cases()
    for (n, m), budget_scale, seed in itertools.product(
            [(10, 5), (20, 10), (40, 20), (60, 30)], (0.25, 1.0, 4.0, 16.0), range(3)):
        yield (f"{n}x{m}-b{budget_scale:g}-seed{seed}",
               gen_random(n, m, seed, budget_scale=budget_scale))


@pytest.mark.parametrize("name, inst", list(_closed_form_cases()),
                         ids=[name for name, _ in _closed_form_cases()])
def test_round_one_in_closed_form_matches_the_crashed_tableau(name, inst):
    """Round 1's closed-form optimum is the crashed master's: the same
    vertex, the same 0/1 budget and desire duals, sum-row duals within two
    ulps, and the same entering columns."""
    market = plc_opt._Market.of(inst, plc_opt._money_scale(inst))
    k = market.payers.size
    closed, on_desire = plc_opt._round_one(market)
    crashed = plc_opt._master(market, on_desire).solve()
    assert crashed.phase2_pivots == 0
    assert closed.x == crashed.x
    assert closed.objective_value == pytest.approx(crashed.objective_value, rel=1e-12)
    closed_duals, crashed_duals = np.array(closed.duals), np.array(crashed.duals)
    assert np.isin(closed_duals[:2 * k], (0.0, 1.0)).all()
    assert closed_duals[:2 * k].tolist() == crashed_duals[:2 * k].tolist()
    np.testing.assert_array_max_ulp(closed_duals[2 * k:], crashed_duals[2 * k:], maxulp=2)
    in_master = np.zeros(market.slopes.size, dtype=bool)
    in_master[market.medians] = True
    entering = [plc_opt._entering(market, plc_opt._reduced_costs(market, duals), in_master)
                for duals in (closed_duals, crashed_duals)]
    assert entering[0].tolist() == entering[1].tolist()


def test_a_one_round_solve_builds_no_tableau(monkeypatch):
    inst = gen_random(60, 30, 7034, budget_scale=0.25)  # a plc_ladder tail job
    slack = gen_random(15, 6, 1, budget_scale=4.0)
    want = solve_plc(inst)
    assert want.diagnostics["rounds"] == 1

    def refuse(*args, **kwargs):
        raise AssertionError("a one-round solve built a tableau")

    with monkeypatch.context() as patched:
        patched.setattr(lp, "Tableau", refuse)
        patched.setattr(plc_opt, "_build", refuse)
        assert solve_plc(inst) == want
        with pytest.raises(AssertionError, match="built a tableau"):
            solve_plc(slack)
    assert solve_plc(slack).diagnostics["rounds"] > 1
    assert solve_plc(slack) == solve_plc(slack)


def _repeated_values(seed):
    inst = gen_random(15, 6, seed, budget_scale=4.0)
    return Instance.make(inst.budgets, np.round(np.array(inst.values) * 4) / 4)


@pytest.mark.parametrize("inst", [
    *(_repeated_values(seed) for seed in range(3)),
    gen_lingap(5), gen_sepgap(4, 3), gen_vertex_cover([(0, 1), (1, 2), (2, 0), (2, 3)]),
])
def test_one_sort_finds_each_datasets_distinct_values(inst):
    per_dataset = [sorted(set(column)) for column in zip(*inst.values)]
    market = plc_opt._Market.of(inst, 1.0)
    assert max(len(values) for values in per_dataset) < inst.n  # values repeat
    assert market.distinct.tolist() == [v for values in per_dataset for v in values]
    assert market.dataset.tolist() == [j for j, values in enumerate(per_dataset) for _ in values]
    assert market.starts.tolist() == np.cumsum([0] + [len(v) for v in per_dataset]).tolist()


def test_a_negative_zero_value_prices_at_a_zero_slope():
    sol = solve_plc(Instance.make([1.0, 1.0], [[-0.0, 1.0], [0.0, 2.0]]))
    assert [math.copysign(1.0, slope) for curve in sol.shards for _, slope in curve.shards] == [
        1.0, 1.0]


@pytest.mark.parametrize("budgets, values, revenue", [
    ([1e12, 1.0], [[1.0], [0.1]], 1.0),  # the money scale ignores the unreachable budget
    ([3000.0] * 3, [[999.9999995], [1000.0], [1500.0]], 2999.9999985),  # a tie within 1e-9
])
def test_solve_plc_edge_cases_match_highs(budgets, values, revenue):
    inst = Instance.make(budgets, values)
    assert solve_plc(inst).total_revenue == pytest.approx(revenue, rel=1e-12)
    assert highs_plc_revenue(inst) == pytest.approx(revenue, rel=1e-12)


def test_one_huge_budget_keeps_the_optimum():
    base = gen_random(30, 10, seed=3)
    for huge in (1e6, 1e12):
        inst = Instance.make([huge] + list(base.budgets[1:]), base.values)
        assert solve_plc(inst).total_revenue == pytest.approx(highs_plc_revenue(inst), rel=1e-7)


# a budget beyond the money scale times the largest float, divided by that
# scale, overflows; it can never bind, so it must solve as an infinite budget
OVERFLOWING_BUDGETS = [
    ([1e10, 1.0], [[1e-300, 2e-300], [3e-300, 1e-300]]),
    ([1.5e308, 1.0], [[0.5, 0.2], [0.3, 0.4]]),
]


@pytest.mark.parametrize("budgets, values", OVERFLOWING_BUDGETS, ids=["tiny-values", "huge-budget"])
def test_a_budget_that_overflows_the_money_scale_solves_as_infinite(budgets, values):
    got = solve_plc(Instance.make(budgets, values))
    want = solve_plc(Instance.make([math.inf] + budgets[1:], values))
    assert plc_solution_to_dict(got) == plc_solution_to_dict(want)
    assert got.diagnostics == want.diagnostics


def _value_index_cases():
    yield "ties-and-zeros", Instance.make(
        [1.0, 2.0, 0.5, 1.5, 1.0], [[0.5, 0.0, 0.25], [0.5, 1.0, 0.0], [0.0, 1.0, 0.25],
                                    [0.5, 0.0, 0.0], [0.25, 0.0, 0.25]])
    yield "within-1e-9", Instance.make(
        [1.0] * 6, [[0.4 + d, 1.0 - d, 2e-9 + d] for d in (0.0, 5e-10, 1e-9, 1.5e-9, -1e-9, 2e-9)])
    yield "signed-zeros", Instance((1.0, 2.0, 1.0), ((-0.0, 1.0), (0.0, -0.0), (-0.0, 0.0)))
    yield "one-buyer", Instance.make([1.0], [[0.3, 0.0, 0.7]])
    yield "one-dataset", Instance.make([1.0, 1.0, 2.0, math.inf], [[0.2], [0.2], [0.1], [0.3]])
    inst = gen_random(12, 5, seed=9, budget_scale=4.0)
    yield "infinite-and-zero-budgets", Instance.make(
        [math.inf, 0.0, math.inf] + list(inst.budgets[3:]), inst.values)
    for (n, m), budget_scale in [((10, 5), 0.25), ((20, 10), 1.0), ((40, 20), 4.0),
                                 ((60, 30), 16.0), ((20, 200), 100.0), ((20, 500), 250.0)]:
        yield f"{n}x{m}-b{budget_scale:g}", gen_random(n, m, 1, budget_scale=budget_scale)


VALUE_INDEX_CASES = dict(_value_index_cases())


@pytest.mark.parametrize("inst", VALUE_INDEX_CASES.values(), ids=VALUE_INDEX_CASES)
def test_each_columns_buyers_are_a_suffix_of_the_value_order(inst):
    """The buyers from a column's first-wanting rank on, in its dataset's
    value order, are exactly the buyers the dense mask says want it."""
    market = plc_opt._Market.of(inst, plc_opt._money_scale(inst))
    rank = np.empty_like(market.order)  # each buyer's rank in each dataset's value order
    np.put_along_axis(rank, market.order, np.arange(inst.n)[:, None], axis=0)
    suffix = rank[:, market.dataset] >= market.first
    want = column_wants_reference(inst.array, market.dataset, market.distinct)
    assert np.array_equal(suffix, want)
    assert want.any(axis=0).all()  # each column is some buyer's value


def _reduced_costs_by_loop(market, duals):
    """Each column's reduced cost, its wanting buyers' weights added one at
    a time from the highest value down (ties from the highest buyer index
    down, a stable ascending order read backwards), starting from ``-0.0``,
    the empty sum that keeps a lone ``-0.0``."""
    k = market.payers.size
    weights = np.isinf(market.budgets).astype(float)
    weights[market.payers] = duals[k:2 * k]
    wants = column_wants_reference(market.values, market.dataset, market.distinct)
    n, m = market.values.shape
    downward = [sorted(range(n), key=lambda i: (market.values[i, j], i), reverse=True)
                for j in range(m)]
    costs = []
    for c, j in enumerate(market.dataset.tolist()):
        total = -0.0
        for i in downward[j]:
            if wants[i, c]:
                total += float(weights[i])
        costs.append(float(market.slopes[c]) * total - float(duals[2 * k + j]))
    return np.array(costs)


@pytest.mark.parametrize("inst", VALUE_INDEX_CASES.values(), ids=VALUE_INDEX_CASES)
def test_reduced_costs_add_the_wanting_weights_from_the_highest_value_down(inst):
    market = plc_opt._Market.of(inst, plc_opt._money_scale(inst))
    k, m = market.payers.size, inst.m
    rng = np.random.default_rng(3)
    closed = np.array(plc_opt._round_one(market)[0].duals)
    spread = rng.random(2 * k + m) * 10.0 ** rng.integers(-9, 3, 2 * k + m)
    spread[::5] = -0.0
    for duals in (closed, spread):
        got = plc_opt._reduced_costs(market, duals)
        assert got.tobytes() == _reduced_costs_by_loop(market, duals).tobytes()


def test_solve_plc_memory_is_bounded():
    # the n x n*m want mask and its n x n*m float copy of the values peaked
    # at about 292 MB here; the value index peaks at about 7.9 MB
    inst = gen_random(400, 200, 1)
    tracemalloc.start()
    try:
        solve_plc(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6
    market = plc_opt._Market.of(inst, 1.0)
    assert max(np.size(field) for field in vars(market).values()) <= inst.n * inst.m
