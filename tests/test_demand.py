import math
import random

import numpy as np
import pytest

from datamarket.demand import (
    PiecewiseCurve,
    allocate,
    convexify,
    optimal_demand,
    piecewise_linearize,
    rate_threshold,
    take,
)
from datamarket.fixtures import gen_lingap, gen_random
from datamarket.model import Instance, ShardCurve, ValidationError
from datamarket.plc_opt import solve_plc
from datamarket.revenue import interested, shard_desires
from oracle_util import (
    demand_reference,
    grid_demand_payment,
    pricing_battery,
    random_piecewise_curve,
    random_shardset,
)

THREE_SHARDS = ShardCurve.from_pairs([(0.3, 10.0), (0.5, 20.0), (0.2, 25.0)])


def assert_same_curve(got, expected):
    assert len(got.shards) == len(expected.shards)
    for (gs, ga), (es, ea) in zip(got.shards, expected.shards):
        assert gs == pytest.approx(es)
        assert ga == pytest.approx(ea)


@pytest.mark.parametrize(
    "beta,expected",
    [(20.0, 0.8), (5.0, 0.0), (30.0, 1.0), (10.0, 0.3), (25.0, 1.0)],
)
def test_rate_threshold(beta, expected):
    assert rate_threshold(THREE_SHARDS, beta) == pytest.approx(expected)


def test_rate_threshold_tie_counts_as_qualifying():
    assert rate_threshold(THREE_SHARDS, 20.0 - 1e-10) == pytest.approx(0.8)


def test_piecewise_curve_validation():
    with pytest.raises(ValidationError):
        PiecewiseCurve((0.0, 1.0), (0.5, 1.0))  # value at 0 must be 0
    with pytest.raises(ValidationError):
        PiecewiseCurve((0.0, 0.5), (0.0, 1.0))  # must end at 1
    with pytest.raises(ValidationError):
        PiecewiseCurve((0.0, 0.5, 1.0), (0.0, 1.0, 0.5))  # must be monotone


def test_convexify_drops_interior_breakpoint():
    curve = PiecewiseCurve((0.0, 0.4, 0.5, 0.8, 1.0), (0.0, 1.0, 2.5, 3.0, 5.0))
    hull = convexify(curve)
    sizes = [s for s, _ in hull.shards]
    slopes = [a for _, a in hull.shards]
    assert sizes == pytest.approx([0.4, 0.4, 0.2])
    assert slopes == pytest.approx([2.5, 5.0, 10.0])


def test_convexify_fixed_point_on_convex_curve():
    curve = PiecewiseCurve((0.0, 0.3, 0.8, 1.0), (0.0, 3.0, 13.0, 18.0))
    assert_same_curve(convexify(curve), THREE_SHARDS)


def test_convexify_concave_curve_is_chord():
    hull = convexify(PiecewiseCurve((0.0, 0.5, 1.0), (0.0, 0.9, 1.0)))
    assert hull.shards == ((1.0, 1.0),)


def test_convexify_below_input_and_tight_at_ends():
    rng = random.Random(41)
    for _ in range(100):
        curve = random_piecewise_curve(rng)
        hull = convexify(curve)
        for x, y in zip(curve.xs, curve.ys):
            assert hull.price(x) <= y + 1e-9
        assert hull.price(0.0) == pytest.approx(0.0, abs=1e-12)
        assert hull.price(1.0) == pytest.approx(curve.ys[-1])
        slopes = [a for _, a in hull.shards]
        assert all(b > a for a, b in zip(slopes, slopes[1:]))


def test_piecewise_linearize_rounds_up_to_grid():
    single = ShardCurve.from_pairs([(1.0, 1.5)])
    assert piecewise_linearize(single, [1.0, 2.0]).shards == ((1.0, 2.0),)


def test_piecewise_linearize_is_identity_on_grid_curves():
    assert_same_curve(piecewise_linearize(THREE_SHARDS, [10.0, 20.0, 25.0]), THREE_SHARDS)
    assert_same_curve(
        piecewise_linearize(THREE_SHARDS, [5.0, 10.0, 20.0, 25.0, 40.0]), THREE_SHARDS
    )


def test_piecewise_linearize_output_slopes_in_grid():
    rng = random.Random(42)
    grid = [2.0, 3.0, 5.0]
    for _ in range(50):
        curve = random_shardset(rng, 1)[0]
        out = piecewise_linearize(curve, grid)
        assert all(a in grid for _, a in out.shards)


def test_piecewise_linearize_rejects_empty_grid():
    with pytest.raises(ValueError):
        piecewise_linearize(THREE_SHARDS, [])


def test_optimal_demand_stops_where_slope_exceeds_value():
    inst = Instance.make([math.inf], [[1.0]])
    shards = (ShardCurve.from_pairs([(0.5, 0.5), (0.5, 2.0)]),)
    bundle = optimal_demand(inst, 0, shards)
    assert bundle.fractions == pytest.approx((0.5,))
    assert bundle.payment == pytest.approx(0.25)
    # grid oracle agrees
    assert bundle.payment == pytest.approx(
        grid_demand_payment(shards[0].price, 1.0, math.inf)
    )


def test_optimal_demand_lingap_big_buyer_takes_everything():
    n, eps = 3, 0.1
    inst = gen_lingap(n, eps)
    sol = solve_plc(inst)
    bundle = optimal_demand(inst, n - 1, sol.shards)
    assert bundle.fractions == pytest.approx((1.0,))
    assert bundle.payment == pytest.approx(inst.budgets[n - 1])


def test_optimal_demand_zero_budget():
    inst = Instance.make([0.0, 1.0], [[4.0], [4.0]])
    bundle = optimal_demand(inst, 0, (ShardCurve(((1.0, 2.0),)),))
    assert bundle.fractions == (0.0,)
    assert bundle.payment == 0.0


def test_optimal_demand_budget_constrained_prefers_best_ratio():
    # dataset 0 yields surplus 3 per unit money, dataset 1 only 1; budget 1
    inst = Instance.make([1.0], [[4.0, 2.0]])
    shards = (ShardCurve(((1.0, 1.0),)), ShardCurve(((1.0, 1.0),)))
    bundle = optimal_demand(inst, 0, shards)
    assert bundle.fractions == pytest.approx((1.0, 0.0))
    assert bundle.payment == pytest.approx(1.0)


def test_optimal_demand_index_error():
    inst = Instance.make([1.0], [[1.0]])
    with pytest.raises(IndexError):
        optimal_demand(inst, 1, (ShardCurve(((1.0, 1.0),)),))


def test_optimal_demand_payment_is_budget_capped_desire():
    rng = random.Random(77)
    for trial in range(120):
        inst = gen_random(rng.randint(1, 3), rng.randint(1, 3), seed=trial + 3000,
                          budget_scale=rng.choice([0.2, 1.0, 5.0]))
        shards = random_shardset(rng, inst.m)
        for i in range(inst.n):
            desire = 0.0
            for j, curve in enumerate(shards):
                desire += curve.buyer_cost(inst.values[i][j])
            bundle = optimal_demand(inst, i, shards)
            assert bundle.payment == min(inst.budgets[i], desire)
            assert all(-1e-12 <= f <= 1 + 1e-12 for f in bundle.fractions)


def test_transforms_never_lose_infinite_budget_payment():
    rng = random.Random(4242)
    for _ in range(150):
        curve = random_piecewise_curve(rng)
        value = rng.uniform(0.1, 2.5)
        oracle = grid_demand_payment(curve.value, value, math.inf)
        convex = convexify(curve)
        grid = sorted({value, rng.uniform(0.1, 2.5), rng.uniform(0.1, 2.5)})
        final = piecewise_linearize(convex, grid)
        for transformed in (convex, final):
            payment = transformed.buyer_cost(value)
            assert payment >= oracle - 1e-9


def test_discretization_never_loses_budgeted_payment():
    rng = random.Random(515)
    for _ in range(150):
        curve = random_shardset(rng, 1)[0]
        value = rng.uniform(0.05, 3.0)
        budget = rng.uniform(0.05, 2.0)
        grid = sorted({value, rng.uniform(0.05, 3.0)})
        out = piecewise_linearize(curve, grid)
        before = min(budget, curve.buyer_cost(value))
        after = min(budget, out.buyer_cost(value))
        assert after >= before - 1e-9


def test_non_convex_curve_demand_via_grid_oracle():
    # a locally expensive middle segment: the buyer must compare globally,
    # and when the budget binds she may stop short of it without exhausting it
    curve = PiecewiseCurve((0.0, 0.4, 0.6, 1.0), (0.0, 0.4, 1.1, 1.5))
    assert grid_demand_payment(curve.value, 2.0, 1.5) == pytest.approx(1.5)
    assert grid_demand_payment(curve.value, 2.0, 1.3) == pytest.approx(0.4)


def test_optimal_demand_needs_a_curve_per_dataset():
    inst = gen_random(3, 3, seed=1)
    with pytest.raises(ValueError, match="got 1 curves for 3 datasets"):
        optimal_demand(inst, 0, (ShardCurve(((1.0, 0.1),)),))


def test_optimal_demand_matches_spend_reference_on_budget_bound_buyers():
    bound = 0
    for inst, shards in pricing_battery(61):
        for i in range(inst.n):
            bundle = optimal_demand(inst, i, shards)
            if inst.budgets[i] < shard_desires(inst.values[i], shards):
                assert bundle.fractions == demand_reference(inst, i, shards)
                assert bundle.payment == inst.budgets[i]
                bound += 1
    assert bound > 100  # the battery must exercise the budget-bound branch


def test_spend_ranks_near_zero_surplus_by_ratio():
    # surplus 0 and 5e-10 both lie within the tolerance; the second item has
    # the larger surplus per unit of money, so the budget goes to it first
    inst = Instance.make([0.5], [[1.0, 1.0]])
    shards = (ShardCurve(((1.0, 1.0),)), ShardCurve(((1.0, 1.0 - 5e-10),)))
    bundle = optimal_demand(inst, 0, shards)
    assert bundle.fractions == (0.0, 0.5 / (1.0 - 5e-10))
    assert bundle.payment == 0.5
    fractions = take(0.5, np.array([1.0, 1.0]), np.array([1.0, 1.0 - 5e-10]),
                     np.array([True, True]))
    assert fractions.tolist() == [0.0, 0.5 / (1.0 - 5e-10)]


def test_optimal_demand_reads_a_list_shardset_again_after_it_changes():
    inst = Instance.make([1.0, 4.0], [[2.0, 1.0], [3.0, 2.0]])
    shards = [ShardCurve(((1.0, 1.0),)), ShardCurve(((1.0, 1.0),))]
    first = [optimal_demand(inst, i, shards) for i in range(inst.n)]
    assert first[0].fractions == (1.0, 0.0) and first[1].fractions == (1.0, 1.0)
    shards[0] = ShardCurve(((1.0, 2.5),))  # buyer 0 stops wanting dataset 0
    assert optimal_demand(inst, 0, shards).fractions == (0.0, 1.0)
    assert optimal_demand(inst, 1, shards).fractions == (1.0, 1.0)
    assert optimal_demand(inst, 1, shards).payment == 3.5


def test_optimal_demand_reads_list_rows_again_after_they_change():
    values = [[2.0, 1.0]]
    inst = Instance([1.0], values)  # unvalidated, and its rows can change
    shards = (ShardCurve(((1.0, 1.0),)), ShardCurve(((1.0, 1.0),)))
    assert optimal_demand(inst, 0, shards).fractions == (1.0, 0.0)
    values[0][0] = 0.5
    assert optimal_demand(inst, 0, shards).fractions == (0.0, 1.0)


def test_optimal_demand_keeps_two_instances_apart():
    a, b = gen_random(6, 3, seed=1, budget_scale=0.25), gen_random(6, 3, seed=2, budget_scale=0.25)
    shards = tuple(ShardCurve.from_pairs([(0.5, 0.2), (0.5, 0.6)]) for _ in range(3))
    alone = {id(inst): [optimal_demand(inst, i, shards) for i in range(inst.n)] for inst in (a, b)}
    for i in range(6):
        for inst in (a, b):
            assert optimal_demand(inst, i, shards) == alone[id(inst)][i]
    assert alone[id(a)] != alone[id(b)]


@pytest.mark.parametrize("buyer", [-1, 3])
def test_optimal_demand_checks_the_buyer_before_the_kept_bundles(buyer):
    inst = gen_random(3, 2, seed=4)
    shards = tuple(ShardCurve(((1.0, 0.3),)) for _ in range(2))
    optimal_demand(inst, 0, shards)  # keeps every buyer's bundle
    with pytest.raises(IndexError, match=f"buyer index {buyer} out of range for n=3"):
        optimal_demand(inst, buyer, shards)


@pytest.mark.parametrize("spends", [
    [False] * 5, [True] * 5, [True, True, False, True, False], [False, False, True, False, True],
])
def test_allocate_spends_the_chosen_rows_by_take_and_gives_the_rest_whole(spends):
    # a zero and an infinite budget; item 0 is free and every row wants it
    budgets = np.array([0.0, math.inf, 0.7, 1.3, 2.0])
    values = np.array([[0.2, 0.5, 2.0, 1.2], [0.0, 0.4, 0.9, 3.0], [1.0, 0.8, 1.5, 1.1],
                       [0.5, 0.4, 1.0, 1.0], [0.1, 0.0, 1.0, 0.9]])
    prices = np.array([0.0, 0.4, 1.0, 0.9])
    wants = interested(values, prices)
    spends = np.array(spends)
    fractions = allocate(budgets, values, prices, wants, spends)
    assert fractions[spends].tolist() == take(budgets[spends], values[spends], prices,
                                              wants[spends]).tolist()
    assert fractions[~spends].tolist() == np.where(wants[~spends], 1.0, 0.0).tolist()
    if spends[0]:
        assert fractions[0].tolist() == [1.0, 0.0, 0.0, 0.0]  # only the free item
    if spends[1]:
        assert fractions[1].tolist() == wants[1].astype(float).tolist()
