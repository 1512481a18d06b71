"""Metamorphic properties of revenue: reordering buyers or datasets, or
adding a buyer who values nothing, leaves every revenue unchanged."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datamarket.clearing import clearabilize, market_from_prices
from datamarket.fixtures import gen_random
from datamarket.linear_opt import exact_bruteforce, greedy
from datamarket.model import Instance, ShardCurve
from datamarket.plc_opt import solve_plc
from datamarket.revenue import linear_revenue, shard_revenue
from oracle_util import highs_plc_revenue

# repeated values make ties between buyers, where interest is decided
VALUES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.01, 2.0))
BUDGETS = st.one_of(st.just(math.inf), st.floats(0.1, 3.0))

settings.register_profile("metamorphic", max_examples=40, deadline=None,
                          derandomize=True, database=None)


@st.composite
def markets(draw):
    """An instance with linear prices and shard curves drawn from its values."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    values = [[draw(VALUES) for _ in range(m)] for _ in range(n)]
    budgets = [draw(BUDGETS) for _ in range(n)]
    if all(math.isinf(b) for b in budgets):
        budgets[0] = 1.0
    inst = Instance.make(budgets, values)
    prices = [draw(st.sampled_from([values[i][j] for i in range(n)])) for j in range(m)]
    shards = []
    for j in range(m):
        slopes = sorted({values[i][j] for i in range(n)})
        weights = [draw(st.floats(0.1, 1.0)) for _ in slopes]
        shards.append(ShardCurve.from_pairs(
            (w / sum(weights), s) for w, s in zip(weights, slopes)))
    return inst, prices, tuple(shards)


def _revenues(inst, prices, shards):
    return (linear_revenue(inst, prices), shard_revenue(inst, shards)[1],
            exact_bruteforce(inst).revenue, solve_plc(inst).total_revenue)


def _assert_same(got, want):
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-9, abs=1e-12)


@settings(settings.get_profile("metamorphic"))
@given(markets(), st.randoms(use_true_random=False))
def test_permuting_buyers_and_datasets_keeps_revenue(market, rnd):
    inst, prices, shards = market
    buyers, datasets = list(range(inst.n)), list(range(inst.m))
    rnd.shuffle(buyers)
    rnd.shuffle(datasets)
    permuted = Instance.make([inst.budgets[i] for i in buyers],
                             [[inst.values[i][j] for j in datasets] for i in buyers])
    _assert_same(_revenues(permuted, [prices[j] for j in datasets],
                           tuple(shards[j] for j in datasets)),
                 _revenues(inst, prices, shards))


@settings(settings.get_profile("metamorphic"))
@given(markets(), BUDGETS, st.integers(0, 5))
def test_a_buyer_who_values_nothing_changes_no_revenue(market, budget, where):
    inst, prices, shards = market
    where = min(where, inst.n)
    budgets = list(inst.budgets)
    values = [list(row) for row in inst.values]
    budgets.insert(where, budget)
    values.insert(where, [0.0] * inst.m)
    _assert_same(_revenues(Instance.make(budgets, values), prices, shards),
                 _revenues(inst, prices, shards))


def _scaled(inst, c):
    return Instance.make([b * c for b in inst.budgets],
                         [[v * c for v in row] for row in inst.values])


@pytest.mark.parametrize("seed", [1, 5, 9, 10, 15, 16, 17])
def test_plc_revenue_does_not_depend_on_the_money_unit(seed):
    inst = _scaled(gen_random(15, 8, seed), 1e-8)
    assert solve_plc(inst).total_revenue == pytest.approx(highs_plc_revenue(inst), rel=1e-7)


# Below 1e-8 money the model's absolute 1e-9 tolerance is 10% of a price.
# Budgets above the values make slopes that close optimal: a buyer within the
# gap counts as wanting a shard (the LP and the curves agree, and earn more
# than the unit-money optimum scaled down), and ShardCurve.from_pairs merges
# such slopes, so the curves earn less than the LP, which the cross-check in
# solve_plc reports.
_KERNEL_TOLERANCE = pytest.mark.xfail(
    strict=True, reason="absolute interest and slope tolerances of the model at money "
    "unit 1e-8; see ROADMAP.md item 1")


@pytest.mark.parametrize("c, budget_scale", [
    pytest.param(c, b, marks=_KERNEL_TOLERANCE) if c == 1e-8 and b > 1 else (c, b)
    for c in (1e-8, 1e-4, 1e4, 1e8) for b in (1.0, 4.0, 16.0)])
def test_plc_revenue_scales_with_the_money_unit(c, budget_scale):
    # the reference is HiGHS at unit money: its absolute tolerances do not scale
    for seed in range(3):
        base = gen_random(15, 8, seed, budget_scale=budget_scale)
        assert solve_plc(_scaled(base, c)).total_revenue == pytest.approx(
            c * highs_plc_revenue(base), rel=1e-7)


# Linear pricing decides interest as the PLC kernel does, within an absolute
# 1e-9 of a price: at money unit 1e-8, buyers whose values lie up to a tenth
# of a price below it count as wanting it, so the revenue is not c times the
# unit-money one (greedy at seed 0: 2.887e-8 against 2.805e-8).
_LINEAR_TOLERANCE = pytest.mark.xfail(
    strict=True, reason="linear pricing's absolute interest tolerance at money unit 1e-8; "
    "see ROADMAP.md item 1")


@pytest.mark.parametrize("method", [greedy, exact_bruteforce], ids=["greedy", "exact"])
@pytest.mark.parametrize("c", [pytest.param(1e-8, marks=_LINEAR_TOLERANCE), 1e-4, 1e4, 1e8])
def test_linear_revenue_scales_with_the_money_unit(c, method):
    for seed in range(20):
        base = gen_random(6, 4, seed, budget_scale=2.0)
        assert method(_scaled(base, c)).revenue == pytest.approx(
            c * method(base).revenue, rel=1e-9, abs=0.0)


# Clearing compares desires with budgets and values with prices within the
# model's absolute 1e-9: a tenth of a price at money unit 1e-8, so buyers
# count as wanting items priced 10% above their values, and less than one
# rounding of a price at 1e8, so a buyer whose desire rounds a few units of
# the last place above her budget counts as constrained.
_CLEARING_TOLERANCE = pytest.mark.xfail(
    strict=True, reason="clearing's absolute 1e-9 tolerance at money units 1e-8 and 1e8; "
    "see ROADMAP.md item 1")


@pytest.mark.parametrize("c", [pytest.param(1e-8, marks=_CLEARING_TOLERANCE), 1e-4, 1e4,
                               pytest.param(1e8, marks=_CLEARING_TOLERANCE)])
def test_clearing_scales_with_the_money_unit(c):
    # posted at each dataset's highest value, where most budgets bind
    for seed in range(20):
        base = gen_random(15, 8, seed)
        highest = [max(row[j] for row in base.values) for j in range(base.m)]
        unit = clearabilize(market_from_prices(base, highest))
        got = clearabilize(market_from_prices(_scaled(base, c), [c * p for p in highest]))
        assert got.iterations == unit.iterations
        assert got.prices == pytest.approx([c * p for p in unit.prices], rel=1e-9,
                                           abs=1e-12 * c)
