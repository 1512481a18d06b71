"""The revenue kernel adds in a fixed order: items left to right, then
buyers left to right.  These tests compare it with ``==`` against plain
Python loops written in that order, check continuous greedy's per-step
estimate against its two-pass reference, check the many-buyer spend and
every buyer's demand against their one-buyer references bit for bit, and
pin the output of ``continuous_greedy`` on two seeded instances."""

import random

import numpy as np
import pytest

from datamarket.clearing import market_from_prices, per_buyer_revenue, shards_to_items
from datamarket.demand import optimal_demand, take
from datamarket.fixtures import gen_random
from datamarket.linear_opt import _copy_weights, _sampled_marginals, continuous_greedy
from datamarket.model import partition_prices, prices_to_shardset
from datamarket.plc_opt import solve_plc
from datamarket.revenue import (
    extension_value,
    left_to_right,
    linear_revenue,
    revenue,
    shard_revenue,
)
from oracle_util import (
    instance_battery,
    left_to_right_desire,
    left_to_right_revenue,
    optimal_demand_reference,
    random_shardset,
    sampled_marginals_reference,
    take_reference,
)

BATTERY = instance_battery(60, seed=31, n_max=8, m_max=6)


def _shard_desire(row, shards):
    desire = 0.0
    for v, curve in zip(row, shards):
        desire += left_to_right_desire((v * size, slope * size, size)
                                       for size, slope in curve.shards)
    return desire


def _column_loop(x):
    total = np.zeros(x.shape[:-1])
    for k in range(x.shape[-1]):
        total = total + x[..., k]
    return total


def _mixed(rng, shape):
    """Signed values from 1e-8 to 1e8, so that the order of the adds shows."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()  # so -0.0 differs from 0.0


@pytest.mark.parametrize("shape", [(50,), (1, 50), (256, 50), (257, 50), (300, 4, 6), (4, 0),
                                   (0,), (3, 1)])
def test_left_to_right_is_a_column_loop(shape):
    x = _mixed(np.random.default_rng(list(shape)), shape)
    _assert_same_bits(left_to_right(x), _column_loop(x))
    _assert_same_bits(left_to_right(-0.0 * np.abs(x)), _column_loop(-0.0 * np.abs(x)))


@pytest.mark.parametrize("rows", [1, 256, 257])
def test_left_to_right_on_zeros_and_views(rows):
    rng = np.random.default_rng(rows)
    x = _mixed(rng, (rows, 40))
    x[0] = -0.0  # an all -0.0 row sums to +0.0, as from the loop's zero start
    x[rows // 2, ::2] = -0.0
    x[:, 7] = -0.0  # an all -0.0 column
    _assert_same_bits(left_to_right(x), _column_loop(x))
    assert np.signbit(left_to_right(x)[0]) == np.False_
    transposed = _mixed(rng, (40, rows)).T  # a strided view
    _assert_same_bits(left_to_right(transposed), _column_loop(transposed))


def _buyer_loop(budgets, desires):
    total = 0.0
    for budget, desire in zip(budgets, desires):
        total = total + np.minimum(budget, desire)
    return total


@pytest.mark.parametrize("row_shape", [(), (1,), (256,), (257,), (3, 4)])
def test_revenue_of_an_array_is_the_buyer_loop(row_shape):
    rng = np.random.default_rng(len(row_shape) + sum(row_shape))
    n = 9
    budgets = np.abs(_mixed(rng, n))
    budgets[[1, 4]] = 0.0
    budgets[[2, 7]] = np.inf
    desires = _mixed(rng, (n,) + row_shape)
    desires[1] = -0.0  # capped by a zero budget
    desires[5] = -0.0
    for b in (budgets, budgets.tolist()):
        _assert_same_bits(revenue(b, desires), _buyer_loop(budgets, desires))
        _assert_same_bits(revenue(b, iter(desires)), _buyer_loop(budgets, desires))
    zeros = -0.0 * np.abs(desires)  # every row -0.0: sums to +0.0, as from the loop's start
    _assert_same_bits(revenue(budgets, zeros), _buyer_loop(budgets, zeros))


def test_linear_revenue_adds_left_to_right():
    rng = random.Random(32)
    for inst in BATTERY:
        prices = [rng.choice([0.0, rng.uniform(0.0, 1.2), inst.values[0][j]])
                  for j in range(inst.m)]
        desires = [left_to_right_desire(zip(row, prices, [1.0] * inst.m))
                   for row in inst.values]
        assert linear_revenue(inst, prices) == left_to_right_revenue(inst.budgets, desires)


def test_shard_revenue_adds_curve_by_curve_left_to_right():
    rng = random.Random(33)
    for inst in BATTERY:
        shards = random_shardset(rng, inst.m)
        desires = [_shard_desire(row, shards) for row in inst.values]
        per_buyer, total = shard_revenue(inst, shards)
        assert per_buyer == tuple(min(b, d) for b, d in zip(inst.budgets, desires))
        assert total == left_to_right_revenue(inst.budgets, desires)


def test_extension_value_adds_copies_in_order():
    rng = random.Random(34)
    for inst in BATTERY:
        copies = {(rng.randrange(inst.m), rng.randrange(inst.n)) for _ in range(2 * inst.m)}
        desires = [left_to_right_desire((row[j], inst.values[l][j], 1.0)
                                        for j, l in sorted(copies))
                   for row in inst.values]
        assert extension_value(inst, copies) == left_to_right_revenue(inst.budgets, desires)


def test_clearing_per_buyer_revenue_adds_items_left_to_right():
    rng = random.Random(35)
    for inst in BATTERY:
        markets = [
            market_from_prices(inst, [rng.uniform(0.0, 1.2) for _ in range(inst.m)]),
            shards_to_items(inst, random_shardset(rng, inst.m)),
        ]
        for mkt in markets:
            sizes = mkt.sizes or [1.0] * mkt.num_items
            expected = tuple(min(b, left_to_right_desire(zip(row, mkt.prices, sizes)))
                             for b, row in zip(mkt.budgets, mkt.values))
            assert per_buyer_revenue(mkt) == expected


def _random_selection(rng, n, m, samples):
    """Which copy each sample picks, under fractional marginals that leave
    some mass on no copy and one dataset never picked."""
    y = rng.random((n, m))
    y *= rng.uniform(0.2, 1.0, m) / y.sum(axis=0)
    y[:, rng.integers(m)] = 0.0
    sel = np.zeros((samples, n * m))
    for s, uniforms in enumerate(rng.random((samples, m))):
        for j, u in enumerate(uniforms):
            copy = int(np.searchsorted(np.cumsum(y[:, j]), u, side="right"))
            if copy < n:
                sel[s, copy * m + j] = 1.0
    return sel


def test_sampled_marginals_equal_the_two_pass_reference():
    rng = np.random.default_rng(37)
    picked_differ = 0
    for n, m in [(5, 3), (9, 4), (15, 8), (30, 12), (60, 30)]:
        for budget_scale in (0.25, 1.0, 4.0, 16.0):
            inst = gen_random(n, m, int(rng.integers(10**6)), budget_scale=budget_scale)
            W = _copy_weights(inst)
            sel = _random_selection(rng, n, m, samples=16)
            r_with, r_without = _sampled_marginals(inst.budgets, W, sel)
            want_with, want_without = sampled_marginals_reference(inst.budgets, W, sel)
            assert np.array_equal(r_with, want_with)
            assert np.array_equal(r_without, want_without)
            # the sample's own revenue is not what the picked copies give back
            own = np.array([left_to_right_revenue(inst.budgets, load) for load in sel @ W.T])
            samples, copies = np.nonzero(sel)
            picked_differ += np.count_nonzero(want_with[samples, copies] != own[samples])
    assert picked_differ > 0


def _spend_rows(rng, rows, items):
    """Buyers for ``take``: random rows, then rows with free items, exact ties
    in surplus per unit of money, nothing wanted, a zero budget, and budgets
    equal to the sum of their first ``k`` prices in spend order."""
    values = rng.uniform(0.0, 2.0, (rows, items))
    prices = rng.uniform(0.0, 2.0, (rows, items))
    wants = rng.random((rows, items)) < 0.7
    budgets = rng.uniform(0.0, 1.5, rows) * items
    prices[1::7, :3] = [0.0, 1e-10, 1e-9]  # free, within the tolerance of zero
    prices[2::7], values[2::7] = 0.5, 0.75  # every priced item ties
    prices[3::7, 1::2] = 2.0 * prices[3::7, ::2]  # pairs of items tie (``items`` is even)
    values[3::7, 1::2] = 2.0 * values[3::7, ::2]
    wants[4::7] = False
    budgets[5::7] = 0.0
    for r in range(6, rows, 7):
        order = np.flatnonzero(wants[r] & (prices[r] > 1e-9))
        ratio = -(values[r, order] - prices[r, order]) / prices[r, order]
        paid = prices[r, order[np.argsort(ratio, kind="stable")]]
        budgets[r] = left_to_right(paid[:rng.integers(paid.size + 1)])
    return budgets, values, prices, wants


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_take_spends_each_row_as_the_one_buyer_loop(scale):
    rng = np.random.default_rng(int(np.log10(scale)) + 40)
    budgets, values, prices, wants = (x * scale if x.dtype == float else x
                                      for x in _spend_rows(rng, 70, 12))
    want = np.array([take_reference(*row) for row in zip(budgets, values, prices, wants)])
    _assert_same_bits(take(budgets, values, prices, wants), want)
    # one buyer as a 1-D call, and many buyers under one shared price row
    _assert_same_bits(take(budgets[6], values[6], prices[6], wants[6]), want[6])
    shared = np.array([take_reference(b, v, prices[0], w)
                       for b, v, w in zip(budgets, values, wants)])
    _assert_same_bits(take(budgets, values, prices[0], wants), shared)


def test_take_spends_an_infinite_budget_on_everything_wanted():
    rng = np.random.default_rng(41)
    _, values, prices, wants = _spend_rows(rng, 14, 10)
    budgets = np.full(14, np.inf)
    want = np.array([take_reference(*row) for row in zip(budgets, values, prices, wants)])
    _assert_same_bits(take(budgets, values, prices, wants), want)
    assert np.array_equal(want, np.where(wants, 1.0, 0.0))


def _demand_battery(seed):
    rng = random.Random(seed)
    for n, m in ((5, 3), (15, 8), (30, 15), (60, 30)):
        for budget_scale in (0.25, 1.0, 4.0, 16.0):
            inst = gen_random(n, m, rng.randrange(10**6), budget_scale=budget_scale)
            yield inst, solve_plc(inst).shards
            part = [rng.randrange(n) for _ in range(m)]
            yield inst, prices_to_shardset(partition_prices(inst, part))


def test_optimal_demand_equals_the_one_buyer_reference():
    bound = 0
    for inst, shards in _demand_battery(43):
        for i in range(inst.n):
            got, want = optimal_demand(inst, i, shards), optimal_demand_reference(inst, i, shards)
            _assert_same_bits(got.fractions, want.fractions)
            _assert_same_bits(got.payment, want.payment)
            bound += want.payment == inst.budgets[i] < float("inf")
    assert bound > 200  # the battery must exercise the budget-bound spend


@pytest.mark.parametrize("args, kwargs, prices, partition, revenue", [
    ((6, 4, 3), dict(steps=10, samples=16, roundings=8, seed=5),
     (0.5693719795858222, 0.35145279292017495, 0.2621622127078398, 0.4832598173786363),
     (3, 4, 3, 2), 2.5412282115151923),
    ((12, 5, 7, 1.0, 0.5), dict(steps=20, samples=32, roundings=16, seed=11),
     (0.37490453339533303, 0.40181593279278693, 0.3874603957269692, 0.37077374550898956,
      0.3079678791181608),
     (0, 10, 4, 5, 6), 3.297805874426083),
])
def test_continuous_greedy_pinned_output(args, kwargs, prices, partition, revenue):
    sol = continuous_greedy(gen_random(*args), **kwargs)
    assert sol.prices == prices
    assert sol.partition == partition
    assert sol.revenue == revenue
