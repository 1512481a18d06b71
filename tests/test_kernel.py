"""The revenue kernel adds in a fixed order: items left to right, then
buyers left to right.  These tests compare it with ``==`` against plain
Python loops written in that order, and pin the output of
``continuous_greedy`` on two seeded instances."""

import random

import pytest

from datamarket.clearing import market_from_prices, per_buyer_revenue, shards_to_items
from datamarket.fixtures import gen_random
from datamarket.linear_opt import continuous_greedy
from datamarket.revenue import extension_value, linear_revenue, shard_revenue
from oracle_util import (
    instance_battery,
    left_to_right_desire,
    left_to_right_revenue,
    random_shardset,
)

BATTERY = instance_battery(60, seed=31, n_max=8, m_max=6)


def _shard_desire(row, shards):
    desire = 0.0
    for v, curve in zip(row, shards):
        desire += left_to_right_desire((v * size, slope * size, size)
                                       for size, slope in curve.shards)
    return desire


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
