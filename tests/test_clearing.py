import random

import pytest

from datamarket.clearing import (
    ItemMarket,
    clearabilize,
    clearing_allocation,
    desire,
    is_clearable,
    market_from_prices,
    per_buyer_revenue,
    potential,
    shards_to_items,
)
from datamarket.fixtures import gen_ce_se, gen_random
from datamarket.model import Instance, ShardCurve
from datamarket.plc_opt import solve_plc


def test_shards_to_items_linear_roundtrip():
    inst = Instance.make([1.0, 2.0], [[3.0], [4.0]])
    market = shards_to_items(inst, (ShardCurve(((1.0, 2.5),)),))
    assert market.prices == (2.5,)
    assert market.values == ((3.0,), (4.0,))


def test_shards_to_items_preserves_interest():
    inst = Instance.make([100.0], [[20.0]])
    curve = ShardCurve.from_pairs([(0.3, 10.0), (0.5, 20.0), (0.2, 25.0)])
    market = shards_to_items(inst, (curve,))
    assert market.prices == pytest.approx((3.0, 10.0, 5.0))
    interested = [market.values[0][j] >= market.prices[j] - 1e-9 for j in range(3)]
    assert interested == [True, True, False]
    assert market.item_origin == ((0, 0), (0, 1), (0, 2))


def test_shards_to_items_tie_is_interested():
    inst = Instance.make([10.0], [[4.0]])
    market = shards_to_items(inst, (ShardCurve.from_pairs([(0.5, 4.0), (0.5, 5.0)]),))
    assert market.prices[0] == pytest.approx(2.0)
    assert market.values[0][0] == pytest.approx(2.0)
    # value ties price on the first item, so the buyer wants it
    assert market.values[0][0] >= market.prices[0] - 1e-9
    assert desire(market, 0) == pytest.approx(2.0)


def test_is_clearable_zero_prices():
    market = market_from_prices(gen_random(2, 3, seed=1), (0.0, 0.0, 0.0))
    assert is_clearable(market)


def test_is_clearable_ce_instance_at_low_price():
    market = market_from_prices(gen_ce_se(4), (1.9,))
    assert is_clearable(market)


def test_is_clearable_single_poor_buyer():
    market = ItemMarket((2.0,), ((2.0,),), (1.0,))
    assert not is_clearable(market)


def test_clearabilize_already_clearable_is_identity():
    market = market_from_prices(gen_ce_se(4), (1.9,))
    result = clearabilize(market)
    assert result.prices == market.prices
    assert result.iterations == 0


def test_clearabilize_ce_instance_at_high_price_is_already_clearable():
    # at price 2 the rich buyer is interested and satisfied, so nothing moves
    market = market_from_prices(gen_ce_se(4), (2.0,))
    assert is_clearable(market)
    result = clearabilize(market)
    assert result.prices == (2.0,)
    assert result.iterations == 0


def test_clearabilize_single_buyer_price_drop():
    market = ItemMarket((2.0,), ((2.0,),), (1.0,))
    result = clearabilize(market)
    assert result.prices == (1.0,)
    assert result.iterations == 1
    assert per_buyer_revenue(market, result.prices) == (1.0,)
    assert list(result.potentials) == sorted(result.potentials, reverse=True)


def test_clearabilize_drops_to_zero_when_nobody_is_interested():
    market = ItemMarket((5.0,), ((1.0,),), (10.0,))
    result = clearabilize(market)
    assert result.prices == (0.0,)
    assert is_clearable(market, result.prices)


def _assert_postconditions(market, result):
    n = market.num_buyers
    assert is_clearable(market, result.prices)
    before = per_buyer_revenue(market)
    after = per_buyer_revenue(market, result.prices)
    for b, a in zip(before, after):
        assert a >= b - 1e-9
    for q0, q1 in zip(market.prices, result.prices):
        assert q1 <= q0 + 1e-12
    assert result.iterations <= (market.num_items + 1) * (n + 1) ** 2
    pots = result.potentials
    assert all(p1 > p2 for p1, p2 in zip(pots, pots[1:]))
    assert pots[-1] == potential(market, result.prices)


def test_clearabilize_postconditions_on_random_markets():
    rng = random.Random(220)
    for trial in range(60):
        inst = gen_random(rng.randint(1, 4), rng.randint(1, 4), seed=trial + 7000,
                          budget_scale=rng.choice([0.3, 1.0]))
        prices = tuple(rng.uniform(0.0, 1.4) for _ in range(inst.m))
        market = market_from_prices(inst, prices)
        _assert_postconditions(market, clearabilize(market))


def test_clearabilize_postconditions_on_shard_markets():
    rng = random.Random(221)
    for trial in range(30):
        inst = gen_random(rng.randint(2, 4), rng.randint(1, 3), seed=trial + 8000,
                          budget_scale=0.4)
        market = shards_to_items(inst, solve_plc(inst).shards)
        # scale prices up so some items start out unclearable
        bumped = ItemMarket(
            tuple(q * rng.uniform(1.0, 3.0) for q in market.prices),
            market.values, market.budgets, market.item_origin,
        )
        _assert_postconditions(bumped, clearabilize(bumped))


def test_clearing_allocation_zero_prices():
    inst = gen_random(2, 2, seed=3)
    market = market_from_prices(inst, (0.0, 0.0))
    alloc = clearing_allocation(market)
    assert alloc.total_revenue == 0.0
    for bundle in alloc.bundles:
        assert bundle.fractions == (1.0, 1.0)


def test_clearing_allocation_ce_instance():
    market = market_from_prices(gen_ce_se(4), (1.9,))
    alloc = clearing_allocation(market)
    assert all(bundle.fractions == (1.0,) for bundle in alloc.bundles)
    assert alloc.total_revenue == pytest.approx(1.9 * 4)


def test_clearing_allocation_requires_clearable_prices():
    market = ItemMarket((2.0,), ((2.0,),), (1.0,))
    with pytest.raises(ValueError):
        clearing_allocation(market)


def test_clearing_allocation_every_priced_item_fully_owned():
    rng = random.Random(222)
    for trial in range(40):
        inst = gen_random(rng.randint(1, 4), rng.randint(1, 4), seed=trial + 9000)
        prices = tuple(rng.uniform(0.0, 1.2) for _ in range(inst.m))
        market = market_from_prices(inst, prices)
        cleared = clearabilize(market).prices
        alloc = clearing_allocation(market, cleared)
        for j, q in enumerate(cleared):
            if q > 1e-9:
                assert any(b.fractions[j] == 1.0 for b in alloc.bundles)
        assert alloc.total_revenue == pytest.approx(sum(per_buyer_revenue(market, cleared)))


def test_desire_counts_only_interesting_items():
    market = ItemMarket((1.0, 2.0), ((1.5, 1.0),), (10.0,))
    assert desire(market, 0) == pytest.approx(1.0)


def test_shard_items_decide_interest_per_unit():
    # the buyer's per-unit value is 5e-7 below the second shard's slope: she
    # does not want it, although 0.001 of it is valued within 1e-9 of its price
    inst = Instance.make([10.0], [[0.9999995]])
    shards = (ShardCurve.from_pairs([(0.999, 0.5), (0.001, 1.0)]),)
    market = shards_to_items(inst, shards)
    assert per_buyer_revenue(market) == pytest.approx((0.4995,), abs=1e-12)
    assert desire(market, 0) == pytest.approx(0.4995, abs=1e-12)
    assert potential(market, market.prices) == 2 * (2 + 1) + 0
