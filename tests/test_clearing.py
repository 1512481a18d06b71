import copy
import dataclasses
import math
import pickle
import random

import numpy as np
import pytest

from datamarket import clearing
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
from datamarket.fixtures import gen_ce_se, gen_nonsub, gen_random, gen_sepgap
from datamarket.model import Instance, ShardCurve, ValidationError, partition_prices
from datamarket.plc_opt import solve_plc
from oracle_util import clearabilize_reference, pricing_battery, spend_reference


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


def test_clearing_allocation_matches_spend_reference_on_constrained_buyers():
    constrained = 0
    for inst, shards in pricing_battery(62):
        market = shards_to_items(inst, shards)
        cleared = clearabilize(market).prices
        alloc = clearing_allocation(market, cleared)
        for i in range(inst.n):
            if desire(market, i, cleared) > inst.budgets[i] + 1e-9:
                items = [(value, price, value >= price - 1e-9 * size)
                         for value, price, size in zip(market.values[i], cleared, market.sizes)]
                assert alloc.bundles[i].fractions == tuple(spend_reference(inst.budgets[i], items))
                constrained += 1
    assert constrained > 100  # the battery must exercise budget-constrained buyers


def test_desire_counts_only_interesting_items():
    market = ItemMarket((1.0, 2.0), ((1.5, 1.0),), (10.0,))
    assert desire(market, 0) == pytest.approx(1.0)


@pytest.mark.parametrize("i", [-1, 4])
def test_desire_rejects_a_buyer_index_out_of_range(i):
    market = market_from_prices(gen_random(4, 3, 1), (0.1, 0.2, 0.3))
    with pytest.raises(IndexError, match=f"buyer index {i} out of range for n=4"):
        desire(market, i)


def test_shard_items_decide_interest_per_unit():
    # the buyer's per-unit value is 5e-7 below the second shard's slope: she
    # does not want it, although 0.001 of it is valued within 1e-9 of its price
    inst = Instance.make([10.0], [[0.9999995]])
    shards = (ShardCurve.from_pairs([(0.999, 0.5), (0.001, 1.0)]),)
    market = shards_to_items(inst, shards)
    assert per_buyer_revenue(market) == pytest.approx((0.4995,), abs=1e-12)
    assert desire(market, 0) == pytest.approx(0.4995, abs=1e-12)
    assert potential(market, market.prices) == 2 * (2 + 1) + 0


def test_per_buyer_revenue_is_floats():
    # every buyer wants nothing: budgets 1 and 1, then infinite budgets
    for inst in (gen_nonsub(0.001), gen_sepgap(2, 1)):
        market = market_from_prices(inst, (5.0,) * inst.m)
        revenues = per_buyer_revenue(market)
        assert revenues == (0.0,) * inst.n
        assert all(type(r) is float for r in revenues)


def test_clearabilize_decides_shard_interest_per_unit():
    # buyer 0's per-unit value is 5e-7 below the second shard's slope, so she
    # does not want that shard; judged as a whole item she would
    inst = Instance.make([0.3, 10.0], [[0.9999995], [0.4]])
    market = shards_to_items(inst, (ShardCurve.from_pairs([(0.999, 0.5), (0.001, 1.0)]),))
    result = clearabilize(market)
    assert result.prices == (0.3, 0.0)
    assert result.iterations == 2
    assert result.potentials == (16, 12, 3)
    _assert_postconditions(market, result)
    whole = clearabilize(dataclasses.replace(market, sizes=None))
    assert whole.prices == (0.299, 0.001)  # the budget 0.3 minus the other price 0.001
    assert whole.iterations == 1


def test_clearabilize_postconditions_on_sized_shard_markets():
    rng = random.Random(223)
    for trial in range(30):
        inst = gen_random(rng.randint(2, 4), rng.randint(1, 3), seed=trial + 8100,
                          budget_scale=0.4)
        market = shards_to_items(inst, solve_plc(inst).shards)
        # raise prices so some items start out unclearable; sizes are kept
        bumped = dataclasses.replace(
            market, prices=tuple(q * rng.uniform(1.0, 3.0) for q in market.prices))
        assert bumped.sizes is not None and bumped.sizes == market.sizes
        _assert_postconditions(bumped, clearabilize(bumped))


def _assert_matches_full_rescan(market):
    result = clearabilize(market)
    want = clearabilize_reference(market.prices, market.values, market.budgets, market.sizes)
    assert (result.prices, result.iterations, result.potentials) == want
    return result.iterations


def test_clearabilize_equals_a_full_rescan_on_the_pricing_battery():
    iterations = sum(_assert_matches_full_rescan(shards_to_items(inst, shards))
                     for inst, shards in pricing_battery(64))
    assert iterations > 100


def test_clearabilize_equals_a_full_rescan_on_sized_shard_markets():
    rng = random.Random(224)
    iterations = 0
    for trial in range(20):
        inst = gen_random(rng.randint(2, 12), rng.randint(1, 6), seed=trial + 8200,
                          budget_scale=rng.choice([0.25, 1.0]))
        market = shards_to_items(inst, solve_plc(inst).shards)
        bumped = dataclasses.replace(
            market, prices=tuple(q * rng.uniform(1.0, 3.0) for q in market.prices))
        iterations += _assert_matches_full_rescan(bumped)
    assert iterations > 20


def test_clearabilize_equals_a_full_rescan_on_hand_built_markets():
    # values drawn from the prices make ties, and an infinite budget never binds
    rng = random.Random(225)
    iterations = 0
    for _ in range(200):
        n, count = rng.randint(1, 6), rng.randint(1, 6)
        prices = [rng.choice([0.0, rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)])
                  for _ in range(count)]
        values = [[rng.choice([prices[k], rng.uniform(0.0, 2.0)]) for k in range(count)]
                  for _ in range(n)]
        budgets = [rng.choice([float("inf"), rng.uniform(0.0, 1.0), rng.uniform(0.0, 3.0)])
                   for _ in range(n)]
        market = ItemMarket(tuple(prices), tuple(map(tuple, values)), tuple(budgets))
        assert market.sizes is None
        iterations += _assert_matches_full_rescan(market)
    assert iterations > 100


@pytest.mark.parametrize("unit", [1.0, 1e12])
@pytest.mark.parametrize("n, m", [(40, 20), (60, 30), (100, 50)])
def test_clearabilize_equals_a_full_rescan_on_posted_prices_with_many_items(n, m, unit):
    # 20 or more terms a desire, where numpy's pairwise sum would add in
    # another order than item by item and change bits; at a unit of 1e12 the
    # desires' last bits also decide the rounding fallback's price
    rng = random.Random(n)
    iterations = 0
    for seed in (1, 2, 3):
        for scale in (1.0, 4.0):
            base = gen_random(n, m, seed=seed + 8300, budget_scale=scale)
            inst = Instance.make([b * unit for b in base.budgets],
                                 [[v * unit for v in row] for row in base.values])
            part = [rng.randrange(n) for _ in range(m)]
            iterations += _assert_matches_full_rescan(
                market_from_prices(inst, partition_prices(inst, part)))
    assert iterations > 6


@pytest.mark.parametrize("unit", [1e-8, 1.0, 1e8, 1e12])
def test_clearabilize_equals_a_full_rescan_on_both_branches(monkeypatch, unit):
    # a lowering that moves no buyer across her budget updates only the item
    # it lowered, and one that moves a buyer reads the whole market again with
    # _state; both must give the plain rescan's bits at every money unit
    real = clearing._state
    states = []
    monkeypatch.setattr(clearing, "_state", lambda *args: states.append(1) or real(*args))
    rng = random.Random(226)
    markets = iterations = 0
    for seed in range(12):
        n, m = rng.choice([(6, 3), (12, 6), (30, 15), (40, 20)])
        base = gen_random(n, m, seed=seed + 8400, budget_scale=rng.choice([0.25, 1.0, 4.0]))
        inst = Instance.make([b * unit for b in base.budgets],
                             [[v * unit for v in row] for row in base.values])
        posted = market_from_prices(inst, partition_prices(inst, [rng.randrange(n) for _ in range(m)]))
        # two or three shards a dataset, each priced at some buyer's value
        curves = tuple(ShardCurve.from_pairs(
            [(z, inst.values[rng.randrange(n)][j]) for z in rng.choice([(0.5, 0.5), (0.25, 0.25, 0.5)])])
            for j in range(m))
        for market in (posted, shards_to_items(inst, curves)):
            iterations += _assert_matches_full_rescan(market)
            markets += 1
    crossings = len(states) - markets  # each run reads the market once at its start
    assert 0 < crossings < iterations  # both branches ran


@pytest.mark.parametrize("unit", [1e-8, 1.0, 1e8, 1e12])
def test_an_array_backed_market_equals_one_built_from_its_fields(unit):
    # the curves are each seed's optimal ones with every slope times the unit
    for seed in range(6):
        base = gen_random(12, 6, seed=seed + 8500, budget_scale=(0.25, 1.0, 4.0)[seed % 3])
        inst = Instance.make([b * unit for b in base.budgets],
                             [[v * unit for v in row] for row in base.values])
        curves = tuple(ShardCurve(tuple((z, a * unit) for z, a in curve.shards))
                       for curve in solve_plc(base).shards)
        q = tuple(v * unit for v in base.values[seed])
        for mkt in (shards_to_items(inst, curves), market_from_prices(inst, q)):
            fields = (mkt.prices, mkt.values, mkt.budgets, mkt.item_origin, mkt.sizes)
            assert all(type(f) is tuple for f in fields[:4])
            assert all(type(row) is tuple for row in (*mkt.values, *mkt.item_origin))
            assert not any(a.flags.writeable for a in mkt.arrays)
            built = ItemMarket(*fields)
            assert built == mkt
            cleared = clearabilize(mkt)
            for call in (clearabilize, per_buyer_revenue, is_clearable,
                         lambda m: per_buyer_revenue(m, cleared.prices),
                         lambda m: is_clearable(m, cleared.prices),
                         lambda m: clearing_allocation(m, cleared.prices)):
                assert repr(call(built)) == repr(call(mkt))  # bit for bit
    assert market_from_prices(inst, q).sizes is None


@pytest.mark.parametrize("copy_of", [copy.copy, copy.deepcopy,
                                     lambda mkt: pickle.loads(pickle.dumps(mkt))],
                         ids=["copy", "deepcopy", "pickle"])
def test_a_copied_market_builds_its_own_read_only_arrays(copy_of):
    inst = gen_random(8, 4, seed=5)
    for mkt in (shards_to_items(inst, solve_plc(inst).shards), market_from_prices(inst, [0.3] * 4),
                ItemMarket((0.5, 0.3), ((0.6, 0.3), (0.4, 0.3)), (1.0, 0.2))):
        mkt.arrays  # build them before copying
        twin = copy_of(mkt)
        assert twin == mkt and type(twin.values[0]) is tuple
        assert not any(a.flags.writeable for a in twin.arrays)
        assert twin.arrays[1] is not mkt.arrays[1]
        assert repr(clearabilize(twin)) == repr(clearabilize(mkt))


def test_clearabilize_lowers_to_the_budget_left_without_residue():
    # nonsub's optimal curves price dataset 0 at 0.001; buyer 1 wants both
    # datasets on a budget of 1, so dataset 0 drops to 1 - 1.0 = 0.0 exactly,
    # where 0.001 - 1.001 + 1 left 1.1102230246251565e-16
    inst = gen_nonsub(0.001)
    market = shards_to_items(inst, solve_plc(inst).shards)
    assert market.prices == (0.001, 1.0)
    result = clearabilize(market)
    assert result.prices == (0.0, 1.0)
    assert result.iterations == 1
    _assert_postconditions(market, result)


@pytest.mark.parametrize("seed, c", [(2, 1e8), (8, 1e12), (19, 1e12)])
def test_clearabilize_keeps_lowering_when_rounding_keeps_a_buyer_over_budget(seed, c):
    # at this much money a price set to the budget left can round the buyer's
    # desire back above her budget; the price then drops by her excess.  (The
    # potential need not fall strictly here: the absolute 1e-9 of the
    # satisfied test is below one rounding of these budgets.)
    base = gen_random(15, 8, seed)
    inst = Instance.make([b * c for b in base.budgets],
                         [[v * c for v in row] for row in base.values])
    market = market_from_prices(inst, [max(row[j] for row in inst.values) for j in range(inst.m)])
    result = clearabilize(market)
    assert is_clearable(market, result.prices)
    assert all(q1 <= q0 for q0, q1 in zip(market.prices, result.prices))
    want = clearabilize_reference(market.prices, market.values, market.budgets)
    assert (result.prices, result.iterations, result.potentials) == want


@pytest.mark.parametrize("c", [1.0, pytest.param(1e12, marks=pytest.mark.xfail(
    strict=True, reason="the satisfied test's absolute 1e-9 is below one rounding of "
    "budgets near 1e12, so a lowering can leave the potential level (seed 8)"))])
def test_clearabilize_potential_strictly_decreases(c):
    # posted at each dataset's highest value, where most budgets bind
    iterations = 0
    for seed in range(20):
        base = gen_random(15, 8, seed)
        inst = Instance.make([b * c for b in base.budgets],
                             [[v * c for v in row] for row in base.values])
        result = clearabilize(market_from_prices(
            inst, [max(row[j] for row in inst.values) for j in range(inst.m)]))
        trace = result.potentials
        assert all(after < before for before, after in zip(trace, trace[1:])), seed
        iterations += result.iterations
    assert iterations > 100


def _seeded_markets():
    """The seeded markets of the tests above: posted prices, the pricing
    battery's shards, raised shard prices, and each dataset posted at its
    highest value."""
    rng = random.Random(220)
    for trial in range(60):
        inst = gen_random(rng.randint(1, 4), rng.randint(1, 4), seed=trial + 7000,
                          budget_scale=rng.choice([0.3, 1.0]))
        yield market_from_prices(inst, tuple(rng.uniform(0.0, 1.4) for _ in range(inst.m)))
    for inst, shards in pricing_battery(64):
        yield shards_to_items(inst, shards)
    rng = random.Random(223)
    for trial in range(30):
        inst = gen_random(rng.randint(2, 4), rng.randint(1, 3), seed=trial + 8100,
                          budget_scale=0.4)
        market = shards_to_items(inst, solve_plc(inst).shards)
        yield dataclasses.replace(
            market, prices=tuple(q * rng.uniform(1.0, 3.0) for q in market.prices))
    for seed in range(20):
        inst = gen_random(15, 8, seed)
        yield market_from_prices(inst, [max(row[j] for row in inst.values) for j in range(inst.m)])


def test_potential_and_is_clearable_read_the_state_clearabilize_starts_from():
    iterations = []
    for market in _seeded_markets():
        result = clearabilize(market)
        assert potential(market, market.prices) == result.potentials[0]
        assert is_clearable(market) == (result.iterations == 0)
        iterations.append(result.iterations)
    assert 0 < iterations.count(0) < len(iterations)  # both outcomes occur


@pytest.mark.parametrize("prices", [[0.1], [0.1, 0.2], [0.1] * 4, 0.1])
@pytest.mark.parametrize("call", [
    lambda mkt, prices: desire(mkt, 0, prices),
    per_buyer_revenue, is_clearable, potential, clearing_allocation,
])
def test_scans_reject_a_price_vector_of_the_wrong_length(call, prices):
    mkt = market_from_prices(gen_random(4, 3, seed=2), (0.5, 0.5, 0.5))
    with pytest.raises(ValueError, match=f"got {np.size(prices)} prices for 3 items"):
        call(mkt, prices)


@pytest.mark.parametrize("prices", [(0.5, 0.5), (0.5,) * 4])
def test_market_from_prices_rejects_the_wrong_number_of_prices(prices):
    with pytest.raises(ValueError, match=f"got {len(prices)} prices for 3 datasets"):
        market_from_prices(gen_random(4, 3, seed=2), prices)


def test_clearabilize_raises_after_exactly_its_bound(monkeypatch):
    # a lowering that leaves the price where it is keeps item 0 violating and
    # moves no buyer, so the loop never ends; it runs its (M + 1) * (n + 1)**2
    # iterations, one lowering each, and then raises
    mkt = market_from_prices(gen_random(2, 2, 3), [0.5, 0.5])
    assert not is_clearable(mkt)
    calls = []

    def stuck(price, *args):
        calls.append(1)
        return price

    monkeypatch.setattr(clearing, "_lowered", stuck)
    with pytest.raises(RuntimeError) as exc:
        clearabilize(mkt)
    assert str(exc.value) == "clearabilize failed to terminate within its bound"
    bound = (mkt.num_items + 1) * (mkt.num_buyers + 1) ** 2
    assert len(calls) == bound


@pytest.mark.parametrize("values, budgets, message", [
    (((math.nan,),), (1.0,), "invalid value at (0, 0): nan"),
    (((0.4, 0.2), (0.3, math.inf)), (1.0, 1.0), "invalid value at (1, 1): inf"),
    (((0.4, 0.2), (-0.3, 0.1)), (1.0, 1.0), "invalid value at (1, 0): -0.3"),
    (((0.4, 0.2), (0.3, 0.1)), (1.0, math.nan), "invalid budget for buyer 1: nan"),
    (((0.4, 0.2), (0.3, 0.1)), (-1.0, 1.0), "invalid budget for buyer 0: -1.0"),
    (((0.4, 0.2), (0.3, 0.1)), (1.0, -math.inf), "invalid budget for buyer 1: -inf"),
], ids=["nan-value", "inf-value", "negative-value", "nan-budget", "negative-budget",
        "minus-inf-budget"])
def test_an_item_market_rejects_a_bad_value_or_budget(values, budgets, message):
    mkt = ItemMarket((0.5,) * len(values[0]), values, budgets)
    for call in (clearabilize, is_clearable, per_buyer_revenue, clearing_allocation,
                 lambda mkt: mkt.arrays):
        with pytest.raises(ValidationError) as exc:
            call(mkt)
        assert str(exc.value) == message


@pytest.mark.parametrize("fields, message", [
    (((1.0,), ((1.0,),), (1.0,), None, (-1.0,)), "invalid size for item 0: -1.0"),
    (((1.0,), ((1.0,),), (1.0,), None, (math.nan,)), "invalid size for item 0: nan"),
    (((1.0, 0.5), ((1.0, 1.0),), (1.0,), None, (0.5, 0.0)), "invalid size for item 1: 0.0"),
    (((1.0, 0.5), ((1.0, 1.0),), (1.0,), None, (1.0,)), "got 1 sizes for 2 items"),
    (((1.0, 0.5), ((1.0, 1.0), (2.0,)), (1.0, 1.0)), "value row 1 has 1 items, expected 2"),
    (((1.0, 0.5), ((1.0,),), (1.0,)), "value row 0 has 1 items, expected 2"),
    (((1.0,), ((1.0,),), (1.0, 2.0)), "got 1 value rows for 2 buyers"),
], ids=["negative-size", "nan-size", "zero-size", "short-sizes", "ragged-row", "short-row",
        "missing-row"])
def test_an_item_market_rejects_a_bad_size_or_shape(fields, message):
    # a negative or NaN size made every buyer want the item at any price, so
    # the market cleared to 0.0 and earned 0.0; short sizes and rows raised
    # IndexError or numpy's reshape error
    mkt = ItemMarket(*fields)
    for call in (clearabilize, is_clearable, per_buyer_revenue, clearing_allocation,
                 lambda mkt: mkt.num_items, lambda mkt: mkt.arrays):
        with pytest.raises(ValidationError) as exc:
            call(mkt)
        assert str(exc.value) == message


def test_an_item_market_takes_an_infinite_budget():
    # buyer 0 wants both items and never runs out, so nothing is lowered
    mkt = ItemMarket((0.5, 0.3), ((0.6, 0.3), (0.4, 0.3)), (math.inf, 0.2))
    assert clearabilize(mkt).prices == (0.5, 0.3)
    assert per_buyer_revenue(mkt) == (0.5 + 0.3, 0.2)
