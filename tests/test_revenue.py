import math
import random

import numpy as np
import pytest

from datamarket import revenue
from datamarket.clearing import ItemMarket, clearabilize, clearing_allocation, shards_to_items
from datamarket.demand import optimal_demand
from datamarket.fixtures import gen_greedy_suboptimal, gen_lingap, gen_nonsub, gen_random
from datamarket.model import (
    Bundle,
    Instance,
    ShardCurve,
    ValidationError,
    partition_prices,
    prices_to_shardset,
)
from datamarket.plc_opt import extract_allocation, solve_plc
from datamarket.properties import extension_gaps, partition_marginal_gaps
from datamarket.revenue import (
    buyer_desire,
    extension_value,
    first_interested,
    interested,
    linear_revenue,
    partition_revenue,
    shard_items,
    shard_revenue,
)

EPS = 0.001


def test_desire_example3_buyer2():
    inst = gen_nonsub(EPS)
    assert buyer_desire(inst, 1, (EPS, 2.0)) == pytest.approx(EPS + 2.0)


def test_desire_zero_prices():
    inst = gen_random(3, 4, seed=5)
    assert buyer_desire(inst, 0, (0.0,) * 4) == 0.0


def test_desire_index_out_of_range():
    inst = gen_nonsub(EPS)
    with pytest.raises(IndexError):
        buyer_desire(inst, 2, (1.0, 1.0))


def test_desire_matches_direct_summation():
    rng = random.Random(7)
    for trial in range(50):
        inst = gen_random(3, 3, seed=trial)
        prices = tuple(rng.uniform(0, 1.2) for _ in range(3))
        for i in range(3):
            expected = 0.0
            for j in range(3):
                if inst.values[i][j] >= prices[j] - 1e-9:
                    expected += prices[j]
            assert buyer_desire(inst, i, prices) == pytest.approx(expected)


def test_first_interested_is_where_interest_starts_in_a_sorted_column():
    rng = np.random.default_rng(19)
    base = rng.uniform(0.0, 2.0, 12)
    # ties, zeros and values a few ulps either side of each other value +- 1e-9
    near = np.concatenate([np.nextafter(base + d, rng.choice([-np.inf, np.inf], 12))
                           for d in (-1e-9, 1e-9)])
    ranked = np.sort(np.concatenate([base, base[:3], near, [0.0, 0.0]]))
    prices = np.concatenate([ranked, near, [0.0, 3.0]])
    first = first_interested(ranked, prices)
    ranks = np.arange(ranked.size)[:, None]
    assert np.array_equal(ranks >= first, interested(ranked[:, None], prices))


def test_linear_revenue_example3_table():
    inst = gen_nonsub(EPS)
    assert linear_revenue(inst, (EPS, 1.0)) == pytest.approx(2.0, abs=1e-12)
    assert linear_revenue(inst, (EPS, 2.0)) == pytest.approx(EPS + 1.0, abs=1e-12)


def test_linear_revenue_greedy_suboptimal_optimum():
    inst = gen_greedy_suboptimal()
    assert linear_revenue(inst, (0.2, 0.2, 0.5)) == pytest.approx(1.3, abs=1e-12)


def test_infinite_budget_never_caps():
    inst = Instance.make([math.inf], [[5.0, 7.0]])
    assert linear_revenue(inst, (5.0, 7.0)) == pytest.approx(12.0)


def test_shard_revenue_linearity_gap_curve():
    n, eps = 3, 0.1
    inst = gen_lingap(n, eps)
    curve = ShardCurve.from_pairs([(1 - eps, eps), ((eps), (n - 1) * (1 - eps))])
    per_buyer, total = shard_revenue(inst, (curve,))
    assert total == pytest.approx((2 * n - 1) * eps * (1 - eps))
    assert per_buyer[0] == pytest.approx(inst.budgets[0])
    assert per_buyer[n - 1] == pytest.approx(inst.budgets[n - 1])


def test_shard_revenue_free_curve_earns_nothing():
    inst = gen_random(3, 1, seed=11)
    _, total = shard_revenue(inst, (ShardCurve(((1.0, 0.0),)),))
    assert total == 0.0


def test_shard_revenue_of_price_encoding_matches_linear():
    rng = random.Random(13)
    for trial in range(40):
        inst = gen_random(rng.randint(1, 4), rng.randint(1, 4), seed=trial + 100)
        prices = tuple(rng.uniform(0, 1.5) for _ in range(inst.m))
        _, total = shard_revenue(inst, prices_to_shardset(prices))
        assert total == pytest.approx(linear_revenue(inst, prices), abs=1e-12)


def test_partition_revenue_unpriced_is_zero():
    inst = gen_random(2, 3, seed=1)
    assert partition_revenue(inst, (None, None, None)) == 0.0


def test_partition_revenue_greedy_suboptimal():
    inst = gen_greedy_suboptimal()
    assert partition_revenue(inst, (0, 0, 1)) == pytest.approx(1.3)


def test_partition_revenue_equals_induced_prices():
    rng = random.Random(3)
    for trial in range(60):
        inst = gen_random(3, 3, seed=trial + 500)
        part = tuple(rng.choice([None, 0, 1, 2]) for _ in range(3))
        assert partition_revenue(inst, part) == linear_revenue(inst, partition_prices(inst, part))


def test_extension_empty_is_zero():
    assert extension_value(gen_random(2, 2, seed=9), []) == 0.0


def test_extension_two_copies_one_dataset():
    # one dataset, two buyers; selecting both copies charges each buyer for
    # every copy priced at or below her own value
    inst = Instance.make([0.8, 10.0], [[1.0], [2.0]])
    got = extension_value(inst, [(0, 0), (0, 1)])
    assert got == pytest.approx(min(0.8, 1.0) + min(10.0, 1.0 + 2.0))


def test_extension_matches_partition_on_single_copies():
    rng = random.Random(17)
    for trial in range(60):
        inst = gen_random(3, 3, seed=trial + 900)
        part = tuple(rng.choice([None, 0, 1, 2]) for _ in range(3))
        copies = [(j, who) for j, who in enumerate(part) if who is not None]
        assert extension_value(inst, copies) == pytest.approx(
            partition_revenue(inst, part), abs=1e-12
        )


def test_extension_rejects_out_of_range():
    inst = gen_random(2, 2, seed=4)
    with pytest.raises(IndexError):
        extension_value(inst, [(5, 0)])
    with pytest.raises(IndexError):
        extension_value(inst, [(0, 5)])


def test_extension_monotone_and_submodular_sampled():
    instances = [gen_random(3, 3, seed=s) for s in range(10)]
    sub_gap, mono_gap = extension_gaps(instances, samples=1500, seed=21)
    assert sub_gap <= 1e-9
    assert mono_gap <= 1e-9


def test_partition_marginals_diminish_sampled():
    instances = [gen_random(3, 3, seed=s + 50) for s in range(10)]
    assert partition_marginal_gaps(instances, samples=1500, seed=22) <= 1e-9


def test_price_vector_must_cover_every_dataset():
    inst = gen_random(3, 3, seed=1)
    for prices, count in (((5.0,), 1), ((5.0,) * 4, 4)):
        with pytest.raises(ValueError, match=f"got {count} prices for 3 datasets"):
            linear_revenue(inst, prices)
        with pytest.raises(ValueError, match=f"got {count} prices for 3 datasets"):
            buyer_desire(inst, 0, prices)


@pytest.mark.parametrize("read", [shard_revenue, shards_to_items])
def test_shard_set_must_cover_every_dataset(read):
    inst = gen_random(3, 3, seed=1)
    with pytest.raises(ValueError, match="got 1 curves for 3 datasets"):
        read(inst, (ShardCurve(((1.0, 0.1),)),))


def test_shard_arrays_are_built_once_per_shardset(monkeypatch):
    shards = (ShardCurve.from_pairs([(0.25, 0.5), (0.75, 2.0)]), ShardCurve(((1.0, 1.0),)))
    _, prices, sizes = shard_items([1.0, 2.0], shards)
    _, again, _ = shard_items([[0.5, 0.5], [3.0, 1.0]], list(shards))  # an equal ShardSet
    assert prices.tolist() == [[0.125, 1.5], [1.0, math.inf]]
    assert again.tolist() == prices.tolist()
    assert sizes.tolist() == [[0.25, 0.75], [1.0, 0.0]]
    builds = []
    real = revenue.shard_items
    monkeypatch.setattr(revenue, "shard_items", lambda *args: builds.append(1) or real(*args))
    # a master with 18 shards over 10 curves: solve, allocate and clear read one grid
    inst = gen_random(20, 10, seed=7, budget_scale=4)
    sol = solve_plc(inst)
    extract_allocation(inst, sol.shards)
    mkt = shards_to_items(inst, sol.shards)
    clearing_allocation(mkt, clearabilize(mkt).prices)
    assert sum(len(curve.shards) for curve in sol.shards) == 18
    assert len(builds) == 1
    items = revenue.pricing(inst, sol.shards).items
    assert revenue.pricing(inst, sol.shards).items is items
    assert not any(a.flags.writeable for a in (*items, *mkt.arrays))
    assert len(builds) == 1
    # an equal but distinct tuple, a list (on every call) and another instance build again
    again = Instance.make(inst.budgets, inst.values)
    for read in ((inst, tuple(list(sol.shards))), (inst, list(sol.shards)),
                 (inst, list(sol.shards)), (again, sol.shards)):
        assert shard_revenue(*read) == (sol.per_buyer_revenue, sol.total_revenue)
    assert len(builds) == 5


def test_a_changed_list_shardset_is_read_again():
    shards = [ShardCurve(((1.0, 1.0),)), ShardCurve(((1.0, 2.0),))]
    _, prices, _ = shard_items([1.0, 2.0], shards)
    shards[1] = ShardCurve(((1.0, 3.0),))  # the same list object, changed
    _, again, _ = shard_items([1.0, 2.0], shards)
    assert prices.tolist() == [[1.0], [2.0]]
    assert again.tolist() == [[1.0], [3.0]]
    frozen = tuple(shards)
    assert shard_items([1.0, 2.0], frozen)[1].tolist() == [[1.0], [3.0]]


@pytest.mark.parametrize("bad, message", [
    (((1.0, -1.0),), "curve 1: invalid shard slope -1.0"),
    (((1.0, math.nan),), "curve 1: invalid shard slope nan"),
    (((1.0, math.inf),), "curve 1: invalid shard slope inf"),
    (((0.5, 0.1), (0.5, -math.inf)),
     "curve 1: invalid shard slope -inf; shard slopes are not strictly increasing"),
    (((1.0, 0.1), (0.0, 0.2)), "curve 1: non-positive shard size 0.0"),
    (((-0.5, 0.1), (1.5, 0.2)), "curve 1: non-positive shard size -0.5"),
    ((), "curve 1: curve has no shards"),
], ids=["negative", "nan", "inf", "minus-inf", "zero-size", "negative-size", "empty"])
def test_every_shard_reader_rejects_a_directly_built_bad_curve(bad, message):
    # from_pairs would refuse these curves; built directly, they reach the readers
    inst = Instance.make([1.0, 1.0], [[0.5, 0.2], [0.3, 0.4]])
    shards = (ShardCurve(((1.0, 0.2),)), ShardCurve(bad))
    good = (ShardCurve(((1.0, 0.2),)), ShardCurve(((1.0, 0.3),)))
    readers = [
        (lambda s: [a.tolist() for a in shard_items(inst.array, s)],
         [[[[0.5], [0.2]], [[0.3], [0.4]]], [[0.2], [0.3]], [[1.0], [1.0]]]),
        (lambda s: shard_revenue(inst, s), ((0.2, 0.5), 0.2 + 0.5)),
        (lambda s: optimal_demand(inst, 1, s), Bundle((1.0, 1.0), 0.2 + 0.3)),
        (lambda s: shards_to_items(inst, s),
         ItemMarket((0.2, 0.3), ((0.5, 0.2), (0.3, 0.4)), (1.0, 1.0), ((0, 0), (1, 0)),
                    (1.0, 1.0))),
    ]
    for read, want in readers:
        for _ in range(2):  # a failed build is never kept
            with pytest.raises(ValidationError) as exc:
                read(shards)
            assert str(exc.value) == message
        assert read(good) == want


def test_a_market_of_empty_curves_is_rejected():
    inst = Instance.make([1.0, 1.0], [[0.5, 0.2], [0.3, 0.4]])
    with pytest.raises(ValidationError) as exc:
        shard_revenue(inst, (ShardCurve(()), ShardCurve(())))
    assert str(exc.value) == "curve 0: curve has no shards"
