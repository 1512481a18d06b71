"""The revenue kernel adds in a fixed order: items left to right, then
buyers left to right.  These tests compare it with ``==`` against plain
Python loops written in that order, in whatever blocks it adds the buyers,
check continuous greedy's per-step estimate against its two-pass reference,
check the many-buyer spend and every buyer's demand against their one-buyer
references bit for bit, pin the output of ``continuous_greedy`` on seeded
instances, and check that it is the same under every BLAS kernel."""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import datamarket
import datamarket.revenue as kernel
from datamarket.clearing import market_from_prices, per_buyer_revenue, shards_to_items
from datamarket.demand import optimal_demand, take
from datamarket.fixtures import gen_random
from datamarket.linear_opt import (
    _copy_columns,
    _gain_bound,
    _sample_loads,
    _sampled_gains,
    _value_index,
    continuous_greedy,
)
from datamarket.model import Instance, partition_prices, prices_to_shardset
from datamarket.plc_opt import solve_plc
from datamarket.revenue import (
    extension_value,
    left_to_right,
    linear_revenue,
    revenue,
    shard_revenue,
)
from oracle_util import (
    copy_weights_reference,
    instance_battery,
    left_to_right_desire,
    left_to_right_revenue,
    optimal_demand_reference,
    random_shardset,
    sampled_marginals_reference,
    selection_reference,
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


def _pairwise_layouts():
    """Inputs of 9 or more items with ``-0.0`` entries, in the layouts a
    caller may pass: F-ordered, boolean-index results, strided views and
    single rows; reduced as some of them lie in memory, numpy would add
    pairwise."""
    rng = np.random.default_rng(2026)
    paid = _mixed(rng, (50, 65))  # items x buyers, as clearing keeps them
    paid[:, 0] = -0.0
    paid[::2, 3] = -0.0
    mask = np.arange(65) % 3 != 1
    cube = _mixed(rng, (30, 4, 5))  # items first
    cube[:, 1, 2] = -0.0
    wide = _mixed(rng, (2, 1000))
    wide[0, ::7] = -0.0
    wide[1] = -0.0
    column = _mixed(rng, (1000, 2))
    column[::5] = -0.0
    return {
        "F-ordered": np.asfortranarray(paid.T),
        "boolean columns, transposed": paid[:, mask].T,
        "boolean columns, F-ordered": paid.T[:, mask[:50]],
        "3-D moveaxis": np.moveaxis(cube, 0, -1),
        "(2, 1000)": wide,
        "(1, 1000)": wide[:1],
        "(1, 1000) all -0.0": wide[1:],
        "(1, 1000) strided": column.T[:1],
    }


@pytest.mark.parametrize("layout", list(_pairwise_layouts()))
def test_left_to_right_adds_in_sequence_on_any_layout(layout):
    x = _pairwise_layouts()[layout]
    assert x.shape[-1] >= 9 and (np.signbit(x) & (x == 0)).any()
    _assert_same_bits(left_to_right(x), _column_loop(x))


def _buyer_loop(budgets, desires):
    total = 0.0
    for budget, desire in zip(budgets, desires):
        total = total + np.minimum(budget, desire)
    return total


@pytest.mark.parametrize("row_shape", [(), (1,), (256,), (257,), (3, 4), (8192,), (8193,)])
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


def _hard_rows(rng, n, row_shape):
    """Budgets and desires for ``n`` buyers: mixed magnitudes, zero and
    infinite budgets, ``-0.0`` rows and entries."""
    budgets = np.abs(_mixed(rng, n))
    budgets[1::5] = 0.0
    budgets[2::7] = np.inf
    desires = _mixed(rng, (n,) + row_shape)
    desires[::6] = -0.0
    some = desires[3::4]  # a view: these rows get -0.0 in place of each positive entry
    some[some > 0] = -0.0
    return budgets, desires


@pytest.mark.parametrize("row_shape", [(), (1,), (1, 1), (2,), (4, 2), (5, 3), (40,)])
def test_revenue_in_small_blocks_is_the_buyer_loop(monkeypatch, row_shape):
    # with blocks of 64 entries, rows of up to 8 entries share blocks of 64,
    # 32, 16 or 8 buyers and 129 buyers leave one in the last block; longer
    # rows go one buyer at a time
    monkeypatch.setattr(kernel, "BLOCK_ENTRIES", 64)
    rng = np.random.default_rng([len(row_shape), *row_shape])
    budgets, desires = _hard_rows(rng, 129, row_shape)
    want = _buyer_loop(budgets, desires)
    _assert_same_bits(revenue(budgets, desires), want)
    # adding the buyers in two calls onto one running total changes no bit,
    # also when the rest comes from a generator
    for cut in (1, 8, 64, 100, 128):
        _assert_same_bits(revenue(budgets[cut:], desires[cut:],
                                  revenue(budgets[:cut], desires[:cut])), want)
        _assert_same_bits(revenue(budgets[cut:], iter(desires[cut:]),
                                  revenue(budgets[:cut], desires[:cut])), want)


@pytest.mark.parametrize("n", [100, 2000, 70_000])
@pytest.mark.parametrize("row_shape", [(), (1,), (1, 1)])
def test_revenue_of_one_entry_rows_adds_in_sequence(n, row_shape):
    # reduced down the buyers, a block of one-entry rows would add pairwise
    rng = np.random.default_rng(n + len(row_shape))
    budgets, desires = _hard_rows(rng, n, row_shape)
    _assert_same_bits(revenue(budgets, desires), _buyer_loop(budgets, desires))


@pytest.mark.parametrize("row_shape", [(), (1,), (300,), (9000,), (3, 4)])
@pytest.mark.parametrize("budget", [0.0, 0.5, np.inf])
def test_revenue_of_one_buyer(row_shape, budget):
    rng = np.random.default_rng(len(row_shape))
    desires = _mixed(rng, (1,) + row_shape)
    for rows in (desires, -0.0 * np.abs(desires)):
        _assert_same_bits(revenue([budget], rows), _buyer_loop([budget], rows))
        _assert_same_bits(revenue([budget], iter(rows)), _buyer_loop([budget], rows))


@pytest.mark.parametrize("row_shape", [(), (257,), (3, 4)])
def test_revenue_of_a_generator_reusing_one_buffer(row_shape):
    rng = np.random.default_rng(sum(row_shape) + 5)
    budgets = np.abs(_mixed(rng, 9))
    desires = _mixed(rng, (9,) + row_shape)
    kept = desires.copy()
    buffer = np.empty(row_shape)

    def reuse():
        for row in desires:
            buffer[...] = row
            yield buffer

    got = revenue(budgets, reuse())
    _assert_same_bits(got, _buyer_loop(budgets, desires))
    assert not np.shares_memory(got, buffer)
    _assert_same_bits(buffer, desires[-1])  # the rows it was given are left as they were
    _assert_same_bits(revenue(budgets, iter(desires)), _buyer_loop(budgets, desires))
    _assert_same_bits(desires, kept)


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
    """Which copy each sample picks per dataset (``n``: none), under
    fractional marginals that leave some mass on no copy and one dataset
    never picked."""
    y = rng.random((n, m))
    y *= rng.uniform(0.2, 1.0, m) / y.sum(axis=0)
    y[:, rng.integers(m)] = 0.0
    choices = np.full((samples, m), n)
    for s, uniforms in enumerate(rng.random((samples, m))):
        for j, u in enumerate(uniforms):
            choices[s, j] = min(n, int(np.searchsorted(np.cumsum(y[:, j]), u, side="right")))
    return choices


def _check_loads(inst, choices):
    """The loads, each checked against the sample's desire added left to right."""
    load = _sample_loads(inst, choices)
    assert load.shape == (len(choices), inst.n)
    for row, sample in zip(load, choices):
        prices = [inst.values[copy][j] if copy < inst.n else 0.0 for j, copy in enumerate(sample)]
        assert row.tolist() == [left_to_right_desire(zip(values, prices, [1.0] * inst.m))
                                for values in inst.values]
    return load


def test_sampled_marginals_equal_the_two_pass_reference():
    rng = np.random.default_rng(37)
    picked_differ = 0
    for n, m in [(5, 3), (9, 4), (15, 8), (30, 12), (60, 30)]:
        for budget_scale in (0.25, 1.0, 4.0, 16.0):
            inst = gen_random(n, m, int(rng.integers(10**6)), budget_scale=budget_scale)
            W = copy_weights_reference(inst)
            choices = _random_selection(rng, n, m, samples=16)
            sel = selection_reference(choices, n)
            load = _check_loads(inst, choices)
            copies = np.arange(n * m)
            _assert_same_bits(_copy_columns(inst, copies), W)
            want_with, want_without = sampled_marginals_reference(inst.budgets, W, sel, load)
            got = _sampled_gains(inst, choices, load, copies)
            assert np.array_equal(got, want_with - want_without)
            # a copy's columns and gains do not depend on which others are asked for
            some = rng.permutation(n * m)[:rng.integers(1, n * m + 1)]
            _assert_same_bits(_copy_columns(inst, some), W[:, some])
            _assert_same_bits(_sampled_gains(inst, choices, load, some), got[:, some])
            # the sample's own revenue is not what the picked copies give back
            own = np.array([left_to_right_revenue(inst.budgets, row) for row in load])
            samples, picked = np.nonzero(sel)
            picked_differ += np.count_nonzero(want_with[samples, picked] != own[samples])
    assert picked_differ > 0


def test_sampled_marginals_on_empty_repeated_and_single_samples():
    rng = np.random.default_rng(43)
    for n, m, budget_scale in [(9, 4, 0.25), (15, 8, 1.0), (30, 12, 4.0)]:
        inst = gen_random(n, m, int(rng.integers(10**6)), budget_scale=budget_scale)
        W = copy_weights_reference(inst)
        rows = _random_selection(rng, n, m, samples=4)
        rows[3] = n  # a sample that picked nothing
        for choices in (np.full((16, m), n),  # the first step: every sample picks nothing
                        rows[rng.integers(0, 4, 24)],  # each row repeated, shuffled
                        rows[1:2]):  # one sample
            load = _check_loads(inst, choices)
            want_with, want_without = sampled_marginals_reference(
                inst.budgets, W, selection_reference(choices, n), load)
            _assert_same_bits(_sampled_gains(inst, choices, load, np.arange(n * m)),
                              want_with - want_without)


def test_an_unpicked_copy_gains_at_most_its_bound():
    # a copy no sample picked adds at most its weights over the buyers still
    # under budget; float sums of n terms may overshoot by n * eps of the
    # revenue ceiling, the most any buyer could pay with every copy
    rng = np.random.default_rng(47)
    tight = 0
    for n, m in [(1, 1), (5, 3), (9, 4), (15, 8), (30, 12)]:
        for budget_scale in (0.25, 1.0, 4.0, 16.0):
            inst = gen_random(n, m, int(rng.integers(10**6)), budget_scale=budget_scale)
            W = copy_weights_reference(inst)
            choices = _random_selection(rng, n, m, samples=16)
            load = _sample_loads(inst, choices)
            gains = _sampled_gains(inst, choices, load, np.arange(n * m))
            order, from_rank, reach = _value_index(inst)
            assert order is inst.ranking[0]  # the instance's own order, not a second sort
            # the bound of each sample alone, from the value index
            bound = np.array([_gain_bound(inst, order, from_rank, row[None]).ravel()
                              for row in load])
            ceiling = revenue(inst.budgets, W.sum(axis=1))
            allowance = n * np.finfo(float).eps * ceiling
            assert np.all(np.abs(bound - (load < inst.budgets) @ W) <= allowance)
            assert np.allclose(reach, W.sum(axis=1), rtol=n * m * np.finfo(float).eps, atol=0.0)
            unpicked = selection_reference(choices, n) == 0.0
            assert np.all(gains[unpicked] <= bound[unpicked] + allowance)
            tight += np.count_nonzero(gains[unpicked] == bound[unpicked])
    assert tight > 0  # the bound is met where no budget binds


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


def _tie_case(value):
    # two buyers with no budget and one tiny or subnormal value: copies
    # whose bound is 0, or whose value underflows it, in every step
    return Instance.make([0.0, 0.0, 3.0, 0.5], [[0.0, 0.5], [2.0, 2.0], [value, 1.0], [2.0, 0.5]])


@pytest.mark.parametrize("make, kwargs, digest", [
    # one dataset and one sample: the copies' rows hold one entry each
    *[pytest.param(lambda s=s: gen_random(300, 1, s, budget_scale=0.5),
                   dict(steps=4, samples=1, roundings=1, seed=s), digest, id=f"300x1-s{s}")
      for s, digest in enumerate(["31f1ece5da028819", "7aba5d4de62d1dbc", "0e8a7b10b1ce74c3",
                                  "bd436ad78ef5b65a", "9c44bf35447a060e", "bbcd54be5376864c"])],
    pytest.param(lambda: _tie_case(1e-20), dict(steps=3, samples=3, roundings=2, seed=35),
                 "53f4a76eec239b51", id="tie-1e-20"),
    pytest.param(lambda: _tie_case(5e-324), dict(steps=3, samples=3, roundings=2, seed=35),
                 "53f4a76eec239b51", id="tie-5e-324"),
    pytest.param(lambda: gen_random(40, 20, 9, budget_scale=0.25), {}, "872d5b3b782a2706",
                 id="40x20-b0.25"),
    pytest.param(lambda: gen_random(30, 15, 7), {}, "0b995b23bd529b57", id="30x15-b1"),
    pytest.param(lambda: gen_random(60, 30, 3), dict(steps=10), "d22f02c5240ef63d",
                 id="60x30-b1-10steps"),
    pytest.param(lambda: gen_random(20, 10, 11, budget_scale=100.0), {}, "d2bdc67d6ebfb88e",
                 id="20x10-b100"),
])
def test_continuous_greedy_pinned_repr(make, kwargs, digest):
    # the first 16 hex digits of the sha256 of the solution's repr,
    # diagnostics included, as the one-buyer-at-a-time kernel printed it
    sol = continuous_greedy(make(), **kwargs)
    assert hashlib.sha256(repr(sol).encode()).hexdigest()[:16] == digest


def _openblas_dynamic_arch() -> bool:
    """Whether numpy's BLAS is an OpenBLAS build that picks its kernel at run
    time, the only kind that ``OPENBLAS_CORETYPE`` steers."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.25 can only print its configuration
        return False
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


_CGREEDY_DIGEST = """
import hashlib
from datamarket.fixtures import gen_random
from datamarket.linear_opt import continuous_greedy
runs = [repr(continuous_greedy(gen_random(n, m, seed, budget_scale=b), steps=2, samples=32,
                               roundings=8, seed=seed))
        for n, m in ((20, 10), (60, 30), (100, 50)) for b in (1.0, 4.0) for seed in (1, 7, 41)]
print(hashlib.sha256("\\n".join(runs).encode()).hexdigest())
"""


@pytest.mark.skipif(not _openblas_dynamic_arch(),
                    reason="numpy's BLAS is not an OpenBLAS DYNAMIC_ARCH build, so "
                           "OPENBLAS_CORETYPE selects no kernel")
def test_continuous_greedy_is_the_same_on_every_blas_kernel():
    # a BLAS product on the step's path gave three digests under these settings
    src = str(Path(datamarket.__file__).resolve().parents[1])
    digests = set()
    for core, threads in [("Haswell", None), ("Nehalem", "1"), ("Prescott", None)]:
        env = dict(os.environ, OPENBLAS_CORETYPE=core,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        run = subprocess.run([sys.executable, "-c", _CGREEDY_DIGEST], env=env,
                             capture_output=True, text=True, check=True)
        digests.add(run.stdout)
    assert len(digests) == 1
