import copy
import dataclasses
import json
import math
import pickle

import numpy as np
import pytest

from datamarket.clearing import ItemMarket, clearing_allocation, is_clearable, market_from_prices
from datamarket.demand import optimal_demand
from datamarket.fixtures import gen_random
from datamarket.linear_opt import candidate_prices
from datamarket.model import (
    MAX_VALUE_TOTAL,
    TOLERANCE,
    FormatError,
    Instance,
    ShardCurve,
    ValidationError,
    check_prices,
    load_instance,
    load_prices,
    load_shardset,
    partition_prices,
    prices_to_shardset,
    save_instance,
    save_prices,
    save_shardset,
    validate_instance,
)
from datamarket.revenue import buyer_desire, linear_revenue


def write(tmp_path, doc):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    return path


def test_load_two_by_two(tmp_path):
    path = write(tmp_path, {"budgets": [1, 1], "values": [[1, 1], [0.001, 2]]})
    inst = load_instance(path)
    assert inst.n == 2 and inst.m == 2
    assert inst.values[1][0] == 0.001
    assert inst.budgets == (1.0, 1.0)


def test_load_infinite_budget(tmp_path):
    path = write(tmp_path, {"budgets": ["inf"], "values": [[0]]})
    inst = load_instance(path)
    assert math.isinf(inst.budgets[0])
    assert inst.values == ((0.0,),)


def test_load_dimension_mismatch(tmp_path):
    path = write(tmp_path, {"budgets": [1, 1], "values": [[1, 2], [3]]})
    with pytest.raises(ValidationError, match="dimension mismatch"):
        load_instance(path)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        load_instance(path)


def test_load_rejects_non_numeric_value(tmp_path):
    path = write(tmp_path, {"budgets": [1], "values": [["x"]]})
    with pytest.raises(FormatError):
        load_instance(path)


def test_roundtrip_is_exact(tmp_path):
    inst = Instance.make([0.1, math.inf], [[1 / 3, 2.2250738585072014e-308], [0.7, 123456.789]])
    path = tmp_path / "rt.json"
    save_instance(inst, path)
    assert load_instance(path) == inst


def test_validate_reports_negative_value():
    inst = Instance((1.0,), ((-1.0,),))
    assert any("negative value" in p for p in validate_instance(inst))


def test_validate_reports_no_positive_budget():
    inst = Instance((0.0, 0.0), ((1.0,), (1.0,)))
    assert any("no positive budget" in p for p in validate_instance(inst))


def test_validate_ok():
    inst = Instance.make([1, 2], [[1, 2], [3, 4]])
    assert validate_instance(inst) == []


@pytest.mark.parametrize("values", [
    [[1e308, 1e308], [1e308, 1e308]],  # the exact total overflows fsum itself
    [[MAX_VALUE_TOTAL / 2, MAX_VALUE_TOTAL / 2], [0.0, 1e292]],  # finite, just past the bound
])
def test_make_rejects_values_whose_total_could_overflow(values):
    with pytest.raises(ValidationError, match="values total more than 8.98847e[+]307"):
        Instance.make([1e308, 1e308], values)


def test_values_totalling_the_bound_are_accepted():
    half = MAX_VALUE_TOTAL / 2
    assert validate_instance(Instance((1e308, math.inf), ((half, 0.0), (0.0, half)))) == []


def test_make_reads_negative_zero_as_zero():
    inst = Instance.make([1.0, -0.0], [[-0.0, 1.0], [0.0, -0]])
    numbers = inst.budgets + inst.values[0] + inst.values[1]
    assert [math.copysign(1.0, x) for x in numbers] == [1.0] * 6


def _rounded(inst, digits):
    """``inst`` with every value rounded, so columns hold ties."""
    return Instance.make(inst.budgets, np.round(inst.array, digits).tolist())


#: Instances whose columns hold ties, zeros, values near the tolerance, one
#: buyer, one dataset, both signed zeros, and none of these.
INDEX_CASES = [
    Instance.make([1.0, 2.0, 3.0, 0.5], [[0.5, 0.0, 1e-9], [0.5, 1.0, 2e-9], [0.25, 1.0, 0.0],
                                         [0.5, 0.0, 1e-9]]),
    Instance.make([1.0], [[0.3, 0.0, 0.7]]),
    Instance.make([1.0, 1.0, 2.0], [[0.2], [0.2], [0.1]]),
    Instance((1.0, 2.0, 1.0), ((-0.0, 1.0), (0.0, -0.0), (-0.0, 0.0))),  # built directly
    gen_random(9, 4, seed=3),
    _rounded(gen_random(30, 6, seed=8, budget_scale=0.5), 1),
]


def test_array_is_the_values_as_one_read_only_float_array():
    inst = gen_random(5, 3, seed=2)
    assert inst.array.dtype == float and inst.array.shape == (5, 3)
    assert np.array_equal(inst.array, np.array(inst.values))
    assert inst.array is inst.array  # built once
    with pytest.raises(ValueError, match="read-only"):
        inst.array[0, 0] = 1.0
    assert inst.distinct is inst.distinct
    with pytest.raises(ValueError, match="read-only"):
        inst.distinct[0][0] = 1.0


@pytest.mark.parametrize("inst", INDEX_CASES)
def test_ranking_orders_each_datasets_buyers_by_value_ties_by_index(inst):
    order, ranked = inst.ranking
    assert inst.ranking is inst.ranking  # built once
    for j, column in enumerate(zip(*inst.values)):
        assert order[:, j].tolist() == sorted(range(inst.n), key=lambda i: (column[i], i))
        assert ranked[:, j].tobytes() == np.array([column[i] for i in order[:, j]]).tobytes()
    for a in (order, ranked):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1


@pytest.mark.parametrize("inst", INDEX_CASES)
def test_distinct_holds_each_datasets_distinct_values_ascending(inst):
    assert len(inst.distinct) == inst.m
    for j, column in enumerate(zip(*inst.values)):
        assert inst.distinct[j].tolist() == sorted(set(column))


@pytest.mark.parametrize("inst", INDEX_CASES)
def test_candidate_prices_are_the_distinct_values_above_the_tolerance(inst):
    for j in range(inst.m):
        column = (inst.values[i][j] for i in range(inst.n))
        assert candidate_prices(inst, j) == sorted(set(v for v in column if v > TOLERANCE))


def test_the_arrays_leave_equality_and_hashing_as_they_were():
    inst, twin = gen_random(4, 3, seed=5), gen_random(4, 3, seed=5)
    before = hash(inst)
    inst.array, inst.distinct  # build both
    assert inst == twin and hash(inst) == hash(twin) == before
    copy = dataclasses.replace(inst)
    assert copy == inst and copy.array is not inst.array
    assert np.array_equal(copy.array, inst.array)
    changed = dataclasses.replace(inst, values=tuple((0.5,) * 3 for _ in range(4)))
    assert changed.array.tolist() == [[0.5] * 3] * 4
    assert [d.tolist() for d in changed.distinct] == [[0.5]] * 3


@pytest.mark.parametrize("copy_of", [copy.copy, copy.deepcopy,
                                     lambda inst: pickle.loads(pickle.dumps(inst))],
                         ids=["copy", "deepcopy", "pickle"])
def test_a_copied_instance_builds_its_own_read_only_arrays(copy_of):
    inst = gen_random(4, 3, seed=5)
    inst.array, inst.ranking, inst.distinct  # build them before copying
    twin = copy_of(inst)
    assert twin == inst and hash(twin) == hash(inst)
    assert twin.array is not inst.array
    for a in (twin.array, *twin.ranking, *twin.distinct):
        assert not a.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        twin.array[0, 0] = 100.0
    assert np.array_equal(twin.array, inst.array)
    assert all(np.array_equal(a, b) for a, b in zip(twin.ranking, inst.ranking))


def test_make_raises_on_bad_instance():
    with pytest.raises(ValidationError):
        Instance.make([1.0], [[float("nan")]])


def test_shard_curve_merges_equal_slopes():
    curve = ShardCurve.from_pairs([(0.25, 2.0), (0.25, 2.0), (0.5, 3.0)])
    assert curve.shards == ((0.5, 2.0), (0.5, 3.0))


def test_shard_curve_drops_zero_sizes():
    curve = ShardCurve.from_pairs([(0.0, 1.0), (1.0, 2.0)])
    assert curve.shards == ((1.0, 2.0),)


def test_shard_curve_sizes_must_sum_to_one():
    with pytest.raises(ValidationError, match="sum"):
        ShardCurve.from_pairs([(0.5, 1.0)])


def test_shard_curve_sorts_by_slope():
    curve = ShardCurve.from_pairs([(0.5, 3.0), (0.5, 1.0)])
    assert curve.shards == ((0.5, 1.0), (0.5, 3.0))


def test_shard_curve_price_and_costs():
    curve = ShardCurve.from_pairs([(0.3, 10.0), (0.5, 20.0), (0.2, 25.0)])
    assert curve.price(0.3) == pytest.approx(3.0)
    assert curve.price(0.6) == pytest.approx(3.0 + 20 * 0.3)
    assert curve.price(1.0) == pytest.approx(3.0 + 10.0 + 5.0)
    assert curve.buyer_cost(20.0) == pytest.approx(13.0)
    assert curve.buyer_cost(5.0) == 0.0


def test_partition_prices():
    inst = Instance.make([1, 1], [[0.2, 0.2, 0.0], [0.6, 0.6, 0.5]])
    assert partition_prices(inst, (0, 1, None)) == (0.2, 0.6, 0.0)
    with pytest.raises(ValidationError):
        partition_prices(inst, (5, None, None))


def test_prices_shardset_files_roundtrip(tmp_path):
    shards = prices_to_shardset((0.25, 1.5))
    spath = tmp_path / "shards.json"
    save_shardset(shards, spath)
    assert load_shardset(spath) == shards

    ppath = tmp_path / "prices.json"
    save_prices((0.25, 1.5), ppath)
    assert load_prices(ppath) == (0.25, 1.5)


def test_load_prices_rejects_negative(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"prices": [-1.0]}))
    with pytest.raises(ValidationError):
        load_prices(path)


def _loaded(prices, path):
    save_prices(prices, path)  # json writes NaN, Infinity and -Infinity
    return load_prices(path)


#: Every entry point that takes a caller's linear prices, as (instance,
#: prices, scratch file) -> anything; an item market's own prices count too.
_PRICE_READERS = {
    "linear_revenue": lambda inst, q, _: linear_revenue(inst, q),
    "buyer_desire": lambda inst, q, _: buyer_desire(inst, 0, q),
    "market_from_prices": lambda inst, q, _: market_from_prices(inst, q),
    "is_clearable": lambda inst, q, _: is_clearable(market_from_prices(inst, (0.5,) * 3), q),
    "clearing_allocation": lambda inst, q, _: clearing_allocation(
        market_from_prices(inst, (0.5,) * 3), q),
    "own is_clearable": lambda inst, q, _: is_clearable(
        ItemMarket(tuple(q), inst.values, inst.budgets)),
    "own clearing_allocation": lambda inst, q, _: clearing_allocation(
        ItemMarket(tuple(q), inst.values, inst.budgets)),
    "optimal_demand": lambda inst, q, _: optimal_demand(inst, 0, prices_to_shardset(q)),
    "load_prices": lambda inst, q, path: _loaded(q, path),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize("read", _PRICE_READERS.values(), ids=_PRICE_READERS)
def test_every_price_reader_rejects_an_invalid_price(tmp_path, read, bad):
    inst = gen_random(4, 3, seed=2)
    with pytest.raises(ValidationError) as exc:
        read(inst, [0.5, bad, 0.5], tmp_path / "prices.json")
    assert str(exc.value) == f"invalid price at index 1: {bad}"


@pytest.mark.parametrize("read", _PRICE_READERS.values(), ids=_PRICE_READERS)
def test_every_price_reader_takes_valid_prices(tmp_path, read):
    # zero prices, -0.0 among them, clear every market
    read(gen_random(4, 3, seed=2), [0.0, -0.0, 0.0], tmp_path / "prices.json")


def test_check_prices_returns_a_new_float_array():
    given = np.array([0.25, 1.5])
    q = check_prices(given, 2)
    assert q.dtype == float and q.tolist() == [0.25, 1.5]
    assert not np.shares_memory(q, given)
    assert check_prices((1, 0), 2).tolist() == [1.0, 0.0]


_INSTANCE_SHAPE = 'instance file must be an object with "budgets" and "values"'
_SHARDSET_SHAPE = 'shard set file must be an object with a "curves" array'
_PRICES_SHAPE = 'price file must be an object with a "prices" array'


@pytest.mark.parametrize("loader, text, message", [
    (load_instance, "{not json", None),
    (load_instance, "[1, 2]", _INSTANCE_SHAPE),
    (load_instance, '{"budgets": [1]}', _INSTANCE_SHAPE),
    (load_instance, '{"budgets": 1, "values": [[1]]}', '"budgets" and "values" must be arrays'),
    (load_instance, '{"budgets": [1], "values": {}}', '"budgets" and "values" must be arrays'),
    (load_shardset, "{not json", None),
    (load_shardset, '"curves"', _SHARDSET_SHAPE),
    (load_shardset, '{"prices": []}', _SHARDSET_SHAPE),
    (load_shardset, '{"curves": {}}', _SHARDSET_SHAPE),
    (load_prices, "{not json", None),
    (load_prices, "3.5", _PRICES_SHAPE),
    (load_prices, '{"curves": []}', _PRICES_SHAPE),
    (load_prices, '{"prices": 1.0}', _PRICES_SHAPE),
])
def test_loaders_reject_malformed_files(tmp_path, loader, text, message):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(FormatError) as exc:
        loader(path)
    if message is None:
        assert str(exc.value).startswith("not valid JSON: ")
    else:
        assert str(exc.value) == message


def test_saved_files_are_sorted_json_lines(tmp_path):
    inst = Instance.make([0.5, math.inf], [[1 / 3, 2.0], [0.7, 0.0]])
    shards = (ShardCurve.from_pairs([(0.25, 0.5), (0.75, 2.0)]), ShardCurve(((1.0, 0.0),)))
    saved = [
        (save_instance, inst, {"budgets": [0.5, "inf"], "values": [[1 / 3, 2.0], [0.7, 0.0]]}),
        (save_shardset, shards, {"curves": [[{"size": 0.25, "slope": 0.5},
                                             {"size": 0.75, "slope": 2.0}],
                                            [{"size": 1.0, "slope": 0.0}]]}),
        (save_prices, (0.25, 1.5), {"prices": [0.25, 1.5]}),
    ]
    for save, obj, doc in saved:
        path = tmp_path / f"{save.__name__}.json"
        save(obj, path)
        assert path.read_text() == json.dumps(doc, sort_keys=True) + "\n"


@pytest.mark.parametrize("budgets, values, message", [
    ([], [], "instance must have at least one buyer; instance must have at least one dataset; "
             "no positive budget"),
    ([1.0], [[]], "instance must have at least one dataset"),
    ([1.0, math.nan], [[1.0], [1.0]], "invalid budget for buyer 1"),
    ([1.0, -2.0], [[1.0], [1.0]], "negative budget for buyer 1"),
], ids=["no-buyers", "no-datasets", "nan-budget", "negative-budget"])
def test_make_names_each_bad_input(budgets, values, message):
    with pytest.raises(ValidationError) as exc:
        Instance.make(budgets, values)
    assert str(exc.value) == message


@pytest.mark.parametrize("shards, message", [
    ((), "curve has no shards"),
    (((0.0, 1.0), (1.0, 2.0)), "non-positive shard size 0.0"),
    (((1.0, math.nan),), "invalid shard slope nan"),
    (((0.5, 1.0), (0.5, 1.0)), "shard slopes are not strictly increasing"),
], ids=["no-shards", "zero-size", "nan-slope", "equal-slopes"])
def test_shard_curve_validate_names_each_bad_curve(shards, message):
    assert ShardCurve(shards).validate() == [message]


def test_partition_prices_rejects_a_wrong_length():
    inst = Instance.make([1.0, 1.0], [[0.5, 0.2], [0.3, 0.4]])
    with pytest.raises(ValidationError) as exc:
        partition_prices(inst, (0,))
    assert str(exc.value) == "partition has length 1, expected 2"


@pytest.mark.parametrize("loader, doc, message", [
    (load_instance, {"budgets": [1.0], "values": [1.0]}, "each value row must be an array"),
    (load_shardset, {"curves": [{"size": 1.0, "slope": 1.0}]},
     "each curve must be an array of shards"),
    (load_shardset, {"curves": [[[1.0, 1.0]]]},
     'each shard must be an object with "size" and "slope"'),
], ids=["value-row", "curve", "shard"])
def test_loaders_reject_a_row_or_curve_that_is_not_an_array(tmp_path, loader, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError) as exc:
        loader(path)
    assert str(exc.value) == message
