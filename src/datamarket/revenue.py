"""Revenue evaluation: one budget-capped kernel that every pricing reads.

A pricing sells *items*: whole datasets at linear prices, shards of PLC
curves, or "copies" of a dataset priced at some buyer's value.  A buyer
wants an item when her value covers its price (``interested``; exact
indifference buys, within the global tolerance per unit of the item's
size), her desire is the total price of the items she wants (``desires``),
and the market collects ``sum_i min(b_i, desire_i)`` (``revenue``).  Both
sums run left to right, in item order and in buyer order, so no result
depends on the pairwise order of numpy's ``ndarray.sum``: item sums of at
most ``ACCUMULATE_ROWS`` rows by ``np.add.accumulate``, taller ones one
column at a time, which add in the same sequence and give the same bits.
The buyer sum takes the same switch on the entries of a buyer's row.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .model import TOLERANCE, Instance, Partition, ShardSet, partition_prices

#: A CopySet is a set of (dataset j, buyer copy l) pairs; the pair (j, l)
#: means "dataset j is priced at buyer l's value".  Unlike a Partition, a
#: CopySet may price the same dataset at several buyers' values at once.
CopySet = Iterable[tuple[int, int]]


def interested(values, prices, sizes=1.0) -> np.ndarray:
    """Which items each buyer wants; the arguments broadcast together.

    An item of size ``z`` is valued and priced at ``z`` times a per-unit
    value and price, so its tolerance is ``z`` times the global one; a whole
    dataset has size 1.
    """
    return values >= prices - TOLERANCE * sizes


#: Sums of at most this many rows use ``np.add.accumulate``, taller ones the
#: column loop: accumulate costs per element and the loop per column, and
#: they break even near 256 rows.
ACCUMULATE_ROWS = 256


def left_to_right(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis in index order.

    ``np.add.accumulate`` adds strictly in sequence, as the column loop does,
    so both give the same bits; ``+ 0.0`` makes an all ``-0.0`` sum ``+0.0``,
    as the loop's zero start does.  An empty last axis sums to zeros.
    """
    if x.shape[-1] and math.prod(x.shape[:-1]) <= ACCUMULATE_ROWS:
        return np.add.accumulate(x, axis=-1, dtype=float)[..., -1] + 0.0
    total = np.zeros(x.shape[:-1])
    for column in np.rollaxis(x, -1):
        total = total + column
    return total


def desires(wants: np.ndarray, prices) -> np.ndarray:
    """Total price of the wanted items, added in item order (last axis)."""
    return left_to_right(np.where(wants, prices, 0.0))


def revenue(budgets, buyer_desires):
    """The budget-capped sum ``sum_i min(b_i, desire_i)``, added in buyer order.

    ``buyer_desires`` runs over buyers (an array's rows or a generator); each
    row is one desire or the desires under several price vectors.  An array
    whose rows hold at most ``ACCUMULATE_ROWS`` entries is capped in one
    ``np.minimum`` and added over buyers by ``left_to_right``, which adds in
    the same sequence as the buyer loop and gives the same bits; generators
    and longer rows go through the loop, which holds one capped row at a time.
    """
    if (isinstance(buyer_desires, np.ndarray)
            and math.prod(buyer_desires.shape[1:]) <= ACCUMULATE_ROWS):
        # .T puts the buyers last for the sum and gives the rows their shape back
        return left_to_right(np.minimum(budgets, buyer_desires.T)).T
    total = 0.0
    for budget, desire in zip(budgets, buyer_desires):
        total = total + np.minimum(budget, desire)
    return total


def value_array(inst: Instance) -> np.ndarray:
    return np.array(inst.values, dtype=float).reshape(inst.n, inst.m)


def shard_items(values, shards: ShardSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every shard as an item for buyers with per-unit ``values`` (``... x
    m``): the items' values (``... x m x T``), prices (slope times size) and
    sizes (``m x T``).  Curves with fewer shards are padded with empty ones
    at an infinite price, which nobody wants.  The ``m x T`` grid is built
    on every call; the per-buyer loops, ``plc_opt.extract_allocation`` and
    other callers of ``demand.optimal_demand``, build it once per market
    through that function's memo, the library's one cache."""
    values = np.asarray(values, dtype=float)
    if len(shards) != values.shape[-1]:
        raise ValueError(f"got {len(shards)} curves for {values.shape[-1]} datasets")
    width = max(len(curve.shards) for curve in shards)
    grid = np.array([curve.shards + ((0.0, 0.0),) * (width - len(curve.shards))
                     for curve in shards])
    sizes = grid[..., 0]
    prices = np.where(sizes > 0, grid[..., 1] * sizes, math.inf)
    return values[..., None] * sizes, prices, sizes


def shard_desires(values, shards: ShardSet) -> np.ndarray:
    """Desires under shard pricing: each curve's wanted shards added in shard
    order, then the curves in dataset order."""
    items, prices, sizes = shard_items(values, shards)
    return left_to_right(desires(interested(items, prices, sizes), prices))


def _price_vector(inst: Instance, prices) -> np.ndarray:
    prices = np.asarray(prices, dtype=float)
    if prices.shape != (inst.m,):
        raise ValueError(f"got {prices.size} prices for {inst.m} datasets")
    return prices


def buyer_desire(inst: Instance, i: int, prices) -> float:
    """Money buyer ``i`` needs to buy every dataset she values at its price."""
    if not 0 <= i < inst.n:
        raise IndexError(f"buyer index {i} out of range for n={inst.n}")
    prices = _price_vector(inst, prices)
    return float(desires(interested(np.array(inst.values[i]), prices), prices))


def linear_revenue(inst: Instance, prices) -> float:
    """Total revenue of a linear price vector: sum of min(budget, desire)."""
    prices = _price_vector(inst, prices)
    return float(revenue(inst.budgets, desires(interested(value_array(inst), prices), prices)))


def shard_revenue(inst: Instance, shards: ShardSet) -> tuple[tuple[float, ...], float]:
    """Per-buyer and total revenue under shard pricing.

    Each buyer pays for exactly the shards whose slope does not exceed her
    per-unit value for the dataset, capped at her budget.
    """
    desire = shard_desires(value_array(inst), shards)
    return tuple(np.minimum(inst.budgets, desire).tolist()), float(revenue(inst.budgets, desire))


def partition_revenue(inst: Instance, part: Partition) -> float:
    """Revenue of the price vector induced by a partition."""
    return linear_revenue(inst, partition_prices(inst, part))


def extension_value(inst: Instance, copies: CopySet) -> float:
    """Revenue extended to copy sets, where several copies of one dataset may
    be selected at once.

    A selected copy ``(j, l)`` contributes buyer ``l``'s value for dataset
    ``j`` to the desire of every buyer ``i`` with ``values[l][j] <=
    values[i][j]`` (a buyer only pays shares priced at or below her own
    value); copies are added in ``(j, l)`` order.  On copy sets with at most
    one copy per dataset this coincides with ``partition_revenue``.
    """
    chosen = set()
    for j, copy in copies:
        if not 0 <= j < inst.m:
            raise IndexError(f"dataset index {j} out of range for m={inst.m}")
        if not 0 <= copy < inst.n:
            raise IndexError(f"copy index {copy} out of range for n={inst.n}")
        chosen.add((j, copy))
    datasets, owners = np.array(sorted(chosen), dtype=int).reshape(-1, 2).T
    values = value_array(inst)
    prices = values[owners, datasets]
    return float(revenue(inst.budgets, desires(interested(values[:, datasets], prices), prices)))
