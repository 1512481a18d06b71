"""Revenue evaluation: one budget-capped kernel that every pricing reads.

A pricing sells *items*: whole datasets at linear prices, shards of PLC
curves, or "copies" of a dataset priced at some buyer's value.  A buyer
wants an item when her value covers its price (``interested``; exact
indifference buys, within the global tolerance per unit of the item's
size), her desire is the total price of the items she wants (``desires``),
and the market collects ``sum_i min(b_i, desire_i)`` (``revenue``).  Both
sums run left to right, in item order and in buyer order, so no result
depends on the pairwise order of numpy's ``ndarray.sum`` and every result
has the bits of a plain loop.  ``left_to_right`` keeps that order: it
reduces a copy laid out items first down its leading axis, which adds each
item's row of terms into the running sums in item order, and adds a single
sum by ``np.add.accumulate``.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .model import (TOLERANCE, Instance, Partition, ShardSet, ValidationError, check_prices,
                    partition_prices)

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


def first_interested(ranked: np.ndarray, prices) -> np.ndarray:
    """``interested`` as a search: for whole datasets priced at ``prices``
    and one dataset's values ``ranked`` ascending, the rank of the first
    value that wants each price.  Every value from that rank on wants it and
    none before it does, the same comparisons ``interested`` makes."""
    return np.searchsorted(ranked, np.asarray(prices) - TOLERANCE, side="left")


def left_to_right(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis in index order.

    Two or more sums are laid out items first and C-contiguous (copied
    unless they already are) and reduced down that leading axis from a
    ``0.0`` start, which adds whole rows of sums element by element in item
    order; numpy sums pairwise only along the fast axis in memory, which
    here runs across the sums.  A single sum has no such axis, so it goes
    through ``np.add.accumulate``, which adds strictly in sequence, and
    ``+ 0.0`` makes an all ``-0.0`` sum ``+0.0``.  Both give the bits of a
    loop adding one item at a time from a zero start.  An empty last axis
    sums to zeros.
    """
    if x.shape[-1] and math.prod(x.shape[:-1]) < 2:
        return np.add.accumulate(x, axis=-1, dtype=float)[..., -1] + 0.0
    # x.T puts the items first; the output's .T gives the other axes their order back
    return np.add.reduce(np.ascontiguousarray(x.T, dtype=float), axis=0, initial=0.0).T


def desires(wants: np.ndarray, prices) -> np.ndarray:
    """Total price of the wanted items, added in item order (last axis)."""
    return left_to_right(np.where(wants, prices, 0.0))


#: An array of desires whose rows hold at most this many entries is capped in
#: one ``np.minimum``; longer rows are capped one buyer at a time, which holds
#: one capped row where the one call holds a capped copy of the whole array
#: (0.3 and 0.6 MB more traced at the peak of continuous greedy at 60x30 and
#: 100x50, whose rows hold each picked copy).
BLOCK_ROW_ENTRIES = 256


def revenue(budgets, buyer_desires):
    """The budget-capped sum ``sum_i min(b_i, desire_i)``, added in buyer order.

    ``buyer_desires`` runs over buyers (an array's rows or a generator); each
    row is one desire or the desires under several price vectors.  An array
    whose rows hold at most ``BLOCK_ROW_ENTRIES`` entries is capped in one
    ``np.minimum`` and added over buyers by ``left_to_right``, which adds in
    the same sequence as the buyer loop and gives the same bits; generators
    and longer rows go through the loop, which adds each capped row into a
    running total of its own from a ``0.0`` start; the capped row is freed
    before the next row is asked for.  A generator may therefore yield the
    same buffer for every buyer, and the result never aliases or changes a
    row it was given.
    """
    if (isinstance(buyer_desires, np.ndarray)
            and math.prod(buyer_desires.shape[1:]) <= BLOCK_ROW_ENTRIES):
        # .T puts the buyers last for the sum and gives the rows their shape back
        return left_to_right(np.minimum(budgets, buyer_desires.T)).T
    total = None
    for budget, desire in zip(budgets, buyer_desires):
        if total is None:
            total = np.zeros(np.shape(desire))
        np.add(total, np.minimum(budget, desire), out=total)
    return 0.0 if total is None else total


def shard_items(values, shards: ShardSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every shard as an item for buyers with per-unit ``values`` (``... x
    m``): the items' values (``... x m x T``), prices (slope times size) and
    sizes (``m x T``).  Curves with fewer shards are padded with empty ones
    at an infinite price, which nobody wants.  The ``m x T`` grid is built
    on every call; the per-buyer loops, ``plc_opt.extract_allocation`` and
    other callers of ``demand.optimal_demand``, build it once per market
    through that function's memo of the last market's bundles.  Raises
    ValidationError, with ``ShardCurve.validate``'s messages, on a curve
    with no shard, a non-positive shard size or a negative or non-finite
    slope."""
    values = np.asarray(values, dtype=float)
    if len(shards) != values.shape[-1]:
        raise ValueError(f"got {len(shards)} curves for {values.shape[-1]} datasets")
    lengths = [len(curve.shards) for curve in shards]
    width = max([1, *lengths])
    grid = np.array([curve.shards + ((0.0, 0.0),) * (width - k)
                     for curve, k in zip(shards, lengths)])
    sizes, slopes = grid[..., 0], grid[..., 1]
    # a curve built directly skips ``from_pairs``' check; a pad's size 0 is
    # never valid, so every real shard is valid when the valid ones add up
    valid = (sizes > 0) & (slopes >= 0) & (slopes < math.inf)
    if np.count_nonzero(valid) < sum(lengths) or 0 in lengths:
        j = next(j for j, k in enumerate(lengths) if not (k and valid[j, :k].all()))
        raise ValidationError(f"curve {j}: " + "; ".join(shards[j].validate()))
    prices = np.where(sizes > 0, slopes * sizes, math.inf)
    return values[..., None] * sizes, prices, sizes


def shard_desires(values, shards: ShardSet) -> np.ndarray:
    """Desires under shard pricing: each curve's wanted shards added in shard
    order, then the curves in dataset order."""
    items, prices, sizes = shard_items(values, shards)
    return left_to_right(desires(interested(items, prices, sizes), prices))


def buyer_desire(inst: Instance, i: int, prices) -> float:
    """Money buyer ``i`` needs to buy every dataset she values at its price."""
    if not 0 <= i < inst.n:
        raise IndexError(f"buyer index {i} out of range for n={inst.n}")
    prices = check_prices(prices, inst.m)
    return float(desires(interested(inst.array[i], prices), prices))


def linear_revenue(inst: Instance, prices) -> float:
    """Total revenue of a linear price vector: sum of min(budget, desire)."""
    prices = check_prices(prices, inst.m)
    return float(revenue(inst.budgets, desires(interested(inst.array, prices), prices)))


def shard_revenue(inst: Instance, shards: ShardSet) -> tuple[tuple[float, ...], float]:
    """Per-buyer and total revenue under shard pricing.

    Each buyer pays for exactly the shards whose slope does not exceed her
    per-unit value for the dataset, capped at her budget.
    """
    desire = shard_desires(inst.array, shards)
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
    prices = inst.array[owners, datasets]
    wants = interested(inst.array[:, datasets], prices)
    return float(revenue(inst.budgets, desires(wants, prices)))
