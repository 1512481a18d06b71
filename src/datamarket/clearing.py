"""Supply-side market clearing over a generalized item market.

An item is either a whole dataset under linear pricing or a single shard of a
PLC curve (a shard of size ``z`` and slope ``a`` becomes an item of price
``a*z`` that buyer ``i`` values at ``v[i][j]*z``; she wants it exactly when
she wants the shard, since interest is decided per unit of size).  Who wants
which item, each buyer's desire and the revenue all come from the kernel in
``revenue``, over the market's arrays.  Prices are *clearable* when every
positively priced item has an interested buyer whose total desire fits her
budget; clearable prices always admit an allocation in which every item is
fully bought by someone.

``clearabilize`` lowers prices, never raising any and never losing per-buyer
revenue, until the vector is clearable.  Each iteration fixes the
lowest-index violating item by dropping its price just enough to satisfy
some interested budget-constrained buyer, to her budget minus her other
wanted prices (or to zero when there is none).  A bounded integer potential
never rises, and it strictly decreases whenever that buyer's new desire
passes the satisfied test, ``desire <= budget + 1e-9``; so the loop
terminates within ``(M + 1) * (n + 1)**2`` iterations for ``M`` items.  The
test passes when the few roundings in her new desire stay under the
absolute ``1e-9``, as they do for budgets up to about ``1e6``.  With much
more money (``gen_random(15, 8, 8)`` times ``1e12``) a lowering can leave
her desire a rounding over budget and every count as it was, so the
potential stays level for that iteration; the price still falls, and the
loop raises ``RuntimeError`` if it exceeds the bound.

It scans the market once and keeps the wanted prices as an items-by-buyers
matrix; after each lowering it rewrites only that item's row and re-adds
every buyer's desire in one ``left_to_right`` over the matrix, which adds
each buyer's wanted prices in item order and so gives the bits of a full
rescan (a buyer whose wanted prices did not move gets her desire back).

``clearing_allocation`` is ``demand.allocate``, the one whole-market
allocation, with the over-budget buyers as the ones who spend.  One
``_state`` pass over a scan gives the lowest violating item, the potential
and the over-budget buyers, which ``clearabilize``, ``clearing_allocation``,
``is_clearable`` and ``potential`` read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .demand import allocate
from .model import (TOLERANCE, Allocation, Bundle, Instance, ShardSet, ValidationError,
                    check_prices)
from .revenue import desires, interested, left_to_right, revenue, shard_items


@dataclass(frozen=True)
class ItemMarket:
    """Linear-priced items with per-buyer item values and buyer budgets.

    ``sizes`` holds each item's fraction of its dataset (``None``: whole
    datasets, size 1).  The arrays the kernel reads are built on first use.
    """

    prices: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]  # n buyers x M items
    budgets: tuple[float, ...]
    item_origin: tuple[tuple[int, int], ...] | None = None  # item -> (dataset, shard)
    sizes: tuple[float, ...] | None = None  # item -> fraction of its dataset

    @property
    def num_items(self) -> int:
        return len(self.prices)

    @property
    def num_buyers(self) -> int:
        return len(self.budgets)

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(values, budgets, sizes)`` as numpy arrays.

        Raises ValidationError on a NaN, infinite or negative value and on a
        NaN or negative budget; an infinite budget is legal, as in
        ``Instance``."""
        values = np.array(self.values, dtype=float).reshape(self.num_buyers, self.num_items)
        budgets = np.array(self.budgets, dtype=float)
        # a NaN makes the minimum NaN, which fails the test
        if not (values.min(initial=0.0) >= 0 and np.isfinite(values.max(initial=0.0))):
            i, k = np.argwhere(~(np.isfinite(values) & (values >= 0)))[0]
            raise ValidationError(f"invalid value at ({i}, {k}): {values[i, k]}")
        if not budgets.min(initial=0.0) >= 0:
            i = np.flatnonzero(~(budgets >= 0))[0]
            raise ValidationError(f"invalid budget for buyer {i}: {budgets[i]}")
        sizes = np.array(self.sizes or (1.0,) * self.num_items, dtype=float)
        return values, budgets, sizes

    def scan(self, prices=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The prices as an array, who wants which item at them, and desires."""
        values, _, sizes = self.arrays
        q = check_prices(self.prices if prices is None else prices, self.num_items, "items")
        wants = interested(values, q, sizes)
        return q, wants, desires(wants, q)


@dataclass(frozen=True)
class ClearabilizeResult:
    prices: tuple[float, ...]
    iterations: int
    potentials: tuple[int, ...]  # potential before each iteration, then final


def market_from_prices(inst: Instance, prices) -> ItemMarket:
    """Each dataset is one item at its linear price."""
    prices = tuple(check_prices(prices, inst.m).tolist())
    return ItemMarket(prices, inst.values, inst.budgets, tuple((j, 0) for j in range(inst.m)))


def shards_to_items(inst: Instance, shards: ShardSet) -> ItemMarket:
    """One item per shard, in dataset then shard order; buyers want the same
    shards as under the curves."""
    values, prices, sizes = shard_items(inst.array, shards)
    real = sizes > 0
    return ItemMarket(tuple(prices[real].tolist()), tuple(map(tuple, values[:, real].tolist())),
                      inst.budgets, tuple(map(tuple, np.argwhere(real).tolist())),
                      tuple(sizes[real].tolist()))


def desire(mkt: ItemMarket, i: int, prices=None) -> float:
    """Total price of the items buyer ``i`` is interested in."""
    if not 0 <= i < mkt.num_buyers:
        raise IndexError(f"buyer index {i} out of range for n={mkt.num_buyers}")
    return float(mkt.scan(prices)[2][i])


def per_buyer_revenue(mkt: ItemMarket, prices=None) -> tuple[float, ...]:
    """``min(budget, desire)`` per buyer, as floats."""
    return tuple(np.minimum(mkt.arrays[1], mkt.scan(prices)[2]).tolist())


def _state(mkt: ItemMarket, q, wants, desire_) -> tuple[int | None, int, np.ndarray]:
    """From a scan of the market at prices ``q``: the lowest-index positively
    priced item with no satisfied interested buyer (``None`` when the prices
    are clearable), the potential, and which buyers are over budget."""
    over = desire_ > mkt.arrays[1] + TOLERANCE
    priced = q > TOLERANCE
    violating = np.flatnonzero(priced & ~wants[~over].any(axis=0))
    phi1 = np.count_nonzero(priced) + wants.size - np.count_nonzero(wants)
    return (int(violating[0]) if violating.size else None,
            int((mkt.num_buyers + 1) * phi1 + np.count_nonzero(over)), over)


def is_clearable(mkt: ItemMarket, prices=None) -> bool:
    """Every positively priced item has a satisfied interested buyer."""
    return _state(mkt, *mkt.scan(prices))[0] is None


def potential(mkt: ItemMarket, prices) -> int:
    """Bounded integer potential that ``clearabilize`` never raises and, unless
    rounding keeps a buyer over budget, lowers every iteration."""
    return _state(mkt, *mkt.scan(prices))[1]


def clearabilize(mkt: ItemMarket) -> ClearabilizeResult:
    """Lower prices until clearable, without losing any buyer's revenue.

    Each iteration lowers the first violating item to the most that any of
    its interested over-budget buyers has left after her other wanted items,
    and to zero when it has no such buyer: with none, ``left`` is empty and
    its ``max(initial=0.0)`` is that zero.  Returns the new prices, the
    iteration count, and the potential trace (its value before each
    iteration and after the last one), so the count is one less than the
    trace's length.
    """
    values, budgets, sizes = mkt.arrays
    q, wants, desire_ = mkt.scan()  # a fresh price array, lowered in place
    # the wanted prices, kept with q: items x buyers and C-contiguous, so that
    # left_to_right(paid.T) adds down the items without a copy
    paid = np.where(wants, q, 0.0).T.copy()
    bound = (mkt.num_items + 1) * (mkt.num_buyers + 1) ** 2
    potentials = []
    while True:
        j, phi, over = _state(mkt, q, wants, desire_)
        potentials.append(phi)
        if j is None:
            return ClearabilizeResult(tuple(q.tolist()), len(potentials) - 1, tuple(potentials))
        if len(potentials) > bound:
            raise RuntimeError("clearabilize failed to terminate within its bound")
        # what each interested over-budget buyer has left after her other
        # wanted items (item j's row is rewritten below)
        constrained_interested = wants[:, j] & over
        paid[j] = 0.0
        budget = budgets[constrained_interested]
        left = budget - left_to_right(paid.T)[constrained_interested]
        if left.max(initial=0.0) >= q[j]:
            # rounding at large money: that buyer's excess comes off instead
            left = np.where(left < q[j], left, q[j] - desire_[constrained_interested] + budget)
        q[j] = max(0.0, float(left.max(initial=0.0)))
        # only item j's price moved: rescan its column of wants and its row of
        # paid, then re-add every desire
        column = interested(values[:, j], q[j], sizes[j])
        wants[:, j] = column
        paid[j] = np.where(column, q[j], 0.0)
        desire_ = left_to_right(paid.T)


def clearing_allocation(mkt: ItemMarket, prices=None) -> Allocation:
    """A market-clearing allocation at clearable prices.

    Satisfied buyers take every item they are interested in (non-rivalry lets
    all of them hold it at once), so each positively priced item is fully
    owned by its lowest-index satisfied interested buyer.  A buyer is
    satisfied when her desire fits her budget within tolerance; every other
    buyer spends her whole budget by ``demand.take``: the allocation is
    ``demand.allocate``, the one ``optimal_demand`` uses too.  Zero-priced
    items go to everyone.
    """
    q, wants, desire_ = mkt.scan(prices)
    j, _, over = _state(mkt, q, wants, desire_)
    if j is not None:
        raise ValueError("prices are not clearable")
    values, budgets, _ = mkt.arrays
    fractions = allocate(budgets, values, q, wants, over)
    payments = np.minimum(budgets, desire_).tolist()
    bundles = tuple(Bundle(tuple(row), pay) for row, pay in zip(fractions.tolist(), payments))
    return Allocation(bundles, float(revenue(budgets, desire_)))
