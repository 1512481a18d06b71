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

It scans the market once and keeps each buyer's wanted prices as a matrix;
after each lowering it rewrites only that item's column and re-adds the
desires of the buyers who wanted it before or want it now, which gives the
same bits as a full rescan, since no other buyer's wanted prices moved.

``clearing_allocation`` is ``demand.allocate``, the one whole-market
allocation, with the over-budget buyers as the ones who spend.  One
``_state`` pass over a scan gives the lowest violating item and the
potential, which ``clearabilize``, ``is_clearable`` and ``potential`` read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .demand import allocate
from .model import TOLERANCE, Allocation, Bundle, Instance, ShardSet
from .revenue import desires, interested, left_to_right, revenue, shard_items, value_array


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
        """``(values, budgets, sizes)`` as numpy arrays."""
        values = np.array(self.values, dtype=float).reshape(self.num_buyers, self.num_items)
        sizes = np.array(self.sizes or (1.0,) * self.num_items, dtype=float)
        return values, np.array(self.budgets, dtype=float), sizes

    def scan(self, prices=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The prices as an array, who wants which item at them, and desires."""
        values, _, sizes = self.arrays
        q = np.asarray(self.prices if prices is None else prices, dtype=float)
        if q.shape != (self.num_items,):
            raise ValueError(f"got {q.size} prices for {self.num_items} items")
        wants = interested(values, q, sizes)
        return q, wants, desires(wants, q)


@dataclass(frozen=True)
class ClearabilizeResult:
    prices: tuple[float, ...]
    iterations: int
    potentials: tuple[int, ...]  # potential before each iteration, then final


def market_from_prices(inst: Instance, prices) -> ItemMarket:
    """Each dataset is one item at its linear price."""
    prices = tuple(float(p) for p in prices)
    if len(prices) != inst.m:
        raise ValueError(f"got {len(prices)} prices for {inst.m} datasets")
    return ItemMarket(prices, inst.values, inst.budgets, tuple((j, 0) for j in range(inst.m)))


def shards_to_items(inst: Instance, shards: ShardSet) -> ItemMarket:
    """One item per shard, in dataset then shard order; buyers want the same
    shards as under the curves."""
    values, prices, sizes = shard_items(value_array(inst), shards)
    real = sizes > 0
    return ItemMarket(tuple(prices[real].tolist()), tuple(map(tuple, values[:, real].tolist())),
                      inst.budgets, tuple(map(tuple, np.argwhere(real).tolist())),
                      tuple(sizes[real].tolist()))


def desire(mkt: ItemMarket, i: int, prices=None) -> float:
    """Total price of the items buyer ``i`` is interested in."""
    return float(mkt.scan(prices)[2][i])


def per_buyer_revenue(mkt: ItemMarket, prices=None) -> tuple[float, ...]:
    """``min(budget, desire)`` per buyer, as floats."""
    return tuple(np.minimum(mkt.arrays[1], mkt.scan(prices)[2]).tolist())


def _state(mkt: ItemMarket, q, wants, desire_) -> tuple[int | None, int]:
    """From a scan of the market at prices ``q``: the lowest-index positively
    priced item with no satisfied interested buyer (``None`` when the prices
    are clearable) and the potential."""
    over = desire_ > mkt.arrays[1] + TOLERANCE
    priced = q > TOLERANCE
    violating = np.flatnonzero(priced & ~(wants & ~over[:, None]).any(axis=0))
    phi1 = np.count_nonzero(priced) + np.count_nonzero(~wants)
    return (int(violating[0]) if violating.size else None,
            int((mkt.num_buyers + 1) * phi1 + np.count_nonzero(over)))


def is_clearable(mkt: ItemMarket, prices=None) -> bool:
    """Every positively priced item has a satisfied interested buyer."""
    return _state(mkt, *mkt.scan(prices))[0] is None


def potential(mkt: ItemMarket, prices) -> int:
    """Bounded integer potential that ``clearabilize`` never raises and, unless
    rounding keeps a buyer over budget, lowers every iteration."""
    return _state(mkt, *mkt.scan(prices))[1]


def clearabilize(mkt: ItemMarket) -> ClearabilizeResult:
    """Lower prices until clearable, without losing any buyer's revenue.

    Returns the new prices, the iteration count, and the potential trace
    (its value before each iteration and after the last one).
    """
    values, budgets, sizes = mkt.arrays
    q, wants, desire_ = mkt.scan()  # a fresh price array, lowered in place
    paid = np.where(wants, q, 0.0)  # each buyer's wanted prices, kept with q and wants
    bound = (mkt.num_items + 1) * (mkt.num_buyers + 1) ** 2
    potentials = []
    iterations = 0
    while True:
        j, phi = _state(mkt, q, wants, desire_)
        potentials.append(phi)
        if j is None:
            return ClearabilizeResult(tuple(q.tolist()), iterations, tuple(potentials))
        if iterations >= bound:
            raise RuntimeError("clearabilize failed to terminate within its bound")
        constrained_interested = wants[:, j] & (desire_ > budgets + TOLERANCE)
        if constrained_interested.any():
            # what each such buyer has left after her other wanted items
            budget = budgets[constrained_interested]
            others = paid[constrained_interested]
            others[:, j] = 0.0
            left = budget - left_to_right(others)
            if left.max() >= q[j]:
                # rounding at large money: that buyer's excess comes off instead
                left = np.where(left < q[j], left, q[j] - desire_[constrained_interested] + budget)
            q[j] = max(0.0, float(left.max()))
        else:
            q[j] = 0.0
        # only item j's price moved: rescan its column, and the desires of the
        # buyers who wanted it before or want it now
        column = interested(values[:, j], q[j], sizes[j])
        moved = column | wants[:, j]
        wants[:, j] = column
        paid[:, j] = np.where(column, q[j], 0.0)
        desire_[moved] = left_to_right(paid[moved])
        iterations += 1


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
    if _state(mkt, q, wants, desire_)[0] is not None:
        raise ValueError("prices are not clearable")
    values, budgets, _ = mkt.arrays
    fractions = allocate(budgets, values, q, wants, desire_ > budgets + TOLERANCE)
    payments = np.minimum(budgets, desire_).tolist()
    bundles = tuple(Bundle(tuple(row), pay) for row, pay in zip(fractions.tolist(), payments))
    return Allocation(bundles, float(revenue(budgets, desire_)))
