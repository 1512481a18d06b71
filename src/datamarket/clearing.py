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
some interested budget-constrained buyer (or to zero when there is none),
and a bounded integer potential strictly decreases, so the loop terminates
within ``(M + 1) * (n + 1)**2`` iterations for ``M`` items.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .demand import spend
from .model import TOLERANCE, Allocation, Bundle, Instance, ShardSet
from .revenue import desires, interested, revenue, shard_items, value_array


@dataclass(frozen=True)
class ItemMarket:
    """Linear-priced items with per-buyer item values and buyer budgets.

    ``sizes`` holds each item's fraction of its dataset (``None``: whole
    datasets).  The arrays the kernel reads are built on first use.
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
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """``(values, budgets, sizes)`` as numpy arrays."""
        values = np.array(self.values, dtype=float).reshape(self.num_buyers, self.num_items)
        sizes = None if self.sizes is None else np.array(self.sizes, dtype=float)
        return values, np.array(self.budgets, dtype=float), sizes

    def scan(self, prices=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The prices as an array, who wants which item at them, and desires."""
        values, _, sizes = self.arrays
        q = np.asarray(self.prices if prices is None else prices, dtype=float)
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
    """``min(budget, desire)`` per buyer.  A buyer with a positive budget who
    wants no item pays the empty sum, the integer ``0``."""
    _, wants, desire_ = mkt.scan(prices)
    paid = np.minimum(mkt.arrays[1], desire_).tolist()
    return tuple(0 if not some and b > 0 else p
                 for p, some, b in zip(paid, wants.any(axis=1).tolist(), mkt.budgets))


def _violating_item(mkt: ItemMarket, q, wants, desire_) -> int | None:
    """Lowest-index positively priced item with no satisfied interested buyer,
    from a scan of the market at prices ``q``."""
    satisfied = desire_ <= mkt.arrays[1] + TOLERANCE
    violating = np.flatnonzero((q > TOLERANCE) & ~(wants & satisfied[:, None]).any(axis=0))
    return int(violating[0]) if violating.size else None


def is_clearable(mkt: ItemMarket, prices=None) -> bool:
    """Every positively priced item has a satisfied interested buyer."""
    return _violating_item(mkt, *mkt.scan(prices)) is None


def _potential(mkt: ItemMarket, q, wants, desire_) -> int:
    phi1 = np.count_nonzero(q > TOLERANCE) + np.count_nonzero(~wants)
    phi2 = np.count_nonzero(desire_ > mkt.arrays[1] + TOLERANCE)
    return int((mkt.num_buyers + 1) * phi1 + phi2)


def potential(mkt: ItemMarket, prices) -> int:
    """Bounded integer potential that strictly decreases per iteration."""
    return _potential(mkt, *mkt.scan(prices))


def clearabilize(mkt: ItemMarket) -> ClearabilizeResult:
    """Lower prices until clearable, without losing any buyer's revenue.

    Returns the new prices, the iteration count, and the potential trace
    (its value before each iteration and after the last one).
    """
    q = np.array(mkt.prices, dtype=float)
    budgets = mkt.arrays[1]
    bound = (mkt.num_items + 1) * (mkt.num_buyers + 1) ** 2
    potentials = []
    iterations = 0
    while True:
        scan = mkt.scan(q)
        j = _violating_item(mkt, *scan)
        if j is None:
            break
        potentials.append(_potential(mkt, *scan))
        if iterations >= bound:
            raise RuntimeError("clearabilize failed to terminate within its bound")
        _, wants, desire_ = scan
        constrained_interested = wants[:, j] & (desire_ > budgets + TOLERANCE)
        if constrained_interested.any():
            beta = q[j] - desire_[constrained_interested] + budgets[constrained_interested]
            q[j] = max(0.0, float(beta.max()))
        else:
            q[j] = 0.0
        iterations += 1
    potentials.append(potential(mkt, q))
    return ClearabilizeResult(tuple(q.tolist()), iterations, tuple(potentials))


def clearing_allocation(mkt: ItemMarket, prices=None) -> Allocation:
    """A market-clearing allocation at clearable prices.

    Satisfied buyers take every item they are interested in (non-rivalry lets
    all of them hold it at once), so each positively priced item is fully
    owned by its lowest-index satisfied interested buyer.  Budget-constrained
    buyers spend their whole budget greedily by surplus per unit of money.
    Zero-priced items go to everyone.
    """
    q, wants, desire_ = mkt.scan(prices)
    if not is_clearable(mkt, q):
        raise ValueError("prices are not clearable")
    values, budgets, _ = mkt.arrays
    payments = np.minimum(budgets, desire_).tolist()
    bundles = []
    for i in range(mkt.num_buyers):
        satisfied = desire_[i] <= budgets[i] + TOLERANCE
        whole = wants[i] if satisfied else wants[i] & (q <= TOLERANCE)
        fractions = [1.0 if w else 0.0 for w in whole.tolist()]
        if not satisfied:  # free items whole, then the budget by surplus per unit of money
            priced = np.flatnonzero(wants[i] & (q > TOLERANCE))
            priced = priced[np.argsort(-(values[i, priced] - q[priced]) / q[priced], kind="stable")]
            for j, part in zip(priced.tolist(), spend(mkt.budgets[i], q[priced].tolist())):
                fractions[j] = part
        bundles.append(Bundle(tuple(fractions), payments[i]))
    return Allocation(tuple(bundles), float(revenue(budgets, desire_)))
