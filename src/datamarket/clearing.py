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
rescan (a buyer whose wanted prices did not move gets her desire back).  It
keeps the rest of its state between iterations too: the violating items,
the potential as an exact integer and the over-budget buyers.  When a
lowering moves no buyer across her budget, only that item's column of wants
changed, so every earlier item is still clear and every later one is as it
was: the loop updates that item's flag and its terms of the potential and
resumes the search at it.  When a buyer crosses, ``_state`` reads the whole
market again.

``clearing_allocation`` is ``demand.allocate``, the one whole-market
allocation, with the over-budget buyers as the ones who spend.  One
``_state`` pass over a scan gives the violating items, the potential and
the over-budget buyers.  It is the only rule that reads a market from
scratch: ``clearing_allocation``, ``is_clearable`` and ``potential`` read
it, and so does ``clearabilize`` at its start and after each crossing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .demand import allocate
from .model import (TOLERANCE, Allocation, Bundle, Instance, ShardSet, ValidationError,
                    check_prices)
from .revenue import desires, interested, left_to_right, pricing, revenue


@dataclass(frozen=True, init=False)
class ItemMarket:
    """Linear-priced items with per-buyer item values and buyer budgets.

    ``sizes`` holds each item's fraction of its dataset (``None``: whole
    datasets, size 1).  The kernel reads only the market's ``arrays``,
    read-only and checked once, where they are built.  A market built from
    its fields builds them on first use.  ``market_from_prices`` and
    ``shards_to_items`` build a market from arrays: the instance's values,
    or the items sliced from its pricing's shard grid, which
    ``revenue.pricing`` keeps in the library's one memo.  Such a market
    turns each field into tuples only when something reads it, so the
    fields read and compare the same on both kinds.
    """

    prices: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]  # n buyers x M items
    budgets: tuple[float, ...]
    item_origin: tuple[tuple[int, int], ...] | None  # item -> (dataset, shard)
    sizes: tuple[float, ...] | None  # item -> fraction of its dataset

    def __init__(self, prices, values, budgets, item_origin=None, sizes=None):
        # the defaults live here: as class attributes they would hide an
        # array-backed market's unread fields from __getattr__
        self.__dict__.update(prices=prices, values=values, budgets=budgets,
                             item_origin=item_origin, sizes=sizes)

    @classmethod
    def _of_arrays(cls, prices, values, budgets, item_origin, sizes=None) -> "ItemMarket":
        """A market over the arrays ``prices``, ``values`` (``n x M``, new or
        read-only) and ``sizes`` (``None``: whole datasets), with
        ``budgets`` the instance's tuple and ``item_origin`` an ``M x 2``
        array or a tuple.  It checks the arrays and makes them read-only;
        each field given as an array becomes a tuple on first read."""
        mkt = object.__new__(cls)
        arrays = _checked(prices, values, np.array(budgets, dtype=float),
                          np.ones(prices.size) if sizes is None else sizes)
        mkt.__dict__.update(arrays=arrays, _fields=dict(
            prices=arrays[0], values=values, budgets=budgets, item_origin=item_origin, sizes=sizes))
        return mkt

    def __getattr__(self, name):
        # only a market built from arrays lacks a field, until it is read
        try:
            field = self.__dict__["_fields"][name]
        except KeyError:
            raise AttributeError(name) from None
        if isinstance(field, np.ndarray):
            field = tuple(map(tuple, field.tolist())) if field.ndim == 2 else tuple(field.tolist())
        self.__dict__[name] = field
        return field

    def __getstate__(self) -> dict:
        # a copy or a pickle carries the fields alone and builds and checks
        # its own read-only arrays
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def num_items(self) -> int:
        return self.arrays[0].size

    @property
    def num_buyers(self) -> int:
        return self.arrays[2].size

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(prices, values, budgets, sizes)`` as read-only numpy arrays.

        Raises ValidationError unless there is one value row per budget and
        one value and one size per price, on a NaN, infinite or negative
        value or price, on a NaN or negative budget and on a size that is
        not positive and finite; an infinite budget is legal, as in
        ``Instance``."""
        count, n = len(self.prices), len(self.budgets)
        if len(self.values) != n:
            raise ValidationError(f"got {len(self.values)} value rows for {n} buyers")
        for i, row in enumerate(self.values):
            if len(row) != count:
                raise ValidationError(f"value row {i} has {len(row)} items, expected {count}")
        sizes = (1.0,) * count if self.sizes is None else self.sizes
        if len(sizes) != count:
            raise ValidationError(f"got {len(sizes)} sizes for {count} items")
        return _checked(self.prices, np.array(self.values, dtype=float).reshape(n, count),
                        np.array(self.budgets, dtype=float), np.array(sizes, dtype=float))

    def scan(self, prices=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The prices as a new array, who wants which item at them, and desires."""
        q, values, _, sizes = self.arrays
        q = q.copy() if prices is None else check_prices(prices, q.size, "items")
        wants = interested(values, q, sizes)
        return q, wants, desires(wants, q)


def _checked(prices, values, budgets, sizes) -> tuple[np.ndarray, ...]:
    """A market's arrays, read-only, once each entry is valid: ``values``
    (``n x M``), ``budgets`` and ``sizes`` arrays of the right shapes, and
    ``prices`` any sequence, copied and checked by ``check_prices``."""
    # a NaN makes the minimum NaN, which fails the test
    if not (values.min(initial=0.0) >= 0 and np.isfinite(values.max(initial=0.0))):
        i, k = np.argwhere(~(np.isfinite(values) & (values >= 0)))[0]
        raise ValidationError(f"invalid value at ({i}, {k}): {values[i, k]}")
    if not budgets.min(initial=0.0) >= 0:
        i = np.flatnonzero(~(budgets >= 0))[0]
        raise ValidationError(f"invalid budget for buyer {i}: {budgets[i]}")
    if not (sizes.min(initial=1.0) > 0 and np.isfinite(sizes.max(initial=1.0))):
        k = np.flatnonzero(~(np.isfinite(sizes) & (sizes > 0)))[0]
        raise ValidationError(f"invalid size for item {k}: {sizes[k]}")
    arrays = check_prices(prices, sizes.size, "items"), values, budgets, sizes
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class ClearabilizeResult:
    prices: tuple[float, ...]
    iterations: int
    potentials: tuple[int, ...]  # potential before each iteration, then final


def market_from_prices(inst: Instance, prices) -> ItemMarket:
    """Each dataset is one item at its linear price."""
    return ItemMarket._of_arrays(check_prices(prices, inst.m), inst.array, inst.budgets,
                                 tuple((j, 0) for j in range(inst.m)))


def shards_to_items(inst: Instance, shards: ShardSet) -> ItemMarket:
    """One item per shard, in dataset then shard order; buyers want the same
    shards as under the curves.  The items are sliced from the pricing's
    shard grid, which ``revenue.pricing`` builds once and keeps in the
    library's one memo, so after ``plc_opt.solve_plc`` no curve is read
    again."""
    values, prices, sizes = pricing(inst, shards).items
    real = sizes > 0
    return ItemMarket._of_arrays(prices[real], values[:, real], inst.budgets, np.argwhere(real),
                                 sizes[real])


def desire(mkt: ItemMarket, i: int, prices=None) -> float:
    """Total price of the items buyer ``i`` is interested in."""
    if not 0 <= i < mkt.num_buyers:
        raise IndexError(f"buyer index {i} out of range for n={mkt.num_buyers}")
    return float(mkt.scan(prices)[2][i])


def per_buyer_revenue(mkt: ItemMarket, prices=None) -> tuple[float, ...]:
    """``min(budget, desire)`` per buyer, as floats."""
    return tuple(np.minimum(mkt.arrays[2], mkt.scan(prices)[2]).tolist())


def _state(mkt: ItemMarket, q, wants, desire_) -> tuple[list[int], int, np.ndarray]:
    """From a scan of the market at prices ``q``: the positively priced items
    with no satisfied interested buyer, in index order (none when the prices
    are clearable), the potential, and which buyers are over budget."""
    over = desire_ > mkt.arrays[2] + TOLERANCE
    priced = q > TOLERANCE
    violating = np.flatnonzero(priced & ~wants[~over].any(axis=0))
    phi1 = np.count_nonzero(priced) + wants.size - np.count_nonzero(wants)
    return violating.tolist(), int((mkt.num_buyers + 1) * phi1 + np.count_nonzero(over)), over


def is_clearable(mkt: ItemMarket, prices=None) -> bool:
    """Every positively priced item has a satisfied interested buyer."""
    return not _state(mkt, *mkt.scan(prices))[0]


def potential(mkt: ItemMarket, prices) -> int:
    """Bounded integer potential that ``clearabilize`` never raises and, unless
    rounding keeps a buyer over budget, lowers every iteration."""
    return _state(mkt, *mkt.scan(prices))[1]


def _lowered(price: float, who, budgets, others, desire_) -> float:
    """A violating item's next price: the most that any of its interested
    over-budget buyers ``who`` has left after her ``others`` (every buyer's
    other wanted prices), and zero when it has no such buyer (then ``left``
    is empty and its ``max(initial=0.0)`` is that zero)."""
    budget = budgets[who]
    left = budget - others[who]
    most = float(left.max(initial=0.0))
    if most >= price:
        # rounding at large money: that buyer's excess comes off instead
        left = np.where(left < price, left, price - desire_[who] + budget)
        most = float(left.max(initial=0.0))
    return max(0.0, most)


def clearabilize(mkt: ItemMarket) -> ClearabilizeResult:
    """Lower prices until clearable, without losing any buyer's revenue.

    Each iteration lowers the first violating item by ``_lowered`` and
    re-adds every desire.  When no buyer crosses her budget, only that
    item's column of wants moved, so only its flag and its terms of the
    potential change and the search resumes at it; otherwise ``_state``
    reads the whole market again.  Returns the new prices, the iteration
    count, and the potential trace (its value before each iteration and
    after the last one), so the count is one less than the trace's length.
    """
    _, values, budgets, sizes = mkt.arrays
    ceiling = budgets + TOLERANCE  # a buyer is over budget when her desire exceeds it
    q, wants, desire_ = mkt.scan()  # a fresh price array, lowered in place
    # the wanted prices, kept with q: items x buyers and C-contiguous, so that
    # left_to_right(paid.T) adds down the items without a copy
    paid = np.where(wants, q, 0.0).T.copy()
    bound = (mkt.num_items + 1) * (mkt.num_buyers + 1) ** 2
    violating, phi, over = _state(mkt, q, wants, desire_)
    at = 0  # violating[at] is the lowest violating item; every earlier one is clear
    potentials = [phi]
    while at < len(violating):
        if len(potentials) > bound:
            raise RuntimeError("clearabilize failed to terminate within its bound")
        j = violating[at]
        wanted = wants[:, j]
        paid[j] = 0.0  # so that the sum below leaves item j out; rewritten after
        q[j] = lowered = _lowered(float(q[j]), wanted & over, budgets, left_to_right(paid.T),
                                  desire_)
        # only item j's price moved: rescan its column of wants and its row of
        # paid, then re-add every desire
        column = interested(values[:, j], lowered, sizes[j])
        gained = int(np.count_nonzero(column)) - int(np.count_nonzero(wanted))
        wants[:, j] = column
        paid[j] = np.where(column, lowered, 0.0)
        desire_ = left_to_right(paid.T)
        if (desire_ > ceiling).tobytes() == over.tobytes():  # array_equal, in a fifth the time
            # no buyer crossed her budget, so every item before j is still
            # clear and every one after it as it was: the potential loses the
            # newly wanted entries and, if j went unpriced, j itself, and j
            # stays first while it is still violating
            phi -= (mkt.num_buyers + 1) * ((lowered <= TOLERANCE) + gained)
            if lowered <= TOLERANCE or (column & ~over).any():
                at += 1
        else:
            violating, phi, over = _state(mkt, q, wants, desire_)
            at = 0
        potentials.append(phi)
    return ClearabilizeResult(tuple(q.tolist()), len(potentials) - 1, tuple(potentials))


def clearing_allocation(mkt: ItemMarket, prices=None) -> Allocation:
    """A market-clearing allocation at clearable prices.

    Satisfied buyers take every item they are interested in (non-rivalry lets
    all of them hold it at once), so each positively priced item is fully
    owned by its lowest-index satisfied interested buyer.  A buyer is
    satisfied when her desire fits her budget within tolerance; every other
    buyer, one whose ``desire > budget + TOLERANCE``, spends her whole
    budget by ``demand.take``: the allocation is ``demand.allocate``, the
    one ``optimal_demand`` uses too, which spends wherever ``budget <
    cost``, with no tolerance.  Zero-priced items go to everyone.
    """
    q, wants, desire_ = mkt.scan(prices)
    violating, _, over = _state(mkt, q, wants, desire_)
    if violating:
        raise ValueError("prices are not clearable")
    _, values, budgets, _ = mkt.arrays
    fractions = allocate(budgets, values, q, wants, over)
    payments = np.minimum(budgets, desire_).tolist()
    bundles = tuple(Bundle(tuple(row), pay) for row, pay in zip(fractions.tolist(), payments))
    return Allocation(bundles, float(revenue(budgets, desire_)))
