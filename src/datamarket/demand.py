"""Buyer-side computations under per-dataset pricing curves.

``optimal_demand`` gives a buyer's utility-maximizing bundle under shard
pricing.  It computes every buyer's bundle in one pass over the market and
keeps them with the pricing's shard items in the library's one memo
(``revenue.pricing``), so a loop over the buyers costs one pass.
``allocate`` is the one whole-market allocation, one buyer a row: the rows
it is told spend their budgets by ``take``, the one fractional-knapsack
rule, and every other row takes each wanted item whole.
``optimal_demand`` and ``clearing.clearing_allocation`` both call it; only
their tests for who spends differ: ``budget < cost`` here, ``desire >
budget + TOLERANCE`` there.  ``rate_threshold``
finds the largest prefix of a dataset whose marginal price stays within a
buyer's per-unit value, and ``convexify``/``piecewise_linearize`` are the two
revenue-safe curve transforms: lower convex envelope and slope
discretization onto a finite grid.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .model import TOLERANCE, Bundle, Instance, ShardCurve, ShardSet, ValidationError
from .revenue import desires, interested, left_to_right, pricing


@dataclass(frozen=True)
class PiecewiseCurve:
    """A continuous, monotone, piecewise-linear curve on [0, 1].

    ``xs`` are breakpoints 0 = x_0 < ... < x_K = 1 and ``ys`` the prices at
    those breakpoints, with ``ys[0] == 0``; values between breakpoints are
    linearly interpolated.  The curve need not be convex.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self):
        if len(self.xs) != len(self.ys) or len(self.xs) < 2:
            raise ValidationError("curve needs matching xs/ys with at least two breakpoints")
        if abs(self.xs[0]) > TOLERANCE or abs(self.xs[-1] - 1.0) > TOLERANCE:
            raise ValidationError("breakpoints must start at 0 and end at 1")
        if abs(self.ys[0]) > TOLERANCE:
            raise ValidationError("curve value at 0 must be 0")
        for a, b in zip(self.xs, self.xs[1:]):
            if b <= a:
                raise ValidationError("breakpoints must be strictly increasing")
        for a, b in zip(self.ys, self.ys[1:]):
            if b < a - TOLERANCE:
                raise ValidationError("curve values must be non-decreasing")

    def value(self, x: float) -> float:
        """Linear interpolation at ``x``."""
        if x <= self.xs[0]:
            return self.ys[0]
        if x >= self.xs[-1]:
            return self.ys[-1]
        k = bisect_right(self.xs, x) - 1
        x0, x1 = self.xs[k], self.xs[k + 1]
        y0, y1 = self.ys[k], self.ys[k + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def rate_threshold(curve: ShardCurve, beta: float) -> float:
    """Largest prefix fraction whose every shard slope is at most ``beta``.

    Returns 0 when even the first slope exceeds ``beta`` and 1 when every
    slope qualifies.  A slope qualifies when a buyer of per-unit value
    ``beta`` wants its shard: ``interested`` on the shard as an item (value
    and price times its size), the call ``shard_desires`` makes, so ties
    count within tolerance per unit of the shard's size.
    """
    prefix = 0.0
    for size, slope in curve.shards:
        if not interested(beta * size, slope * size, size):
            return prefix
        prefix += size
    return 1.0


def take(budgets, values, prices, wants) -> np.ndarray:
    """Fractional-knapsack spend over items: the fraction bought of each.

    Buyers run along the leading axes, one per row, and items along the
    last; the arguments broadcast together, so a 1-D call is one buyer.
    Wanted free items (price within tolerance of zero) come whole.  Each
    budget then buys the row's other wanted items in decreasing order of
    surplus per unit of money, ``(value - price) / price``, ties in item
    order, each whole while the budget lasts and the last one in part.
    ``np.subtract.accumulate`` runs the budget down in that order, strictly
    in sequence, so the money left before each item has the same bits as
    spending one item at a time.
    """
    budgets = np.asarray(budgets, dtype=float)
    values, prices, wants = np.broadcast_arrays(values, prices, wants)
    priced = wants & (prices > TOLERANCE)
    # unwanted and free items sort last and pay nothing
    ratio = np.divide(-(values - prices), prices, out=np.full(prices.shape, np.inf), where=priced)
    order = np.argsort(ratio, axis=-1, kind="stable")
    cost = np.take_along_axis(np.where(priced, prices, 0.0), order, axis=-1)
    left = np.subtract.accumulate(np.concatenate([budgets[..., None], cost], axis=-1),
                                  axis=-1)[..., :-1]
    spent = np.divide(np.minimum(cost, left), cost, out=np.zeros(cost.shape),
                      where=(left > 0) & (cost > 0))
    fractions = np.empty(spent.shape)
    np.put_along_axis(fractions, order, spent, axis=-1)
    return np.where(wants & (prices <= TOLERANCE), 1.0, fractions)


def allocate(budgets, values, prices, wants, spends) -> np.ndarray:
    """Each buyer's fraction of each item, one buyer a row.

    Rows in the boolean mask ``spends`` spend their budgets by ``take``, all
    in one call; every other row takes each wanted item whole.  Every
    buyer sees the one row of ``prices``.
    """
    fractions = np.where(wants, 1.0, 0.0)
    fractions[spends] = take(budgets[spends], values[spends], prices, wants[spends])
    return fractions


def _market_demand(inst: Instance, items) -> tuple[Bundle, ...]:
    """Every buyer's optimal bundle under shard pricing, as ``optimal_demand``
    gives it one at a time, from the pricing's shard ``items``: one
    ``allocate`` over the market, in which the buyers whose budget binds
    spend it."""
    budgets = np.array(inst.budgets, dtype=float)
    values, prices, sizes = items
    wants = interested(values, prices, sizes)
    total_cost = left_to_right(desires(wants, prices))
    flat = (inst.n, prices.size)
    fractions = allocate(budgets, values.reshape(flat), prices.ravel(), wants.reshape(flat),
                         budgets < total_cost).reshape(wants.shape) * sizes
    # min(cost, budget) is the budget where it binds, the very object in the
    # instance: a new float per buyer, kept by the memo, raises peak memory
    payments = map(min, total_cost.tolist(), inst.budgets)
    return tuple(Bundle(tuple(row), pay)
                 for row, pay in zip(left_to_right(fractions).tolist(), payments))


def optimal_demand(inst: Instance, i: int, shards: ShardSet) -> Bundle:
    """Buyer ``i``'s optimal bundle under shard pricing.

    The bundle maximizes value minus payment subject to the budget; among
    utility maximizers the payment is maximal, so it always equals
    ``min(budget, total price of all wanted shards)``.  Wanted shards (slope
    at most the buyer's value) become fractional-knapsack items; if they all
    fit in the budget the buyer takes everything, otherwise ``take`` spends
    the budget on them: free shards whole, then by decreasing surplus per
    unit of money, ``(value - price) / price``, fractionally at the margin.
    A shard whose surplus lies within the tolerance of zero is ranked by that
    ratio like any other; only exact ties go in dataset then shard order.
    A buyer spends when ``budget < cost``, with no tolerance, where
    clearing's allocation lets a buyer spend only when her desire exceeds
    ``budget + TOLERANCE``; the two rules differ by design until one money
    unit decides every tolerance.

    The first call under a pricing computes every buyer's bundle in one
    ``_market_demand`` pass over the pricing's shard items and keeps them
    with those items in the library's one memo (``revenue.pricing``): the
    last instance and ShardSet, found by identity, when the ShardSet is a
    tuple.  So a loop over the buyers under one pricing, such as
    ``plc_opt.extract_allocation`` or any per-buyer caller, costs one pass,
    and after ``plc_opt.solve_plc`` it reads the grid its revenue check
    built; a ShardSet of another type is read again on every call.
    """
    if not 0 <= i < inst.n:
        raise IndexError(f"buyer index {i} out of range for n={inst.n}")
    record = pricing(inst, shards)
    if record.bundles is None:
        record.bundles = _market_demand(inst, record.items)
    return record.bundles[i]


def convexify(curve: PiecewiseCurve) -> ShardCurve:
    """Lower convex envelope of a piecewise-linear monotone curve.

    Computed as the lower hull of the curve's breakpoints (monotone-chain
    scan); the envelope is pointwise at most the input and agrees with it at
    x = 0 and x = 1.
    """
    points = list(zip(curve.xs, curve.ys))
    hull: list[tuple[float, float]] = []
    for px, py in points:
        while len(hull) >= 2:
            ox, oy = hull[-2]
            ax, ay = hull[-1]
            # pop while the middle point lies on or above the chord
            if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) <= 1e-12:
                hull.pop()
            else:
                break
        hull.append((px, py))
    pairs = []
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        pairs.append((x1 - x0, (y1 - y0) / (x1 - x0)))
    return ShardCurve.from_pairs(pairs)


def piecewise_linearize(curve: ShardCurve, slopes) -> ShardCurve:
    """Discretize a convex curve onto a finite slope grid.

    Each output slope is drawn from ``slopes``; the boundary between grid
    slopes ``a < b`` sits at ``rate_threshold(curve, a)``, so the new curve
    rounds the marginal price up to the next grid value (and down to the
    largest grid value beyond it).
    """
    grid = sorted(set(float(s) for s in slopes))
    if not grid:
        raise ValueError("slope grid must be non-empty")
    for s in grid:
        if math.isnan(s) or math.isinf(s) or s < 0:
            raise ValueError(f"invalid grid slope {s}")
    pairs = []
    prev = 0.0
    for alpha in grid[:-1]:
        z = rate_threshold(curve, alpha)
        pairs.append((z - prev, alpha))
        prev = z
    pairs.append((1.0 - prev, grid[-1]))
    return ShardCurve.from_pairs(pairs)
