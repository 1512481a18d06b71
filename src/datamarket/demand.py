"""Buyer-side computations under per-dataset pricing curves.

``optimal_demand`` computes a buyer's utility-maximizing bundle under shard
pricing (a fractional-knapsack problem), ``rate_threshold`` finds the largest
prefix of a dataset whose marginal price stays within a buyer's per-unit
value, and ``convexify``/``piecewise_linearize`` are the two revenue-safe
curve transforms: lower convex envelope and slope discretization onto a
finite grid.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .model import TOLERANCE, Bundle, Instance, ShardCurve, ShardSet, ValidationError
from .revenue import desires, interested, left_to_right, shard_items


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
    slope qualifies (ties count, within tolerance).
    """
    prefix = 0.0
    for size, slope in curve.shards:
        if slope > beta + TOLERANCE:
            return prefix
        prefix += size
    return 1.0


def spend(budget: float, costs) -> list[float]:
    """Fractional-knapsack spend: the fraction bought of each item, taken in
    the given order, each whole while the budget lasts and the last one in
    part.  Items the budget does not reach are left off the list."""
    fractions = []
    remaining = budget
    for cost in costs:
        if remaining <= 0:
            break
        take = min(cost, remaining)
        fractions.append(take / cost)
        remaining -= take
    return fractions


def optimal_demand(inst: Instance, i: int, shards: ShardSet) -> Bundle:
    """Buyer ``i``'s optimal bundle under shard pricing.

    The bundle maximizes value minus payment subject to the budget; among
    utility maximizers the payment is maximal, so it always equals
    ``min(budget, total price of all wanted shards)``.  Wanted shards (slope
    at most the buyer's value) become fractional-knapsack items; if they all
    fit in the budget the buyer takes everything, otherwise items are taken
    in decreasing surplus-per-cost order, fractionally at the margin, with
    zero-surplus items taken last in dataset order.
    """
    if not 0 <= i < inst.n:
        raise IndexError(f"buyer index {i} out of range for n={inst.n}")
    budget = inst.budgets[i]
    row = inst.values[i]
    values, prices, sizes = shard_items(row, shards)
    wants = interested(values, prices, sizes)
    total_cost = float(left_to_right(desires(wants, prices)))
    if budget >= total_cost:
        return Bundle(tuple(left_to_right(np.where(wants, sizes, 0.0)).tolist()), total_cost)

    # Budget binds: free shards come whole, then the budget is spent on the
    # rest, best surplus-per-cost first.
    fractions = [0.0] * len(shards)
    positive, zero = [], []
    for j, t in np.argwhere(wants).tolist():
        size, slope = shards[j].shards[t]
        if slope <= TOLERANCE:
            fractions[j] += size
        elif row[j] - slope > TOLERANCE:
            positive.append((j, size, slope))
        else:
            zero.append((j, size, slope))
    positive.sort(key=lambda item: -(row[item[0]] - item[2]) / item[2])
    wanted = positive + zero
    for (j, size, _), part in zip(wanted, spend(budget, [s * a for _, s, a in wanted])):
        fractions[j] += size * part
    return Bundle(tuple(fractions), min(budget, total_cost))


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
