"""Independent oracles and random generators shared by the test suite.

Everything here is deliberately implemented apart from the library code it
checks: the demand oracle is a dense grid search, the linear-pricing oracle
is a differently ordered exhaustive enumeration with its own revenue
formula, the LP oracle enumerates vertices directly, and the pricing-LP
oracle states the paper's program afresh and hands it to scipy's HiGHS.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

from datamarket.fixtures import gen_random
from datamarket.linear_opt import candidate_prices
from datamarket.model import Bundle, Instance, ShardCurve
from datamarket.revenue import desires, interested, value_array


def grid_demand_payment(price_of, value: float, budget: float, step: float = 1e-3) -> float:
    """Brute-force single-dataset demand: maximize value*x - price(x) over an
    affordable grid, breaking utility ties toward the larger payment."""
    best_utility = -float("inf")
    best_payment = 0.0
    steps = round(1.0 / step)
    for k in range(steps + 1):
        x = k * step
        paid = price_of(x)
        if paid > budget + 1e-12:
            continue
        utility = value * x - paid
        if utility > best_utility + 1e-12:
            best_utility, best_payment = utility, paid
        elif abs(utility - best_utility) <= 1e-12 and paid > best_payment:
            best_payment = paid
    return best_payment


def exhaustive_linear_revenue(inst: Instance) -> float:
    """Second exhaustive enumerator: iterates datasets from last to first and
    recomputes revenue from scratch with its own summation."""
    grids = []
    for j in range(inst.m):
        vals = sorted({inst.values[i][j] for i in range(inst.n)} - {0.0}, reverse=True)
        grids.append(vals if vals else [0.0])

    def revenue(prices):
        total = 0.0
        for i in range(inst.n):
            spend = 0.0
            for j in reversed(range(inst.m)):
                if inst.values[i][j] >= prices[j] - 1e-9:
                    spend += prices[j]
            total += min(inst.budgets[i], spend)
        return total

    best = -float("inf")
    for combo in itertools.product(*reversed(grids)):
        best = max(best, revenue(tuple(reversed(combo))))
    return best


def lp_vertex_enumeration(objective, rows):
    """Maximize objective over {rows, x >= 0} by enumerating candidate
    vertices (all n-subsets of active constraints).  Returns the best
    objective value, or None when no feasible vertex exists."""
    n = len(objective)
    planes = [(np.asarray(coeffs, dtype=float), float(rhs)) for coeffs, _rel, rhs in rows]
    for k in range(n):
        bound = np.zeros(n)
        bound[k] = 1.0
        planes.append((bound, 0.0))

    def feasible(x):
        if np.any(x < -1e-9):
            return False
        for coeffs, rel, rhs in rows:
            lhs = float(np.dot(coeffs, x))
            if rel == "<=" and lhs > rhs + 1e-9:
                return False
            if rel == ">=" and lhs < rhs - 1e-9:
                return False
            if rel == "=" and abs(lhs - rhs) > 1e-9:
                return False
        return True

    best = None
    for combo in itertools.combinations(range(len(planes)), n):
        A = np.vstack([planes[k][0] for k in combo])
        b = np.array([planes[k][1] for k in combo])
        if abs(np.linalg.det(A)) < 1e-12:
            continue
        x = np.linalg.solve(A, b)
        if feasible(x):
            val = float(np.dot(objective, x))
            if best is None or val > best:
                best = val
    return best


def highs_plc_revenue(inst: Instance) -> float:
    """Optimal separable PLC revenue from the shard-size LP, solved by HiGHS.

    Variables are one shard size per (dataset, distinct buyer value) and one
    revenue per finite-budget buyer, bounded by her budget; each revenue is
    capped by the buyer's desire and each dataset's sizes sum to one.
    Infinite-budget buyers pay their desire in full.  Skips the calling test
    when scipy is missing.
    """
    linprog = pytest.importorskip("scipy.optimize").linprog
    columns = [(j, value) for j in range(inst.m)
               for value in sorted({inst.values[i][j] for i in range(inst.n)})]
    finite = [i for i in range(inst.n) if not math.isinf(inst.budgets[i])]
    width = len(columns) + len(finite)

    def desire(i):
        return [value if value <= inst.values[i][j] + 1e-9 else 0.0 for j, value in columns]

    gain = [0.0] * len(columns) + [1.0] * len(finite)
    for i in range(inst.n):
        if math.isinf(inst.budgets[i]):
            gain[: len(columns)] = [g + d for g, d in zip(gain, desire(i))]
    a_ub = [[-d for d in desire(i)] + [1.0 if k == slot else 0.0 for k in range(len(finite))]
            for slot, i in enumerate(finite)]
    a_eq = [[1.0 if jj == j else 0.0 for jj, _ in columns] + [0.0] * len(finite)
            for j in range(inst.m)]
    bounds = [(0.0, None)] * len(columns) + [(0.0, inst.budgets[i]) for i in finite]
    res = linprog(
        [-g for g in gain],
        A_ub=np.array(a_ub).reshape(len(finite), width),
        b_ub=np.zeros(len(finite)),
        A_eq=np.array(a_eq),
        b_eq=np.ones(inst.m),
        bounds=bounds,
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


def random_piecewise_curve(rng: random.Random):
    """Monotone piecewise-linear curve with breakpoints on the 0.01 grid."""
    from datamarket.demand import PiecewiseCurve

    interior = sorted(rng.sample(range(1, 100), rng.randint(1, 5)))
    xs = [0.0] + [k / 100 for k in interior] + [1.0]
    ys = [0.0]
    for _ in range(len(xs) - 1):
        ys.append(ys[-1] + rng.uniform(0.0, 2.0))
    return PiecewiseCurve(tuple(xs), tuple(ys))


def random_shard_curve(rng: random.Random) -> ShardCurve:
    k = rng.randint(1, 4)
    slopes = sorted(rng.uniform(0.05, 3.0) for _ in range(k))
    while any(b - a < 1e-6 for a, b in zip(slopes, slopes[1:])):
        slopes = sorted(rng.uniform(0.05, 3.0) for _ in range(k))
    raw = [rng.uniform(0.1, 1.0) for _ in range(k)]
    total = sum(raw)
    sizes = [r / total for r in raw]
    return ShardCurve.from_pairs(zip(sizes, slopes))


def random_shardset(rng: random.Random, m: int):
    return tuple(random_shard_curve(rng) for _ in range(m))


def instance_battery(count: int, seed: int, n_max: int, m_max: int):
    """Pinned battery of random instances with varied shapes and budget scales."""
    master = random.Random(seed)
    out = []
    for k in range(count):
        n = master.randint(1, n_max)
        m = master.randint(1, m_max)
        budget_scale = master.choice([0.3, 1.0, 2.0])
        out.append(gen_random(n, m, seed=seed * 100_000 + k, budget_scale=budget_scale))
    return out


def left_to_right_desire(items) -> float:
    """Plain-Python desire: the prices of the wanted ``(value, price, size)``
    items, added left to right.  An item is wanted when its value covers its
    price within ``1e-9`` per unit of size."""
    desire = 0.0
    for value, price, size in items:
        if value >= price - 1e-9 * size:
            desire += price
    return desire


def left_to_right_revenue(budgets, desires) -> float:
    """Plain-Python budget-capped sum, added in buyer order."""
    total = 0.0
    for budget, desire in zip(budgets, desires):
        total += min(budget, desire)
    return total


def sampled_marginals_reference(budgets, W, sel):
    """Continuous greedy's per-step estimate as two dense passes: each
    sample's revenue with and without every copy (``samples x n*m``).  For
    buyer ``i`` the desire without copy ``c`` is ``load - W[i, c] * sel[c]``
    and with it that plus ``W[i, c]``; revenues add in buyer order."""
    load = sel @ W.T  # samples x n

    def without():
        return (load[:, i, None] - W[i] * sel for i in range(W.shape[0]))

    r_with = r_without = 0.0
    for budget, desire, w in zip(budgets, without(), W):
        r_with = r_with + np.minimum(budget, desire + w)
    for budget, desire in zip(budgets, without()):
        r_without = r_without + np.minimum(budget, desire)
    return r_with, r_without


def _loop_revenue(budgets, buyer_desires):
    total = 0.0
    for budget, desire in zip(budgets, buyer_desires):
        total = total + np.minimum(budget, desire)
    return total


def greedy_prices_reference(inst: Instance, order, choose) -> list[float]:
    """Greedy's prices scored on every buyer's full desire over all ``m``
    datasets, a ``(candidates + 1) x n x m`` array per dataset, with the
    budget-capped sum added one buyer at a time."""
    values = value_array(inst)
    prices = np.zeros(inst.m)
    for j in order:
        cands = candidate_prices(inst, j)
        if not cands:
            continue
        # row 0 keeps the current prices, row 1 + c tries candidate c
        trials = np.repeat(prices[None, :], len(cands) + 1, axis=0)
        trials[1:, j] = cands
        trials = trials[:, None, :]
        rev = _loop_revenue(inst.budgets, desires(interested(values, trials), trials).T)
        prices[j] = cands[choose(rev[1:] - rev[0])]
    return prices.tolist()


def spend_reference(budget, items) -> list[float]:
    """Plain-Python fractional knapsack over ``(value, price, wanted)`` items:
    the fraction bought of each.  Wanted items priced within ``1e-9`` of zero
    come whole; the budget then buys the other wanted items by decreasing
    surplus per unit of money, ties in item order, each whole while the
    budget lasts and the last one in part."""
    fractions = [0.0] * len(items)
    priced = []
    for k, (value, price, wanted) in enumerate(items):
        if wanted and price <= 1e-9:
            fractions[k] = 1.0
        elif wanted:
            priced.append(k)
    priced.sort(key=lambda k: -(items[k][0] - items[k][1]) / items[k][1])
    remaining = budget
    for k in priced:
        if remaining <= 0:
            break
        paid = min(items[k][1], remaining)
        fractions[k] = paid / items[k][1]
        remaining -= paid
    return fractions


def take_reference(budget, values, prices, wants) -> np.ndarray:
    """One buyer's fractional-knapsack spend, one item at a time: the loop
    that ``demand.take`` runs for many buyers at once, kept as it was."""
    fractions = np.where(wants & (prices <= 1e-9), 1.0, 0.0)
    priced = np.flatnonzero(wants & (prices > 1e-9))
    order = priced[np.argsort(-(values[priced] - prices[priced]) / prices[priced], kind="stable")]
    remaining = budget
    for k in order.tolist():
        if remaining <= 0:
            break
        paid = min(prices[k], remaining)
        fractions[k] = paid / prices[k]
        remaining -= paid
    return fractions


def optimal_demand_reference(inst: Instance, i: int, shards) -> Bundle:
    """One buyer's optimal bundle under shard pricing, built for her alone and
    spent by ``take_reference``: what ``demand.optimal_demand`` computes for
    every buyer in one pass, kept as it was."""
    from datamarket.revenue import desires, interested, left_to_right, shard_items

    budget = inst.budgets[i]
    values, prices, sizes = shard_items(inst.values[i], shards)
    wants = interested(values, prices, sizes)
    total_cost = float(left_to_right(desires(wants, prices)))
    if budget >= total_cost:
        return Bundle(tuple(left_to_right(np.where(wants, sizes, 0.0)).tolist()), total_cost)
    fractions = take_reference(budget, values.ravel(), prices.ravel(), wants.ravel())
    return Bundle(tuple(left_to_right(fractions.reshape(sizes.shape) * sizes).tolist()), budget)


def demand_reference(inst: Instance, i: int, shards) -> tuple[float, ...]:
    """Per-dataset fractions of a budget-bound buyer under shard pricing:
    every shard is an item valued and priced at its size times the per-unit
    value and slope, spent on by ``spend_reference``, and each dataset's
    bought sizes are added in shard order."""
    items, sizes, owners = [], [], []
    for j, curve in enumerate(shards):
        for size, slope in curve.shards:
            value, price = inst.values[i][j] * size, slope * size
            items.append((value, price, value >= price - 1e-9 * size))
            sizes.append(size)
            owners.append(j)
    fractions = [0.0] * inst.m
    for j, size, part in zip(owners, sizes, spend_reference(inst.budgets[i], items)):
        fractions[j] += size * part
    return tuple(fractions)


def pricing_battery(seed: int):
    """Pinned ``(instance, shards)`` pairs: random instances with binding and
    slack budgets, each under its optimal PLC curves, random curves with
    slopes drawn from buyer values, and the prices of a random partition."""
    from datamarket.model import partition_prices, prices_to_shardset
    from datamarket.plc_opt import solve_plc

    rng = random.Random(seed)
    out = []
    for n, m in ((8, 4), (15, 8), (30, 15)):
        for budget_scale in (0.25, 1.0):
            inst = gen_random(n, m, rng.randrange(10**6), budget_scale=budget_scale)
            out.append((inst, solve_plc(inst).shards))
            curves = []
            for j in range(m):
                owners = rng.sample(range(n), rng.randint(1, 3))
                raw = [rng.uniform(0.1, 1.0) for _ in owners]
                curves.append(ShardCurve.from_pairs(
                    (r / sum(raw), inst.values[o][j]) for r, o in zip(raw, owners)))
            out.append((inst, tuple(curves)))
            part = [rng.randrange(n) for _ in range(m)]
            out.append((inst, prices_to_shardset(partition_prices(inst, part))))
    return out


def clearabilize_reference(prices, values, budgets, sizes=None):
    """Plain-Python clearing that rescans the whole market every iteration.

    Returns ``(prices, iterations, potentials)``.  Each iteration reads who
    wants which item (value covers price within ``1e-9`` per unit of size)
    and every desire (wanted prices added left to right) afresh, records the
    potential, and lowers the lowest-index positively priced item that no
    satisfied interested buyer holds: to the largest budget minus the
    buyer's other wanted prices (added left to right) over its interested
    budget-constrained buyers, or to zero when it has none.  A buyer for
    whom rounding leaves that at or above the price offers the price minus
    her excess over the budget instead.
    """
    q = [float(p) for p in prices]
    n, count = len(budgets), len(q)
    sizes = [1.0] * count if sizes is None else sizes
    potentials = []
    iterations = 0
    while True:
        wants = [[values[i][k] >= q[k] - 1e-9 * sizes[k] for k in range(count)]
                 for i in range(n)]
        desire = []
        for row in wants:
            total = 0.0
            for k in range(count):
                if row[k]:
                    total += q[k]
            desire.append(total)
        constrained = [desire[i] > budgets[i] + 1e-9 for i in range(n)]
        priced = sum(price > 1e-9 for price in q)
        unwanted = sum(not wanted for row in wants for wanted in row)
        potentials.append((n + 1) * (priced + unwanted) + sum(constrained))
        violating = [k for k in range(count) if q[k] > 1e-9
                     and not any(wants[i][k] and not constrained[i] for i in range(n))]
        if not violating:
            return tuple(q), iterations, tuple(potentials)
        j = violating[0]
        lowered = []
        for i in range(n):
            if wants[i][j] and constrained[i]:
                others = 0.0
                for k in range(count):
                    if wants[i][k] and k != j:
                        others += q[k]
                left = budgets[i] - others
                lowered.append(left if left < q[j] else q[j] - desire[i] + budgets[i])
        q[j] = max(0.0, max(lowered)) if lowered else 0.0
        iterations += 1
