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
from datamarket.model import Instance, ShardCurve


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
