"""Optimal separable piecewise-linear-convex pricing via a linear program.

Decision variables are shard sizes: for each dataset, one size per distinct
buyer value of that dataset (the only slopes an optimal curve needs), summing
to one.  Each finite-budget buyer gets a revenue variable capped by both her
budget and her desire (the total price of shards whose slope she can afford);
buyers with infinite budgets contribute their desire directly to the
objective, which keeps the program bounded.  A basic feasible optimum has at
most ``m + n`` positive shard sizes, so the resulting curves are almost
linear.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp
from .demand import optimal_demand
from .model import TOLERANCE, Allocation, Instance, ShardCurve, ShardSet, shardset_to_dict
from .revenue import interested, shard_revenue, value_array


@dataclass(frozen=True)
class PlcSolution:
    shards: ShardSet
    per_buyer_revenue: tuple[float, ...]
    total_revenue: float
    positive_shard_count: int


def build_pricing_lp(inst: Instance) -> lp.LpProblem:
    """The shard-size LP whose optimum is the best separable PLC pricing."""
    return _build(inst)[0]


def _build(inst: Instance) -> tuple[lp.LpProblem, tuple[np.ndarray, ...], np.ndarray]:
    """The pricing LP, each dataset's distinct values (ascending) and the
    paying buyers.  Its columns are the z columns of each dataset in turn,
    one per distinct value, then one revenue column per paying buyer."""
    values = value_array(inst)
    budgets = np.array(inst.budgets, dtype=float)
    distinct = tuple(np.array(sorted(set(column.tolist()))) for column in values.T)
    # infinite budgets never bind; zero budgets never pay
    payers = np.flatnonzero(np.isfinite(budgets) & (budgets > 0))
    z_bounds = np.cumsum([0] + [slopes.size for slopes in distinct])
    k = payers.size
    num_vars = z_bounds[-1] + k
    r_cols = z_bounds[-1] + np.arange(k)
    objective = np.zeros(num_vars)
    matrix = np.zeros((2 * k + inst.m, num_vars))

    objective[r_cols] = 1.0
    matrix[np.arange(k), r_cols] = 1.0          # budget rows: r_i <= b_i
    matrix[k + np.arange(k), r_cols] = 1.0      # desire rows: r_i - desire_i(z) <= 0
    unbounded = np.isinf(budgets)
    for j, slopes in enumerate(distinct):
        cols = slice(z_bounds[j], z_bounds[j + 1])
        # buyer i pays slope t per unit of every shard whose slope she can afford
        affordable = interested(values[:, j, None], slopes)
        matrix[k:2 * k, cols] = np.where(affordable[payers], -slopes, 0.0)
        objective[cols] = np.where(affordable[unbounded], slopes, 0.0).sum(axis=0)
        matrix[2 * k + j, cols] = 1.0           # shard sizes sum to one
    rhs = np.concatenate((budgets[payers], np.zeros(k), np.ones(inst.m)))
    relations = np.array([lp.LESS_EQUAL] * (2 * k) + [lp.EQUAL] * inst.m)
    return lp.LpProblem(objective, matrix, relations, rhs), distinct, payers


def solve_plc(inst: Instance) -> PlcSolution:
    """Solve the pricing LP and assemble the optimal shard curves."""
    problem, distinct, payers = _build(inst)
    solution = lp.solve_lp(problem)
    if solution.status != lp.OPTIMAL:
        raise RuntimeError(f"pricing LP unexpectedly {solution.status}")

    x = np.array(solution.x)
    curves = []
    positive = 0
    start = 0
    for slopes in distinct:
        sizes = x[start:start + slopes.size]
        start += slopes.size
        kept = sizes > TOLERANCE
        curves.append(ShardCurve.from_pairs(zip(sizes[kept].tolist(), slopes[kept].tolist())))
        positive += int(kept.sum())
    shards = tuple(curves)

    per_buyer, total = shard_revenue(inst, shards)
    for i, lp_revenue in zip(payers.tolist(), x[start:].tolist()):
        if abs(per_buyer[i] - lp_revenue) > 1e-6:
            raise RuntimeError(
                f"revenue mismatch for buyer {i}: curves give {per_buyer[i]}, "
                f"LP gives {lp_revenue}"
            )
    return PlcSolution(shards, per_buyer, total, positive)


def extract_allocation(inst: Instance, shards: ShardSet) -> Allocation:
    """Every buyer's optimal bundle under ``shards``; total equals the shard
    revenue, since each buyer pays min(budget, price of her wanted shards)."""
    bundles = tuple(optimal_demand(inst, i, shards) for i in range(inst.n))
    return Allocation(bundles, sum(b.payment for b in bundles))


def plc_solution_to_dict(sol: PlcSolution) -> dict:
    return {
        **shardset_to_dict(sol.shards),
        "per_buyer_revenue": list(sol.per_buyer_revenue),
        "total_revenue": sol.total_revenue,
        "positive_shard_count": sol.positive_shard_count,
    }
