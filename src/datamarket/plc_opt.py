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
from .model import TOLERANCE, Allocation, Instance, ShardCurve, ShardSet
from .revenue import shard_revenue


@dataclass(frozen=True)
class PlcSolution:
    shards: ShardSet
    per_buyer_revenue: tuple[float, ...]
    total_revenue: float
    positive_shard_count: int


@dataclass(frozen=True)
class _Layout:
    """Column map of the pricing LP: the z columns of each dataset in turn,
    then one revenue column per paying buyer."""

    slopes: tuple[np.ndarray, ...]  # distinct values per dataset, ascending
    z_start: tuple[int, ...]        # first z column of each dataset
    payers: np.ndarray              # buyers with a revenue column, ascending
    num_z: int


def _layout(values: np.ndarray, budgets: np.ndarray) -> _Layout:
    slopes = tuple(np.array(sorted(set(column.tolist()))) for column in values.T)
    sizes = [s.size for s in slopes]
    z_start = tuple(int(z) for z in np.cumsum([0] + sizes[:-1]))
    # infinite budgets never bind; zero budgets never pay
    payers = np.flatnonzero(np.isfinite(budgets) & (budgets > 0))
    return _Layout(slopes, z_start, payers, sum(sizes))


def build_pricing_lp(inst: Instance) -> lp.LpProblem:
    """The shard-size LP whose optimum is the best separable PLC pricing."""
    return _build(inst)[0]


def _build(inst: Instance) -> tuple[lp.LpProblem, _Layout]:
    values = np.array(inst.values, dtype=float).reshape(inst.n, inst.m)
    budgets = np.array(inst.budgets, dtype=float)
    layout = _layout(values, budgets)
    k = layout.payers.size
    num_vars = layout.num_z + k
    r_cols = layout.num_z + np.arange(k)
    objective = np.zeros(num_vars)
    matrix = np.zeros((2 * k + inst.m, num_vars))

    objective[r_cols] = 1.0
    matrix[np.arange(k), r_cols] = 1.0          # budget rows: r_i <= b_i
    matrix[k + np.arange(k), r_cols] = 1.0      # desire rows: r_i - desire_i(z) <= 0
    unbounded = np.isinf(budgets)
    for j, slopes in enumerate(layout.slopes):
        cols = slice(layout.z_start[j], layout.z_start[j] + slopes.size)
        # buyer i pays slope t per unit of every shard whose slope she can afford
        affordable = slopes <= values[:, j, None] + TOLERANCE
        matrix[k:2 * k, cols] = np.where(affordable[layout.payers], -slopes, 0.0)
        objective[cols] = np.where(affordable[unbounded], slopes, 0.0).sum(axis=0)
        matrix[2 * k + j, cols] = 1.0           # shard sizes sum to one
    rhs = np.concatenate((budgets[layout.payers], np.zeros(k), np.ones(inst.m)))
    relations = np.array([lp.LESS_EQUAL] * (2 * k) + [lp.EQUAL] * inst.m)
    return lp.LpProblem(objective, matrix, relations, rhs), layout


def solve_plc(inst: Instance) -> PlcSolution:
    """Solve the pricing LP and assemble the optimal shard curves."""
    problem, layout = _build(inst)
    solution = lp.solve_lp(problem)
    if solution.status != lp.OPTIMAL:
        raise RuntimeError(f"pricing LP unexpectedly {solution.status}")

    x = np.array(solution.x)
    curves = []
    positive = 0
    for j, slopes in enumerate(layout.slopes):
        sizes = x[layout.z_start[j]:layout.z_start[j] + slopes.size]
        kept = sizes > TOLERANCE
        curves.append(ShardCurve.from_pairs(zip(sizes[kept].tolist(), slopes[kept].tolist())))
        positive += int(kept.sum())
    shards = tuple(curves)

    per_buyer, total = shard_revenue(inst, shards)
    for i, lp_revenue in zip(layout.payers.tolist(), x[layout.num_z:].tolist()):
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
        "curves": [[{"size": s, "slope": a} for s, a in curve.shards] for curve in sol.shards],
        "per_buyer_revenue": list(sol.per_buyer_revenue),
        "total_revenue": sol.total_revenue,
        "positive_shard_count": sol.positive_shard_count,
    }
