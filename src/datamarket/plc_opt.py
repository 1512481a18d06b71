"""Optimal separable piecewise-linear-convex pricing via a linear program.

Decision variables are shard sizes: for each dataset, one size per distinct
buyer value of that dataset (the only slopes an optimal curve needs), summing
to one.  Each finite-budget buyer gets a revenue variable capped by both her
budget and her desire (the total price of shards whose slope she can afford);
buyers with infinite budgets contribute their desire directly to the
objective, which keeps the program bounded.  A basic feasible optimum has at
most ``m + n`` positive shard sizes, so the resulting curves are almost
linear.

``solve_plc`` never builds that full program.  It works in money divided by
one scale, the largest value or budget (each budget counted up to its
buyer's total value), and solves it by column generation: a restricted
master starts with every revenue column and one shard-size (z) column per
dataset, at its median distinct value.  The master's row duals price every
other z column at once: with ``y_i`` the dual of paying buyer ``i``'s
desire row and ``mu_j`` that of dataset ``j``'s sum row, the column of
slope ``t`` has reduced cost ``t * (sum of y_i over the payers who want t
+ the number of infinite-budget buyers who want t) - mu_j``.  The buyers
who want ``t`` are a suffix of dataset ``j``'s buyers in value order (the
instance's ``ranking``), so that sum is a suffix sum of the duals in that
order, added from the highest value down, with no BLAS product and no
buyers-by-columns array.  Who wants what is decided in the instance's own
money, so the LP and ``shard_revenue`` agree on every buyer.  Each round
adds the two best columns of every dataset whose reduced cost exceeds
``lp.PIVOT_TOL``; when none does, the master's optimum is the full
program's.  Round 1's master, the medians alone, is solved in closed form
and builds no tableau: its optimum is ``r_i = min(b_i, D_i)`` with ``D_i``
the desire at the medians, each payer on her desire row when
``D_i < b_i - lp.PIVOT_TOL`` and on her budget row otherwise, the row the
simplex's ratio test would pick.  That row's dual is 1 and the other's 0,
so round 1's pricing is an integer count of who wants each column times its
slope, which does not depend on the BLAS kernel.  Only when a column enters
is the master built, as one ``lp.Tableau`` that every later round shares:
crash-started from the basis of the budget and desire slacks and the median
columns, which is feasible, so its phase 1 ends at once with no pivots, and
crashed again at round 1's optimum, each revenue column basic in the row
round 1 chose, which is the tableau pivoting would reach.  Each round's
columns join that tableau and phase 2 continues from the previous optimum;
the pivot counts cover those simplex pivots only.  Slopes come back as the
buyers' own values, by index, never multiplied by the scale.  A budget
whose quotient by the scale overflows cannot bind, since every desire is at
most ``m`` times the scale, so the LP treats it as an infinite budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import lp
from .demand import optimal_demand
from .model import TOLERANCE, Allocation, Instance, ShardCurve, ShardSet, shardset_to_dict
from .revenue import desires, first_interested, interested, shard_revenue

# Columns each round adds per dataset, at most.
_ENTERING = 2


@dataclass(frozen=True)
class PlcSolution:
    shards: ShardSet
    per_buyer_revenue: tuple[float, ...]
    total_revenue: float
    positive_shard_count: int
    # master rounds, final and full z-column counts, pivots over every round,
    # and the largest |curve revenue - LP revenue| of a paying buyer, in money
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class _Market:
    """The pricing LP's data, money divided by ``scale``.  Its z columns,
    indexed ``0 .. slopes.size - 1``, are each dataset's distinct values
    (ascending), dataset by dataset.  Who wants a column is decided in the
    instance's own money, as ``shard_revenue`` decides it: the buyers who
    want it are a suffix of its dataset's buyers in value order, from the
    column's first-wanting rank (``revenue.first_interested``).  A budget
    whose quotient by the scale overflows is infinite here, and its buyer
    pays her desire outright, as an infinite budget's buyer does."""

    values: np.ndarray      # n x m, the instance's values in money
    order: np.ndarray       # n x m, each dataset's buyers by ascending value
    first: np.ndarray       # each column's first-wanting rank in that order
    budgets: np.ndarray     # divided by scale
    payers: np.ndarray      # finite, positive budgets
    distinct: np.ndarray    # each column's slope in money, as in the instance
    slopes: np.ndarray      # the same, divided by scale
    dataset: np.ndarray     # each column's dataset
    starts: np.ndarray      # each dataset's first column, then the column count

    @classmethod
    def of(cls, inst: Instance, scale: float) -> "_Market":
        raw = np.array(inst.budgets, dtype=float)
        # every desire is at most m times the scale, so a budget whose
        # quotient overflows never binds and may read as infinite
        with np.errstate(over="ignore"):
            budgets = raw / scale
        distinct = np.concatenate(inst.distinct)
        dataset = np.repeat(np.arange(inst.m), [column.size for column in inst.distinct])
        starts = np.searchsorted(dataset, np.arange(inst.m + 1))
        first = np.concatenate(list(map(first_interested, inst.ranking[1].T, inst.distinct)))
        # infinite budgets never bind; zero budgets never pay
        payers = np.flatnonzero(np.isfinite(budgets) & (raw > 0))
        return cls(inst.array, inst.ranking[0], first, budgets, payers,
                   distinct, distinct / scale, dataset, starts)

    @cached_property
    def medians(self) -> np.ndarray:
        """Each dataset's median column, the master's first z columns."""
        return (self.starts[:-1] + self.starts[1:] - 1) // 2


def _money_scale(inst: Instance) -> float:
    """The largest value or budget, each budget counted up to its buyer's
    total value, the most she can ever pay: one huge budget must not push
    every other amount below the solver's absolute tolerances."""
    budgets = np.minimum(inst.budgets, inst.array.sum(axis=1))
    return float(max(inst.array.max(), budgets.max())) or 1.0


def build_pricing_lp(inst: Instance) -> lp.LpProblem:
    """The shard-size LP whose optimum is the best separable PLC pricing,
    over every (dataset, distinct value) column, in the instance's money."""
    market = _Market.of(inst, 1.0)
    return _build(market, np.arange(market.slopes.size))


def _build(market: _Market, columns: np.ndarray) -> lp.LpProblem:
    """The pricing LP over the given z columns, in that order, then one
    revenue column per paying buyer.  Rows: a budget row per payer, a desire
    row per payer, a shard-sizes-sum-to-one row per dataset."""
    budgets, payers = market.budgets, market.payers
    k, z = payers.size, columns.size
    r_cols = z + np.arange(k)
    z_objective, z_matrix = _z_columns(market, columns)
    objective = np.concatenate((z_objective, np.ones(k)))
    matrix = np.zeros((z_matrix.shape[0], z + k))
    matrix[:, :z] = z_matrix
    matrix[np.arange(k), r_cols] = 1.0          # budget rows: r_i <= b_i
    matrix[k + np.arange(k), r_cols] = 1.0      # desire rows: r_i - desire_i(z) <= 0
    rhs = np.concatenate((budgets[payers], np.zeros(k), np.ones(market.starts.size - 1)))
    relations = np.array([lp.LESS_EQUAL] * (2 * k) + [lp.EQUAL] * (market.starts.size - 1))
    return lp.LpProblem(objective, matrix, relations, rhs)


def _z_columns(market: _Market, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The given z columns' objective coefficients and constraint columns,
    rows as in ``_build``: the one place both the full program and the
    columns a master gains are written."""
    k = market.payers.size
    slopes = market.slopes[columns]
    affordable = interested(market.values[:, market.dataset[columns]], market.distinct[columns])
    matrix = np.zeros((2 * k + market.starts.size - 1, columns.size))
    # buyer i pays slope t per unit of every shard whose slope she can afford
    matrix[k:2 * k] = np.where(affordable[market.payers], -slopes, 0.0)
    matrix[2 * k + market.dataset[columns], np.arange(columns.size)] = 1.0  # sizes sum to one
    # infinite budgets never bind, so those buyers pay their desire outright
    objective = np.where(affordable[np.isinf(market.budgets)], slopes, 0.0).sum(axis=0)
    return objective, matrix


def _reduced_costs(market: _Market, duals: np.ndarray) -> np.ndarray:
    """Every z column's reduced cost at a master's duals: its slope times the
    weight of the buyers who want it (a payer's desire-row dual, one for an
    infinite budget), less its dataset's sum-row dual.  Those buyers are a
    suffix of the value order, so each weight is a suffix sum of the
    weights in that order, added from the highest value down."""
    k = market.payers.size
    weights = np.isinf(market.budgets).astype(float)
    weights[market.payers] = duals[k:2 * k]
    suffix = np.cumsum(weights[market.order][::-1], axis=0)[::-1]
    return market.slopes * suffix[market.first, market.dataset] - duals[2 * k:][market.dataset]


def _entering(market: _Market, reduced: np.ndarray, in_master: np.ndarray) -> np.ndarray:
    """The best ``_ENTERING`` columns of each dataset outside the master whose
    reduced cost exceeds the pivot tolerance; ties go to the lower index."""
    candidates = np.flatnonzero((reduced > lp.PIVOT_TOL) & ~in_master)
    datasets = market.dataset[candidates]
    ranked = candidates[np.lexsort((-reduced[candidates], datasets))]
    group = market.dataset[ranked]
    rank = np.arange(ranked.size) - np.searchsorted(group, group)
    return ranked[rank < _ENTERING]


def _round_one(market: _Market) -> tuple[lp.LpSolution, np.ndarray]:
    """Round 1's master, each dataset priced at its median, solved in closed
    form, and which payers its optimum leaves on their desire.  The optimum
    is ``r_i = min(b_i, D_i)`` with ``D_i`` the desire at the medians, added
    left to right as ``lp.Tableau.crash`` adds it.  A payer is on her desire
    when ``D_i < b_i - lp.PIVOT_TOL`` and on her budget otherwise, the row
    the simplex's ratio test would pick (on a tie, the budget slack has the
    lower index): that row's dual is 1 and the other's 0.  Each sum row's
    dual zeroes its median's reduced cost.  ``x`` and the duals are laid out
    as the master's."""
    payers, medians = market.payers, market.medians
    # one median per dataset, in dataset order
    slopes, wanted = market.slopes[medians], interested(market.values, market.distinct[medians])
    budget = market.budgets[payers]
    desire = desires(wanted[payers], slopes)
    on_desire = desire < budget - lp.PIVOT_TOL
    revenues = np.where(on_desire, desire, budget)
    weights = np.isinf(market.budgets).astype(float)
    objective = float(revenues.sum() + slopes @ (weights @ wanted))
    # 0/1 weights: who wants each median is an exact count in any order
    weights[payers] = on_desire
    duals = np.concatenate((1.0 - on_desire, on_desire, slopes * (weights @ wanted)))
    x = np.concatenate((np.ones(medians.size), revenues))
    solution = lp.LpSolution(lp.OPTIMAL, tuple(x.tolist()), objective,
                             duals=tuple(duals.tolist()))
    return solution, on_desire


def _master(market: _Market, on_desire: np.ndarray) -> lp.Tableau:
    """Round 1's master as a tableau at its optimum, where round 2 starts.
    Each median is crashed basic in its dataset's sum row, which leaves the
    budget and desire slacks at ``b_i >= 0`` and ``D_i >= 0``; then each
    revenue column in its desire row where ``on_desire`` holds and in its
    budget row otherwise."""
    k, m = market.payers.size, market.starts.size - 1
    master = lp.Tableau(_build(market, market.medians), 2 * k + np.arange(m), np.arange(m))
    i = np.arange(k)
    master.crash(np.where(on_desire, k + i, i), m + i)
    return master


def _rounds(market: _Market):
    """Column generation.  Yields each round's master columns (the medians,
    then each round's entering columns, in the order the master's z
    variables hold them) and its optimum; the last one is the full
    program's.  Round 1 is priced from its closed-form duals
    (``_round_one``), whose pricing is an integer count of who wants each
    column times its slope, so it does not depend on the BLAS kernel.  Only
    when a column enters is the master built, as one tableau crashed at
    round 1's optimum (``_master``); each later round's columns join it and
    phase 2 continues from the previous optimum."""
    columns = market.medians
    in_master = np.zeros(market.slopes.size, dtype=bool)
    in_master[columns] = True
    solution, on_desire = _round_one(market)
    master = None
    while True:
        yield columns, solution
        entering = _entering(market, _reduced_costs(market, np.array(solution.duals)), in_master)
        if not entering.size:
            return
        if master is None:
            master = _master(market, on_desire)
        in_master[entering] = True
        columns = np.concatenate((columns, entering))
        master.add_columns(*_z_columns(market, entering))
        solution = master.solve()
        if solution.status != lp.OPTIMAL:
            raise RuntimeError(f"pricing LP unexpectedly {solution.status}")


def solve_plc(inst: Instance) -> PlcSolution:
    """Solve the pricing LP by column generation and assemble the optimal
    shard curves."""
    scale = _money_scale(inst)
    market = _Market.of(inst, scale)
    for rounds, (columns, solution) in enumerate(_rounds(market), start=1):
        pass
    k, m = market.payers.size, inst.m
    x = np.array(solution.x)
    # the master's variables: the median z columns, the revenues, then the rest
    sizes, revenues = np.concatenate((x[:m], x[m + k:])), x[m:m + k]
    # the kept columns by dataset, each dataset's in master order, then one
    # slice of (size, slope) pairs per dataset
    kept = np.flatnonzero(sizes > TOLERANCE)
    kept = kept[np.argsort(market.dataset[columns[kept]], kind="stable")]
    pairs = list(zip(sizes[kept].tolist(), market.distinct[columns[kept]].tolist()))
    ends = np.searchsorted(market.dataset[columns[kept]], np.arange(m + 1)).tolist()
    shards = tuple(ShardCurve.from_pairs(pairs[a:b]) for a, b in zip(ends, ends[1:]))

    per_buyer, total = shard_revenue(inst, shards)
    gaps = np.abs(np.take(per_buyer, market.payers) - revenues * scale)
    # in money: 1e-6, or 1e-6 of the scale when that is smaller
    wrong = np.flatnonzero(gaps > 1e-6 * min(1.0, scale))
    if wrong.size:
        i = int(market.payers[wrong[0]])
        raise RuntimeError(
            f"revenue mismatch for buyer {i}: curves give {per_buyer[i]}, "
            f"LP gives {revenues[wrong[0]] * scale}"
        )
    diagnostics = {"rounds": rounds, "z_columns": int(columns.size),
                   "z_columns_full": int(market.slopes.size),
                   "phase1_pivots": solution.phase1_pivots,
                   "phase2_pivots": solution.phase2_pivots,
                   "degenerate_pivots": solution.degenerate_pivots,
                   "revenue_gap": float(gaps.max(initial=0.0))}
    return PlcSolution(shards, per_buyer, total, kept.size, diagnostics)


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
