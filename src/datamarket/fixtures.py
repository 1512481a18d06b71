"""Instance generators for the benchmark families used across the test suite.

Each family isolates one phenomenon: non-submodularity of price-vector
revenue, the gap between equilibrium notions, where one-pass greedy pricing
loses, the tightness of its approximation ratio, the revenue gap between PLC
and linear pricing, the gap between separable and non-separable pricing, a
vertex-cover embedding, and seeded random markets.  ``appendix_b_check``
verifies by LP that a certain partitioned revenue-like function admits no
monotone submodular extension to overlapping selections.
"""

from __future__ import annotations

import math

from . import lp
from .model import INFINITY, Instance


def gen_nonsub(eps: float = 0.001) -> Instance:
    """Two buyers, two datasets: raising one price can *increase* the value
    of later raises, breaking submodularity in the price domain."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie strictly between 0 and 1")
    return Instance.make([1.0, 1.0], [[1.0, 1.0], [eps, 2.0]])


def gen_ce_se(n: int) -> Instance:
    """One dataset; one buyer worth 2 and ``n - 1`` buyers worth 1.9 each.

    Pricing at 1.9 sells to everyone; pricing at 2 sells to one buyer.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    budgets = [2.0] + [1.9] * (n - 1)
    return Instance.make(budgets, [[b] for b in budgets])


def gen_greedy_suboptimal() -> Instance:
    """Two buyers, three datasets where every greedy order is suboptimal:
    greedy burns buyer 2's budget on high prices and tops out at 1.2, while
    prices (0.2, 0.2, 0.5) collect 1.3."""
    return Instance.make([1.0, 1.0], [[0.2, 0.2, 0.0], [0.6, 0.6, 0.5]])


def gen_greedy_tight(n: int, eps: float = 0.001) -> Instance:
    """Tightness family for greedy pricing on two datasets.

    ``n`` small buyers (budget ``1 + eps``, values ``(1 + eps, 1)``) and one
    large buyer (budget ``n``, values ``(n, 0)``).  Optimal prices ``(n, 1)``
    collect ``2n``; greedy processing dataset 0 first commits the small
    buyers' value and ends at ``(n + 1) * (1 + eps)``, so the ratio
    approaches ``2 - 2/(n + 1)`` as ``eps`` vanishes.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    budgets = [1.0 + eps] * n + [float(n)]
    values = [[1.0 + eps, 1.0]] * n + [[float(n), 0.0]]
    return Instance.make(budgets, values)


def gen_lingap(n: int, eps: float = 0.001) -> Instance:
    """One dataset, ``n - 1`` small buyers and one large buyer, where a
    two-shard curve exhausts every budget but any flat price leaves roughly
    half the money on the table (gap near ``2 - 1/n``)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 0 < eps < 1:
        raise ValueError("eps must lie strictly between 0 and 1")
    budgets = [eps * (1 - eps)] * (n - 1) + [n * eps * (1 - eps)]
    values = [[eps]] * (n - 1) + [[(n - 1) * (1 - eps)]]
    return Instance.make(budgets, values)


def gen_sepgap(m: int, k: int) -> Instance:
    """``m`` picky buyers (value 1 for their own dataset) plus ``k`` flexible
    buyers (value ``1/m`` for every dataset), all with infinite budgets.
    Best separable pricing earns ``max(k + 1, m)``; a bundle-discount
    non-separable price reaches ``m + k``."""
    if m < 1 or k < 1:
        raise ValueError("m and k must be at least 1")
    values = []
    for i in range(m):
        row = [0.0] * m
        row[i] = 1.0
        values.append(row)
    values.extend([[1.0 / m] * m] * k)
    return Instance.make([INFINITY] * (m + k), values)


def gen_vertex_cover(edges, eps: float = 0.5) -> Instance:
    """Embed minimum vertex cover into linear pricing.

    Datasets are vertices.  ``t`` normal buyers value every dataset at 1 with
    budget ``|V|``; each edge buyer values her two endpoints at ``B`` with
    budget ``B``.  With ``eps * t > |E| + |V|`` and ``B > (1 + eps) * t``
    (both enforced with a 1.1x safety factor), the optimal prices put ``B``
    on exactly a minimum vertex cover, for revenue ``|E|*B + t*(|V| - k)``.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    edges = [(int(u), int(v)) for u, v in edges]
    if not edges:
        raise ValueError("edge list must be non-empty")
    for u, v in edges:
        if u == v or u < 0 or v < 0:
            raise ValueError(f"invalid edge ({u}, {v})")
    num_vertices = max(max(u, v) for u, v in edges) + 1
    num_edges = len(edges)
    t = math.ceil(1.1 * (num_edges + num_vertices) / eps)
    big = 1.1 * (1 + eps) * t

    budgets = [float(num_vertices)] * t + [big] * num_edges
    values = [[1.0] * num_vertices for _ in range(t)]
    for u, v in edges:
        row = [0.0] * num_vertices
        row[u] = big
        row[v] = big
        values.append(row)
    return Instance.make(budgets, values)


def gen_random(
    n: int,
    m: int,
    seed: int,
    value_scale: float = 1.0,
    budget_scale: float = 1.0,
) -> Instance:
    """Seed-deterministic random instance with values in (0, value_scale]
    and budgets in (0, budget_scale]."""
    import numpy as np

    if n < 1 or m < 1:
        raise ValueError("n and m must be at least 1")
    if value_scale <= 0 or budget_scale <= 0:
        raise ValueError("scales must be positive")
    rng = np.random.default_rng(seed)
    values = value_scale * (1.0 - rng.random((n, m)))
    budgets = budget_scale * (1.0 - rng.random(n))
    return Instance.make(budgets.tolist(), values.tolist())


# ---------------------------------------------------------------------------
# Monotone-submodular extension non-existence check.
#
# Ground set: two elements a, b with two copies each.  The nine values fixed
# below come from a 2-part partitioned function that is monotone and pairwise
# diminishing; the LP asks whether those values extend to overlapping copy
# sets while staying monotone and submodular.
# ---------------------------------------------------------------------------

_A1, _A2, _B1, _B2 = 1, 2, 4, 8
_GROUND = (_A1, _A2, _B1, _B2)

#: Fixed extension values on sets with at most one copy per element.
EXTENSION_FIXED_VALUES = {
    0: 0.0,
    _A1: 1.0,
    _A2: 4.0,
    _B1: 1.0,
    _B2: 4.0,
    _A1 | _B1: 1.0,
    _A1 | _B2: 4.0,
    _A2 | _B1: 5.0,
    _A2 | _B2: 4.0,
}


def appendix_b_lp(include_monotonicity: bool = True) -> lp.LpProblem:
    """Feasibility LP over all 16 copy-set values.

    One variable per subset of the four copies; equality rows pin the nine
    single-copy-per-element values, and inequality rows demand monotonicity
    (optional) and submodularity everywhere.
    """
    num_vars = 16
    rows = []
    for mask, val in EXTENSION_FIXED_VALUES.items():
        row = [0.0] * num_vars
        row[mask] = 1.0
        rows.append((tuple(row), lp.EQUAL, val))

    if include_monotonicity:
        for mask in range(16):
            for e in _GROUND:
                if mask & e:
                    continue
                row = [0.0] * num_vars
                row[mask | e] += 1.0
                row[mask] -= 1.0
                rows.append((tuple(row), lp.GREATER_EQUAL, 0.0))

    # diminishing returns: marginal of e at a subset >= marginal at a superset
    for e in _GROUND:
        # the subsets without e, smallest first, then by mask
        submasks = sorted((mask for mask in range(16) if not mask & e),
                          key=lambda mask: (mask.bit_count(), mask))
        for small in submasks:
            for big in submasks:
                if small == big or (small & big) != small:
                    continue
                row = [0.0] * num_vars
                row[small | e] += 1.0
                row[small] -= 1.0
                row[big | e] -= 1.0
                row[big] += 1.0
                rows.append((tuple(row), lp.GREATER_EQUAL, 0.0))

    return lp.LpProblem.make([0.0] * num_vars, rows)


def appendix_b_check(include_monotonicity: bool = True) -> bool:
    """True when no extension exists (the LP is infeasible).

    With monotonicity required this returns True; dropping monotonicity makes
    the system satisfiable (zero-filling the overlapping sets works), so the
    relaxed call returns False.
    """
    return not lp.check_feasible(appendix_b_lp(include_monotonicity))
