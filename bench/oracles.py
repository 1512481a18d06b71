"""Independent references for the benchmark's checks.

Nothing here imports ``datamarket``.  Instances arrive as plain
``(budgets, values)`` arrays and every quantity is computed from the model's
definitions:

- ``plc_optimum``: the separable pricing LP written from the paper (one
  size variable per dataset and buyer value, one revenue variable per buyer
  capped by budget and by desire), solved by scipy's HiGHS.  It is solved at
  unit scale and rescaled, so its answer does not depend on the money unit.
- ``linear_optimum``: exhaustive enumeration of price vectors drawn from the
  per-dataset value grids plus zero, with its own revenue sum.
- ``linear_optimum_milp``: the same LP with every dataset forced to one
  shard, solved as a mixed-integer program; only the self-test uses it.
- revenue, clearability and shard-to-item helpers with their own loops.

Run ``python3 bench/oracles.py`` for the self-test: the oracles must agree
with each other and with the fixtures' closed forms on small instances.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

REL_TOL = 1e-9  # interest ties (value == price) are exact in every input
EXACT_GRID_CAP = 600_000  # largest grid ``linear_optimum`` enumerates


def _arrays(budgets, values):
    return np.asarray(budgets, dtype=float), np.asarray(values, dtype=float)


def money_scale(budgets, values) -> float:
    b, v = _arrays(budgets, values)
    finite = np.concatenate([b[np.isfinite(b)], v.ravel()])
    return float(finite.max()) if finite.size and finite.max() > 0 else 1.0


def _tol(budgets, values) -> float:
    return REL_TOL * money_scale(budgets, values)


# ---------------------------------------------------------------------------
# revenue under given prices or curves
# ---------------------------------------------------------------------------

def linear_revenue_per_buyer(budgets, values, prices) -> np.ndarray:
    b, v = _arrays(budgets, values)
    p = np.asarray(prices, dtype=float)
    tol = _tol(budgets, values)
    desire = np.where(v >= p[None, :] - tol, p[None, :], 0.0).sum(axis=1)
    return np.minimum(b, desire)


def shard_revenue_per_buyer(budgets, values, curves) -> np.ndarray:
    """``curves[j]`` is a list of (size, slope); a buyer pays for every
    shard whose slope is within her value."""
    b, v = _arrays(budgets, values)
    tol = _tol(budgets, values)
    desire = np.zeros(len(b))
    for j, curve in enumerate(curves):
        for size, slope in curve:
            desire += np.where(v[:, j] >= slope - tol, size * slope, 0.0)
    return np.minimum(b, desire)


def items_from_curves(values, curves):
    """(prices, item values) of the market with one item per shard."""
    v = np.asarray(values, dtype=float)
    prices, cols = [], []
    for j, curve in enumerate(curves):
        for size, slope in curve:
            prices.append(size * slope)
            cols.append(v[:, j] * size)
    return np.asarray(prices), np.stack(cols, axis=1)


def clearable(budgets, item_values, prices) -> bool:
    """Every positively priced item has an interested buyer whose whole
    desire fits her budget."""
    b, w = _arrays(budgets, item_values)
    q = np.asarray(prices, dtype=float)
    tol = _tol(budgets, item_values)
    interested = w >= q[None, :] - tol
    desire = np.where(interested, q[None, :], 0.0).sum(axis=1)
    satisfied = desire <= b + tol
    covered = (interested & satisfied[:, None]).any(axis=0)
    return bool(np.all(covered | (q <= tol)))


# ---------------------------------------------------------------------------
# optima
# ---------------------------------------------------------------------------

def _pricing_lp(budgets, values):
    """Matrices of the separable pricing LP at unit money scale."""
    b, v = _arrays(budgets, values)
    scale = money_scale(budgets, values)
    b, v = b / scale, v / scale
    n, m = v.shape
    slopes = [np.unique(v[:, j]) for j in range(m)]
    nz = sum(len(s) for s in slopes)
    # columns: z (dataset j, slope t) ..., then r_i
    c = np.concatenate([np.zeros(nz), -np.ones(n)])
    a_ub = np.zeros((n, nz + n))
    a_eq = np.zeros((m, nz + n))
    at = 0
    for j, s in enumerate(slopes):
        a_eq[j, at:at + len(s)] = 1.0
        for t, slope in enumerate(s):
            a_ub[:, at + t] = -np.where(v[:, j] >= slope, slope, 0.0)
        at += len(s)
    a_ub[np.arange(n), nz + np.arange(n)] = 1.0
    bounds = [(0, None)] * nz + [(0, None if math.isinf(x) else x) for x in b]
    return c, a_ub, np.zeros(n), a_eq, np.ones(m), bounds, scale, slopes


def plc_optimum(budgets, values) -> float:
    from scipy.optimize import linprog

    c, a_ub, b_ub, a_eq, b_eq, bounds, scale, _ = _pricing_lp(budgets, values)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return -res.fun * scale


def linear_optimum_milp(budgets, values) -> float:
    """Linear pricing as the pricing LP with one whole shard per dataset."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    c, a_ub, b_ub, a_eq, b_eq, bounds, scale, slopes = _pricing_lp(budgets, values)
    nz = sum(len(s) for s in slopes)
    lo = np.array([x[0] for x in bounds], dtype=float)
    hi = np.array([np.inf if x[1] is None else x[1] for x in bounds], dtype=float)
    integrality = np.concatenate([np.ones(nz), np.zeros(len(c) - nz)])
    res = milp(c, constraints=[LinearConstraint(a_ub, -np.inf, b_ub),
                               LinearConstraint(a_eq, b_eq, b_eq)],
               bounds=Bounds(lo, hi), integrality=integrality)
    if res.status != 0:
        raise RuntimeError(f"reference MILP failed: {res.message}")
    return -res.fun * scale


def _linear_grids(v) -> list:
    return [np.unique(np.concatenate([[0.0], v[:, j]])) for j in range(v.shape[1])]


def linear_grid_size(values) -> int:
    """Price vectors ``linear_optimum`` enumerates on these values."""
    return math.prod(len(g) for g in _linear_grids(np.asarray(values, dtype=float)))


def linear_optimum(budgets, values) -> float:
    """Best linear revenue by enumerating every price vector on the grids
    {0} U {buyer values of dataset j}, datasets in reverse order."""
    b, v = _arrays(budgets, values)
    tol = _tol(budgets, values)
    n, m = v.shape
    grids = _linear_grids(v)
    if math.prod(len(g) for g in grids) > EXACT_GRID_CAP:
        raise ValueError("grid too large for the exhaustive reference")
    total = np.zeros(())
    for i in range(n):
        desire = np.zeros(())
        for j in reversed(range(m)):
            gain = np.where(v[i, j] >= grids[j] - tol, grids[j], 0.0)
            desire = np.add.outer(gain, desire)
        total = total + np.minimum(b[i], desire)
    return float(total.max())


def min_vertex_cover(edges) -> int:
    vertices = sorted({u for e in edges for u in e})
    for k in range(len(vertices) + 1):
        for cover in itertools.combinations(vertices, k):
            if all(u in cover or w in cover for u, w in edges):
                return k
    raise AssertionError("unreachable")


def rel_close(a: float, b: float, rel: float = 1e-7) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------

def _random(n, m, seed, budget_scale=1.0):
    rng = np.random.default_rng(seed)
    return budget_scale * (1.0 - rng.random(n)), 1.0 - rng.random((n, m))


def self_test() -> None:
    checks = 0
    for seed in range(12):
        n, m = 3 + seed % 4, 2 + seed % 3
        b, v = _random(n, m, seed, budget_scale=(0.5, 2.0)[seed % 2])
        enum = linear_optimum(b, v)
        mip = linear_optimum_milp(b, v)
        plc = plc_optimum(b, v)
        assert rel_close(enum, mip), (seed, enum, mip)
        assert plc >= enum - 1e-9, (seed, plc, enum)
        for c in (1e-8, 1e8):  # the references do not depend on the money unit
            assert rel_close(plc_optimum(b * c, v * c), plc * c, 1e-6), (seed, c)
            assert rel_close(linear_optimum(b * c, v * c), enum * c), (seed, c)
        checks += 5
    # sepgap: separable optimum max(k + 1, m) with infinite budgets
    for mm, kk in ((4, 3), (6, 5), (3, 7)):
        v = np.vstack([np.eye(mm), np.full((kk, mm), 1.0 / mm)])
        b = np.full(mm + kk, np.inf)
        assert rel_close(plc_optimum(b, v), max(kk + 1, mm)), (mm, kk)
        checks += 1
    # lingap: a two-shard curve collects every budget
    for nn, eps in ((5, 0.01), (9, 0.01)):
        b = np.array([eps * (1 - eps)] * (nn - 1) + [nn * eps * (1 - eps)])
        v = np.array([[eps]] * (nn - 1) + [[(nn - 1) * (1 - eps)]])
        assert rel_close(plc_optimum(b, v), b.sum()), nn
        checks += 1
    # greedytight: linear optimum 2n
    for nn, eps in ((3, 1e-3), (9, 1e-3)):
        b = np.array([1 + eps] * nn + [float(nn)])
        v = np.array([[1 + eps, 1.0]] * nn + [[float(nn), 0.0]])
        assert rel_close(linear_optimum(b, v), 2 * nn)
        assert rel_close(linear_optimum_milp(b, v), 2 * nn)
        checks += 2
    # greedysub: linear optimum 1.3
    b, v = np.array([1.0, 1.0]), np.array([[0.2, 0.2, 0.0], [0.6, 0.6, 0.5]])
    assert rel_close(linear_optimum(b, v), 1.3)
    checks += 1
    # vertex cover: |E| * B + t * (|V| - k)
    for edges in (((0, 1), (1, 2), (0, 2)), ((0, 1), (1, 2), (2, 3))):
        nv, ne, eps = 1 + max(max(e) for e in edges), len(edges), 0.5
        t = math.ceil(1.1 * (ne + nv) / eps)
        big = 1.1 * (1 + eps) * t
        v = np.ones((t + ne, nv))
        v[t:] = 0.0
        for r, (x, y) in enumerate(edges):
            v[t + r, [x, y]] = big
        b = np.array([float(nv)] * t + [big] * ne)
        want = ne * big + t * (nv - min_vertex_cover(edges))
        assert rel_close(linear_optimum(b, v), want), edges
        assert rel_close(linear_optimum_milp(b, v), want), edges
        checks += 2
    # clearability: a single item priced above every budget is not clearable
    assert not clearable([1.0, 1.0], [[3.0], [3.0]], [2.0])
    assert clearable([1.0, 1.0], [[3.0], [3.0]], [1.0])
    checks += 2
    print(f"oracle self-test: {checks} checks passed")


if __name__ == "__main__":
    self_test()
