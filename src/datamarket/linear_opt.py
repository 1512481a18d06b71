"""Exact and approximate revenue maximization over linear price vectors.

There is always an optimal price vector whose entries are buyer values, so
``exact_bruteforce`` enumerates the per-dataset value grids.  ``greedy``
prices datasets one at a time (online-capable, 2-approximate on any order),
``randomized_greedy`` samples each committed price proportionally to its
marginal gain, and ``continuous_greedy`` maximizes the multilinear extension
of the copied-ground-set revenue over the partition matroid, then rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import TOLERANCE, Instance, Partition, partition_prices
from .revenue import (extension_value, interested, left_to_right, linear_revenue, revenue,
                      value_array)

DEFAULT_GRID_CAP = 2_000_000


@dataclass(frozen=True)
class LinearSolution:
    prices: tuple[float, ...]
    partition: Partition
    revenue: float
    method: str
    diagnostics: dict = field(default_factory=dict)


def candidate_prices(inst: Instance, j: int) -> list[float]:
    """Distinct positive buyer values for dataset ``j``, ascending.

    Zero is excluded: per-buyer revenue is non-decreasing in desire, so a
    zero price is always weakly dominated by any value the buyers hold.
    """
    return sorted(set(v for v in (inst.values[i][j] for i in range(inst.n)) if v > TOLERANCE))


def _partition_for_prices(inst: Instance, prices) -> Partition:
    """Each priced dataset's first buyer whose value is its price; every
    positive price here is some buyer's value."""
    columns = tuple(zip(*inst.values))
    return tuple(columns[j].index(p) if p > TOLERANCE else None for j, p in enumerate(prices))


def _solution(inst: Instance, prices, method: str, diagnostics: dict,
              partition: Partition | None = None) -> LinearSolution:
    prices = tuple(prices)
    if partition is None:
        partition = _partition_for_prices(inst, prices)
    return LinearSolution(prices, partition, linear_revenue(inst, prices), method, diagnostics)


def exact_bruteforce(inst: Instance, grid_cap: int = DEFAULT_GRID_CAP) -> LinearSolution:
    """Enumerate every price vector on the per-dataset value grids.

    Ties are broken toward the lexicographically smallest grid-index tuple.
    Raises ValueError when the grid is larger than ``grid_cap``.
    """
    cands = [candidate_prices(inst, j) for j in range(inst.m)]
    active = [j for j in range(inst.m) if cands[j]]
    axes = [j for j in active if len(cands[j]) > 1]  # one grid axis per dataset with a choice
    shape = [len(cands[j]) for j in axes]
    grid_points = math.prod(shape)
    if grid_points > grid_cap:
        raise ValueError(f"price grid has {grid_points} points, exceeding cap {grid_cap}")

    values = value_array(inst)
    gains = []  # what each buyer pays for an active dataset at its candidates, on its axis
    for j in active:
        cj = np.asarray(cands[j])
        gain = np.where(interested(values[:, j, None], cj), cj, 0.0)
        gains.append(gain.reshape(inst.n, *(cj.size if k == j else 1 for k in axes)))

    def grid_desires():
        for i in range(inst.n):
            desire = np.zeros(shape)
            for gain in gains:
                np.add(desire, gain[i], out=desire)
            yield desire

    best = np.unravel_index(int(np.argmax(revenue(inst.budgets, grid_desires()))), shape)
    choice = dict(zip(axes, best))
    prices = [0.0] * inst.m
    for j in active:
        prices[j] = cands[j][choice.get(j, 0)]
    return _solution(inst, prices, "exact", {"grid_points": grid_points})


def _check_order(inst: Instance, order) -> list[int]:
    order = list(order)
    if sorted(order) != list(range(inst.m)):
        raise ValueError(f"order {order} is not a permutation of 0..{inst.m - 1}")
    return order


def _greedy_prices(inst: Instance, order, choose) -> tuple[list[float], list[float]]:
    """Price the datasets one at a time in ``order``.  Every candidate value
    of a dataset is scored by its marginal revenue, all of them in one kernel
    call, and ``choose(marginals)`` picks the index to commit; datasets with
    no positive candidate stay unpriced.  Returns the prices and, in
    ``order``, each committed marginal (``0.0`` for an unpriced dataset).

    ``paid[i, k]`` is what buyer ``i`` pays for committed dataset ``k``.  An
    arrival ``j`` scores its candidates on an ``n x (candidates + 1)`` block:
    the committed datasets before ``j`` added left to right, then the
    candidate's own gain (column 0 tries price 0.0, leaving ``j`` unpriced),
    then each committed dataset after ``j`` in index order.  A dataset not
    yet priced would add ``+0.0`` to a non-negative sum, which changes no
    bit, so the desires have the bits of adding all ``m`` datasets in index
    order.  Under the default order nothing after ``j`` is priced yet and an
    arrival costs one dataset's work.
    """
    values = value_array(inst)
    prices = np.zeros(inst.m)
    paid = np.zeros((inst.n, inst.m))
    marginals = []
    for j in order:
        trials = np.array([0.0, *candidate_prices(inst, j)])
        if trials.size == 1:
            marginals.append(0.0)
            continue
        gain = np.where(interested(values[:, j, None], trials), trials, 0.0)
        desire = left_to_right(paid[:, :j])[:, None] + gain
        for k in np.flatnonzero(prices[j + 1:]):
            desire += paid[:, j + 1 + k, None]
        rev = revenue(inst.budgets, desire)
        marginal = rev[1:] - rev[0]
        pick = 1 + choose(marginal)
        prices[j], paid[:, j] = trials[pick], gain[:, pick]
        marginals.append(float(marginal[pick - 1]))
    return prices.tolist(), marginals


def greedy(inst: Instance, order=None) -> LinearSolution:
    """One-pass greedy pricing: commit, per dataset in ``order``, the
    candidate value with the largest marginal revenue (ties toward the
    smallest price; datasets with no positive candidate stay unpriced)."""
    order = _check_order(inst, range(inst.m) if order is None else order)
    prices, marginals = _greedy_prices(inst, order, lambda marginals: int(np.argmax(marginals)))
    return _solution(inst, prices, "greedy", {"order": tuple(order),
                                              "marginals": tuple(marginals)})


def randomized_greedy(inst: Instance, seed: int) -> LinearSolution:
    """Greedy with the committed price sampled proportionally to its positive
    marginal gain; falls back to the deterministic choice when every
    candidate's marginal is zero.  Fully determined by ``seed``."""
    rng = np.random.default_rng(seed)

    def sample(marginals):
        weights = np.maximum(0.0, marginals)
        total = float(weights.sum())
        if total > 0:
            pick = int(np.searchsorted(np.cumsum(weights), rng.random() * total, side="right"))
            return min(pick, len(marginals) - 1)
        return int(np.argmax(marginals))

    prices, marginals = _greedy_prices(inst, range(inst.m), sample)
    return _solution(inst, prices, "rgreedy", {"seed": seed, "marginals": tuple(marginals)})


def _copy_weights(inst: Instance) -> np.ndarray:
    """W[i, l*m + j] = what copy (j, l) adds to buyer i's desire."""
    values = value_array(inst)
    prices = values[None, :, :]  # copy (j, l) is priced at buyer l's value
    W = np.where(interested(values[:, None, :], prices), prices, 0.0)
    return W.reshape(inst.n, inst.n * inst.m)


def _sample_copy_choices(y: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Per dataset, pick copy l with probability y[l, j] (n means no copy)."""
    n, m = y.shape
    out = np.empty(uniforms.shape, dtype=int)
    for j in range(m):
        cum = np.cumsum(y[:, j])
        out[..., j] = np.searchsorted(cum, uniforms[..., j], side="right")
    return out


def _sampled_marginals(budgets, W: np.ndarray, sel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's revenue with and without each copy (``samples x n*m``).

    ``sel`` marks the copies each sample picked and ``load = sel @ W.T`` is
    every buyer's desire in each sample.  Leaving out a copy the sample did
    not pick subtracts ``+0.0``, which leaves ``load`` as it is, so the
    revenue without it is the sample's own and the revenue with it needs one
    dense pass per buyer, ``load + W[i]``.  Only the picked copies, at most
    one per dataset and sample, take the desire with the copy left out,
    ``load - W[i]``, and add the copy back; rounding makes that differ from
    ``load``.  Every sum adds in buyer order through ``revenue``.
    """
    load = sel @ W.T  # samples x n
    r_with = revenue(budgets, (load[:, i, None] + w for i, w in enumerate(W)))
    r_without = np.repeat(revenue(budgets, load.T)[:, None], sel.shape[1], axis=1)
    sample_idx, copy_idx = np.nonzero(sel)
    w = W[:, copy_idx]  # n x picked
    without = load[sample_idx].T - w
    r_with[sample_idx, copy_idx] = revenue(budgets, without + w)
    r_without[sample_idx, copy_idx] = revenue(budgets, without)
    return r_with, r_without


def continuous_greedy(
    inst: Instance,
    steps: int = 50,
    samples: int = 64,
    roundings: int = 32,
    seed: int = 0,
) -> LinearSolution:
    """Continuous greedy over the copied ground set, plus independent rounding.

    Maintains marginal probabilities ``y[l, j]`` of pricing dataset ``j`` at
    buyer ``l``'s value.  Each of ``steps`` iterations estimates, with
    ``samples`` common-random-number samples, the expected marginal of every
    copy, moves ``1/steps`` of probability mass to the best copy per dataset,
    and finally rounds ``y`` independently per dataset ``roundings`` times,
    keeping the best evaluated partition.  Fully determined by ``seed``.
    """
    if steps < 1 or samples < 1 or roundings < 1:
        raise ValueError("steps, samples and roundings must all be at least 1")
    rng = np.random.default_rng(seed)
    n, m = inst.n, inst.m
    W = _copy_weights(inst)
    y = np.zeros((n, m))

    step_marginals, step_spreads = [], []
    for _ in range(steps):
        choices = _sample_copy_choices(y, rng.random((samples, m)))  # samples x m
        sel = np.zeros((samples, n * m))
        picked = choices < n
        sample_idx, dataset_idx = np.nonzero(picked)
        sel[sample_idx, choices[picked] * m + dataset_idx] = 1.0
        r_with, r_without = _sampled_marginals(inst.budgets, W, sel)
        gains = r_with - r_without  # each sample's marginal of each copy
        marginal = gains.mean(axis=0)
        best = marginal.reshape(n, m).argmax(axis=0)  # the best copy per dataset
        y[best, np.arange(m)] += 1.0 / steps
        committed = best * m + np.arange(m)
        step_marginals.append(float(marginal[committed].sum()))
        step_spreads.append(float(gains[:, committed].std(axis=0).max()))

    best_part: tuple[int | None, ...] = (None,) * m
    best_rev = -math.inf
    for _ in range(roundings):
        choices = _sample_copy_choices(y, rng.random(m))
        part = tuple(int(c) if c < n else None for c in choices)
        rev = extension_value(inst, [(j, who) for j, who in enumerate(part) if who is not None])
        if rev > best_rev:
            best_part, best_rev = part, rev

    diagnostics = {"steps": steps, "samples": samples, "roundings": roundings, "seed": seed,
                   "step_marginal": tuple(step_marginals), "step_max_std": tuple(step_spreads)}
    return _solution(inst, partition_prices(inst, best_part), "cgreedy", diagnostics, best_part)


def linear_solution_to_dict(sol: LinearSolution) -> dict:
    return {
        "prices": list(sol.prices),
        "assignment": [who for who in sol.partition],
        "revenue": sol.revenue,
        "method": sol.method,
    }
