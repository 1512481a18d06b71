"""Exact and approximate revenue maximization over linear price vectors.

There is always an optimal price vector whose entries are buyer values, so
``exact_bruteforce`` enumerates the per-dataset value grids.  ``greedy``
prices datasets one at a time (online-capable, 2-approximate on any order),
``randomized_greedy`` samples each committed price proportionally to its
marginal gain, and ``continuous_greedy`` maximizes the multilinear extension
of the copied-ground-set revenue over the partition matroid, then rounds; each
of its steps computes exact gains only for the copies that a cheap upper bound
leaves able to win, and reads who wants which copy from each dataset's buyers
sorted by value, the instance's own ``ranking``, which the PLC solver reads
too.  Nothing here holds an array of ``n^2 m`` entries, and
``exact_bruteforce`` holds the full grid only for its revenue.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .model import TOLERANCE, Instance, Partition, partition_prices
from .revenue import (extension_value, first_interested, interested, left_to_right,
                      linear_revenue, revenue)

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
    return inst.distinct[j][inst.distinct[j] > TOLERANCE].tolist()


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
    else:  # a copy picked at value 0 prices nothing, so its dataset has no owner
        partition = tuple(who if p > TOLERANCE else None for who, p in zip(partition, prices))
    return LinearSolution(prices, partition, linear_revenue(inst, prices), method, diagnostics)


#: ``exact_bruteforce`` sums its grid in tiles of at most this many points,
#: so a buyer's desire and the capped sums it adds to take a tile's memory
#: and only the revenue itself takes the full grid's.
TILE_POINTS = 2**15


def _grid_tiles(shape) -> list[tuple[slice, ...]]:
    """Blocks that cover a grid of ``shape`` in C order, each of at most
    ``TILE_POINTS`` points and each a run of consecutive flat indices: the
    axes after some axis ``k`` stay whole, axis ``k`` is cut into runs that
    fit, and every axis before it takes one index at a time."""
    k = 0
    while math.prod(shape[k + 1:]) > TILE_POINTS:
        k += 1
    runs = [1] * k + [TILE_POINTS // math.prod(shape[k + 1:])] + list(shape[k + 1:])
    return list(itertools.product(*([slice(t, t + run) for t in range(0, size, run)]
                                    for size, run in zip(shape, runs))))


def exact_bruteforce(inst: Instance) -> LinearSolution:
    """Enumerate every price vector on the per-dataset value grids.

    Each buyer's desire over the grid adds the active datasets' gains in
    index order from a ``0.0`` start, one axis at a time: the partial sum
    over the datasets added so far spans only their axes.  From the dataset
    of the last axis on, the sum spans the whole tile and goes into one
    buffer that every buyer reuses.  The grid is summed one tile
    (``_grid_tiles``) at a time, each in one ``revenue`` call.  A tile's
    buffers lay its axes out reversed, so the dataset added last is
    outermost and every add runs along the contiguous partial sum rather
    than broadcasting along a short trailing axis; the tile's revenue is
    transposed back into the full-grid revenue.  Every grid point sees the
    same adds in the same order as on a full grid, so the bits are the same.

    Ties are broken toward the lexicographically smallest grid-index tuple.
    Raises ValueError when the grid is larger than ``DEFAULT_GRID_CAP``.
    """
    cands = [candidate_prices(inst, j) for j in range(inst.m)]
    active = [j for j in range(inst.m) if cands[j]]
    axes = [j for j in active if len(cands[j]) > 1]  # one grid axis per dataset with a choice
    shape = [len(cands[j]) for j in axes]
    grid_points = math.prod(shape)
    if grid_points > DEFAULT_GRID_CAP:
        raise ValueError(f"price grid has {grid_points} points, exceeding cap {DEFAULT_GRID_CAP}")

    gains = []  # what each buyer pays for an active dataset at its candidates, on its axis
    for j in active:
        cj = np.asarray(cands[j])
        gain = np.where(interested(inst.array[:, j, None], cj), cj, 0.0)
        gains.append(gain.reshape(inst.n, *(cj.size if k == j else 1 for k in axes)))

    full_from = active.index(axes[-1]) if axes else 0  # the first gain over the whole tile
    grid = np.empty(shape)

    def tile_desires(tile):
        # each gain's own axis takes the tile's cut (its other axes have size 1),
        # and .T reverses the axes, so buyer i's gain is gain[..., i]
        tiled = [gain[(slice(None), *(cut if size > 1 else slice(None)
                                      for cut, size in zip(tile, gain.shape[1:])))].T
                 for gain in gains]
        desire = np.empty(grid[tile].shape[::-1])
        for i in range(inst.n):
            partial = 0.0
            for k, gain in enumerate(tiled):
                partial = np.add(partial, gain[..., i], out=desire if k >= full_from else None)
            yield partial

    for tile in _grid_tiles(shape):
        grid[tile] = np.transpose(revenue(inst.budgets, tile_desires(tile)))
    best = np.unravel_index(int(np.argmax(grid)), shape)
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
    prices = np.zeros(inst.m)
    paid = np.zeros((inst.n, inst.m))
    marginals = []
    for j in order:
        trials = np.array([0.0, *candidate_prices(inst, j)])
        if trials.size == 1:
            marginals.append(0.0)
            continue
        gain = np.where(interested(inst.array[:, j, None], trials), trials, 0.0)
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
        # each running total as a share of the last, which is exactly 1.0 and
        # so above every draw: the pick never lands past the last positive weight
        running = np.cumsum(np.maximum(0.0, marginals))
        if running[-1] > 0:
            return int(np.searchsorted(running / running[-1], rng.random(), side="right"))
        return int(np.argmax(marginals))

    prices, marginals = _greedy_prices(inst, range(inst.m), sample)
    return _solution(inst, prices, "rgreedy", {"seed": seed, "marginals": tuple(marginals)})


def _value_index(inst: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Who wants which copy, read from each dataset's buyers in value order.

    Copy ``(j, l)`` is dataset ``j`` priced at buyer ``l``'s value, and the
    buyers who want it are a suffix of ``order[:, j]``, each dataset's
    buyers by ascending value, from rank ``from_rank[l, j]`` on (``n x m``
    both).  The copies a buyer wants are in turn a prefix of the sorted
    values, so ``reach[i]``, what every copy together adds to buyer ``i``'s
    desire, adds the prefix sums of the sorted values in dataset order.
    The order is the instance's own (``Instance.ranking``).
    """
    order, ranked = inst.ranking
    from_rank, wanted = np.empty((2, inst.n, inst.m), dtype=int)
    for j, (column, values) in enumerate(zip(ranked.T, inst.array.T)):
        # the same comparisons as ``interested``, as searches on a sorted column
        from_rank[:, j] = first_interested(column, values)
        wanted[:, j] = np.searchsorted(column - TOLERANCE, values, side="right")
    prefix = np.cumsum(np.vstack([np.zeros(inst.m), ranked]), axis=0)  # row k: the k smallest
    return order, from_rank, left_to_right(np.take_along_axis(prefix, wanted, axis=0))


def _copy_columns(inst: Instance, copies: np.ndarray) -> np.ndarray:
    """What each copy ``l*m + j`` in ``copies`` adds to each buyer's desire
    (``n x len(copies)``): buyer ``l``'s value for ``j`` where she wants it."""
    owners, datasets = np.divmod(copies, inst.m)
    prices = inst.array[owners, datasets]
    return np.where(interested(inst.array[:, datasets], prices), prices, 0.0)


def _sample_copy_choices(y: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Per dataset, pick copy l with probability y[l, j] (n means no copy):
    the number of ``y[:, j]``'s running totals at or below the draw."""
    return (np.cumsum(y, axis=0) <= uniforms[..., None, :]).sum(axis=-2)


def _sample_loads(inst: Instance, choices: np.ndarray) -> np.ndarray:
    """Every buyer's desire in each sample (``samples x n``).  A sample picks
    at most one copy per dataset, so it is a linear price vector, the picked
    copy's value or ``0.0``, and its loads are the desires under it: each
    dataset's price where the buyer is ``interested``, added dataset by
    dataset from ``0.0`` as ``desires`` adds them, every sample at once."""
    prices = np.vstack([inst.array, np.zeros(inst.m)])[choices, np.arange(inst.m)]
    load = np.zeros((len(choices), inst.n))
    for values, price in zip(inst.array.T, prices.T[:, :, None]):
        load += np.where(interested(values, price), price, 0.0)
    return load


def _revenue_with_each_copy(budgets, columns: np.ndarray, load: np.ndarray) -> np.ndarray:
    """Each sample's revenue with each copy added to its desires ``load``
    (``samples x copies``, for the copies' ``n x copies`` ``columns``): one
    dense pass per buyer, ``load + columns[i]``.  The pass depends on a
    sample only through its ``load`` row, so it runs once per distinct row
    (keyed by the row's bytes) into one buffer that every buyer reuses, and
    the result is copied out to the samples that share the row.
    """
    slot = {}  # a row's bytes -> its index among the distinct rows, in first-seen order
    inverse = [slot.setdefault(row.tobytes(), len(slot)) for row in load]
    distinct = load[np.unique(inverse, return_index=True)[1]]
    desire = np.empty((len(distinct), columns.shape[1]))
    return revenue(budgets, (np.add(distinct[:, i, None], w, out=desire)
                             for i, w in enumerate(columns)))[inverse]


def _sampled_gains(inst: Instance, choices: np.ndarray, load: np.ndarray,
                   copies: np.ndarray) -> np.ndarray:
    """Each sample's revenue gain from each of the copies ``copies`` (copy
    ``(j, l)`` is ``l*m + j``; ``samples x len(copies)``): its revenue with
    the copy minus its revenue without it.

    ``choices`` holds each sample's pick per dataset and ``load``
    (``_sample_loads``) every buyer's desire in each sample; the caller
    computes it once a step for the bound and both calls.  Leaving out a
    copy the sample did not pick leaves ``load`` as it is, so the gain is
    ``_revenue_with_each_copy`` (one pass per distinct ``load`` row: the
    first step, where no sample picks anything, prices one row) minus the
    sample's own revenue.  Only the picked copies, at most one per dataset
    and sample, take the desire with the copy left out, ``load - w``, and
    add the copy back; rounding makes that differ from ``load``.  Every sum
    adds in buyer order through ``revenue``, one copy at a time, so a
    copy's gains have the same bits whichever other copies are asked for.
    """
    columns = _copy_columns(inst, copies)
    gains = _revenue_with_each_copy(inst.budgets, columns, load)
    gains -= revenue(inst.budgets, load.T)[:, None]
    owners, datasets = np.divmod(copies, inst.m)
    sample_idx, column = np.nonzero(choices[:, datasets] == owners)
    w = columns[:, column]  # n x picked
    without = load[sample_idx].T - w
    gains[sample_idx, column] = (revenue(inst.budgets, without + w)
                                 - revenue(inst.budgets, without))
    return gains


def _gain_bound(inst: Instance, order: np.ndarray, from_rank: np.ndarray,
                load: np.ndarray) -> np.ndarray:
    """Each copy's mean gain bound over the samples (``n x m``): its value
    times the share of samples in which each buyer who wants it is under
    budget, those shares summed over the buyers in value order from the
    copy's first-wanting rank (``_value_index``)."""
    under = np.mean(load < inst.budgets, axis=0)[order]  # n x m, in value order
    suffix = np.cumsum(under[::-1], axis=0)[::-1]
    return inst.array * np.take_along_axis(suffix, from_rank, axis=0)


def _copies_that_may_win(bound: np.ndarray, marginal: np.ndarray, margin: float) -> np.ndarray:
    """The copies not yet priced (``marginal`` is ``-inf``; both arrays are
    ``n x m``) whose mean gain bound comes within ``margin`` of the best
    marginal priced so far for their dataset, as copy indices ``l*m + j``.
    With nothing priced for a dataset, each of its copies may win."""
    floor = marginal.max(axis=0)
    return np.flatnonzero((marginal == -np.inf) & (bound >= floor - margin))


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
    copy that can be its dataset's best, and moves ``1/steps`` of
    probability mass to the best copy per dataset (the first on a tie).
    Then ``y`` is rounded independently per dataset ``roundings`` times,
    drawn in one block as the steps draw their samples, and the partition
    with the largest ``extension_value`` is kept, the first drawn on a tie.
    Fully determined by ``seed``.

    A copy no sample picked gains a sample at most its value summed over
    the buyers who want it and whose desire ``load_i`` is below their
    budget, since ``min(b_i, load_i + w) - min(b_i, load_i)`` is 0 for the
    others; ``_gain_bound`` takes its mean over the samples from the value
    index.  Each step computes exact gains first for the copies any sample
    picked and each dataset's copy of largest bound, which sets a floor
    under the dataset's best marginal, then for every other copy whose
    bound comes within a margin of that floor.  A copy left out falls short
    of the floor by more than the margin, so it can neither win nor tie,
    and the step commits what pricing every copy would.
    """
    if steps < 1 or samples < 1 or roundings < 1:
        raise ValueError("steps, samples and roundings must all be at least 1")
    rng = np.random.default_rng(seed)
    n, m = inst.n, inst.m
    order, from_rank, reach = _value_index(inst)
    # The screen's margin.  Every revenue a step computes adds n capped
    # desires, and no desire exceeds the buyer's reach over all copies, so
    # each revenue lies below this ceiling.  A float sum of n such terms errs
    # by about n * 2.2e-16 of the ceiling (about 1e-14 at n = 100), and so
    # do a gain, a mean over samples and the bound's suffix sums.  1e-9 of
    # the ceiling covers those errors up to millions of buyers, and it scales
    # with the money unit as the revenues do.
    margin = 1e-9 * float(revenue(inst.budgets, reach))
    y = np.zeros((n, m))

    step_marginals, step_spreads = [], []
    for _ in range(steps):
        choices = _sample_copy_choices(y, rng.random((samples, m)))  # samples x m
        load = _sample_loads(inst, choices)  # samples x n
        bound = _gain_bound(inst, order, from_rank, load)
        marginal = np.full((n, m), -np.inf)  # -inf: not priced in this step
        picked = (choices * m + np.arange(m))[choices < n]
        first = np.union1d(picked, bound.argmax(axis=0) * m + np.arange(m))
        first_gains = _sampled_gains(inst, choices, load, first)
        # each mean adds the samples in order, however many copies it covers
        marginal.flat[first] = left_to_right(first_gains.T) / samples
        rest = _copies_that_may_win(bound, marginal, margin)
        rest_gains = _sampled_gains(inst, choices, load, rest)
        marginal.flat[rest] = left_to_right(rest_gains.T) / samples
        best = marginal.argmax(axis=0)  # the best copy per dataset
        y[best, np.arange(m)] += 1.0 / steps
        committed = best * m + np.arange(m)
        step_marginals.append(float(marginal.flat[committed].sum()))
        gains = np.hstack([first_gains, rest_gains])
        spread = gains[:, (committed[:, None] == np.concatenate([first, rest])).argmax(axis=1)]
        # std squares deviations, which overflow past about 1e154, so it runs on
        # the gains divided by the largest power of two not above their largest
        # magnitude; scaling by a power of two is exact short of underflow
        unit = np.ldexp(0.5, np.frexp(np.abs(spread).max())[1])
        step_spreads.append(float((spread / unit).std(axis=0).max() * unit))

    parts = [tuple(int(c) if c < n else None for c in choices)
             for choices in _sample_copy_choices(y, rng.random((roundings, m)))]
    revenues = [extension_value(inst, [(j, who) for j, who in enumerate(part) if who is not None])
                for part in parts]
    best_part = parts[int(np.argmax(revenues))]  # the first of the best, as drawn

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
