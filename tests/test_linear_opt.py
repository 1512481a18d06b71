import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from datamarket import linear_opt
from datamarket.fixtures import (
    gen_greedy_suboptimal,
    gen_greedy_tight,
    gen_nonsub,
    gen_random,
    gen_vertex_cover,
)
from datamarket.linear_opt import (
    continuous_greedy,
    exact_bruteforce,
    greedy,
    randomized_greedy,
)
from datamarket.model import Instance
from datamarket.revenue import linear_revenue
from oracle_util import (
    copy_weights_reference,
    exact_grid_reference,
    exhaustive_linear_revenue,
    greedy_prices_reference,
    instance_battery,
    sampled_marginals_reference,
    selection_reference,
)

EPS = 0.001


def test_exact_example3():
    sol = exact_bruteforce(gen_nonsub(EPS))
    assert sol.revenue == pytest.approx(2.0, abs=1e-9)
    assert sol.prices == (EPS, 1.0)  # lexicographically first maximizer
    assert sol.diagnostics["grid_points"] == 4


def test_exact_greedy_suboptimal():
    sol = exact_bruteforce(gen_greedy_suboptimal())
    assert sol.revenue == pytest.approx(1.3, abs=1e-9)
    assert sol.prices == (0.2, 0.2, 0.5)
    assert sol.partition == (0, 0, 1)


def test_exact_greedy_tightness_family():
    n = 4
    sol = exact_bruteforce(gen_greedy_tight(n, eps=0.01))
    assert sol.revenue == pytest.approx(2 * n, abs=1e-9)
    assert sol.prices[0] == pytest.approx(n)


def test_exact_revenue_is_consistent():
    sol = exact_bruteforce(gen_random(4, 3, seed=2))
    assert sol.revenue == pytest.approx(
        linear_revenue(gen_random(4, 3, seed=2), sol.prices), abs=1e-9
    )


def test_exact_matches_independent_enumerator():
    for inst in instance_battery(40, seed=31, n_max=3, m_max=3):
        assert exact_bruteforce(inst).revenue == pytest.approx(
            exhaustive_linear_revenue(inst), abs=1e-9
        )


def test_exact_grid_cap():
    inst = gen_random(40, 4, seed=0)  # 40**4 = 2,560,000 grid points, past the cap
    with pytest.raises(ValueError, match="2560000 points, exceeding cap 2000000"):
        exact_bruteforce(inst)


def test_exact_all_zero_values_price_zero():
    inst = Instance.make([1.0], [[0.0, 0.0]])
    sol = exact_bruteforce(inst)
    assert sol.prices == (0.0, 0.0)
    assert sol.partition == (None, None)
    assert sol.revenue == 0.0


def test_greedy_suboptimal_on_every_order():
    inst = gen_greedy_suboptimal()
    for order in itertools.permutations(range(3)):
        assert greedy(inst, order).revenue <= 1.2 + 1e-9


def test_greedy_tightness_order_0_1():
    n, eps = 4, 0.01
    sol = greedy(gen_greedy_tight(n, eps), [0, 1])
    assert sol.revenue == pytest.approx((n + 1) * (1 + eps), abs=1e-9)
    assert sol.prices[0] == pytest.approx(1 + eps)


def test_greedy_single_buyer_single_dataset():
    inst = Instance.make([0.4], [[0.9]])
    sol = greedy(inst)
    assert sol.prices == (0.9,)
    assert sol.revenue == pytest.approx(0.4)


def test_greedy_rejects_bad_order():
    with pytest.raises(ValueError):
        greedy(gen_nonsub(EPS), [0, 0])


def test_greedy_two_approximation():
    rng = random.Random(8)
    for inst in instance_battery(60, seed=77, n_max=4, m_max=4):
        order = list(range(inst.m))
        rng.shuffle(order)
        assert greedy(inst, order).revenue >= 0.5 * exact_bruteforce(inst).revenue - 1e-9


def test_randomized_greedy_trivial_is_seed_independent():
    inst = Instance.make([0.4], [[0.9]])
    for seed in range(5):
        assert randomized_greedy(inst, seed).prices == (0.9,)


def test_randomized_greedy_mean_and_guarantee():
    inst = gen_greedy_suboptimal()
    revenues = [randomized_greedy(inst, seed).revenue for seed in range(200)]
    assert all(r >= 0.65 - 1e-9 for r in revenues)  # half the optimum of 1.3
    assert 1.0 <= float(np.mean(revenues)) <= 1.3


def test_randomized_greedy_never_commits_a_price_without_gain(monkeypatch):
    # values over 18 decades, so that adding the weights pairwise (as ``sum``
    # does) and left to right (as ``cumsum`` does) rounds differently; the
    # top value's buyer has no budget, so the top candidate gains nothing
    rng = np.random.default_rng(5)
    values = 10.0 ** rng.uniform(-3, 15, 24)
    budgets = values.copy()
    budgets[np.argmax(values)] = 0.0
    # subnormal budgets, where the largest draw times the total rounds up to it
    instances = [Instance.make(budgets, values[:, None]),
                 Instance.make([3e-320, 4e-320], [[1.0], [2.0]])]

    class LastDraw:  # the largest draw a Generator returns
        def random(self):
            return 1.0 - 2.0 ** -53

    monkeypatch.setattr(np.random, "default_rng", lambda seed: LastDraw())
    for inst in instances:
        sol = randomized_greedy(inst, 0)
        assert sol.diagnostics["marginals"][0] > 0.0
        assert sol.revenue > 0.0


def test_randomized_greedy_reproducible():
    inst = gen_random(3, 3, seed=5)
    assert randomized_greedy(inst, 11) == randomized_greedy(inst, 11)


def test_continuous_greedy_trivial():
    sol = continuous_greedy(Instance.make([2.0], [[1.5]]), steps=1, samples=1, roundings=1, seed=0)
    assert sol.prices == (1.5,)
    assert sol.revenue == pytest.approx(1.5)


def test_continuous_greedy_example3_guarantee():
    sol = continuous_greedy(gen_nonsub(EPS), steps=50, samples=64, roundings=32, seed=3)
    assert sol.revenue >= (1 - 1 / math.e) * 2.0 - 0.1


def test_continuous_greedy_reproducible():
    inst = gen_random(3, 3, seed=9)
    a = continuous_greedy(inst, seed=21)
    b = continuous_greedy(inst, seed=21)
    assert a == b


def test_continuous_greedy_matches_the_two_pass_estimate(monkeypatch):
    cases = [(gen_random(n, m, seed, budget_scale=b), seed)
             for n, m, seed, b in [(6, 4, 3, 1.0), (12, 5, 7, 0.25), (20, 8, 2, 16.0)]]
    got = [continuous_greedy(inst, steps=6, samples=8, roundings=4, seed=seed)
           for inst, seed in cases]
    # the reference prices every copy of the dense matrix from the same
    # loads; continuous greedy asks for some columns
    monkeypatch.setattr(linear_opt, "_sampled_gains", lambda inst, choices, load, copies:
                        np.subtract(*sampled_marginals_reference(
                            inst.budgets, copy_weights_reference(inst),
                            selection_reference(choices, inst.n), load))[:, copies])
    assert got == [continuous_greedy(inst, steps=6, samples=8, roundings=4, seed=seed)
                   for inst, seed in cases]


def _screening_battery():
    """Markets, each with its continuous greedy settings, on which the copy
    screen meets ties, extreme money units and a single copy."""
    kw = dict(steps=4, samples=16, roundings=4, seed=3)
    for n, m in [(6, 4), (12, 5), (30, 12), (60, 30)]:
        for budget_scale in (0.25, 1.0, 4.0, 16.0):
            yield gen_random(n, m, n + m, budget_scale=budget_scale), kw
    base = gen_random(12, 6, 5, budget_scale=2.0)
    for c in (1e-8, 1e-4, 1e4, 1e8):
        yield Instance.make([b * c for b in base.budgets],
                            [[v * c for v in row] for row in base.values]), kw
    yield gen_vertex_cover([(0, 1), (1, 2), (0, 2), (2, 3)], eps=0.5), kw
    yield gen_greedy_tight(4, 0.01), kw
    yield Instance.make([1.0] * 5, [[0.5] * 4] * 5), kw  # every copy ties
    yield Instance.make([math.inf, 1.0, 2.0], [[0.3, 0.6], [0.5, 0.1], [0.2, 0.9]]), kw
    yield Instance.make([1.0, 1.0, 2.0], [[0.0, 0.6], [0.0, 0.1], [0.0, 0.9]]), kw
    for n in range(1, 7):  # one dataset, more samples than the pairwise block of 8
        yield gen_random(n, 1, 40 + n), dict(steps=3, samples=9 + 5 * n, roundings=4, seed=n)
    yield gen_random(6, 4, 3), dict(steps=10, samples=16, roundings=8, seed=5)
    yield gen_random(12, 5, 7, 1.0, 0.5), dict(steps=20, samples=32, roundings=16, seed=11)


def test_continuous_greedy_screen_changes_nothing(monkeypatch):
    cases = list(_screening_battery())
    screened = [repr(continuous_greedy(inst, **kw)) for inst, kw in cases]
    monkeypatch.setattr(linear_opt, "_copies_that_may_win",
                        lambda bound, marginal, margin: np.arange(marginal.size))
    assert screened == [repr(continuous_greedy(inst, **kw)) for inst, kw in cases]


def test_continuous_greedy_step_marginal_adds_the_samples_in_order():
    # one copy: every sample gains min(2.0, 0.7), and the mean adds them in
    # sample order, where numpy's pairwise sum of one column gives 0.7
    sol = continuous_greedy(Instance.make([2.0], [[0.7]]), steps=3, samples=16, roundings=2)
    total = 0.0
    for _ in range(16):
        total += 0.7
    assert total / 16 != np.full((16, 1), 0.7).mean(axis=0)[0]
    assert sol.diagnostics["step_marginal"] == (total / 16,) * 3


def test_continuous_greedy_reports_each_step():
    inst = gen_random(12, 5, 7, 1.0, 0.5)
    sol = continuous_greedy(inst, steps=20, samples=32, roundings=16, seed=11)
    marginals, spreads = sol.diagnostics["step_marginal"], sol.diagnostics["step_max_std"]
    assert len(marginals) == len(spreads) == 20
    # adding a copy never lowers revenue, and the first step starts from no copy
    assert min(marginals) >= 0.0 and min(spreads) >= 0.0
    assert spreads[0] == 0.0
    assert marginals[0] > 0.0
    assert linear_opt.linear_solution_to_dict(sol) == {
        "prices": list(sol.prices), "assignment": list(sol.partition),
        "revenue": sol.revenue, "method": "cgreedy"}


def test_continuous_greedy_rejects_bad_parameters():
    with pytest.raises(ValueError):
        continuous_greedy(gen_nonsub(EPS), steps=0)


def _edge_instances():
    rng = np.random.default_rng(19)
    values = rng.random((5, 5)).round(2)
    middle, last = values.copy(), values.copy()
    middle[:, 2] = 0.4  # one candidate, between two grid axes
    last[:, 3], last[:, 4] = [0.0, 0.7, 0.0, 0.7, 0.7], 0.0  # one candidate, the last active
    budgets = rng.random(5) * 2
    return [Instance.make(budgets, middle), Instance.make(budgets, last),
            Instance.make(budgets, np.zeros((5, 5))),  # no active dataset
            Instance.make([1.5], values[:1]), Instance.make([0.5], values[:1]),  # one buyer
            # every active dataset has one candidate, so the grid has no axis
            Instance.make([1.0, 2.0], [[0.5, 0.0, 0.3], [0.5, 0.7, 0.0]])]


def _tied_tiles_instance():
    """7 buyers and 6 datasets, a 7^6 grid cut into 7 tiles along axis 0.
    Each dataset's values are a shuffle of one column whose candidates earn
    70, 90, 100, 84, 90, 100 and 51, and no budget binds; every sum is of
    whole numbers, so it is exact, and the maxima tie at candidates 2 and 5
    of every dataset, in tiles 2 and 5."""
    column = np.array([10.0, 15.0, 20.0, 21.0, 30.0, 50.0, 51.0])
    rng = np.random.default_rng(23)
    return Instance.make([1000.0] * 7, np.column_stack([rng.permutation(column)
                                                        for _ in range(6)]))


@pytest.mark.parametrize("inst", [gen_random(n, m, 7000 + k, budget_scale=m / 4)
                                  for k, (n, m) in enumerate([(4, 5), (5, 5), (6, 5), (4, 6),
                                                              (5, 6), (6, 6), (7, 6), (8, 6)])]
                         + _edge_instances()
                         # 9^6: _grid_tiles cuts axis 1 into runs of 4
                         + [gen_random(9, 6, 7008, budget_scale=1.5), _tied_tiles_instance()])
def test_exact_grid_is_the_full_grid_sum(monkeypatch, inst):
    kernel, grids = linear_opt.revenue, []

    def spy(budgets, buyer_desires):
        grids.append(kernel(budgets, buyer_desires))
        return grids[-1]

    monkeypatch.setattr(linear_opt, "revenue", spy)
    sol = exact_bruteforce(inst)
    grid, prices, owners = exact_grid_reference(inst)
    # each tile comes back with its axes reversed; transposed, the tiles run
    # through the grid's flat indices in order
    assert max(np.size(tile) for tile in grids) <= linear_opt.TILE_POINTS
    got = np.concatenate([np.ravel(np.transpose(tile)) for tile in grids]).reshape(np.shape(grid))
    assert got.tobytes() == np.asarray(grid).tobytes()
    assert list(sol.prices) == prices and list(sol.partition) == owners


def test_tied_maxima_fall_in_more_than_one_tile():
    grid, prices, _ = exact_grid_reference(_tied_tiles_instance())
    tiles = linear_opt._grid_tiles(np.shape(grid))
    assert len(tiles) == 7
    assert [k for k, tile in enumerate(tiles) if grid[tile].max() == grid.max()] == [2, 5]
    assert prices == [20.0] * 6


@pytest.mark.parametrize("shape", [[], [5], [8] * 6, [7] * 6, [6] * 6, [3, 40000], [70000],
                                   [2, 3, 70000]])
def test_grid_tiles_cover_the_grid_in_order(shape):
    flat = np.arange(math.prod(shape)).reshape(shape)
    tiles = linear_opt._grid_tiles(shape)
    assert all(flat[tile].size <= linear_opt.TILE_POINTS for tile in tiles)
    assert np.array_equal(np.concatenate([flat[tile].ravel() for tile in tiles]), flat.ravel())
    assert (len(tiles) == 1) == (flat.size <= linear_opt.TILE_POINTS)


def test_exact_dominates_other_methods():
    for k, inst in enumerate(instance_battery(15, seed=55, n_max=3, m_max=3)):
        best = exact_bruteforce(inst).revenue
        assert greedy(inst).revenue <= best + 1e-9
        assert randomized_greedy(inst, k).revenue <= best + 1e-9
        assert continuous_greedy(inst, steps=10, samples=8, roundings=4, seed=k).revenue <= best + 1e-9


def test_randomized_greedy_expected_revenue_near_deterministic():
    # proportional sampling can land below half the optimum on single seeds;
    # the guarantee is about the average, so check the mean across seeds
    for inst in instance_battery(8, seed=66, n_max=3, m_max=3):
        best = exact_bruteforce(inst).revenue
        mean = float(np.mean([randomized_greedy(inst, s).revenue for s in range(60)]))
        assert mean >= 0.5 * best - 0.05 * best


@pytest.mark.parametrize("solve", [greedy, lambda inst: randomized_greedy(inst, 3),
                                   exact_bruteforce])
def test_a_dataset_nobody_values_stays_unpriced(solve):
    # dataset 0 has no positive candidate; dataset 1 has one, buyer 0's value
    sol = solve(Instance.make([5.0, 1.0], [[0.0, 3.0], [0.0, 0.0]]))
    assert sol.prices == (0.0, 3.0)
    assert sol.partition == (None, 0)
    assert sol.revenue == 3.0


def _with_column(inst, j, column):
    return Instance.make(inst.budgets, [row[:j] + (v,) + row[j + 1:]
                                        for row, v in zip(inst.values, column)])


def _reference_cases():
    cases = [gen_random(n, m, seed, budget_scale=b)
             for n, m, seed in ((4, 3, 0), (10, 5, 1), (20, 10, 2), (40, 20, 3), (60, 30, 4))
             for b in (0.25, 1.0, m / 4, 16.0)]
    cases += [gen_greedy_tight(9, 1e-3), gen_greedy_suboptimal(),
              gen_vertex_cover(((0, 1), (1, 2), (2, 3)))]
    base = gen_random(12, 6, 5, budget_scale=2.0)
    cases.append(_with_column(base, 2, [0.0] * base.n))  # nobody values dataset 2
    cases.append(Instance.make((0.0,) + base.budgets[1:], base.values))
    cases.append(Instance.make(base.budgets[:3] + (math.inf,) + base.budgets[4:], base.values))
    return cases


def _greedy_runs(inst):
    orders = [None, list(reversed(range(inst.m)))]
    orders += [random.Random(s).sample(range(inst.m), inst.m) for s in (1, 2)]
    sols = [greedy(inst, order) for order in orders]
    sols += [randomized_greedy(inst, seed) for seed in (0, 7, 41)]
    return [(sol.prices, sol.partition, sol.revenue) for sol in sols]


@pytest.mark.parametrize("inst", _reference_cases())
def test_greedy_matches_the_full_desire_reference(monkeypatch, inst):
    # same prices, partition and revenue in every order; randomized_greedy
    # agreeing at each seed also shows that it consumes the same draws
    got = _greedy_runs(inst)
    monkeypatch.setattr(linear_opt, "_greedy_prices", lambda inst, order, choose: (
        greedy_prices_reference(inst, order, choose), []))
    assert got == _greedy_runs(inst)


@pytest.mark.parametrize("inst", [gen_random(20, 10, 3, budget_scale=2.5),
                                  gen_random(40, 20, 8, budget_scale=0.5),
                                  gen_greedy_tight(9, 1e-3),
                                  _reference_cases()[-3]])
def test_greedy_marginals_add_up_to_the_revenue(inst):
    for order in (None, list(reversed(range(inst.m)))):
        sol = greedy(inst, order)
        marginals = sol.diagnostics["marginals"]
        assert len(marginals) == inst.m and min(marginals) >= 0.0
        assert math.isclose(sum(marginals), sol.revenue, rel_tol=0.0,
                            abs_tol=1e-9 * max(1.0, sol.revenue))
        for j, marginal in zip(order or range(inst.m), marginals):
            if sol.partition[j] is None:
                assert marginal == 0.0


@pytest.mark.parametrize("solve", [greedy, lambda inst: randomized_greedy(inst, 3)])
def test_greedy_memory_is_one_dataset_per_arrival(solve):
    # scoring every candidate on all m datasets at once peaked at 37 MB here
    inst = gen_random(200, 100, 0, budget_scale=4)
    tracemalloc.start()
    try:
        solve(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def _traced_peak(solve):
    tracemalloc.start()
    try:
        solve()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_continuous_greedy_memory_is_the_copies_priced():
    # the dense n x n*m copy matrix and samples x n*m selection peaked at
    # 43.4 MB here; the value index peaks at about 9.2 MB
    inst = gen_random(200, 100, 1, budget_scale=25.0)
    assert _traced_peak(lambda: continuous_greedy(inst, steps=2, samples=32, roundings=8,
                                                  seed=1)) < 12e6


def test_exact_memory_is_the_grid_and_one_tile():
    # summing the 8^6 grid in one call peaked at 6.0 MB; in tiles, at about 2.9 MB
    inst = gen_random(8, 6, 0, budget_scale=1.5)
    assert math.prod(len(c) for c in inst.distinct) == 8**6
    assert _traced_peak(lambda: exact_bruteforce(inst)) < 4e6
