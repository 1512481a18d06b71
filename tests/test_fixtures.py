import itertools
import math

import pytest

from datamarket import lp
from datamarket.fixtures import (
    EXTENSION_FIXED_VALUES,
    appendix_b_check,
    appendix_b_lp,
    gen_ce_se,
    gen_greedy_suboptimal,
    gen_greedy_tight,
    gen_lingap,
    gen_nonsub,
    gen_random,
    gen_sepgap,
    gen_vertex_cover,
)
from datamarket.linear_opt import exact_bruteforce
from datamarket.model import validate_instance
from datamarket.revenue import linear_revenue

ALL_GENERATORS = [
    gen_nonsub(0.001),
    gen_ce_se(4),
    gen_greedy_suboptimal(),
    gen_greedy_tight(4, 0.01),
    gen_lingap(5, 0.01),
    gen_sepgap(4, 3),
    gen_vertex_cover([(0, 1), (1, 2), (0, 2)], eps=0.5),
    gen_random(3, 4, seed=0),
]


@pytest.mark.parametrize("inst", ALL_GENERATORS)
def test_generators_produce_valid_instances(inst):
    assert validate_instance(inst) == []


def test_nonsub_values():
    inst = gen_nonsub(0.001)
    assert linear_revenue(inst, (1.0, 2.0)) == pytest.approx(2.0)
    assert linear_revenue(gen_nonsub(0.5), (0.5, 2.0)) == pytest.approx(1.5)


def test_nonsub_violates_submodularity():
    eps = 0.001
    inst = gen_nonsub(eps)
    high = linear_revenue(inst, (1.0, 2.0)) - linear_revenue(inst, (eps, 2.0))
    low = linear_revenue(inst, (1.0, 1.0)) - linear_revenue(inst, (eps, 1.0))
    assert high > low + 0.5


def test_nonsub_rejects_bad_eps():
    with pytest.raises(ValueError):
        gen_nonsub(0.0)
    with pytest.raises(ValueError):
        gen_nonsub(1.0)


def test_ce_se_revenue():
    # the revenue-optimal single price is either 1.9 (everyone) or 2 (one buyer)
    for n in (1, 2, 4, 25):
        inst = gen_ce_se(n)
        expected = max(1.9 * n, 2.0) if n > 1 else 2.0
        assert exact_bruteforce(inst).revenue == pytest.approx(expected)


def test_greedy_suboptimal_shape():
    inst = gen_greedy_suboptimal()
    assert inst.values[0] == (0.2, 0.2, 0.0)
    assert exact_bruteforce(inst).revenue == pytest.approx(1.3)


def test_greedy_tight_shape():
    n, eps = 9, 1e-3
    inst = gen_greedy_tight(n, eps)
    assert inst.n == n + 1 and inst.m == 2
    assert inst.budgets[-1] == n and inst.values[-1][0] == n


def test_lingap_values():
    n, eps = 5, 0.01
    inst = gen_lingap(n, eps)
    assert exact_bruteforce(inst).revenue == pytest.approx(eps * (n * (1 - eps) + eps))
    assert sum(inst.budgets) == pytest.approx((2 * n - 1) * eps * (1 - eps))


def test_sepgap_shape():
    inst = gen_sepgap(4, 3)
    assert inst.n == 7 and inst.m == 4
    assert all(math.isinf(b) for b in inst.budgets)
    assert inst.values[0][0] == 1.0 and inst.values[0][1] == 0.0
    assert inst.values[4] == (0.25, 0.25, 0.25, 0.25)


def _vc_oracle(inst, big):
    # brute force over {1, B}^m price grids
    best = -math.inf
    for combo in itertools.product([1.0, big], repeat=inst.m):
        best = max(best, linear_revenue(inst, combo))
    return best


@pytest.mark.parametrize(
    "edges,cover_size",
    [
        ([(0, 1), (1, 2), (0, 2)], 2),  # triangle
        ([(0, 1), (1, 2)], 1),          # path through the middle vertex
        ([(0, 1)], 1),                  # single edge
    ],
)
def test_vertex_cover_optimal_revenue(edges, cover_size):
    eps = 0.5
    inst = gen_vertex_cover(edges, eps=eps)
    num_vertices = max(max(e) for e in edges) + 1
    num_edges = len(edges)
    t = inst.n - num_edges
    big = inst.budgets[-1]
    assert eps * t > num_edges + num_vertices
    assert big > (1 + eps) * t
    expected = num_edges * big + t * (num_vertices - cover_size)
    assert exact_bruteforce(inst).revenue == pytest.approx(expected)
    assert _vc_oracle(inst, big) == pytest.approx(expected)


def test_vertex_cover_rejects_bad_edges():
    with pytest.raises(ValueError):
        gen_vertex_cover([], eps=0.5)
    with pytest.raises(ValueError):
        gen_vertex_cover([(1, 1)], eps=0.5)


def test_gen_random_is_reproducible():
    a = gen_random(4, 5, seed=99, value_scale=2.0, budget_scale=0.5)
    b = gen_random(4, 5, seed=99, value_scale=2.0, budget_scale=0.5)
    assert a == b
    assert all(0 < v <= 2.0 for row in a.values for v in row)
    assert all(0 < x <= 0.5 for x in a.budgets)
    assert a != gen_random(4, 5, seed=100, value_scale=2.0, budget_scale=0.5)


def test_extension_fixed_values_match_the_table():
    a1, a2, b1, b2 = 1, 2, 4, 8
    assert EXTENSION_FIXED_VALUES[0] == 0.0
    assert EXTENSION_FIXED_VALUES[b2] == 4.0
    assert EXTENSION_FIXED_VALUES[a2 | b1] == 5.0
    assert EXTENSION_FIXED_VALUES[a1 | b1] == 1.0
    assert len(EXTENSION_FIXED_VALUES) == 9


def test_appendix_b_no_monotone_submodular_extension():
    assert appendix_b_check() is True


def test_appendix_b_relaxed_variant_is_feasible():
    assert appendix_b_check(include_monotonicity=False) is False
    assert lp.check_feasible(appendix_b_lp(include_monotonicity=False))


@pytest.mark.parametrize("make, message", [
    (lambda: gen_ce_se(0), "n must be at least 1"),
    (lambda: gen_greedy_tight(0), "n must be at least 1"),
    (lambda: gen_greedy_tight(3, eps=0.0), "eps must be positive"),
    (lambda: gen_lingap(1), "n must be at least 2"),
    (lambda: gen_lingap(3, eps=1.0), "eps must lie strictly between 0 and 1"),
    (lambda: gen_sepgap(2, 0), "m and k must be at least 1"),
    (lambda: gen_vertex_cover([(0, 1)], eps=0.0), "eps must be positive"),
    (lambda: gen_random(3, 0, 1), "n and m must be at least 1"),
    (lambda: gen_random(3, 3, 1, budget_scale=0.0), "scales must be positive"),
], ids=["cese-n", "tight-n", "tight-eps", "lingap-n", "lingap-eps", "sepgap-k", "vc-eps",
        "random-m", "random-scale"])
def test_generators_name_each_bad_parameter(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message
