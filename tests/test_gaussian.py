import math

import numpy as np
import pytest

from datamarket.gaussian import (
    GaussianTask,
    expected_posterior_variance,
    mse_z_score,
    simulate_posterior_mse,
    theoretical_gain,
)


def test_gain_zero_records():
    task = GaussianTask(2.0, 0.0, (1.0, 3.0), (0, 0))
    assert theoretical_gain(task) == 0.0


def test_gain_direct_sum():
    task = GaussianTask(1.0, 0.0, (2.0, 3.0), (1, 2))
    assert theoretical_gain(task) == pytest.approx(8.0)


def test_gain_is_linear_in_counts():
    base = GaussianTask(1.0, 0.5, (2.0, 3.0), (1, 2))
    doubled = GaussianTask(1.0, 0.5, (2.0, 3.0), (2, 4))
    assert theoretical_gain(doubled) == pytest.approx(2 * theoretical_gain(base))


def test_task_validation():
    with pytest.raises(ValueError):
        GaussianTask(0.0, 0.0, (1.0,), (1,))
    with pytest.raises(ValueError):
        GaussianTask(1.0, 0.0, (-1.0,), (1,))
    with pytest.raises(ValueError):
        GaussianTask(1.0, 0.0, (1.0,), (-1,))
    with pytest.raises(ValueError):
        GaussianTask(1.0, 0.0, (1.0, 2.0), (1,))


@pytest.mark.parametrize("count", [math.inf, math.nan, 2.0, -1, True])
def test_task_accepts_only_non_negative_integer_record_counts(count):
    with pytest.raises(ValueError, match="record counts must be non-negative integers"):
        GaussianTask(1.0, 0.0, (1.0, 1.0), (3, count))


@pytest.mark.parametrize("count", [10**400, 2**1024], ids=["1e400", "2**1024"])
def test_task_rejects_a_record_count_too_large_for_a_float(count):
    with pytest.raises(ValueError, match="record counts must be at most the largest float"):
        GaussianTask(1.0, 0.0, (1.0, 1.0), (3, count))


def test_task_accepts_numpy_integer_record_counts():
    task = GaussianTask(1.0, 0.0, (1.0,), (np.int64(3),))
    assert simulate_posterior_mse(task, 10, seed=0) == simulate_posterior_mse(
        GaussianTask(1.0, 0.0, (1.0,), (3,)), 10, seed=0)


@pytest.mark.parametrize("prior_mean", [math.nan, math.inf, -math.inf])
def test_task_rejects_a_non_finite_prior_mean(prior_mean):
    with pytest.raises(ValueError, match="prior mean must be finite"):
        GaussianTask(1.0, prior_mean, (1.0,), (2,))


def test_task_rejects_a_total_precision_that_overflows():
    with pytest.raises(ValueError, match="total precision"):
        GaussianTask(1.0, 0.0, (1e308,), (2,))


@pytest.mark.parametrize("task", [
    GaussianTask(1e-320, 0.0, (1e-310,), (2,)),  # the records' noise, about 1e155, squared
    GaussianTask(1e-320, 0.0, (1.0,), (0,)),  # the prior draws' squares overflow
])
def test_a_simulation_that_overflows_raises(task):
    with pytest.raises(ValueError, match="MSE is inf"):
        simulate_posterior_mse(task, 10, seed=0)


@pytest.mark.parametrize("prior_mean", [1e300, -1e300, 1e308, 0.5])
def test_the_prior_mean_leaves_the_simulation_as_it_is(prior_mean):
    # at 1e300 the draws around the mean would round unit noise away
    at_zero = simulate_posterior_mse(GaussianTask(1.0, 0.0, (1.0,), (2,)), 1000, seed=5)
    assert simulate_posterior_mse(GaussianTask(1.0, prior_mean, (1.0,), (2,)), 1000,
                                  seed=5) == at_zero
    assert at_zero[0] > 0.0


def test_expected_variance_quarter():
    task = GaussianTask(1.0, 0.0, (1.0,), (3,))
    assert expected_posterior_variance(task) == pytest.approx(0.25)


def test_precision_identity():
    task = GaussianTask(1.5, -0.3, (2.0, 0.7), (4, 2))
    v = expected_posterior_variance(task)
    assert v == 1.0 / (task.prior_precision + theoretical_gain(task))
    assert 1.0 / v - task.prior_precision == pytest.approx(theoretical_gain(task), abs=1e-9)


def test_prior_only_mse():
    task = GaussianTask(2.0, 1.0, (1.0,), (0,))
    mse, variance = simulate_posterior_mse(task, 100_000, seed=1)
    assert variance == pytest.approx(0.5)
    assert abs(mse_z_score(task, mse, 100_000)) <= 5.0


def test_simulated_mse_matches_formula():
    task = GaussianTask(1.0, 0.0, (1.0,), (3,))
    mse, variance = simulate_posterior_mse(task, 100_000, seed=2)
    assert variance == pytest.approx(0.25)
    assert abs(mse_z_score(task, mse, 100_000)) <= 5.0


def test_mse_converges_with_more_trials():
    task = GaussianTask(0.8, 0.2, (1.5, 2.5), (2, 1))
    v = expected_posterior_variance(task)
    small, _ = simulate_posterior_mse(task, 10_000, seed=3)
    large, _ = simulate_posterior_mse(task, 100_000, seed=3)
    assert abs(large - v) <= abs(small - v) + v * math.sqrt(2.0 / 10_000)


def test_simulation_is_seed_deterministic():
    task = GaussianTask(1.0, 0.0, (2.0,), (5,))
    assert simulate_posterior_mse(task, 5000, seed=9) == simulate_posterior_mse(task, 5000, seed=9)
    with pytest.raises(ValueError):
        simulate_posterior_mse(task, 0, seed=9)
