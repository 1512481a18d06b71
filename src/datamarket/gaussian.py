"""Monte Carlo validation of the Gaussian learning model behind buyer values.

A buyer estimating a latent Gaussian parameter gains posterior precision
linearly in the number of records bought: each record from dataset ``j`` is
an independent noisy signal with precision ``tau_j``, so ``x_j`` records add
``tau_j * x_j`` to the posterior precision regardless of the prior.  This
module computes that closed form and checks it against simulated posterior
mean-squared error.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GaussianTask:
    """One buyer's estimation task: prior, per-dataset signal precisions, and
    how many records are bought from each dataset."""

    prior_precision: float
    prior_mean: float
    signal_precisions: tuple[float, ...]
    record_counts: tuple[int, ...]

    def __post_init__(self):
        if not (self.prior_precision > 0 and math.isfinite(self.prior_precision)):
            raise ValueError("prior precision must be positive and finite")
        if not math.isfinite(self.prior_mean):
            raise ValueError("prior mean must be finite")
        if len(self.signal_precisions) != len(self.record_counts):
            raise ValueError("signal precisions and record counts must have equal length")
        for tau in self.signal_precisions:
            if not (tau > 0 and math.isfinite(tau)):
                raise ValueError("signal precisions must be positive and finite")
        for x in self.record_counts:
            if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or x < 0:
                raise ValueError("record counts must be non-negative integers")
            if x > sys.float_info.max:  # tau * x could not convert it
                raise ValueError("record counts must be at most the largest float")
        if not math.isfinite(self.prior_precision + theoretical_gain(self)):
            raise ValueError("total precision (prior plus records) must be finite")


def theoretical_gain(task: GaussianTask) -> float:
    """Expected posterior-precision gain: sum of tau_j * x_j."""
    return sum(tau * x for tau, x in zip(task.signal_precisions, task.record_counts))


def expected_posterior_variance(task: GaussianTask) -> float:
    return 1.0 / (task.prior_precision + theoretical_gain(task))


def simulate_posterior_mse(task: GaussianTask, trials: int, seed: int) -> tuple[float, float]:
    """Simulate the posterior-mean squared error over ``trials`` draws.

    Per trial: draw the latent parameter from the prior, draw every record's
    signal, form the precision-weighted Bayes posterior mean, and accumulate
    its squared error.  The error does not depend on the prior mean, so the
    parameter, the signals and the posterior mean are all drawn and formed
    as offsets from it: a large prior mean would otherwise round the noise
    away, and the result is that of a prior mean of 0, bit for bit.
    Returns ``(empirical_mse, expected_variance)``; deterministic for a
    fixed seed.  Raises ValueError when a draw or the MSE overflows, as it
    can for a precision near the smallest or the largest float.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    tau0 = task.prior_precision
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows in the MSE
        theta = rng.standard_normal(trials) / math.sqrt(tau0)
        weighted_signal_sum = np.zeros(trials)
        for tau, count in zip(task.signal_precisions, task.record_counts):
            # no records: a (trials, 0) draw takes no random numbers and adds 0.0
            noise = rng.standard_normal((trials, count)) / math.sqrt(tau)
            weighted_signal_sum += tau * (theta[:, None] + noise).sum(axis=1)
        total_precision = tau0 + theoretical_gain(task)
        posterior_mean = weighted_signal_sum / total_precision
        empirical_mse = float(np.mean((posterior_mean - theta) ** 2))
    if not math.isfinite(empirical_mse):
        raise ValueError(f"the simulated MSE is {empirical_mse}: the draws overflow")
    return empirical_mse, 1.0 / total_precision


def mse_z_score(task: GaussianTask, empirical_mse: float, trials: int) -> float:
    """Standardized deviation of the empirical MSE from its expectation.

    The squared error of the posterior mean is ``variance * chi^2(1)`` per
    trial, so the MSE estimator has standard error ``variance * sqrt(2 /
    trials)``.
    """
    v = expected_posterior_variance(task)
    return (empirical_mse - v) / (v * math.sqrt(2.0 / trials))
