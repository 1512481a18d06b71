"""Reference kernels that measure how fast the host runs right now.

The host's speed moves by up to 1.8x over stretches of seconds to tens of
seconds while nothing in this process changes: other tenants share its
cores.  Interpreted Python slows the most and dense numpy on arrays larger
than the L2 cache the least.  So two fixed kernels are timed between every
two jobs: ``python_kernel`` (generator sums over tuples, as the library's
revenue loops are written) and ``numpy_kernel`` (a rank-1 update of a
150x1800 array, as one simplex pivot at 60x30).  Neither calls the library,
so a change to the program leaves them alone.

A job's calibrated time is its wall time times
``(PY_REF / py) ** w * (NP_REF / np) ** (1 - w)``, with ``py`` and ``np``
the kernels' times around the job: the time it would have taken with the
kernels at their reference times.  ``w`` is the workload's weight on the
Python kernel, chosen from which kernel tracked the workload's jobs best:
over 90 s of the host's phases, dividing single samples by the matching
kernel cut their quartile spread from 0.2-0.6 to 0.05-0.16.  Revisit a
weight when a change moves a workload's hot path between Python and numpy.
``PY_REF`` and ``NP_REF`` are the kernels' fastest times on the reference
host (2-core Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6).
"""

from __future__ import annotations

import time

import numpy as np

PY_REF = 1.0e-3
NP_REF = 2.0e-3

#: Weight of the Python kernel per workload: the simplex is weighted per
#: job in ``jobs.plc_ladder``; greedy is Python while continuous greedy and
#: exact are numpy; clearing is Python; interpreter start-up and import
#: track the numpy kernel.
PYTHON_WEIGHT = {"plc_ladder": 0.0, "linear_ladder": 0.5, "posted_clearing": 1.0,
                 "cli_roundtrip": 0.0}

_ROWS = tuple(tuple(float((i * 7 + j) % 15) for j in range(15)) for i in range(30))
_PRICES = tuple(float(j) for j in range(15))
_T = np.random.default_rng(0).random((150, 1800))


def python_kernel() -> float:
    total = 0.0
    for _ in range(24):
        for row in _ROWS:
            total += min(5.0, sum(p for v, p in zip(row, _PRICES) if v >= p - 1e-9))
    return total


def numpy_kernel() -> float:
    return float((_T - np.outer(_T[:, 0], _T[1])).sum())


def _timed(fn) -> float:
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


def speed() -> tuple[float, float]:
    """(python kernel s, numpy kernel s), each the better of two runs."""
    return (min(_timed(python_kernel), _timed(python_kernel)),
            min(_timed(numpy_kernel), _timed(numpy_kernel)))


def factor(py: float, nz: float, weight: float) -> float:
    """Multiplier from wall time to calibrated time, given the kernels'
    times around a job and the weight of the Python kernel."""
    return (PY_REF / py) ** weight * (NP_REF / nz) ** (1.0 - weight)
