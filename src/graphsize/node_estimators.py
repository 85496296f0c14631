"""Size estimators based on node repetitions (the NODE family).

Capture-recapture, unique-element maximum likelihood, and collision-count
estimators, for uniform and weighted independence samples.

Collision-based ratios use the ordered-pair collision count (twice the
unordered count) in the denominator: matching the ordered-pair numerator
sum(w_i)*sum(1/w_j) is what makes the ratio a consistent estimator of N.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (NO_COLLISIONS, EstimateOutcome, EstimatorError,
                   RatioEstimate, _fsum, _inverse_weights, count_collisions)
from .sampling import Sample


# The MLE solvers' relative tolerance, and the size beyond which they give
# up and report no collisions.
_TOLERANCE = 1e-9
_CAP = 1e12


def capture_recapture_from_sample(s: Sample, seed: int) -> EstimateOutcome:
    """Capture-recapture applied to one sample via a seeded random split
    into two halves; duplicates within a half count once."""
    n = len(s)
    if n < 2:
        raise EstimatorError("need at least 2 records to split")
    ranks = s.rank_column[np.random.default_rng(seed).permutation(n)]
    first, second = set(ranks[:n // 2].tolist()), set(ranks[n // 2:].tolist())
    return RatioEstimate(len(first) * len(second),
                         len(first & second)).outcome()


def mle_unique_approx(n: int, n_unique: int) -> EstimateOutcome:
    """Solve n_unique = N * (1 - exp(-n/N)) for N by bisection.

    The left side approaches n from below as N grows, so n_unique == n has
    no finite root and yields the no-collisions outcome.
    """
    _check_unique_args(n, n_unique)
    if n_unique == n:
        return NO_COLLISIONS
    f = lambda N: -N * math.expm1(-n / N) - n_unique
    lo = float(n_unique)
    if f(lo) > 0.0:
        # Root below n_unique cannot occur for valid inputs; guard anyway.
        return EstimateOutcome(lo)
    hi = lo
    while f(hi) < 0.0:
        hi *= 2.0
        if hi > _CAP:
            return NO_COLLISIONS
    while (hi - lo) > _TOLERANCE * hi:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return EstimateOutcome(0.5 * (lo + hi))


def mle_unique_exact(n: int, n_unique: int) -> EstimateOutcome:
    """Smallest integer N >= n_unique where the exact MLE inequality holds.

    The predicate (N+1)/(N+1-n_unique) * (N/(N+1))^n < 1 is evaluated in log
    space and located by exponential doubling plus binary search over its
    eventually-monotone region; validated against a linear scan in tests.
    """
    _check_unique_args(n, n_unique)
    if n_unique == n:
        return NO_COLLISIONS
    pred = lambda N: _exact_mle_log(N, n, n_unique) < 0.0
    hi = max(n_unique, 1)
    while not pred(hi):
        hi *= 2
        if hi > _CAP:
            return NO_COLLISIONS
    lo = max(n_unique, 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return EstimateOutcome(float(lo))


def _exact_mle_log(N: int, n: int, n_unique: int) -> float:
    if N + 1 - n_unique <= 0:
        return math.inf
    # log((N+1)/(N+1-n_unique)) + n*log(N/(N+1)), without the cancellation
    # of log(N) - log(N+1) at large N.
    return (math.log1p(n_unique / (N + 1 - n_unique))
            - n * math.log1p(1 / N))


def _check_unique_args(n: int, n_unique: int) -> None:
    if n_unique < 1 or n < 1:
        raise EstimatorError("need n >= 1 and n_unique >= 1")
    if n_unique > n:
        raise EstimatorError("n_unique cannot exceed n")


def node_uis_ratio(s: Sample) -> RatioEstimate:
    """Collision-count estimator for uniform samples: n^2 over the
    ordered-pair collision count."""
    n = len(s)
    return RatioEstimate(float(n * n), float(2 * count_collisions(s)))


def node_wis_ratio(s: Sample) -> RatioEstimate:
    """Weight-corrected collision-count estimator: sum(w) * sum(1/w) over
    the ordered-pair collision count.

    With unit weights this equals :func:`node_uis_ratio` exactly.  The value
    is invariant under rescaling all weights by a constant.
    """
    weights = s.weight_column
    num = _fsum(weights) * _fsum(_inverse_weights(weights))
    return RatioEstimate(num, float(2 * count_collisions(s)))
