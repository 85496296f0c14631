"""Shared counting primitives and linear-time accumulators.

Every estimator in this package reduces to a numerator/denominator pair
(:class:`RatioEstimate`) so that per-subsample parts can be aggregated and a
zero denominator can signal the "no collisions observed" outcome uniformly.

All pairwise sums are computed via per-node multiplicity counts or closed
forms, never via O(n^2) loops; brute-force versions exist only in the test
suite as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .sampling import Sample

MODE_SET = "set"
MODE_MULTISET = "multiset"
A_MODES = (MODE_SET, MODE_MULTISET)


class EstimatorError(Exception):
    """Invalid estimator input (non-positive weight, empty sample, ...)."""


@dataclass(frozen=True)
class EstimateOutcome:
    """A finite size estimate, or the no-collisions (infinite) sentinel."""

    value: float | None = None

    @property
    def finite(self) -> bool:
        return self.value is not None

    def outcome(self) -> EstimateOutcome:
        """Itself, so that either result kind answers ``outcome()``."""
        return self

    def __repr__(self) -> str:
        if self.value is None:
            return "EstimateOutcome(no collisions)"
        return f"EstimateOutcome({self.value!r})"


NO_COLLISIONS = EstimateOutcome(None)


@dataclass(frozen=True)
class RatioEstimate:
    """Numerator/denominator pair, plus a constant offset (the density
    route's +1); denominator zero means no usable collisions."""

    numerator: float
    denominator: float
    offset: float = 0.0

    def outcome(self) -> EstimateOutcome:
        if self.denominator <= 0.0:
            return NO_COLLISIONS
        return EstimateOutcome(self.numerator / self.denominator + self.offset)


def _check_mode(mode: str) -> None:
    if mode not in A_MODES:
        raise EstimatorError(f"unknown auxiliary mode: {mode!r}")


def count_collisions(s: Sample) -> int:
    """Number of unordered pairs of identical samples."""
    counts = np.bincount(s.rank_column)
    return int((counts * (counts - 1)).sum()) // 2


def count_unique(s: Sample) -> int:
    """Number of distinct nodes in the sample."""
    return int(np.count_nonzero(np.bincount(s.rank_column)))


def count_induced_edges(s: Sample) -> int:
    """Number of sample pairs whose nodes form an edge.

    Repeated occurrences of a node count separately.  Adjacency is resolved
    from the sampled nodes' neighbor snapshots.
    """
    counts = np.bincount(s.rank_column, minlength=len(s.ids))
    hits = _row_sums(s, counts[s.entries]).astype(np.int64)
    # Each unordered edge pair was counted once from each side.
    return int((counts[:len(hits)] * hits).sum()) // 2


def _row_sums(s: Sample, values: np.ndarray) -> np.ndarray:
    """For each snapshot row of ``s``, the sum of ``values`` over its
    entries, added in entry order (float64)."""
    rows = len(s.offsets) - 1
    return np.bincount(np.repeat(np.arange(rows), np.diff(s.offsets)),
                       weights=values, minlength=rows)


def _auxiliary_counts(s: Sample, mode: str) -> np.ndarray:
    """Each rank's multiplicity in the union of the positions' neighbor
    snapshots, taken as a set or a multiset."""
    _check_mode(mode)
    occurrences = np.bincount(s.rank_column, minlength=len(s.offsets) - 1)
    counts = np.bincount(s.entries, np.repeat(occurrences, np.diff(s.offsets)),
                         minlength=len(s.ids)).astype(np.int64)
    return np.minimum(counts, 1) if mode == MODE_SET else counts


_FSUM_STEPS_FROM = 700  # math.fsum is faster below (break-even 700-800 terms)


def _fsum(values: np.ndarray) -> float:
    """The correctly rounded sum of a 1-D array: the same float as
    ``math.fsum(values.tolist())``, at the cost of a few whole-array steps.

    Error-free vector extraction (Rump, Ogita and Oishi, "Accurate
    floating-point summation part I", SIAM J. Sci. Comput. 31(1), 2008):
    with 2^m >= 2n and sigma the power of two at or above 2^m * max|p|,
    q = (sigma + p) - sigma is p rounded to a multiple of 2^-53 * sigma, and
    every partial sum of q is such a multiple below sigma / 2, so ``q.sum()``
    is exact in any order and p - q is the exact remainder.  Steps repeat
    on the remainder until it is zero; math.fsum of their exact sums is the
    total.  Each step clears about 53 - m binades of the terms' exponent
    range, so the step count grows with that range: two steps for inverse
    degrees, about twenty for terms spread over 1e-100..1e100.  math.fsum
    of the whole input answers instead where it is faster, below
    ``_FSUM_STEPS_FROM`` terms, or where the steps are not exact or not
    needed: an all-zero array (the sign of zero), a value that is not
    finite, a maximum at or above 2^(1000 - m) (sigma would overflow, and
    math.fsum may raise), or a step whose maximum falls below 2^-900 (its
    grid would be subnormal).
    """
    p = values.astype(np.float64)
    if len(p) < _FSUM_STEPS_FROM:
        return math.fsum(memoryview(p))
    m = (2 * len(p)).bit_length()
    huge = math.ldexp(1.0, 1000 - m)
    q = np.empty_like(p)
    top = float(np.abs(p, out=q).max(initial=0.0))
    parts = []
    while 2.0 ** -900 <= top < huge:
        sigma = math.ldexp(1.0, math.frexp(top)[1] + m)
        np.add(p, sigma, out=q)
        q -= sigma
        p -= q
        parts.append(q.sum())
        top = float(np.abs(p, out=q).max())
    if top == 0.0 and parts:
        return math.fsum(parts)
    return math.fsum(memoryview(values.astype(np.float64)))


def _inverse_pair_sum(inv: np.ndarray, s1: float) -> float:
    """Sum of 1/(w_i * w_j) over unordered pairs, from checked inverse
    weights and their exact sum ``s1``, via the closed form
    0.5 * ((sum 1/w)^2 - sum 1/w^2).  Reciprocal sums are exact (correctly
    rounded) sums because the terms can be heavy-tailed.

    The closed form's relative error is a few ulps times
    s1^2 / (s1^2 - sum 1/w^2); where that ratio passes 2^10 (one inverse
    weight carries almost all of s1) or a square leaves the float range,
    the sum is taken exactly in integers and rounded once instead.  Route
    A, the one caller, lets squares overflow silently (``np.errstate``).
    """
    square = s1 * s1
    difference = square - _fsum(inv * inv)
    if math.isfinite(square) and square <= 1024.0 * difference:
        return 0.5 * difference
    if not math.isfinite(s1):  # an infinite inverse weight
        return math.inf
    # Each inverse weight is an integer times 2^low.
    mantissas, exponents = np.frexp(inv)
    low = int(exponents.min()) - 53
    whole = (np.ldexp(mantissas, 53).astype(np.int64).astype(object)
             << (exponents - 53 - low).astype(object))
    total = int(whole.sum())
    pairs = (total * total - int((whole * whole).sum())) // 2
    scale = 1 << abs(2 * low)
    try:  # int to float and int / int round once
        return float(pairs * scale) if low >= 0 else pairs / scale
    except OverflowError:
        return math.inf


def _check_weights(weights: np.ndarray) -> None:
    if not (weights > 0.0).all():
        raise EstimatorError("weights must be positive")


def _inverse_weights(weights: np.ndarray) -> np.ndarray:
    _check_weights(weights)
    return 1.0 / weights


def aggregate_ratios(parts: Sequence[RatioEstimate]) -> EstimateOutcome:
    """Sum of numerators over sum of denominators across subsample parts,
    plus the parts' offset (they come from one estimator).

    Robust where a per-part mean would be infinite: parts with a zero
    denominator still contribute their numerator.
    """
    if not parts:
        raise EstimatorError("no ratio parts to aggregate")
    num = math.fsum(p.numerator for p in parts)
    den = math.fsum(p.denominator for p in parts)
    return RatioEstimate(num, den, parts[0].offset).outcome()
