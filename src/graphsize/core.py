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
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

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


@dataclass(frozen=True)
class AuxiliarySet:
    """Node (multi)set used by the cross-collision estimators.

    ``counts`` maps node key to multiplicity (always 1 in set mode);
    ``cardinality`` is the multiset size, or the number of distinct nodes.
    """

    counts: dict[int, int]
    mode: str
    cardinality: int


def count_collisions(s: Sample) -> int:
    """Number of unordered pairs of identical samples."""
    return sum(c * (c - 1) // 2 for c in Counter(s.node_at).values())


def count_unique(s: Sample) -> int:
    """Number of distinct nodes in the sample."""
    return len(s.snapshots)


def count_induced_edges(s: Sample) -> int:
    """Number of sample pairs whose nodes form an edge.

    Repeated occurrences of a node count separately.  Adjacency is resolved
    from the sampled nodes' neighbor snapshots.
    """
    counts = Counter(s.node_at)
    ordered = 0
    for v, cv in counts.items():
        hits = 0
        for u in s.snapshots[v]:
            hits += counts.get(u, 0)
        ordered += cv * hits
    # Each unordered edge pair was counted once from each side.
    return ordered // 2


def build_auxiliary(s: Sample, mode: str = MODE_SET) -> AuxiliarySet:
    """Union of the positions' neighbor snapshots, as a set or multiset."""
    if mode not in A_MODES:
        raise EstimatorError(f"unknown auxiliary mode: {mode!r}")
    if mode == MODE_SET:
        union = dict.fromkeys(chain.from_iterable(s.snapshots.values()), 1)
        return AuxiliarySet(union, mode, len(union))
    counts: Counter = Counter()
    for v in s.node_at:
        counts.update(s.snapshots[v])
    return AuxiliarySet(dict(counts), mode, sum(counts.values()))


def count_cross_collisions(s: Sample, a: AuxiliarySet) -> int:
    """Matches between sample entries and auxiliary elements (with multiplicity)."""
    return sum(a.counts.get(v, 0) for v in s.node_at)


def pairwise_inverse_weight_sum(weights: Sequence[float]) -> float:
    """Sum of 1/(w_i * w_j) over unordered pairs, via the closed form.

    Equals 0.5 * ((sum 1/w)^2 - sum 1/w^2); reciprocal sums use compensated
    summation because the terms can be heavy-tailed.
    """
    return _inverse_pair_sum(_inverse_weights(weights))


def _inverse_pair_sum(inv: list[float]) -> float:
    """pairwise_inverse_weight_sum from checked inverse weights."""
    s1 = math.fsum(inv)
    s2 = math.fsum(x * x for x in inv)
    return 0.5 * (s1 * s1 - s2)


def _inverse_weights(weights: Iterable[float]) -> list[float]:
    inv = []
    for w in weights:
        if not w > 0.0:
            raise EstimatorError("weights must be positive")
        inv.append(1.0 / w)
    return inv


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


def aggregate_mean(values: Sequence[EstimateOutcome]) -> EstimateOutcome:
    """Arithmetic mean of outcomes; any infinite member poisons the mean."""
    if not values:
        raise EstimatorError("no outcomes to aggregate")
    if any(not v.finite for v in values):
        return NO_COLLISIONS
    return EstimateOutcome(math.fsum(v.value for v in values) / len(values))
