"""Dependence reduction for random-walk samples.

Three families: thinning (keep every theta-th sample, optionally keeping all
theta shifted subsamples and aggregating their ratio parts), margin filtering
(drop estimator contributions from sample pairs fewer than m steps apart),
and the multi-walker variant (keep only cross-walker pairs).

All margin sums run over ordered pairs (i, j), i != j.  They are computed as
full-pair totals minus within-window totals.  The m-independent inputs come
from the sample's cached :class:`~graphsize.sampling.MarginIndex`, built
once with one sort of the snapshot entries; each margin m then costs an
inverse-weight prefix-sum window and two binary searches per position, so a
sweep over many m pays for the index once.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from .core import (A_MODES, MODE_MULTISET, MODE_SET, NO_COLLISIONS,
                   EstimateOutcome, EstimatorError, RatioEstimate,
                   _inverse_weights, aggregate_ratios)
from .ind_estimators import indb_auto_ratio
from .node_estimators import node_wis_ratio
from .sampling import MarginIndex, Sample, reindexed

BASE_NODE_WIS = "node-wis"
BASE_IND_B = "ind-b"


@dataclass(frozen=True)
class ThinningConfig:
    theta: int

    def __post_init__(self):
        if self.theta < 1:
            raise ValueError("theta must be >= 1")


@dataclass(frozen=True)
class MarginConfig:
    m: int = 0

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("margin must be >= 0")


def thin_simple(s: Sample, cfg: ThinningConfig) -> Sample:
    """Keep every theta-th record, starting from the first."""
    return reindexed(s, s.records[::cfg.theta], f"thin:theta={cfg.theta}")


def thin_shifted(s: Sample, cfg: ThinningConfig) -> list[Sample]:
    """All theta shifted subsamples; their concatenation permutes the input."""
    return [reindexed(s, s.records[k::cfg.theta],
                      f"thin-shifted:theta={cfg.theta},k={k}")
            for k in range(cfg.theta)]


def _base_ratio(s: Sample, base: str, a_mode: str = MODE_SET) -> RatioEstimate:
    if base == BASE_NODE_WIS:
        return node_wis_ratio(s)
    if base == BASE_IND_B:
        return indb_auto_ratio(s, a_mode)
    raise EstimatorError(f"unsupported thinning base estimator: {base!r}")


def estimate_thinned(s: Sample, cfg: ThinningConfig, base: str,
                     shifted: bool = False,
                     a_mode: str = MODE_SET) -> EstimateOutcome:
    """Base estimator on a thinned sample.

    Simple mode evaluates the base estimator on the single kept subsample.
    Shifted mode aggregates the per-subsample numerators and denominators,
    which stays finite even when some subsamples have no collisions.
    """
    if shifted:
        parts = [_base_ratio(sub, base, a_mode) for sub in thin_shifted(s, cfg)]
        return aggregate_ratios(parts)
    return _base_ratio(thin_simple(s, cfg), base, a_mode).outcome()


# -- margin filtering ------------------------------------------------------


def _margin_columns(s: Sample) -> tuple[MarginIndex, np.ndarray]:
    """The sample's margin index and inverse weights, weights checked."""
    index = s.margin_index
    if not (index.weights > 0).all():
        raise EstimatorError("weights must be positive")
    return index, 1.0 / index.weights


def _far_pair_sum(values: np.ndarray, inv: np.ndarray, m: int) -> float:
    """Sum of values_i * inv_j over ordered pairs more than m positions apart.

    The full product of totals minus, for each i, values_i times the
    prefix-sum window of inv over [i-m, i+m].
    """
    n = len(inv)
    prefix = np.concatenate(([0.0], np.cumsum(inv)))
    i = np.arange(n)
    window = prefix[np.minimum(i + m + 1, n)] - prefix[np.maximum(i - m, 0)]
    return (math.fsum(values.tolist()) * math.fsum(inv.tolist())
            - math.fsum((values * window).tolist()))


def node_margin_ratio(s: Sample, m: int) -> RatioEstimate:
    """Ordered-pair ratio sum(w_i/w_j) over sum(1{s_i=s_j}), pairs > m apart."""
    n = len(s)
    if m >= n - 1:
        return RatioEstimate(0.0, 0.0)
    index, inv = _margin_columns(s)
    return RatioEstimate(_far_pair_sum(index.weights, inv, m),
                         float(index.far_repeats(m).sum()))


def node_margin(s: Sample, cfg: MarginConfig | int) -> EstimateOutcome:
    """Margin-filtered collision estimator for a single-walk sample."""
    m = cfg if isinstance(cfg, int) else cfg.m
    return node_margin_ratio(s, m).outcome()


def ind_margin_ratio(s: Sample, m: int, a_mode: str = MODE_MULTISET) -> RatioEstimate:
    """Margin-filtered cross-collision ratio.

    Multiset mode is the direct pair form: sum(deg(s_i)/w(s_j)) over
    sum(1{s_i in N(s_j)}/w(s_i)), both restricted to |j-i| > m.

    Set mode deduplicates the auxiliary side: the numerator counts, for each
    j, the distinct neighbor nodes contributed by qualifying positions i
    (|i-j| > m); the denominator counts a collision for position i at most
    once, when s_i appears in the neighbor snapshot of any qualifying j.
    This counting rule is an artifact convention, held fixed by golden tests
    and documented in the README.
    """
    n = len(s)
    if m >= n - 1:
        return RatioEstimate(0.0, 0.0)
    if a_mode not in A_MODES:
        raise EstimatorError(f"unknown auxiliary mode: {a_mode!r}")
    index, inv = _margin_columns(s)
    if a_mode == MODE_MULTISET:
        return RatioEstimate(_far_pair_sum(index.degrees, inv, m),
                             math.fsum((inv * index.far_mentions(m)).tolist()))

    first, last = index.snapshot_first, index.snapshot_last
    carried = index.snapshot_counts > 0
    # A neighbor node is invisible from position j iff all positions carrying
    # it fall inside [j-m, j+m]; that happens exactly for j in an interval.
    lo_j = np.maximum(last[carried] - m, 0)
    hi_j = np.minimum(first[carried] + m, n - 1)
    hidden = lo_j <= hi_j
    missing = np.cumsum(np.bincount(lo_j[hidden], minlength=n + 1)
                        - np.bincount(hi_j[hidden] + 1, minlength=n + 1))[:n]
    num = math.fsum((inv * (np.count_nonzero(carried) - missing)).tolist())
    i = np.arange(n)
    r = index.node_ranks
    seen = (first[r] < i - m) | (last[r] > i + m)
    return RatioEstimate(num, math.fsum(inv[seen].tolist()))


def ind_margin(s: Sample, cfg: MarginConfig | int,
               a_mode: str = MODE_MULTISET) -> EstimateOutcome:
    """Margin-filtered induced-edge estimator for a single-walk sample."""
    m = cfg if isinstance(cfg, int) else cfg.m
    return ind_margin_ratio(s, m, a_mode).outcome()


# -- cross-walker filtering ------------------------------------------------


def margin_crosswalker(s: Sample, base: str,
                       a_mode: str = MODE_MULTISET) -> EstimateOutcome:
    """Margin variant for multi-walker samples: keep only cross-walker pairs.

    No explicit margin parameter; a single-walker sample has no surviving
    pairs and yields the no-collisions outcome.
    """
    walkers = s.walkers()
    if len(set(walkers)) < 2:
        return NO_COLLISIONS
    if base == "node":
        return _crosswalker_node_ratio(s).outcome()
    if base == "ind":
        return _crosswalker_ind_ratio(s, a_mode).outcome()
    raise EstimatorError(f"unsupported cross-walker base: {base!r}")


def _per_walker_sums(values: list[float], walkers: list[int]) -> dict[int, float]:
    acc: dict[int, float] = defaultdict(float)
    for v, k in zip(values, walkers):
        acc[k] += v
    return acc


def _crosswalker_node_ratio(s: Sample) -> RatioEstimate:
    weights = s.weights()
    inv = _inverse_weights(weights)
    walkers = s.walkers()
    w_by = _per_walker_sums(weights, walkers)
    inv_by = _per_walker_sums(inv, walkers)
    num = (math.fsum(weights) * math.fsum(inv)
           - math.fsum(w_by[k] * inv_by[k] for k in w_by))
    counts = Counter(s.nodes())
    counts_by = Counter(zip(s.nodes(), walkers))
    den = (sum(c * c for c in counts.values())
           - sum(c * c for c in counts_by.values()))
    return RatioEstimate(num, float(den))


def _crosswalker_ind_ratio(s: Sample, a_mode: str) -> RatioEstimate:
    inv = _inverse_weights(s.weights())
    walkers = s.walkers()
    nodes = s.nodes()
    if a_mode == MODE_MULTISET:
        degrees = [float(d) for d in s.degrees()]
        deg_by = _per_walker_sums(degrees, walkers)
        inv_by = _per_walker_sums(inv, walkers)
        num = (math.fsum(degrees) * math.fsum(inv)
               - math.fsum(deg_by[k] * inv_by[k] for k in deg_by))
        sampled = set(nodes)
        cnt: Counter = Counter()
        cnt_by: Counter = Counter()
        for j, r in enumerate(s.records):
            for a in r.neighbors:
                if a in sampled:
                    cnt[a] += 1
                    cnt_by[a, walkers[j]] += 1
        den = math.fsum(iw * (cnt.get(v, 0) - cnt_by.get((v, k), 0))
                        for v, k, iw in zip(nodes, walkers, inv))
        return RatioEstimate(num, den)

    if a_mode != MODE_SET:
        raise EstimatorError(f"unknown auxiliary mode: {a_mode!r}")
    walker_sets: dict[int, set[int]] = defaultdict(set)
    for j, r in enumerate(s.records):
        for a in r.neighbors:
            walker_sets[a].add(walkers[j])
    a_size = len(walker_sets)
    solo: Counter = Counter()
    for ws in walker_sets.values():
        if len(ws) == 1:
            solo[next(iter(ws))] += 1
    num = math.fsum(iw * (a_size - solo.get(k, 0))
                    for k, iw in zip(walkers, inv))
    den = math.fsum(iw for v, k, iw in zip(nodes, walkers, inv)
                    if v in walker_sets and walker_sets[v] - {k})
    return RatioEstimate(num, den)


# -- surviving pair accounting ---------------------------------------------


def surviving_pair_count(n: int, cfg: ThinningConfig | MarginConfig,
                         shifted: bool = False) -> int:
    """Exact count of ordered pairs a correction leaves usable."""
    if isinstance(cfg, ThinningConfig):
        theta = cfg.theta
        if shifted:
            lengths = [len(range(k, n, theta)) for k in range(theta)]
            return sum(length * (length - 1) for length in lengths)
        length = -(-n // theta)
        return length * (length - 1)
    if isinstance(cfg, MarginConfig):
        m = min(cfg.m, max(n - 1, 0))
        return n * (n - 1) - 2 * (m * n - m * (m + 1) // 2)
    raise EstimatorError(f"unsupported correction config: {cfg!r}")
