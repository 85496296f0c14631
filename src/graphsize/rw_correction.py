"""Dependence reduction for random-walk samples.

Three families: thinning (keep every theta-th sample, optionally keeping all
theta shifted subsamples and aggregating their ratio parts), margin filtering
(drop estimator contributions from sample pairs at most m steps apart),
and the multi-walker variant (keep only cross-walker pairs).

Margin and cross-walker filtering are one pair filter: each position i
excludes a window [lo_i, hi_i) of positions, the positions within m steps
for a margin, the positions of its own walker for cross-walker filtering.
All their sums run over ordered pairs (i, j), i != j, and are computed as
full-pair totals minus within-window totals.  The window-independent inputs
come from the sample's cached :class:`~graphsize.sampling.MarginIndex`,
built once: the NODE kernels read its node occurrences, sorted once, and
the IND kernels also its snapshot entries, ranked once per distinct snapshot
and sorted on first use.  Each window then costs an inverse-weight
prefix-sum window and two binary searches per position, so a sweep over
many m pays for the index once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (A_MODES, MODE_MULTISET, MODE_SET, NO_COLLISIONS,
                   EstimateOutcome, EstimatorError, RatioEstimate,
                   aggregate_ratios)
from .ind_estimators import indb_auto_ratio
from .node_estimators import node_wis_ratio
from .sampling import MarginIndex, Sample

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
    """Keep every theta-th position, starting from the first."""
    return s.subset(range(0, len(s), cfg.theta))


def thin_shifted(s: Sample, cfg: ThinningConfig) -> list[Sample]:
    """All theta shifted subsamples; their concatenation permutes the input."""
    return [s.subset(range(k, len(s), cfg.theta)) for k in range(cfg.theta)]


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


# -- margin and cross-walker filtering ---------------------------------------


def _margin_columns(s: Sample) -> tuple[MarginIndex, np.ndarray]:
    """The sample's margin index and inverse weights, weights checked."""
    index = s.margin_index
    if not (index.weights > 0).all():
        raise EstimatorError("weights must be positive")
    return index, 1.0 / index.weights


def _margin_window(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Each position's excluded window: the positions at most m steps away."""
    i = np.arange(n)
    return np.maximum(i - m, 0), np.minimum(i + m + 1, n)


def _far_pair_sum(values: np.ndarray, inv: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray) -> float:
    """Sum of values_i * inv_j over ordered pairs with j outside [lo_i, hi_i).

    The full product of totals minus, for each i, values_i times the
    prefix-sum window of inv over [lo_i, hi_i).
    """
    prefix = np.concatenate(([0.0], np.cumsum(inv)))
    return (math.fsum(values.tolist()) * math.fsum(inv.tolist())
            - math.fsum((values * (prefix[hi] - prefix[lo])).tolist()))


def _node_window_ratio(s: Sample, lo: np.ndarray,
                       hi: np.ndarray) -> RatioEstimate:
    index, inv = _margin_columns(s)
    return RatioEstimate(_far_pair_sum(index.weights, inv, lo, hi),
                         float(index.far_repeats(lo, hi).sum()))


def _ind_window_ratio(s: Sample, lo: np.ndarray, hi: np.ndarray,
                      a_mode: str) -> RatioEstimate:
    if a_mode not in A_MODES:
        raise EstimatorError(f"unknown auxiliary mode: {a_mode!r}")
    index, inv = _margin_columns(s)
    if a_mode == MODE_MULTISET:
        return RatioEstimate(
            _far_pair_sum(index.degrees, inv, lo, hi),
            math.fsum((inv * index.far_mentions(lo, hi)).tolist()))

    n = len(s)
    first, last = index.snapshot_first, index.snapshot_last
    carried = index.snapshot_counts > 0
    # A neighbor node is invisible from position j iff all positions carrying
    # it fall inside j's window; lo and hi never decrease, so that happens
    # exactly for j in an interval.
    lo_j = np.searchsorted(hi, last[carried], "right")
    hi_j = np.searchsorted(lo, first[carried], "right") - 1
    hidden = lo_j <= hi_j
    missing = np.cumsum(np.bincount(lo_j[hidden], minlength=n + 1)
                        - np.bincount(hi_j[hidden] + 1, minlength=n + 1))[:n]
    num = math.fsum((inv * (np.count_nonzero(carried) - missing)).tolist())
    r = index.node_ranks
    seen = (first[r] < lo) | (last[r] >= hi)
    return RatioEstimate(num, math.fsum(inv[seen].tolist()))


def node_margin_ratio(s: Sample, m: int) -> RatioEstimate:
    """Ordered-pair ratio sum(w_i/w_j) over sum(1{s_i=s_j}), pairs > m apart."""
    n = len(s)
    if m >= n - 1:
        return RatioEstimate(0.0, 0.0)
    return _node_window_ratio(s, *_margin_window(n, m))


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
    return _ind_window_ratio(s, *_margin_window(n, m), a_mode)


def ind_margin(s: Sample, cfg: MarginConfig | int,
               a_mode: str = MODE_MULTISET) -> EstimateOutcome:
    """Margin-filtered induced-edge estimator for a single-walk sample."""
    m = cfg if isinstance(cfg, int) else cfg.m
    return ind_margin_ratio(s, m, a_mode).outcome()


def margin_crosswalker(s: Sample, base: str,
                       a_mode: str = MODE_MULTISET) -> EstimateOutcome:
    """Margin variant for multi-walker samples: keep only cross-walker pairs.

    Each position's excluded window is its own walker's run of positions.
    No explicit margin parameter; a single-walker sample has no surviving
    pairs and yields the no-collisions outcome.
    """
    ids = s.walkers()
    # Dense ranks in id order: ids may be arbitrarily large.
    rank = {k: r for r, k in enumerate(sorted(set(ids)))}
    if len(rank) < 2:
        return NO_COLLISIONS
    walkers = np.fromiter(map(rank.__getitem__, ids), np.int64, len(ids))
    if (walkers[1:] < walkers[:-1]).any():
        # The sums depend on the walker labels only, not on record order.
        order = np.argsort(walkers, kind="stable")
        s = s.subset(order)
        walkers = walkers[order]
    lo = np.searchsorted(walkers, walkers, "left")
    hi = np.searchsorted(walkers, walkers, "right")
    if base == "node":
        return _node_window_ratio(s, lo, hi).outcome()
    if base == "ind":
        return _ind_window_ratio(s, lo, hi, a_mode).outcome()
    raise EstimatorError(f"unsupported cross-walker base: {base!r}")


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
