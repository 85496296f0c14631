"""Dependence reduction for random-walk samples.

Three families: thinning (keep every theta-th sample, optionally keeping all
theta shifted subsamples and aggregating their ratio parts), margin filtering
(drop estimator contributions from sample pairs at most m steps apart),
and the multi-walker variant (keep only cross-walker pairs).

Margin and cross-walker filtering are one pair filter: each position i
excludes a window [lo_i, hi_i) of positions, the positions within m steps
for a margin, the positions of its own walker for cross-walker filtering.
All their sums run over ordered pairs (i, j), i != j, and are computed as
full-pair totals minus within-window totals.  Everything that no window
changes is built once per sample and cached on it, read-only: the two
occurrence indexes (:class:`~graphsize.sampling.Occurrences`),
``occurrences``, each position's node, and, for the IND kernels only,
``mentions``, each position's snapshot entries; and
:class:`~graphsize.sampling.Windows`, the prefix sums of the inverse
weights, the exact full-pair totals and each occurrence's position, rank
base and inverse weight.  A NODE or multiset window then costs one
prefix-window exact sum for its numerator, and one search call over both
window edges (:meth:`~graphsize.sampling.Sample.far`) and one exact sum
for its denominator.  Set mode reads the mentions' cached first and last
positions.  So a sweep over many m sorts once, and each m costs what its
own window needs.  The positivity check on the weights runs on every
call.  Thinning slices the rank column over the parent's shared CSR.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import (MODE_MULTISET, NO_COLLISIONS, EstimateOutcome,
                   EstimatorError, RatioEstimate, _check_mode, _check_weights,
                   _fsum, aggregate_ratios)
from .sampling import Sample


def _check_at_least(name: str, value: int, least: int) -> None:
    if value < least:
        raise EstimatorError(f"{name} must be >= {least}, got {value}")


def thin_simple(s: Sample, theta: int) -> Sample:
    """Keep every theta-th position, starting from the first."""
    _check_at_least("theta", theta, 1)
    return s.subset(np.arange(0, len(s), theta))


def thin_shifted(s: Sample, theta: int) -> list[Sample]:
    """The theta shifted subsamples, less the empty ones when theta exceeds
    the sample's length; their concatenation permutes the input."""
    _check_at_least("theta", theta, 1)
    return [s.subset(np.arange(k, len(s), theta))
            for k in range(min(theta, len(s)))]


def estimate_thinned(s: Sample, theta: int,
                     ratio: Callable[[Sample], RatioEstimate],
                     shifted: bool = False) -> EstimateOutcome:
    """The base estimator ``ratio`` on a thinned sample.

    Simple mode evaluates the base estimator on the single kept subsample.
    Shifted mode aggregates the per-subsample numerators and denominators,
    which stays finite even when some subsamples have no collisions.
    """
    if shifted:
        return aggregate_ratios([ratio(sub) for sub in thin_shifted(s, theta)])
    return ratio(thin_simple(s, theta)).outcome()


# -- margin and cross-walker filtering ---------------------------------------


def _margin_window(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Each position's excluded window: the positions at most m steps away."""
    i = np.arange(n)
    return np.maximum(i - m, 0), np.minimum(i + m + 1, n)


def _runs(s: Sample, lo: np.ndarray, hi: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray]:
    """Windows [lo_i, hi_i) of positions: the inverse weights summed over
    each, by position, and their edges as keys, as :meth:`Sample.far`
    takes them."""
    w = s.windows
    edges = np.concatenate((w.base + lo[w.position], w.base + hi[w.position]))
    return (w.prefix[hi] - w.prefix[lo],
            edges.astype(s.occurrences.keys.dtype, copy=False))


# Sums of values_i * inv_j over ordered pairs with j outside i's window are
# the exact total minus, for each i, values_i times i's window sum of inv.


def _node_window_ratio(s: Sample, sums: np.ndarray,
                       edges: np.ndarray) -> RatioEstimate:
    return RatioEstimate(
        s.windows.weight_total - _fsum(s.weight_column * sums),
        float(s.far(s.occurrences, edges).sum()))


def _multiset_window_ratio(s: Sample, sums: np.ndarray,
                           edges: np.ndarray) -> RatioEstimate:
    w = s.windows
    return RatioEstimate(w.degree_total - _fsum(s.degree_column * sums),
                         _fsum(w.keyed_inverse * s.far(s.mentions, edges)))


def _set_window_ratio(s: Sample, lo: np.ndarray,
                      hi: np.ndarray) -> RatioEstimate:
    # Set mode reads only the mentions: no window total or key edge.
    n, inv, occ = len(s), 1.0 / s.weight_column, s.mentions
    first, last = occ.spans
    # A neighbor node is invisible from position j iff all positions carrying
    # it fall inside j's window; lo and hi never decrease, so that happens
    # exactly for j in an interval.
    lo_j = np.searchsorted(hi, last, "right")
    hi_j = np.searchsorted(lo, first, "right") - 1
    hidden = lo_j <= hi_j
    missing = np.cumsum(np.bincount(lo_j[hidden], minlength=n + 1)
                        - np.bincount(hi_j[hidden] + 1, minlength=n + 1))[:n]
    num = _fsum(inv * (len(first) - missing))
    r = s.rank_column
    seen = (occ.first[r] < lo) | (occ.last[r] >= hi)
    return RatioEstimate(num, _fsum(inv[seen]))


def node_margin_ratio(s: Sample, m: int) -> RatioEstimate:
    """Ordered-pair ratio sum(w_i/w_j) over sum(1{s_i=s_j}), pairs > m apart."""
    _check_at_least("margin", m, 0)
    _check_weights(s.weight_column)
    if m >= len(s) - 1:
        return RatioEstimate(0.0, 0.0)
    return _node_window_ratio(s, *_runs(s, *_margin_window(len(s), m)))


def ind_margin_ratio(s: Sample, m: int, a_mode: str) -> RatioEstimate:
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
    _check_at_least("margin", m, 0)
    _check_mode(a_mode)
    _check_weights(s.weight_column)
    n = len(s)
    if m >= n - 1:
        return RatioEstimate(0.0, 0.0)
    lo, hi = _margin_window(n, m)
    if a_mode == MODE_MULTISET:
        return _multiset_window_ratio(s, *_runs(s, lo, hi))
    return _set_window_ratio(s, lo, hi)


def margin_crosswalker(s: Sample, base: str, a_mode: str) -> EstimateOutcome:
    """Margin variant for multi-walker samples: keep only cross-walker pairs.

    Each position's excluded window is its own walker's run of positions.
    No explicit margin parameter; a single-walker sample has no surviving
    pairs and yields the no-collisions outcome.  ``base`` and ``a_mode``
    are checked for any sample, and ``a_mode`` for either base, though only
    the ind base uses it.
    """
    _check_mode(a_mode)
    if base not in ("node", "ind"):
        raise EstimatorError(f"unsupported cross-walker base: {base!r}")
    _check_weights(s.weight_column)
    walkers = s.walker_column
    if len(walkers) == 0 or (walkers == walkers[0]).all():
        return NO_COLLISIONS
    if (walkers[1:] < walkers[:-1]).any():
        # The sums depend on the walker labels only, not on record order.
        order = np.argsort(walkers, kind="stable")
        s, walkers = s.subset(order), walkers[order]
    lo = np.searchsorted(walkers, walkers, "left")
    hi = np.searchsorted(walkers, walkers, "right")
    if base == "node":
        ratio = _node_window_ratio(s, *_runs(s, lo, hi))
    elif a_mode == MODE_MULTISET:
        ratio = _multiset_window_ratio(s, *_runs(s, lo, hi))
    else:
        ratio = _set_window_ratio(s, lo, hi)
    return ratio.outcome()


# -- surviving pair accounting ---------------------------------------------


def surviving_pair_count(n: int, correction: str, value: int) -> int:
    """Exact count of ordered pairs a correction leaves usable.

    ``correction`` is ``thin`` or ``thin-shifted`` with ``value`` theta, or
    ``margin`` with ``value`` m.
    """
    if correction == "margin":
        _check_at_least("margin", value, 0)
        m = min(value, max(n - 1, 0))
        return n * (n - 1) - 2 * (m * n - m * (m + 1) // 2)
    if correction not in ("thin", "thin-shifted"):
        raise EstimatorError(f"unsupported correction: {correction!r}")
    _check_at_least("theta", value, 1)
    kept = range(value if correction == "thin-shifted" else 1)
    lengths = [len(range(k, n, value)) for k in kept]
    return sum(length * (length - 1) for length in lengths)
