"""Size estimators based on induced edges (the IND family).

Route A goes through the density identity N = <k>/rho + 1, so its ratios
carry the +1 as their offset; route B counts cross-collisions between the
sample and an auxiliary node (multi)set A, the union of the sampled nodes'
neighbor snapshots.
"""

from __future__ import annotations

import numpy as np

from .core import (MODE_SET, EstimatorError, RatioEstimate,
                   _auxiliary_counts, _fsum, _inverse_pair_sum,
                   _inverse_weights, _row_sums, count_induced_edges)
from .sampling import METHOD_UIS, Sample, _first_seen


def mean_degree_uis(s: Sample) -> float:
    """Plain average of sampled degrees."""
    if len(s) < 1:
        raise EstimatorError("empty sample")
    return _fsum(s.degree_column) / len(s)


def density_uis(s: Sample) -> float:
    """Fraction of sample pairs that form edges."""
    n = len(s)
    if n < 2:
        raise EstimatorError("density needs at least 2 records")
    return count_induced_edges(s) / (n * (n - 1) / 2)


def inda_uis_ratio(s: Sample) -> RatioEstimate:
    """Density-route estimator for uniform samples:
    (n-1)*sum(deg)/(2*n_ind) + 1."""
    if len(s) < 2:
        raise EstimatorError("need at least 2 records")
    n = len(s)
    num = (n - 1) * _fsum(s.degree_column)
    return RatioEstimate(num, float(2 * count_induced_edges(s)), 1.0)


def mean_degree_wis(s: Sample) -> float:
    """Inverse-probability-weighted mean degree: sum(deg/w) / sum(1/w)."""
    if len(s) < 1:
        raise EstimatorError("empty sample")
    inv = _inverse_weights(s.weight_column)
    return _fsum(s.degree_column * inv) / _fsum(inv)


def _edge_pair_sum(s: Sample, inv: np.ndarray) -> float:
    """Sum over unordered edge-forming pairs of 1/(w_i * w_j), in linear
    time, from the sample's checked inverse weights.

    Grouping occurrences by node turns the pair sum into a sum over adjacent
    distinct-node pairs of products of per-node inverse-weight totals.  Sums
    run in the order of a loop over the distinct nodes by first appearance,
    so the result does not depend on how ranks are numbered.
    Ranks that already follow first appearance (a draw, a file read, a
    head of either) are that order as they stand, and need no lookup.
    """
    ranks = s.rank_column
    inv_by_rank = np.bincount(ranks, inv, minlength=len(s.ids))
    totals = _row_sums(s, inv_by_rank[s.entries])
    if _in_first_seen_order(ranks):
        seen = slice(int(ranks.max(initial=-1)) + 1)
    else:
        seen = _first_seen(ranks, len(s.offsets) - 1)[0]
    terms = inv_by_rank[seen] * totals[seen]
    return 0.5 * float(terms.cumsum()[-1]) if terms.size else 0.0


def _in_first_seen_order(ranks: np.ndarray) -> bool:
    """Whether ranks 0, 1, 2, ... first appear in that order: the first
    is 0 and the running maximum rises by at most 1 a step."""
    return not len(ranks) or (ranks[0] == 0 and bool(
        (np.diff(np.maximum.accumulate(ranks)) <= 1).all()))


def density_wis(s: Sample) -> float:
    """Two-point corrected density: edge pair terms over all pair terms."""
    if len(s) < 2:
        raise EstimatorError("density needs at least 2 records")
    inv = _inverse_weights(s.weight_column)
    return _edge_pair_sum(s, inv) / _inverse_pair_sum(inv, _fsum(inv))


def inda_wis_ratio(s: Sample) -> RatioEstimate:
    """Weight-corrected density-route estimator; equals inda_uis_ratio's
    quotient at unit weights."""
    if len(s) < 2:
        raise EstimatorError("need at least 2 records")
    inv = _inverse_weights(s.weight_column)
    deg_over_w = _fsum(s.degree_column * inv)
    inv_sum = _fsum(inv)
    num = deg_over_w * _inverse_pair_sum(inv, inv_sum)
    den = inv_sum * _edge_pair_sum(s, inv)
    return RatioEstimate(num, den, 1.0)


def _cross_hits(s: Sample, mode: str) -> tuple[int, np.ndarray]:
    """|A| for A built from the sample's neighbor snapshots in ``mode``, and
    how many elements of A each position's node matches."""
    counts = _auxiliary_counts(s, mode)
    size = int(counts.sum())
    if len(s) < 1 or size < 1:
        raise EstimatorError("need a non-empty sample and auxiliary set")
    return size, counts[s.rank_column]


def indb_uis_ratio(s: Sample, mode: str = MODE_SET) -> RatioEstimate:
    """|A| * |S| over the cross-collision count, A the union of the
    positions' neighbor snapshots taken as a set or a multiset."""
    size, hits = _cross_hits(s, mode)
    return RatioEstimate(float(size * len(s)), float(hits.sum()))


def indb_wis_ratio(s: Sample, mode: str = MODE_SET) -> RatioEstimate:
    """One-point corrected cross-collision estimator, A as in
    :func:`indb_uis_ratio`."""
    size, hits = _cross_hits(s, mode)
    inv = _inverse_weights(s.weight_column)
    return RatioEstimate(size * _fsum(inv), _fsum(inv * hits))


def indb_auto_ratio(s: Sample, mode: str = MODE_SET) -> RatioEstimate:
    """The default IND estimator: the cross-collision ratio with duplicates
    in A discarded unless asked.

    Uniform samples take the unweighted path even if weights are present;
    anything else is corrected by the record weights.
    """
    ratio = indb_uis_ratio if s.method == METHOD_UIS else indb_wis_ratio
    return ratio(s, mode)
