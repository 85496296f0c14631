"""Size estimators based on induced edges (the IND family).

Each estimator has one kernel, which reads the record weights of every
sample; a uniform sample's are all 1.  Route A goes through the density
identity N = <k>/rho + 1, so its ratios carry the +1 as their offset; route
B counts cross-collisions between the sample and an auxiliary node
(multi)set A, the union of the sampled nodes' neighbor snapshots.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .core import (MODE_SET, EstimatorError, RatioEstimate,
                   _auxiliary_counts, _fsum, _inverse_pair_sum,
                   _inverse_weights, _row_sums, count_induced_edges)
from .sampling import Sample, _first_seen


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
    _, _, pairs, edges = _route_a_sums(s)
    return edges / pairs


def inda_wis_ratio(s: Sample) -> RatioEstimate:
    """Weight-corrected density-route estimator: sum(deg/w) times the pair
    sum of 1/(w_i * w_j), over sum(1/w) times its edge pair sum, plus 1.
    At unit weights it is (n-1)*sum(deg)/(2*n_ind) + 1, its parts times
    n/2."""
    degrees, inverse, pairs, edges = _route_a_sums(s)
    return RatioEstimate(degrees * pairs, inverse * edges, 1.0)


@np.errstate(over="ignore")  # sums past the float range are taken again
def _route_a_sums(s: Sample) -> tuple[float, float, float, float]:
    """Route A's sums: sum(deg/w), sum(1/w), and the sums of 1/(w_i * w_j)
    over all unordered pairs and over the edge-forming ones.

    They, the numerator and the denominator must be finite normal floats;
    without induced edges, the edge sum is 0 and the numerator only finite.
    Where the weights take them out of that range, they are taken again
    from the inverse weights scaled by a power of two, which is exact and
    changes no ratio of them; if still out of it, EstimatorError.
    """
    if len(s) < 2:
        raise EstimatorError("route A needs at least 2 records")
    inv = _inverse_weights(s.weight_column)
    for scale in (0, -math.frexp(inv.max())[1]):
        scaled = np.ldexp(inv, scale)
        inverse = _fsum(scaled)
        sums = (_fsum(s.degree_column * scaled), inverse,
                _inverse_pair_sum(scaled, inverse), _edge_pair_sum(s, scaled))
        degrees, _, pairs, edges = sums
        num = degrees * pairs
        normal = [sys.float_info.min <= v < math.inf for v in
                  (inverse, pairs, degrees, edges, num, inverse * edges)]
        if all(normal) or (normal[0] and normal[1] and num < math.inf
                           and edges == 0.0 and not count_induced_edges(s)):
            return sums
    raise EstimatorError(
        f"route A (ind-a): weights from {s.weight_column.min():.6g} to "
        f"{s.weight_column.max():.6g} take its sums outside the float range")


def _cross_hits(s: Sample, mode: str) -> tuple[int, np.ndarray]:
    """|A| for A built from the sample's neighbor snapshots in ``mode``, and
    how many elements of A each position's node matches."""
    counts = _auxiliary_counts(s, mode)
    size = int(counts.sum())
    if len(s) < 1 or size < 1:
        raise EstimatorError("need a non-empty sample and auxiliary set")
    return size, counts[s.rank_column]


def indb_wis_ratio(s: Sample, mode: str = MODE_SET) -> RatioEstimate:
    """One-point corrected cross-collision estimator: |A| * sum(1/w) over
    the sum of 1/w over the positions' matches in A, the union of the
    positions' neighbor snapshots taken as a set or a multiset.  At unit
    weights it is |A| * |S| over the cross-collision count."""
    size, hits = _cross_hits(s, mode)
    inv = _inverse_weights(s.weight_column)
    return RatioEstimate(size * _fsum(inv), _fsum(inv * hits))
