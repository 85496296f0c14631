"""Size estimators based on induced edges (the IND family).

Route A goes through the density identity N = <k>/rho + 1, so its ratios
carry the +1 as their offset; route B counts cross-collisions between the
sample and an auxiliary node (multi)set, by default the union of the sampled
nodes' neighbor snapshots.
"""

from __future__ import annotations

import math

from .core import (MODE_SET, AuxiliarySet, EstimatorError, RatioEstimate,
                   _inverse_pair_sum, _inverse_weights, build_auxiliary,
                   count_cross_collisions, count_induced_edges,
                   pairwise_inverse_weight_sum)
from .sampling import METHOD_UIS, Sample


def mean_degree_uis(s: Sample) -> float:
    """Plain average of sampled degrees."""
    if len(s) < 1:
        raise EstimatorError("empty sample")
    return math.fsum(s.degrees()) / len(s)


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
    num = (n - 1) * math.fsum(s.degrees())
    return RatioEstimate(num, float(2 * count_induced_edges(s)), 1.0)


def mean_degree_wis(s: Sample) -> float:
    """Inverse-probability-weighted mean degree: sum(deg/w) / sum(1/w)."""
    if len(s) < 1:
        raise EstimatorError("empty sample")
    inv = _inverse_weights(s.weights())
    num = math.fsum(d * iw for d, iw in zip(s.degrees(), inv))
    return num / math.fsum(inv)


def edge_pair_inverse_weight_sum(s: Sample) -> float:
    """Sum over unordered edge-forming pairs of 1/(w_i * w_j), in linear time.

    Grouping occurrences by node turns the pair sum into a sum over adjacent
    distinct-node pairs of products of per-node inverse-weight totals.
    """
    return _edge_pair_sum(s, _inverse_weights(s.weights()))


def _edge_pair_sum(s: Sample, inv: list[float]) -> float:
    """edge_pair_inverse_weight_sum from the sample's checked inverse weights."""
    inv_by_node: dict[int, float] = {}
    for v, iw in zip(s.node_at, inv):
        inv_by_node[v] = inv_by_node.get(v, 0.0) + iw
    total = 0.0
    for v, iv in inv_by_node.items():
        acc = 0.0
        for u in s.snapshots[v]:
            acc += inv_by_node.get(u, 0.0)
        total += iv * acc
    return 0.5 * total


def density_wis(s: Sample) -> float:
    """Two-point corrected density: edge pair terms over all pair terms."""
    if len(s) < 2:
        raise EstimatorError("density needs at least 2 records")
    return (edge_pair_inverse_weight_sum(s)
            / pairwise_inverse_weight_sum(s.weights()))


def inda_wis_ratio(s: Sample) -> RatioEstimate:
    """Weight-corrected density-route estimator; equals inda_uis_ratio's
    quotient at unit weights."""
    if len(s) < 2:
        raise EstimatorError("need at least 2 records")
    inv = _inverse_weights(s.weights())
    deg_over_w = math.fsum(d * iw for d, iw in zip(s.degrees(), inv))
    num = deg_over_w * _inverse_pair_sum(inv)
    den = math.fsum(inv) * _edge_pair_sum(s, inv)
    return RatioEstimate(num, den, 1.0)


def indb_uis_ratio(s: Sample, a: AuxiliarySet) -> RatioEstimate:
    """|A| * |S| over the cross-collision count."""
    if len(s) < 1 or a.cardinality < 1:
        raise EstimatorError("need a non-empty sample and auxiliary set")
    return RatioEstimate(float(a.cardinality * len(s)),
                         float(count_cross_collisions(s, a)))


def indb_wis_ratio(s: Sample, a: AuxiliarySet) -> RatioEstimate:
    """One-point corrected cross-collision estimator."""
    if len(s) < 1 or a.cardinality < 1:
        raise EstimatorError("need a non-empty sample and auxiliary set")
    inv = _inverse_weights(s.weights())
    num = a.cardinality * math.fsum(inv)
    den = math.fsum(iw * a.counts.get(v, 0)
                    for iw, v in zip(inv, s.node_at))
    return RatioEstimate(num, den)


def indb_auto_ratio(s: Sample, mode: str = MODE_SET) -> RatioEstimate:
    """The default IND estimator: the cross-collision ratio with A built
    from the sample's own neighbor snapshots (duplicates in A discarded
    unless asked).

    Uniform samples take the unweighted path even if weights are present;
    anything else is corrected by the record weights.
    """
    a = build_auxiliary(s, mode)
    if s.method == METHOD_UIS:
        return indb_uis_ratio(s, a)
    return indb_wis_ratio(s, a)
