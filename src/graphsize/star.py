"""Star sampling: treat the sampled nodes' neighbor multiset as the sample.

EXPERIMENTAL.  The neighbor multiset is degree-biased, so it is fed to the
weight-corrected collision machinery with synthetic aggregates in place of
the unknown neighbor degrees.  In practice this estimator is noticeably
weaker than the NODE and IND families; it is kept for completeness and
clearly flagged as experimental in the CLI.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .core import (NO_COLLISIONS, EstimateOutcome, EstimatorError,
                   RatioEstimate, _inverse_weights, multiplicity_collisions)
from .sampling import METHOD_UIS, Sample


@dataclass(frozen=True)
class StarAggregates:
    """Sums over the flattened neighbor multiset.

    ``psi1`` plays the role of sum-of-weights and ``psi_neg1`` of
    sum-of-inverse-weights for the neighbor multiset, estimated from the
    parents' degrees because neighbor degrees are unknown.  ``ncol_star``
    is the (possibly bias-corrected, hence real-valued) collision count.
    """

    neighbor_count: int
    psi1: float
    psi_neg1: float
    ncol_star: float


def _flatten(s: Sample) -> tuple[list[int], list[float]]:
    """Neighbor occurrences with the sampling weight of their parent."""
    nodes: list[int] = []
    weights: list[float] = []
    for r in s.records:
        for a in r.neighbors:
            nodes.append(a)
            weights.append(r.weight)
    return nodes, weights


def star_aggregates_uis(s: Sample) -> StarAggregates:
    """Aggregates for a uniform parent sample.

    psi1 = |N(S)| * sum(deg^2)/sum(deg);  psi_neg1 = |N(S)| * n/sum(deg);
    collisions are counted plainly on the flattened neighbor multiset.
    """
    degrees = s.degrees()
    sum_deg = sum(degrees)
    if sum_deg == 0:
        raise EstimatorError("all sampled nodes are isolated")
    m = sum_deg  # |N(S)| as a multiset
    sum_deg2 = sum(d * d for d in degrees)
    nodes, _ = _flatten(s)
    ncol = float(multiplicity_collisions(Counter(nodes)))
    return StarAggregates(m, m * sum_deg2 / sum_deg,
                          m * len(s) / sum_deg, ncol)


def star_ncol_wis(nodes: list[int], weights: list[float]) -> float:
    """Collision count on a weighted neighbor multiset, corrected for bias.

    C(M, 2) times the ratio of the inverse-weighted equal-pair sum to the
    inverse-weighted all-pair sum, over ordered pairs i != j.  With equal
    weights this reduces to the plain collision count.
    """
    m = len(nodes)
    if m < 2:
        return 0.0
    inv_all = _inverse_weights(weights)
    inv_by_node: dict[int, list[float]] = {}
    for v, iw in zip(nodes, inv_all):
        inv_by_node.setdefault(v, []).append(iw)
    equal = math.fsum(math.fsum(g) ** 2 - math.fsum(x * x for x in g)
                      for g in inv_by_node.values())
    allp = math.fsum(inv_all) ** 2 - math.fsum(x * x for x in inv_all)
    if allp <= 0.0:
        return 0.0
    return (m * (m - 1) / 2) * equal / allp


def star_aggregates_wis(s: Sample) -> StarAggregates:
    """Aggregates for a weighted parent sample, reweighted to uniform."""
    degrees = s.degrees()
    weights = s.weights()
    sum_deg = sum(degrees)
    if sum_deg == 0:
        raise EstimatorError("all sampled nodes are isolated")
    m = sum_deg
    inv = _inverse_weights(weights)
    deg_over_w = math.fsum(d * iw for d, iw in zip(degrees, inv))
    deg2_over_w = math.fsum(d * d * iw for d, iw in zip(degrees, inv))
    if deg_over_w <= 0.0:
        raise EstimatorError("degenerate weighted degree sum")
    psi1 = m * deg2_over_w / deg_over_w
    psi_neg1 = m * math.fsum(inv) / deg_over_w
    nodes, parent_w = _flatten(s)
    return StarAggregates(m, psi1, psi_neg1, star_ncol_wis(nodes, parent_w))


def star_aggregates(s: Sample) -> StarAggregates:
    """Dispatch on the sample method (uniform vs weighted/walk)."""
    if s.method == METHOD_UIS:
        return star_aggregates_uis(s)
    return star_aggregates_wis(s)


def star_estimate(s: Sample) -> EstimateOutcome:
    """Size estimate psi1 * psi_neg1 / (2 * ncol_star).

    The ordered-pair denominator convention matches the NODE collision
    estimators, so on an equal-degree graph this coincides exactly with the
    plain collision estimator applied to the flattened neighbor multiset.
    """
    agg = star_aggregates(s)
    if agg.ncol_star <= 0.0:
        return NO_COLLISIONS
    return RatioEstimate(agg.psi1 * agg.psi_neg1, 2.0 * agg.ncol_star).outcome()
