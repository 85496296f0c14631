from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphsize.core import (MODE_MULTISET, MODE_SET, NO_COLLISIONS,
                            EstimateOutcome, EstimatorError, RatioEstimate,
                            _auxiliary_counts, aggregate_ratios,
                            count_collisions, count_induced_edges,
                            count_unique, pairwise_inverse_weight_sum)
from graphsize.generators import erdos_renyi
from graphsize.ind_estimators import (edge_pair_inverse_weight_sum,
                                      indb_uis_ratio, indb_wis_ratio)
from graphsize.node_estimators import node_wis_ratio
from graphsize.sampling import sample_uis

import oracles
from conftest import graph_from_text, make_sample


def _multiplicity_sample():
    # one node three times, one twice, six singletons: n=11, 8 unique
    g = erdos_renyi(10, 0.3, seed=1)
    nodes = [0, 0, 0, 1, 1, 2, 3, 4, 5, 6, 7]
    ext = [g.ext_ids[v] for v in nodes]
    return make_sample(g, ext, method="UIS")


def test_collision_count_multiplicity_pattern():
    s = _multiplicity_sample()
    assert count_collisions(s) == 4
    assert count_unique(s) == 8


def test_collision_count_edge_cases(k5):
    assert count_collisions(make_sample(k5, [0, 1, 2, 3])) == 0
    assert count_collisions(make_sample(k5, [2, 2, 2, 2])) == 6
    assert count_unique(make_sample(k5, [2, 2])) == 1
    assert count_unique(make_sample(k5, [0, 1, 2, 3, 4, 0, 1])) == 5


def test_collisions_plus_unique_need_not_equal_n():
    # a node sampled three times breaks the n^col + n^unique = n pattern
    s = _multiplicity_sample()
    assert count_collisions(s) + count_unique(s) != len(s)
    assert count_collisions(s) >= len(s) - count_unique(s)


def test_induced_edges_triangle(triangle):
    assert count_induced_edges(make_sample(triangle, [0, 1, 2])) == 3
    assert count_induced_edges(make_sample(triangle, [0, 0, 1])) == 2


def test_induced_edges_non_adjacent(path3):
    assert count_induced_edges(make_sample(path3, [0, 2])) == 0


def test_induced_edges_matches_pair_loop():
    g = erdos_renyi(40, 0.2, seed=5)
    s = sample_uis(g, 120, seed=6)
    assert count_induced_edges(s) == oracles.induced_edge_count(s)


def _auxiliary(s, mode):
    """``_auxiliary_counts`` as id -> multiplicity, checked against the
    dict-loop reference."""
    counts = _auxiliary_counts(s, mode)
    a = {s.ids[r]: c for r, c in enumerate(counts.tolist()) if c}
    assert a == oracles.auxiliary_counts(s, mode)
    return a


def test_auxiliary_counts_star_leaves(star4):
    s = make_sample(star4, [1, 2])
    hub = oracles.dense_index(star4, 0)
    assert _auxiliary(s, MODE_MULTISET) == {hub: 2}
    assert _auxiliary(s, MODE_SET) == {hub: 1}


def test_auxiliary_counts_hub(star4):
    s = make_sample(star4, [0])
    for mode in (MODE_SET, MODE_MULTISET):
        assert sum(_auxiliary(s, mode).values()) == 4


def test_multiset_cardinality_is_degree_sum():
    g = erdos_renyi(50, 0.15, seed=2)
    s = sample_uis(g, 80, seed=3)
    assert sum(_auxiliary(s, MODE_MULTISET).values()) \
        == s.degree_column.sum()


def test_auxiliary_mode_must_be_known(k5):
    s = make_sample(k5, [0])
    for kernel in (_auxiliary_counts, indb_uis_ratio, indb_wis_ratio):
        with pytest.raises(EstimatorError, match="unknown auxiliary mode"):
            kernel(s, "bag")


def test_cross_collisions_simple(k5):
    # A = {1, 2, 3, 4} twice, then {0, 2, 3, 4}: 0 meets A once per
    # occurrence and 1 meets it twice as a multiset, once as a set.
    s = make_sample(k5, [0, 0, 1])
    assert _auxiliary(s, MODE_MULTISET) == {0: 1, 1: 2, 2: 3, 3: 3, 4: 3}
    assert indb_uis_ratio(s, MODE_MULTISET) == RatioEstimate(12.0 * 3, 4.0)
    assert indb_uis_ratio(s, MODE_SET) == RatioEstimate(5.0 * 3, 3.0)
    assert indb_uis_ratio(make_sample(k5, [0]), MODE_MULTISET).denominator \
        == 0.0


def test_cross_collisions_of_own_multiset_is_twice_induced():
    for seed in range(5):
        g = erdos_renyi(30, 0.25, seed=seed)
        s = sample_uis(g, 60, seed=seed + 10)
        assert indb_uis_ratio(s, MODE_MULTISET).denominator \
            == 2 * count_induced_edges(s)


def test_pairwise_inverse_weight_sum_examples(k5):
    assert pairwise_inverse_weight_sum([1.0, 2.0]) == pytest.approx(0.5)
    assert pairwise_inverse_weight_sum([1.0, 1.0, 1.0]) == pytest.approx(3.0)
    s = make_sample(k5, [0, 1], weights=[1.0, 2.0])
    assert pairwise_inverse_weight_sum(s.weight_column) \
        == pytest.approx(0.5)


def test_pairwise_inverse_weight_sum_matches_pair_loop():
    import numpy as np
    rng = np.random.default_rng(0)
    w = (0.1 + rng.random(200) * 10).tolist()
    got = pairwise_inverse_weight_sum(w)
    assert oracles.relerr(got, oracles.pairwise_inverse_weight_sum(w)) < 1e-9


@given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=2,
                max_size=40))
def test_pairwise_inverse_weight_sum_property(w):
    got = pairwise_inverse_weight_sum(w)
    assert oracles.relerr(got, oracles.pairwise_inverse_weight_sum(w)) < 1e-9


def test_pairwise_inverse_weight_sum_rejects_zero():
    s = _multiplicity_sample()
    for bad in (0.0, float("nan")):
        with pytest.raises(EstimatorError):
            pairwise_inverse_weight_sum([1.0, bad])
        # Every kernel that inverts weights applies the same rule.
        weights = np.append(bad, s.weight_column[1:])
        for kernel in (node_wis_ratio, edge_pair_inverse_weight_sum):
            with pytest.raises(EstimatorError):
                kernel(replace(s, weight_column=weights))


def test_aggregate_ratios():
    out = aggregate_ratios([RatioEstimate(1, 2), RatioEstimate(3, 4)])
    assert out.value == pytest.approx(4 / 6)
    out = aggregate_ratios([RatioEstimate(1, 0), RatioEstimate(3, 4)])
    assert out.value == pytest.approx(1.0)
    assert aggregate_ratios([RatioEstimate(1, 0), RatioEstimate(2, 0)]) \
        == NO_COLLISIONS
    # Parts of one estimator share its offset.
    out = aggregate_ratios([RatioEstimate(1, 2, 1.0), RatioEstimate(3, 4, 1.0)])
    assert out.value == pytest.approx(4 / 6 + 1.0)
    with pytest.raises(EstimatorError):
        aggregate_ratios([])


def test_outcome_sentinel():
    assert not NO_COLLISIONS.finite
    assert RatioEstimate(3.0, 0.0).outcome() == NO_COLLISIONS
    assert RatioEstimate(6.0, 2.0, 1.0).outcome().value == 4.0
    assert RatioEstimate(6.0, 0.0, 1.0).outcome() == NO_COLLISIONS
