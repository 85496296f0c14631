import pytest

from graphsize.core import NO_COLLISIONS, EstimatorError
from graphsize.generators import erdos_renyi
from graphsize.node_estimators import node_uis
from graphsize.sampling import sample_uis, sample_wis
from graphsize.star import (star_aggregates, star_aggregates_uis,
                            star_aggregates_wis, star_estimate, star_ncol_wis)

import oracles
from conftest import graph_from_text, make_sample


def test_star_aggregates_hub_sample(star4):
    s = make_sample(star4, [0], method="UIS")
    agg = star_aggregates_uis(s)
    assert agg.neighbor_count == 4
    assert agg.psi1 == pytest.approx(16.0)
    assert agg.psi_neg1 == pytest.approx(1.0)
    assert agg.ncol_star == 0.0


def test_star_aggregates_regular_graph():
    g = graph_from_text("0 1\n1 2\n2 3\n3 0\n")  # 4-cycle, all degree 2
    s = sample_uis(g, 6, seed=0)
    agg = star_aggregates_uis(s)
    assert agg.neighbor_count == sum(s.degrees())
    assert agg.psi1 == pytest.approx(agg.neighbor_count * 2.0)
    assert agg.psi_neg1 == pytest.approx(agg.neighbor_count / 2.0)


def test_star_aggregates_all_isolated_rejected():
    g = graph_from_text("5 5\n6 6\n")  # two isolated nodes
    s = make_sample(g, [5, 6], method="UIS")
    with pytest.raises(EstimatorError):
        star_aggregates_uis(s)


def test_neighbor_count_is_degree_sum():
    g = erdos_renyi(40, 0.15, seed=1)
    s = sample_uis(g, 30, seed=2)
    assert star_aggregates(s).neighbor_count == sum(s.degrees())


def test_star_aggregates_uis_match_direct_script():
    g = erdos_renyi(50, 0.2, seed=3)
    s = sample_uis(g, 40, seed=4)
    agg = star_aggregates_uis(s)
    size, psi1, psi_neg1, ncol = oracles.star_uis_aggregates(s)
    assert agg.neighbor_count == size
    assert oracles.relerr(agg.psi1, psi1) < 1e-9
    assert oracles.relerr(agg.psi_neg1, psi_neg1) < 1e-9
    assert agg.ncol_star == ncol


def test_star_ncol_wis_unit_weights_reduce():
    nodes = [1, 2, 2, 3, 3, 3]
    got = star_ncol_wis(nodes, [1.0] * 6)
    assert got == pytest.approx(1 + 3)


def test_star_ncol_wis_no_repeats():
    assert star_ncol_wis([1, 2, 3], [2.0, 1.0, 4.0]) == 0.0
    assert star_ncol_wis([7], [1.0]) == 0.0


def test_star_ncol_wis_rejects_zero_weight():
    with pytest.raises(EstimatorError):
        star_ncol_wis([1, 1], [1.0, 0.0])


def test_star_ncol_wis_matches_pair_loop():
    import numpy as np
    rng = np.random.default_rng(5)
    nodes = rng.integers(0, 25, size=120).tolist()
    weights = (0.2 + rng.random(120) * 5).tolist()
    got = star_ncol_wis(nodes, weights)
    assert oracles.relerr(got, oracles.star_ncol_wis(nodes, weights)) < 1e-9


def test_star_aggregates_wis_match_direct_script():
    g = erdos_renyi(50, 0.2, seed=6)
    s = sample_wis(g, "degree", 40, seed=7)
    agg = star_aggregates_wis(s)
    size, psi1, psi_neg1, ncol = oracles.star_wis_aggregates(s)
    assert agg.neighbor_count == size
    assert oracles.relerr(agg.psi1, psi1) < 1e-9
    assert oracles.relerr(agg.psi_neg1, psi_neg1) < 1e-9
    assert oracles.relerr(agg.ncol_star, ncol) < 1e-9


def test_star_estimate_no_collisions(star4):
    s = make_sample(star4, [0], method="UIS")
    assert star_estimate(s) == NO_COLLISIONS


def test_star_estimate_equal_degree_collapses_to_node_estimator():
    g = graph_from_text("0 1\n1 2\n2 3\n3 4\n4 0\n")  # 5-cycle
    s = sample_uis(g, 8, seed=8)
    flat_nodes, _ = oracles.star_flat(s)
    flat_sample = make_sample(g, [g.ext_id(v) for v in flat_nodes],
                              method="UIS")
    expected = node_uis(flat_sample)
    got = star_estimate(s)
    assert got.finite == expected.finite
    if got.finite:
        assert got.value == pytest.approx(expected.value, rel=1e-12)


def test_star_estimate_clique_median_loose_band():
    g = erdos_renyi(50, 1.0, seed=0)  # complete graph on 50 nodes
    vals = []
    for t in range(200):
        s = sample_uis(g, 30, seed=t)
        out = star_estimate(s)
        assert out.finite
        vals.append(out.value)
    med = sorted(vals)[len(vals) // 2]
    assert abs(med - 50) / 50 < 0.3


