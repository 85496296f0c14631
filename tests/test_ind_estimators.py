import numpy as np
import pytest

from graphsize.core import (MODE_MULTISET, MODE_SET, NO_COLLISIONS,
                            EstimatorError, RatioEstimate)
from graphsize.generators import erdos_renyi
from graphsize.ind_estimators import (density_uis, density_wis,
                                      inda_uis_ratio, inda_wis_ratio,
                                      indb_auto_ratio, indb_uis_ratio,
                                      indb_wis_ratio, mean_degree_uis,
                                      mean_degree_wis)
from graphsize.sampling import sample_uis, sample_wis

import oracles
from conftest import graph_from_text, make_sample


def test_mean_degree_uis(k5, triangle):
    s = make_sample(triangle, [0, 1, 2], method="UIS")
    assert mean_degree_uis(s) == pytest.approx(2.0)
    s = make_sample(k5, [3], method="UIS")
    assert mean_degree_uis(s) == pytest.approx(4.0)


def test_mean_degree_uis_full_enumeration(path3):
    s = make_sample(path3, [0, 1, 2], method="UIS")
    assert mean_degree_uis(s) == pytest.approx(4 / 3)


def test_density_uis(triangle, path3):
    assert density_uis(make_sample(triangle, [0, 1, 2])) == pytest.approx(1.0)
    assert density_uis(make_sample(path3, [0, 1, 2])) == pytest.approx(2 / 3)
    assert density_uis(make_sample(path3, [0, 2])) == 0.0
    with pytest.raises(EstimatorError):
        density_uis(make_sample(path3, [0]))


def test_inda_uis_exact_on_full_enumeration(triangle, path3):
    for g in (triangle, path3):
        s = make_sample(g, [0, 1, 2], method="UIS")
        assert inda_uis_ratio(s).outcome().value == pytest.approx(3.0)


def test_inda_uis_no_induced_edges(path3):
    s = make_sample(path3, [0, 2], method="UIS")
    assert inda_uis_ratio(s).outcome() == NO_COLLISIONS


def test_inda_exact_recovery_property():
    for seed in range(4):
        g = erdos_renyi(25, 0.2, seed=seed)
        if g.edge_count == 0:
            continue
        s = make_sample(g, list(oracles.ext_ids(g)), method="UIS")
        assert inda_uis_ratio(s).outcome().value \
            == pytest.approx(g.node_count, rel=1e-9)


def test_mean_degree_wis(k5):
    s = make_sample(k5, [0, 1], weights=[1.0, 1.0])
    assert mean_degree_wis(s) == pytest.approx(mean_degree_uis(s))
    g = erdos_renyi(30, 0.2, seed=1)
    s = sample_wis(g, "degree", 100, seed=2)
    inv = [1.0 / w for w in s.weight_column.tolist()]
    expected = sum(d * i for d, i in zip(s.degree_column.tolist(), inv)) \
        / sum(inv)
    assert mean_degree_wis(s) == pytest.approx(expected, rel=1e-9)


def test_density_wis_triangle_equal_weights(triangle):
    s = make_sample(triangle, [0, 1, 2], weights=[2.0, 2.0, 2.0])
    assert density_wis(s) == pytest.approx(1.0)


def test_density_wis_unit_weights_reduce(path3):
    s = make_sample(path3, [0, 1, 2, 1])
    assert density_wis(s) == pytest.approx(density_uis(s), rel=1e-12)


def test_density_wis_matches_pair_loop():
    g = erdos_renyi(60, 0.15, seed=3)
    s = sample_wis(g, "degree", 150, seed=4)
    assert oracles.relerr(density_wis(s), oracles.density_wis(s)) < 1e-9


def test_inda_wis_triangle(triangle):
    s = make_sample(triangle, [0, 1, 2], weights=[2.0, 2.0, 2.0])
    assert inda_wis_ratio(s).outcome().value == pytest.approx(3.0)


def test_inda_wis_unit_reduction(path3):
    s = make_sample(path3, [0, 1, 2, 2])
    assert inda_wis_ratio(s).outcome().value \
        == pytest.approx(inda_uis_ratio(s).outcome().value, rel=1e-12)


def test_inda_wis_matches_pair_loop():
    g = erdos_renyi(50, 0.2, seed=6)
    s = sample_wis(g, "degree", 120, seed=7)
    assert oracles.relerr(inda_wis_ratio(s).outcome().value,
                          oracles.inda_wis_value(s)) < 1e-9


def test_inda_wis_median_near_truth():
    g = erdos_renyi(500, 0.05, seed=8)
    vals = []
    for t in range(100):
        s = sample_wis(g, "degree", 400, seed=t)
        out = inda_wis_ratio(s).outcome()
        assert out.finite
        vals.append(out.value)
    med = sorted(vals)[len(vals) // 2]
    assert abs(med - 500) / 500 < 0.15


def test_indb_uis_arithmetic(path3):
    # A: the middle's snapshot {0, 2} once per visit, then 0's snapshot {1}.
    s = make_sample(path3, [1] * 19 + [0], method="UIS")
    assert indb_uis_ratio(s, MODE_SET) == RatioEstimate(3.0 * 20, 20.0)
    assert indb_uis_ratio(s, MODE_MULTISET) == RatioEstimate(39.0 * 20, 38.0)
    miss = indb_uis_ratio(make_sample(path3, [0], method="UIS"))
    assert miss == RatioEstimate(1.0, 0.0)
    assert miss.outcome() == NO_COLLISIONS
    lone = make_sample(graph_from_text("0 1\n2 2\n"), [2], method="UIS")
    for kernel in (indb_uis_ratio, indb_wis_ratio):
        with pytest.raises(EstimatorError, match="auxiliary set"):
            kernel(lone)


def test_indb_wis_unit_reduction(k5):
    s = make_sample(k5, [0, 1, 2, 0], method="UIS")
    for mode in (MODE_SET, MODE_MULTISET):
        assert indb_wis_ratio(s, mode).outcome().value == pytest.approx(
            indb_uis_ratio(s, mode).outcome().value, rel=1e-12)


def test_indb_wis_triangle(triangle):
    s = make_sample(triangle, [0, 1], weights=[2.0, 2.0])
    # A = {1, 2} + {0, 2}: 3 * (1/2 + 1/2) over (1/2 + 1/2) as a set, and
    # 4 * (1/2 + 1/2) over (1/2 + 1/2) as a multiset
    assert indb_wis_ratio(s, MODE_SET).outcome().value == pytest.approx(3.0)
    assert indb_wis_ratio(s, MODE_MULTISET).outcome().value \
        == pytest.approx(4.0)


def test_indb_auto_star_recovers_n(star4):
    s = make_sample(star4, [0, 1], method="UIS")
    assert indb_auto_ratio(s).outcome().value == pytest.approx(5.0)


def test_indb_auto_modes_agree_without_duplicate_neighbors(path3):
    s = make_sample(path3, [0, 1], method="UIS")
    got_set = indb_auto_ratio(s, MODE_SET).outcome()
    got_multi = indb_auto_ratio(s, MODE_MULTISET).outcome()
    assert got_set.value == pytest.approx(3.0)
    assert got_set.value == got_multi.value


def test_indb_auto_uis_ignores_weights():
    g = erdos_renyi(40, 0.2, seed=9)
    s = sample_uis(g, 60, seed=1)
    from dataclasses import replace
    tweaked = replace(s, weight_column=np.full(len(s), 5.0))
    assert indb_auto_ratio(tweaked, MODE_SET) == indb_auto_ratio(s, MODE_SET)


def test_indb_set_mode_disperses_less_on_skewed_graph():
    g = oracles.hub_of_cliques(12, 6)
    set_err, multi_err = [], []
    n_true = g.node_count
    for t in range(200):
        s = sample_wis(g, "degree", 80, seed=t)
        for mode, sink in ((MODE_SET, set_err), (MODE_MULTISET, multi_err)):
            out = indb_auto_ratio(s, mode).outcome()
            if out.finite:
                sink.append(abs(out.value - n_true) / n_true)
    med = lambda xs: sorted(xs)[len(xs) // 2]
    assert med(set_err) <= med(multi_err) * 1.05


def test_indb_median_near_truth():
    g = erdos_renyi(2000, 0.05, seed=10)
    vals = []
    for t in range(60):
        s = sample_wis(g, "degree", 200, seed=t)
        vals.append(indb_auto_ratio(s).outcome().value)
    med = sorted(vals)[len(vals) // 2]
    assert abs(med - 2000) / 2000 < 0.1


def test_scale_invariance_wis_family():
    from dataclasses import replace
    g = erdos_renyi(40, 0.25, seed=11)
    s = sample_wis(g, "degree", 100, seed=12)
    scaled = replace(s, weight_column=s.weight_column * 7.5)
    for kernel in (inda_wis_ratio, indb_wis_ratio,
                   lambda x: indb_wis_ratio(x, MODE_MULTISET)):
        a, b = kernel(s).outcome().value, kernel(scaled).outcome().value
        assert abs(a - b) / a < 1e-12
