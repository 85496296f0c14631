import io
from dataclasses import replace

import pytest

from graphsize.core import (MODE_MULTISET, MODE_SET, NO_COLLISIONS,
                            EstimatorError, RatioEstimate,
                            count_induced_edges)
from graphsize.generators import erdos_renyi
from graphsize.ind_estimators import (density_wis, inda_wis_ratio,
                                      indb_wis_ratio, mean_degree_wis)
from graphsize.sampling import (SamplingError, read_sample, sample_uis,
                                sample_wis, write_sample)

import oracles
from conftest import graph_from_text, make_sample, repeated_entry_sample


def test_mean_degree_uis(k5, triangle):
    s = make_sample(triangle, [0, 1, 2], method="UIS")
    assert mean_degree_wis(s) == oracles.mean_degree_uis(s) == 2.0
    s = make_sample(k5, [3], method="UIS")
    assert mean_degree_wis(s) == oracles.mean_degree_uis(s) == 4.0


def test_mean_degree_uis_full_enumeration(path3):
    s = make_sample(path3, [0, 1, 2], method="UIS")
    assert mean_degree_wis(s) == oracles.mean_degree_uis(s) == 4 / 3


def test_density_uis(triangle, path3):
    for g, nodes, density in ((triangle, [0, 1, 2], 1.0),
                              (path3, [0, 1, 2], 2 / 3), (path3, [0, 2], 0.0)):
        s = make_sample(g, nodes, method="UIS")
        assert density_wis(s) == oracles.density_uis(s) == density
    with pytest.raises(EstimatorError):
        density_wis(make_sample(path3, [0], method="UIS"))


def test_inda_uis_exact_on_full_enumeration(triangle, path3):
    for g in (triangle, path3):
        s = make_sample(g, [0, 1, 2], method="UIS")
        assert inda_wis_ratio(s).outcome().value \
            == oracles.inda_uis_value(s) == 3.0


def test_inda_uis_no_induced_edges(path3):
    s = make_sample(path3, [0, 2], method="UIS")
    assert oracles.inda_uis_value(s) is None
    assert inda_wis_ratio(s).outcome() == NO_COLLISIONS


def test_inda_exact_recovery_property():
    for seed in range(4):
        g = erdos_renyi(25, 0.2, seed=seed)
        if g.edge_count == 0:
            continue
        s = make_sample(g, list(oracles.ext_ids(g)), method="UIS")
        value = inda_wis_ratio(s).outcome().value
        assert value == oracles.inda_uis_value(s)
        assert value == pytest.approx(g.node_count, rel=1e-9)


def test_mean_degree_wis(k5):
    s = make_sample(k5, [0, 1], weights=[1.0, 1.0])
    assert mean_degree_wis(s) == oracles.mean_degree_uis(s)
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
    assert density_wis(s) == oracles.density_uis(s)


def test_density_wis_matches_pair_loop():
    g = erdos_renyi(60, 0.15, seed=3)
    s = sample_wis(g, "degree", 150, seed=4)
    assert oracles.relerr(density_wis(s), oracles.density_wis(s)) < 1e-9


def test_inda_wis_triangle(triangle):
    s = make_sample(triangle, [0, 1, 2], weights=[2.0, 2.0, 2.0])
    assert inda_wis_ratio(s).outcome().value == pytest.approx(3.0)


def test_inda_wis_unit_reduction(path3):
    s = make_sample(path3, [0, 1, 2, 2])
    assert inda_wis_ratio(s).outcome().value == oracles.inda_uis_value(s)


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
    assert indb_wis_ratio(s, MODE_SET) == RatioEstimate(3.0 * 20, 20.0)
    assert indb_wis_ratio(s, MODE_MULTISET) == RatioEstimate(39.0 * 20, 38.0)
    miss = indb_wis_ratio(make_sample(path3, [0], method="UIS"))
    assert miss == RatioEstimate(1.0, 0.0)
    assert miss.outcome() == NO_COLLISIONS
    lone = make_sample(graph_from_text("0 1\n2 2\n"), [2], method="UIS")
    with pytest.raises(EstimatorError, match="auxiliary set"):
        indb_wis_ratio(lone)


def test_indb_wis_unit_reduction(k5):
    s = make_sample(k5, [0, 1, 2, 0], method="UIS")
    for mode in (MODE_SET, MODE_MULTISET):
        assert indb_wis_ratio(s, mode) == RatioEstimate(
            *oracles.indb_parts(s, mode, weighted=False))


def test_a_repeated_snapshot_entry_counts_in_kernels_and_oracles():
    """Node 1's snapshot names node 2 twice: route B's multiset, route A and
    the induced-edge count take both entries, and so do their oracles."""
    s = repeated_entry_sample()
    for mode in (MODE_SET, MODE_MULTISET):
        ratio = indb_wis_ratio(s, mode)
        assert (ratio.numerator, ratio.denominator) \
            == oracles.indb_parts(s, mode, weighted=True)
    assert indb_wis_ratio(s, MODE_MULTISET) == RatioEstimate(54.0, 12.0)
    assert count_induced_edges(s) == oracles.count_induced_edges(s) \
        == oracles.induced_edge_count(s) == 6
    assert density_wis(s) == oracles.density_wis(s) == 0.4
    ratio = inda_wis_ratio(s)
    assert (ratio.numerator, ratio.denominator) == oracles.inda_wis_parts(s)


def test_indb_wis_triangle(triangle):
    s = make_sample(triangle, [0, 1], weights=[2.0, 2.0])
    # A = {1, 2} + {0, 2}: 3 * (1/2 + 1/2) over (1/2 + 1/2) as a set, and
    # 4 * (1/2 + 1/2) over (1/2 + 1/2) as a multiset
    assert indb_wis_ratio(s, MODE_SET).outcome().value == pytest.approx(3.0)
    assert indb_wis_ratio(s, MODE_MULTISET).outcome().value \
        == pytest.approx(4.0)


def test_indb_auto_star_recovers_n(star4):
    s = make_sample(star4, [0, 1], method="UIS")
    assert indb_wis_ratio(s).outcome().value == 5.0


def test_indb_auto_modes_agree_without_duplicate_neighbors(path3):
    s = make_sample(path3, [0, 1], method="UIS")
    got_set = indb_wis_ratio(s, MODE_SET).outcome()
    got_multi = indb_wis_ratio(s, MODE_MULTISET).outcome()
    assert got_set.value == 3.0
    assert got_set.value == got_multi.value


def _uniform_file(weight: str) -> io.StringIO:
    """A uniform sample file whose record 7 has this weight cell."""
    sink = io.StringIO()
    write_sample(sample_uis(erdos_renyi(40, 0.2, seed=9), 60, seed=1), sink)
    head, *records = sink.getvalue().splitlines(keepends=True)
    fields = records[7].split("\t")
    records[7] = "\t".join(fields[:3] + [weight] + fields[4:])
    return io.StringIO(head + "".join(records))


@pytest.mark.parametrize("weight", ["5.0", "0.5", "1.0000000000000002"])
def test_a_uniform_sample_file_must_carry_unit_weights(weight):
    # Every IND kernel reads the weights, so a uniform file's must all be 1.
    with pytest.raises(SamplingError) as err:
        read_sample(_uniform_file(weight))
    assert str(err.value) \
        == f"record 7: weight must be 1 in a UIS sample, got {weight}"


@pytest.mark.parametrize("weight", ["1.0", "1", "1e0"])
def test_any_spelling_of_a_unit_weight_reads(weight):
    assert (read_sample(_uniform_file(weight)).weight_column == 1.0).all()


def test_indb_set_mode_disperses_less_on_skewed_graph():
    g = oracles.hub_of_cliques(12, 6)
    set_err, multi_err = [], []
    n_true = g.node_count
    for t in range(200):
        s = sample_wis(g, "degree", 80, seed=t)
        for mode, sink in ((MODE_SET, set_err), (MODE_MULTISET, multi_err)):
            out = indb_wis_ratio(s, mode).outcome()
            if out.finite:
                sink.append(abs(out.value - n_true) / n_true)
    med = lambda xs: sorted(xs)[len(xs) // 2]
    assert med(set_err) <= med(multi_err) * 1.05


def test_indb_median_near_truth():
    g = erdos_renyi(2000, 0.05, seed=10)
    vals = []
    for t in range(60):
        s = sample_wis(g, "degree", 200, seed=t)
        vals.append(indb_wis_ratio(s).outcome().value)
    med = sorted(vals)[len(vals) // 2]
    assert abs(med - 2000) / 2000 < 0.1


def test_scale_invariance_wis_family():
    g = erdos_renyi(40, 0.25, seed=11)
    s = sample_wis(g, "degree", 100, seed=12)
    scaled = replace(s, weight_column=s.weight_column * 7.5)
    for kernel in (inda_wis_ratio, indb_wis_ratio,
                   lambda x: indb_wis_ratio(x, MODE_MULTISET)):
        a, b = kernel(s).outcome().value, kernel(scaled).outcome().value
        assert abs(a - b) / a < 1e-12


@pytest.mark.parametrize("scale", [1e150, 1e-150, 2.0**-1000, 1e300])
def test_route_a_at_extreme_weight_scales(scale):
    # Route A's products of sums leave the float range at these scales
    # unless its sums are taken again at a power-of-two scale.
    g = erdos_renyi(40, 0.25, seed=11)
    s = sample_wis(g, "degree", 100, seed=12)
    scaled = replace(s, weight_column=s.weight_column * scale)
    for kernel in (lambda x: inda_wis_ratio(x).outcome().value, density_wis):
        a, b = kernel(s), kernel(scaled)
        assert abs(a - b) / a < 1e-12
