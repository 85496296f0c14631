import io
import math

import numpy as np
import pytest

from graphsize.generators import erdos_renyi, ring_of_cliques
from graphsize.graph import load_edge_list
from graphsize.sampling import (SamplingError, read_sample, sample_rw,
                                sample_rw_multi, sample_uis, sample_wis,
                                write_sample)

from conftest import graph_from_text


def test_uis_single_node_graph():
    g = graph_from_text("7 7\n")  # lone node via self-loop drop
    s = sample_uis(g, 5, seed=0)
    assert [r.node for r in s.records] == [0] * 5
    assert all(r.weight == 1.0 for r in s.records)


def test_uis_deterministic(k5):
    a = sample_uis(k5, 50, seed=9)
    b = sample_uis(k5, 50, seed=9)
    assert a.nodes() == b.nodes()
    assert a.nodes() != sample_uis(k5, 50, seed=10).nodes()


def test_uis_frequencies_uniform():
    g = erdos_renyi(100, 1.0, seed=0)  # K100
    n = 100_000
    s = sample_uis(g, n, seed=4)
    counts = np.bincount(s.nodes(), minlength=100)
    mean = n / 100
    sigma = math.sqrt(n * (1 / 100) * (99 / 100))
    assert np.all(np.abs(counts - mean) < 5 * sigma)


def test_uis_positions_contiguous(k5):
    s = sample_uis(k5, 10, seed=1)
    assert [r.position for r in s.records] == list(range(10))


def test_wis_two_node_frequencies():
    g = graph_from_text("0 1\n")
    n = 100_000
    s = sample_wis(g, lambda v: [1.0, 3.0][v], n, seed=5)
    counts = np.bincount(s.nodes(), minlength=2)
    for v, p in [(0, 0.25), (1, 0.75)]:
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(counts[v] - n * p) < 5 * sigma
    # records carry the weight used for drawing
    for r in s.records[:100]:
        assert r.weight == [1.0, 3.0][r.node]


def test_wis_degree_rule_on_star(star4):
    n = 50_000
    s = sample_wis(star4, "degree", n, seed=6)
    hub = star4.dense_index(0)
    freq = s.nodes().count(hub) / n
    sigma = math.sqrt(0.25 / n)
    assert abs(freq - 0.5) < 5 * sigma


def test_wis_rejects_non_positive_weight(k5):
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(SamplingError):
            sample_wis(k5, lambda v: bad if v == 2 else 1.0, 10, seed=0)


def test_rw_consecutive_nodes_adjacent():
    g = erdos_renyi(60, 0.1, seed=1)
    if not g.is_connected:
        from graphsize.graph import largest_connected_component
        g = largest_connected_component(g)
    s = sample_rw(g, 500, seed=2)
    for a, b in zip(s.records, s.records[1:]):
        assert b.node in a.neighbors
        assert a.weight == a.degree


def test_rw_next_step_uniform_on_path(path3):
    mid = path3.dense_index(1)
    nexts = [sample_rw(path3, 2, seed=s, start=mid).nodes()[1]
             for s in range(2000)]
    frac = nexts.count(path3.dense_index(0)) / len(nexts)
    assert abs(frac - 0.5) < 5 * math.sqrt(0.25 / len(nexts))


def test_rw_visits_proportional_to_degree():
    g = ring_of_cliques(4, 4)
    n = 200_000
    s = sample_rw(g, n, seed=7)
    counts = np.bincount(s.nodes(), minlength=g.node_count)
    total_deg = sum(g.degrees)
    for v in g:
        expected = g.degree(v) / total_deg
        assert abs(counts[v] / n - expected) < 0.1 * expected


def test_rw_requires_connected_graph():
    g = graph_from_text("0 1\n2 3\n")
    with pytest.raises(SamplingError, match="largest connected component"):
        sample_rw(g, 10, seed=0)


def test_rw_multi_tags_and_lengths(k5):
    s = sample_rw_multi(k5, 2, 3, seeds=[1, 2])
    assert len(s) == 6
    assert s.walkers() == [0, 0, 0, 1, 1, 1]
    assert [r.position for r in s.records] == list(range(6))


def test_rw_multi_single_walker_matches_rw(k5):
    multi = sample_rw_multi(k5, 1, 20, seeds=[3])
    single = sample_rw(k5, 20, seed=3)
    assert multi.nodes() == single.nodes()


def test_rw_multi_equal_seeds_give_equal_walks(k5):
    s = sample_rw_multi(k5, 2, 10, seeds=[5, 5])
    assert s.nodes()[:10] == s.nodes()[10:]


def test_rw_multi_seed_count_checked(k5):
    with pytest.raises(SamplingError):
        sample_rw_multi(k5, 2, 5, seeds=[1])


def test_sample_file_roundtrip(k5):
    s = sample_rw(k5, 25, seed=8)
    buf = io.StringIO()
    write_sample(s, buf, k5)
    back = read_sample(io.StringIO(buf.getvalue()))
    # external ids of k5 are 0..4, identical to dense indices
    assert back.records == s.records
    assert back.method == s.method
    assert back.seed == s.seed
    assert back.weight_rule == s.weight_rule
    assert back.graph_digest == s.graph_digest


def test_sample_file_roundtrip_preserves_float_weights():
    g = graph_from_text("0 1\n1 2\n")
    s = sample_wis(g, lambda v: 1.0 + v / 3.0, 30, seed=3)
    buf = io.StringIO()
    write_sample(s, buf, g)
    back = read_sample(io.StringIO(buf.getvalue()))
    assert back.weights() == s.weights()


def test_read_sample_rejects_foreign_file():
    with pytest.raises(SamplingError):
        read_sample(io.StringIO("something else\n"))
