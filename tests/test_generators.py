import math

import pytest

import oracles
from graphsize.generators import (barabasi_albert, erdos_renyi, grid_2d,
                                  hub_of_cliques, ring_of_cliques)
from graphsize.graph import Graph, largest_connected_component, size_identity


def test_er_deterministic():
    a = erdos_renyi(200, 0.05, seed=3)
    b = erdos_renyi(200, 0.05, seed=3)
    assert a.digest == b.digest
    assert a.digest != erdos_renyi(200, 0.05, seed=4).digest


def test_er_extremes():
    assert erdos_renyi(50, 0.0, seed=0).edge_count == 0
    full = erdos_renyi(12, 1.0, seed=0)
    assert full.edge_count == 12 * 11 // 2


def test_er_edge_count_near_expectation():
    n, p = 500, 0.04
    g = erdos_renyi(n, p, seed=11)
    pairs = n * (n - 1) // 2
    mean = pairs * p
    sigma = math.sqrt(pairs * p * (1 - p))
    assert abs(g.edge_count - mean) < 5 * sigma
    assert g.node_count == n


def test_er_simple_and_valid():
    g = erdos_renyi(80, 0.1, seed=2)
    for v in g:
        assert v not in g.neighbors(v)
    assert size_identity(g) == pytest.approx(g.node_count, rel=1e-9)


def test_ba_counts():
    n, m = 100, 3
    g = barabasi_albert(n, m, seed=1)
    assert g.node_count == n
    # path of m nodes, then m edges per new node (duplicates avoided by design)
    assert g.edge_count == (m - 1) + (n - m) * m
    for v in g:
        assert g.degree(v) >= 1


def test_ba_rejects_bad_params():
    with pytest.raises(ValueError):
        barabasi_albert(3, 3, seed=0)


def test_ring_of_cliques():
    g = ring_of_cliques(5, 4)
    assert g.node_count == 20
    assert g.edge_count == 5 * 6 + 5
    assert g.is_connected


def test_hub_of_cliques():
    g = hub_of_cliques(6, 5)
    assert g.node_count == 31
    hub = g.dense_index(30)
    assert g.degree(hub) == 6
    assert g.is_connected


def test_grid_2d():
    g = grid_2d(30, 30)
    assert g.node_count == 900
    assert g.edge_count == 2 * 30 * 29
    assert g.is_connected
    degs = sorted(set(g.degrees))
    assert degs == [2, 3, 4]


def test_grid_rejects_non_positive():
    with pytest.raises(ValueError):
        grid_2d(0, 5)


def _same_graph(got, want):
    assert got._adj == want._adj
    assert got.ext_ids == want.ext_ids
    assert got.edge_count == want.edge_count
    assert got.load_report == want.load_report
    assert got.digest == want.digest


@pytest.mark.parametrize("build", [
    lambda: erdos_renyi(300, 0.01, seed=2),   # disconnected
    lambda: erdos_renyi(60, 0.0, seed=0),     # no edges
    lambda: barabasi_albert(400, 3, seed=5),
    lambda: ring_of_cliques(2, 3),            # its bridge edge is repeated
    lambda: ring_of_cliques(1, 4),            # one clique, no bridge
    lambda: hub_of_cliques(4, 3),
    lambda: grid_2d(6, 7),
])
def test_generators_match_the_set_based_builder(build, monkeypatch):
    inputs = []
    original = Graph.from_edges.__func__

    def recording(cls, edges, extra_nodes=(), report_base=None):
        inputs.append((list(edges), list(extra_nodes)))
        return original(cls, *inputs[-1], report_base)

    monkeypatch.setattr(Graph, "from_edges", classmethod(recording))
    g = build()
    monkeypatch.undo()
    _same_graph(g, oracles.graph_from_edges(*inputs[0]))
    _same_graph(largest_connected_component(g),
                oracles.largest_connected_component(g))
