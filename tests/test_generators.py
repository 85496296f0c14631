import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from graphsize.generators import (barabasi_albert, bounded_draws,
                                  erdos_renyi, grid_2d, hub_of_cliques,
                                  raw_words, ring_of_cliques)
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
    for v in range(g.node_count):
        assert v not in oracles.neighbors(g, v)
    assert size_identity(g) == pytest.approx(g.node_count, rel=1e-9)


def test_ba_counts():
    n, m = 100, 3
    g = barabasi_albert(n, m, seed=1)
    assert g.node_count == n
    # path of m nodes, then m edges per new node (duplicates avoided by design)
    assert g.edge_count == (m - 1) + (n - m) * m
    assert min(g.degrees) >= 1


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
    hub = oracles.dense_index(g, 30)
    assert g.degrees[hub] == 6
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
    assert oracles.adjacency(got) == oracles.adjacency(want)
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



# -- the raw-stream replay against rng.integers ------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 400), st.integers(1, 8), st.integers(0, 2**32))
def test_ba_matches_the_integers_reference(n, m, seed):
    m = min(m, n - 1)
    got = barabasi_albert(n, m, seed)
    want = oracles.barabasi_albert(n, m, seed)
    assert got.digest == want.digest
    for a, b in zip(got.adjacency_arrays, want.adjacency_arrays):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("args", [(2000, 3, 1), (20000, 5, 1), (300, 1, 2),
                                  (50, 7, 9), (2, 1, 0)])
def test_ba_matches_the_integers_reference_at_bench_sizes(args):
    want = oracles.barabasi_albert(*args).digest
    assert barabasi_albert(*args).digest == want


# Far below 1/n^2, a batch of unclipped gaps sums past 2^63: numpy draws
# gaps near 1/p, and the largest int64 once 1/p is beyond it.
_TINY_P = [1e-300, 1e-18, 1e-9]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 120),
       st.sampled_from([0.0, 1.0] + _TINY_P) | st.floats(0.001, 1.0),
       st.integers(0, 2**32))
# Unclipped, 1e-18 wraps to negative pair indices, 1e-300 loops forever.
@example(10, 1e-18, 3)
@example(10, 1e-300, 0)
def test_er_matches_the_one_gap_per_call_reference(n, p, seed):
    got, want = erdos_renyi(n, p, seed), oracles.erdos_renyi(n, p, seed)
    assert got.digest == want.digest
    assert got.load_report == want.load_report


# 2^31 + 1 drops almost half of its words, 2^32 - 1 only a word of zero.
_EDGE_BOUNDS = [1, 2, 3, 2**31, 2**31 + 1, 2**32 - 1]


@pytest.mark.parametrize("bound", _EDGE_BOUNDS)
def test_bounded_draws_replay_integers_at_the_edges(bound):
    rng = np.random.default_rng(5)
    draws = bounded_draws(raw_words(np.random.default_rng(5).bit_generator),
                          bound)
    want = [int(rng.integers(bound)) for _ in range(3000)]
    assert [next(draws) for _ in range(3000)] == want


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_EDGE_BOUNDS),
                          st.integers(1, 2**32 - 1)), min_size=1, max_size=60),
       st.integers(0, 2**64 - 1))
def test_bounded_draws_replay_integers(bounds, seed):
    # A fresh draw iterator per bound, as barabasi_albert makes one per node.
    rng = np.random.default_rng(seed)
    words = raw_words(np.random.default_rng(seed).bit_generator)
    want = [int(rng.integers(b)) for b in bounds]
    assert [next(bounded_draws(words, b)) for b in bounds] == want


@pytest.mark.parametrize("bound", [0, -1, 2**32, 2**40])
def test_bounded_draws_reject_bounds_outside_32_bits(bound):
    words = raw_words(np.random.default_rng(0).bit_generator)
    with pytest.raises(ValueError, match="outside"):
        bounded_draws(words, bound)
