import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphsize.generators import (barabasi_albert, erdos_renyi, grid_2d,
                                  ring_of_cliques)
from graphsize.graph import load_edge_list
from graphsize.sampling import (SamplingError, read_sample, sample_rw,
                                sample_rw_multi, sample_uis, sample_wis,
                                write_sample)

import oracles
from conftest import graph_from_text


def test_uis_single_node_graph():
    g = graph_from_text("7 7\n")  # lone node via self-loop drop
    s = sample_uis(g, 5, seed=0)
    assert oracles.views(s).node_at == (0,) * 5
    assert oracles.views(s).weight_at == (1.0,) * 5


def test_uis_deterministic(k5):
    a = sample_uis(k5, 50, seed=9)
    b = sample_uis(k5, 50, seed=9)
    other = sample_uis(k5, 50, seed=10)
    assert oracles.views(a).node_at == oracles.views(b).node_at
    assert oracles.views(a).node_at != oracles.views(other).node_at


def test_uis_frequencies_uniform():
    g = erdos_renyi(100, 1.0, seed=0)  # K100
    n = 100_000
    s = sample_uis(g, n, seed=4)
    counts = np.bincount(oracles.views(s).node_at, minlength=100)
    mean = n / 100
    sigma = math.sqrt(n * (1 / 100) * (99 / 100))
    assert np.all(np.abs(counts - mean) < 5 * sigma)


def test_uis_positions_contiguous(k5):
    s = sample_uis(k5, 10, seed=1)
    node_at, weight_at, walker_at, _ = oracles.views(s)
    assert len(node_at) == len(weight_at) == len(walker_at) == 10
    assert _written_positions(s) == list(range(10))


def test_wis_two_node_frequencies():
    g = graph_from_text("0 1\n")
    n = 100_000
    s = sample_wis(g, lambda v: [1.0, 3.0][v], n, seed=5)
    counts = np.bincount(oracles.views(s).node_at, minlength=2)
    for v, p in [(0, 0.25), (1, 0.75)]:
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(counts[v] - n * p) < 5 * sigma
    # positions carry the weight used for drawing
    node_at, weight_at, _, _ = oracles.views(s)
    for v, w in zip(node_at[:100], weight_at):
        assert w == [1.0, 3.0][v]


def test_wis_degree_rule_on_star(star4):
    n = 50_000
    s = sample_wis(star4, "degree", n, seed=6)
    hub = oracles.dense_index(star4, 0)
    freq = oracles.views(s).node_at.count(hub) / n
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
    node_at, weight_at, _, snapshots = oracles.views(s)
    for a, b, w in zip(node_at, node_at[1:], weight_at):
        assert b in snapshots[a]
        assert w == len(snapshots[a]) == g.degrees[a]


def test_rw_next_step_uniform_on_path(path3):
    # A walk on 0-1-2 is at the middle by its second step; the step after
    # its first visit there draws a fresh uniform.
    mid = oracles.dense_index(path3, 1)
    nexts = []
    for s in range(2000):
        walk = oracles.views(sample_rw(path3, 3, seed=s)).node_at
        nexts.append(walk[walk.index(mid) + 1])
    frac = nexts.count(oracles.dense_index(path3, 0)) / len(nexts)
    assert abs(frac - 0.5) < 5 * math.sqrt(0.25 / len(nexts))


def test_rw_visits_proportional_to_degree():
    g = ring_of_cliques(4, 4)
    n = 200_000
    s = sample_rw(g, n, seed=7)
    counts = np.bincount(oracles.views(s).node_at, minlength=g.node_count)
    total_deg = sum(g.degrees)
    for v in range(g.node_count):
        expected = g.degrees[v] / total_deg
        assert abs(counts[v] / n - expected) < 0.1 * expected


def test_rw_requires_connected_graph():
    g = graph_from_text("0 1\n2 3\n")
    with pytest.raises(SamplingError, match="largest connected component"):
        sample_rw(g, 10, seed=0)


def test_rw_multi_tags_and_lengths(k5):
    s = sample_rw_multi(k5, 2, 3, seeds=[1, 2])
    assert len(s) == 6
    assert oracles.views(s).walker_at == (0, 0, 0, 1, 1, 1)
    assert _written_positions(s) == list(range(6))


def test_rw_multi_single_walker_matches_rw(k5):
    multi = sample_rw_multi(k5, 1, 20, seeds=[3])
    single = sample_rw(k5, 20, seed=3)
    assert oracles.views(multi).node_at == oracles.views(single).node_at


def test_rw_multi_equal_seeds_give_equal_walks(k5):
    s = sample_rw_multi(k5, 2, 10, seeds=[5, 5])
    nodes = oracles.views(s).node_at
    assert nodes[:10] == nodes[10:]


def test_rw_multi_seed_count_checked(k5):
    with pytest.raises(SamplingError):
        sample_rw_multi(k5, 2, 5, seeds=[1])


def test_sample_file_roundtrip(k5):
    s = sample_rw(k5, 25, seed=8)
    buf = io.StringIO()
    write_sample(s, buf, k5)
    back = read_sample(io.StringIO(buf.getvalue()))
    # external ids of k5 are 0..4, identical to dense indices
    assert oracles.same_sample(back, s)


def test_sample_file_roundtrip_preserves_float_weights():
    g = graph_from_text("0 1\n1 2\n")
    s = sample_wis(g, lambda v: 1.0 + v / 3.0, 30, seed=3)
    buf = io.StringIO()
    write_sample(s, buf, g)
    back = read_sample(io.StringIO(buf.getvalue()))
    assert oracles.views(back).weight_at == oracles.views(s).weight_at


def test_read_sample_rejects_foreign_file():
    with pytest.raises(SamplingError):
        read_sample(io.StringIO("something else\n"))


def _written_positions(s) -> list[int]:
    buf = io.StringIO()
    write_sample(s, buf)
    return [int(line.split("\t")[0])
            for line in buf.getvalue().splitlines()[1:]]


def test_sample_keeps_one_snapshot_per_distinct_node(k5):
    snapshots = {v: oracles.neighbors(k5, v) for v in range(k5.node_count)}
    s = oracles.sample_from_snapshots((3, 1, 3, 0), (1.0,) * 4, (0,) * 4,
                                      snapshots, "UIS", 0, "unit", k5.digest)
    # One CSR row per distinct sampled node, in order of first appearance.
    assert s.ids[:3] == (3, 1, 0) and len(s.offsets) == 4
    assert list(oracles.views(s).snapshots) == [3, 1, 0]
    assert s.degree_column.tolist() == [4, 4, 4, 4]
    for column in (s.rank_column, s.offsets, s.entries, s.degree_column):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 2
    tail = s.subset([3, 1])
    assert oracles.views(tail).node_at == (0, 1)
    assert list(oracles.views(tail).snapshots) == [0, 1]
    assert tail.ids is s.ids and tail.entries is s.entries
    with pytest.raises(SamplingError, match="differ in length"):
        replace(s, weight_column=np.ones(3))


def _draw(method, g, n, seed=7):
    """A sample of size n (a multiple of 4 for rw-multi's four walkers)."""
    if method == "uis":
        return sample_uis(g, n, seed)
    if method == "wis":
        return sample_wis(g, "degree", n, seed)
    if method == "rw":
        return sample_rw(g, n, seed)
    return sample_rw_multi(g, 4, n // 4, seeds=[seed + k for k in range(4)])


METHODS = ("rw", "rw-multi", "uis", "wis")


def _per_walker(s) -> dict[int, list[tuple[int, float]]]:
    walks: dict[int, list[tuple[int, float]]] = {}
    node_at, weight_at, walker_at, _ = oracles.views(s)
    for v, w, k in zip(node_at, weight_at, walker_at):
        walks.setdefault(k, []).append((v, w))
    return walks


def _assert_head(method, large, small):
    """``small`` is the head of ``large``, per walker for rw-multi."""
    n = len(small)
    if method == "rw-multi":
        walks = _per_walker(large)
        assert _per_walker(small) == {
            k: walk[:n // 4] for k, walk in walks.items()}
    else:
        assert oracles.views(small) == oracles.views(large.subset(range(n)))


@pytest.mark.parametrize("method", METHODS)
def test_samplers_are_prefix_stable(method):
    """With a fixed seed, a smaller sample is the head of a larger one (per
    walker for rw-multi), so a trial can draw once and slice."""
    g = barabasi_albert(500, 3, seed=7)
    large = _draw(method, g, 400)
    for n in (4, 8, 100, 396):
        _assert_head(method, large, _draw(method, g, n))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(METHODS), st.integers(0, 2**16),
       st.integers(0, 2**63), st.integers(1, 60), st.data())
def test_samplers_are_prefix_stable_property(method, graph_seed, seed, large_n,
                                             data):
    """The prefix stability that n-grid experiments rely on, over graphs,
    sampler seeds and sizes."""
    g = barabasi_albert(40, 2, seed=graph_seed)
    unit = 4 if method == "rw-multi" else 1
    large = _draw(method, g, large_n * unit, seed)
    sizes = data.draw(st.lists(st.integers(1, large_n), min_size=1,
                               max_size=4))
    for n in sizes:
        _assert_head(method, large, _draw(method, g, n * unit, seed))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["ba", "ring", "grid"]), st.integers(0, 2**16),
       st.integers(1, 400))
def test_walk_matches_the_neighbor_tuple_reference(kind, seed, n):
    g = {"ba": lambda: barabasi_albert(300, 2, seed % 7),
         "ring": lambda: ring_of_cliques(5, 4),
         "grid": lambda: grid_2d(6, 9)}[kind]()
    want = tuple(oracles.walk(g, n, seed))
    assert oracles.views(sample_rw(g, n, seed)).node_at == want
    assert oracles.views(sample_rw_multi(g, 1, n, [seed])).node_at == want
