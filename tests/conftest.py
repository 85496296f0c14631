import io

import pytest

from graphsize.graph import Graph, load_edge_list
from graphsize.sampling import Sample

import oracles


def graph_from_text(text: str) -> Graph:
    return load_edge_list(io.StringIO(text))


def make_sample(g: Graph, ext_nodes, weights=None, method="WIS",
                walkers=None, weight_rule="custom") -> Sample:
    """Hand-built sample over a real graph, nodes given and named by
    external id, as a drawn sample names them."""
    ext = oracles.ext_ids(g)
    n = len(ext_nodes)
    return oracles.sample_from_snapshots(
        tuple(ext_nodes),
        (1.0,) * n if weights is None else tuple(map(float, weights)),
        (0,) * n if walkers is None else tuple(walkers),
        {v: tuple(ext[u] for u in oracles.neighbors(
            g, oracles.dense_index(g, v))) for v in ext_nodes},
        method, seed=0, weight_rule=weight_rule, graph_digest=g.digest)


def repeated_entry_sample() -> Sample:
    """A hand-made two-walker sample whose node 1 has the snapshot (2, 2),
    as a sample file may give it: the multiset kernels count both
    entries."""
    return oracles.sample_from_snapshots(
        (1, 1, 2, 3, 3, 3), (1.0,) * 6, (0, 1, 1, 1, 1, 1),
        {1: (2, 2), 2: (1, 3), 3: (2,)}, "RW_MULTI", 0, "custom", "synthetic")


@pytest.fixture
def triangle():
    return graph_from_text("0 1\n1 2\n0 2\n")


@pytest.fixture
def path3():
    return graph_from_text("0 1\n1 2\n")


@pytest.fixture
def star4():
    # hub is external id 0, leaves 1..4
    return graph_from_text("0 1\n0 2\n0 3\n0 4\n")


@pytest.fixture
def k5():
    lines = [f"{a} {b}" for a in range(5) for b in range(a + 1, 5)]
    return graph_from_text("\n".join(lines) + "\n")
