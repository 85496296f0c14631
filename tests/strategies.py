"""Hypothesis strategies and inputs shared by several test modules.

Test modules import from here, never from one another, so an import error
in one test module stays in that module.
"""

import io
import re

from hypothesis import assume, strategies as st

from graphsize.generators import erdos_renyi
from graphsize.graph import largest_connected_component
from graphsize.sampling import sample_rw_multi, sample_uis, write_sample

import oracles

ALPHABET = "0123456789.,-=e:#\t\n "


def _sample_text(draw_sample) -> str:
    g = largest_connected_component(erdos_renyi(12, 0.4, seed=1))
    sink = io.StringIO()
    write_sample(draw_sample(g), sink)
    return sink.getvalue()


SAMPLE = _sample_text(lambda g: sample_rw_multi(g, 2, 8, seeds=[1, 2]))
UIS_SAMPLE = _sample_text(lambda g: sample_uis(g, 12, seed=1))


@st.composite
def mutated(draw, text: str) -> str:
    """``text`` after one to four edits, each of which inserts, deletes or
    replaces a run of up to three characters."""
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.sampled_from(("insert", "delete", "replace")))
        run = draw(st.integers(1, 3))
        new = "" if cut == "delete" else draw(
            st.text(st.sampled_from(ALPHABET), min_size=run, max_size=run))
        text = text[:at] + new + text[at + (0 if cut == "insert" else run):]
    result = text
    assume(not re.search(r"\d{4}", result))
    return result


@st.composite
def walk_like_samples(draw):
    """Concatenated walks over a small node pool.

    Nodes repeat within and across walks; a node's snapshot may be empty and
    may name nodes that are never sampled; ids are spread over 40 bits.
    """
    ids = st.integers(min_value=0, max_value=2**40)
    pool = draw(st.lists(ids, min_size=1, max_size=8, unique=True))
    unsampled = draw(st.lists(ids, max_size=4))
    snapshot = {v: tuple(draw(st.lists(
        st.sampled_from([u for u in pool + unsampled if u != v]
                        or [2**40 + 1]),
        max_size=5, unique=True))) for v in pool}
    walks = draw(st.lists(st.lists(st.sampled_from(pool), min_size=1,
                                   max_size=12), min_size=1, max_size=3))
    nodes = tuple(v for walk in walks for v in walk)
    weights = tuple(draw(st.floats(min_value=0.25, max_value=8.0))
                    for _ in nodes)
    walkers = tuple(k for k, walk in enumerate(walks) for _ in walk)
    method = "RW_MULTI" if len(walks) > 1 else "RW"
    return oracles.sample_from_snapshots(nodes, weights, walkers, snapshot,
                                         method, 0, "custom", "synthetic")
