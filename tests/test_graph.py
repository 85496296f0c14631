import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from graphsize import cli
from graphsize.generators import barabasi_albert, erdos_renyi, grid_2d
from graphsize.graph import (EdgeListParseError, Graph, GraphError,
                             exact_stats, largest_connected_component,
                             load_edge_list, size_identity, write_edge_list)

from conftest import graph_from_text


def test_load_two_edge_path():
    g = graph_from_text("1 2\n2 3\n")
    assert g.node_count == 3
    assert g.edge_count == 2
    degs = dict(zip(g.ext_ids, g.degrees))
    assert degs == {1: 1, 2: 2, 3: 1}


def test_load_drops_self_loop():
    g = graph_from_text("1 1\n1 2\n")
    assert g.node_count == 2
    assert g.edge_count == 1
    assert g.load_report.self_loops_dropped == 1


def test_load_collapses_duplicates_and_skips_comments():
    g = graph_from_text("1 2\n2 1\n# c\n")
    assert g.node_count == 2
    assert g.edge_count == 1
    assert g.load_report.duplicates_collapsed == 1
    assert g.load_report.comments_skipped == 1


def test_load_malformed_line_reports_line_number():
    with pytest.raises(EdgeListParseError) as exc:
        graph_from_text("1 2\n1 2 3\n")
    assert exc.value.line_number == 2


def test_load_non_integer_id_rejected():
    with pytest.raises(EdgeListParseError):
        graph_from_text("a b\n")


def test_load_empty_input_rejected():
    with pytest.raises(GraphError):
        graph_from_text("")


def test_degree_sum_is_twice_edge_count():
    g = graph_from_text("1 2\n2 3\n3 4\n4 1\n1 3\n")
    assert sum(g.degrees) == 2 * g.edge_count


def test_adjacency_is_symmetric_and_sorted():
    g = graph_from_text("5 1\n5 9\n1 9\n9 2\n")
    for v in range(g.node_count):
        nbrs = oracles.neighbors(g, v)
        assert list(nbrs) == sorted(nbrs)
        for u in nbrs:
            assert v in oracles.neighbors(g, u)
            assert oracles.has_edge(g, v, u) and oracles.has_edge(g, u, v)


def test_has_edge_negative_case():
    g = graph_from_text("0 1\n1 2\n")
    a, c = oracles.dense_index(g, 0), oracles.dense_index(g, 2)
    assert not oracles.has_edge(g, a, c)


def test_roundtrip_serialization_is_stable():
    g = graph_from_text("1 2\n2 3\n3 1\n4 5\n")
    buf = io.StringIO()
    write_edge_list(g, buf)
    g2 = load_edge_list(io.StringIO(buf.getvalue()))
    assert g2.node_count == g.node_count
    assert g2.edge_count == g.edge_count
    assert g2.digest == g.digest


def test_lcc_picks_largest_component():
    g = graph_from_text("1 2\n2 3\n3 1\n8 9\n")
    lcc = largest_connected_component(g)
    assert sorted(lcc.ext_ids) == [1, 2, 3]
    assert lcc.edge_count == 3


def test_lcc_identity_on_connected_graph():
    g = graph_from_text("1 2\n2 3\n")
    lcc = largest_connected_component(g)
    assert lcc is g
    assert lcc.digest == graph_from_text("1 2\n2 3\n").digest


def test_lcc_of_a_disconnected_graph_is_its_largest_component():
    g = erdos_renyi(300, 0.01, seed=2)
    comps = oracles.components(g)
    assert len(comps) > 1
    ext = g.ext_ids
    best = max(comps, key=lambda comp: (len(comp), -min(ext[v] for v in comp)))
    lcc = largest_connected_component(g)
    assert lcc.ext_ids == tuple(sorted(ext[v] for v in best))
    assert lcc.digest == oracles.largest_connected_component(g).digest


def test_lcc_tie_break_smallest_external_id():
    g = graph_from_text("5 6\n1 2\n")
    lcc = largest_connected_component(g)
    assert sorted(lcc.ext_ids) == [1, 2]


def test_exact_stats_k5(k5):
    stats = exact_stats(k5)
    assert stats.mean_degree == pytest.approx(4.0)
    assert stats.density == pytest.approx(1.0)


def test_exact_stats_star(star4):
    stats = exact_stats(star4)
    assert stats.mean_degree == pytest.approx(1.6)
    assert stats.density == pytest.approx(0.4)


def test_exact_stats_path(path3):
    stats = exact_stats(path3)
    assert stats.mean_degree == pytest.approx(4.0 / 3.0)
    assert stats.density == pytest.approx(2.0 / 3.0)
    assert stats.mean_square_degree >= stats.mean_degree ** 2


def test_exact_stats_requires_two_nodes():
    g = oracles.graph_from_adjacency([()], [0])
    with pytest.raises(GraphError):
        exact_stats(g)


def test_size_identity_examples(k5, star4, path3):
    assert size_identity(k5) == pytest.approx(5.0, abs=1e-12)
    assert size_identity(star4) == pytest.approx(5.0, abs=1e-12)
    assert size_identity(path3) == pytest.approx(3.0, abs=1e-12)


def test_size_identity_requires_an_edge():
    g = oracles.graph_from_adjacency([(), ()], [0, 1])
    with pytest.raises(GraphError):
        size_identity(g)


def test_components_and_connectivity():
    g = graph_from_text("1 2\n3 4\n")
    assert not g.is_connected
    assert len(g.components) == 2
    assert graph_from_text("1 2\n2 3\n").is_connected


# -- pinned digests and validation errors -----------------------------------

# Ids near 2^63 and 2^64 - 1, a self-loop, a duplicate in both orientations;
# its largest component is the triangle on the three largest ids plus 0.
_HUGE_IDS = (f"{2**64 - 1} {2**64 - 2}\n{2**64 - 2} {2**64 - 3}\n"
             f"{2**64 - 1} {2**64 - 3}\n0 {2**64 - 1}\n"
             f"{2**63} {2**63 + 1}\n5 5\n{2**64 - 2} {2**64 - 1}\n")


@pytest.mark.parametrize("build,digest", [
    (lambda: erdos_renyi(200, 0.05, 3), "6269ce9b618ef761"),
    (lambda: barabasi_albert(500, 3, 7), "a341ee4cc8129df1"),
    (lambda: grid_2d(5, 5), "cf3b264a5aa95482"),
    (lambda: graph_from_text(_HUGE_IDS), "fe4633c5045f036f"),
    (lambda: largest_connected_component(graph_from_text(_HUGE_IDS)),
     "233ce484da1f4fb7"),
])
def test_digest_is_pinned(build, digest):
    # Sample files carry the digest, so its bytes must not change.
    assert build().digest == digest


def test_huge_ids_load_and_keep_their_component():
    g = graph_from_text(_HUGE_IDS)
    assert (g.node_count, g.edge_count) == (7, 5)
    assert g.load_report.self_loops_dropped == 1
    assert g.load_report.duplicates_collapsed == 1
    lcc = largest_connected_component(g)
    assert lcc.ext_ids == (0, 2**64 - 3, 2**64 - 2, 2**64 - 1)
    assert lcc.edge_count == 4


@pytest.mark.parametrize("adjacency,message", [
    ([(1, 2), (1,), (0, 1)], "self-loop at dense index 1"),
    ([(2, 1), (0,), (0,)], "adjacency of 0 not sorted/unique"),
    ([(1,), (0, 0), ()], "adjacency of 1 not sorted/unique"),
    ([(1, 3), (0,), ()], "neighbor index 3 out of range"),
    # The first offending vertex is reported, not the first kind of error.
    ([(1, 5), (1,)], "neighbor index 5 out of range"),
    # Of one entry's failed checks, self-loop comes before order ...
    ([(1,), (2, 1), (1,)], "self-loop at dense index 1"),
    # ... and order before range: a leading negative is out of order.
    ([(-1,), ()], "adjacency of 0 not sorted/unique"),
])
def test_validate_names_the_first_offender(adjacency, message):
    with pytest.raises(GraphError) as exc:
        oracles.graph_from_adjacency(adjacency, list(range(len(adjacency))))
    assert str(exc.value) == message


@pytest.mark.parametrize("ext_ids,message", [
    ([5, 3, 7], "external id 3 at dense index 1 does not exceed its "
                "predecessor"),
    ([0, 4, 4], "external id 4 at dense index 2 does not exceed its "
                "predecessor"),
])
def test_constructor_rejects_ids_out_of_order(ext_ids, message):
    # dense_index bisects the ids, and the digest orients edges by index.
    with pytest.raises(GraphError) as exc:
        oracles.graph_from_adjacency([(1,), (0,), ()], ext_ids)
    assert str(exc.value) == message


@pytest.mark.parametrize("edges", [[(1, 2**64)], [(-1, 2)], [(3, 3), (4, -5)]])
def test_from_edges_rejects_ids_outside_64_bits(edges):
    with pytest.raises(GraphError, match="outside \\[0, 2\\^64\\)"):
        Graph.from_edges(edges)


# -- the array loader against the line-by-line reference ---------------------

_NEAR = [0, 1, 2, 3, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1]
_PAD = st.text(" \t", max_size=2)
_GAP = st.text(" \t", min_size=1, max_size=2)
_BAD = ["one field", "three fields", "-1", "-3", str(2**64),
        str(2**64 + 1), str(10**25), "x", "1a", "0x1f", "#1"]


@st.composite
def _line(draw):
    kind = draw(st.sampled_from(["edge"] * 4 + ["blank", "comment"]))
    pad, end = draw(_PAD), draw(_PAD)
    if kind == "blank":
        return pad
    if kind == "comment":
        return pad + "#" + draw(st.text(st.characters(
            blacklist_categories=("Cs",), blacklist_characters="\r\n"),
            max_size=8))
    return pad + draw(_GAP).join(str(draw(st.sampled_from(_NEAR)))
                                 for _ in range(2)) + end


@st.composite
def _bad_line(draw):
    """A line with one or three ids, or with one id malformed."""
    ids = [str(draw(st.sampled_from(_NEAR))) for _ in range(3)]
    bad = draw(st.sampled_from(_BAD))
    if bad == "one field":
        ids = ids[:1]
    elif bad != "three fields":
        ids = ids[:2]
        # A leading '#' would make the line a comment.
        ids[1 if bad == "#1" else draw(st.integers(0, 1))] = bad
    return draw(_PAD) + draw(_GAP).join(ids) + draw(_PAD)


@st.composite
def _edge_list(draw):
    lines = draw(st.lists(_line(), max_size=12))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(_bad_line()))
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    text = "".join(line + e for line, e in zip(lines, ends))
    return text[:-1] if lines and draw(st.booleans()) else text


def _outcome(load, text):
    try:
        return load(io.StringIO(text))
    except GraphError as exc:
        return exc


@settings(max_examples=300, deadline=None)
@given(_edge_list())
def test_loader_matches_the_line_by_line_reference(tmp_path_factory, text):
    want = _outcome(oracles.load_edge_list, text)
    got = _outcome(load_edge_list, text)
    if isinstance(want, Exception):
        assert type(got) is type(want)
        if isinstance(want, EdgeListParseError):
            assert got.line_number == want.line_number
    else:
        assert oracles.adjacency(got) == oracles.adjacency(want)
        assert got.ext_ids == want.ext_ids
        assert got.edge_count == want.edge_count
        assert got.load_report == want.load_report
        assert got.digest == want.digest
    path = tmp_path_factory.getbasetemp() / "fuzzed-edge-list.txt"
    path.write_bytes(text.encode("utf-8"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["graphstat", str(path)])
    assert rc in (0, 3)
    if rc == 3:
        assert err.getvalue().startswith("error:")
        assert err.getvalue().count("\n") == 1
    if isinstance(want, EdgeListParseError):
        assert rc == 3 and f"line {want.line_number}:" in err.getvalue()


@pytest.mark.parametrize("line", ["+5 1", "1_0 2", "\u0661 2", "1 \uff12",
                                  "000000000000000000001 2"])
def test_loader_accepts_only_ascii_decimal_ids(line):
    # int() takes each of these; an edge-list id is 1 to 20 ASCII digits.
    text = f"1 2\n{line}\n"
    assert oracles.load_edge_list(io.StringIO(text)).edge_count >= 1
    with pytest.raises(EdgeListParseError) as exc:
        graph_from_text(text)
    assert exc.value.line_number == 2


@pytest.mark.parametrize("text,line_number,reason", [
    ("1 2\n1 2 3\n", 2, "expected two node ids"),
    ("1 2\n\n  # note\n7\n", 4, "expected two node ids"),
    ("1 x\n", 1, "non-integer node id"),
    ("1 2\n-1 x\n", 2, "non-integer node id"),
    ("1 2\n3 -4\n", 2, "negative node id"),
    ("1 18446744073709551616\n", 1, "node id not below 2^64"),
    ("1 000000000000000000001\n", 1, "node id longer than 20 digits"),
    ("1 2\n3 4 # trailing comment\n", 2, "expected two node ids"),
])
def test_parse_error_names_line_and_reason(text, line_number, reason):
    with pytest.raises(EdgeListParseError) as exc:
        graph_from_text(text)
    assert exc.value.line_number == line_number
    assert f"line {line_number}: {reason}:" in str(exc.value)


def test_load_report_counts_lines_and_comments():
    g = graph_from_text("# header\r\n\t1\t2 \r\n\n  #x\n2 1\n3 3")
    assert g.load_report.lines_read == 6
    assert g.load_report.comments_skipped == 2
    assert g.load_report.duplicates_collapsed == 1
    assert g.load_report.self_loops_dropped == 1
    assert g.ext_ids == (1, 2, 3)


# -- components against the breadth-first reference ---------------------------


@st.composite
def _scattered_graph(draw):
    """A graph on up to 60 ids with few edges: isolated nodes, and often
    many components."""
    ids = st.integers(0, 59)
    edges = draw(st.lists(st.tuples(ids, ids), max_size=40))
    extra = draw(st.lists(ids, max_size=20))
    if not edges and not extra:
        extra = [0]
    return Graph.from_edges(edges, extra_nodes=extra)


@settings(max_examples=300, deadline=None)
@given(_scattered_graph())
def test_components_match_the_breadth_first_reference(g):
    assert g.components == oracles.components(g)
    assert g.is_connected == (len(oracles.components(g)) == 1)
    want = oracles.largest_connected_component(g)
    got = largest_connected_component(g)
    assert (got.ext_ids, got.digest) == (want.ext_ids, want.digest)


@pytest.mark.parametrize("build", [
    lambda: grid_2d(20, 30),
    lambda: erdos_renyi(2000, 0.0006, 4),     # many trees and isolated nodes
    # A path through the ids in random order: hooking needs many rounds.
    lambda: Graph.from_edges(np.random.default_rng(0).permutation(
        1000).repeat(2)[1:-1].reshape(-1, 2), extra_nodes=[5000]),
])
def test_components_match_the_reference_on_long_paths_and_forests(build):
    g = build()
    assert g.components == oracles.components(g)
