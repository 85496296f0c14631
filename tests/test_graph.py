import contextlib
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from graphsize import cli, graph
from graphsize.generators import barabasi_albert, erdos_renyi, grid_2d
from graphsize.graph import (EdgeListParseError, Graph, GraphError,
                             _sorted_ranks, exact_stats,
                             largest_connected_component, load_edge_list,
                             size_identity, write_edge_list)

from conftest import graph_from_text


def test_load_two_edge_path():
    g = graph_from_text("1 2\n2 3\n")
    assert g.node_count == 3
    assert g.edge_count == 2
    degs = dict(zip(oracles.ext_ids(g), oracles.degrees(g)))
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
    assert sum(oracles.degrees(g)) == 2 * g.edge_count


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


IDS = st.integers(0, 2**64 - 1) | st.sampled_from([0, 2**63, 2**64 - 1])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(IDS, IDS), max_size=40), st.lists(IDS, max_size=4))
def test_edge_list_writer_matches_its_reference(edges, isolated):
    """Ids up to 2^64 - 1, self-loops and repeats (cleaned away), isolated
    nodes (not written) and graphs without edges."""
    if not edges and not isolated:
        isolated = [2**64 - 1]
    g = Graph.from_edges(edges, extra_nodes=isolated)
    texts = []
    for writer in (write_edge_list, oracles.write_edge_list):
        sink = io.StringIO()
        writer(g, sink)
        texts.append(sink.getvalue())
    assert texts[0] == texts[1]


def test_lcc_picks_largest_component():
    g = graph_from_text("1 2\n2 3\n3 1\n8 9\n")
    lcc = largest_connected_component(g)
    assert lcc.ext_ids.tolist() == [1, 2, 3]
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
    ext = oracles.ext_ids(g)
    best = max(comps, key=lambda comp: (len(comp), -min(ext[v] for v in comp)))
    lcc = largest_connected_component(g)
    assert oracles.ext_ids(lcc) == tuple(sorted(ext[v] for v in best))
    assert lcc.digest == oracles.largest_connected_component(g).digest


def test_lcc_tie_break_smallest_external_id():
    g = graph_from_text("5 6\n1 2\n")
    lcc = largest_connected_component(g)
    assert lcc.ext_ids.tolist() == [1, 2]


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
    g = Graph.from_edges([], extra_nodes=[0])
    with pytest.raises(GraphError):
        exact_stats(g)


def test_size_identity_examples(k5, star4, path3):
    assert size_identity(k5) == pytest.approx(5.0, abs=1e-12)
    assert size_identity(star4) == pytest.approx(5.0, abs=1e-12)
    assert size_identity(path3) == pytest.approx(3.0, abs=1e-12)


def test_size_identity_requires_an_edge():
    g = Graph.from_edges([], extra_nodes=[0, 1])
    with pytest.raises(GraphError):
        size_identity(g)


def test_components_and_connectivity():
    g = graph_from_text("1 2\n3 4\n")
    assert not g.is_connected
    assert g.component_roots.tolist() == [0, 0, 2, 2]
    with pytest.raises(ValueError, match="read-only"):
        g.component_roots[2] = 0
    assert graph_from_text("1 2\n2 3\n").is_connected
    assert graph_from_text("7 7\n").is_connected


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
    # Sample files carry the digest, so its bytes must not change; the
    # set-based reference computes it on its own.
    assert build().digest == digest
    want = oracles.load_edge_list(io.StringIO(_HUGE_IDS))
    assert want.digest == "fe4633c5045f036f"
    assert oracles.largest_connected_component(want).digest \
        == "233ce484da1f4fb7"


def test_huge_ids_load_and_keep_their_component():
    g = graph_from_text(_HUGE_IDS)
    assert (g.node_count, g.edge_count) == (7, 5)
    assert g.load_report.self_loops_dropped == 1
    assert g.load_report.duplicates_collapsed == 1
    lcc = largest_connected_component(g)
    assert oracles.ext_ids(lcc) == (0, 2**64 - 3, 2**64 - 2, 2**64 - 1)
    assert lcc.ext_ids.dtype == np.uint64
    with pytest.raises(ValueError, match="read-only"):
        lcc.ext_ids[0] = 1
    assert lcc.edge_count == 4


@pytest.mark.parametrize("edges", [
    [(1, 2**64)], [(-1, 2)], [(3, 3), (4, -5)],
    # No cast may truncate or parse an id ...
    [(1.5, 2)], np.array([[1.7, 2.2]]), [("1", "2")],
    # ... nor flattening re-pair the ids of edges that are not pairs.
    [(1, 2, 3), (4, 5, 6)], np.arange(1, 7, dtype=np.uint64).reshape(2, 3),
    [(1,), (2,)],
])
def test_from_edges_rejects_ids_outside_64_bits(edges):
    with pytest.raises(GraphError, match=r"^(node id \S+ is not an integer "
                       r"in \[0, 2\^64\)|edge .+ is not (a pair|\(E, 2\)))$"):
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
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
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
        assert oracles.ext_ids(got) == oracles.ext_ids(want)
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


@pytest.mark.parametrize("data,want", [
    (b"1 2\r\n3 4\r\n", "nodes: 4\nedges: 2\n"),
    (b"1 2\r3 4\r", "nodes: 4\nedges: 2\n"),
    (b"# caf\xe9\n1 2\n", "error: 'utf-8' codec can't decode byte 0xe9 in "
     "position 5: invalid continuation byte\n"),
    (b"\xef\xbb\xbf1 2\n", "error: line 1: non-integer node id: "
     "'\\ufeff1 2'\n"),
], ids=["crlf", "lone-cr", "not-utf8", "bom"])
def test_every_edge_list_path_reads_the_same_bytes_alike(tmp_path, data, want):
    """load_edge_list on a binary handle and on text handles, with and
    without newline translation, and ``graphsize graphstat`` give the same
    graph or the same one error line."""
    def loaded(source):
        try:
            g = load_edge_list(source)
        except (GraphError, ValueError) as exc:
            return f"error: {exc}\n"
        return f"nodes: {g.node_count}\nedges: {g.edge_count}\n"

    got = {loaded(io.BytesIO(data))}
    for newline in (None, ""):
        got.add(loaded(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                                        newline=newline)))
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["graphstat", str(path)])
    got.add(err.getvalue() if rc == 3
            else "".join(out.getvalue().splitlines(True)[:2]))
    assert got == {want}


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
    assert g.ext_ids.tolist() == [1, 2, 3]


# -- the dense-id table against the sort -------------------------------------

_TOP = 2**64 - 1


@st.composite
def _spread_edges(draw):
    """Edges and extra nodes over up to 60 ids, dense or 2^40 apart, from 0
    or ending at 2^64 - 1, with self-loops and duplicates likely."""
    step = draw(st.sampled_from([1, 3, 2**40]))
    offset = draw(st.sampled_from([0, 7, _TOP - 59 * step]))
    ids = st.integers(0, 59).map(lambda k: offset + k * step)
    edges = draw(st.lists(st.tuples(ids, ids), max_size=40))
    extra = draw(st.lists(ids, min_size=0 if edges else 1, max_size=10))
    return edges, extra


@settings(max_examples=300, deadline=None)
@given(_spread_edges())
@example(([(k, k % 7) for k in range(30)], []))  # dense, loops, duplicates
@example(([(_TOP - k, _TOP - k // 2) for k in range(30)], [_TOP]))
@example(([(k << 40, (k + 1) << 40) for k in range(30)], []))  # sorted
@example(([], [5, 9, 6, 5]))  # extra nodes only
def test_dense_id_table_matches_the_sorted_ids(inputs):
    edges, extra = inputs
    ids = np.array([v for e in edges for v in e] + extra, dtype=np.uint64)
    # _sorted_ranks may overwrite its argument; it ranks in int32.
    got, want = _sorted_ranks(ids.copy()), np.unique(ids, return_inverse=True)
    assert (got[0].dtype, got[1].dtype) == (np.uint64, np.int32)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    got = Graph.from_edges(edges, extra_nodes=extra)
    want = oracles.graph_from_edges(edges, extra)
    assert oracles.ext_ids(got) == oracles.ext_ids(want)
    assert oracles.adjacency(got) == oracles.adjacency(want)
    assert got.load_report == want.load_report
    assert got.digest == want.digest


@pytest.mark.parametrize("step", [1, 2**40])  # a dense table, then a sort
def test_from_edges_keys_do_not_overflow_past_46341_nodes(step):
    # 50,000 nodes: a key vertex * n + neighbor passes 2^31.  The path runs
    # through the ids in random order, with edges in either orientation, a
    # self-loop and a repeated edge.
    rng = np.random.default_rng(5)
    path = rng.permutation(50_000).astype(np.uint64) * np.uint64(step) + 7
    edges = np.stack((path[:-1], path[1:]), axis=1)
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip, ::-1]
    edges = np.concatenate((edges, [[path[9], path[9]], edges[3, ::-1]]))
    got = Graph.from_edges(edges)
    want = oracles.graph_from_edges(edges.tolist())
    assert oracles.ext_ids(got) == oracles.ext_ids(want)
    assert oracles.adjacency(got) == oracles.adjacency(want)
    assert got.load_report == want.load_report
    assert got.digest == want.digest
    assert (got.load_report.self_loops_dropped,
            got.load_report.duplicates_collapsed) == (1, 1)
    # The graph keeps the arrays it built, read-only.
    for array in (got.ext_ids, *got.adjacency_arrays):
        assert not array.flags.writeable


@pytest.mark.parametrize("edges,extra", [
    ([(3, 3)], []),                          # self-loops alone: no edges
    ([(3, 3), (9, 9), (3, 3)], [4]),
    ([(1, 2), (2, 1), (1, 2), (2, 2)], []),  # every edge but one repeats
    (np.array([[5, 6], [6, 5]], dtype=np.uint64), [2**64 - 1]),
])
def test_from_edges_of_only_loops_and_repeats(edges, extra):
    got = Graph.from_edges(edges, extra_nodes=extra)
    want = oracles.graph_from_edges(np.asarray(edges).tolist(), extra)
    assert oracles.ext_ids(got) == oracles.ext_ids(want)
    assert oracles.adjacency(got) == oracles.adjacency(want)
    assert got.load_report == want.load_report
    assert got.digest == want.digest


@settings(max_examples=100, deadline=None)
@given(_edge_list(), st.sampled_from([1, 2, 3, 7]))
def test_loader_reads_across_scan_parts(text, scan):
    # The parser scans the text, and reads its tokens, a part at a time;
    # tiny parts put token and line ends on every part boundary.
    want = _outcome(load_edge_list, text)
    with mock.patch.object(graph, "_SCAN", scan):
        got = _outcome(load_edge_list, text)
    if isinstance(want, Exception):
        assert type(got) is type(want)
        assert getattr(got, "line_number", None) == getattr(
            want, "line_number", None)
    else:
        assert (oracles.adjacency(got), oracles.ext_ids(got),
                got.load_report) == (oracles.adjacency(want),
                                     oracles.ext_ids(want), want.load_report)


def _traced(call):
    """What ``call`` returns, and the traced bytes it keeps and peaks at."""
    tracemalloc.start()
    try:
        kept = call()
        return (kept, *tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()


def test_graph_builds_peak_within_a_bound_of_what_they_keep():
    # BA(20k, 5) holds about 1.8 MiB of arrays.  The bounds are the peaks
    # over what each call keeps, as measured, with about 25% headroom.
    barabasi_albert(300, 5, 1)  # warms numpy's first calls
    g, kept, peak = _traced(lambda: barabasi_albert(20000, 5, 1))
    assert peak <= 3.5 * kept
    edges = g.ext_ids[g._edges()]
    built, kept, peak = _traced(lambda: Graph.from_edges(edges))
    assert built.digest == g.digest
    assert peak <= 2.2 * kept
    sink = io.StringIO()
    write_edge_list(g, sink)
    text = sink.getvalue().encode()
    loaded, kept, peak = _traced(lambda: load_edge_list(io.BytesIO(text)))
    assert loaded.digest == g.digest
    assert peak <= 3.8 * kept


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
    assert g.component_roots.tolist() == oracles.component_roots(g)
    assert g.is_connected == (len(oracles.components(g)) == 1)
    want = oracles.largest_connected_component(g)
    got = largest_connected_component(g)
    assert (oracles.ext_ids(got), got.digest) \
        == (oracles.ext_ids(want), want.digest)


@pytest.mark.parametrize("build", [
    lambda: grid_2d(20, 30),
    lambda: erdos_renyi(2000, 0.0006, 4),     # many trees and isolated nodes
    # A path through the ids in random order: hooking needs many rounds.
    lambda: Graph.from_edges(np.random.default_rng(0).permutation(
        1000).repeat(2)[1:-1].reshape(-1, 2), extra_nodes=[5000]),
])
def test_components_match_the_reference_on_long_paths_and_forests(build):
    g = build()
    assert g.component_roots.tolist() == oracles.component_roots(g)
