"""The array-native sample against its record-by-record references.

``read_sample`` parses a file with byte arrays; ``oracles.read_sample`` is
the per-record loop it replaced.  The counting kernels work on dense ranks;
``oracles.count_induced_edges``, ``oracles.inda_wis_parts``,
``oracles.indb_parts`` and ``oracles.capture_split`` are dict and set loops
over node ids, and must agree bit for bit.
"""

import ast
import contextlib
import io
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from graphsize.cli import main
from graphsize.core import (A_MODES, MODE_MULTISET, MODE_SET,
                            EstimatorError, count_induced_edges)
from graphsize.experiment import (ESTIMATORS, EstimatorSpec, SamplerSpec,
                                  _head, draw_sample)
from graphsize.generators import barabasi_albert
from graphsize.graph import Graph, GraphError
from graphsize.ind_estimators import (_edge_pair_sum, _in_first_seen_order,
                                      inda_wis_ratio, indb_wis_ratio)
from graphsize.node_estimators import capture_recapture_from_sample
from graphsize.rw_correction import margin_crosswalker, margin_ratios
from graphsize.sampling import (Sample, SamplingError, _first_seen,
                                read_sample, sample_rw_multi, sample_uis,
                                sample_wis, write_sample)

import graphsize
import oracles
from strategies import SAMPLE, UIS_SAMPLE, mutated, walk_like_samples

HEADER = ("graphsize-sample v1\tmethod=RW_MULTI\tseed=0\tweight_rule=degree"
          "\tgraph_digest=x\trng=numpy-pcg64\tn={n}\n")

# A message the array reader gives where the reference, which reads fields
# with int() and float(), accepts: it reads integers as an edge list reads
# node ids, 1 to 20 ASCII digits below 2^64, weights as ASCII, and walker ids
# below 2^63.
CELL = "1 to 20 ASCII digits below 2\\^64"
NARROWED = re.compile(rf"record \d+: (?:(position|node|degree|walker) (.*) is "
                      rf"not {CELL}|(snapshot) (.*) is not a comma-separated "
                      rf"list of {CELL}|(weight) (.*) is not a number|"
                      r"(walker) (.*) is not below 2\^63)$")


def _outcome(read, text):
    try:
        return read(io.StringIO(text))
    except (SamplingError, GraphError) as exc:
        return str(exc)


def _is_cell(text):
    """Whether ``text``, which int() reads, is an integer cell of the
    narrowed grammar: not so when it is not ASCII digits, has a sign (as
    ``-0`` has), has more than 20 characters, or is 2^64 or more."""
    value = int(text)  # the reference's reading
    return re.fullmatch(r"[0-9]{1,20}", text) is not None and value < 2**64


def _assert_narrowed(message):
    """``message`` rejects a field of the narrowed grammar that the
    reference reads."""
    match = NARROWED.match(message)
    assert match, message
    name, text = (group for group in match.groups() if group is not None)
    text = ast.literal_eval(text)
    if name == "weight":
        float(text)  # the reference's reading
        with pytest.raises(ValueError):
            float(text.encode())
    elif match.group(7):
        assert _is_cell(text) and int(text) >= 2**63, message
    elif name == "snapshot":
        assert not all(map(_is_cell, text.split(","))), message
    else:
        assert not _is_cell(text), message


def _assert_same(text):
    """Both readers give the same sample or the same message, unless the
    array reader rejects a field of the narrowed grammar.  The reference
    fails with a GraphError when it builds a sample over an id outside
    [0, 2^64)."""
    new, old = _outcome(read_sample, text), _outcome(oracles.read_sample, text)
    if isinstance(new, Sample) and isinstance(old, Sample):
        assert oracles.same_sample(new, old)
    elif new != old:
        assert isinstance(new, str), (new, old)
        _assert_narrowed(new)
    return new


@settings(max_examples=300, deadline=None)
@given(mutated(SAMPLE))
def test_reader_matches_the_record_loop_on_mutated_files(text):
    _assert_same(text)


def _file(records, trailer="\n"):
    return HEADER.format(n=len(records)) + "\n".join(records) + trailer


CASES = {
    "zero-padded-repeat": _file(["0\t5\t2\t2.0\t0\t1,2", "1\t1\t1\t1.0\t0\t5",
                                 "2\t005\t2\t2.0\t1\t01,0002"]),
    "signed-zero": _file(["0\t-0\t1\t1.0\t0\t-7", "1\t0\t1\t1.0\t0\t-07"]),
    "blank-lines": HEADER.format(n=2) + "\n0\t5\t0\t1.0\t0\t\n\n\n"
                   "1\t6\t0\t3.5\t1\t\n\n",
    "no-trailing-newline": _file(["0\t5\t0\t1.0\t0\t", "1\t5\t0\t1.0\t0\t"],
                                 trailer=""),
    "empty-snapshots": _file(["0\t5\t0\t1.0\t0\t", "1\t5\t0\t1.0\t0\t",
                              "2\t6\t1\t1.0\t0\t5"]),
    "repeat-that-differs": _file(["0\t5\t2\t2.0\t0\t1,2",
                                  "1\t5\t2\t2.0\t0\t2,1"]),
    "repeat-longer": _file(["0\t5\t2\t2.0\t0\t1,2",
                            "1\t5\t3\t2.0\t0\t1,2,3"]),
    "tail-after-error": _file(["0\t5\t0\tnan\t0\t", "1\tx\t0\t1.0\t0\t"]),
    "weights": _file(["0\t5\t0\t1e-3\t0\t", "1\t6\t0\t.5\t0\t",
                      "2\t7\t0\t 2.5 \t0\t", "3\t8\t0\t1_0.5\t0\t",
                      "4\t9\t0\t1E2\t0\t"]),
    "no-records": HEADER.format(n=0) + "\n\n",
    "count": _file(["0\t5\t0\t1.0\t0\t"]).replace("n=1", "n=2"),
    "top-of-range": _file([f"0\t{2**64 - 1}\t1\t1.0\t{2**63 - 1}\t"
                           f"{2**64 - 2}", f"1\t{'0' * 19}7\t0\t1.0\t0\t"]),
}
SAMPLES = ("zero-padded-repeat", "signed-zero", "blank-lines",
           "no-trailing-newline", "empty-snapshots", "weights",
           "top-of-range")


def _shift(token, offset):
    """The id ``token`` plus ``offset``, its zero padding kept."""
    digits = token.lstrip("-")
    zeros = digits[:len(digits) - len(digits.lstrip("0"))]
    value = int(token) + offset
    return ("-" if value < 0 else "") + zeros + str(abs(value))


@pytest.mark.parametrize("offset", [0, 2**62, 2**64 - 2**10, 2**70, -2**70])
@pytest.mark.parametrize("case", CASES)
def test_reader_matches_the_record_loop_on_edge_cases(case, offset):
    """Each case with its ids shifted: a sample case reads back while its
    ids stay integer cells, and the offsets +-2^70 put every id outside
    [0, 2^64)."""
    ids = []

    def shift(token):
        ids.append(_shift(token, offset))
        return ids[-1]

    text = re.sub(r"(?m)^(\d+\t)(-?\d+)",
                  lambda m: m.group(1) + shift(m.group(2)), CASES[case])
    text = re.sub(r"(?m)\t([-\d,]+)$", lambda m: "\t" + ",".join(
        map(shift, m.group(1).split(","))), text)
    got = _assert_same(text)
    assert isinstance(got, Sample) == (case in SAMPLES
                                       and all(map(_is_cell, ids)))


def test_reader_reads_text_and_binary_handles_alike():
    """CRLF and a lone CR end a line, whatever newline translation a text
    handle does or leaves undone, and bytes that are not UTF-8 are one
    error from either handle."""
    text = _file(["0\t5\t1\t1.0\t0\t6", "1\t6\t1\t1.0\t0\t5"])
    want = read_sample(io.StringIO(text))
    for newline in ("\r\n", "\r", "\n"):
        raw = text.replace("\n", newline).encode()
        for source in (io.BytesIO(raw), io.StringIO(raw.decode()),
                       io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"),
                       io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8",
                                        newline="")):
            assert oracles.same_sample(read_sample(source), want), source
    latin = text.replace("graph_digest=x", "graph_digest=caf\xe9")
    errors = set()
    for source in (io.BytesIO(latin.encode("latin-1")),
                   io.TextIOWrapper(io.BytesIO(latin.encode("latin-1")),
                                    encoding="utf-8")):
        with pytest.raises(UnicodeDecodeError) as error:
            read_sample(source)
        errors.add(str(error.value))
    assert len(errors) == 1


@st.composite
def _ids(draw):
    """Ids for ``_first_seen``, the size to give it, and whether the ids
    are dense enough for a table: values below a table size, dense ranges at
    any offset, sparse ids 2^40 apart, or uint64 ids just below 2^64."""
    kind = draw(st.sampled_from(("table", "dense", "sparse", "wide")))
    n = draw(st.integers(1, 50))
    slots = draw(st.lists(st.integers(0, 3 * n), min_size=n, max_size=n))
    offset = draw(st.integers(-2**62, 2**62))
    if kind == "table":
        return np.array(slots), 3 * n + 1 + draw(st.integers(0, 5)), True
    if kind == "dense":
        return np.array(slots) + offset, None, True
    if kind == "sparse":
        return np.array(slots) * 2**40 + offset, None, False
    return (np.array(slots, dtype=np.uint64) + np.uint64(2**64 - 1 - 3 * n),
            None, True)


@settings(max_examples=300, deadline=None)
@given(_ids())
@example((np.array([7]), 8, True))
@example((np.array([-2**62]), None, True))
@example((np.array([2**64 - 1], dtype=np.uint64), None, True))
@example((np.array([2**64 - 1, 0, 2**63, 0], dtype=np.uint64), None, False))
@example((np.array([3, -2**63, 2**63 - 1, 3]), None, False))
def test_first_seen_matches_the_dict_loop(case):
    values, size, dense = case
    # Dense values index a table: they are never sorted.
    no_sort = mock.patch.object(np, "unique", side_effect=AssertionError)
    with no_sort if dense else contextlib.nullcontext():
        distinct, first, ranks = _first_seen(values, size)
    assert (distinct.tolist(), first.tolist(), ranks.tolist()) == \
        oracles.first_seen(values.tolist())


@pytest.mark.parametrize("record", [
    "0\t+5\t0\t1.0\t0\t", "0\t5\t1\t1.0\t0\t 6", " 0\t5\t0\t1.0\t0\t",
    "0\t5\t1_0\t1.0\t0\t", "0\t5\t1\t1.0\t0\t\u0661",
    "0\t5 \t0\t1.0\t0\t", f"0\t5\t0\t1.0\t{2**63}\t",
] + [
    # A sign, 21 digits or 2^64 in each integer field.
    "\t".join(cell if k == field else text for k, text in
              enumerate(["0", "5", "1", "1.0", "0", "6"]))
    for field in (0, 1, 2, 4, 5)
    for cell in ("-5", "-0", "0" * 20 + "1", str(2**64))
])
def test_narrowed_tokens_are_one_record_error(tmp_path, record):
    text = _file([record])
    _assert_narrowed(_outcome(read_sample, text))
    path = tmp_path / "s.tsv"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["estimate", "--sample", str(path), "--estimator",
                     "node-wis"])
    assert (code, out.getvalue()) == (3, "")
    assert err.getvalue().startswith("error: record 0: ")
    assert err.getvalue().count("\n") == 1


# Record 1 repeats record 0's node.  For each of the reader's checks, in
# order: cells of record 1 (by field, 6 a seventh) that fail that check
# alone, and its message.
VALID = ["1", "5", "2", "2.0", "0", "6,7"]
ID = "1 to 20 ASCII digits below 2^64"
FAILS = [
    ({6: "x"}, "record 1: expected 6 tab-separated fields, got 7"),
    ({0: "-1"}, f"record 1: position '-1' is not {ID}"),
    ({1: "+5"}, f"record 1: node '+5' is not {ID}"),
    ({2: "x"}, f"record 1: degree 'x' is not {ID}"),
    ({3: "x"}, "record 1: weight 'x' is not a number"),
    ({4: "-0"}, f"record 1: walker '-0' is not {ID}"),
    ({4: str(2**63)}, f"record 1: walker '{2**63}' is not below 2^63"),
    ({5: "6,,7"}, "record 1: snapshot '6,,7' is not a comma-separated list "
                  f"of {ID}"),
    ({0: "2"}, "record 2: position must be its index, 1"),
    ({3: "nan"}, "record 1: weight must be finite and positive, got nan"),
    ({2: "3"}, "record 1: degree 3 differs from its 2 snapshot entries"),
    ({5: "6,8"}, "record 1: node 5 has a snapshot that differs from an "
                 "earlier record's"),
]
# Each adjacent pair of checks failed at once gives the earlier message.
# The walker checks share a field: 2^64 + 2^63 is no cell, and the digit
# loop's value of it wraps to 2^63.
PAIRS = [({**FAILS[k + 1][0], **FAILS[k][0]}, FAILS[k][1])
         for k in range(len(FAILS) - 1)]
PAIRS[5] = ({4: str(2**64 + 2**63)},
            f"record 1: walker '{2**64 + 2**63}' is not {ID}")


@pytest.mark.parametrize("cells,message", FAILS + PAIRS,
                         ids=[f"check-{k}" for k in range(len(FAILS))]
                         + [f"checks-{k}-{k + 1}" for k in range(len(PAIRS))])
def test_first_failed_check_names_the_record(cells, message):
    fields = [cells.get(k, text) for k, text in enumerate(VALID)]
    fields += [cells[6]] if 6 in cells else []
    first = "0\t5\t2\t2.0\t0\t6,7"
    assert isinstance(_outcome(read_sample, _file([first, "\t".join(VALID)])),
                      Sample)
    assert _outcome(read_sample, _file([first, "\t".join(fields)])) == message


# A uniform file's weight must be 1: checked after the weight's value and
# before the degree.
@pytest.mark.parametrize("cells,message", [
    ({3: "2.0"}, "record 1: weight must be 1 in a UIS sample, got 2.0"),
    ({3: "2.0", 0: "2"}, "record 2: position must be its index, 1"),
    ({3: "-1.0"}, "record 1: weight must be finite and positive, got -1.0"),
    ({3: "2.0", 2: "3"}, "record 1: weight must be 1 in a UIS sample, got 2.0"),
])
def test_a_uniform_file_checks_its_unit_weights_in_order(cells, message):
    fields = [cells.get(k, text) for k, text in enumerate(VALID)]
    fields[3] = cells.get(3, "1.0")
    text = _file(["0\t5\t2\t1.0\t0\t6,7", "\t".join(fields)]).replace(
        "method=RW_MULTI", "method=UIS")
    assert _outcome(read_sample, text) == message
    assert _outcome(oracles.read_sample, text) == message


@settings(max_examples=300, deadline=None)
@given(mutated(UIS_SAMPLE))
def test_reader_matches_the_record_loop_on_mutated_uniform_files(text):
    _assert_same(text)


# -- kernels -----------------------------------------------------------------


@st.composite
def drawn_samples(draw):
    """A UIS, WIS or rw-multi sample on a small BA graph, or a walk-like
    sample with arbitrary ids; then a head cut or a reorder of it."""
    kind = draw(st.sampled_from(["uis", "wis", "rw-multi", "walk-like"]))
    if kind == "walk-like":
        s = draw(walk_like_samples())
    else:
        g = barabasi_albert(60, 2, seed=draw(st.integers(0, 2**16)))
        walkers = 1 if kind != "rw-multi" else draw(st.integers(1, 4))
        spec = SamplerSpec(kind, walkers * draw(st.integers(2, 30)), walkers)
        seed = draw(st.integers(0, 2**32))
        s = (sample_uis(g, spec.n, seed) if kind == "uis" else
             sample_wis(g, "degree", spec.n, seed) if kind == "wis" else
             sample_rw_multi(g, walkers, spec.n // walkers,
                             [seed + k for k in range(walkers)]))
        keep = draw(st.integers(2, spec.n // walkers))
        s = draw(st.sampled_from([s, _head(s, spec, keep * walkers)]))
    order = draw(st.permutations(range(len(s))))
    return draw(st.sampled_from([s, s.subset(order), s.subset(order[:2])]))


@settings(max_examples=200, deadline=None)
@given(drawn_samples(), st.integers(0, 2**32))
def test_kernels_equal_the_dict_loops_bit_for_bit(s, seed):
    assert count_induced_edges(s) == oracles.count_induced_edges(s)
    if len(s) >= 2:
        ratio = inda_wis_ratio(s)
        assert (ratio.numerator, ratio.denominator) \
            == oracles.inda_wis_parts(s)
        assert capture_recapture_from_sample(s, seed) \
            == oracles.capture_recapture(*oracles.capture_split(s, seed))
        if (s.weight_column == 1.0).all():  # the closed uniform form
            assert ratio.outcome().value == oracles.inda_uis_value(s)
    for mode in (MODE_SET, MODE_MULTISET):
        if not oracles.auxiliary_counts(s, mode):
            with pytest.raises(EstimatorError):
                indb_wis_ratio(s, mode)
            continue
        ratio = indb_wis_ratio(s, mode)
        parts = (ratio.numerator, ratio.denominator)
        assert parts == oracles.indb_parts(s, mode, weighted=True)
        if (s.weight_column == 1.0).all():
            assert parts == oracles.indb_parts(s, mode, weighted=False)


@st.composite
def route_a_samples(draw):
    """A sample whose ranks follow first appearance (a draw, its file read
    back, a head of a single-run draw) or one that need not (a reversed or
    thin-shifted subset, an rw-multi head or walker reorder, a sample
    without its first position, a walk-like sample reordered), with
    whether it is known to follow first appearance."""
    g = barabasi_albert(60, 2, seed=draw(st.integers(0, 2**16)))
    method = draw(st.sampled_from(["uis", "wis", "rw", "rw-multi"]))
    walkers = draw(st.integers(2, 4)) if method == "rw-multi" else 1
    spec = SamplerSpec(method, walkers * draw(st.integers(2, 30)), walkers)
    s = draw_sample(g, spec, draw(st.integers(0, 2**32)))
    n = len(s)
    cut = draw(st.sampled_from(["draw", "read", "head", "reversed",
                                "thin-shifted", "reorder", "tail",
                                "walk-like"]))
    if cut == "draw":
        return s, True
    if cut == "read":
        sink = io.StringIO()
        write_sample(s, sink)
        return read_sample(io.StringIO(sink.getvalue())), True
    if cut == "head":
        keep = draw(st.integers(1, spec.n // walkers))
        return _head(s, spec, keep * walkers), walkers == 1 or None
    if cut == "reversed":
        return s.subset(np.arange(n)[::-1]), None
    if cut == "thin-shifted":
        theta = draw(st.integers(2, 5))
        # Shifted thinning's part k, empty past n.
        k = draw(st.integers(1, theta - 1))
        return s.subset(np.arange(k, n, theta)), None
    if cut == "reorder":
        # The cross-walker kernels' stable reorder by walker label.
        shuffled = s.subset(draw(st.permutations(range(n))))
        return shuffled.subset(np.argsort(shuffled.walker_column,
                                          kind="stable")), None
    if cut == "tail":
        return s.subset(np.arange(1, n)), bool(s.rank_column[1] == 0)
    t = draw(walk_like_samples())
    return t.subset(draw(st.permutations(range(len(t))))), None


@settings(max_examples=300, deadline=None)
@given(route_a_samples())
def test_route_a_sums_in_first_appearance_order_with_or_without_lookup(case):
    """Route A skips the first-appearance lookup exactly when the ranks
    already follow first appearance; either way the edge-pair sum is the
    one taken over the distinct nodes in first-appearance order, to the
    bit."""
    s, ordered = case
    first = _first_seen(s.rank_column)[0]
    assert _in_first_seen_order(s.rank_column) == (
        np.array_equal(first, np.arange(len(first))))
    if ordered is not None:
        assert _in_first_seen_order(s.rank_column) == ordered
    inv = 1.0 / s.weight_column
    assert _edge_pair_sum(s, inv) == oracles.edge_pair_sum(s)


@pytest.mark.parametrize("ranks,ordered", [
    ([], True), ([0], True), ([0, 0, 1, 0, 2, 1, 3], True), ([1], False),
    ([1, 0], False), ([0, 2, 1], False), ([0, 1, 3, 2], False),
    ([0, 1, 1, 3], False)])
def test_first_appearance_order_check(ranks, ordered):
    assert _in_first_seen_order(np.array(ranks, dtype=np.int64)) == ordered


def test_derived_samples_share_the_parent_arrays():
    g = barabasi_albert(60, 2, seed=1)
    s = sample_rw_multi(g, 3, 20, [1, 2, 3])
    spec = SamplerSpec("rw-multi", 60, 3)
    for derived in (s.subset(np.arange(0, 60, 7)), _head(s, spec, 30)):
        assert derived.ids is s.ids
        assert np.shares_memory(derived.offsets, s.offsets)
        assert np.shares_memory(derived.entries, s.entries)
        snapshots = oracles.views(s).snapshots
        assert oracles.views(derived).snapshots == {
            v: snapshots[v] for v in oracles.views(derived).node_at}
    buf = io.StringIO()
    write_sample(s.subset(np.arange(59, -1, -1)), buf)
    back = read_sample(io.StringIO(buf.getvalue()))
    assert oracles.views(back).node_at == oracles.views(s).node_at[::-1]


def _answers(s, seed):
    """Every estimator's ratio or outcome on ``s``, and the margin and
    cross-walker kernels', as reprs (exact for floats), or the error."""
    def answer(call, *args):
        try:
            return repr(call(s, *args))
        except EstimatorError as exc:
            return f"error: {exc}"

    calls = [(ESTIMATORS[name].estimate, EstimatorSpec(name, a_mode=mode),
              seed) for name in ESTIMATORS for mode in A_MODES]
    calls += [(margin_ratios, [m], "ind", mode) for m in (0, 1, 3)
              for mode in A_MODES]
    calls += [(margin_crosswalker, base, mode) for base in ("node", "ind")
              for mode in A_MODES]
    return [answer(*call) for call in calls]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["uis", "wis", "rw", "rw-multi"]),
       st.integers(0, 2**16), st.integers(0, 2**32), st.integers(1, 12))
def test_trimmed_heads_give_the_untrimmed_answers(method, graph_seed, seed,
                                                  per_walker):
    """A head views the rows up to its highest rank, which, ranks following
    first appearance, are all its snapshots; every kernel on it agrees bit
    for bit with the same head over its parent's whole CSR."""
    g = barabasi_albert(60, 2, seed=graph_seed)
    walkers = 3 if method == "rw-multi" else 1
    spec = SamplerSpec(method, walkers * per_walker, walkers)
    s = draw_sample(g, spec, seed)
    for k in range(1, len(s) + 1):
        heads = [s.subset(range(k))]
        if k % walkers == 0:
            heads.append(_head(s, spec, k))
        for head in heads:
            rows = int(head.rank_column.max()) + 1
            assert len(head.offsets) - 1 == rows
            assert len(head.entries) == s.offsets[rows]
            assert np.shares_memory(head.offsets, s.offsets)
            assert np.shares_memory(head.entries, s.entries)
            whole = replace(head, offsets=s.offsets, entries=s.entries)
            assert _answers(head, seed) == _answers(whole, seed)


@pytest.mark.parametrize("shift", [0, 2**63, 2**64 - 16])
def test_ids_round_trip_as_a_read_only_uint64_array(shift):
    """Tuple ids become a read-only uint64 array, and survive a write and
    read in that form, up to the largest id below 2^64."""
    snapshots = {7 + shift: (9 + shift, 8 + shift), 8 + shift: (7 + shift,)}
    s = oracles.sample_from_snapshots((7 + shift, 8 + shift, 7 + shift),
                                      (1.0, 2.0, 1.0), (0, 0, 0), snapshots,
                                      "RW", 0, "degree", "x")
    assert s.ids.dtype == np.uint64
    assert s.ids.tolist() == [7 + shift, 8 + shift, 9 + shift]
    with pytest.raises(ValueError, match="read-only"):
        s.ids[0] = 1
    assert s.nodes() == [7 + shift, 8 + shift, 7 + shift]
    buf = io.StringIO()
    write_sample(s, buf)
    back = read_sample(io.StringIO(buf.getvalue()))
    assert back.ids.dtype == np.uint64 and not back.ids.flags.writeable
    assert oracles.same_sample(back, s)


def test_samples_compare_by_identity():
    """A sample read back from its file holds the same values as its
    source, which ``oracles.same_sample`` compares; ``==`` does not."""
    s = sample_rw_multi(barabasi_albert(60, 2, seed=1), 3, 20, [1, 2, 3])
    buf = io.StringIO()
    write_sample(s, buf)
    back = read_sample(io.StringIO(buf.getvalue()))
    assert oracles.same_sample(back, s)
    assert back != s and s == s
    assert not oracles.same_sample(back, replace(back, seed=back.seed + 1))
    assert not oracles.same_sample(back, back.subset(range(59)))


def test_estimating_from_a_file_does_not_import_numpy_ma(tmp_path):
    # numpy.ma takes about 14 ms to import, which every estimate process
    # would pay; a flagless np.unique or np.union1d imports it.
    g = barabasi_albert(300, 3, seed=1)
    path = tmp_path / "s.tsv"
    with open(path, "w", encoding="utf-8") as fh:
        write_sample(sample_rw_multi(g, 3, 100, [1, 2, 3]), fh)
    script = "\n".join([
        "import contextlib, io, sys",
        "from graphsize import cli",
        "for extra in (['node-wis'], ['capture'],",
        "              ['ind-b', '--correction', 'cross-walker']):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        f"        assert cli.main(['estimate', '--sample', {str(path)!r},",
        "                         '--estimator', *extra]) == 0",
        "print('numpy.ma' in sys.modules)",
    ])
    src = str(Path(graphsize.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "False\n"


# -- the writer against its reference ---------------------------------------

# Ids up to the largest below 2^64, and weights whose reprs the writer must
# keep: the least subnormal, and integers on either side of 10^15.
IDS = st.integers(0, 2**64 - 1) | st.sampled_from([0, 2**63, 2**64 - 1])
WEIGHTS = (0.1, 1 / 3, 1e15, 1e16, 5e-324, 1.0, 7.0)


def _text(writer, s) -> str:
    sink = io.StringIO()
    writer(s, sink)
    return sink.getvalue()


@st.composite
def writer_samples(draw):
    """A draw by any sampler over a BA graph relabelled with ids up to
    2^64 - 1 (with isolated nodes, which have empty snapshots, for the
    independent samplers), whole, thinned or reversed, so that CSR rows go
    unsampled; or a sample built through the API with any weights, walkers
    up to 2^63 - 1 and empty snapshots."""
    if draw(st.booleans()):
        ids = draw(st.lists(IDS, min_size=1, max_size=8, unique=True))
        snapshots = {v: tuple(draw(st.lists(IDS, max_size=4, unique=True)))
                     for v in ids}
        nodes = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=20))
        return oracles.sample_from_snapshots(
            nodes, [draw(st.sampled_from(WEIGHTS)) for _ in nodes],
            [draw(st.integers(0, 2**63 - 1)) for _ in nodes], snapshots,
            "RW_MULTI", draw(st.integers(0, 2**70)), "custom", "api")
    method = draw(st.sampled_from(["uis", "wis", "rw", "rw-multi"]))
    base = barabasi_albert(20, 2, seed=draw(st.integers(0, 2**16)))
    ids = np.array(draw(st.lists(IDS, min_size=24, max_size=24, unique=True)),
                   dtype=np.uint64)
    isolated = ids[20:] if method in ("uis", "wis") else ()
    g = Graph.from_edges(ids[base._edges()], extra_nodes=isolated)
    walkers = draw(st.integers(2, 3)) if method == "rw-multi" else 1
    spec = SamplerSpec(method, walkers * draw(st.integers(1, 15)), walkers,
                       "unit" if method == "wis" else "degree")
    s = draw_sample(g, spec, draw(st.integers(0, 2**32)))
    cut = draw(st.sampled_from(["whole", "thinned", "reversed"]))
    if cut == "thinned":
        return s.subset(np.arange(draw(st.integers(0, len(s) - 1)), len(s),
                                  draw(st.integers(2, 4))))
    return s.subset(np.arange(len(s))[::-1]) if cut == "reversed" else s


@settings(max_examples=200, deadline=None)
@given(writer_samples())
def test_the_writer_matches_its_reference(s):
    assert _text(write_sample, s) == _text(oracles.write_sample, s)


@pytest.mark.parametrize("n", [1, 4095, 4096, 4097])
def test_the_writer_matches_its_reference_around_its_chunk_size(n):
    """The records are joined 4096 at a time."""
    g = barabasi_albert(300, 2, seed=n)
    walk = sample_rw_multi(g, 1, n, [n])
    for s in (sample_uis(g, n, seed=n), walk, walk.subset(range(n)[::-2])):
        assert _text(write_sample, s) == _text(oracles.write_sample, s)


@pytest.mark.parametrize("cell", [
    "5.0", "05.0", "999999999999999.0", "1000000000000000.0", "1_0.0",
    " 5.0", "+5.0", "5.00", "inf", "nan", "0.0", "-0.0"])
def test_weight_cells_read_as_float_reads_them(cell):
    """Every weight cell reads as float() reads it: integral weights of up
    to 15 digits through the digit path, every other cell (16 digits,
    underscores, signs, blanks, more decimals) through float() itself; a
    weight that is not finite and positive is rejected, by both readers
    with one message."""
    text = HEADER.format(n=2) + f"0\t7\t1\t{cell}\t0\t8\n1\t8\t1\t2.0\t0\t7\n"
    value = float(cell)
    if 0.0 < value < math.inf:
        s = read_sample(io.BytesIO(text.encode()))
        assert s.weight_column.tolist() == [value, 2.0]
        assert oracles.same_sample(s, oracles.read_sample(io.StringIO(text)))
        return
    message = f"record 0: weight must be finite and positive, got {cell}"
    for reader, source in ((read_sample, io.BytesIO(text.encode())),
                           (oracles.read_sample, io.StringIO(text))):
        with pytest.raises(SamplingError) as error:
            reader(source)
        assert str(error.value) == message
