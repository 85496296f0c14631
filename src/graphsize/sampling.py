"""Node samplers, the in-memory sample and the sample file format.

Every sampler is a pure function of (graph, parameters, seed) using numpy's
PCG64 generator, named in the sample metadata so files are reproducible
across platforms.  Each sampled node keeps a snapshot of its neighbor list,
so estimation downstream never needs the full graph.  A sample holds its
nodes as dense ranks of their ids, and the estimators count with arrays of
ranks; no id enters their arithmetic.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from typing import IO, Callable, Sequence

import numpy as np

from .graph import (Graph, _decimals, _dense_span, _digits, _excerpt,
                    _find, _node_ids, _ranges, _read_text, _spelled)

RNG_NAME = "numpy-pcg64"

METHOD_UIS = "UIS"
METHOD_WIS = "WIS"
METHOD_RW = "RW"
METHOD_RW_MULTI = "RW_MULTI"

# Sampling method name, as plans and the CLI spell it -> ``Sample.method``.
METHODS = {"uis": METHOD_UIS, "wis": METHOD_WIS, "rw": METHOD_RW,
           "rw-multi": METHOD_RW_MULTI}

WEIGHT_RULES = ("degree", "unit")  # by name; sample_wis takes callables too


class SamplingError(Exception):
    """Invalid sampler input (e.g. disconnected graph for a random walk)."""


@dataclass(frozen=True, eq=False)
class Sample:
    """An ordered node sample and where it came from, over dense node ranks.

    Rank r stands for the node id ``ids[r]``, its graph's external id in a
    drawn sample; ``ids`` is a read-only uint64 array, as ``Graph.ext_ids``
    is (ids given in another form are converted).  Position i holds the
    node of rank ``rank_column[i]``, its weight ``weight_column[i]``
    (native float64) and its walker ``walker_column[i]`` (int64), converted
    likewise.  Every weight is finite and positive, or construction raises
    SamplingError, so the kernels take 1/w as it stands.  Snapshots are
    kept once per distinct node, as one CSR: row r,
    ``entries[offsets[r]:offsets[r + 1]]``, holds the ranks that rank r's
    snapshot names, and every sampled rank has a row.  The samplers and
    :func:`read_sample` rank the sampled nodes first, then the ids only a
    snapshot names, each in order of first appearance.  :meth:`subset`
    keeps its parent's ids and a prefix view of its CSR, the rows up to the
    highest rank it holds, so the kernels on a head of a sample cost what
    the head holds.

    Samples compare by identity.  The ``nodes()`` and ``degrees()`` lists
    remain only for ``bench/``, until it reads the columns.  A sample
    caches only ``degree_column``; the margin and cross-walker kernels
    build their occurrence indexes inside each call
    (``rw_correction.margin_ratios`` answers a whole margin grid in one).
    """

    ids: np.ndarray
    rank_column: np.ndarray
    weight_column: np.ndarray
    walker_column: np.ndarray
    offsets: np.ndarray
    entries: np.ndarray
    method: str
    seed: int
    weight_rule: str
    graph_digest: str
    rng_name: str = RNG_NAME

    def __post_init__(self):
        n = len(self.rank_column)
        if len(self.weight_column) != n or len(self.walker_column) != n:
            raise SamplingError("sample columns differ in length")
        object.__setattr__(self, "ids", _node_ids(self.ids))
        object.__setattr__(self, "weight_column",
                           np.asarray(self.weight_column, dtype=np.float64))
        object.__setattr__(self, "walker_column",
                           np.asarray(self.walker_column, dtype=np.int64))
        weights = self.weight_column
        if not ((weights > 0.0) & (weights < math.inf)).all():
            raise SamplingError("sample weights must be finite and positive")
        for column in (self.ids, self.rank_column, self.weight_column,
                       self.walker_column, self.offsets, self.entries):
            column.flags.writeable = False

    def __len__(self) -> int:
        return len(self.rank_column)

    @cached_property
    def degree_column(self) -> np.ndarray:
        """Each position's degree, the length of its node's snapshot."""
        degrees = np.diff(self.offsets)[self.rank_column]
        degrees.flags.writeable = False
        return degrees

    def nodes(self) -> list[int]:
        return self.ids[self.rank_column].tolist()

    def degrees(self) -> list[int]:
        return self.degree_column.tolist()

    def subset(self, positions: Sequence[int] | np.ndarray) -> Sample:
        """The sample of the given positions, in that order.  It shares this
        sample's ids, and views the CSR rows up to its highest rank: as
        ranks follow first appearance, a head holds exactly its own rows."""
        index = np.asarray(positions, dtype=np.intp)
        ranks = self.rank_column[index]
        rows = int(ranks.max()) + 1 if len(ranks) else 0
        return replace(self, rank_column=ranks,
                       weight_column=self.weight_column[index],
                       walker_column=self.walker_column[index],
                       offsets=self.offsets[:rows + 1],
                       entries=self.entries[:self.offsets[rows]])


def _first_seen(values: np.ndarray, size: int | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct values by first appearance, in the dtype of ``values``,
    each one's first index, and every value's rank in that order.  Values
    in [0, size), or dense (see ``graph._dense_span``), index a table;
    others are sorted."""
    index = values
    dense = _dense_span(values) if size is None else None
    if dense is not None:
        low, size = dense
        index = values - low
    if size is None:
        distinct, index = np.unique(values, return_inverse=True)
        size = len(distinct)
    first = np.full(size, len(values))
    np.minimum.at(first, index, np.arange(len(values)))
    # Marked over the positions, the first appearances come out in order.
    mark = np.zeros(len(values) + 1, dtype=bool)
    mark[first] = True
    first = np.flatnonzero(mark[:-1])
    rank = np.empty(size, dtype=np.int64)
    rank[index[first]] = np.arange(len(first))
    return values[first], first, rank[index]


def _drawn(g: Graph, nodes: np.ndarray, weights: np.ndarray,
           walkers: np.ndarray, method: str, seed: int, rule: str) -> Sample:
    """The sample of the given dense node indices, each with the graph's
    snapshot; it names the nodes by external id."""
    sampled, _, node_ranks = _first_seen(nodes, g.node_count)
    indptr, indices = g.adjacency_arrays
    starts = indptr[sampled]
    lengths = indptr[sampled + 1] - starts
    dense, _, ranks = _first_seen(np.concatenate(
        (sampled, indices[_ranges(starts, lengths)])), g.node_count)
    return Sample(g.ext_ids[dense], node_ranks, weights, walkers,
                  np.concatenate(([0], np.cumsum(lengths))),
                  ranks[len(sampled):], method, seed, rule, g.digest)


def sample_uis(g: Graph, n: int, seed: int) -> Sample:
    """n i.i.d. uniform node draws with replacement, unit weights."""
    if n < 1:
        raise SamplingError("n must be >= 1")
    rng = np.random.default_rng(seed)
    nodes = rng.integers(0, g.node_count, size=n)
    return _drawn(g, nodes, np.ones(n), np.zeros(n, dtype=np.int64),
                  METHOD_UIS, seed, "unit")


def sample_wis(g: Graph, weight_rule: Callable[[int], float] | str,
               n: int, seed: int) -> Sample:
    """n i.i.d. draws with probability proportional to node weight.

    ``weight_rule`` is either the string "degree"/"unit" or a callable from
    dense node index to a positive weight.
    """
    if n < 1:
        raise SamplingError("n must be >= 1")
    rule_name, weights = _resolve_weights(g, weight_rule)
    if not (np.isfinite(weights) & (weights > 0)).all():
        raise SamplingError("all sampling weights must be finite and positive")
    rng = np.random.default_rng(seed)
    # The degree table's running sums are built once per graph; a callable
    # named "degree" resolves to that name, so the rule itself decides.
    cumulative = (g.degree_cumulative if weight_rule == "degree"
                  else np.cumsum(weights))
    draws = rng.random(n) * cumulative[-1]
    # Looked up in sorted order, the searches walk the table forwards; the
    # nodes go back to draw order.
    order = np.argsort(draws)
    nodes = np.empty(n, dtype=np.intp)
    nodes[order] = np.searchsorted(cumulative, draws[order], side="right")
    return _drawn(g, nodes, weights[nodes], np.zeros(n, dtype=np.int64),
                  METHOD_WIS, seed, rule_name)


def _resolve_weights(g: Graph, rule) -> tuple[str, np.ndarray]:
    # The named rules' tables are read-only and built at most once per graph.
    if rule == "degree":
        return "degree", g.degree_weights
    if rule == "unit":  # a view of one 1.0: nothing to build
        return "unit", np.broadcast_to(1.0, g.node_count)
    if callable(rule):
        w = np.array([float(rule(v)) for v in range(g.node_count)])
        name = getattr(rule, "__name__", "custom")
        return name, w
    raise SamplingError(f"unknown weight rule: {rule!r}")


def sample_rw(g: Graph, n: int, seed: int) -> Sample:
    """A simple random walk of n steps; the weight of a step is its degree.

    The start node is a uniform draw from the same seed stream.  There is
    no burn-in: dependence between consecutive samples is handled by the
    correction layer, not the sampler.
    """
    return _walk_sample(g, [_walk(g, n, seed)], METHOD_RW, seed)


def _walk(g: Graph, n: int, seed: int) -> list[int]:
    if n < 1:
        raise SamplingError("n must be >= 1")
    if not g.is_connected:
        raise SamplingError(
            "random walk requires a connected graph; "
            "extract the largest connected component first")
    if g.edge_count == 0:
        raise SamplingError("random walk needs a graph with an edge")
    rng = np.random.default_rng(seed)
    current = int(rng.integers(g.node_count))
    uniforms = rng.random(n - 1)
    indptr, indices, degrees = g.adjacency_lists
    nodes = [current]
    for u in uniforms.tolist():
        current = indices[indptr[current] + int(u * degrees[current])]
        nodes.append(current)
    return nodes


def _walk_sample(g: Graph, walks: list[list[int]], method: str,
                 seed: int) -> Sample:
    """Walks concatenated in order, tagged by walker id, degree-weighted."""
    nodes = np.fromiter(chain.from_iterable(walks), np.int64)
    return _drawn(g, nodes, g.degree_weights[nodes],
                  np.repeat(np.arange(len(walks)), list(map(len, walks))),
                  method, seed, "degree")


def sample_rw_multi(g: Graph, walkers: int, per_walk: int,
                    seeds: Sequence[int]) -> Sample:
    """Concatenation of independent random walks, tagged by walker id."""
    if walkers < 1:
        raise SamplingError("walkers must be >= 1")
    if len(seeds) != walkers:
        raise SamplingError("need exactly one seed per walker")
    return _walk_sample(g, [_walk(g, per_walk, seeds[k])
                            for k in range(walkers)], METHOD_RW_MULTI,
                        seeds[0])


# -- sample file format ----------------------------------------------------
#
# One metadata header line, then one record per position:
#   position \t node-id \t degree \t weight \t walker \t n1,n2,...
# Node ids are the sample's ids, which are external ids for a drawn sample.
# Every integer cell (position, node, degree, walker, snapshot ids) is 1 to
# 20 ASCII digits with a value below 2^64, as in an edge list, and a walker
# is below 2^63.  A weight is written as its repr and read as float() reads
# it; a cell of 1 to 15 digits then ".0" (every integer weight below 10^15,
# such as a degree) is read with the integer cells, since float64 holds it
# exactly.  A node's records repeat its one snapshot.

_HEADER_PREFIX = "graphsize-sample v1"
_HEADER_KEYS = ("method", "seed", "weight_rule", "graph_digest", "n")


def write_sample(s: Sample, sink: IO[str]) -> None:
    """Write the line-oriented sample format (bit-exact, documented above);
    :func:`read_sample` gives the sample back.

    Each distinct id, CSR row, weight and walker is formatted once, and
    each position: numbers by :func:`graph._digits`, rows gathered from
    their digits, weights by repr.  The records are joined from those texts
    4096 at a time and written as ``str``.
    """
    sink.write(f"{_HEADER_PREFIX}\tmethod={s.method}\tseed={s.seed}"
               f"\tweight_rule={s.weight_rule}\tgraph_digest={s.graph_digest}"
               f"\trng={s.rng_name}\tn={len(s)}\n")
    degrees = np.diff(s.offsets)
    n, rows, size = len(s), len(degrees), len(s.ids)
    # The values spelled: the ids, each row's degree, each position, then
    # one value, ``empty``, that spells nothing, so its cell puts only its
    # mark.  Cells that end in a newline split into lines.
    text, starts, lengths = _digits(np.concatenate((
        s.ids, degrees.astype(np.uint64), np.arange(n, dtype=np.uint64))))
    empty = len(starts)
    texts = (text, np.append(starts, 0), np.append(lengths, 0))
    positions = np.stack((np.arange(size + rows, empty), np.full(n, empty)),
                         axis=1)
    # Row r's head, "id\tdegree\t", and tail, "snapshot\n": its ids, or the
    # empty value for a row without one, each followed by a comma, or by a
    # newline at the row's end.
    heads = _spelled(*texts, np.stack((
        np.arange(rows), np.arange(size, size + rows), np.full(rows, empty)),
        axis=1).ravel(), b"\t\t\n" * rows).splitlines()
    cells = np.insert(s.entries, s.offsets[np.flatnonzero(degrees == 0)],
                      empty)
    marks = np.full(len(cells), ord(","), dtype=np.uint8)
    marks[np.cumsum(np.maximum(degrees, 1)) - 1] = ord("\n")
    tails = _spelled(*texts, cells, marks).splitlines(True)
    del cells, marks
    weights, weight_at = np.unique(s.weight_column, return_inverse=True)
    walkers, walker_at = np.unique(s.walker_column, return_inverse=True)
    columns = ((np.array(heads, dtype=object), s.rank_column),
               (np.array([f"{w!r}\t" for w in weights.tolist()],
                         dtype=object), weight_at),
               (np.array([f"{k}\t" for k in walkers.tolist()], dtype=object),
                walker_at),
               (np.array(tails, dtype=object), s.rank_column))
    del heads, tails
    for start in range(0, n, 4096):
        stop = min(start + 4096, n)
        block = np.empty((stop - start, 5), dtype=object)
        block[:, 0] = _spelled(*texts, positions[start:stop].ravel(),
                               b"\t\n" * (stop - start)).splitlines()
        for j, (pieces, at) in enumerate(columns, 1):
            block[:, j] = pieces[at[start:stop]]
        sink.write("".join(block.ravel().tolist()))


def read_sample(source: IO[str] | IO[bytes]) -> Sample:
    """Read a sample file from a binary or text handle, as text mode reads
    a file (see :func:`graph._read_text`); node ids are the external ids as
    written.

    The records are checked and parsed at once with byte-class arrays, one
    boolean array per check; a rejected file's one error line names its
    first bad record and the first check that record fails.  A repeated
    node's snapshot must hold the same ids as its first record's.
    """
    data = _read_text(source)
    data += b"" if data.endswith(b"\n") else b"\n"  # ends every line
    fields = data[:data.index(b"\n")].decode("utf-8").split("\t")
    if not fields or fields[0] != _HEADER_PREFIX:
        raise SamplingError("not a graphsize sample file")
    for field in fields[1:]:
        if "=" not in field:
            raise SamplingError(f"sample header field {_excerpt(field)} is "
                                "not key=value")
    meta = {}
    for key, value in (field.split("=", 1) for field in fields[1:]):
        if key in meta:
            raise SamplingError(f"sample header key {_excerpt(key)} given "
                                "twice")
        meta[key] = value
    missing = [key for key in _HEADER_KEYS if key not in meta]
    if missing:
        raise SamplingError(f"sample header lacks {', '.join(missing)}")
    if meta["method"] not in METHODS.values():
        raise SamplingError(
            f"unknown sampling method {_excerpt(meta['method'])}")
    seed, count = _header_int(meta, "seed"), _header_int(meta, "n")
    *columns, sampled, named = _parse_records(data,
                                              meta["method"] == METHOD_UIS)
    if len(columns[0]) != count:
        raise SamplingError("record count does not match header")
    del data  # rank the ids once the text and the parser's arrays are freed
    ids, _, ranks = _first_seen(np.concatenate((sampled, named)))
    return Sample(ids, *columns, ranks[len(sampled):],
                  meta["method"], seed, meta["weight_rule"],
                  meta["graph_digest"], rng_name=meta.get("rng", RNG_NAME))


def _header_int(meta: dict[str, str], key: str) -> int:
    """A header count or seed: one or more ASCII digits, of any size (an
    rw-multi seed is the walk seed times 1,000,003)."""
    text = meta[key]
    if text.isascii() and text.isdigit():
        with contextlib.suppress(ValueError):  # beyond int()'s digit limit
            return int(text)
    shown = _excerpt(text, quote=not text.isprintable())
    raise SamplingError(f"sample header {key}={shown} is not an integer of "
                        "ASCII digits")


_ID_TEXT = "1 to 20 ASCII digits below 2^64"
# What each check of _parse_records, in its order, says of the first record
# that fails it: {i} is its index, {fields} its field count, {entries} its
# snapshot's, and {q[j]} and {p[j]} its field j quoted and as it stands.
_RECORD_ERRORS = (
    "record {i}: expected 6 tab-separated fields, got {fields}",
    "record {i}: position {q[0]} is not " + _ID_TEXT,
    "record {i}: node {q[1]} is not " + _ID_TEXT,
    "record {i}: degree {q[2]} is not " + _ID_TEXT,
    "record {i}: weight {q[3]} is not a number",
    "record {i}: walker {q[4]} is not " + _ID_TEXT,
    "record {i}: walker {q[4]} is not below 2^63",
    "record {i}: snapshot {q[5]} is not a comma-separated list of " + _ID_TEXT,
    "record {p[0]}: position must be its index, {i}",
    "record {p[0]}: weight must be finite and positive, got {p[3]}",
    "record {p[0]}: weight must be 1 in a UIS sample, got {p[3]}",
    "record {p[0]}: degree {p[2]} differs from its {entries} snapshot entries",
    "record {p[0]}: node {p[1]} has a snapshot that differs from an earlier "
    "record's")


def _parse_records(data: bytes, unit: bool) -> tuple:
    """The records of a sample file, the lines after the header that are
    not empty, as :class:`Sample`'s rank, weight and walker columns and
    offsets, then the sampled ids and the ids their snapshots name.  With
    ``unit`` (a uniform sample), every weight must be 1.

    Each check is one boolean array over all records; a malformed record
    gives junk values, not an exception.  A check that reads another record
    reads an earlier one, so the first record that fails is the first bad
    one.  Its message is the first check it fails, in the order of
    ``_RECORD_ERRORS``, worded from its fields' bytes, its tab count and its
    snapshot's entry count: no field is parsed twice.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    sep = _find(buf, "\t", "\n")         # tabs and newlines
    line = np.flatnonzero(buf[sep] == ord("\n"))  # each newline's place in sep
    record = np.flatnonzero(np.diff(sep[line]) > 1)  # the lines not empty
    if not record.size:
        raise SamplingError("sample file has no records")
    n, tabs = len(record), np.diff(line)[record] - 1
    # Field j of each record spans [bounds[:, j] + 1, bounds[:, j + 1]); one
    # with too few tabs reads later separators, junk the tab count rejects.
    bounds = np.take(sep, line[record, None] + np.arange(7), mode="clip")
    begin, stop = bounds[:, :6] + 1, bounds[:, 1:]
    # A weight of 1 to 15 digits then ".0" is an integer below 10^15, which
    # float64 holds exactly, as float() reads it: its digits are read with
    # the integer fields, after position, degree, walker and node.
    # float() reads every other weight.
    weight, after = begin[:, 3], stop[:, 3]
    whole = ((after - weight <= 17) & (buf[after - 2] == ord("."))
             & (buf[after - 1] == ord("0")))
    fields = [0, 2, 4, 1, 3]
    ends = stop[:, fields]
    ends[:, 4] = np.where(whole, after - 2, weight)  # or no digits at all
    values, valid = _decimals(buf, begin[:, fields].T.ravel(), ends.T.ravel())
    position, degree, walker, node, digits = values.reshape(5, n)
    valid = valid.reshape(5, n)
    weights, numeric = digits.astype(np.float64), valid[4].copy()
    other = np.flatnonzero(~valid[4])
    for k, a, b in zip(other.tolist(), weight[other].tolist(),
                       after[other].tolist()):
        try:
            weights[k], numeric[k] = float(data[a:b]), True
        except ValueError:
            pass

    # Snapshots are parsed for each node's first record.  A repeat whose
    # text is its first record's byte for byte needs no parsing; one whose
    # text differs must still name the same ids.
    sampled, first_record, node_ranks = _first_seen(node)
    repeat = np.flatnonzero(first_record[node_ranks] != np.arange(n))
    prior = first_record[node_ranks[repeat]]
    span, length = begin[:, 5], np.maximum(stop[:, 5] - begin[:, 5], 0)
    # Python's slice comparison (memcmp) beats gathering the bytes here.
    differs = np.fromiter(
        (data[a:a + k] != data[b:b + m] for a, k, b, m in zip(
            span[repeat].tolist(), length[repeat].tolist(),
            span[prior].tolist(), length[prior].tolist())),
        dtype=bool, count=len(repeat))
    # Sorted and distinct as np.union1d gives, without importing numpy.ma.
    parsed = np.zeros(n, dtype=bool)
    parsed[first_record] = parsed[repeat[differs]] = True
    parsed = np.flatnonzero(parsed)
    named, count, listed = _snapshots(data, span[parsed], length[parsed])
    slot = np.zeros(n, dtype=np.int64)    # each record's parsed snapshot
    slot[parsed] = np.arange(len(parsed))
    slot[repeat[~differs]] = slot[prior[~differs]]
    at = np.append(0, np.cumsum(count))
    changed, r, p = repeat[differs], slot[repeat[differs]], slot[prior[differs]]
    same = count[r] == count[p]
    unequal = (named[_ranges(at[r[same]], count[r[same]])]
               != named[_ranges(at[p[same]], count[r[same]])])
    moved = np.zeros(n, dtype=bool)  # a repeat unlike its first record
    moved[changed[~same]] = True
    moved[np.repeat(changed[same], count[r[same]])[unequal]] = True

    # One array per check, in the order of _RECORD_ERRORS; valid's rows are
    # position, degree, walker and node.
    checks = (tabs != 5, ~valid[0], ~valid[3], ~valid[1], ~numeric, ~valid[2],
              walker >= 2**63, ~listed[slot], position != np.arange(n),
              ~((weights > 0.0) & (weights < math.inf)),
              (weights != 1.0) & unit,
              degree != count[slot], moved)
    bad = np.logical_or.reduce(checks)
    if bad.any():
        i = int(bad.argmax())
        cells = [data[a:b].decode("utf-8")
                 for a, b in zip(begin[i].tolist(), stop[i].tolist())]
        raise SamplingError(_RECORD_ERRORS[next(
            k for k, failed in enumerate(checks) if failed[i])].format(
            i=i, fields=int(tabs[i]) + 1, entries=int(count[slot[i]]),
            q=[_excerpt(cell) for cell in cells],
            p=[_excerpt(cell, quote=False) for cell in cells]))
    rows = slot[first_record]
    return (node_ranks, weights, walker.astype(np.int64),
            np.append(0, np.cumsum(count[rows])), sampled,
            named[_ranges(at[rows], count[rows])])


def _snapshots(data: bytes, starts: np.ndarray,
               lengths: np.ndarray) -> tuple[np.ndarray, ...]:
    """The comma-separated integers in the spans [starts, starts + lengths),
    the count in each span, and whether a span holds only integers."""
    full = lengths > 0
    # Only these spans are read: copied out, each ended by a comma, so a
    # span's cells end at its commas; an empty span ends where the last did.
    text = b",".join([data[a:a + k] for a, k in zip(
        starts[full].tolist(), lengths[full].tolist())] + [b""])
    buf = np.frombuffer(text, dtype=np.uint8)
    cells = np.append(np.int32(-1), _find(buf, ",", ","))  # their bounds
    values, valid = _decimals(buf, cells[:-1] + 1, cells[1:])
    count = np.diff(np.searchsorted(cells, np.cumsum(lengths + full) - 1),
                    prepend=0)
    listed = np.bincount(np.repeat(np.arange(len(starts)), count), ~valid,
                         minlength=len(starts)) == 0
    return values, count, listed

