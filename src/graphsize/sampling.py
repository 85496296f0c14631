"""Node samplers, the in-memory sample and the sample file format.

Every sampler is a pure function of (graph, parameters, seed) using numpy's
PCG64 generator, named in the sample metadata so files are reproducible
across platforms.  Each sampled node keeps a snapshot of its neighbor list,
so estimation downstream never needs the full graph.  A sample holds its
nodes as dense ranks of their ids, and the estimators count with arrays of
ranks; no id enters their arithmetic.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, islice
from typing import IO, Callable, NamedTuple, Sequence

import numpy as np

from .graph import Graph, _excerpt

RNG_NAME = "numpy-pcg64"

METHOD_UIS = "UIS"
METHOD_WIS = "WIS"
METHOD_RW = "RW"
METHOD_RW_MULTI = "RW_MULTI"

# Sampling method name, as plans and the CLI spell it -> ``Sample.method``.
METHODS = {"uis": METHOD_UIS, "wis": METHOD_WIS, "rw": METHOD_RW,
           "rw-multi": METHOD_RW_MULTI}


class SamplingError(Exception):
    """Invalid sampler input (e.g. disconnected graph for a random walk)."""


@dataclass(frozen=True, eq=False)
class Sample:
    """An ordered node sample and where it came from, over dense node ranks.

    Rank r stands for the id ``ids[r]``, so ids may be arbitrarily large.
    Position i holds the node of rank ``rank_column[i]``, its weight
    ``weight_column[i]`` (float64) and its walker ``walker_column[i]``
    (int64).  Snapshots are kept once per distinct node, as one CSR: row r,
    ``entries[offsets[r]:offsets[r + 1]]``, holds the ranks that rank r's
    snapshot names, and every sampled rank has a row.  The samplers and
    :func:`read_sample` rank the sampled nodes first, then the ids only a
    snapshot names, each in order of first appearance; :meth:`subset` keeps
    its parent's ids and CSR.

    Samples compare by identity.  The ``nodes()`` and ``degrees()`` lists
    remain only for ``bench/``, until it reads the columns.  The margin and
    cross-walker kernels read two cached :class:`Occurrences`, made on
    first use: ``occurrences``, where each rank is sampled, and
    ``mentions``, which positions' snapshots name it.  A sample derived by
    :meth:`subset` or ``dataclasses.replace`` builds its own.
    """

    ids: tuple[int, ...]
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
        for column in (self.rank_column, self.weight_column,
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
        return list(map(self.ids.__getitem__, self.rank_column.tolist()))

    def degrees(self) -> list[int]:
        return self.degree_column.tolist()

    def subset(self, positions: Sequence[int] | np.ndarray) -> Sample:
        """The sample of the given positions, in that order; it shares this
        sample's ids and snapshots."""
        index = np.asarray(positions, dtype=np.intp)
        return replace(self, rank_column=self.rank_column[index],
                       weight_column=self.weight_column[index],
                       walker_column=self.walker_column[index])

    @cached_property
    def occurrences(self) -> Occurrences:
        """Each position's node, as one occurrence of its rank."""
        n = len(self)
        return _occurrences(self.rank_column, np.arange(n), n, len(self.ids))

    @cached_property
    def mentions(self) -> Occurrences:
        """Each snapshot entry, as an occurrence of the rank it names at the
        position carrying it.  Node-only queries never build it."""
        n, size, lengths = len(self), len(self.ids), self.degree_column
        # Position p's entries are entries[starts[p]:starts[p] + lengths[p]].
        # The gather indices take 32 bits when they fit, and the ranks and
        # positions gathered the fewest bits that hold them.
        gather = np.int32 if lengths.sum() <= 2**31 - 1 else np.int64
        return _occurrences(
            self.entries.astype(np.min_scalar_type(size))[_ranges(
                self.offsets[self.rank_column], lengths, gather)],
            np.repeat(np.arange(n, dtype=np.min_scalar_type(n)), lengths), n,
            size)

    def far(self, occ: Occurrences, lo: np.ndarray,
            hi: np.ndarray) -> np.ndarray:
        """For each position i, the occurrences in ``occ`` of i's node at
        positions outside the window [lo[i], hi[i])."""
        keys = self.occurrences.keys
        p = keys % (len(self) + 1)
        base = keys - p
        # Queried in key order, the binary searches walk the keys forwards.
        below, until = (np.searchsorted(occ.keys, (base + edge[p]).astype(
            keys.dtype)) for edge in (lo, hi))
        near = np.empty(len(p), dtype=np.int64)
        near[p] = until - below
        return occ.counts[self.rank_column] - near


class Occurrences(NamedTuple):
    """Where each rank occurs in a sample of n positions, read-only.

    An occurrence of rank r at position p is the key r * (n + 1) + p, so the
    sorted keys list each rank's positions in order, and counting a rank's
    occurrences in a window of positions takes two binary searches.
    """

    keys: np.ndarray     # sorted; int32 when every key fits
    counts: np.ndarray   # occurrences per rank
    first: np.ndarray    # first position per rank, n if none
    last: np.ndarray     # last position per rank, -1 if none


def _occurrences(ranks: np.ndarray, positions: np.ndarray, n: int,
                 size: int) -> Occurrences:
    """The occurrences of ``ranks[k]`` (below ``size``) at ``positions[k]``."""
    stride = n + 1
    # Keys take 32 bits when they fit: they are the largest array a margin
    # estimate allocates.
    keys = ranks.astype(np.int32 if size * stride <= 2**31 - 1 else np.int64)
    del ranks  # a gathered rank column is freed before the sort
    keys *= stride
    keys += positions
    keys.sort()
    bounds = np.searchsorted(keys, np.arange(0, (size + 1) * stride, stride,
                                             dtype=keys.dtype))
    counts = np.diff(bounds)
    carried = np.flatnonzero(counts)
    first = np.full(size, n, dtype=np.int64)
    last = np.full(size, -1, dtype=np.int64)
    first[carried] = keys[bounds[carried]] - carried * stride
    last[carried] = keys[bounds[carried + 1] - 1] - carried * stride
    for array in (keys, counts, first, last):
        array.flags.writeable = False
    return Occurrences(keys, counts, first, last)


def _first_seen(values: np.ndarray, size: int | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct values by first appearance, each one's first index, and
    every value's rank in that order.  Values in [0, size), or spanning at
    most four slots per value, index a table; others are sorted."""
    if size is None and len(values) and values.dtype != object:
        low, high = int(values.min()), int(values.max())
        if high - low < 4 * len(values):
            distinct, first, ranks = _first_seen(values - low, high - low + 1)
            return distinct + low, first, ranks
    distinct, inverse = (np.unique(values, return_inverse=True) if size is None
                         else (np.arange(size), values))
    first = np.full(len(distinct), len(values))
    np.minimum.at(first, inverse, np.arange(len(values)))
    # Marked over the positions, the first appearances come out in order.
    mark = np.zeros(len(values) + 1, dtype=bool)
    mark[first] = True
    first = np.flatnonzero(mark[:-1])
    rank = np.empty(len(distinct), dtype=np.int64)
    rank[inverse[first]] = np.arange(len(first))
    return distinct[inverse[first]], first, rank[inverse]


def _ranges(starts: np.ndarray, lengths: np.ndarray,
            dtype=np.int64) -> np.ndarray:
    """The ranges [starts[i], starts[i] + lengths[i]) concatenated."""
    index = np.repeat((starts - np.cumsum(lengths) + lengths).astype(dtype),
                      lengths)
    index += np.arange(len(index), dtype=dtype)
    return index


def _drawn(g: Graph, nodes: np.ndarray, weights: np.ndarray,
           walkers: np.ndarray, method: str, seed: int, rule: str) -> Sample:
    """A sample of dense node indices, each with the graph's snapshot."""
    sampled, _, node_ranks = _first_seen(nodes, g.node_count)
    indptr, indices = g.adjacency_arrays
    starts = indptr[sampled]
    lengths = indptr[sampled + 1] - starts
    ids, _, ranks = _first_seen(np.concatenate(
        (sampled, indices[_ranges(starts, lengths)])), g.node_count)
    return Sample(tuple(ids.tolist()), node_ranks, weights, walkers,
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
    cumulative = np.cumsum(weights)
    draws = rng.random(n) * cumulative[-1]
    nodes = np.searchsorted(cumulative, draws, side="right")
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
    indptr, indices = g.adjacency_lists
    degrees = g.degrees
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
#   position \t external-node-id \t degree \t weight \t walker \t n1,n2,...
# Node ids in record lines are external ids when a graph is supplied for
# writing, otherwise the sample's own ids.  A node's records repeat its one
# snapshot.

_HEADER_PREFIX = "graphsize-sample v1"
_HEADER_KEYS = ("method", "seed", "weight_rule", "graph_digest", "n")


def write_sample(s: Sample, sink: IO[str], g: Graph | None = None) -> None:
    """Write the line-oriented sample format (bit-exact, documented above)."""
    sink.write(f"{_HEADER_PREFIX}\tmethod={s.method}\tseed={s.seed}"
               f"\tweight_rule={s.weight_rule}\tgraph_digest={s.graph_digest}"
               f"\trng={s.rng_name}\tn={len(s)}\n")
    names = list(map(str, s.ids if g is None
                     else map(g.ext_ids.__getitem__, s.ids)))
    bounds, ranks = s.offsets.tolist(), s.rank_column.tolist()
    entries = list(map(names.__getitem__, s.entries.tolist()))
    # Each distinct node's id, degree and snapshot are formatted once.
    formatted = {r: (f"{names[r]}\t{bounds[r + 1] - bounds[r]}",
                     ",".join(entries[bounds[r]:bounds[r + 1]]))
                 for r in dict.fromkeys(ranks)}
    lines = (f"{i}\t{formatted[r][0]}\t{w!r}\t{k}\t{formatted[r][1]}\n"
             for i, (r, w, k) in enumerate(zip(
                 ranks, s.weight_column.tolist(), s.walker_column.tolist())))
    for batch in iter(lambda: "".join(islice(lines, 4096)), ""):
        sink.write(batch)


def read_sample(source: IO[str] | IO[bytes]) -> Sample:
    """Read a sample file from a binary or text handle; node ids are the
    external ids as written.

    Bytes are read as text mode reads them: CRLF and a lone CR end a line,
    and text that is not UTF-8 raises UnicodeDecodeError.  From a text
    handle, its own newline translation applies.  The records are checked
    and parsed at once with byte-class arrays; only a rejected file is
    looked at record by record, to name its first bad record.  A repeated
    node's snapshot must hold the same ids as its first record's.
    """
    data = source.read()
    if isinstance(data, str):
        data = data.encode("utf-8")
    elif not data.isascii() or b"\r" in data:  # read it as text mode would
        data = re.sub(rb"\r\n?", b"\n", data.decode("utf-8").encode("utf-8"))
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
    *columns, sampled, named = _parse_records(data)
    if len(columns[0]) != count:
        raise SamplingError("record count does not match header")
    del data  # rank the ids once the text and the parser's arrays are freed
    ids, _, ranks = _first_seen(np.concatenate((sampled, named)))
    return Sample(tuple(ids.tolist()), *columns, ranks[len(sampled):],
                  meta["method"], seed, meta["weight_rule"],
                  meta["graph_digest"], rng_name=meta.get("rng", RNG_NAME))


def _header_int(meta: dict[str, str], key: str) -> int:
    try:
        return int(meta[key])
    except ValueError:
        raise SamplingError(f"sample header {key}="
                            f"{_excerpt(meta[key], quote=False)} is not an "
                            "integer") from None


_SHORT = 18                             # digits that always fit in int64
_INT64 = range(-2**63, 2**63)
_INTEGER = re.compile(r"-?[0-9]+")


def _is_integer(text: str) -> bool:
    """Whether text is ASCII digits after an optional '-', no more of them
    than int() converts (``sys.get_int_max_str_digits()``, 0 for no limit)."""
    limit = sys.get_int_max_str_digits()
    return (_INTEGER.fullmatch(text) is not None
            and not 0 < limit < len(text) - text.startswith("-"))


def _parse_records(data: bytes) -> tuple:
    """The records of a sample file, the lines after the header that are
    not empty, as :class:`Sample`'s rank, weight and walker columns and
    offsets, then the sampled ids and the ids their snapshots name.

    Every check runs on all records at once; a malformed record gives junk
    values, not an exception.  A check that reads another record reads an
    earlier one, so the first record that fails is the first bad one.
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
    fields = [0, 2, 4, 1]                # position, degree, walker, node
    values, valid, wide = _integers(data, buf, begin[:, fields].T.ravel(),
                                    stop[:, fields].T.ravel())
    position, degree, walker, node = values.reshape(4, n)
    weights = _floats(buf, begin[:, 3], stop[:, 3] - begin[:, 3])

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

    bad = ((tabs != 5)
           | ~valid.reshape(4, n).all(axis=0) | wide.reshape(4, n)[2]
           | ~((weights > 0.0) & (weights < math.inf))
           | (position != np.arange(n)) | ~listed[slot]
           | (degree != count[slot]))
    bad[changed[~same]] = True
    bad[np.repeat(changed[same], count[r[same]])[unequal]] = True
    if bad.any():
        i = int(bad.argmax())
        end = sep[line[record[i] + 1]]
        raise _record_error(i, data[begin[i, 0]:end].decode("utf-8"))
    rows = slot[first_record]
    return (node_ranks, weights, walker.astype(np.int64),
            np.append(0, np.cumsum(count[rows])), sampled,
            named[_ranges(at[rows], count[rows])])


def _find(buf: np.ndarray, low: str, high: str) -> np.ndarray:
    """The positions of the bytes from ``low`` to ``high`` in ``buf``, int32
    where they fit, found a MiB at a time so no temporary spans the text."""
    dtype = np.int32 if len(buf) < 2**31 else np.int64
    # Subtracting low wraps every byte below it past high - low.
    return np.concatenate([
        np.flatnonzero(buf[i:i + 2**20] - np.uint8(ord(low))
                       <= ord(high) - ord(low)).astype(dtype) + dtype(i)
        for i in range(0, max(len(buf), 1), 2**20)])


def _integers(data: bytes, buf: np.ndarray, starts: np.ndarray,
              ends: np.ndarray) -> tuple[np.ndarray, ...]:
    """The cells [starts, ends) as integers (ASCII digits after an optional
    '-'), whether each is one, and whether it is beyond int64.  The values
    are int64, or Python ints in an object array if one is beyond int64;
    an invalid cell's value is junk."""
    signed = np.take(buf, starts, mode="clip") == ord("-")
    digits = ends - starts - signed
    valid = digits > 0
    values = np.zeros(len(starts), dtype=np.int64)
    # Horner's rule from the right: the digit k places before a cell's end
    # is worth 10**k.
    cursor = ends - 1
    for k in range(min(int(digits.max(initial=0)), _SHORT)):
        digit = np.take(buf, cursor, mode="clip") - np.uint8(ord("0"))
        digit *= digits > k
        valid &= digit <= 9
        values += digit * np.int64(10**k)
        cursor -= 1
    np.negative(values, out=values, where=signed)
    wide, beyond = np.zeros(len(starts), dtype=bool), []
    for c in np.flatnonzero(digits > _SHORT).tolist():
        cell = data[starts[c]:ends[c]].decode()
        valid[c] = _is_integer(cell)
        if valid[c] and int(cell) in _INT64:
            values[c] = int(cell)
        elif valid[c]:
            wide[c] = True
            beyond.append(int(cell))
    if beyond:
        values = values.astype(object)
        values[wide] = beyond
    return values, valid, wide


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
    values, valid, _ = _integers(text, buf, cells[:-1] + 1, cells[1:])
    count = np.diff(np.searchsorted(cells, np.cumsum(lengths + full) - 1),
                    prepend=0)
    listed = np.bincount(np.repeat(np.arange(len(starts)), count), ~valid,
                         minlength=len(starts)) == 0
    return values, count, listed


def _floats(buf: np.ndarray, starts: np.ndarray,
            lengths: np.ndarray) -> np.ndarray:
    """The cells as float() reads them, NaN where it cannot."""
    # Space padding, which float() ignores, keeps every NUL byte inside.
    width = int(lengths.max(initial=0)) + 1
    columns = np.arange(width)
    text = np.take(buf, starts[:, None] + columns, mode="clip")
    text[columns >= lengths[:, None]] = ord(" ")
    text = text.view(f"S{width}").ravel()
    try:
        return text.astype(np.float64)
    except ValueError:
        return np.array(list(map(_number, text.tolist())), dtype=np.float64)


def _number(text: bytes) -> float | None:
    """float(text), or None where float() cannot read it."""
    try:
        return float(text)
    except ValueError:
        return None


# Each field before the snapshot, its check and what it must be.
_FIELDS = (("position", _is_integer, "an integer"),
           ("node", _is_integer, "an integer"),
           ("degree", _is_integer, "an integer"),
           ("weight", lambda text: _number(text.encode()) is not None,
            "a number"),
           ("walker", _is_integer, "an integer"))


def _record_error(i: int, line: str) -> SamplingError:
    """The one-line error for record i, which the array checks rejected: of
    its problems, the first in the order checked here."""
    fields = line.split("\t")
    if len(fields) != 6:
        return SamplingError(f"record {i}: expected 6 tab-separated fields, "
                             f"got {len(fields)}")
    for (name, check, kind), text in zip(_FIELDS, fields):
        if not check(text):
            return SamplingError(f"record {i}: {name} {_excerpt(text)} is "
                                 f"not {kind}")
    pos, node, deg, weight, walker, nbrs = fields
    label = f"record {_excerpt(pos, quote=False)}"
    if int(walker) not in _INT64:
        return SamplingError(f"record {i}: walker {_excerpt(walker)} is not a "
                             "64-bit integer")
    ids = nbrs.split(",") if nbrs else []
    if not all(map(_is_integer, ids)):
        return SamplingError(f"record {i}: snapshot {_excerpt(nbrs)} is not a "
                             "comma-separated list of integer ids")
    if int(pos) != i:
        return SamplingError(f"{label}: position must be its index, {i}")
    if not 0.0 < float(weight.encode()) < math.inf:
        return SamplingError(f"{label}: weight must be finite and positive, "
                             f"got {_excerpt(weight, quote=False)}")
    if int(deg) != len(ids):
        return SamplingError(f"{label}: degree {_excerpt(deg, quote=False)} "
                             f"differs from its {len(ids)} snapshot entries")
    return SamplingError(f"{label}: node {_excerpt(node, quote=False)} has a "
                         "snapshot that differs from an earlier record's")
