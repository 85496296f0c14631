"""Immutable undirected simple graphs with dense node indexing.

Graphs are loaded from edge lists: one pair of ASCII decimal node ids below
2^64 per line, separated by spaces or tabs, with ``#`` comment lines and
blank lines allowed.  The whole text is checked and parsed at once with
byte-class arrays; only a rejected input is scanned line by line, to name
the first bad line.  Every graph, loaded or generated, is built by the one
constructor, :meth:`Graph.from_edges`, which cleans it to simple form (no
self-loops, no parallel edges) and stores it with a dense index in [0, N).
The adjacency is one read-only int64 CSR: node v's neighbors, in
increasing order, are ``indices[indptr[v]:indptr[v + 1]]``.  Nothing is
written after construction except caches of values derived from it, so a
graph is safely shareable across threads.
"""

from __future__ import annotations

import hashlib
import operator
import re
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from numbers import Integral
from typing import IO, Iterable

import numpy as np

_EXCERPT = 80                           # characters an error line quotes


class GraphError(Exception):
    """Base class for graph construction and query errors."""


def _excerpt(text: str, quote: bool = True) -> str:
    """Text as an error line quotes it (its repr, or itself if not ``quote``):
    over ``_EXCERPT`` characters, a head whose repr fits, then the length."""
    show = repr if quote else str
    if len(text) <= _EXCERPT:
        return show(text)
    head = text[:_EXCERPT]
    while len(repr(head)) > _EXCERPT + 2:
        head = head[:-1]
    return f"{show(head)}... ({len(text)} characters)"


class EdgeListParseError(GraphError):
    """Malformed edge-list input."""

    def __init__(self, line_number: int, line: str, reason: str):
        self.line_number = line_number
        self.line = line
        super().__init__(f"line {line_number}: {reason}: {_excerpt(line)}")


@dataclass(frozen=True)
class LoadReport:
    """Counts of lines and edges dropped or collapsed during loading."""

    lines_read: int = 0
    comments_skipped: int = 0
    self_loops_dropped: int = 0
    duplicates_collapsed: int = 0


@dataclass(frozen=True)
class GraphStats:
    """Exact whole-graph statistics (ground truth for estimator tests)."""

    mean_degree: float
    mean_square_degree: float
    density: float


class Graph:
    """Undirected simple graph, immutable after construction.

    Nodes carry two identities: the external 64-bit id from the input, and a
    dense index in [0, N) used everywhere internally.  Dense indices are
    assigned in increasing external-id order, so loading is deterministic:
    ``ext_ids`` is the read-only uint64 array of the ids, sorted.  The CSR
    ``indptr``/``indices`` is read-only too (see the module docstring).
    :meth:`from_edges` is the one constructor.
    """

    __slots__ = ("_indptr", "_indices", "ext_ids", "load_report", "__dict__")

    def _owners(self) -> np.ndarray:
        """The vertex of each CSR entry."""
        return np.repeat(np.arange(self.node_count, dtype=np.int64),
                         np.diff(self._indptr))

    def _edges(self) -> np.ndarray:
        """Each edge once, as an (E, 2) int64 array of dense indices, smaller
        first, in (vertex, position) order of its smaller end.  Dense indices
        follow the ids, so the smaller index has the smaller id."""
        owner = self._owners()
        upper = owner < self._indices
        return np.stack((owner[upper], self._indices[upper]), axis=1)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]] | np.ndarray,
                   extra_nodes: Iterable[int] | np.ndarray = (),
                   report_base: LoadReport | None = None) -> "Graph":
        """Build a graph from external-id edge pairs, ids in [0, 2^64).

        ``edges`` is an iterable of pairs or an (E, 2) integer array;
        GraphError names the first edge or id that is not one.  Self-loops
        are dropped and parallel edges collapsed; the counts land in
        ``load_report``.  ``extra_nodes`` adds isolated nodes by id.
        """
        ext_ids, indptr, indices, loops, dupes = _simple_csr(edges,
                                                             extra_nodes)
        base = report_base or LoadReport()
        graph = object.__new__(cls)
        graph.ext_ids, graph._indptr, graph._indices = ext_ids, indptr, indices
        for array in (ext_ids, indptr, indices):
            array.flags.writeable = False
        graph.load_report = replace(
            base, self_loops_dropped=base.self_loops_dropped + loops,
            duplicates_collapsed=base.duplicates_collapsed + dupes)
        return graph

    # -- basic accessors ---------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.ext_ids)

    @property
    def edge_count(self) -> int:
        return len(self._indices) // 2

    # -- derived, cached ---------------------------------------------------

    @property
    def adjacency_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only CSR int64 arrays (indptr, indices)."""
        return self._indptr, self._indices

    @cached_property
    def adjacency_lists(self) -> tuple[list[int], list[int], list[int]]:
        """The CSR and the degrees as Python lists, for the one loop that
        steps node by node, ``sampling._walk``; the indices share one int
        object per node."""
        shared = np.arange(self.node_count).astype(object)
        return (self._indptr.tolist(), shared[self._indices].tolist(),
                np.diff(self._indptr).tolist())

    @cached_property
    def degree_weights(self) -> np.ndarray:
        """The degrees as a read-only float64 array: the weight table of
        degree-weighted sampling."""
        weights = np.diff(self._indptr).astype(np.float64)
        weights.flags.writeable = False
        return weights

    @cached_property
    def degree_cumulative(self) -> np.ndarray:
        """The running sums of ``degree_weights``, read-only: the table a
        degree-weighted draw looks its draws up in."""
        cumulative = np.cumsum(self.degree_weights)
        cumulative.flags.writeable = False
        return cumulative

    @cached_property
    def digest(self) -> str:
        """Stable hash of the graph content (external-id edge list)."""
        h = hashlib.sha256(self.ext_ids.astype("<u8").tobytes())
        edges = self.ext_ids[self._edges()]
        h.update(edges.astype("<u8", copy=False).tobytes())
        return h.hexdigest()[:16]

    @cached_property
    def component_roots(self) -> np.ndarray:
        """Each node's component, as the read-only int64 array of its
        smallest member's dense index."""
        roots = _component_roots(self._owners(), self._indices,
                                 self.node_count)
        roots.flags.writeable = False
        return roots

    @property
    def is_connected(self) -> bool:
        return not self.component_roots.any()


def _component_roots(owner: np.ndarray, neighbor: np.ndarray,
                     n: int) -> np.ndarray:
    """Each node's smallest component member, by min-label hooking with
    pointer jumping over the (owner, neighbor) entries of a symmetric CSR.

    ``parent[v] <= v`` throughout, and after each jump every node points at
    a root; a root then hooks to the smallest root next to its tree.  Once
    no root moves, every edge joins nodes of one root, the smallest member
    of their component.
    """
    parent = np.arange(n)
    while True:
        hooked = parent.copy()
        np.minimum.at(hooked, parent[owner], parent[neighbor])
        while True:
            jumped = hooked[hooked]
            if (jumped == hooked).all():
                break
            hooked = jumped
        if (hooked == parent).all():
            return parent
        parent = hooked


def _simple_csr(
        edges: Iterable[tuple[int, int]] | np.ndarray,
        extra_nodes: Iterable[int] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """The sorted node ids, the CSR of their dense indices, and the numbers
    of self-loops and of repeated edges in ``edges``; see
    :meth:`Graph.from_edges`.  Each temporary is freed once read."""
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
        odd = next((e for e in edges if len(e) != 2), None)
        if odd is not None:
            raise GraphError(f"edge {odd!r} is not a pair")
        edges = chain.from_iterable(edges)
    elif edges.ndim != 2 or edges.shape[1] != 2:
        raise GraphError(f"edge array of shape {edges.shape} is not (E, 2)")
    pairs = _node_ids(edges).reshape(-1, 2)
    nodes, ranks = _sorted_ranks(
        np.concatenate((pairs.ravel(), _node_ids(extra_nodes))))
    if not nodes.size:
        raise GraphError("empty graph: no nodes in input")
    n = nodes.size
    tips = ranks[:pairs.size].reshape(-1, 2).T
    proper = tips[0] != tips[1]
    kept = int(proper.sum())
    if kept < len(proper):
        tips = tips[:, proper]
    del ranks, proper
    # Each edge in both directions as the key vertex * n + neighbor, formed
    # in int64: in int32 it overflows once n passes 46,341.
    both = np.empty((2, kept), dtype=np.int64)
    np.multiply(tips, n, out=both, dtype=np.int64)
    both += tips[::-1]
    del tips
    # Sorted by (vertex, neighbor), a repeated edge's keys are adjacent.
    both = both.ravel()
    both.sort()
    fresh = np.ones(len(both), dtype=bool)
    np.not_equal(both[1:], both[:-1], out=fresh[1:])
    if not fresh.all():
        both = both[fresh]
    del fresh
    indptr = np.searchsorted(both, np.arange(n + 1) * n)
    np.remainder(both, n, out=both)
    return nodes, indptr, both, len(pairs) - kept, kept - len(both) // 2


def _sorted_ranks(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ids, sorted, and each id's index among them, int32
    where the indices fit.  Dense ids (see :func:`_dense_span`) mark a
    table, and ``ids`` is overwritten with their offsets; others are
    sorted."""
    dense = _dense_span(ids)
    if dense is None:
        # Asking for the inverse makes np.unique sort, which is several
        # times faster here than its hash table.
        nodes, ranks = np.unique(ids, return_inverse=True)
        return nodes, ranks.astype(_index_type(len(nodes)), copy=False)
    low, span = dense
    ids -= low
    # An offset is below span <= 4 len(ids), so int64 indexes as it is.
    offsets = ids.view(np.int64)
    mark = np.zeros(span, dtype=bool)
    mark[offsets] = True
    table = np.cumsum(mark, dtype=_index_type(span))
    table -= 1
    nodes = np.flatnonzero(mark).astype(ids.dtype)
    nodes += low
    return nodes, table[offsets]


def _index_type(n: int) -> type:
    """int32 if the indices [0, n) fit in it, else int64."""
    return np.int32 if n < 2**31 else np.int64


def _dense_span(values: np.ndarray) -> tuple[np.generic, int] | None:
    """The least value and the number of slots from it to the greatest,
    when that is at most four slots per value, so that the values less
    the least can index a table; None for sparser or no values."""
    if not len(values):
        return None
    low = values.min()
    span = int(values.max()) - int(low) + 1
    return (low, span) if span <= 4 * len(values) else None


def _node_ids(ids: Iterable[int] | np.ndarray) -> np.ndarray:
    """Node ids as a uint64 array, taken as it is if it is one, else checked
    id by id; GraphError for an id that is not an integer in [0, 2^64)."""
    if isinstance(ids, np.ndarray):
        if ids.dtype == np.uint64:
            return ids
        ids = ids.ravel().tolist()
    ids = list(ids)
    try:
        return np.array(list(map(operator.index, ids)), dtype=np.uint64)
    except (TypeError, OverflowError):
        bad = next(i for i in ids
                   if not (isinstance(i, Integral) and 0 <= i < 1 << 64))
        raise GraphError(f"node id {bad!r} is not an integer in "
                         f"[0, 2^64)") from None


_MAX_DIGITS = 20                        # len(str(2**64 - 1))
_U64_TOP, _U64_REST = divmod((1 << 64) - 1, 10**19)
_POWERS = 10 ** np.arange(_MAX_DIGITS, dtype=np.uint64)
_SPELL_BLOCK = 2**14
_SCAN = 2**16                           # bytes or runs a parse step reads
_BLANKS = b" \t"
_ID = re.compile(r"-?[0-9]+")


def _read_text(source: IO[str] | IO[bytes]) -> bytes:
    """All the text of a binary or text handle, as UTF-8 bytes, read as
    text mode reads a file: CRLF and a lone CR end a line as LF does, and
    bytes that are not UTF-8 raise UnicodeDecodeError.  Both text readers,
    :func:`load_edge_list` and ``sampling.read_sample``, start here."""
    data = source.read()
    if isinstance(data, str):
        data = data.encode("utf-8")
    elif not data.isascii():
        data.decode("utf-8")  # raises where the bytes are not UTF-8
    return re.sub(rb"\r\n?", b"\n", data) if b"\r" in data else data


def load_edge_list(source: IO[str] | IO[bytes]) -> Graph:
    """Parse an edge list, read from a binary or text handle as
    :func:`_read_text` reads it, into a simple graph.

    Each line holds two node ids, 1 to 20 ASCII digits with a value below
    2^64, separated by spaces or tabs.  Blank lines are skipped, and so is
    a comment line, whose first non-blank character is '#'.  Self-loops are
    dropped, duplicate edges collapsed, and external ids remapped densely;
    counts are recorded in the returned graph's ``load_report``.  Any other
    line raises EdgeListParseError naming the first such line.
    """
    pairs, report = _parse_edge_list(_read_text(source))
    return Graph.from_edges(pairs, report_base=report)


def _parse_edge_list(data: bytes) -> tuple[np.ndarray, LoadReport]:
    """The id pairs of an edge list as an (E, 2) uint64 array, and its line
    and comment counts.  Positions are int32 where they fit, and each
    temporary is freed once read."""
    buf = np.frombuffer(data, dtype=np.uint8)
    newlines = _find(buf, "\n", "\n")
    starts, ends, line_of = _tokens(buf, newlines)
    # A comment line's first token starts with '#': of the tokens that
    # start at a '#', those first on their line mark the comments.
    hashes = _find(buf, "#", "#")
    lead = np.searchsorted(starts, hashes)
    lead = lead[np.take(starts, lead, mode="clip") == hashes]
    lead = lead[(lead == 0) | (line_of[lead - 1] != line_of[lead])]
    comment = np.zeros(len(newlines) + 1, dtype=bool)
    comment[line_of[lead]] = True
    if lead.size:
        kept = ~comment[line_of]
        starts, ends, line_of = starts[kept], ends[kept], line_of[kept]
    values, valid = _decimals(buf, starts, ends)
    del starts, ends

    # The first bad line: one that does not hold two tokens, or a token that
    # is no node id.
    per_line = np.bincount(line_of, minlength=len(comment))
    bad = np.concatenate((np.flatnonzero((per_line != 0) & (per_line != 2)),
                          line_of[~valid][:1]))
    if bad.size:
        index = int(bad.min())
        begin = int(newlines[index - 1]) + 1 if index else 0
        end = int(newlines[index]) if index < len(newlines) else len(data)
        raise _line_error(index + 1, data[begin:end])
    lines_read = len(newlines) + (bool(data) and not data.endswith(b"\n"))
    return values.reshape(-1, 2), LoadReport(
        lines_read=lines_read, comments_skipped=int(comment.sum()))


def _decimals(buf: np.ndarray, starts: np.ndarray,
              ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The byte runs [starts, ends) of ``buf`` read as node ids, 1 to 20
    ASCII digits with a value below 2^64: their uint64 values, junk where a
    run is no id, and whether each is one.  A run may be empty, end before
    it starts, or reach past either end of ``buf``.  The runs are read
    _SCAN at a time, which bounds the temporaries."""
    values = np.zeros(len(starts), dtype=np.uint64)
    valid = np.empty(len(starts), dtype=bool)
    for i in range(0, len(starts), _SCAN):
        value, ok, end = (a[i:i + _SCAN] for a in (values, valid, ends))
        lengths = end - starts[i:i + _SCAN]
        np.greater(lengths, 0, out=ok)
        ok &= lengths <= _MAX_DIGITS
        # Horner's rule from the right: the digit k places before a run's
        # end is worth 10**k, and a byte before the run's start counts as
        # a zero.
        for k in range(min(int(lengths.max(initial=0)), _MAX_DIGITS)):
            digit = np.take(buf, end - (k + 1), mode="clip")
            digit -= np.uint8(ord("0"))
            digit *= lengths > k
            ok &= digit <= 9
            if k == _MAX_DIGITS - 1:  # a 20th digit may carry past 2^64 - 1
                ok &= (digit < _U64_TOP) | ((digit == _U64_TOP)
                                            & (value <= _U64_REST))
            value += digit * np.uint64(10**k)
    return values, valid


def _digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """uint64 values as the ASCII decimal digits :func:`_decimals` reads,
    without leading zeros: every value's digits back to back in one uint8
    array, and each value's start and length in it."""
    lengths = np.searchsorted(_POWERS[1:], values, side="right") + 1
    ends = np.cumsum(lengths)
    width = int(lengths.max(initial=0))
    # Places are written from the highest down, each at its distance from
    # its value's end.  A value without the place writes a zero into the
    # bytes before its own, which a lower place of their value writes again
    # later, or into the padding ahead of the first value.
    text = np.empty(width + int(lengths.sum()), dtype=np.uint8)
    at = ends + (width - 1)
    higher = np.zeros(len(values), dtype=np.uint64)
    for k in reversed(range(width)):
        quotient = values // _POWERS[k]
        text[at - k] = quotient - higher * np.uint64(10) + np.uint64(ord("0"))
        higher = quotient
    return text[width:], ends - lengths, lengths


def _spelled(text: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
             cells: np.ndarray, marks: bytes | np.ndarray) -> str:
    """The texts [starts, starts + lengths) of ``text`` at the indices
    ``cells``, back to back, each followed by its byte of ``marks``.  The
    cells are gathered _SPELL_BLOCK at a time, which bounds the gather's
    temporaries."""
    marks = np.frombuffer(marks, dtype=np.uint8)
    # The gather indices take 32 bits when every position in the text fits;
    # a block is far shorter than 2^31 bytes.
    gather = _index_type(len(text))
    blocks = []
    for k in range(0, len(cells), _SPELL_BLOCK):
        block = cells[k:k + _SPELL_BLOCK]
        # Each cell's range reads one byte past its text, where its mark goes.
        runs = lengths[block] + 1
        spelled = np.take(text, _ranges(starts[block], runs, gather),
                          mode="clip")
        spelled[np.cumsum(runs) - 1] = marks[k:k + _SPELL_BLOCK]
        blocks.append(spelled.tobytes())
    return b"".join(blocks).decode("ascii")


def _ranges(starts: np.ndarray, lengths: np.ndarray,
            dtype=np.int64) -> np.ndarray:
    """The ranges [starts[i], starts[i] + lengths[i]) concatenated."""
    index = np.repeat((starts - np.cumsum(lengths) + lengths).astype(dtype),
                      lengths)
    index += np.arange(len(index), dtype=dtype)
    return index


def _tokens(buf: np.ndarray, newlines: np.ndarray) -> tuple[np.ndarray, ...]:
    """The start and end of each token, a maximal run of bytes that are
    neither blanks nor newlines, and the index of its line, given the
    ``newlines`` positions.  The bytes are scanned _SCAN at a time, so no
    per-byte array spans the text."""
    dtype = _index_type(len(buf) + 1)
    bounds, inside = [np.zeros(0, dtype=dtype)], False
    word = np.empty(_SCAN + 1, dtype=bool)  # [0]: the byte before the part
    for i in range(0, len(buf), _SCAN):
        part = buf[i:i + _SCAN]
        word[0] = inside
        in_part = word[1:len(part) + 1]
        np.not_equal(part, ord("\n"), out=in_part)
        for blank in _BLANKS:
            in_part &= part != blank
        # A token starts or ends where a byte and its predecessor differ.
        flips = np.flatnonzero(in_part != word[:len(part)]).astype(dtype)
        flips += dtype(i)
        bounds.append(flips)
        inside = bool(in_part[-1])
    if inside:
        bounds.append(np.array([len(buf)], dtype=dtype))
    bounds = np.concatenate(bounds)
    starts, ends = bounds[0::2], bounds[1::2]
    line_of = np.empty(len(starts), dtype=_index_type(len(newlines) + 1))
    for i in range(0, len(starts), _SCAN):
        line_of[i:i + _SCAN] = np.searchsorted(newlines, starts[i:i + _SCAN])
    return starts, ends, line_of


def _find(buf: np.ndarray, low: str, high: str) -> np.ndarray:
    """The positions of the bytes from ``low`` to ``high`` in ``buf``, int32
    where they fit, found _SCAN bytes at a time so no temporary spans the
    text."""
    dtype = _index_type(len(buf))
    # Subtracting low wraps every byte below it past high - low.
    return np.concatenate([
        np.flatnonzero(buf[i:i + _SCAN] - np.uint8(ord(low))
                       <= ord(high) - ord(low)).astype(dtype) + dtype(i)
        for i in range(0, max(len(buf), 1), _SCAN)])


def _line_error(line_number: int, raw: bytes) -> EdgeListParseError:
    """The error for an edge-list line that the array check rejected."""
    line = raw.decode("utf-8").strip(_BLANKS.decode())
    fields = re.split(r"[ \t]+", line)
    if len(fields) != 2:
        reason = "expected two node ids"
    elif not all(map(_ID.fullmatch, fields)):
        reason = "non-integer node id"
    elif any(f.startswith("-") for f in fields):
        reason = "negative node id"
    elif any(len(f) > _MAX_DIGITS for f in fields):
        reason = f"node id longer than {_MAX_DIGITS} digits"
    else:
        reason = "node id not below 2^64"
    return EdgeListParseError(line_number, line, reason)


def write_edge_list(g: Graph, sink: IO[str]) -> None:
    """Serialize as one external-id pair per line, smaller id first.  Each
    id is formatted once, and the lines are gathered from those texts."""
    sink.write(_spelled(*_digits(g.ext_ids), g._edges().ravel(),
                        b" \n" * g.edge_count))


def largest_connected_component(g: Graph) -> Graph:
    """Induced subgraph on the largest component, renumbered densely.

    External ids are retained, and a connected graph is returned as it is.
    Ties on component size break towards the component containing the
    smallest external id, for determinism.
    """
    if g.is_connected:
        return g
    # The first largest component has the smallest root, and a component's
    # root has its smallest external id.
    roots = g.component_roots
    root = np.bincount(roots).argmax()
    edges = g._edges()
    # An edge lies inside one component, so its smaller end decides.
    edges = edges[roots[edges[:, 0]] == root]
    return Graph.from_edges(g.ext_ids[edges],
                            extra_nodes=g.ext_ids[roots == root])


def exact_stats(g: Graph) -> GraphStats:
    """Exact mean degree, mean squared degree, and density.

    Density is undefined for a single node; N >= 2 is required.
    """
    n = g.node_count
    if n < 2:
        raise GraphError("density undefined for N < 2")
    # Exact int64 sums, so each mean is one correctly rounded division.
    degs = np.diff(g.adjacency_arrays[0])
    mean_k = int(degs.sum()) / n
    mean_k2 = int((degs * degs).sum()) / n
    density = 2 * g.edge_count / (n * (n - 1))
    return GraphStats(mean_k, mean_k2, density)


def size_identity(g: Graph) -> float:
    """The algebraic size identity: mean degree over density, plus one.

    Equals N exactly (up to rounding) for any simple graph with at least
    one edge.
    """
    if g.edge_count == 0:
        raise GraphError("size identity undefined: density is zero")
    s = exact_stats(g)
    return s.mean_degree / s.density + 1.0
