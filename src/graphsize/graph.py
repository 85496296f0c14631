"""Immutable undirected simple graphs with dense node indexing.

Graphs are loaded from edge lists: one pair of ASCII decimal node ids below
2^64 per line, separated by spaces or tabs, with ``#`` comment lines and
blank lines allowed.  The whole text is checked and parsed at once with
byte-class arrays; only a rejected input is scanned line by line, to name
the first bad line.  Every graph, loaded or generated, is built by
:meth:`Graph.from_edges`, which cleans it to simple form (no self-loops, no
parallel edges) and stores it with a dense index in [0, N).  The adjacency
is one read-only int64 CSR: node v's neighbors, in increasing order, are
``indices[indptr[v]:indptr[v + 1]]``.  Nothing is written after
construction except caches of values derived from it, so a graph is safely
shareable across threads.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
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
    assigned in increasing external-id order, so loading is deterministic.
    ``indptr`` and ``indices`` are the adjacency as a CSR (see the module
    docstring); the graph keeps them read-only.
    """

    __slots__ = ("_indptr", "_indices", "_ext_array", "_ext_ids",
                 "load_report", "__dict__")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 ext_ids: Iterable[int] | np.ndarray,
                 load_report: LoadReport | None = None):
        self._ext_array = _node_ids(ext_ids).copy()
        self._ext_ids: tuple[int, ...] = tuple(self._ext_array.tolist())
        if len(indptr) != len(self._ext_ids) + 1:
            raise GraphError("adjacency and id map length mismatch")
        if not self._ext_ids:
            raise GraphError("empty graph")
        # Dense indices follow the ids: an edge's smaller end has the
        # smaller id (_edge_array).
        unsorted = np.flatnonzero(self._ext_array[1:] <= self._ext_array[:-1])
        if unsorted.size:
            v = int(unsorted[0]) + 1
            raise GraphError(f"external id {self._ext_ids[v]} at dense index "
                             f"{v} does not exceed its predecessor")
        self._indptr = np.array(indptr, dtype=np.int64)
        self._indices = np.array(indices, dtype=np.int64)
        if (self._indptr[0] != 0 or self._indptr[-1] != len(self._indices)
                or (np.diff(self._indptr) < 0).any()):
            raise GraphError("indptr does not delimit the indices")
        for array in (self._ext_array, self._indptr, self._indices):
            array.flags.writeable = False
        self.load_report = load_report
        self._validate()

    def _validate(self) -> None:
        """Every neighbor list sorted, unique, in range and loop-free.

        The checks run on the whole CSR at once; the error names the first
        offending entry in (vertex, position) order, and of its failed
        checks the first of: self-loop, order, range.
        """
        owner, flat = self._owners(), self._indices
        loop = flat == owner
        # An entry is out of order if it is at most its predecessor in the
        # same list, or than -1 if it comes first.  Any negative entry may
        # count: at the first offender every predecessor passed, so is >= 0.
        unordered = flat < 0
        unordered[1:] |= (owner[1:] == owner[:-1]) & (flat[1:] <= flat[:-1])
        bad = loop | unordered | (flat >= self.node_count)
        if bad.any():
            i = int(bad.argmax())
            v, u = int(owner[i]), int(flat[i])
            if loop[i]:
                raise GraphError(f"self-loop at dense index {v}")
            if unordered[i]:
                raise GraphError(f"adjacency of {v} not sorted/unique")
            raise GraphError(f"neighbor index {u} out of range")

    def _owners(self) -> np.ndarray:
        """The vertex of each CSR entry, as an int64 array."""
        return np.repeat(np.arange(self.node_count),
                         np.diff(self._indptr))

    def _edge_array(self) -> np.ndarray:
        """Each edge once, as an (E, 2) uint64 array of external ids, smaller
        id first, in (vertex, position) order of its smaller end."""
        owner = self._owners()
        upper = owner < self._indices
        ext = self._ext_array
        return np.stack((ext[owner[upper]], ext[self._indices[upper]]),
                        axis=1)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]] | np.ndarray,
                   extra_nodes: Iterable[int] | np.ndarray = (),
                   report_base: LoadReport | None = None) -> "Graph":
        """Build a graph from external-id edge pairs, ids in [0, 2^64).

        ``edges`` is an iterable of pairs or an (E, 2) integer array.
        Self-loops are dropped and parallel edges collapsed; the counts land
        in ``load_report``.  ``extra_nodes`` adds isolated nodes by id.
        """
        ext_ids, indptr, indices, loops, dupes = _simple_csr(edges,
                                                             extra_nodes)
        base = report_base or LoadReport()
        return cls(indptr, indices, ext_ids, replace(
            base, self_loops_dropped=base.self_loops_dropped + loops,
            duplicates_collapsed=base.duplicates_collapsed + dupes))

    # -- basic accessors ---------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._ext_ids)

    @property
    def edge_count(self) -> int:
        return len(self._indices) // 2

    @property
    def ext_ids(self) -> tuple[int, ...]:
        return self._ext_ids

    # -- derived, cached ---------------------------------------------------

    @property
    def adjacency_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only CSR int64 arrays (indptr, indices)."""
        return self._indptr, self._indices

    @cached_property
    def adjacency_lists(self) -> tuple[list[int], list[int]]:
        """The CSR as Python lists, for the one loop that steps node by
        node, ``sampling._walk``; the indices share one int object per
        node."""
        shared = np.arange(self.node_count).astype(object)
        return self._indptr.tolist(), shared[self._indices].tolist()

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(np.diff(self._indptr).tolist())

    @cached_property
    def degree_weights(self) -> np.ndarray:
        """The degrees as a read-only float64 array: the weight table of
        degree-weighted sampling."""
        weights = np.diff(self._indptr).astype(np.float64)
        weights.flags.writeable = False
        return weights

    @cached_property
    def digest(self) -> str:
        """Stable hash of the graph content (external-id edge list)."""
        h = hashlib.sha256(self._ext_array.astype("<u8").tobytes())
        h.update(self._edge_array().astype("<u8", copy=False).tobytes())
        return h.hexdigest()[:16]

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components as sorted dense-index tuples, in order of
        their smallest members."""
        n = self.node_count
        root = _component_roots(self._owners(), self._indices, n)
        order = np.argsort(root, kind="stable")
        bounds = np.flatnonzero(np.diff(root[order], prepend=-1,
                                        append=n)).tolist()
        members = order.tolist()
        return tuple(tuple(members[a:b]) for a, b in zip(bounds, bounds[1:]))

    @property
    def is_connected(self) -> bool:
        return len(self.components) == 1


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
    :meth:`Graph.from_edges`."""
    if not isinstance(edges, np.ndarray):
        edges = chain.from_iterable(edges)
    pairs = _node_ids(edges).reshape(-1, 2)
    # Asking for the inverse or the counts makes np.unique sort, which is
    # several times faster here than its hash table.
    nodes, ranks = np.unique(
        np.concatenate((pairs.ravel(), _node_ids(extra_nodes))),
        return_inverse=True)
    if not nodes.size:
        raise GraphError("empty graph: no nodes in input")
    n = nodes.size
    ranks = ranks[:pairs.size].reshape(-1, 2)
    lo, hi = ranks.min(axis=1), ranks.max(axis=1)
    proper = lo != hi
    keys, _ = np.unique(lo[proper] * n + hi[proper], return_counts=True)
    # Each edge in both directions, sorted by (vertex, neighbor).
    both = np.sort(np.concatenate((keys, keys % n * n + keys // n)))
    indptr = np.searchsorted(both, np.arange(n + 1) * n)
    kept = int(proper.sum())
    return (nodes, indptr, both % n,
            len(pairs) - kept, kept - len(keys))


def _node_ids(ids: Iterable[int] | np.ndarray) -> np.ndarray:
    """Node ids as a uint64 array; GraphError for an id outside [0, 2^64)."""
    if isinstance(ids, np.ndarray):
        if ids.dtype == np.uint64:
            return ids
        ids = ids.ravel().tolist()
    ids = list(ids)
    try:
        return np.array(ids, dtype=np.uint64)
    except OverflowError:
        bad = next(i for i in ids if not 0 <= i < 1 << 64)
        raise GraphError(f"node id {bad} is outside [0, 2^64)") from None


_MAX_DIGITS = 20                        # len(str(2**64 - 1))
_U64_HEAD, _U64_LAST = divmod((1 << 64) - 1, 10)
_BLANKS = b" \t\r"
_ID = re.compile(r"-?[0-9]+")


def load_edge_list(source: IO[str] | IO[bytes]) -> Graph:
    """Parse an edge list into a simple graph.

    Each line holds two node ids, 1 to 20 ASCII digits with a value below
    2^64, separated by spaces or tabs (a CR counts as one).  Blank lines are
    skipped, and so is a comment line, whose first non-blank character is
    '#'.  Self-loops are dropped, duplicate edges collapsed, and external
    ids remapped densely; counts are recorded in the returned graph's
    ``load_report``.  Any other line raises EdgeListParseError naming the
    first such line.
    """
    data = source.read()
    if isinstance(data, str):
        data = data.encode("utf-8")
    pairs, report = _parse_edge_list(data)
    return Graph.from_edges(pairs, report_base=report)


def _parse_edge_list(data: bytes) -> tuple[np.ndarray, LoadReport]:
    """The id pairs of an edge list as an (E, 2) uint64 array, and its line
    and comment counts."""
    buf = np.frombuffer(data, dtype=np.uint8)
    newlines = np.flatnonzero(buf == ord("\n"))
    starts, lengths, nondigit = _tokens(buf)
    line_of = np.searchsorted(newlines, starts)
    first = np.ones(len(starts), dtype=bool)
    first[1:] = line_of[1:] != line_of[:-1]
    comment = np.zeros(len(newlines) + 1, dtype=bool)
    comment[line_of[first & (buf[starts] == ord("#"))]] = True
    ids = ~comment[line_of]
    starts, lengths, line_of = starts[ids], lengths[ids], line_of[ids]

    # The first bad line of each kind: not two tokens, a non-digit byte, a
    # token too long to be an id, or an id of 2^64 or more.
    per_line = np.bincount(line_of, minlength=len(comment))
    bad = [np.flatnonzero((per_line != 0) & (per_line != 2))[:1]]
    nondigit_lines = np.searchsorted(newlines, nondigit)
    bad.append(nondigit_lines[~comment[nondigit_lines]][:1])
    bad.append(line_of[lengths > _MAX_DIGITS][:1])

    # Horner's rule over the digit columns, in place.  ``cursor`` walks each
    # token's bytes, held at the last byte of the data once its token ends;
    # it reuses ``starts``, which is not needed again.
    values = np.zeros(len(starts), dtype=np.uint64)
    overflow = np.zeros(len(starts), dtype=bool)
    cursor = starts
    for k in range(min(int(lengths.max(initial=0)), _MAX_DIGITS)):
        digit = buf[cursor] - np.uint8(ord("0"))
        more = lengths > k
        if k == _MAX_DIGITS - 1:
            overflow = more & ((values > _U64_HEAD) | ((values == _U64_HEAD)
                                                      & (digit > _U64_LAST)))
        np.multiply(values, 10, out=values, where=more)
        np.add(values, digit, out=values, where=more)
        cursor += 1
        np.minimum(cursor, len(buf) - 1, out=cursor)
    bad.append(line_of[overflow][:1])
    bad = np.concatenate(bad)
    if bad.size:
        index = int(bad.min())
        begin = int(newlines[index - 1]) + 1 if index else 0
        end = int(newlines[index]) if index < len(newlines) else len(data)
        raise _line_error(index + 1, data[begin:end])
    lines_read = len(newlines) + (bool(data) and not data.endswith(b"\n"))
    return values.reshape(-1, 2), LoadReport(
        lines_read=lines_read, comments_skipped=int(comment.sum()))


def _tokens(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The start and length of each token, a maximal run of bytes that are
    neither blanks nor newlines, and the position of each non-digit byte in
    a token.  The per-byte arrays are freed on return."""
    word = np.ones(len(buf), dtype=bool)
    for blank in _BLANKS + b"\n":
        word &= buf != blank
    nondigit = np.flatnonzero(word & (buf - np.uint8(ord("0")) > 9))
    step = np.diff(word.view(np.int8), prepend=np.int8(0),
                   append=np.int8(0))
    starts = np.flatnonzero(step == 1)
    return starts, np.flatnonzero(step == -1) - starts, nondigit


def _line_error(line_number: int, raw: bytes) -> EdgeListParseError:
    """The error for an edge-list line that the array check rejected."""
    line = raw.decode("utf-8", "replace").strip(_BLANKS.decode())
    fields = re.split(r"[ \t\r]+", line)
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
    """Serialize as one external-id pair per line, smaller id first."""
    sink.writelines(f"{a} {b}\n" for a, b in g._edge_array().tolist())


def largest_connected_component(g: Graph) -> Graph:
    """Induced subgraph on the largest component, renumbered densely.

    External ids are retained, and a connected graph is returned as it is.
    Ties on component size break towards the component containing the
    smallest external id, for determinism.
    """
    if g.is_connected:
        return g
    # A component's first member has its smallest external id.
    best = max(g.components, key=lambda comp: (len(comp), -comp[0]))
    members = g._ext_array[list(best)]
    edges = g._edge_array()
    # An edge lies inside one component, so its smaller end decides.
    return Graph.from_edges(edges[np.isin(edges[:, 0], members)],
                            extra_nodes=members)


def exact_stats(g: Graph) -> GraphStats:
    """Exact mean degree, mean squared degree, and density.

    Density is undefined for a single node; N >= 2 is required.
    """
    n = g.node_count
    if n < 2:
        raise GraphError("density undefined for N < 2")
    degs = g.degrees
    mean_k = sum(degs) / n
    mean_k2 = sum(d * d for d in degs) / n
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
