"""Immutable undirected simple graphs with dense node indexing.

Graphs are loaded from whitespace-separated edge lists (external 64-bit node
ids), cleaned to simple form (no self-loops, no parallel edges), and stored
with a dense index in [0, N).  All adjacency lists are sorted tuples, so the
structure is safely shareable across threads after construction.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Iterator

import numpy as np


class GraphError(Exception):
    """Base class for graph construction and query errors."""


class EdgeListParseError(GraphError):
    """Malformed edge-list input."""

    def __init__(self, line_number: int, line: str, reason: str):
        self.line_number = line_number
        self.line = line
        super().__init__(f"line {line_number}: {reason}: {line!r}")


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
    """

    __slots__ = ("_adj", "_ext_ids", "_ext_to_dense", "_edge_count",
                 "load_report", "__dict__")

    def __init__(self, adjacency: list[tuple[int, ...]], ext_ids: list[int],
                 load_report: LoadReport | None = None):
        if len(adjacency) != len(ext_ids):
            raise GraphError("adjacency and id map length mismatch")
        if not adjacency:
            raise GraphError("empty graph")
        self._adj: tuple[tuple[int, ...], ...] = tuple(tuple(a) for a in adjacency)
        self._ext_ids: tuple[int, ...] = tuple(ext_ids)
        self._ext_to_dense = {e: i for i, e in enumerate(self._ext_ids)}
        self._edge_count = sum(len(a) for a in self._adj) // 2
        self.load_report = load_report
        self._validate()

    def _validate(self) -> None:
        for v, nbrs in enumerate(self._adj):
            prev = -1
            for u in nbrs:
                if u == v:
                    raise GraphError(f"self-loop at dense index {v}")
                if u <= prev:
                    raise GraphError(f"adjacency of {v} not sorted/unique")
                if not (0 <= u < len(self._adj)):
                    raise GraphError(f"neighbor index {u} out of range")
                prev = u

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]],
                   extra_nodes: Iterable[int] = (),
                   report_base: LoadReport | None = None) -> "Graph":
        """Build a graph from external-id edge pairs.

        Self-loops are dropped and parallel edges collapsed; the counts land
        in ``load_report``.  ``extra_nodes`` adds isolated nodes by id.
        """
        base = report_base or LoadReport()
        self_loops = base.self_loops_dropped
        dupes = base.duplicates_collapsed
        edge_set: set[tuple[int, int]] = set()
        nodes: set[int] = set(extra_nodes)
        for a, b in edges:
            if a == b:
                self_loops += 1
                nodes.add(a)
                continue
            key = (a, b) if a < b else (b, a)
            if key in edge_set:
                dupes += 1
            else:
                edge_set.add(key)
            nodes.update(key)
        if not nodes:
            raise GraphError("empty graph: no nodes in input")
        ext_ids = sorted(nodes)
        dense = {e: i for i, e in enumerate(ext_ids)}
        adj: list[list[int]] = [[] for _ in ext_ids]
        for a, b in edge_set:
            adj[dense[a]].append(dense[b])
            adj[dense[b]].append(dense[a])
        report = LoadReport(lines_read=base.lines_read,
                            comments_skipped=base.comments_skipped,
                            self_loops_dropped=self_loops,
                            duplicates_collapsed=dupes)
        return cls([tuple(sorted(a)) for a in adj], ext_ids, report)

    # -- basic accessors ---------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def ext_id(self, v: int) -> int:
        return self._ext_ids[v]

    def dense_index(self, ext: int) -> int:
        return self._ext_to_dense[ext]

    @property
    def ext_ids(self) -> tuple[int, ...]:
        return self._ext_ids

    def has_edge(self, u: int, v: int) -> bool:
        a = self._adj[u]
        lo, hi = 0, len(a)
        while lo < hi:
            mid = (lo + hi) // 2
            if a[mid] < v:
                lo = mid + 1
            else:
                hi = mid
        return lo < len(a) and a[lo] == v

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self._adj)))

    # -- derived, cached ---------------------------------------------------

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self._adj))

    @cached_property
    def degree_weights(self) -> np.ndarray:
        """The degrees as a read-only float64 array: the weight table of
        degree-weighted sampling."""
        weights = np.array(self.degrees, dtype=np.float64)
        weights.flags.writeable = False
        return weights

    @cached_property
    def digest(self) -> str:
        """Stable hash of the graph content (external-id edge list)."""
        h = hashlib.sha256()
        for e in self._ext_ids:
            h.update(e.to_bytes(8, "little", signed=False))
        for v in range(len(self._adj)):
            ev = self._ext_ids[v]
            for u in self._adj[v]:
                eu = self._ext_ids[u]
                if ev < eu:
                    h.update(ev.to_bytes(8, "little"))
                    h.update(eu.to_bytes(8, "little"))
        return h.hexdigest()[:16]

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components as sorted dense-index tuples."""
        seen = [False] * self.node_count
        out = []
        for s in range(self.node_count):
            if seen[s]:
                continue
            seen[s] = True
            comp = [s]
            queue = deque([s])
            while queue:
                v = queue.popleft()
                for u in self._adj[v]:
                    if not seen[u]:
                        seen[u] = True
                        comp.append(u)
                        queue.append(u)
            out.append(tuple(sorted(comp)))
        return tuple(out)

    @property
    def is_connected(self) -> bool:
        return len(self.components) == 1


def load_edge_list(source: IO[str] | IO[bytes]) -> Graph:
    """Parse a whitespace-separated edge list into a simple graph.

    Lines starting with '#' are comments.  Self-loops are dropped, duplicate
    edges collapsed, and external ids remapped densely; counts are recorded
    in the returned graph's ``load_report``.
    """
    edges: list[tuple[int, int]] = []
    lines_read = 0
    comments = 0
    for line_no, raw in enumerate(source, start=1):
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        lines_read += 1
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comments += 1
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(line_no, line, "expected two node ids")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(line_no, line, "non-integer node id") from None
        if a < 0 or b < 0:
            raise EdgeListParseError(line_no, line, "negative node id")
        edges.append((a, b))
    base = LoadReport(lines_read=lines_read, comments_skipped=comments)
    return Graph.from_edges(edges, report_base=base)


def write_edge_list(g: Graph, sink: IO[str]) -> None:
    """Serialize as one external-id pair per line, smaller id first."""
    for v in range(g.node_count):
        ev = g.ext_id(v)
        for u in g.neighbors(v):
            eu = g.ext_id(u)
            if ev < eu:
                sink.write(f"{ev} {eu}\n")


def largest_connected_component(g: Graph) -> Graph:
    """Induced subgraph on the largest component, renumbered densely.

    External ids are retained.  Ties on component size break towards the
    component containing the smallest external id, for determinism.
    """
    best = max(g.components,
               key=lambda comp: (len(comp), -min(g.ext_id(v) for v in comp)))
    keep = set(best)
    edges = []
    for v in best:
        for u in g.neighbors(v):
            if u in keep and g.ext_id(v) < g.ext_id(u):
                edges.append((g.ext_id(v), g.ext_id(u)))
    return Graph.from_edges(edges, extra_nodes=[g.ext_id(v) for v in best])


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
