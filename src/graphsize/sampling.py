"""Node samplers: UIS, WIS, single and multi-walker random walks.

Every sampler is a pure function of (graph, parameters, seed) using numpy's
PCG64 generator, named in the sample metadata so files are reproducible
across platforms.  Each sampled node keeps a snapshot of its neighbor list,
so estimation downstream never needs the full graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import IO, Callable, Mapping, Sequence

import numpy as np

from .graph import Graph

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


@dataclass(frozen=True)
class Sample:
    """An ordered node sample and where it came from.

    Position i holds the node ``node_at[i]``, its sampling weight
    ``weight_at[i]`` and its walker ``walker_at[i]``, all Python numbers, so
    ids may be arbitrarily large.  A walk revisits nodes, so neighbor
    snapshots are kept once per distinct node: ``snapshots`` maps each
    sampled node, in order of first appearance, to its snapshot tuple, and a
    position's degree is the length of its node's snapshot.  Any mapping
    that covers the sampled nodes may be passed; the sample keeps a
    read-only mapping of just those.
    """

    node_at: tuple[int, ...]
    weight_at: tuple[float, ...]
    walker_at: tuple[int, ...]
    snapshots: Mapping[int, tuple[int, ...]]
    method: str
    seed: int
    weight_rule: str
    graph_digest: str
    rng_name: str = RNG_NAME

    def __post_init__(self):
        n = len(self.node_at)
        if len(self.weight_at) != n or len(self.walker_at) != n:
            raise SamplingError("sample columns differ in length")
        try:
            snapshots = {v: self.snapshots[v]
                         for v in dict.fromkeys(self.node_at)}
        except KeyError as exc:
            raise SamplingError(f"sampled node {exc} has no snapshot") from None
        object.__setattr__(self, "snapshots", MappingProxyType(snapshots))

    def __len__(self) -> int:
        return len(self.node_at)

    def nodes(self) -> list[int]:
        return list(self.node_at)

    def weights(self) -> list[float]:
        return list(self.weight_at)

    def degrees(self) -> list[int]:
        return [len(self.snapshots[v]) for v in self.node_at]

    def walkers(self) -> list[int]:
        return list(self.walker_at)

    def subset(self, positions: Sequence[int]) -> Sample:
        """The sample of the given positions, in that order."""
        pick = lambda column: tuple(map(column.__getitem__, positions))
        return replace(self, node_at=pick(self.node_at),
                       weight_at=pick(self.weight_at),
                       walker_at=pick(self.walker_at))

    @cached_property
    def margin_index(self) -> MarginIndex:
        """Columns and occurrence index shared by the margin kernels.

        Built on first use and kept for the life of the sample; a sample
        derived with ``dataclasses.replace`` or :meth:`subset` builds its
        own.
        """
        return MarginIndex.build(self)


@dataclass(frozen=True, eq=False)
class MarginIndex:
    """A sample's weights, degrees and node occurrences as read-only arrays.

    Every distinct node id, sampled or only named in a snapshot, gets a dense
    rank, sampled nodes first.  An occurrence of rank r at position p is the
    key r * (n + 1) + p, so one sorted array lists each rank's positions in
    order, and counting a rank's occurrences in a window of positions takes
    two binary searches.  Ids enter no arithmetic, so they may be arbitrarily
    large.

    The sampled nodes' ranks are their order in ``Sample.snapshots``, so
    building ranks the ids of each distinct node's snapshot once and sorts
    the n node occurrences.  The snapshot half (``snapshot_keys``,
    ``snapshot_counts``, ``snapshot_first``, ``snapshot_last``) expands the
    ranked entries to positions with numpy and sorts them; it is built on
    first use, so node-only queries never pay for it.

    The queries take one excluded window [lo[i], hi[i]) of positions per
    position i: the positions within m steps for a margin, the positions of
    i's own walker for the cross-walker filter.
    """

    weights: np.ndarray          # float64, per position
    degrees: np.ndarray          # float64, per position
    node_ranks: np.ndarray       # rank of the node at each position
    node_order: np.ndarray       # positions sorted by rank, then position
    node_keys: np.ndarray        # their keys, sorted
    node_counts: np.ndarray      # positions per rank, for sampled ranks
    _rank_count: int             # distinct ids, sampled or named
    _entry_ranks: np.ndarray     # ranks named by the snapshots, in rank order
    _entry_bounds: np.ndarray    # rank r's: [bounds[r], bounds[r + 1])

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @classmethod
    def build(cls, s: Sample) -> MarginIndex:
        n, snapshots = len(s), s.snapshots.values()
        rank = dict.fromkeys(chain(s.snapshots, chain.from_iterable(snapshots)))
        for r, v in enumerate(rank):
            rank[v] = r
        size, stride = len(rank), n + 1
        # Keys take 32 bits when they fit: the index is the largest array a
        # margin estimate allocates.
        key_type = np.int32 if size * stride <= 2**31 - 1 else np.int64
        lengths = np.fromiter(map(len, snapshots), np.int64, len(snapshots))
        node_ranks = np.fromiter(map(rank.__getitem__, s.node_at), key_type, n)
        node_order = np.argsort(node_ranks, kind="stable")
        return cls(
            weights=np.array(s.weight_at, dtype=np.float64),
            degrees=lengths[node_ranks].astype(np.float64),
            node_ranks=node_ranks, node_order=node_order,
            node_keys=(node_ranks[node_order] * stride
                       + node_order).astype(key_type),
            node_counts=np.bincount(node_ranks), _rank_count=size,
            _entry_ranks=np.fromiter(
                map(rank.__getitem__, chain.from_iterable(snapshots)),
                key_type, int(lengths.sum())),
            _entry_bounds=np.concatenate(([0], np.cumsum(lengths))))

    @cached_property
    def _snapshot_half(self) -> tuple[np.ndarray, ...]:
        n, size = len(self.weights), self._rank_count
        stride = n + 1
        offsets = self._entry_bounds
        starts = offsets[self.node_ranks]
        lengths = offsets[1:][self.node_ranks] - starts
        total = int(lengths.sum())
        # Position p's entries are entry ranks starts[p] + 0, 1, ...; the
        # gather indices take 32 bits when they fit, like the keys.
        index_type = np.int32 if total <= 2**31 - 1 else np.int64
        gather = np.repeat((starts - np.cumsum(lengths) + lengths)
                           .astype(index_type), lengths)
        gather += np.arange(total, dtype=index_type)
        # Indexing, unlike take, does not copy 32-bit indices to 64 bits.
        keys = self._entry_ranks[gather]
        # Free the gather indices before sorting: peak memory stays near one
        # key array plus the position column.
        del gather, starts
        keys *= stride
        keys += np.repeat(np.arange(n, dtype=np.min_scalar_type(n)), lengths)
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
        return keys, counts, first, last

    @property
    def snapshot_keys(self) -> np.ndarray:
        """Sorted keys, one per snapshot entry."""
        return self._snapshot_half[0]

    @property
    def snapshot_counts(self) -> np.ndarray:
        """Snapshot entries per rank."""
        return self._snapshot_half[1]

    @property
    def snapshot_first(self) -> np.ndarray:
        """First position whose snapshot names each rank; n if none does."""
        return self._snapshot_half[2]

    @property
    def snapshot_last(self) -> np.ndarray:
        """Last position whose snapshot names each rank; -1 if none does."""
        return self._snapshot_half[3]

    def far_repeats(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """For each position i, positions j outside [lo[i], hi[i]) holding
        the same node."""
        return (self.node_counts[self.node_ranks]
                - self._near(self.node_keys, lo, hi))

    def far_mentions(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """For each position i, snapshot entries naming the node at i that
        are carried by positions j outside [lo[i], hi[i])."""
        return (self.snapshot_counts[self.node_ranks]
                - self._near(self.snapshot_keys, lo, hi))

    def _near(self, keys: np.ndarray, lo: np.ndarray,
              hi: np.ndarray) -> np.ndarray:
        """Keys of each position's node rank at positions in its window."""
        p = self.node_order
        base = self.node_keys - p
        near = np.empty(len(p), dtype=np.int64)
        # Queried in key order, the binary searches walk the keys forwards.
        near[p] = (np.searchsorted(keys, (base + hi[p]).astype(keys.dtype))
                   - np.searchsorted(keys, (base + lo[p]).astype(keys.dtype)))
        return near


def _drawn(g: Graph, nodes: list[int], weights: list[float],
           walkers: list[int], method: str, seed: int, rule: str) -> Sample:
    """A sample of dense node indices, each with the graph's snapshot."""
    return Sample(tuple(nodes), tuple(weights), tuple(walkers),
                  {v: g.neighbors(v) for v in nodes}, method, seed, rule,
                  g.digest)


def sample_uis(g: Graph, n: int, seed: int) -> Sample:
    """n i.i.d. uniform node draws with replacement, unit weights."""
    if n < 1:
        raise SamplingError("n must be >= 1")
    rng = np.random.default_rng(seed)
    nodes = rng.integers(0, g.node_count, size=n).tolist()
    return _drawn(g, nodes, [1.0] * n, [0] * n, METHOD_UIS, seed, "unit")


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
    return _drawn(g, nodes.tolist(), weights[nodes].tolist(), [0] * n,
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


def sample_rw(g: Graph, n: int, seed: int,
              start: int | None = None) -> Sample:
    """A simple random walk of n steps; the weight of a step is its degree.

    The start node defaults to a uniform draw from the same seed stream.
    There is no burn-in: dependence between consecutive samples is handled
    by the correction layer, not the sampler.
    """
    return _walk_sample(g, [_walk(g, n, seed, start)], METHOD_RW, seed)


def _walk(g: Graph, n: int, seed: int, start: int | None) -> list[int]:
    if n < 1:
        raise SamplingError("n must be >= 1")
    if not g.is_connected:
        raise SamplingError(
            "random walk requires a connected graph; "
            "extract the largest connected component first")
    if g.edge_count == 0:
        raise SamplingError("random walk needs a graph with an edge")
    rng = np.random.default_rng(seed)
    if start is None:
        current = int(rng.integers(g.node_count))
    else:
        current = start
    uniforms = rng.random(n - 1)
    nodes = [current]
    for u in uniforms.tolist():
        nbrs = g.neighbors(current)
        current = nbrs[int(u * len(nbrs))]
        nodes.append(current)
    return nodes


def _walk_sample(g: Graph, walks: list[list[int]], method: str,
                 seed: int) -> Sample:
    """Walks concatenated in order, tagged by walker id, degree-weighted."""
    nodes = list(chain.from_iterable(walks))
    return _drawn(g, nodes, [float(g.degree(v)) for v in nodes],
                  [k for k, walk in enumerate(walks) for _ in walk],
                  method, seed, "degree")


def sample_rw_multi(g: Graph, walkers: int, per_walk: int,
                    seeds: Sequence[int]) -> Sample:
    """Concatenation of independent random walks, tagged by walker id."""
    if walkers < 1:
        raise SamplingError("walkers must be >= 1")
    if len(seeds) != walkers:
        raise SamplingError("need exactly one seed per walker")
    return _walk_sample(g, [_walk(g, per_walk, seeds[k], None)
                            for k in range(walkers)], METHOD_RW_MULTI,
                        seeds[0])


# -- sample file format ----------------------------------------------------
#
# One metadata header line, then one record per position:
#   position \t external-node-id \t degree \t weight \t walker \t n1,n2,...
# Node ids in record lines are external ids when a graph is supplied for
# writing, otherwise the sample's own node keys.  A node's records repeat
# its one snapshot.

_HEADER_PREFIX = "graphsize-sample v1"
_HEADER_KEYS = ("method", "seed", "weight_rule", "graph_digest", "n")


def write_sample(s: Sample, sink: IO[str], g: Graph | None = None) -> None:
    """Write the line-oriented sample format (bit-exact, documented above)."""
    sink.write(f"{_HEADER_PREFIX}\tmethod={s.method}\tseed={s.seed}"
               f"\tweight_rule={s.weight_rule}\tgraph_digest={s.graph_digest}"
               f"\trng={s.rng_name}\tn={len(s)}\n")
    to_ext = g.ext_ids.__getitem__ if g is not None else (lambda v: v)
    # Each distinct node's id, degree and snapshot are formatted once.
    formatted = {v: (f"{to_ext(v)}\t{len(nbrs)}",
                     ",".join(map(str, map(to_ext, nbrs))))
                 for v, nbrs in s.snapshots.items()}
    for i, (v, w, k) in enumerate(zip(s.node_at, s.weight_at, s.walker_at)):
        node, snapshot = formatted[v]
        sink.write(f"{i}\t{node}\t{w!r}\t{k}\t{snapshot}\n")


def read_sample(source: IO[str]) -> Sample:
    """Read a sample file; node keys are the external ids as written.

    A node's snapshot is parsed once: a repeated node's snapshot must equal
    its first record's.
    """
    header = source.readline().rstrip("\n")
    fields = header.split("\t")
    if not fields or fields[0] != _HEADER_PREFIX:
        raise SamplingError("not a graphsize sample file")
    for field in fields[1:]:
        if "=" not in field:
            raise SamplingError(f"sample header field {field!r} is not "
                                "key=value")
    meta = dict(f.split("=", 1) for f in fields[1:])
    missing = [key for key in _HEADER_KEYS if key not in meta]
    if missing:
        raise SamplingError(f"sample header lacks {', '.join(missing)}")
    if meta["method"] not in METHODS.values():
        raise SamplingError(f"unknown sampling method {meta['method']!r}")
    seed, count = _header_int(meta, "seed"), _header_int(meta, "n")
    rows: list[tuple[int, float, int]] = []  # node, weight, walker
    snapshots: dict[int, tuple[int, ...]] = {}
    texts: dict[int, str] = {}  # each node's snapshot as first written
    for line in source:
        line = line.rstrip("\n")
        if not line:
            continue
        fields = line.split("\t")
        i = len(rows)
        try:
            pos, node, deg, weight, walker, nbrs = fields
            position, v, degree, w = int(pos), int(node), int(deg), float(weight)
            k = int(walker)
            text = texts.get(v)
            neighbors = (snapshots[v] if text == nbrs else
                         tuple(map(int, nbrs.split(","))) if nbrs else ())
        except ValueError:
            raise _line_error(i, fields) from None
        # Margin and cross-walker filtering read file order as walk order.
        if position != i:
            raise SamplingError(f"record {pos}: position must be its index, {i}")
        if not 0.0 < w < math.inf:
            raise SamplingError(
                f"record {pos}: weight must be finite and positive, got {weight}")
        if degree != len(neighbors):
            raise SamplingError(f"record {pos}: degree {deg} differs from its "
                                f"{len(neighbors)} snapshot entries")
        if text is None:
            texts[v], snapshots[v] = nbrs, neighbors
        elif text != nbrs and neighbors != snapshots[v]:
            raise SamplingError(f"record {pos}: node {node} has a snapshot "
                                "that differs from an earlier record's")
        rows.append((v, w, k))
    if not rows:
        raise SamplingError("sample file has no records")
    if len(rows) != count:
        raise SamplingError("record count does not match header")
    return Sample(*zip(*rows), snapshots, meta["method"], seed,
                  meta["weight_rule"], meta["graph_digest"],
                  rng_name=meta.get("rng", RNG_NAME))


def _header_int(meta: dict[str, str], key: str) -> int:
    try:
        return int(meta[key])
    except ValueError:
        raise SamplingError(f"sample header {key}={meta[key]} is not an "
                            "integer") from None


_LINE_FIELDS = (("position", int), ("node", int), ("degree", int),
                  ("weight", float), ("walker", int))


def _line_error(i: int, fields: list[str]) -> SamplingError:
    """The one-line error for a record whose fields do not parse."""
    if len(fields) != 6:
        return SamplingError(f"record {i}: expected 6 tab-separated fields, "
                             f"got {len(fields)}")
    for (name, parse), text in zip(_LINE_FIELDS, fields):
        try:
            parse(text)
        except ValueError:
            kind = "an integer" if parse is int else "a number"
            return SamplingError(f"record {i}: {name} {text!r} is not {kind}")
    return SamplingError(f"record {i}: snapshot {fields[5]!r} is not a "
                         "comma-separated list of integer ids")
