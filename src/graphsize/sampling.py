"""Node samplers: UIS, WIS, single and multi-walker random walks.

Every sampler is a pure function of (graph, parameters, seed) using numpy's
PCG64 generator, named in the sample metadata so files are reproducible
across platforms.  Each record snapshots the sampled node's neighbor list,
so estimation downstream never needs the full graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import attrgetter
from typing import IO, Callable, Sequence

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


@dataclass(frozen=True, slots=True)
class SampleRecord:
    """One sampled node with its local view of the graph."""

    position: int
    node: int
    degree: int
    weight: float
    neighbors: tuple[int, ...]
    walker: int = 0


@dataclass(frozen=True)
class Sample:
    """An ordered node sample with provenance metadata."""

    records: tuple[SampleRecord, ...]
    method: str
    seed: int
    weight_rule: str
    graph_digest: str
    rng_name: str = RNG_NAME
    provenance: str = ""

    def __len__(self) -> int:
        return len(self.records)

    def nodes(self) -> list[int]:
        return [r.node for r in self.records]

    def weights(self) -> list[float]:
        return [r.weight for r in self.records]

    def degrees(self) -> list[int]:
        return [r.degree for r in self.records]

    def walkers(self) -> list[int]:
        return [r.walker for r in self.records]

    @cached_property
    def margin_index(self) -> MarginIndex:
        """Columns and occurrence index shared by the margin kernels.

        Built on first use and kept for the life of the sample; a sample
        derived with ``dataclasses.replace`` or :func:`reindexed` builds its
        own.
        """
        return MarginIndex.build(self.records)


@dataclass(frozen=True, eq=False)
class MarginIndex:
    """A sample's weights, degrees and node occurrences as read-only arrays.

    Every distinct node id, sampled or only named in a snapshot, gets a dense
    rank, sampled nodes first.  An occurrence of rank r at position p is the
    key r * (n + 1) + p, so one sorted array lists each rank's positions in
    order, and counting a rank's occurrences in a window of positions takes
    two binary searches.  Ids enter no arithmetic, so they may be arbitrarily
    large.

    A walk revisits nodes, and the records of one node share one snapshot
    object, so building ranks the ids of each distinct snapshot object once
    and sorts the n node occurrences.  The snapshot half (``snapshot_keys``,
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
    _snapshot_of: np.ndarray     # per position, its distinct snapshot object
    _entry_ranks: np.ndarray     # ranks named by the distinct snapshots
    _entry_bounds: np.ndarray    # snapshot k's: [bounds[k], bounds[k + 1])

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @classmethod
    def build(cls, records: Sequence[SampleRecord]) -> MarginIndex:
        n = len(records)
        nodes = list(map(attrgetter("node"), records))
        snapshots = list(map(attrgetter("neighbors"), records))
        # Each distinct snapshot object once, in order of first appearance.
        # Grouped by object, not by node: a sample built in memory may give
        # one node unequal snapshots.
        distinct = dict(zip(map(id, snapshots), snapshots))
        unique = list(distinct.values())
        for k, key in enumerate(distinct):
            distinct[key] = k
        rank = dict.fromkeys(chain(nodes, chain.from_iterable(unique)))
        for r, v in enumerate(rank):
            rank[v] = r
        size, stride = len(rank), n + 1
        # Keys take 32 bits when they fit: the index is the largest array a
        # margin estimate allocates.
        key_type = np.int32 if size * stride <= 2**31 - 1 else np.int64
        lengths = np.fromiter(map(len, unique), np.int64, len(unique))
        node_ranks = np.fromiter(map(rank.__getitem__, nodes), key_type, n)
        node_order = np.argsort(node_ranks, kind="stable")
        return cls(
            weights=np.fromiter(map(attrgetter("weight"), records),
                                np.float64, n),
            degrees=np.fromiter(map(attrgetter("degree"), records),
                                np.float64, n),
            node_ranks=node_ranks, node_order=node_order,
            node_keys=(node_ranks[node_order] * stride
                       + node_order).astype(key_type),
            node_counts=np.bincount(node_ranks), _rank_count=size,
            _snapshot_of=np.fromiter(map(distinct.__getitem__,
                                         map(id, snapshots)), np.int64, n),
            _entry_ranks=np.fromiter(
                map(rank.__getitem__, chain.from_iterable(unique)),
                key_type, int(lengths.sum())),
            _entry_bounds=np.concatenate(([0], np.cumsum(lengths))))

    @cached_property
    def _snapshot_half(self) -> tuple[np.ndarray, ...]:
        n, size = len(self.weights), self._rank_count
        stride = n + 1
        offsets = self._entry_bounds
        starts = offsets[self._snapshot_of]
        lengths = offsets[1:][self._snapshot_of] - starts
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


def _record(g: Graph, position: int, node: int, weight: float,
            walker: int = 0) -> SampleRecord:
    nbrs = g.neighbors(node)
    return SampleRecord(position, node, len(nbrs), weight, nbrs, walker)


def sample_uis(g: Graph, n: int, seed: int) -> Sample:
    """n i.i.d. uniform node draws with replacement, unit weights."""
    if n < 1:
        raise SamplingError("n must be >= 1")
    rng = np.random.default_rng(seed)
    nodes = rng.integers(0, g.node_count, size=n)
    records = tuple(_record(g, i, int(v), 1.0) for i, v in enumerate(nodes))
    return Sample(records, METHOD_UIS, seed, "unit", g.digest)


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
    records = tuple(_record(g, i, int(v), float(weights[v]))
                    for i, v in enumerate(nodes))
    return Sample(records, METHOD_WIS, seed, rule_name, g.digest)


def _resolve_weights(g: Graph, rule) -> tuple[str, np.ndarray]:
    if rule == "degree":
        return "degree", np.asarray(g.degrees, dtype=float)
    if rule == "unit":
        return "unit", np.ones(g.node_count)
    if callable(rule):
        w = np.array([float(rule(v)) for v in range(g.node_count)])
        name = getattr(rule, "__name__", "custom")
        return name, w
    raise SamplingError(f"unknown weight rule: {rule!r}")


def sample_rw(g: Graph, n: int, seed: int,
              start: int | None = None) -> Sample:
    """A simple random walk of n steps; record weight is the node degree.

    The start node defaults to a uniform draw from the same seed stream.
    There is no burn-in: dependence between consecutive samples is handled
    by the correction layer, not the sampler.
    """
    records = _walk_records(g, n, seed, start, walker=0, offset=0)
    return Sample(tuple(records), METHOD_RW, seed, "degree", g.digest)


def _walk_records(g: Graph, n: int, seed: int, start: int | None,
                  walker: int, offset: int) -> list[SampleRecord]:
    if n < 1:
        raise SamplingError("n must be >= 1")
    if not g.is_connected:
        raise SamplingError(
            "random walk requires a connected graph; "
            "extract the largest connected component first")
    rng = np.random.default_rng(seed)
    if start is None:
        current = int(rng.integers(g.node_count))
    else:
        current = start
    uniforms = rng.random(n - 1)
    records = []
    for i in range(n):
        nbrs = g.neighbors(current)
        records.append(SampleRecord(offset + i, current, len(nbrs),
                                    float(len(nbrs)), nbrs, walker))
        if i < n - 1:
            current = nbrs[int(uniforms[i] * len(nbrs))]
    return records


def sample_rw_multi(g: Graph, walkers: int, per_walk: int,
                    seeds: Sequence[int]) -> Sample:
    """Concatenation of independent random walks, tagged by walker id."""
    if walkers < 1:
        raise SamplingError("walkers must be >= 1")
    if len(seeds) != walkers:
        raise SamplingError("need exactly one seed per walker")
    records: list[SampleRecord] = []
    for k in range(walkers):
        records.extend(_walk_records(g, per_walk, seeds[k], None,
                                     walker=k, offset=len(records)))
    return Sample(tuple(records), METHOD_RW_MULTI, seeds[0], "degree",
                  g.digest, provenance=f"walkers={walkers}")


# -- sample file format ----------------------------------------------------
#
# One metadata header line, then one record per line:
#   position \t external-node-id \t degree \t weight \t walker \t n1,n2,...
# Node ids in record lines are external ids when a graph is supplied for
# writing, otherwise the record's own node keys.

_HEADER_PREFIX = "graphsize-sample v1"
_HEADER_KEYS = ("method", "seed", "weight_rule", "graph_digest", "n")


def write_sample(s: Sample, sink: IO[str], g: Graph | None = None) -> None:
    """Write the line-oriented sample format (bit-exact, documented above)."""
    sink.write(f"{_HEADER_PREFIX}\tmethod={s.method}\tseed={s.seed}"
               f"\tweight_rule={s.weight_rule}\tgraph_digest={s.graph_digest}"
               f"\trng={s.rng_name}\tn={len(s)}\n")
    to_ext = g.ext_ids.__getitem__ if g is not None else (lambda v: v)
    # A revisited node's id and snapshot are formatted once.
    formatted: dict[tuple[int, int], tuple[str, str]] = {}
    for r in s.records:
        key = (r.node, id(r.neighbors))
        text = formatted.get(key)
        if text is None:
            text = formatted[key] = (str(to_ext(r.node)), ",".join(
                map(str, map(to_ext, r.neighbors))))
        sink.write(f"{r.position}\t{text[0]}\t{r.degree}\t{r.weight!r}"
                   f"\t{r.walker}\t{text[1]}\n")


def read_sample(source: IO[str]) -> Sample:
    """Read a sample file; node keys are the external ids as written.

    The records of one node share one snapshot tuple, parsed once: a
    repeated node's snapshot must equal its first record's.
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
    records = []
    # Node -> its first record's snapshot text and parsed tuple.
    snapshots: dict[int, tuple[str, tuple[int, ...]]] = {}
    for line in source:
        line = line.rstrip("\n")
        if not line:
            continue
        fields = line.split("\t")
        i = len(records)
        try:
            pos, node, deg, weight, walker, nbrs = fields
            position, v, degree, w = int(pos), int(node), int(deg), float(weight)
            k = int(walker)
            earlier = snapshots.get(v)
            if earlier is not None and earlier[0] == nbrs:
                neighbors = earlier[1]
            else:
                neighbors = tuple(map(int, nbrs.split(","))) if nbrs else ()
        except ValueError:
            raise _record_error(i, fields) from None
        # Margin and cross-walker filtering read file order as walk order.
        if position != i:
            raise SamplingError(f"record {pos}: position must be its index, {i}")
        if not 0.0 < w < math.inf:
            raise SamplingError(
                f"record {pos}: weight must be finite and positive, got {weight}")
        if degree != len(neighbors):
            raise SamplingError(f"record {pos}: degree {deg} differs from its "
                                f"{len(neighbors)} snapshot entries")
        if earlier is None:
            snapshots[v] = (nbrs, neighbors)
        elif earlier[1] is not neighbors:
            if earlier[1] != neighbors:
                raise SamplingError(f"record {pos}: node {node} has a snapshot "
                                    "that differs from an earlier record's")
            neighbors = earlier[1]
        records.append(SampleRecord(i, v, degree, w, neighbors, k))
    if not records:
        raise SamplingError("sample file has no records")
    if len(records) != count:
        raise SamplingError("record count does not match header")
    return Sample(tuple(records), meta["method"], seed, meta["weight_rule"],
                  meta["graph_digest"], rng_name=meta.get("rng", RNG_NAME))


def _header_int(meta: dict[str, str], key: str) -> int:
    try:
        return int(meta[key])
    except ValueError:
        raise SamplingError(f"sample header {key}={meta[key]} is not an "
                            "integer") from None


_RECORD_FIELDS = (("position", int), ("node", int), ("degree", int),
                  ("weight", float), ("walker", int))


def _record_error(i: int, fields: list[str]) -> SamplingError:
    """The one-line error for a record whose fields do not parse."""
    if len(fields) != 6:
        return SamplingError(f"record {i}: expected 6 tab-separated fields, "
                             f"got {len(fields)}")
    for (name, parse), text in zip(_RECORD_FIELDS, fields):
        try:
            parse(text)
        except ValueError:
            kind = "an integer" if parse is int else "a number"
            return SamplingError(f"record {i}: {name} {text!r} is not {kind}")
    return SamplingError(f"record {i}: snapshot {fields[5]!r} is not a "
                         "comma-separated list of integer ids")


def reindexed(s: Sample, records: Sequence[SampleRecord],
              provenance: str) -> Sample:
    """Derive a new sample from a subset of records, positions renumbered."""
    renum = tuple(SampleRecord(i, r.node, r.degree, r.weight, r.neighbors,
                               r.walker) for i, r in enumerate(records))
    return Sample(renum, s.method, s.seed, s.weight_rule, s.graph_digest,
                  rng_name=s.rng_name, provenance=provenance)
