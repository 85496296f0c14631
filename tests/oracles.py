"""Naive reference implementations used to check the streaming code.

Everything here deliberately evaluates pair sums with explicit (i, j) masks
over full n x n matrices, and loads edge lists line by line into Python
sets.  Nothing from this module is used outside tests.
"""

from __future__ import annotations

import decimal
import itertools
import math
from typing import NamedTuple

import numpy as np


class Views(NamedTuple):
    """A sample as Python values: per position its node id, weight and
    walker, and each distinct sampled node, by first appearance, to the ids
    its snapshot names."""

    node_at: tuple
    weight_at: tuple
    walker_at: tuple
    snapshots: dict


def views(sample) -> Views:
    """The :class:`Views` of a sample, read off its rank columns and CSR."""
    ids, bounds = sample.ids.tolist(), sample.offsets.tolist()
    entries, ranks = sample.entries.tolist(), sample.rank_column.tolist()
    row = lambda r: tuple(ids[u] for u in entries[bounds[r]:bounds[r + 1]])
    return Views(tuple(ids[r] for r in ranks),
                 tuple(sample.weight_column.tolist()),
                 tuple(sample.walker_column.tolist()),
                 {ids[r]: row(r) for r in dict.fromkeys(ranks)})


def same_sample(a, b) -> bool:
    """Whether two samples hold the same views and metadata."""
    return views(a) == views(b) and all(
        getattr(a, name) == getattr(b, name) for name in (
            "method", "seed", "weight_rule", "graph_digest", "rng_name"))


def snapshots_at(sample) -> list:
    """The snapshot of the node at each position."""
    v = views(sample)
    return [v.snapshots[x] for x in v.node_at]


def ext_ids(g) -> tuple:
    """The external id of each dense index, as Python ints."""
    return tuple(g.ext_ids.tolist())


def degrees(g) -> tuple:
    """The degree of each dense index, read off the CSR."""
    return tuple(np.diff(g.adjacency_arrays[0]).tolist())


def neighbors(g, v: int) -> tuple:
    """The dense neighbor indices of node v, read off the CSR."""
    indptr, indices = g.adjacency_arrays
    return tuple(indices[indptr[v]:indptr[v + 1]].tolist())


def has_edge(g, u: int, v: int) -> bool:
    return v in neighbors(g, u)


def dense_index(g, ext: int) -> int:
    """The dense index of the external id ``ext``; ValueError if absent."""
    return ext_ids(g).index(ext)


def _arrays(sample):
    """The node ids, weights and degrees of the positions, as arrays."""
    v = views(sample)
    return (np.asarray(v.node_at), np.asarray(v.weight_at, dtype=float),
            np.asarray([len(v.snapshots[x]) for x in v.node_at], dtype=float))


def neighbor_counts(sample) -> np.ndarray:
    """Integer matrix C[i, j]: the entries of position j's snapshot that
    name the node at position i, a repeated id as often as it is named.
    The multiset and induced-edge oracles count these, as the kernels do;
    the set-mode oracles count membership.  C is symmetric with a zero
    diagonal on a drawn sample; the induced-edge oracles halve its total,
    as ``count_induced_edges`` does, so they agree on any sample."""
    nodes, _, _ = _arrays(sample)
    n = len(nodes)
    c = np.zeros((n, n), dtype=np.int64)
    for j, snapshot in enumerate(snapshots_at(sample)):
        for u in snapshot:
            c[:, j] += nodes == u
    return c


def collision_count(sample) -> int:
    nodes, _, _ = _arrays(sample)
    eq = nodes[:, None] == nodes[None, :]
    return int(np.triu(eq, k=1).sum())


def induced_edge_count(sample) -> int:
    return int(neighbor_counts(sample).sum()) // 2


def pairwise_inverse_weight_sum(weights) -> float:
    w = np.asarray(list(weights), dtype=float)
    inv = 1.0 / w
    prod = inv[:, None] * inv[None, :]
    return float(np.triu(prod, k=1).sum())


def density_wis(sample) -> float:
    _, w, _ = _arrays(sample)
    inv = 1.0 / w
    prod = inv[:, None] * inv[None, :]
    num = 0.5 * (prod * neighbor_counts(sample)).sum()
    den = np.triu(prod, k=1).sum()
    return float(num / den)


def inda_wis_value(sample) -> float:
    _, w, deg = _arrays(sample)
    inv = 1.0 / w
    mean_deg = float((deg * inv).sum() / inv.sum())
    return mean_deg / density_wis(sample) + 1.0


def mean_degree_uis(sample) -> float:
    """The plain mean of the sampled degrees: ``mean_degree_wis`` at unit
    weights."""
    _, _, deg = _arrays(sample)
    return math.fsum(deg) / len(deg)


def density_uis(sample) -> float:
    """The share of sample pairs that form edges: ``density_wis`` at unit
    weights."""
    n = len(sample)
    return induced_edge_count(sample) / (n * (n - 1) / 2)


def inda_uis_value(sample) -> float | None:
    """Route A's closed uniform form (n-1)*sum(deg)/(2*n_ind) + 1, which
    ``inda_wis_ratio`` gives at unit weights; None without induced edges."""
    _, _, deg = _arrays(sample)
    edges = induced_edge_count(sample)
    return (len(sample) - 1) * math.fsum(deg) / (2 * edges) + 1 \
        if edges else None


def node_margin_parts(sample, m: int) -> tuple[float, float]:
    nodes, w, _ = _arrays(sample)
    n = len(nodes)
    idx = np.arange(n)
    far = np.abs(idx[:, None] - idx[None, :]) > m
    num = float((w[:, None] * (1.0 / w)[None, :])[far].sum())
    eq = nodes[:, None] == nodes[None, :]
    den = float((eq & far).sum())
    return num, den


def ind_margin_multiset_parts(sample, m: int) -> tuple[float, float]:
    nodes, w, deg = _arrays(sample)
    n = len(nodes)
    idx = np.arange(n)
    far = np.abs(idx[:, None] - idx[None, :]) > m
    num = float((deg[:, None] * (1.0 / w)[None, :])[far].sum())
    den = float(((1.0 / w)[:, None] * neighbor_counts(sample))[far].sum())
    return num, den


def ind_margin_set_parts(sample, m: int) -> tuple[float, float]:
    nodes, w, _ = _arrays(sample)
    n = len(nodes)
    inv = 1.0 / w
    idx = np.arange(n)
    far = np.abs(idx[:, None] - idx[None, :]) > m
    snapshots = snapshots_at(sample)
    a_nodes = sorted({a for snapshot in snapshots for a in snapshot})
    carried = np.zeros((len(a_nodes), n), dtype=bool)
    row = {a: k for k, a in enumerate(a_nodes)}
    for p, snapshot in enumerate(snapshots):
        for a in snapshot:
            carried[row[a], p] = True
    # visible[j]: distinct auxiliary nodes carried by some position > m away.
    visible = (carried[None, :, :] & far[:, None, :]).any(axis=2).sum(axis=1)
    num = float((inv * visible).sum())
    den = 0.0
    for i, v in enumerate(nodes):
        if v in row and (carried[row[v]] & far[i]).any():
            den += inv[i]
    return num, den


def crosswalker_node_parts(sample) -> tuple[float, float]:
    nodes, w, _ = _arrays(sample)
    walkers = np.asarray(views(sample).walker_at)
    cross = walkers[:, None] != walkers[None, :]
    num = float((w[:, None] * (1.0 / w)[None, :])[cross].sum())
    eq = nodes[:, None] == nodes[None, :]
    den = float((eq & cross).sum())
    return num, den


def crosswalker_ind_multiset_parts(sample) -> tuple[float, float]:
    _, w, deg = _arrays(sample)
    walkers = np.asarray(views(sample).walker_at)
    cross = walkers[:, None] != walkers[None, :]
    num = float((deg[:, None] * (1.0 / w)[None, :])[cross].sum())
    den = float(((1.0 / w)[:, None] * neighbor_counts(sample))[cross].sum())
    return num, den


def crosswalker_ind_set_parts(sample) -> tuple[float, float]:
    nodes, w, _ = _arrays(sample)
    n = len(nodes)
    inv = 1.0 / w
    walkers = np.asarray(views(sample).walker_at)
    cross = walkers[:, None] != walkers[None, :]
    snapshots = snapshots_at(sample)
    a_nodes = sorted({a for snapshot in snapshots for a in snapshot})
    carried = np.zeros((len(a_nodes), n), dtype=bool)
    row = {a: k for k, a in enumerate(a_nodes)}
    for p, snapshot in enumerate(snapshots):
        for a in snapshot:
            carried[row[a], p] = True
    visible = (carried[None, :, :] & cross[:, None, :]).any(axis=2).sum(axis=1)
    num = float((inv * visible).sum())
    den = 0.0
    for i, v in enumerate(nodes):
        if v in row and (carried[row[v]] & cross[i]).any():
            den += inv[i]
    return num, den


def relerr(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


OCCURRENCE_FIELDS = ("keys", "first", "last", "own")


def occurrence_arrays(sample) -> dict[str, np.ndarray]:
    """The sample's rank, weight and degree columns and the arrays of the
    indexes the margin kernels build for it (``rw_correction._occurrences``
    of its positions, ``occurrences``, and of its snapshot entries,
    ``mentions``, and a multiset ``rw_correction._windows``), with their
    dtypes, from one loop over every position and every snapshot entry it
    carries."""
    nodes, weights, _, _ = views(sample)
    snapshots = snapshots_at(sample)
    n = len(nodes)
    rank = {}
    for v in list(nodes) + [u for snapshot in snapshots for u in snapshot]:
        rank.setdefault(v, len(rank))
    size, stride = len(rank), n + 1
    key_type = np.int32 if size * stride <= 2**31 - 1 else np.int64
    # The sample's own occurrences by key: by rank, then by position.
    sampled = sorted((rank[v], p) for p, v in enumerate(nodes))

    def occurrences(pairs):
        keys = []
        counts = np.zeros(size, dtype=np.int64)
        first = np.full(size, n, dtype=np.int64)
        last = np.full(size, -1, dtype=np.int64)
        for v, p in pairs:
            k = rank[v]
            keys.append(k * stride + p)
            counts[k] += 1
            first[k] = min(first[k], p)
            last[k] = max(last[k], p)
        own = np.array([counts[k] for k, _ in sampled], dtype=np.int64)
        return dict(zip(OCCURRENCE_FIELDS, (
            np.array(sorted(keys), dtype=key_type), first, last, own)))

    inverse = [1.0 / w for w in weights]
    arrays = {
        "rank_column": np.array([rank[v] for v in nodes], dtype=np.int64),
        "weight_column": np.array(weights, dtype=np.float64),
        "degree_column": np.array(list(map(len, snapshots)), dtype=np.int64),
        "windows.prefix": np.array([0.0] + list(itertools.accumulate(
            inverse))),
        "windows.position": np.array([p for _, p in sampled],
                                     dtype=key_type),
        "windows.base": np.array([k * stride for k, _ in sampled],
                                 dtype=key_type),
        "windows.keyed_inverse": np.array([inverse[p] for _, p in sampled]),
    }
    for name, pairs in (
            ("occurrences", [(v, p) for p, v in enumerate(nodes)]),
            ("mentions", [(u, p) for p, snapshot in enumerate(snapshots)
                          for u in snapshot])):
        for field, array in occurrences(pairs).items():
            arrays[f"{name}.{field}"] = array
    return arrays


def window_totals(sample) -> tuple[float, float]:
    """fsum(w) * fsum(1/w) and fsum(deg) * fsum(1/w), from Python lists."""
    nodes, weights, _, _ = views(sample)
    inverse = math.fsum(1.0 / w for w in weights)
    degrees = list(map(len, snapshots_at(sample)))
    return math.fsum(weights) * inverse, math.fsum(degrees) * inverse


def write_edge_list(g, sink):
    """One f-string per edge, read off the CSR: the array writer's
    reference.  Each edge once, smaller id first, in (vertex, position)
    order of its smaller end."""
    ids = ext_ids(g)
    for v in range(g.node_count):
        sink.writelines(f"{ids[v]} {ids[u]}\n" for u in neighbors(g, v)
                        if v < u)


def load_edge_list(source):
    """Line-by-line edge-list loader: the array loader's reference.

    It accepts what ``int()`` accepts as an id (so ``+5``, ``1_0`` and
    non-ASCII digits too, which the array loader rejects) and splits on any
    whitespace.
    """
    from graphsize.graph import EdgeListParseError, LoadReport

    edges = []
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
        if a >= 2**64 or b >= 2**64:
            raise EdgeListParseError(line_no, line, "node id not below 2^64")
        edges.append((a, b))
    base = LoadReport(lines_read=lines_read, comments_skipped=comments)
    return graph_from_edges(edges, report_base=base)


def graph_from_edges(edges, extra_nodes=(), report_base=None):
    """Set-based ``Graph.from_edges``: the array builder's reference."""
    from graphsize.graph import GraphError, LoadReport

    base = report_base or LoadReport()
    self_loops = base.self_loops_dropped
    dupes = base.duplicates_collapsed
    edge_set = set()
    nodes = set(extra_nodes)
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
    adj = [[] for _ in ext_ids]
    for a, b in edge_set:
        adj[dense[a]].append(dense[b])
        adj[dense[b]].append(dense[a])
    report = LoadReport(lines_read=base.lines_read,
                        comments_skipped=base.comments_skipped,
                        self_loops_dropped=self_loops,
                        duplicates_collapsed=dupes)
    return graph_from_adjacency([tuple(sorted(a)) for a in adj], ext_ids,
                                report)


def graph_from_adjacency(adjacency, ext_ids, load_report=None):
    """A ``Graph`` from one neighbor tuple per dense index, through the CSR
    that its constructor takes."""
    from graphsize.graph import Graph

    indptr = np.cumsum([0] + [len(nbrs) for nbrs in adjacency])
    indices = [u for nbrs in adjacency for u in nbrs]
    return Graph(indptr, indices, ext_ids, load_report)


def adjacency(g):
    """The neighbor tuple of each dense index of ``g``."""
    return tuple(neighbors(g, v) for v in range(g.node_count))


def components(g):
    """The connected components as sorted dense-index tuples, in order of
    their smallest members, found breadth first: the reference of
    ``Graph.component_roots``."""
    from collections import deque

    seen = [False] * g.node_count
    out = []
    for s in range(g.node_count):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in neighbors(g, v):
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
                    queue.append(u)
        out.append(tuple(sorted(comp)))
    return tuple(out)


def component_roots(g) -> list:
    """Each node's smallest component member, from :func:`components`."""
    roots = [0] * g.node_count
    for comp in components(g):
        for v in comp:
            roots[v] = comp[0]
    return roots


def erdos_renyi(n, p, seed):
    """``erdos_renyi`` drawing one geometric gap per call and walking the
    rows pair by pair: the batched version's reference."""
    from graphsize.graph import Graph

    rng = np.random.default_rng(seed)
    edges = []
    total = n * (n - 1) // 2
    if p > 0.0:
        row, row_start, row_len = 0, 0, n - 1
        idx = -1
        while True:
            idx += int(rng.geometric(p))
            if idx >= total:
                break
            while idx >= row_start + row_len:
                row_start += row_len
                row += 1
                row_len = n - 1 - row
            edges.append((row, row + 1 + idx - row_start))
    return Graph.from_edges(edges, extra_nodes=range(n))


def hub_of_cliques(num_cliques, clique_size):
    """A hub node joined to one member of each clique (skewed degrees)."""
    from graphsize.graph import Graph

    if num_cliques < 1 or clique_size < 2:
        raise ValueError("need num_cliques >= 1 and clique_size >= 2")
    edges = []
    hub = num_cliques * clique_size
    for c in range(num_cliques):
        base = c * clique_size
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                edges.append((base + i, base + j))
        edges.append((hub, base))
    return Graph.from_edges(edges)


def barabasi_albert(n, m, seed):
    """``barabasi_albert`` drawing each target with ``rng.integers``: the
    raw-stream version's reference."""
    from graphsize.graph import Graph

    if m < 1 or n <= m:
        raise ValueError("need n > m >= 1")
    rng = np.random.default_rng(seed)
    edges = [(i, i + 1) for i in range(m - 1)]
    repeated = []
    for a, b in edges:
        repeated += [a, b]
    if not repeated:
        repeated = [0]
    for v in range(m, n):
        targets = set()
        while len(targets) < m:
            targets.add(repeated[int(rng.integers(len(repeated)))])
        for t in targets:
            edges.append((t, v))
            repeated += [t, v]
    return Graph.from_edges(edges, extra_nodes=range(n))


def walk(g, n, seed):
    """A random walk stepping through neighbor tuples: the reference of
    ``sampling._walk`` on a connected graph with an edge."""
    rng = np.random.default_rng(seed)
    current = int(rng.integers(g.node_count))
    nodes = [current]
    for u in rng.random(n - 1).tolist():
        nbrs = neighbors(g, current)
        current = nbrs[int(u * len(nbrs))]
        nodes.append(current)
    return nodes


def wis_draw(weights, n, seed):
    """The dense nodes of a weighted draw, each draw looked up in the
    running sums in draw order: the reference of ``sample_wis``'s sorted
    lookup."""
    cumulative = np.cumsum(np.asarray(weights, dtype=np.float64))
    rng = np.random.default_rng(seed)
    return np.searchsorted(cumulative, rng.random(n) * cumulative[-1],
                           side="right")


def largest_connected_component(g):
    """Edge-by-edge ``largest_connected_component``: the array version's
    reference.  A connected graph is its own component, load report and
    all."""
    comps = components(g)
    if len(comps) == 1:
        return g
    ext = ext_ids(g)
    best = max(comps, key=lambda comp: (len(comp), -min(ext[v] for v in comp)))
    keep = set(best)
    edges = [(ext[v], ext[u]) for v in best for u in neighbors(g, v)
             if u in keep and ext[v] < ext[u]]
    return graph_from_edges(edges, extra_nodes=[ext[v] for v in best])


def first_seen(values):
    """Dict-loop ``_first_seen``: the distinct values by first appearance,
    the index of each one's first appearance, and every value's rank in
    that order."""
    first = {}
    for i, v in enumerate(values):
        first.setdefault(v, i)
    rank = {v: r for r, v in enumerate(first)}
    return list(first), list(first.values()), [rank[v] for v in values]


def sample_from_snapshots(node_at, weight_at, walker_at, snapshots, method,
                          seed, weight_rule, graph_digest,
                          rng_name="numpy-pcg64"):
    """A ``Sample`` from per-position Python columns and a mapping that
    covers the sampled nodes, ranked with dicts: sampled nodes first, then
    the ids only a snapshot names, each in order of first appearance."""
    from graphsize.sampling import Sample, SamplingError

    if not len(node_at) == len(weight_at) == len(walker_at):
        raise SamplingError("sample columns differ in length")
    rows = [tuple(snapshots[v]) for v in dict.fromkeys(node_at)]
    named = [u for row in rows for u in row]
    rank = {v: r for r, v in enumerate(dict.fromkeys(list(node_at) + named))}
    ranks = lambda ids: np.array([rank[v] for v in ids], dtype=np.int64)
    return Sample(tuple(rank), ranks(node_at),
                  np.array(weight_at, dtype=np.float64),
                  np.array(walker_at, dtype=np.int64),
                  np.cumsum([0] + [len(row) for row in rows]), ranks(named),
                  method, seed, weight_rule, graph_digest, rng_name)


def write_sample(s, sink):
    """One f-string per record, over Python values: the array writer's
    reference.  A weight is written as its repr."""
    sink.write(f"graphsize-sample v1\tmethod={s.method}\tseed={s.seed}"
               f"\tweight_rule={s.weight_rule}\tgraph_digest={s.graph_digest}"
               f"\trng={s.rng_name}\tn={len(s)}\n")
    ids, bounds = s.ids.tolist(), s.offsets.tolist()
    entries = s.entries.tolist()
    for i, (r, w, k) in enumerate(zip(s.rank_column.tolist(),
                                      s.weight_column.tolist(),
                                      s.walker_column.tolist())):
        row = entries[bounds[r]:bounds[r + 1]]
        snapshot = ",".join(str(ids[u]) for u in row)
        sink.write(f"{i}\t{ids[r]}\t{len(row)}\t{w!r}\t{k}\t{snapshot}\n")


def read_sample(source):
    """Record-by-record sample-file reader: the array reader's reference.

    It accepts what ``int()`` and ``float()`` accept in a record field (so
    ``+5``, `` 5``, ``1_0``, non-ASCII digits, signed ids and ids of any
    size too, which the array reader rejects); walker ids beyond 64 bits
    fail when the sample is built, and so, with a GraphError, do ids
    outside [0, 2^64).  The header's seed and n are ASCII digits, as the
    array reader reads them.
    """
    from graphsize.sampling import METHODS, RNG_NAME, SamplingError

    header = source.readline().rstrip("\n")
    fields = header.split("\t")
    if not fields or fields[0] != "graphsize-sample v1":
        raise SamplingError("not a graphsize sample file")
    for field in fields[1:]:
        if "=" not in field:
            raise SamplingError(f"sample header field {field!r} is not "
                                "key=value")
    meta = {}
    for key, value in (f.split("=", 1) for f in fields[1:]):
        if key in meta:
            raise SamplingError(f"sample header key {key!r} given twice")
        meta[key] = value
    missing = [key for key in ("method", "seed", "weight_rule",
                               "graph_digest", "n") if key not in meta]
    if missing:
        raise SamplingError(f"sample header lacks {', '.join(missing)}")
    if meta["method"] not in METHODS.values():
        raise SamplingError(f"unknown sampling method {meta['method']!r}")
    header_ints = []
    for key in ("seed", "n"):
        # Header values are ASCII digits only, of any size.
        value = meta[key]
        if not (value.isascii() and value.isdigit()):
            shown = value if value.isprintable() else repr(value)
            raise SamplingError(f"sample header {key}={shown} is not an "
                                "integer of ASCII digits")
        header_ints.append(int(value))
    seed, count = header_ints
    rows = []
    snapshots = {}
    texts = {}
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
            raise _record_line_error(i, fields) from None
        if position != i:
            raise SamplingError(f"record {pos}: position must be its index, {i}")
        if not 0.0 < w < math.inf:
            raise SamplingError(
                f"record {pos}: weight must be finite and positive, got {weight}")
        if meta["method"] == "UIS" and w != 1.0:
            raise SamplingError(
                f"record {pos}: weight must be 1 in a UIS sample, got {weight}")
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
    if any(k not in range(-2**63, 2**63) for _, _, k in rows):
        raise SamplingError("walker ids must fit in 64 bits")
    return sample_from_snapshots(*zip(*rows), snapshots, meta["method"], seed,
                                 meta["weight_rule"], meta["graph_digest"],
                                 rng_name=meta.get("rng", RNG_NAME))


def _record_line_error(i, fields):
    from graphsize.sampling import SamplingError

    if len(fields) != 6:
        return SamplingError(f"record {i}: expected 6 tab-separated fields, "
                             f"got {len(fields)}")
    for name, parse, text in zip(("position", "node", "degree", "weight",
                                  "walker"), (int, int, int, float, int),
                                 fields):
        try:
            parse(text)
        except ValueError:
            kind = _CELL if parse is int else "a number"
            return SamplingError(f"record {i}: {name} {text!r} is not {kind}")
    return SamplingError(f"record {i}: snapshot {fields[5]!r} is not a "
                         f"comma-separated list of {_CELL}")


# What an integer cell must be, as the array reader's messages say.
_CELL = "1 to 20 ASCII digits below 2^64"


def count_induced_edges(sample) -> int:
    """Dict-loop induced-edge count: the array kernel's exact reference."""
    nodes, _, _, snapshots = views(sample)
    counts = {}
    for v in nodes:
        counts[v] = counts.get(v, 0) + 1
    ordered = 0
    for v, cv in counts.items():
        ordered += cv * sum(counts.get(u, 0) for u in snapshots[v])
    return ordered // 2


def inda_wis_parts(sample) -> tuple[float, float]:
    """``inda_wis_ratio``'s numerator and denominator from dict loops in the
    order the array kernel keeps, so that the two agree bit for bit."""
    nodes, weights, _, snapshots = views(sample)
    inv = [1.0 / w for w in weights]
    degrees = [len(snapshots[v]) for v in nodes]
    s1 = math.fsum(inv)
    pair_sum = 0.5 * (s1 * s1 - math.fsum(x * x for x in inv))
    num = math.fsum(d * iw for d, iw in zip(degrees, inv)) * pair_sum
    return num, s1 * edge_pair_sum(sample)


def edge_pair_sum(sample) -> float:
    """Route A's edge-pair sum of 1/(w_i * w_j) from dict loops over the
    distinct nodes in order of first appearance, as ``_first_seen`` orders
    them, whatever the ranks."""
    nodes, weights, _, snapshots = views(sample)
    inv_by_node = {}
    for v, w in zip(nodes, weights):
        inv_by_node[v] = inv_by_node.get(v, 0.0) + 1.0 / w
    total = 0.0
    for v, iv in inv_by_node.items():
        acc = 0.0
        for u in snapshots[v]:
            acc += inv_by_node.get(u, 0.0)
        total += iv * acc
    return 0.5 * total


def auxiliary_counts(sample, mode: str) -> dict:
    """Route B's auxiliary (multi)set A as id -> multiplicity: every
    position's neighbor snapshot, once per position; in set mode each
    multiplicity is 1."""
    counts = {}
    for snapshot in snapshots_at(sample):
        for u in snapshot:
            counts[u] = counts.get(u, 0) + 1
    return dict.fromkeys(counts, 1) if mode == "set" else counts


def indb_parts(sample, mode: str, weighted: bool) -> tuple[float, float]:
    """``indb_wis_ratio``'s numerator and denominator from
    :func:`auxiliary_counts`, in the order the kernel sums, so that the two
    agree bit for bit; unless ``weighted``, the closed uniform form
    |A| * n over the cross-collision count, which the kernel gives at unit
    weights."""
    aux = auxiliary_counts(sample, mode)
    size = sum(aux.values())
    nodes, weights, _, _ = views(sample)
    hits = [aux.get(v, 0) for v in nodes]
    if not weighted:
        return float(size * len(sample)), float(sum(hits))
    inv = [1.0 / w for w in weights]
    return size * math.fsum(inv), math.fsum(i * h for i, h in zip(inv, hits))


def capture_recapture(s1_unique: set, s2_unique: set):
    """Two-phase capture-recapture from duplicate-free node sets."""
    from graphsize.core import EstimatorError, RatioEstimate

    if not s1_unique or not s2_unique:
        raise EstimatorError("capture-recapture needs two non-empty sets")
    overlap = len(s1_unique & s2_unique)
    return RatioEstimate(len(s1_unique) * len(s2_unique), overlap).outcome()


def capture_split(sample, seed: int) -> tuple[set, set]:
    """The two halves of ``capture_recapture_from_sample``'s seeded split as
    sets of node ids, filled position by position in permuted order."""
    order = np.random.default_rng(seed).permutation(len(sample)).tolist()
    nodes = views(sample).node_at
    halves = (set(), set())
    for k, p in enumerate(order):
        halves[k >= len(sample) // 2].add(nodes[p])
    return halves


def mle_unique_exact(n: int, n_unique: int) -> int:
    """The smallest N >= n_unique with (N+1)/(N+1-n_unique) * (N/(N+1))^n
    < 1, the predicate evaluated in 60-digit decimal logarithms and located
    by the same doubling and bisection as the estimator."""
    context = decimal.Context(prec=60)

    def log_ratio(a: int, b: int) -> decimal.Decimal:
        return context.ln(context.divide(decimal.Decimal(a),
                                         decimal.Decimal(b)))

    def holds(big_n: int) -> bool:
        if big_n + 1 - n_unique <= 0:
            return False
        return context.add(log_ratio(big_n + 1, big_n + 1 - n_unique),
                           context.multiply(decimal.Decimal(n),
                                            log_ratio(big_n, big_n + 1))) < 0

    lo = hi = max(n_unique, 1)
    while not holds(hi):
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo
