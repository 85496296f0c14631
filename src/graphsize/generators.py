"""Seeded synthetic graph generators used by tests and the CLI.

All generators are deterministic given their parameters and seed, and return
:class:`~graphsize.graph.Graph` instances with external ids 0..N-1.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Iterator, Sequence

import numpy as np

from .graph import Graph


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p) via geometric skipping over the linearized upper triangle."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    rng = np.random.default_rng(seed)
    total = n * (n - 1) // 2
    # Geometric gaps between kept pair indices give O(E) work; they are
    # drawn a batch at a time, as the same calls one by one would draw them.
    # A gap past ``total`` ends the stream, so clipping it there changes no
    # edge and keeps the sums from overflowing when p is tiny.
    batches, last = [np.zeros(0, dtype=np.int64)], -1
    while p > 0.0 and last < total:
        gaps = rng.geometric(p, int(p * total) + 64)
        batches.append(last + np.cumsum(np.minimum(gaps, total + 1)))
        last = int(batches[-1][-1])
    index = np.concatenate(batches)
    index = index[index < total]
    # Row r of the upper triangle, the pairs (r, r + 1) to (r, n - 1),
    # starts at index starts[r].
    lengths = np.arange(n - 1, -1, -1)
    starts = np.cumsum(lengths) - lengths
    row = np.searchsorted(starts, index, "right") - 1
    edges = np.stack((row, row + 1 + index - starts[row]), axis=1)
    return Graph.from_edges(edges.astype(np.uint64),
                            extra_nodes=np.arange(n, dtype=np.uint64))


def barabasi_albert(n: int, m: int, seed: int) -> Graph:
    """Preferential attachment: each new node attaches to m existing nodes.

    Starts from an m-node path; attachment targets are drawn from the
    repeated-endpoints list, without duplicate targets per new node.  Each
    draw is the value of ``rng.integers(len(repeated))`` on
    ``default_rng(seed)``, replayed by :func:`attachment_targets` from the
    raw PCG64 stream that :func:`raw_words` reads.  A size whose last node
    would draw from 2^32 or more entries is rejected before any draw.
    """
    if m < 1 or n <= m:
        raise ValueError("need n > m >= 1")
    last = 1 + 2 * (n - 2) if m == 1 else 2 * (m - 1) + 2 * m * (n - 1 - m)
    if last > _WORD:
        raise ValueError(f"nodes={n}, m={m}: the last node would draw from "
                         f"{last} endpoints, over the 2^32 - 1 that a 32-bit "
                         f"draw can index")
    words = raw_words(np.random.default_rng(seed).bit_generator)
    # The path's edge endpoints in order; with no edge (m = 1), its node.
    repeated = [end for i in range(m - 1) for end in (i, i + 1)] or [0]
    for v in range(m, n):
        # Each target t adds t, v.  A set's iteration order fixes the order
        # of ``repeated`` and so every later draw; it must stay a set.
        block = [v] * (2 * m)
        block[::2] = attachment_targets(words, repeated, m)
        repeated += block
    # Entries pair up into edges, after the lone path node when m = 1.
    edges = np.array(repeated, dtype=np.uint64)[len(repeated) % 2:]
    del repeated
    return Graph.from_edges(edges.reshape(-1, 2),
                            extra_nodes=np.arange(n, dtype=np.uint64))


_WORD = (1 << 32) - 1


def raw_words(bit_generator: np.random.BitGenerator) -> Iterator[int]:
    """The 32-bit words that ``Generator.integers`` reads for a bound below
    2^32: each raw 64-bit output of a fresh ``bit_generator``, low half
    first, read 4096 outputs at a time."""
    return chain.from_iterable(
        np.stack((raw & _WORD, raw >> 32), axis=1).ravel().tolist()
        for raw in map(bit_generator.random_raw, repeat(4096)))


def attachment_targets(words: Iterator[int], repeated: Sequence[int],
                       m: int) -> set[int]:
    """The first m distinct values that successive
    ``Generator.integers(len(repeated))`` calls reading ``words`` pick from
    ``repeated``, by Lemire's multiply-shift method (ACM TOMACS 2019): a
    word w gives ``(w * bound) >> 32``, unless ``(w * bound) mod 2^32`` is
    below ``2^32 mod bound``.  A bound of 1 reads no word, and no word is
    read past the m-th value."""
    bound, targets = len(repeated), set()
    threshold = (_WORD + 1) % bound
    for w in words if bound > 1 else repeat(0):
        scaled = w * bound
        if scaled & _WORD >= threshold:
            targets.add(repeated[scaled >> 32])
            if len(targets) == m:
                return targets


def ring_of_cliques(num_cliques: int, clique_size: int) -> Graph:
    """Cliques arranged in a ring, joined by single bridge edges."""
    if num_cliques < 1 or clique_size < 2:
        raise ValueError("need num_cliques >= 1 and clique_size >= 2")
    edges = []
    for c in range(num_cliques):
        base = c * clique_size
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                edges.append((base + i, base + j))
    for c in range(num_cliques):
        a = c * clique_size
        b = ((c + 1) % num_cliques) * clique_size
        if a != b:
            edges.append((a, b))
    return Graph.from_edges(edges)


def grid_2d(rows: int, cols: int) -> Graph:
    """Four-connected 2-D lattice (road-network stand-in)."""
    if rows < 1 or cols < 1:
        raise ValueError("need rows >= 1 and cols >= 1")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph.from_edges(edges, extra_nodes=range(rows * cols))
