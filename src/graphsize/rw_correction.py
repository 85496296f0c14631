"""Dependence reduction for random-walk samples.

Three families: thinning (keep every theta-th sample, optionally keeping all
theta shifted subsamples and aggregating their ratio parts), margin filtering
(drop estimator contributions from sample pairs at most m steps apart),
and the multi-walker variant (keep only cross-walker pairs).

Margin and cross-walker filtering are one pair filter: each position i
excludes a window [lo_i, hi_i) of positions, the positions within m steps
for a margin, the positions of its own walker for cross-walker filtering.
All their sums run over ordered pairs (i, j), i != j, and are computed as
full-pair totals minus within-window totals.  Each call checks the weights,
then builds what no window changes.  For the node and multiset windows
(:class:`Windows`) that is the sorted keys of where each rank occurs among
the positions or is named by their snapshots (:func:`_keys`), each rank's
count of them, the prefix sums of the inverse weights and the exact
full-pair total.  A window then costs one
prefix-window exact sum for its numerator and, for its denominator, one
exact sum over counts that one search call over both window edges finds
(:func:`_inside`).  :func:`margin_ratios` answers a grid of margins in one
call: it searches once, at the widest, then buckets the pairs inside those
windows by distance to count every narrower margin, unless the pairs
outnumber the narrower windows' search needles.  Set mode reads each
rank's first and last mentioning position off the snapshot CSR
(:func:`_mention_spans`), one margin at a time.  Thinning slices
the rank column over the parent's shared CSR.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (MODE_MULTISET, MODE_SET, NO_COLLISIONS, EstimateOutcome,
                   EstimatorError, RatioEstimate, _auxiliary_counts,
                   _check_mode, _check_weights, _fsum, aggregate_ratios)
from .graph import _ranges
from .sampling import Sample


def _check_at_least(name: str, value: int, least: int) -> None:
    if value < least:
        raise EstimatorError(f"{name} must be >= {least}, got {value}")


def thin_simple(s: Sample, theta: int) -> Sample:
    """Keep every theta-th position, starting from the first."""
    _check_at_least("theta", theta, 1)
    return s.subset(np.arange(0, len(s), theta))


def thin_shifted(s: Sample, theta: int) -> list[Sample]:
    """The theta shifted subsamples, less the empty ones when theta exceeds
    the sample's length; their concatenation permutes the input."""
    _check_at_least("theta", theta, 1)
    return [s.subset(np.arange(k, len(s), theta))
            for k in range(min(theta, len(s)))]


def estimate_thinned(s: Sample, theta: int,
                     ratio: Callable[[Sample], RatioEstimate],
                     shifted: bool = False) -> EstimateOutcome:
    """The base estimator ``ratio`` on a thinned sample.

    Simple mode evaluates the base estimator on the single kept subsample.
    Shifted mode aggregates the per-subsample numerators and denominators,
    which stays finite even when some subsamples have no collisions.
    """
    if shifted:
        return aggregate_ratios([ratio(sub) for sub in thin_shifted(s, theta)])
    return ratio(thin_simple(s, theta)).outcome()


# -- margin and cross-walker filtering ---------------------------------------

# A margin grid counts its narrower windows from the pairs inside its widest
# window when those number at most this many per search needle the narrower
# windows would take (two per position and window); otherwise each window
# searches.  Measured on walks over three graphs (BENCH_28.json), bucketing
# beat searching up to 3.2 pairs per needle on mention keys and broke even
# near 0.9 on node keys, whose search is cheap; at 1 its pair arrays also
# stay within what one window allocates.
_PAIRS_PER_NEEDLE = 1


class Windows(NamedTuple):
    """What the node or multiset windows of one call read and no window
    changes; per-occurrence arrays follow the sample's own key order."""

    counted: np.ndarray   # sorted keys of own occurrences (node) or mentions
    own: np.ndarray       # those of each sampled occurrence's rank, counted
    keys: np.ndarray      # the sample's own occurrence keys
    prefix: np.ndarray    # running sums of 1 / weight, from 0 (n + 1 values)
    total: float          # fsum(values) * fsum(1 / weights)
    values: np.ndarray    # each position's weight (node) or degree
    position: np.ndarray  # each occurrence's position
    base: np.ndarray      # each occurrence's key less its position
    keyed_inverse: np.ndarray | None  # multiset: 1 / weight by occurrence


def _keys(s: Sample, mentions: bool = False) -> np.ndarray:
    """Where each rank occurs in ``s``: each position's node as one
    occurrence of its rank or, with ``mentions``, each snapshot entry as an
    occurrence of the rank it names at the position carrying it.  An
    occurrence of rank r at position p is the key r * (n + 1) + p, so the
    sorted keys list each rank's positions in order, and counting a rank's
    occurrences in a window of positions takes two binary searches."""
    n, size = len(s), len(s.ids)
    if mentions:
        lengths = s.degree_column
        # Position p's entries are entries[starts[p]:starts[p] + lengths[p]].
        # The gather indices take 32 bits when they fit, and the ranks and
        # positions gathered the fewest bits that hold them.
        gather = np.int32 if lengths.sum() <= 2**31 - 1 else np.int64
        ranks = s.entries.astype(np.min_scalar_type(size))[_ranges(
            s.offsets[s.rank_column], lengths, gather)]
        positions = np.repeat(np.arange(n, dtype=np.min_scalar_type(n)),
                              lengths)
    else:
        ranks, positions = s.rank_column, np.arange(n)
    stride = n + 1
    # Keys take 32 bits when they fit: they are the largest array a margin
    # estimate allocates.
    keys = ranks.astype(np.int32 if size * stride <= 2**31 - 1 else np.int64)
    del ranks  # a gathered rank column is freed before the sort
    keys *= stride
    keys += positions
    keys.sort()
    return keys


def _mention_spans(s: Sample) -> tuple[np.ndarray, np.ndarray]:
    """Each rank's first and last position whose snapshot names it, n and
    -1 where none does, read off the CSR: a rank's first mention is the
    first position of any row naming it.  Rows of the CSR view that ``s``
    does not hold keep n and -1, so they lower or raise nothing."""
    n, spans = len(s), []
    for at, none in ((np.minimum.at, n), (np.maximum.at, -1)):
        row = np.full(len(s.offsets) - 1, none, dtype=np.int64)
        at(row, s.rank_column, np.arange(n))
        mention = np.full(len(s.ids), none, dtype=np.int64)
        at(mention, s.entries, np.repeat(row, np.diff(s.offsets)))
        spans.append(mention)
    return tuple(spans)


def _windows(s: Sample, node: bool) -> Windows:
    """The node or multiset basis of ``s``, whose weights the caller has
    checked.  A rank's count is how often it is sampled (node) or named by
    the sampled snapshots (multiset)."""
    keys = _keys(s)
    counted = keys if node else _keys(s, mentions=True)
    sampled = np.bincount(s.rank_column, minlength=len(s.ids))
    # Sorted by key, the sample's own occurrences run through its ranks in
    # order, each rank as often as it is sampled.
    own = np.repeat(sampled if node else _auxiliary_counts(s, MODE_MULTISET),
                    sampled)
    position = keys % (len(s) + 1)
    inverse = 1.0 / s.weight_column
    # The degrees' exact integer sum, rounded once, is their fsum.
    total = (_fsum(s.weight_column) if node
             else float(int(s.degree_column.sum()))) * _fsum(inverse)
    return Windows(counted, own, keys,
                   np.concatenate(([0.0], np.cumsum(inverse))), total,
                   s.weight_column if node else s.degree_column, position,
                   keys - position, None if node else inverse[position])


def _check_base(base: str, correction: str) -> None:
    if base not in ("node", "ind"):
        raise EstimatorError(f"unsupported {correction} base: {base!r}")


def _margin_window(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Each position's excluded window: the positions at most m steps away."""
    i = np.arange(n)
    return np.maximum(i - m, 0), np.minimum(i + m + 1, n)


def _inside(w: Windows, lo: np.ndarray, hi: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """For each occurrence of a sampled node, in the sample's key order:
    where the keys in ``w.counted`` of its rank inside its window [lo, hi)
    of positions start, and how many there are.  The windows' edges, as
    keys, ascend in each half, so the one search call walks the keys
    forwards twice."""
    keys = w.counted
    edges = np.concatenate((w.base + lo[w.position], w.base + hi[w.position]))
    found = np.searchsorted(keys, edges.astype(keys.dtype, copy=False))
    n = len(w.position)
    return found[:n], found[n:] - found[:n]


# Sums of values_i * inv_j over ordered pairs with j outside i's window are
# the exact total minus, for each i, values_i times i's window sum of inv.


def _window_ratio(w: Windows, lo: np.ndarray, hi: np.ndarray,
                  inside: np.ndarray) -> RatioEstimate:
    """A node or multiset ratio over the windows [lo_i, hi_i) of
    positions, given each sampled occurrence's count of its rank's
    occurrences (node) or mentions (multiset) inside its window."""
    outside = w.own - inside
    sums = w.prefix[hi] - w.prefix[lo]  # each window's sum of 1 / weight
    return RatioEstimate(w.total - _fsum(w.values * sums),
                         float(outside.sum()) if w.keyed_inverse is None
                         else _fsum(w.keyed_inverse * outside))


def _searched_ratio(w: Windows, lo: np.ndarray,
                    hi: np.ndarray) -> RatioEstimate:
    return _window_ratio(w, lo, hi, _inside(w, lo, hi)[1])


def _set_window_ratio(s: Sample, first: np.ndarray, last: np.ndarray,
                      lo: np.ndarray, hi: np.ndarray) -> RatioEstimate:
    # Set mode reads only each rank's first and last mention: no window
    # total or key edge.
    n, inv = len(s), 1.0 / s.weight_column
    # A neighbor node is invisible from position j iff all positions carrying
    # it fall inside j's window; lo and hi never decrease, so that happens
    # exactly for j in an interval.  A rank no position mentions (first n,
    # last -1) is invisible from every j, so it cancels out of the count.
    lo_j = np.searchsorted(hi, last, "right")
    hi_j = np.searchsorted(lo, first, "right") - 1
    hidden = lo_j <= hi_j
    missing = np.cumsum(np.bincount(lo_j[hidden], minlength=n + 1)
                        - np.bincount(hi_j[hidden] + 1, minlength=n + 1))[:n]
    num = _fsum(inv * (len(first) - missing))
    r = s.rank_column
    seen = (first[r] < lo) | (last[r] >= hi)
    return RatioEstimate(num, _fsum(inv[seen]))


def _grid_ratios(w: Windows, grid: list[int]) -> dict[int, RatioEstimate]:
    """The node or multiset ratio at each margin of ``grid``, ascending and
    below n - 1.

    One search finds, for each sampled occurrence, its rank's occurrences
    (or mentions) inside its widest window.  When those pairs are few
    enough, running counts of them bucketed by distance give every narrower
    window's counts (:func:`_bucketed`); otherwise each narrower window
    searches its own, one window's memory at a time.  Both give the same
    integers.
    """
    n = len(w.position)
    *narrower, widest = grid
    lo, hi = _margin_window(n, widest)
    starts, inside = _inside(w, lo, hi)
    ratios = {widest: _window_ratio(w, lo, hi, inside)}
    del lo, hi
    if narrower and (inside.sum()
                     <= _PAIRS_PER_NEEDLE * 2 * n * len(narrower)):
        for m, within in zip(narrower, _bucketed(w, starts, inside, grid)):
            ratios[m] = _window_ratio(w, *_margin_window(n, m), within)
        return ratios
    del starts, inside
    for m in narrower:
        ratios[m] = _searched_ratio(w, *_margin_window(n, m))
    return ratios


def _bucketed(w: Windows, starts: np.ndarray, inside: np.ndarray,
              grid: list[int]) -> np.ndarray:
    """One row per margin of the ascending ``grid`` but its widest, the
    last: row j holds, for each sampled occurrence k, its rank's
    keys in ``w.counted`` at most ``grid[j]`` positions away.  Those
    in k's widest window are ``keys[starts[k]:starts[k] + inside[k]]`` of
    them; each such pair is counted at the first margin that reaches its
    distance, and the rows are running sums over the margins."""
    n, rows, keys = len(w.position), len(grid) - 1, w.counted
    label = np.int32 if n * len(grid) <= 2**31 - 1 else np.int64
    occurrence = np.repeat(np.arange(n, dtype=label), inside)
    at = (np.int32 if max(len(keys), len(occurrence)) <= 2**31 - 1
          else np.int64)
    # Keys of one rank differ by their positions' difference.
    distance = keys.take(_ranges(starts, inside, at))
    distance -= w.keys.take(occurrence)
    np.abs(distance, out=distance)
    # Each distance's first margin, times n; past the narrower margins it
    # labels row ``rows``, which is dropped.
    first = np.searchsorted(grid[:-1], np.arange(grid[-1] + 1)) * n
    occurrence += first.astype(label).take(distance)
    counts = np.bincount(occurrence, minlength=n * len(grid))[:n * rows]
    return np.cumsum(counts.reshape(rows, n), axis=0)


def margin_ratios(s: Sample, ms: Sequence[int], base: str,
                  a_mode: str) -> list[RatioEstimate]:
    """Margin-filtered ratios, one per m of ``ms``, in that order: the one
    margin entry, so a single margin is ``margin_ratios(s, [m], ...)[0]``.

    Each counts the ordered pairs of positions more than m steps apart; an
    m of n - 1 or more leaves none, and the ratio 0/0.  The ``node`` base
    is sum(w_i/w_j) over sum(1{s_i=s_j}).  The ``ind`` base in multiset
    mode is the direct pair form: sum(deg(s_i)/w(s_j)) over
    sum(1{s_i in N(s_j)}/w(s_i)).

    Set mode deduplicates the auxiliary side: the numerator counts, for each
    j, the distinct neighbor nodes contributed by qualifying positions i
    (|i-j| > m); the denominator counts a collision for position i at most
    once, when s_i appears in the neighbor snapshot of any qualifying j.
    This counting rule is an artifact convention, held fixed by golden tests
    and documented in the README.

    Node and multiset margins share one search at the widest of them (see
    :func:`_grid_ratios`); set mode searches each margin's windows for
    every rank's first and last mention.  Every margin and ``a_mode`` are
    checked for either base, before the weights, and the weights before any
    index is built.
    """
    for m in ms:
        _check_at_least("margin", m, 0)
    _check_mode(a_mode)
    _check_base(base, "margin")
    _check_weights(s.weight_column)
    n = len(s)
    ratios = dict.fromkeys([m for m in ms if m >= n - 1],
                           RatioEstimate(0.0, 0.0))
    grid = sorted(set(ms) - ratios.keys())
    if grid and base == "ind" and a_mode == MODE_SET:
        spans = _mention_spans(s)
        for m in grid:
            ratios[m] = _set_window_ratio(s, *spans, *_margin_window(n, m))
    elif grid:
        ratios.update(_grid_ratios(_windows(s, base == "node"), grid))
    return [ratios[m] for m in ms]


def margin_crosswalker(s: Sample, base: str, a_mode: str) -> EstimateOutcome:
    """Margin variant for multi-walker samples: keep only cross-walker pairs.

    Each position's excluded window is its own walker's run of positions.
    No explicit margin parameter; a single-walker sample has no surviving
    pairs and yields the no-collisions outcome.  ``base`` and ``a_mode``
    are checked for any sample, and ``a_mode`` for either base, though only
    the ind base uses it.
    """
    _check_mode(a_mode)
    _check_base(base, "cross-walker")
    _check_weights(s.weight_column)
    walkers = s.walker_column
    if len(walkers) == 0 or (walkers == walkers[0]).all():
        return NO_COLLISIONS
    if (walkers[1:] < walkers[:-1]).any():
        # The sums depend on the walker labels only, not on record order.
        order = np.argsort(walkers, kind="stable")
        s, walkers = s.subset(order), walkers[order]
    lo = np.searchsorted(walkers, walkers, "left")
    hi = np.searchsorted(walkers, walkers, "right")
    if base == "ind" and a_mode == MODE_SET:
        return _set_window_ratio(s, *_mention_spans(s), lo, hi).outcome()
    return _searched_ratio(_windows(s, base == "node"), lo, hi).outcome()


# -- surviving pair accounting ---------------------------------------------


def surviving_pair_count(n: int, correction: str, value: int) -> int:
    """Exact count of ordered pairs a correction leaves usable.

    ``correction`` is ``thin`` or ``thin-shifted`` with ``value`` theta, or
    ``margin`` with ``value`` m.
    """
    if correction == "margin":
        _check_at_least("margin", value, 0)
        m = min(value, max(n - 1, 0))
        return n * (n - 1) - 2 * (m * n - m * (m + 1) // 2)
    if correction not in ("thin", "thin-shifted"):
        raise EstimatorError(f"unsupported correction: {correction!r}")
    _check_at_least("theta", value, 1)
    kept = range(value if correction == "thin-shifted" else 1)
    lengths = [len(range(k, n, value)) for k in kept]
    return sum(length * (length - 1) for length in lengths)
