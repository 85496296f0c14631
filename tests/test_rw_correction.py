import io
import math
import random
import tracemalloc
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphsize.core import (MODE_MULTISET, MODE_SET, NO_COLLISIONS,
                            EstimatorError, RatioEstimate, _auxiliary_counts)
from graphsize.experiment import EstimatorSpec, evaluate
from graphsize.generators import barabasi_albert, erdos_renyi, ring_of_cliques
from graphsize.graph import largest_connected_component
from graphsize.ind_estimators import indb_wis_ratio
from graphsize.node_estimators import node_wis_ratio
from graphsize import rw_correction
from graphsize.rw_correction import (estimate_thinned, margin_crosswalker,
                                     margin_ratios, surviving_pair_count)
from graphsize.sampling import (Sample, read_sample, sample_rw,
                                sample_rw_multi, write_sample)

import oracles
from conftest import graph_from_text, make_sample, repeated_entry_sample
from strategies import walk_like_samples


def _walk_graph(seed=1):
    g = erdos_renyi(80, 0.1, seed=seed)
    return g if g.is_connected else largest_connected_component(g)


# -- thinning ----------------------------------------------------------------


def _thinned_parts(s, theta, shifted=False):
    """The subsamples estimate_thinned hands its base estimator."""
    parts = []
    estimate_thinned(s, theta,
                     lambda sub: parts.append(sub) or node_wis_ratio(sub),
                     shifted=shifted)
    return parts


def test_thin_simple_positions():
    g = _walk_graph()
    s = sample_rw(g, 9, seed=0)
    (part,) = _thinned_parts(s, 3)
    kept, full = oracles.views(part), oracles.views(s)
    assert kept.node_at == full.node_at[::3]
    assert kept.weight_at == full.weight_at[::3]
    assert kept.snapshots == {v: full.snapshots[v] for v in kept.node_at}


def test_thin_simple_identity_and_overlong():
    g = _walk_graph()
    s = sample_rw(g, 5, seed=1)
    nodes = oracles.views(s).node_at
    assert [oracles.views(sub).node_at for sub in _thinned_parts(s, 1)] \
        == [nodes]
    assert [oracles.views(sub).node_at for sub in _thinned_parts(s, 9)] \
        == [nodes[:1]]


def test_thin_shifted_patterns():
    g = _walk_graph()
    s = sample_rw(g, 6, seed=2)
    nodes = oracles.views(s).node_at
    assert [oracles.views(sub).node_at
            for sub in _thinned_parts(s, 2, shifted=True)] \
        == [nodes[0::2], nodes[1::2]]
    assert [oracles.views(sub).node_at
            for sub in _thinned_parts(s, 1, shifted=True)] == [nodes]
    s5 = sample_rw(g, 5, seed=3)
    assert [len(sub) for sub in _thinned_parts(s5, 3, shifted=True)] \
        == [2, 2, 1]


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1,
                                                           max_value=40))
def test_thin_shifted_concatenation_permutes(theta, n):
    g = graph_from_text("0 1\n1 2\n2 0\n")
    s = sample_rw(g, n, seed=7)
    subs = _thinned_parts(s, theta, shifted=True)
    merged = sorted(v for sub in subs for v in oracles.views(sub).node_at)
    assert merged == sorted(oracles.views(s).node_at)
    assert sum(len(sub) for sub in subs) == n


def test_thin_shifted_past_the_sample_length_has_no_empty_part():
    """theta beyond n leaves the n one-record parts of theta = n: no part
    is empty for ind-b to reject, and node-wis sums are those of theta = n."""
    s = sample_rw(_walk_graph(), 5, seed=3)
    assert [len(sub) for sub in _thinned_parts(s, 8, shifted=True)] \
        == [1] * 5
    for ratio in (node_wis_ratio, lambda sub: indb_wis_ratio(sub, MODE_SET)):
        assert estimate_thinned(s, 8, ratio, shifted=True) \
            == estimate_thinned(s, 5, ratio, shifted=True)


# Each kernel with its sweep parameter set to a value, and that parameter's
# least valid value.
PARAMETER_KERNELS = {
    "node_margin_ratio": (
        lambda s, m: margin_ratios(s, [m], "node", MODE_SET)[0], 0),
    "ind_margin_ratio-multiset": (
        lambda s, m: margin_ratios(s, [m], "ind", MODE_MULTISET)[0], 0),
    "ind_margin_ratio-set": (
        lambda s, m: margin_ratios(s, [m], "ind", MODE_SET)[0], 0),
    "estimate_thinned": (
        lambda s, theta: estimate_thinned(s, theta, node_wis_ratio), 1),
    "estimate_thinned-shifted": (lambda s, theta: estimate_thinned(
        s, theta, node_wis_ratio, shifted=True), 1),
    "surviving_pair_count-thin": (
        lambda s, theta: surviving_pair_count(len(s), "thin", theta), 1),
    "surviving_pair_count-thin-shifted": (
        lambda s, theta: surviving_pair_count(len(s), "thin-shifted", theta),
        1),
    "surviving_pair_count-margin": (
        lambda s, m: surviving_pair_count(len(s), "margin", m), 0),
}


@pytest.mark.parametrize("below", [1, 2])
@pytest.mark.parametrize("kernel", PARAMETER_KERNELS)
def test_kernels_reject_a_parameter_below_its_range(kernel, below):
    g = largest_connected_component(erdos_renyi(200, 0.05, seed=1))
    s = sample_rw(g, 300, seed=3)
    call, least = PARAMETER_KERNELS[kernel]
    call(s, least)
    with pytest.raises(EstimatorError,
                       match=rf"(margin|theta) must be >= {least}, got "
                             rf"{least - below}"):
        call(s, least - below)


def test_estimate_thinned_theta_one_reduces():
    g = _walk_graph()
    s = sample_rw(g, 200, seed=4)
    for shifted in (False, True):
        got = estimate_thinned(s, 1, node_wis_ratio, shifted=shifted)
        assert got.value == node_wis_ratio(s).outcome().value


def test_estimate_thinned_shifted_aggregates_parts():
    g = _walk_graph()
    s = sample_rw(g, 101, seed=5)
    theta = 4
    parts = [node_wis_ratio(s.subset(np.arange(k, len(s), theta)))
             for k in range(theta)]
    expected = (sum(p.numerator for p in parts)
                / sum(p.denominator for p in parts))
    got = estimate_thinned(s, theta, node_wis_ratio, shifted=True)
    assert got.value == pytest.approx(expected, rel=1e-12)


def test_shifted_aggregation_survives_empty_parts():
    from graphsize.core import aggregate_ratios
    out = aggregate_ratios([RatioEstimate(1, 0), RatioEstimate(3, 4)])
    assert out.value == pytest.approx(1.0)


def test_estimate_thinned_ind_base():
    g = _walk_graph()
    s = sample_rw(g, 150, seed=6)
    got = estimate_thinned(s, 5, lambda x: indb_wis_ratio(x, MODE_SET),
                           shifted=True)
    assert got.finite


# Pinned on a BA(300) 4x100 rw-multi sample: integer counts exact, ratios
# bit-equal, so a cheaper auxiliary set or thinning changes nothing.  Keys:
# theta, shifted, the estimator, and its auxiliary mode.
PINNED_THINNED = {
    (2, False, "node-wis", MODE_SET): 242.68366851161556,
    (2, True, "node-wis", MODE_SET): 260.458543847978,
    (5, False, "node-wis", MODE_SET): 415.23428912154156,
    (5, True, "node-wis", MODE_SET): 309.65820501240876,
    (2, False, "ind-b", MODE_SET): 291.5203972465886,
    (2, False, "ind-b", MODE_MULTISET): 291.4152693745099,
    (2, True, "ind-b", MODE_SET): 291.0730042299309,
    (2, True, "ind-b", MODE_MULTISET): 308.6957053815552,
    (5, False, "ind-b", MODE_SET): 293.1321274769526,
    (5, False, "ind-b", MODE_MULTISET): 279.54572522588876,
    (5, True, "ind-b", MODE_SET): 284.47839539930993,
    (5, True, "ind-b", MODE_MULTISET): 300.6980140415456,
}


def test_auxiliary_and_thinned_estimates_are_pinned():
    g = barabasi_albert(300, 3, seed=1)
    s = sample_rw_multi(g, 4, 100, seeds=[11, 12, 13, 14])
    a_set = _auxiliary_counts(s, MODE_SET)
    a_multi = _auxiliary_counts(s, MODE_MULTISET)
    ids = np.array(s.ids)
    assert (a_set.sum(), np.count_nonzero(a_set), ids[a_set > 0].sum()) \
        == (297, 297, 44186)
    assert set(a_set.tolist()) == {1}
    assert (np.flatnonzero(a_set) == np.flatnonzero(a_multi)).all()
    assert (a_multi.sum(), (ids * a_multi).sum()) == (4777, 505107)
    for (theta, shifted, base, a_mode), value in PINNED_THINNED.items():
        correction = "thin-shifted" if shifted else "thin"
        est = EstimatorSpec(base, correction, a_mode, theta)
        assert evaluate(s, est).value == value, (theta, shifted, base, a_mode)


# -- margin filtering --------------------------------------------------------


def test_node_margin_small_examples(k5):
    s = make_sample(k5, [0, 1, 0])
    # 6 / 2, then 2 / 2, then no pair more than 2 steps apart
    assert margin_ratios(s, [0], "node", MODE_SET)[0].outcome().value \
        == pytest.approx(3.0)
    assert margin_ratios(s, [1], "node", MODE_SET)[0].outcome().value \
        == pytest.approx(1.0)
    assert margin_ratios(s, [2], "node", MODE_SET)[0].outcome() \
        == NO_COLLISIONS


def test_node_margin_zero_equals_closed_form():
    import math
    g = erdos_renyi(30, 0.2, seed=8)
    for weights in (None, [0.5, 2.0, 2.0, 1.0, 4.0, 0.25, 2.0, 8.0]):
        ext = [oracles.ext_ids(g)[v] for v in [0, 1, 1, 2, 5, 5, 2, 9]]
        s = make_sample(g, ext, weights=weights)
        nodes, w, _, _ = oracles.views(s)
        ncol = 0
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                ncol += nodes[i] == nodes[j]
        closed = ((math.fsum(w) * math.fsum(1 / x for x in w) - len(w))
                  / (2 * ncol))
        assert margin_ratios(s, [0], "node", MODE_SET)[0].outcome().value \
            == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("m", [0, 1, 5, 50])
def test_node_margin_matches_pair_loop(m):
    g = _walk_graph(seed=2)
    for seed in (0, 1):
        s = sample_rw(g, 200, seed=seed)
        got = margin_ratios(s, [m], "node", MODE_SET)[0]
        num, den = oracles.node_margin_parts(s, m)
        assert oracles.relerr(got.numerator, num) < 1e-9
        assert got.denominator == den


def test_ind_margin_triangle_example(triangle):
    s = make_sample(triangle, [0, 1, 2], weights=[2.0, 2.0, 2.0])
    got = margin_ratios(s, [0], "ind", MODE_MULTISET)[0].outcome()
    # numerator 6, denominator 3 over ordered far pairs
    assert got.value == pytest.approx(2.0)


def test_ind_margin_m_too_large(triangle):
    s = make_sample(triangle, [0, 1, 2])
    assert margin_ratios(s, [2], "ind", MODE_MULTISET)[0].outcome() \
        == NO_COLLISIONS
    assert margin_ratios(s, [5], "ind", MODE_SET)[0].outcome() == NO_COLLISIONS


@pytest.mark.parametrize("m", [0, 1, 5, 50])
@pytest.mark.parametrize("a_mode", [MODE_MULTISET, MODE_SET])
def test_ind_margin_matches_pair_loop(m, a_mode):
    g = _walk_graph(seed=3)
    for seed in (0, 1):
        s = sample_rw(g, 150, seed=seed)
        got = margin_ratios(s, [m], "ind", a_mode)[0]
        oracle = (oracles.ind_margin_multiset_parts
                  if a_mode == MODE_MULTISET
                  else oracles.ind_margin_set_parts)
        num, den = oracle(s, m)
        assert oracles.relerr(got.numerator, num) < 1e-9
        assert oracles.relerr(got.denominator, den) < 1e-9


def test_ind_margin_set_mode_golden():
    # pins the deduplicated counting rule on a hand-checkable walk
    g = graph_from_text("0 1\n1 2\n2 3\n3 0\n0 2\n")
    s = make_sample(g, [0, 2, 0, 1], weights=[2.0, 1.0, 2.0, 4.0])
    got = margin_ratios(s, [1], "ind", MODE_SET)[0]
    num, den = oracles.ind_margin_set_parts(s, 1)
    assert got.numerator == pytest.approx(num)
    assert got.denominator == pytest.approx(den)
    # frozen values for this exact input
    assert got.numerator == pytest.approx(6.5)
    assert got.denominator == pytest.approx(1.75)


def test_margin_estimates_flatten_on_expander():
    g = erdos_renyi(300, 0.08, seed=12)
    g = g if g.is_connected else largest_connected_component(g)
    s = sample_rw(g, 1200, seed=13)
    raw = margin_ratios(s, [0], "ind", MODE_MULTISET)[0].outcome().value
    corrected = margin_ratios(s, [20], "ind", MODE_MULTISET)[0].outcome().value
    assert abs(corrected - g.node_count) <= abs(raw - g.node_count) + 30


def test_margin_scale_invariance():
    g = _walk_graph(seed=5)
    s = sample_rw(g, 300, seed=14)
    scaled = replace(s, weight_column=s.weight_column * 0.1)
    for base, a_mode in (("node", MODE_SET), ("ind", MODE_MULTISET),
                         ("ind", MODE_SET)):
        a, b = (margin_ratios(x, [3], base, a_mode)[0].outcome().value
                for x in (s, scaled))
        assert abs(a - b) / a < 1e-12


MARGIN_KERNELS = {
    "node": (lambda s, m: margin_ratios(s, [m], "node", MODE_SET)[0],
             oracles.node_margin_parts),
    "multiset": (lambda s, m: margin_ratios(s, [m], "ind", MODE_MULTISET)[0],
                 oracles.ind_margin_multiset_parts),
    "set": (lambda s, m: margin_ratios(s, [m], "ind", MODE_SET)[0],
            oracles.ind_margin_set_parts),
}

CROSSWALKER_KERNELS = {
    "node": (lambda s: margin_crosswalker(s, "node", MODE_SET),
             oracles.crosswalker_node_parts),
    "multiset": (lambda s: margin_crosswalker(s, "ind", MODE_MULTISET),
                 oracles.crosswalker_ind_multiset_parts),
    "set": (lambda s: margin_crosswalker(s, "ind", MODE_SET),
            oracles.crosswalker_ind_set_parts),
}


def _assert_matches_oracle(s, m):
    for name, (kernel, oracle) in MARGIN_KERNELS.items():
        got = kernel(s, m)
        num, den = oracle(s, m)
        assert math.isclose(got.numerator, num, rel_tol=1e-9, abs_tol=1e-9), name
        assert math.isclose(got.denominator, den, rel_tol=1e-9,
                            abs_tol=1e-9), name


def _assert_crosswalker_matches_oracle(s):
    for name, (kernel, oracle) in CROSSWALKER_KERNELS.items():
        got = kernel(s)
        num, den = oracle(s)
        if den == 0:
            assert got == NO_COLLISIONS, name
        else:
            assert math.isclose(got.value, num / den, rel_tol=1e-9), name


@given(walk_like_samples(), st.data())
def test_margin_kernels_match_oracles_for_any_m_order(s, data):
    n = len(s)
    ms = data.draw(st.lists(st.integers(min_value=0, max_value=n + 2),
                            max_size=5))
    ms = data.draw(st.permutations(ms + [0, 0, max(n - 1, 0), n + 2]))
    first = {}
    for m in ms:
        _assert_matches_oracle(s, m)
        for name, (kernel, _) in MARGIN_KERNELS.items():
            assert first.setdefault((name, m), kernel(s, m)) == kernel(s, m)
    # A copy, in ascending m, gives the same ratios.
    fresh = replace(s)
    for m in sorted(set(ms)):
        for name, (kernel, _) in MARGIN_KERNELS.items():
            assert kernel(fresh, m) == first[name, m]
    _assert_crosswalker_matches_oracle(s)
    # Reversing or shuffling the positions also reverses or interleaves the
    # walkers.
    shuffled = data.draw(st.permutations(range(n)))
    derived = (s.subset(range(n - 1, -1, -1)), s.subset(range(1, n)),
               s.subset(shuffled))
    for d in derived:
        for m in (0, 1):
            _assert_matches_oracle(d, m)
        _assert_crosswalker_matches_oracle(d)


def _index_arrays(s):
    """The columns the margin kernels read and the arrays of the indexes
    they build, named as ``oracles.occurrence_arrays`` names them."""
    arrays = {"rank_column": s.rank_column, "weight_column": s.weight_column,
              "degree_column": s.degree_column}
    node, multiset = (rw_correction._windows(s, node)
                      for node in (True, False))
    for name, w in (("occurrences", node), ("mentions", multiset)):
        arrays.update({f"{name}.keys": w.counted, f"{name}.own": w.own})
    arrays["mentions.first"], arrays["mentions.last"] = \
        rw_correction._mention_spans(s)
    arrays.update({"windows.prefix": multiset.prefix,
                   "windows.position": multiset.position,
                   "windows.base": multiset.base,
                   "windows.keyed_inverse": multiset.keyed_inverse})
    return arrays


def _assert_index_matches(s, expected):
    """``==`` and dtype for dtype; ``expected`` is
    ``oracles.occurrence_arrays``."""
    got = _index_arrays(s)
    assert got.keys() == expected.keys()
    for name, want in expected.items():
        assert got[name].dtype == want.dtype, name
        assert np.array_equal(got[name], want), name


@given(walk_like_samples())
def test_sample_file_round_trip_shares_snapshots(s):
    text = io.StringIO()
    write_sample(s, text)
    back = read_sample(io.StringIO(text.getvalue()))
    assert oracles.same_sample(back, s)
    # One CSR row per distinct sampled node, ranked by first appearance.
    assert list(dict.fromkeys(back.rank_column.tolist())) \
        == list(range(len(back.offsets) - 1))
    again = io.StringIO()
    write_sample(back, again)
    assert again.getvalue() == text.getvalue()
    expected = oracles.occurrence_arrays(s)
    for sample in (s, back):
        _assert_index_matches(sample, expected)


def test_mentions_are_built_on_first_use():
    """Node calls never read the mentions.  Each multiset IND call gathers
    their keys once, beside the positions' keys; each set IND call reads
    their spans off the CSR once, and gathers no keys."""
    s = sample_rw_multi(_walk_graph(), 3, 40, seeds=[1, 2, 3])
    keys, spans, built = rw_correction._keys, rw_correction._mention_spans, []

    def counted_keys(sample, mentions=False):
        built.append("mention keys" if mentions else "keys")
        return keys(sample, mentions)

    def counted_spans(sample):
        built.append("spans")
        return spans(sample)

    with mock.patch.object(rw_correction, "_keys", counted_keys), \
            mock.patch.object(rw_correction, "_mention_spans", counted_spans):
        margin_ratios(s, [2], "node", MODE_SET)[0]
        margin_crosswalker(s, "node", MODE_SET)
        assert built == ["keys", "keys"]
        for a_mode, reads in ((MODE_MULTISET, ["keys", "mention keys"]),
                              (MODE_SET, ["spans"])):
            built.clear()
            margin_ratios(s, [2], "ind", a_mode)[0]
            margin_crosswalker(s, "ind", a_mode)
            assert sorted(built) == sorted(reads * 2)


FIELDS = {f.name for f in fields(Sample)}


def test_margin_calls_leave_nothing_on_the_sample_but_its_degrees():
    """Each call builds its index and drops it: only ``degree_column``, which
    the IND bases read, stays cached."""
    for s in _basis_samples().values():
        calls = [lambda k=k, m=m: k(s, m)
                 for k, _ in MARGIN_KERNELS.values() for m in (0, 3)]
        calls += [lambda k=k: k(s) for k, _ in CROSSWALKER_KERNELS.values()]
        calls += [lambda base=base, a_mode=a_mode: margin_ratios(
                      s, [0, 3, 5], base, a_mode)
                  for base, a_mode in GRID_BASES.values()]
        for call in calls:
            call()
            assert set(vars(s)) - FIELDS <= {"degree_column"}
    fresh = _basis_samples()["rw"]
    margin_ratios(fresh, [3], "node", MODE_SET)[0]
    margin_ratios(fresh, [0, 3], "node", MODE_SET)
    assert set(vars(fresh)) == FIELDS


# -- the window basis --------------------------------------------------------


def _basis_samples():
    g = _walk_graph()
    return {"rw": sample_rw(g, 60, seed=4),
            "rw-multi": sample_rw_multi(g, 3, 20, seeds=[4, 5, 6]),
            "repeated-entry": repeated_entry_sample()}


@pytest.mark.parametrize("name", ["rw", "rw-multi", "repeated-entry"])
def test_a_sweep_in_any_order_answers_each_m_as_a_fresh_sample(name):
    s = _basis_samples()[name]
    n = len(s)
    ms = [0, 1, 2, 5, 10, 25, n - 2, n - 1, n + 3] * 2
    random.Random(name).shuffle(ms)
    for m in ms:
        for name, (kernel, _) in MARGIN_KERNELS.items():
            assert kernel(s, m) == kernel(replace(s), m), (name, m)
        _assert_matches_oracle(s, m)
    for name, (kernel, _) in CROSSWALKER_KERNELS.items():
        assert kernel(s) == kernel(replace(s)), name
    _assert_crosswalker_matches_oracle(s)


def test_window_basis_matches_its_reference():
    for s in _basis_samples().values():
        _assert_index_matches(s, oracles.occurrence_arrays(s))
        node, multiset = (rw_correction._windows(s, node)
                          for node in (True, False))
        assert (node.total, multiset.total) == oracles.window_totals(s)
        # A node basis counts the sample's own occurrences, by weight.
        assert node.counted is node.keys
        assert node.keyed_inverse is None
        assert node.values is s.weight_column
        assert multiset.values is s.degree_column
        for field in ("keys", "prefix", "position", "base"):
            assert np.array_equal(getattr(node, field),
                                  getattr(multiset, field)), field


def test_a_zero_weight_is_rejected_on_every_call():
    for s in _basis_samples().values():
        bad = replace(s, weight_column=np.append(s.weight_column[:-1], 0.0))
        calls = [lambda m=m, k=k: k(bad, m)
                 for k, _ in MARGIN_KERNELS.values() for m in (0, 3)]
        calls += [lambda k=k: k(bad) for k, _ in CROSSWALKER_KERNELS.values()]
        with mock.patch.object(rw_correction, "_keys") as keys, \
                mock.patch.object(rw_correction, "_mention_spans") as spans:
            for call in calls:
                for _ in range(2):
                    with pytest.raises(EstimatorError):
                        call()
        # Checked before any index is built.
        assert keys.call_count == spans.call_count == 0


def test_derived_samples_build_their_own_basis():
    s = _basis_samples()["rw-multi"]
    n = len(s)
    for m in (0, 2):
        _assert_matches_oracle(s, m)
    derived = (replace(s), s.subset(range(n - 1, -1, -1)),
               s.subset(range(5, n)), s.subset(range(0, n, 2)))
    for d in derived:
        for m in (0, 2):
            _assert_matches_oracle(d, m)
        _assert_crosswalker_matches_oracle(d)
        # A subset keeps its parent's ranks, and the reference ranks by them.
        _assert_index_matches(d, oracles.occurrence_arrays(
            d, d.ids.tolist()))
    # The tail and the strided subset view CSR rows they do not hold.
    for d in derived[2:]:
        assert len(np.unique(d.rank_column)) < len(d.offsets) - 1
    # A copy keeps the ranks, which follow first appearance as the
    # reference's do.
    _assert_index_matches(derived[0], oracles.occurrence_arrays(s))


def test_margin_edges_stay_inside_32_bit_keys():
    # 46,340 distinct nodes at as many positions: every key fits in 32
    # bits, but the last keys plus m + 1 would not.  Position i's snapshot
    # names the node at i + 1, so only node 0 is named far from itself.
    n = 46340
    s = Sample(np.arange(n, dtype=np.uint64), np.arange(n), np.ones(n),
               np.zeros(n, dtype=np.int64), np.arange(n + 1),
               (np.arange(n) + 1) % n, "RW", 0, "degree", "0" * 16)
    for mentions in (False, True):
        assert rw_correction._keys(s, mentions).dtype == np.int32
    for m in (n - 3, n - 2):
        pairs = float(surviving_pair_count(n, "margin", m))
        assert margin_ratios(s, [m], "node", MODE_SET)[0] \
            == RatioEstimate(pairs, 0.0)
        for a_mode in (MODE_MULTISET, MODE_SET):
            assert margin_ratios(s, [m], "ind", a_mode)[0] \
                == RatioEstimate(pairs, 1.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
def test_margin_kernels_reject_invalid_weights(bad):
    g = _walk_graph()
    s = sample_rw(g, 20, seed=2)
    s = replace(s, weight_column=np.append(bad, s.weight_column[1:]))
    for kernel, _ in MARGIN_KERNELS.values():
        for m in (1, 5, len(s) - 1, len(s) + 2):
            with pytest.raises(EstimatorError):
                kernel(s, m)
    multi = sample_rw_multi(g, 2, 10, seeds=[2, 3])
    multi = replace(multi,
                    weight_column=np.append(bad, multi.weight_column[1:]))
    # In file order and with the walkers interleaved.
    for d in (multi, multi.subset([*range(0, 20, 2), *range(1, 20, 2)])):
        for kernel, _ in CROSSWALKER_KERNELS.values():
            with pytest.raises(EstimatorError):
                kernel(d)


# -- margin grids ------------------------------------------------------------

# Each margin kernel's base and auxiliary mode in ``margin_ratios``.
GRID_BASES = {"node": ("node", MODE_SET), "multiset": ("ind", MODE_MULTISET),
              "set": ("ind", MODE_SET)}


@st.composite
def _rw_multi_samples(draw):
    walkers = draw(st.integers(1, 4))
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=walkers,
                          max_size=walkers))
    return sample_rw_multi(_walk_graph(), walkers, draw(st.integers(1, 12)),
                           seeds)


@st.composite
def _repeated_snapshot_files(draw):
    """Sample files in which every non-empty snapshot names its first id
    twice."""
    v = oracles.views(draw(walk_like_samples()))
    doubled = oracles.sample_from_snapshots(
        v.node_at, v.weight_at, v.walker_at,
        {x: row + row[:1] for x, row in v.snapshots.items()}, "RW_MULTI", 0,
        "custom", "synthetic")
    text = io.StringIO()
    write_sample(doubled, text)
    return read_sample(io.StringIO(text.getvalue()))


@given(st.one_of(walk_like_samples(), _rw_multi_samples(),
                 _repeated_snapshot_files()),
       st.data(), st.sampled_from([-1, 1, 10**9]))
def test_a_margin_grid_is_its_margins_one_at_a_time(s, data,
                                                    pairs_per_needle):
    """Unsorted grids with repeats, 0 and margins past n - 1; a bound of -1
    makes every window search, and 10**9 buckets every grid of two or more
    margins below n - 1."""
    n = len(s)
    grid = data.draw(st.lists(st.integers(0, n + 2), min_size=1, max_size=6))
    grid = data.draw(st.permutations(grid + data.draw(st.sampled_from(
        [[], [0], [0, 0], [max(n - 1, 0)], [n + 2, 0, 0]]))))
    with mock.patch.object(rw_correction, "_PAIRS_PER_NEEDLE",
                           pairs_per_needle), \
            mock.patch.object(rw_correction, "_bucketed",
                              wraps=rw_correction._bucketed) as bucketed:
        for name, (base, a_mode) in GRID_BASES.items():
            kernel, oracle = MARGIN_KERNELS[name]
            got = margin_ratios(s, grid, base, a_mode)
            assert got == [kernel(s, m) for m in grid], name
            for m, ratio in zip(grid, got):
                num, den = oracle(s, m)
                assert math.isclose(ratio.numerator, num, rel_tol=1e-9,
                                    abs_tol=1e-9), (name, m)
                assert math.isclose(ratio.denominator, den, rel_tol=1e-9,
                                    abs_tol=1e-9), (name, m)
    if pairs_per_needle == -1:
        assert bucketed.call_count == 0
    elif pairs_per_needle == 10**9:  # node and multiset; set never buckets
        windows = len({m for m in grid if m < n - 1})
        assert bucketed.call_count == (2 if windows > 1 else 0)


def test_one_margin_never_enumerates_pairs(monkeypatch):
    s = _basis_samples()["rw-multi"]
    n = len(s)
    bucketed = mock.Mock(wraps=rw_correction._bucketed)
    monkeypatch.setattr(rw_correction, "_PAIRS_PER_NEEDLE", 10**9)
    monkeypatch.setattr(rw_correction, "_bucketed", bucketed)
    for m in (0, 3, n - 2, n - 1):
        for kernel, _ in MARGIN_KERNELS.values():
            kernel(s, m)
        for base, a_mode in GRID_BASES.values():
            margin_ratios(s, [m, m, n - 1, n + 4], base, a_mode)
    assert bucketed.call_count == 0
    for base, a_mode in GRID_BASES.values():
        margin_ratios(s, [3, 0], base, a_mode)
    assert bucketed.call_count == 2  # node and multiset; set never buckets


def test_a_sweep_buckets_where_pairs_are_few():
    # The README sweep: on ER(1000, 0.02) a walk's pairs inside its widest
    # window are far fewer than the narrower windows' search needles.
    s = sample_rw(erdos_renyi(1000, 0.02, seed=1), 2000, seed=0)
    grid = [0, 5, 10, 25, 50, 100]
    with mock.patch.object(rw_correction, "_bucketed",
                           wraps=rw_correction._bucketed) as bucketed:
        for base, a_mode in GRID_BASES.values():
            got = margin_ratios(s, grid, base, a_mode)
            assert got == [margin_ratios(s, [m], base, a_mode)[0]
                           for m in grid]
    assert bucketed.call_count == 2


def test_a_wide_grid_peaks_no_higher_than_one_window():
    # At m = n - 2 nearly every pair of equal ranks is inside a window:
    # far more pairs than the margin-0 window's search needles, so each
    # window searches, one window's arrays at a time.
    g = largest_connected_component(barabasi_albert(2000, 3, seed=1))
    s = sample_rw(g, 2000, seed=1)
    n = len(s)

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for base, a_mode in GRID_BASES.values():
        margin_ratios(s, [0], base, a_mode)  # warms numpy's first calls
        one = max(peak(lambda m=m: margin_ratios(s, [m], base, a_mode))
                  for m in (0, n - 2))
        both = peak(lambda: margin_ratios(s, [0, n - 2], base, a_mode))
        # The grid's lists hold one more value each: a few pointers.
        assert both <= one + 256, (base, a_mode)


# -- cross-walker ------------------------------------------------------------


@pytest.mark.parametrize("base", ["node", "ind"])
def test_crosswalker_rejects_an_unknown_auxiliary_mode(base):
    s = sample_rw_multi(_walk_graph(), 2, 40, seeds=[1, 2])
    for sample in (s, s.subset(range(40))):  # two walkers, then one
        with pytest.raises(EstimatorError,
                           match="unknown auxiliary mode: 'bogus'"):
            margin_crosswalker(sample, base, "bogus")


@pytest.mark.parametrize("a_mode", [MODE_SET, MODE_MULTISET])
def test_crosswalker_rejects_an_unknown_base(a_mode):
    """The base is checked before the one-walker shortcut, so a sample
    with one walker rejects it as one with two walkers does."""
    s = sample_rw_multi(_walk_graph(), 2, 40, seeds=[1, 2])
    for sample in (s, s.subset(range(40)), sample_rw(_walk_graph(), 40, 1)):
        with pytest.raises(EstimatorError,
                           match="unsupported cross-walker base: 'bogus'"):
            margin_crosswalker(sample, "bogus", a_mode)


@pytest.mark.parametrize("m", [5, 39, 42])
def test_ind_margin_rejects_an_unknown_auxiliary_mode(m):
    s = sample_rw(_walk_graph(), 40, seed=1)
    with pytest.raises(EstimatorError,
                       match="unknown auxiliary mode: 'bogus'"):
        margin_ratios(s, [m], "ind", "bogus")[0]


def test_crosswalker_single_walker_is_no_collisions(k5):
    s = make_sample(k5, [0, 1, 0], walkers=[0, 0, 0], method="RW_MULTI")
    assert margin_crosswalker(s, "node", MODE_SET) == NO_COLLISIONS


def test_crosswalker_two_identical_walkers(k5):
    s = make_sample(k5, [3, 3], walkers=[0, 1], method="RW_MULTI")
    assert margin_crosswalker(s, "node", MODE_SET).value == pytest.approx(1.0)


@pytest.mark.parametrize("base,a_mode", [("node", MODE_MULTISET),
                                         ("ind", MODE_MULTISET),
                                         ("ind", MODE_SET)])
def test_crosswalker_matches_pair_loop(base, a_mode):
    g = _walk_graph(seed=6)
    s = sample_rw_multi(g, 4, 50, seeds=[1, 2, 3, 4])
    got = margin_crosswalker(s, base, a_mode)
    if base == "node":
        num, den = oracles.crosswalker_node_parts(s)
    elif a_mode == MODE_MULTISET:
        num, den = oracles.crosswalker_ind_multiset_parts(s)
    else:
        num, den = oracles.crosswalker_ind_set_parts(s)
    assert got.finite
    assert oracles.relerr(got.value, num / den) < 1e-9


def test_crosswalker_median_near_truth():
    g = erdos_renyi(1000, 0.02, seed=15)
    g = g if g.is_connected else largest_connected_component(g)
    vals = []
    for t in range(200):
        s = sample_rw_multi(g, 10, 200,
                            seeds=[t * 1000 + k for k in range(10)])
        out = margin_crosswalker(s, "ind", MODE_MULTISET)
        assert out.finite
        vals.append(out.value)
    med = sorted(vals)[len(vals) // 2]
    assert abs(med - g.node_count) / g.node_count < 0.15


# -- surviving pair counts ---------------------------------------------------


def test_surviving_pair_count_examples():
    assert surviving_pair_count(100, "thin", 10) == 90
    assert surviving_pair_count(100, "thin-shifted", 10) == 900
    assert surviving_pair_count(100, "margin", 10) == 8010
    with pytest.raises(EstimatorError, match="unsupported correction"):
        surviving_pair_count(100, "cross-walker", 1)


def test_surviving_pair_count_margin_matches_enumeration():
    for n, m in [(10, 0), (10, 3), (25, 24), (25, 30), (7, 2)]:
        exact = sum(1 for i in range(n) for j in range(n) if abs(j - i) > m)
        assert surviving_pair_count(n, "margin", m) == exact


def test_surviving_pair_count_shifted_matches_enumeration():
    for n, theta in [(10, 3), (11, 4), (9, 2), (5, 7)]:
        lengths = [len(range(k, n, theta)) for k in range(theta)]
        assert surviving_pair_count(n, "thin-shifted", theta) \
            == sum(length * (length - 1) for length in lengths)


@given(st.integers(min_value=4, max_value=400),
       st.integers(min_value=0, max_value=100))
def test_surviving_pair_count_monotone_in_margin(n, m):
    a = surviving_pair_count(n, "margin", m)
    b = surviving_pair_count(n, "margin", m + 1)
    assert b <= a


@given(st.integers(min_value=2, max_value=50))
def test_pair_count_ordering_by_correction(theta):
    n = 4 * theta + 17
    simple = surviving_pair_count(n, "thin", theta)
    shifted = surviving_pair_count(n, "thin-shifted", theta)
    margin = surviving_pair_count(n, "margin", theta)
    assert simple <= shifted <= margin
