import itertools
import math
import struct
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphsize import core, ind_estimators, node_estimators, rw_correction
from graphsize.core import (A_MODES, MODE_MULTISET, MODE_SET, NO_COLLISIONS,
                            EstimateOutcome, EstimatorError, RatioEstimate,
                            _auxiliary_counts, _fsum, _inverse_pair_sum,
                            _inverse_weights, aggregate_ratios,
                            count_collisions, count_induced_edges,
                            count_unique)
from graphsize.experiment import (CORRECTIONS, ESTIMATORS, EstimatorSpec,
                                  PlanError, check_spec, evaluate_with_ratio)
from graphsize.generators import erdos_renyi, ring_of_cliques
from graphsize.graph import largest_connected_component
from graphsize.ind_estimators import (density_wis, inda_wis_ratio,
                                      indb_wis_ratio)
from graphsize.node_estimators import node_wis_ratio
from graphsize.sampling import (METHODS, sample_rw, sample_rw_multi,
                                sample_uis, sample_wis)

import oracles
from conftest import graph_from_text, make_sample


def _multiplicity_sample():
    # one node three times, one twice, six singletons: n=11, 8 unique
    g = erdos_renyi(10, 0.3, seed=1)
    nodes = [0, 0, 0, 1, 1, 2, 3, 4, 5, 6, 7]
    ext = [oracles.ext_ids(g)[v] for v in nodes]
    return make_sample(g, ext, method="UIS")


def test_collision_count_multiplicity_pattern():
    s = _multiplicity_sample()
    assert count_collisions(s) == 4
    assert count_unique(s) == 8


def test_collision_count_edge_cases(k5):
    assert count_collisions(make_sample(k5, [0, 1, 2, 3])) == 0
    assert count_collisions(make_sample(k5, [2, 2, 2, 2])) == 6
    assert count_unique(make_sample(k5, [2, 2])) == 1
    assert count_unique(make_sample(k5, [0, 1, 2, 3, 4, 0, 1])) == 5


def test_collisions_plus_unique_need_not_equal_n():
    # a node sampled three times breaks the n^col + n^unique = n pattern
    s = _multiplicity_sample()
    assert count_collisions(s) + count_unique(s) != len(s)
    assert count_collisions(s) >= len(s) - count_unique(s)


def test_induced_edges_triangle(triangle):
    assert count_induced_edges(make_sample(triangle, [0, 1, 2])) == 3
    assert count_induced_edges(make_sample(triangle, [0, 0, 1])) == 2


def test_induced_edges_non_adjacent(path3):
    assert count_induced_edges(make_sample(path3, [0, 2])) == 0


def test_induced_edges_matches_pair_loop():
    g = erdos_renyi(40, 0.2, seed=5)
    s = sample_uis(g, 120, seed=6)
    assert count_induced_edges(s) == oracles.induced_edge_count(s)


def _auxiliary(s, mode):
    """``_auxiliary_counts`` as id -> multiplicity, checked against the
    dict-loop reference."""
    counts = _auxiliary_counts(s, mode)
    a = {s.ids[r]: c for r, c in enumerate(counts.tolist()) if c}
    assert a == oracles.auxiliary_counts(s, mode)
    return a


def test_auxiliary_counts_star_leaves(star4):
    s = make_sample(star4, [1, 2])
    hub = oracles.dense_index(star4, 0)
    assert _auxiliary(s, MODE_MULTISET) == {hub: 2}
    assert _auxiliary(s, MODE_SET) == {hub: 1}


def test_auxiliary_counts_hub(star4):
    s = make_sample(star4, [0])
    for mode in (MODE_SET, MODE_MULTISET):
        assert sum(_auxiliary(s, mode).values()) == 4


def test_multiset_cardinality_is_degree_sum():
    g = erdos_renyi(50, 0.15, seed=2)
    s = sample_uis(g, 80, seed=3)
    assert sum(_auxiliary(s, MODE_MULTISET).values()) \
        == s.degree_column.sum()


def test_auxiliary_mode_must_be_known(k5):
    s = make_sample(k5, [0])
    for kernel in (_auxiliary_counts, indb_wis_ratio):
        with pytest.raises(EstimatorError, match="unknown auxiliary mode"):
            kernel(s, "bag")


def test_cross_collisions_simple(k5):
    # A = {1, 2, 3, 4} twice, then {0, 2, 3, 4}: 0 meets A once per
    # occurrence and 1 meets it twice as a multiset, once as a set.
    s = make_sample(k5, [0, 0, 1])
    assert _auxiliary(s, MODE_MULTISET) == {0: 1, 1: 2, 2: 3, 3: 3, 4: 3}
    assert indb_wis_ratio(s, MODE_MULTISET) == RatioEstimate(12.0 * 3, 4.0)
    assert indb_wis_ratio(s, MODE_SET) == RatioEstimate(5.0 * 3, 3.0)
    assert indb_wis_ratio(make_sample(k5, [0]), MODE_MULTISET).denominator \
        == 0.0


def test_cross_collisions_of_own_multiset_is_twice_induced():
    for seed in range(5):
        g = erdos_renyi(30, 0.25, seed=seed)
        s = sample_uis(g, 60, seed=seed + 10)
        assert indb_wis_ratio(s, MODE_MULTISET).denominator \
            == 2 * count_induced_edges(s)


def pairwise_inverse_weight_sum(weights):
    """The closed-form sum over all pairs that ``density_wis`` divides by."""
    inv = _inverse_weights(np.asarray(weights, dtype=np.float64))
    return _inverse_pair_sum(inv, _fsum(inv))


def test_pairwise_inverse_weight_sum_examples(k5):
    assert pairwise_inverse_weight_sum([1.0, 2.0]) == pytest.approx(0.5)
    assert pairwise_inverse_weight_sum([1.0, 1.0, 1.0]) == pytest.approx(3.0)
    s = make_sample(k5, [0, 1], weights=[1.0, 2.0])
    assert pairwise_inverse_weight_sum(s.weight_column) \
        == pytest.approx(0.5)


def test_pairwise_inverse_weight_sum_matches_pair_loop():
    import numpy as np
    rng = np.random.default_rng(0)
    w = (0.1 + rng.random(200) * 10).tolist()
    got = pairwise_inverse_weight_sum(w)
    assert oracles.relerr(got, oracles.pairwise_inverse_weight_sum(w)) < 1e-9


@given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=2,
                max_size=40))
def test_pairwise_inverse_weight_sum_property(w):
    got = pairwise_inverse_weight_sum(w)
    assert oracles.relerr(got, oracles.pairwise_inverse_weight_sum(w)) < 1e-9


def _exact_pair_sum(inv):
    """The sum of inv_i * inv_j over unordered pairs, in rationals, rounded
    once; inf past the float range."""
    terms = [Fraction(x) for x in inv]
    total = sum(terms)
    try:
        return float((total * total - sum(t * t for t in terms)) / 2)
    except OverflowError:
        return math.inf


@pytest.mark.parametrize("inv", [
    [1.0] + [1e-10] * 80,  # the closed form read 7.99999999579e-9
    [1e300, 1e-300],       # and here nan: both squares overflow
    [2.0**-1074, 1.0],     # the smallest subnormal, lost in sum 1/w
    [1e300, 1e300],        # the pair sum itself is past the range
])
def test_inverse_pair_sum_is_exact_where_the_closed_form_cancels(inv):
    inv = np.array(inv)
    with np.errstate(over="ignore"):  # as route A calls it
        assert _inverse_pair_sum(inv, _fsum(inv)) == _exact_pair_sum(inv)


@given(st.lists(st.floats(min_value=1e-100, max_value=1e100), min_size=2,
                max_size=40))
def test_inverse_pair_sum_is_the_closed_form_where_it_holds(inv):
    inv = np.array(inv)
    s1, s2 = _fsum(inv), _fsum(inv * inv)
    got = _inverse_pair_sum(inv, s1)
    assert oracles.relerr(got, _exact_pair_sum(inv)) <= 1e-12
    if s1 * s1 <= 1024.0 * (s1 * s1 - s2):
        assert got == 0.5 * (s1 * s1 - s2)


@given(st.lists(st.floats(-1e30, 1e30), max_size=60),
       st.lists(st.integers(-2**62, 2**62), max_size=60),
       st.sampled_from(["<", ">"]), st.integers(-3, 3).filter(bool))
def test_fsum_is_math_fsum_of_the_list(floats, ints, order, step):
    """The buffer read sums the same numbers as the list: either byte
    order, any stride."""
    for array in (np.array(floats, dtype=f"{order}f8"),
                  np.array(floats, dtype=f"{order}f4"),
                  np.array(ints, dtype=f"{order}i8")):
        assert _fsum(array[::step]) == math.fsum(array[::step].tolist())


def _assert_fsum_is_math_fsum(x):
    """Same value and sign of zero as math.fsum of the list, NaN for NaN,
    and the same exception type where math.fsum raises."""
    try:
        want = math.fsum(x.tolist())
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc)):
            _fsum(x)
        return
    got = _fsum(x)
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert got == want
        assert math.copysign(1.0, got) == math.copysign(1.0, want)


# Lengths on either side of each power of two, where 2^m >= 2n steps m.
_EDGE_LENGTHS = [2**k + d for k in range(13) for d in (-1, 0, 1)]


@st.composite
def _fsum_inputs(draw):
    n = draw(st.integers(0, 5000) | st.sampled_from(_EDGE_LENGTHS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    lo = draw(st.integers(-300, 300))
    hi = draw(st.integers(lo, 300))
    kind = draw(st.sampled_from(
        ["mixed", "cancel", "subnormal", "int64", "zeros", "reciprocal",
         "same-scale"]))
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(lo, hi, n)
    if kind == "cancel":  # pairs x, -x and one tiny term, shuffled
        half = x[:n // 2]
        x = rng.permutation(np.concatenate(
            (half, -half, rng.standard_normal(n % 2) * 1e-300)))
    elif kind == "subnormal":
        x[rng.random(n) < 0.5] = rng.standard_normal() * 1e-310
    elif kind == "int64":
        x = rng.choice([-1, 1], n) * (2**62 - rng.integers(0, 2**12, n))
    elif kind == "zeros":
        x = rng.choice([0.0, -0.0], n)
    elif kind == "reciprocal":  # inverse degree weights
        x = 1.0 / rng.integers(1, 1000, n)
    elif kind == "same-scale":  # one sign, one binade: the largest sums
        x = rng.uniform(1.0, 2.0, n) * 2.0 ** (lo * 3)
    if draw(st.booleans()) and x.dtype == np.float64:
        with np.errstate(over="ignore"):
            x = x.astype(np.float32)
    x = x.astype(x.dtype.newbyteorder(draw(st.sampled_from("<>"))))
    return x[::draw(st.sampled_from([1, 1, 2, -1, -3]))]


@settings(max_examples=300, deadline=None)
@given(_fsum_inputs())
def test_fsum_is_math_fsum_on_any_array(x):
    _assert_fsum_is_math_fsum(x)


@pytest.mark.parametrize("values", [
    [], [0.0], [-0.0], [-0.0] * 3, [0.0, -0.0], [1.0, -1.0], [-1.0, 1.0],
    [float("nan"), 1.0], [float("inf"), 1.0], [-float("inf"), -1.0],
    [float("inf"), -float("inf")],  # ValueError in math.fsum
    [1.5e308] * 40, [1e308, 1e308, -1e308],  # OverflowError
    [1e300] * 4 + [-1e300] * 4 + [1e-300], [5e-324] * 3 + [1.0],
    [2.0**53, 1.0], [2.0**53, 1.0, 2.0**-60], [2.0**53, 1.0, -2.0**-60],
    [2.0**53, 1.0, 1.0],  # a tie to even, either side of it, no tie
])
def test_fsum_special_values(values):
    # A dtype that names its byte order, even the native one, exports a
    # buffer format such as '<d', which memoryview refuses.  Each array
    # also runs padded with 1000 terms of -0.0, the length of a sample.
    for padding in (0, 1000):
        for order in "=<>":
            _assert_fsum_is_math_fsum(np.array(values + [-0.0] * padding)
                                      .astype(np.dtype("f8")
                                              .newbyteorder(order)))


@pytest.mark.parametrize("n", [0, 1, core._FSUM_STEPS_FROM - 1,
                               core._FSUM_STEPS_FROM, 4000])
@pytest.mark.parametrize("kind", ["-0.0", "inf", "nan", "spread"])
def test_fsum_is_math_fsum_bit_for_bit_on_either_side_of_its_cutoff(n, kind):
    # Below the cutoff _fsum is math.fsum; from it on, the steps answer.
    rng = np.random.default_rng(n)
    x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
    if kind == "-0.0":
        x[:] = -0.0
    elif kind != "spread" and n:
        x[rng.integers(n)] = float(kind)
    got, want = _fsum(x), math.fsum(x.tolist())
    assert struct.pack("<d", got) == struct.pack("<d", want)


def _every_estimate(sample):
    """Each estimator x correction x auxiliary mode that the tables allow
    on ``sample``: its ratio and outcome, or the error it raises."""
    method = {v: k for k, v in METHODS.items()}[sample.method]
    results = {}
    for name, correction, a_mode in itertools.product(
            ESTIMATORS, CORRECTIONS, A_MODES):
        est = EstimatorSpec(name, correction, a_mode,
                            theta=3 if correction.startswith("thin") else 1,
                            m=5 if correction == "margin" else 0)
        try:
            check_spec(method, est)
        except PlanError:
            continue
        try:
            results[est] = evaluate_with_ratio(sample, est, seed=1)
        except EstimatorError as exc:
            results[est] = str(exc)
    return results


def test_estimates_are_those_of_the_math_fsum_reference(monkeypatch):
    """Every kernel returns the same numerators and denominators, ``==``,
    with ``_fsum`` replaced by math.fsum of the list, on the criterion-2
    graphs and samplers."""
    pool = [largest_connected_component(erdos_renyi(150, 0.06, seed=0)),
            ring_of_cliques(8, 5), oracles.hub_of_cliques(6, 5),
            erdos_renyi(60, 0.2, seed=1)]
    samples = []
    for i in range(20):
        # 30 to 2129 records, so thinned parts are short and long too.
        g, n = pool[i % len(pool)], 30 + (i * 211) % 2100
        samples.append([
            lambda: sample_uis(g, n, seed=i),
            lambda: sample_wis(g, "degree", n, seed=i),
            lambda: sample_wis(g, lambda v: 0.3 + (v % 7), n, seed=i),
            lambda: sample_rw(g, n, seed=i),
            lambda: sample_rw_multi(g, 3, n // 3, seeds=[i, i + 1, i + 2]),
        ][i % 5]())
    got = [_every_estimate(s) for s in samples]
    with monkeypatch.context() as patch:
        for module in (core, ind_estimators, node_estimators, rw_correction):
            patch.setattr(module, "_fsum",
                          lambda values: math.fsum(values.tolist()))
        want = [_every_estimate(s) for s in samples]
    assert sum(map(len, got)) > 200
    assert got == want


def test_wis_kernels_read_a_big_endian_weight_column():
    s = _multiplicity_sample()
    weights = 1.0 + np.arange(len(s))
    swapped = replace(s, weight_column=weights.astype(">f8"))
    native = replace(s, weight_column=weights)
    for kernel in (node_wis_ratio, inda_wis_ratio, indb_wis_ratio):
        assert kernel(swapped) == kernel(native)


def test_pairwise_inverse_weight_sum_rejects_zero():
    s = _multiplicity_sample()
    for bad in (0.0, float("nan")):
        with pytest.raises(EstimatorError):
            pairwise_inverse_weight_sum([1.0, bad])
        # Every kernel that inverts weights applies the same rule.
        weights = np.append(bad, s.weight_column[1:])
        for kernel in (node_wis_ratio, density_wis):
            with pytest.raises(EstimatorError):
                kernel(replace(s, weight_column=weights))


def test_aggregate_ratios():
    out = aggregate_ratios([RatioEstimate(1, 2), RatioEstimate(3, 4)])
    assert out.value == pytest.approx(4 / 6)
    out = aggregate_ratios([RatioEstimate(1, 0), RatioEstimate(3, 4)])
    assert out.value == pytest.approx(1.0)
    assert aggregate_ratios([RatioEstimate(1, 0), RatioEstimate(2, 0)]) \
        == NO_COLLISIONS
    # Parts of one estimator share its offset.
    out = aggregate_ratios([RatioEstimate(1, 2, 1.0), RatioEstimate(3, 4, 1.0)])
    assert out.value == pytest.approx(4 / 6 + 1.0)
    with pytest.raises(EstimatorError):
        aggregate_ratios([])


def test_outcome_sentinel():
    assert not NO_COLLISIONS.finite
    assert RatioEstimate(3.0, 0.0).outcome() == NO_COLLISIONS
    assert RatioEstimate(6.0, 2.0, 1.0).outcome().value == 4.0
    assert RatioEstimate(6.0, 0.0, 1.0).outcome() == NO_COLLISIONS
