import math

import pytest
from hypothesis import given, strategies as st

from graphsize.core import NO_COLLISIONS, EstimateOutcome, EstimatorError
from graphsize.generators import erdos_renyi
from graphsize.node_estimators import (capture_recapture_from_sample,
                                       mle_unique_approx, mle_unique_exact,
                                       node_uis_ratio, node_wis_ratio)
from graphsize.sampling import sample_uis

import oracles
from conftest import make_sample


def test_capture_recapture_examples():
    assert oracles.capture_recapture({1, 2, 3, 4}, {3, 4, 5, 6}).value == 8.0
    assert oracles.capture_recapture({1}, {1}).value == 1.0
    assert oracles.capture_recapture({1, 2}, {3, 4}) == NO_COLLISIONS
    with pytest.raises(EstimatorError):
        oracles.capture_recapture(set(), {1})


def test_capture_split_counts_each_half_once(k5):
    # Halves {0, 0} and {1, 1} are the sets {0} and {1}: no overlap.  Halves
    # {0, 1} and {0, 1} are the same two-node set: 2 * 2 / 2.
    s = make_sample(k5, [0, 0, 1, 1])
    got = [capture_recapture_from_sample(s, seed) for seed in range(20)]
    assert set(got) == {NO_COLLISIONS, EstimateOutcome(2.0)}
    assert got == [capture_recapture_from_sample(s, seed)
                   for seed in range(20)]


def test_capture_from_full_double_cover(k5):
    # every node once in each half: estimate is exactly N
    s = make_sample(k5, [0, 1, 2, 3, 4] * 2)
    values = {capture_recapture_from_sample(s, seed).value
              for seed in range(30)}
    # some splits are uneven in coverage, but a perfectly interleaved one
    # recovers N; all answers stay within [N/2, 2N] here
    assert all(2.5 <= v <= 10.0 for v in values)


def test_capture_all_identical(k5):
    s = make_sample(k5, [3, 3, 3, 3])
    assert capture_recapture_from_sample(s, 0).value == 1.0


def test_capture_median_near_truth():
    g = erdos_renyi(500, 0.02, seed=0)
    vals = []
    for t in range(200):
        s = sample_uis(g, 1000, seed=t)
        vals.append(capture_recapture_from_sample(s, seed=t).value)
    med = sorted(vals)[len(vals) // 2]
    assert abs(med - 500) / 500 < 0.2


def test_mle_approx_saturated():
    assert mle_unique_approx(100, 100) == NO_COLLISIONS


def test_mle_approx_substitution_point():
    n_unique = round(100 * (1 - math.exp(-1)))  # 63
    got = mle_unique_approx(100, n_unique).value
    assert abs(got - 100) <= 2.5


def test_mle_approx_against_fine_bisection():
    n, n_unique = 50, 40
    f = lambda big_n: big_n * (1 - math.exp(-n / big_n)) - n_unique
    lo, hi = 40.0, 1e9
    while f(hi) < 0:
        hi *= 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    got = mle_unique_approx(n, n_unique).value
    assert abs(got - lo) / lo < 1e-6


def test_mle_rejects_bad_args():
    with pytest.raises(EstimatorError):
        mle_unique_approx(5, 6)
    with pytest.raises(EstimatorError):
        mle_unique_exact(0, 0)


def test_mle_exact_smallest_case():
    assert mle_unique_exact(2, 1).value == 1.0


def test_mle_exact_saturated():
    assert mle_unique_exact(7, 7) == NO_COLLISIONS


def _exact_scan(n, n_unique, limit=100_000):
    for big_n in range(n_unique, limit):
        ratio = (big_n + 1) / (big_n + 1 - n_unique)
        if ratio * (big_n / (big_n + 1)) ** n < 1:
            return big_n
    return None


@pytest.mark.parametrize("n,n_unique", [(10, 8), (2, 1), (30, 20), (100, 63),
                                        (9, 5), (400, 399)])
def test_mle_exact_matches_linear_scan(n, n_unique):
    expected = _exact_scan(n, n_unique)
    got = mle_unique_exact(n, n_unique)
    assert got.value == float(expected)


def test_mle_exact_at_least_n_unique():
    for n, u in [(20, 10), (50, 30), (80, 79)]:
        got = mle_unique_exact(n, u)
        assert got.value >= u


def test_mle_cap_triggers_no_collisions():
    # One collision in 2e6 draws puts the root near 2e12, past the 1e12 cap.
    assert mle_unique_approx(2_000_000, 1_999_999) == NO_COLLISIONS
    assert mle_unique_exact(2_000_000, 1_999_999) == NO_COLLISIONS


@pytest.mark.parametrize("n", [10**5, 10**6])
def test_mle_exact_with_one_collision_matches_decimal_reference(n):
    expected = oracles.mle_unique_exact(n, n - 1)
    got = mle_unique_exact(n, n - 1).value
    assert abs(got - expected) <= 1e-9 * expected


def test_node_uis_multiplicity_pattern(k5):
    # n=11 with 4 collision pairs: 121 / (2*4)
    g = erdos_renyi(10, 0.3, seed=1)
    ext = [oracles.ext_ids(g)[v] for v in [0, 0, 0, 1, 1, 2, 3, 4, 5, 6, 7]]
    s = make_sample(g, ext, method="UIS")
    assert node_uis_ratio(s).outcome().value == pytest.approx(121 / 8)


def test_node_uis_single_node_repeats(k5):
    s = make_sample(k5, [2, 2, 2, 2], method="UIS")
    assert node_uis_ratio(s).outcome().value == pytest.approx(16 / 12)


def test_node_uis_no_collisions(k5):
    s = make_sample(k5, [0, 1, 2], method="UIS")
    assert node_uis_ratio(s).outcome() == NO_COLLISIONS


def test_node_wis_unit_weights_reduce_exactly(k5):
    s = make_sample(k5, [0, 1, 1, 3, 3, 3], method="UIS")
    assert node_wis_ratio(s) == node_uis_ratio(s)


def test_node_wis_repeated_weighted_node(k5):
    s = make_sample(k5, [1, 1], weights=[2.0, 2.0])
    # (2+2) * (1/2+1/2) over two ordered collision pairs
    assert node_wis_ratio(s).outcome().value == pytest.approx(2.0)


@given(st.floats(min_value=0.01, max_value=100.0))
def test_node_wis_scale_invariance(c):
    from dataclasses import replace
    g = erdos_renyi(20, 0.3, seed=4)
    ext = [oracles.ext_ids(g)[v] for v in [0, 1, 1, 2, 5, 5, 5, 9]]
    base = make_sample(g, ext, weights=[1.0, 2.0, 2.0, 0.5, 4.0, 4.0, 4.0, 3.0])
    scaled = replace(base, weight_column=base.weight_column * c)
    a = node_wis_ratio(base).outcome().value
    b = node_wis_ratio(scaled).outcome().value
    assert abs(a - b) / a < 1e-12


def test_node_wis_degree_weighted_walkish_sample():
    g = erdos_renyi(500, 0.05, seed=2)
    from graphsize.sampling import sample_wis
    vals = []
    for t in range(100):
        s = sample_wis(g, "degree", 1000, seed=t)
        vals.append(node_wis_ratio(s).outcome().value)
    med = sorted(vals)[len(vals) // 2]
    assert abs(med - 500) / 500 < 0.1
