"""Release acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them
all).  Criteria are asserted at their stated tolerances; a failing criterion
here means the implementation does not reproduce the promised behavior on
the pinned protocol, not that the code crashed.
"""

import functools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from graphsize.core import MODE_MULTISET, MODE_SET, count_collisions, \
    count_induced_edges, pairwise_inverse_weight_sum
from graphsize.generators import (erdos_renyi, grid_2d, hub_of_cliques,
                                  ring_of_cliques)
from graphsize.graph import largest_connected_component, size_identity
from graphsize.ind_estimators import (density_uis, density_wis,
                                      inda_wis_ratio, indb_auto_ratio,
                                      indb_wis_ratio)
from graphsize.node_estimators import (mle_unique_approx, mle_unique_exact,
                                       node_uis_ratio, node_wis_ratio)
from graphsize.rw_correction import (estimate_thinned, ind_margin_ratio,
                                     margin_crosswalker, node_margin_ratio,
                                     surviving_pair_count)
from graphsize.sampling import (Sample, sample_rw, sample_rw_multi,
                                sample_uis, sample_wis)
from graphsize.experiment import percentile

import oracles
from conftest import graph_from_text


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{status}] {name}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _median(values):
    return percentile(list(values), 0.5)


def _band(values):
    ordered = sorted(values)
    return percentile(ordered, 0.9) - percentile(ordered, 0.1)


def _scale_weights(s: Sample, c: float) -> Sample:
    return replace(s, weight_column=s.weight_column * c)


def test_criterion_01_size_identity_suite(k5, star4, path3):
    start = time.perf_counter()
    graphs = [k5, star4, path3,
              erdos_renyi(2000, 0.01, seed=1),
              grid_2d(30, 30)]
    worst = 0.0
    for g in graphs:
        worst = max(worst, abs(size_identity(g) - g.node_count) / g.node_count)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 5.0
    _report(1, "size identity on 5 graphs", ok,
            f"worst relative error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_oracle_equivalence():
    start = time.perf_counter()
    pool = [largest_connected_component(erdos_renyi(150, 0.06, seed=0)),
            ring_of_cliques(8, 5),
            hub_of_cliques(6, 5),
            erdos_renyi(60, 0.2, seed=1)]
    checked = 0
    worst = 0.0

    def close(a, b):
        nonlocal worst
        err = oracles.relerr(float(a), float(b))
        worst = max(worst, err)
        assert err < 1e-9, f"{a} vs {b}"

    for i in range(100):
        g = pool[i % len(pool)]
        n = 30 + (i * 7) % 271
        kind = i % 5
        if kind == 0:
            s = sample_uis(g, n, seed=i)
        elif kind == 1:
            s = sample_wis(g, "degree", n, seed=i)
        elif kind == 2:
            s = sample_wis(g, lambda v: 0.3 + (v % 7), n, seed=i)
        elif kind == 3:
            s = sample_rw(g, n, seed=i)
        else:
            s = sample_rw_multi(g, 3, max(n // 3, 2),
                                seeds=[i, i + 1, i + 2])

        close(count_collisions(s), oracles.collision_count(s))
        close(count_induced_edges(s), oracles.induced_edge_count(s))
        nodes, w, _, _ = oracles.views(s)
        close(pairwise_inverse_weight_sum(w),
              oracles.pairwise_inverse_weight_sum(w))
        ncol = oracles.collision_count(s)
        if ncol:
            close(node_wis_ratio(s).outcome().value,
                  math.fsum(w) * math.fsum(1 / x for x in w) / (2 * ncol))
        close(density_uis(s), oracles.induced_edge_count(s)
              / (len(s) * (len(s) - 1) / 2))
        d_wis = oracles.density_wis(s)
        if d_wis:
            close(density_wis(s), d_wis)
            close(inda_wis_ratio(s).outcome().value,
                  oracles.inda_wis_value(s))
        for mode in (MODE_SET, MODE_MULTISET):
            a = oracles.auxiliary_counts(s, mode)
            inv = [1 / x for x in w]
            den = math.fsum(iw * a.get(v, 0)
                            for iw, v in zip(inv, nodes))
            if den:
                close(indb_wis_ratio(s, mode).outcome().value,
                      sum(a.values()) * math.fsum(inv) / den)
        for m in (0, 5):
            got = node_margin_ratio(s, m)
            num, den = oracles.node_margin_parts(s, m)
            close(got.numerator, num)
            close(got.denominator, den)
            got = ind_margin_ratio(s, m, MODE_MULTISET)
            num, den = oracles.ind_margin_multiset_parts(s, m)
            close(got.numerator, num)
            close(got.denominator, den)
            got = ind_margin_ratio(s, m, MODE_SET)
            num, den = oracles.ind_margin_set_parts(s, m)
            close(got.numerator, num)
            close(got.denominator, den)
        if kind == 4:
            got = margin_crosswalker(s, "node", MODE_SET)
            num, den = oracles.crosswalker_node_parts(s)
            if den:
                close(got.value, num / den)
            got = margin_crosswalker(s, "ind", MODE_MULTISET)
            num, den = oracles.crosswalker_ind_multiset_parts(s)
            if den:
                close(got.value, num / den)
        checked += 1

    elapsed = time.perf_counter() - start
    ok = checked == 100 and elapsed < 60.0
    _report(2, "streaming estimators match quadratic reference", ok,
            f"{checked} samples, worst error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_uniform_sampling_consistency():
    start = time.perf_counter()
    g = erdos_renyi(2000, 0.01, seed=0)
    maes = []
    median_at_1000 = None
    for n in (250, 500, 1000):
        finite = []
        for t in range(500):
            out = node_uis_ratio(sample_uis(g, n, seed=t)).outcome()
            if out.finite:
                finite.append(out.value)
        maes.append(_median(abs(v - 2000.0) for v in finite))
        if n == 1000:
            median_at_1000 = _median(finite) / 2000.0
    elapsed = time.perf_counter() - start
    ok = (0.95 <= median_at_1000 <= 1.05
          and maes[0] > maes[1] > maes[2]
          and elapsed < 120.0)
    _report(3, "collision estimator consistency under uniform sampling", ok,
            f"median ratio {median_at_1000:.4f}, MAE {maes[0]:.0f} > "
            f"{maes[1]:.0f} > {maes[2]:.0f}, {elapsed:.1f}s")


def test_criterion_04_induced_edge_beats_collision_band():
    start = time.perf_counter()
    g = erdos_renyi(2000, 0.05, seed=0)
    ind_vals, node_vals = [], []
    for t in range(200):
        s = sample_uis(g, 200, seed=t)
        ind_vals.append(indb_auto_ratio(s, MODE_SET).outcome().value)
        out = node_uis_ratio(s).outcome()
        if out.finite:
            node_vals.append(out.value)
    elapsed = time.perf_counter() - start
    b_ind, b_node = _band(ind_vals), _band(node_vals)
    ok = b_ind < b_node and elapsed < 120.0
    _report(4, "cross-collision band narrower than collision band", ok,
            f"band {b_ind:.1f} vs {b_node:.1f}, {elapsed:.1f}s")


def test_criterion_05_weighted_sampling_improves_band():
    g = erdos_renyi(2000, 0.005, seed=0)
    wis_vals, uis_vals = [], []
    for t in range(200):
        out = node_wis_ratio(sample_wis(g, "degree", 500, seed=t)).outcome()
        if out.finite:
            wis_vals.append(out.value)
        out = node_uis_ratio(sample_uis(g, 500, seed=t)).outcome()
        if out.finite:
            uis_vals.append(out.value)
    b_wis, b_uis = _band(wis_vals), _band(uis_vals)
    ok = b_wis < b_uis
    _report(5, "degree-weighted collision band narrower than uniform", ok,
            f"band {b_wis:.1f} vs {b_uis:.1f}")


@functools.cache
def _margin_medians():
    g = erdos_renyi(1000, 0.02, seed=0)
    g = g if g.is_connected else largest_connected_component(g)
    ms = (0, 5, 10, 25, 50, 100)
    vals = {m: [] for m in ms}
    for t in range(200):
        s = sample_rw(g, 2000, seed=t)
        for m in ms:
            out = ind_margin_ratio(s, m, MODE_MULTISET).outcome()
            if out.finite:
                vals[m].append(out.value / g.node_count)
    return ms, [(m, _median(vals[m])) for m in ms]


def _flattening_ok(medians):
    flat = [abs(v - 1.0) <= 0.15 for _, v in medians]
    return any(a and b for a, b in zip(flat, flat[1:]))


def test_criterion_06_margin_flattening_regimes():
    start = time.perf_counter()
    ms, medians = _margin_medians()
    med = dict(medians)
    underestimates = med[0] < 0.9
    flattens = _flattening_ok(medians)
    # medians must not decrease before the first in-band point
    rising = True
    for (m_a, v_a), (m_b, v_b) in zip(medians, medians[1:]):
        if abs(v_a - 1.0) <= 0.15:
            break
        if v_b < v_a:
            rising = False
    elapsed = time.perf_counter() - start
    ok = underestimates and flattens and rising and elapsed < 300.0
    _report(6, "margin sweep shows underestimation then flattening", ok,
            f"m=0 median {med[0]:.3f} (need < 0.9), "
            f"flattening {'yes' if flattens else 'no'}, "
            f"monotone rise {'yes' if rising else 'no'}, {elapsed:.0f}s")


def test_criterion_07_margin_beats_thinning():
    g = erdos_renyi(1000, 0.02, seed=0)
    g = g if g.is_connected else largest_connected_component(g)
    thetas = (1, 2, 5, 10, 20, 50)
    acceptable = []
    for theta in thetas:
        finite = []
        infinite = 0
        for t in range(200):
            s = sample_rw(g, 2000, seed=t)
            out = estimate_thinned(s, theta, node_wis_ratio)
            if out.finite:
                finite.append(out.value / g.node_count)
            else:
                infinite += 1
        med = _median(finite) if finite else float("inf")
        if abs(med - 1.0) <= 0.15 and infinite / 200 < 0.2:
            acceptable.append((theta, med))
    _, medians = _margin_medians()
    margin_flattens = _flattening_ok(medians)
    ok = not acceptable and margin_flattens
    _report(7, "simple thinning fails where margin filtering flattens", ok,
            f"thinning in-band points {acceptable or 'none'}, "
            f"margin flattens {'yes' if margin_flattens else 'no'}")


def test_criterion_08_lattice_failure_mode():
    g = grid_2d(50, 50)
    ms = (0, 5, 10, 25, 50, 100)
    walk_medians = {}
    for m in ms:
        vals = []
        for t in range(100):
            s = sample_rw(g, 2000, seed=t)
            out = ind_margin_ratio(s, m, MODE_MULTISET).outcome()
            if out.finite:
                vals.append(out.value / g.node_count)
        walk_medians[m] = _median(vals)
    uis_vals = []
    for t in range(100):
        s = sample_uis(g, 2000, seed=t)
        uis_vals.append(indb_auto_ratio(s, MODE_SET).outcome().value
                        / g.node_count)
    uis_median = _median(uis_vals)
    walk_fails = all(v < 0.7 for v in walk_medians.values())
    uis_passes = abs(uis_median - 1.0) <= 0.15
    ok = walk_fails and uis_passes
    _report(8, "walk estimators fail on a 2-D lattice, uniform does not", ok,
            f"walk medians max {max(walk_medians.values()):.3f} (< 0.7), "
            f"uniform median {uis_median:.3f}")


def test_criterion_09_mle_agreement():
    approx_vals, exact_vals = [], []
    agree = True
    for t in range(200):
        draws = np.random.default_rng(t).integers(0, 500, size=800)
        n_unique = len(set(draws.tolist()))
        a = mle_unique_approx(800, n_unique).value
        e = mle_unique_exact(800, n_unique).value
        approx_vals.append(a)
        exact_vals.append(e)
        if abs(a - e) / max(a, e) > 0.10:
            agree = False
    med_a, med_e = _median(approx_vals), _median(exact_vals)
    ok = (agree and abs(med_a - 500) / 500 <= 0.15
          and abs(med_e - 500) / 500 <= 0.15)
    _report(9, "approximate and exact unique-count solvers agree", ok,
            f"medians {med_a:.1f} / {med_e:.1f}, pairwise within 10%: "
            f"{'yes' if agree else 'no'}")


def test_criterion_10_weight_scale_invariance():
    g = largest_connected_component(erdos_renyi(120, 0.08, seed=0))
    worst = 0.0
    for i in range(50):
        s = (sample_wis(g, "degree", 120, seed=i) if i % 2
             else sample_rw(g, 120, seed=i))
        for c in (0.1, 10.0):
            scaled = _scale_weights(s, c)
            for fn in (node_wis_ratio,
                       inda_wis_ratio,
                       lambda x: indb_auto_ratio(x, MODE_SET),
                       lambda x: node_margin_ratio(x, 3),
                       lambda x: ind_margin_ratio(x, 3, MODE_MULTISET)):
                base = fn(s).outcome().value
                got = fn(scaled).outcome().value
                worst = max(worst, abs(got - base) / abs(base))
    ok = worst <= 1e-12
    _report(10, "weighted estimators invariant under weight rescaling", ok,
            f"worst relative change {worst:.2e} over 50 samples")


def test_criterion_11_surviving_pair_approximations():
    n, theta, m = 10_000, 50, 50
    simple = surviving_pair_count(n, "thin", theta)
    shifted = surviving_pair_count(n, "thin-shifted", theta)
    margin = surviving_pair_count(n, "margin", m)
    approx = {"simple": n * n / theta ** 2, "shifted": n * n / theta,
              "margin": n * (n - 2 * m)}
    errs = (abs(simple - approx["simple"]) / approx["simple"],
            abs(shifted - approx["shifted"]) / approx["shifted"],
            abs(margin - approx["margin"]) / approx["margin"])
    ok = simple < shifted < margin and max(errs) < 0.05
    _report(11, "surviving pair counts match closed-form approximations", ok,
            f"{simple} < {shifted} < {margin}, worst approx error "
            f"{max(errs):.3%}")


def _synthetic_walk_sample(n: int) -> Sample:
    rng = np.random.default_rng(1)
    nodes = rng.integers(0, n // 3, size=n).tolist()
    weights = (0.5 + rng.random(n) * 4).tolist()
    return oracles.sample_from_snapshots(tuple(nodes), tuple(weights), (0,) * n,
                                         dict.fromkeys(nodes, ()), "RW", 1,
                                         "custom", "synthetic")


def test_criterion_12_linear_time_margin():
    small = _synthetic_walk_sample(100_000)
    large = _synthetic_walk_sample(200_000)
    for s in (small, large):  # warm up allocators and caches
        node_margin_ratio(s, 50)
    # Small and large runs alternate, so that a burst of load on a shared
    # machine slows runs of both sizes rather than the runs of one.
    times = {"small": float("inf"), "large": float("inf")}
    for _ in range(5):
        for name, s in (("small", small), ("large", large)):
            t0 = time.perf_counter()
            node_margin_ratio(s, 50)
            times[name] = min(times[name], time.perf_counter() - t0)
    ratio = times["large"] / times["small"]
    ok = ratio <= 2.5
    _report(12, "margin estimator wall time scales linearly", ok,
            f"100k: {times['small']:.3f}s, 200k: {times['large']:.3f}s, "
            f"ratio {ratio:.2f} (limit 2.5)")
