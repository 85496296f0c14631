import itertools
import os
from dataclasses import replace

import numpy as np
import pytest

from graphsize import experiment
from graphsize.core import (A_MODES, NO_COLLISIONS, EstimateOutcome,
                            EstimatorError)
from graphsize.experiment import (CORRECTIONS, ESTIMATORS, EstimatorSpec,
                                  ExperimentPlan, PlanError, SamplerSpec,
                                  TrialSummary, check_spec, draw_sample,
                                  emit_csv, emit_svg_band, evaluate,
                                  evaluate_with_ratio, parse_plan_file,
                                  percentile, resolve_graph, run_experiment,
                                  summarize)
from graphsize.generators import barabasi_albert, erdos_renyi
from graphsize.graph import largest_connected_component
from graphsize.sampling import _resolve_weights, sample_wis

import oracles


def _plan(**overrides):
    defaults = dict(graph=erdos_renyi(100, 0.1, seed=1),
                    sampler=SamplerSpec(method="uis", n=50),
                    estimator=EstimatorSpec(name="node-uis"),
                    param="n", values=(30.0, 50.0), trials=5, base_seed=3)
    defaults.update(overrides)
    return ExperimentPlan(**defaults)


def test_percentile_examples():
    assert percentile([1, 2, 3, 4, 5], 0.5) == 3
    assert percentile([7], 0.1) == 7
    assert percentile([7], 0.9) == 7
    assert percentile(list(range(1, 101)), 0.1) == 10
    assert percentile([3, 1, 2], 1.0) == 3
    with pytest.raises(EstimatorError):
        percentile([], 0.5)
    with pytest.raises(EstimatorError):
        percentile([1.0], 1.5)


def test_summarize_single_trial():
    s = summarize(5.0, [EstimateOutcome(42.0)], scale=1.0)
    assert s.p10 == s.p50 == s.p90 == 42.0
    assert s.infinite_fraction == 0.0
    assert s.band_width == 0.0


def test_summarize_all_infinite():
    s = summarize(1.0, [NO_COLLISIONS, NO_COLLISIONS])
    assert s.p10 is None and s.p50 is None and s.p90 is None
    assert s.infinite_fraction == 1.0
    assert s.band_width is None


def test_summarize_percentiles_ordered():
    outcomes = [EstimateOutcome(float(v)) for v in (5, 1, 9, 3, 7)]
    s = summarize(0.0, outcomes)
    assert s.p10 <= s.p50 <= s.p90


def test_run_experiment_deterministic_csv():
    a = emit_csv(run_experiment(_plan()))
    b = emit_csv(run_experiment(_plan()))
    assert a == b
    c = emit_csv(run_experiment(_plan(base_seed=4)))
    assert a != c


def test_run_experiment_normalizes_by_graph_size():
    rows = run_experiment(_plan(trials=20,
                                sampler=SamplerSpec(method="uis", n=80),
                                values=(80.0,)))
    assert len(rows) == 1
    assert 0.2 < rows[0].p50 < 5.0  # ratio to N, not an absolute count


def test_run_experiment_m_grid_reuses_one_sample_per_trial():
    plan = _plan(sampler=SamplerSpec(method="rw", n=200),
                 estimator=EstimatorSpec(name="ind-b", correction="margin"),
                 param="m", values=(0.0, 2.0, 5.0), trials=3)
    rows = run_experiment(plan)
    assert [r.param_value for r in rows] == [0.0, 2.0, 5.0]
    assert all(r.trials == 3 for r in rows)


def _draw_per_size(plan):
    """The n-grid CSV from one draw per grid point and trial."""
    per_trial = []
    for trial in range(plan.trials):
        seed = plan.base_seed + trial
        per_trial.append([
            evaluate(draw_sample(plan.graph, replace(plan.sampler, n=int(v)),
                                 seed), plan.estimator, seed)
            for v in plan.values])
    return emit_csv([summarize(v, [row[col] for row in per_trial],
                               plan.graph.node_count)
                     for col, v in enumerate(plan.values)])


BA = barabasi_albert(300, 3, seed=5)
SPARSE_LCC = largest_connected_component(erdos_renyi(200, 0.02, seed=1))


@pytest.mark.parametrize("graph,sampler,estimator", [
    (BA, SamplerSpec("uis", 8), EstimatorSpec("capture")),
    (BA, SamplerSpec("uis", 8), EstimatorSpec("node-uis")),
    (BA, SamplerSpec("wis", 8), EstimatorSpec("ind-a")),
    (BA, SamplerSpec("wis", 8, weight_rule="unit"), EstimatorSpec("ind-b")),
    (SPARSE_LCC, SamplerSpec("rw", 8),
     EstimatorSpec("ind-b", correction="margin", m=2)),
    (BA, SamplerSpec("rw-multi", 8, walkers=4),
     EstimatorSpec("node-wis", correction="cross-walker")),
    (BA, SamplerSpec("rw-multi", 8, walkers=4),
     EstimatorSpec("ind-b", correction="thin-shifted", theta=3)),
], ids=["uis-capture", "uis-node", "wis-degree", "wis-unit", "rw-margin",
        "rw-multi-cross", "rw-multi-thin"])
def test_n_grid_matches_a_draw_per_size(graph, sampler, estimator):
    # Unsorted, with a repeat, and the largest size not last.
    plan = ExperimentPlan(graph=graph, sampler=sampler, estimator=estimator,
                          values=(120.0, 8.0, 200.0, 40.0, 40.0), trials=12,
                          base_seed=4)
    assert emit_csv(run_experiment(plan)) == _draw_per_size(plan)


def test_n_grid_draws_once_per_trial(monkeypatch):
    sizes = []
    original = experiment.draw_sample

    def counting(g, spec, seed):
        sizes.append(spec.n)
        return original(g, spec, seed)

    monkeypatch.setattr(experiment, "draw_sample", counting)
    run_experiment(_plan(values=(30.0, 80.0, 50.0), trials=1))
    assert sizes == [80]
    run_experiment(_plan(sampler=SamplerSpec("rw-multi", 8, walkers=4),
                         values=(40.0, 8.0, 40.0), trials=3))
    assert sizes == [80, 40, 40, 40]


@pytest.mark.parametrize("method", ["rw", "rw-multi"])
def test_one_value_is_the_grid_call_at_that_value(method):
    """For every estimator, correction and auxiliary mode the tables admit
    on a walk, evaluate_with_ratio at one value of the correction's
    parameter is its grid call's answer at that value, ``==``."""
    walkers = 3 if method == "rw-multi" else 1
    sample = draw_sample(SPARSE_LCC, SamplerSpec(method, 90, walkers), 5)
    grids = {"theta": [4, 1, 3, 200, 4], "m": [5, 0, 2, 200, 5], None: [None]}
    compared = set()
    for name, correction, a_mode in itertools.product(
            ESTIMATORS, CORRECTIONS, A_MODES):
        row = CORRECTIONS[correction]
        est = EstimatorSpec(name, correction, a_mode)
        try:
            check_spec(method, est, row.param or "n")
        except PlanError:
            continue
        if row.grid is None:
            continue
        values = grids[row.param]
        for value, result in zip(values, row.grid(sample, est, values)):
            one = replace(est, **{row.param: value}) if row.param else est
            ratio, outcome = evaluate_with_ratio(sample, one, seed=2)
            assert result == (outcome if ratio is None else ratio), one
        compared.add(correction)
    assert compared == ({"thin", "thin-shifted", "margin", "cross-walker"}
                        if method == "rw-multi"
                        else {"thin", "thin-shifted", "margin"})


@pytest.mark.parametrize("correction", ["thin", "thin-shifted"])
@pytest.mark.parametrize("estimator", [
    EstimatorSpec("node-wis"), EstimatorSpec("ind-b", a_mode="multiset")],
    ids=["node-wis", "ind-b-multiset"])
def test_a_theta_grid_is_its_values_one_at_a_time(correction, estimator):
    """A theta grid's summaries are those of one evaluate call per theta
    and trial seed, on the trial's one sample."""
    plan = _plan(graph=SPARSE_LCC, sampler=SamplerSpec("rw", 60),
                 estimator=replace(estimator, correction=correction),
                 param="theta", values=(3.0, 1.0, 7.0, 3.0, 90.0), trials=4)
    seeds = range(plan.base_seed, plan.base_seed + plan.trials)
    samples = [draw_sample(plan.graph, plan.sampler, seed) for seed in seeds]
    expected = [summarize(theta, [
        evaluate(s, replace(plan.estimator, theta=int(theta)), seed)
        for s, seed in zip(samples, seeds)], plan.graph.node_count)
        for theta in plan.values]
    assert run_experiment(plan) == expected


def test_weight_tables_are_read_only_and_built_once_per_graph():
    g = barabasi_albert(200, 2, seed=3)
    table = g.degree_weights
    assert table.flags.writeable is False
    with pytest.raises(ValueError):
        table[0] = 1.0
    assert table.tolist() == list(oracles.degrees(g))
    for seed in range(3):
        sample_wis(g, "degree", 10, seed)
        assert g.degree_weights is table
    # Unit weights are a read-only view of one 1.0: nothing is built.
    unit = _resolve_weights(g, "unit")[1]
    assert unit.flags.writeable is False and unit.strides == (0,)
    assert unit.shape == (g.node_count,) and (unit == 1.0).all()
    other = barabasi_albert(200, 2, seed=3)
    assert other.degree_weights is not table
    np.testing.assert_array_equal(other.degree_weights, table)


def test_plan_validation_errors():
    with pytest.raises(PlanError):
        _plan(trials=0)
    with pytest.raises(PlanError):
        _plan(values=())
    with pytest.raises(PlanError):
        _plan(sampler=SamplerSpec(method="teleport", n=10))
    with pytest.raises(PlanError):
        _plan(estimator=EstimatorSpec(name="magic"))
    with pytest.raises(PlanError):  # margin needs a random walk
        _plan(estimator=EstimatorSpec(name="ind-b", correction="margin"))
    with pytest.raises(PlanError):  # corrections only wrap node-wis / ind-b
        _plan(sampler=SamplerSpec(method="rw", n=50),
              estimator=EstimatorSpec(name="node-uis", correction="margin"))
    with pytest.raises(PlanError):  # cross-walker needs multiple walks
        _plan(sampler=SamplerSpec(method="rw", n=50),
              estimator=EstimatorSpec(name="ind-b",
                                      correction="cross-walker"))
    with pytest.raises(PlanError):  # theta grid without thinning
        _plan(param="theta")
    walk = SamplerSpec(method="rw", n=50)
    for estimator, param, values in [
            # grid values below the range of their parameter
            (EstimatorSpec(name="ind-b", correction="margin"), "m", (5, -1)),
            (EstimatorSpec(name="node-wis", correction="thin"), "theta",
             (2, 0)),
            # out-of-range or unknown settings of the estimator itself
            (EstimatorSpec(name="node-wis", correction="thin", theta=0),
             "n", (50,)),
            (EstimatorSpec(name="node-wis", correction="margin", m=-1),
             "n", (50,)),
            (EstimatorSpec(name="ind-b", a_mode="bag"), "n", (50,))]:
        with pytest.raises(PlanError):
            _plan(sampler=walk, estimator=estimator, param=param,
                  values=values)


def test_grid_values_and_base_seed_are_checked():
    walk = SamplerSpec(method="rw", n=50)
    margin = EstimatorSpec(name="ind-b", correction="margin")
    thin = EstimatorSpec(name="node-wis", correction="thin")
    for sampler, estimator, param, values, message in [
            (walk, margin, "m", (2.9, 3.0), "m grid value 2.9 is not an"),
            (walk, thin, "theta", (1.5,), "theta grid value 1.5 is not an"),
            (walk, margin, "n", (100.7, 50.0), "n grid value 100.7 is not an"),
            (walk, margin, "m", (float("inf"),), "m grid value inf is not")]:
        with pytest.raises(PlanError, match=message):
            _plan(sampler=sampler, estimator=estimator, param=param,
                  values=values)
    assert _plan(values=(30, 50.0)).values == (30, 50.0)  # integral: valid
    with pytest.raises(PlanError, match="base_seed must be >= 0, got -1"):
        _plan(base_seed=-1)


def test_evaluate_dispatch_smoke():
    g = erdos_renyi(100, 0.1, seed=2)
    uis = draw_sample(g, SamplerSpec(method="uis", n=60), seed=0)
    rw = draw_sample(g, SamplerSpec(method="rw", n=60), seed=0)
    multi = draw_sample(g, SamplerSpec(method="rw-multi", n=60, walkers=3),
                        seed=0)
    cases = [
        (uis, EstimatorSpec(name="node-uis")),
        (uis, EstimatorSpec(name="capture")),
        (uis, EstimatorSpec(name="mle-approx")),
        (uis, EstimatorSpec(name="mle-exact")),
        (uis, EstimatorSpec(name="ind-a")),
        (rw, EstimatorSpec(name="node-wis", correction="thin", theta=3)),
        (rw, EstimatorSpec(name="node-wis", correction="thin-shifted",
                           theta=3)),
        (rw, EstimatorSpec(name="node-wis", correction="margin", m=4)),
        (rw, EstimatorSpec(name="ind-b", correction="margin", m=4,
                           a_mode="multiset")),
        (multi, EstimatorSpec(name="ind-b", correction="cross-walker")),
    ]
    for sample, est in cases:
        out = evaluate(sample, est, seed=1)
        assert isinstance(out, EstimateOutcome)
    for est in (EstimatorSpec(name="magic"),
                EstimatorSpec(name="node-uis", correction="margin", m=4)):
        with pytest.raises(PlanError):
            evaluate(rw, est)


def test_emit_csv_shape():
    rows = [TrialSummary(1.0, 0.5, 1.0, 1.5, 0.0, 10)]
    text = emit_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "param,p10,p50,p90,infinite_fraction,trials"
    assert lines[1] == "1,0.5,1,1.5,0,10"
    empty = emit_csv([TrialSummary(2.0, None, None, None, 1.0, 4)])
    assert empty.strip().split("\n")[1] == "2,,,,1,4"


def test_emit_svg_deterministic_and_degenerate():
    rows = [TrialSummary(1.0, 0.9, 1.0, 1.1, 0.0, 10),
            TrialSummary(2.0, 1.0, 1.0, 1.0, 0.0, 10)]
    a = emit_svg_band(rows)
    assert a == emit_svg_band(rows)
    assert a.startswith("<svg")
    assert "polygon" in a and "polyline" in a
    flat = emit_svg_band([TrialSummary(1.0, 1.0, 1.0, 1.0, 0.0, 5)])
    assert "<svg" in flat
    skipped = emit_svg_band([TrialSummary(1.0, None, None, None, 1.0, 5)])
    assert "polygon" not in skipped


def test_parse_plan_file_roundtrip(tmp_path):
    text = """
    # comment
    graph = gen:er:nodes=100,p=0.1,seed=1
    method = uis
    n = 50
    estimator = node-uis
    param = n
    values = 30,50
    trials = 5
    base_seed = 3
    """
    plan = parse_plan_file(text)
    assert plan.sampler.n == 50
    assert plan.values == (30.0, 50.0)
    assert plan.trials == 5
    assert emit_csv(run_experiment(plan)) == emit_csv(run_experiment(_plan()))


def test_parse_plan_file_checks_before_building_the_graph(tmp_path):
    plan = ("graph = {}\nmethod = rw\nn = 50\nestimator = ind-b\n"
            "correction = margin\nparam = m\nvalues = 0,-3\n")
    with pytest.raises(PlanError):  # not OSError: the file is never opened
        parse_plan_file(plan.format(tmp_path / "missing.txt"))


def test_parse_plan_file_rejects_bad_grid_values_and_seeds(tmp_path):
    base = (f"graph = {tmp_path / 'missing.txt'}\nmethod = rw\nn = 50\n"
            "estimator = ind-b\ncorrection = margin\n")
    for text, message in [
            ("param = m\nvalues = 2.9,3\n", "m grid value 2.9"),
            ("param = n\nvalues = 100.7\n", "n grid value 100.7"),
            ("param = n\nvalues = 50\nbase_seed = -1\n", "base_seed")]:
        with pytest.raises(PlanError, match=message):  # before the graph
            parse_plan_file(base + text)


def test_parse_plan_file_errors():
    with pytest.raises(PlanError):
        parse_plan_file("graph = gen:er:nodes=10,p=0.1\nmethod = uis\n")
    with pytest.raises(PlanError):
        parse_plan_file("bogus_key = 1\n")
    with pytest.raises(PlanError):
        parse_plan_file("just a line without equals\n")
    with pytest.raises(PlanError, match="plan line 2: duplicate key 'n'"):
        parse_plan_file("n = 3\nn = 5\n")
    base = {"graph": "gen:er:nodes=100,p=0.1,seed=1", "method": "uis",
            "n": "50", "estimator": "node-uis", "param": "n", "values": "30,50"}
    for key, value in [("n", "abc"), ("trials", "2.5"), ("values", "30,x"),
                       ("values", "30,nan"), ("m", ""), ("base_seed", "s")]:
        text = "".join(f"{k} = {v}\n" for k, v in {**base, key: value}.items())
        with pytest.raises(PlanError, match=f"plan key '{key}'"):
            parse_plan_file(text)


def test_resolve_graph_specs(tmp_path):
    g = resolve_graph("gen:grid:rows=4,cols=5")
    assert g.node_count == 20
    g = resolve_graph("gen:ring:cliques=3,size=3")
    assert g.node_count == 9
    g = resolve_graph("gen:ba:nodes=30,m=2,seed=1")
    assert g.node_count == 30
    with pytest.raises(PlanError):
        resolve_graph("gen:unknown:x=1")
    with pytest.raises(PlanError):
        resolve_graph("gen:er:p=0.1")  # missing nodes
    with pytest.raises(PlanError, match="unknown generator key 'sed'"):
        resolve_graph("gen:ba:nodes=100,m=3,sed=5")
    with pytest.raises(PlanError, match="unknown generator key 'seed'"):
        resolve_graph("gen:grid:rows=2,cols=2,seed=1")  # grid takes no seed
    with pytest.raises(PlanError, match="duplicate generator key 'p'"):
        resolve_graph("gen:er:nodes=10,p=0.1,p=0.2")
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n")
    assert resolve_graph(str(path)).node_count == 3


def test_resolve_graph_loads_a_path_through_one_load_edge_list_call(
        tmp_path, monkeypatch):
    # bench/tracing.py wraps this module attribute to time the graph.load
    # layer, so a path must reach the loader through it, once.
    calls = []
    original = experiment.load_edge_list

    def counting(source):
        calls.append(source.name)
        return original(source)

    monkeypatch.setattr(experiment, "load_edge_list", counting)
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n")
    assert resolve_graph(str(path)).edge_count == 2
    assert calls == [str(path)]
    resolve_graph("gen:grid:rows=2,cols=2")
    assert len(calls) == 1
