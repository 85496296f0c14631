import hashlib
import json
import os
import re
import resource
import signal
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from xml.etree import ElementTree

import pytest

import graphsize
from graphsize.cli import main
from graphsize.core import NO_COLLISIONS, EstimateOutcome
from graphsize.experiment import (draw_sample, emit_csv, evaluate,
                                  parse_plan_file, run_experiment, summarize)
from graphsize.graph import _excerpt


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_and_graphstat(tmp_path, capsys):
    edges = tmp_path / "g.txt"
    code, out, _ = run(capsys, "gen", "gen:er:nodes=200,p=0.05,seed=1",
                       "-o", str(edges))
    assert code == 0
    assert "200 nodes" in out
    code, out, err = run(capsys, "graphstat", str(edges))
    assert code == 0
    assert "nodes: 200" in out
    assert "size_identity_residual" in out


def test_graphstat_on_one_node(capsys):
    # Density needs two nodes; the other statistics are printed.
    code, out, err = run(capsys, "graphstat", "gen:grid:rows=1,cols=1")
    assert (code, err) == (0, "")
    assert out.splitlines()[:3] == ["nodes: 1", "edges: 0", "mean_degree: 0"]
    assert "density" not in out and "size_identity_residual" not in out


def _run_with_file_size_limit(argv, limit):
    """The exit code and stderr of graphsize run in a child process whose
    writes past ``limit`` bytes of a file fail (EFBIG)."""
    def limit_file_size():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

    src = str(Path(graphsize.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "graphsize.cli", *argv], capture_output=True,
        text=True, preexec_fn=limit_file_size, timeout=120,
        env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"})
    return done.returncode, done.stderr


@pytest.mark.parametrize("command", ["gen", "sample", "experiment", "plot"])
def test_a_failed_write_leaves_the_previous_output(tmp_path, capsys,
                                                   command):
    edges, plan, csv = (tmp_path / name for name in ("g.txt", "plan", "x.csv"))
    run(capsys, "gen", "gen:grid:rows=5,cols=5", "-o", str(edges))
    plan.write_text(f"graph = {edges}\nmethod = uis\nn = 40\n"
                    "estimator = node-uis\nparam = n\nvalues = 10,20,40\n"
                    "trials = 3\n")
    run(capsys, "experiment", "--plan", str(plan), "-o", str(csv))
    argv = {"gen": ["gen", "gen:grid:rows=5,cols=5"],
            "sample": ["sample", "--graph", str(edges), "--method", "uis",
                       "--n", "50"],
            "experiment": ["experiment", "--plan", str(plan)],
            "plot": ["plot", "--csv", str(csv)]}[command]
    out = tmp_path / "out"
    out.mkdir()
    (out / "result").write_text("previous\n")
    # Every output is longer than the limit, so its write fails midway.
    code, err = _run_with_file_size_limit(argv + ["-o", str(out / "result")],
                                          limit=64)
    assert code == 3
    assert err.startswith("error:") and err.count("\n") == 1
    assert (out / "result").read_text() == "previous\n"
    assert os.listdir(out) == ["result"]
    # Unlimited, the output replaces the file and keeps its mode.
    (out / "result").chmod(0o640)
    assert main(argv + ["-o", str(out / "result")]) == 0
    assert (out / "result").read_text() != "previous\n"
    assert (out / "result").stat().st_mode & 0o777 == 0o640
    assert os.listdir(out) == ["result"]


def test_a_new_output_gets_the_mode_that_open_gives(tmp_path, capsys):
    umask = os.umask(0o027)
    try:
        assert main(["gen", "gen:grid:rows=2,cols=2", "-o",
                     str(tmp_path / "g.txt")]) == 0
    finally:
        os.umask(umask)
    assert (tmp_path / "g.txt").stat().st_mode & 0o777 == 0o640


def test_outputs_through_a_link_or_to_a_pipe(tmp_path):
    # A link is written through, as open() writes; /dev/stdout (a pipe
    # here) is written directly, since it has no file to replace.
    (tmp_path / "real.txt").write_text("previous\n")
    (tmp_path / "link.txt").symlink_to(tmp_path / "real.txt")
    assert main(["gen", "gen:grid:rows=1,cols=2", "-o",
                 str(tmp_path / "link.txt")]) == 0
    assert (tmp_path / "link.txt").is_symlink()
    assert (tmp_path / "real.txt").read_text() == "0 1\n"
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "real.txt"]
    src = str(Path(graphsize.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "graphsize.cli", "gen", "gen:grid:rows=1,cols=2",
         "-o", "/dev/stdout"], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stdout) == (0, "0 1\nwrote 2 nodes, 1 edges "
                                              "to /dev/stdout\n")


def test_a_missing_output_directory_fails_before_the_graph_loads(tmp_path,
                                                                 capsys):
    # The graph file is missing too; the output's error comes first.
    missing = tmp_path / "nowhere" / "s.tsv"
    code, out, err = run(capsys, "sample", "--graph",
                         str(tmp_path / "missing.txt"), "--method", "uis",
                         "--n", "5", "-o", str(missing))
    assert code == 3 and out == ""
    assert err == f"error: [Errno 2] No such file or directory: " \
                  f"'{missing}'\n"


def test_graphstat_warns_on_disconnected(tmp_path, capsys):
    edges = tmp_path / "g.txt"
    edges.write_text("0 1\n2 3\n")
    code, out, err = run(capsys, "graphstat", str(edges))
    assert code == 0
    assert "disconnected" in err


def test_sample_and_estimate_roundtrip(tmp_path, capsys):
    edges = tmp_path / "g.txt"
    sample = tmp_path / "s.tsv"
    run(capsys, "gen", "gen:er:nodes=300,p=0.05,seed=2", "-o", str(edges))
    code, out, _ = run(capsys, "sample", "--graph", str(edges),
                       "--method", "uis", "--n", "200", "--seed", "7",
                       "-o", str(sample))
    assert code == 0
    code, out, _ = run(capsys, "estimate", "--sample", str(sample),
                       "--estimator", "node-uis")
    assert code == 0
    payload = json.loads(out)
    assert payload["estimator"] == "node-uis"
    assert payload["n"] == 200
    assert payload["numerator"] == 200 * 200
    assert (payload["estimate"] == "no_collisions"
            or payload["estimate"] > 0)


def test_estimate_rw_margin(tmp_path, capsys):
    edges = tmp_path / "g.txt"
    sample = tmp_path / "s.tsv"
    run(capsys, "gen", "gen:er:nodes=300,p=0.05,seed=3", "-o", str(edges))
    run(capsys, "sample", "--graph", str(edges), "--method", "rw",
        "--n", "400", "--lcc", "-o", str(sample))
    code, out, _ = run(capsys, "estimate", "--sample", str(sample),
                       "--estimator", "ind-b", "--correction", "margin",
                       "--margin", "10", "--a-mode", "multiset")
    assert code == 0
    payload = json.loads(out)
    assert payload["correction"] == "margin"
    assert payload["params"]["m"] == 10
    assert payload["denominator"] >= 0


@pytest.mark.parametrize("estimator", [
    ["node-wis"], ["ind-b", "--a-mode", "multiset"], ["ind-b"]])
def test_an_m_grid_plan_is_its_margins_one_at_a_time(tmp_path, capsys,
                                                     estimator):
    """A plan answers its whole m grid in one kernel call per trial; the
    summaries are those of one evaluate call, or one estimate command,
    per margin and trial seed."""
    graph, values, seeds = "gen:er:nodes=120,p=0.06,seed=2", "25,0,5,5,79,3", \
        range(7, 10)
    a_mode = f"a_mode = {estimator[2]}\n" if estimator[1:] else ""
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text(
        f"graph = {graph}\nlcc = true\nmethod = rw\nn = 80\n"
        f"estimator = {estimator[0]}\ncorrection = margin\n{a_mode}"
        f"param = m\nvalues = {values}\ntrials = 3\nbase_seed = 7\n")
    plan = parse_plan_file(plan_file.read_text())
    size = plan.graph.node_count
    samples = [draw_sample(plan.graph, plan.sampler, seed) for seed in seeds]
    expected = [summarize(m, [evaluate(s, replace(plan.estimator, m=int(m)))
                              for s in samples], size)
                for m in plan.values]
    assert run_experiment(plan) == expected

    code, _, err = run(capsys, "experiment", "--plan", str(plan_file),
                       "-o", str(tmp_path / "x.csv"))
    assert (code, err) == (0, "")
    outcomes = [[] for _ in plan.values]
    for seed in seeds:
        sample = tmp_path / f"s{seed}.tsv"
        run(capsys, "sample", "--graph", graph, "--lcc", "--method", "rw",
            "--n", "80", "--seed", str(seed), "-o", str(sample))
        for m, column in zip(plan.values, outcomes):
            code, out, err = run(capsys, "estimate", "--sample", str(sample),
                                 "--estimator", *estimator, "--correction",
                                 "margin", "--margin", f"{m:g}")
            assert (code, err) == (0, "")
            value = json.loads(out)["estimate"]
            column.append(NO_COLLISIONS if value == "no_collisions"
                          else EstimateOutcome(value))
    assert (tmp_path / "x.csv").read_text() == emit_csv(
        [summarize(m, column, size) for m, column in zip(plan.values,
                                                         outcomes)])


def test_thin_shifted_theta_past_the_sample_length(tmp_path, capsys):
    """theta beyond n leaves the n one-record parts of theta = n, none of
    them empty for ind-b to reject."""
    sample = _rw_sample_file(tmp_path, capsys)  # 80 records
    payloads = []
    for theta in ("80", "90"):
        code, out, err = run(capsys, "estimate", "--sample", str(sample),
                             "--estimator", "ind-b", "--correction",
                             "thin-shifted", "--theta", theta)
        assert (code, err) == (0, "")
        payloads.append(json.loads(out))
        assert payloads[-1].pop("params")["theta"] == int(theta)
    assert payloads[0] == payloads[1]


def test_estimate_config_error_exit_code(tmp_path, capsys):
    edges = tmp_path / "g.txt"
    sample = tmp_path / "s.tsv"
    run(capsys, "gen", "gen:grid:rows=5,cols=5", "-o", str(edges))
    run(capsys, "sample", "--graph", str(edges), "--method", "uis",
        "--n", "20", "-o", str(sample))
    # margin correction is only defined for random-walk samples
    code, out, err = run(capsys, "estimate", "--sample", str(sample),
                         "--estimator", "ind-b", "--correction", "margin")
    assert code == 2
    assert "error:" in err


def test_missing_file_is_data_error(capsys):
    code, _, err = run(capsys, "estimate", "--sample", "/nonexistent.tsv",
                       "--estimator", "node-uis")
    assert code == 3
    assert "error:" in err
    code, _, err = run(capsys, "graphstat", "/nonexistent.txt")
    assert code == 3


def test_walk_on_a_graph_without_edges_is_data_error(tmp_path, capsys):
    spec = "gen:er:nodes=5,p=0,seed=1"
    plan = tmp_path / "plan.txt"
    plan.write_text(f"graph = {spec}\nlcc = true\nmethod = rw\nn = 10\n"
                    "estimator = node-wis\nparam = n\nvalues = 10\n")
    for argv in (["sample", "--graph", spec, "--lcc", "--method", "rw",
                  "--n", "3", "-o", str(tmp_path / "s.tsv")],
                 ["experiment", "--plan", str(plan),
                  "-o", str(tmp_path / "x.csv")]):
        err = _one_line_error(*run(capsys, *argv), 3)
        assert "random walk needs a graph with an edge" in err


def test_rw_sample_on_disconnected_graph_is_data_error(tmp_path, capsys):
    edges = tmp_path / "g.txt"
    edges.write_text("0 1\n2 3\n")
    code, _, err = run(capsys, "sample", "--graph", str(edges),
                       "--method", "rw", "--n", "10",
                       "-o", str(tmp_path / "s.tsv"))
    assert code == 3
    assert "largest connected component" in err


def test_wis_sample_on_a_graph_with_an_isolated_node_is_data_error(
        tmp_path, capsys):
    edges = tmp_path / "g.txt"
    edges.write_text("1 2\n2 3\n5 5\n")  # node 5 keeps degree 0
    for _ in range(2):
        err = _one_line_error(*run(capsys, "sample", "--graph", str(edges),
                                   "--method", "wis", "--n", "10",
                                   "-o", str(tmp_path / "s.tsv")), 3)
        assert "finite and positive" in err
    assert not (tmp_path / "s.tsv").exists()


def test_rw_multi_sample_with_a_header_seed_beyond_64_bits_reads_back(
        tmp_path, capsys):
    # The file's seed is --seed * 1,000,003, past 2^64 for --seed 2^63.
    edges, sample = tmp_path / "g.txt", tmp_path / "s.tsv"
    run(capsys, "gen", "gen:ba:nodes=60,m=2,seed=1", "-o", str(edges))
    code, _, err = run(capsys, "sample", "--graph", str(edges), "--method",
                       "rw-multi", "--walkers", "2", "--n", "40", "--seed",
                       str(2**63), "-o", str(sample))
    assert (code, err) == (0, "")
    assert f"\tseed={2**63 * 1_000_003}\t" in sample.read_text()
    code, out, err = run(capsys, "estimate", "--sample", str(sample),
                         "--estimator", "node-wis")
    assert (code, err) == (0, "")
    assert json.loads(out)["n"] == 40


# The crawl pass's answers on BA(2000, 3): the sample file's sha256, then
# each estimate command's flags and its (numerator, denominator, estimate).
CRAWL_GRAPH_SHA256 = (
    "157a421946ce8dc9bfd37fa62e6df8ea51923e63b21cf631fc2971c88ad80b86")
CRAWL_SAMPLE_SHA256 = (
    "f3a8b2c8ae9cf54afce87b6adebd8f757d920c9c7bd56da4754cc29131460b91")
CRAWL_ESTIMATES = (
    (["--estimator", "node-wis"],
     (10598866.099202197, 6136.0, 1727.3249835727179)),
    (["--estimator", "ind-a"],
     (112118999.72449021, 78540.85714311963, 1428.5245242127091)),
    (["--estimator", "ind-b", "--correction", "margin", "--margin", "50",
      "--a-mode", "multiset"],
     (10077202.653256971, 5047.115907380232, 1996.6259618728805)),
    (["--estimator", "ind-b", "--correction", "thin-shifted", "--theta", "10"],
     (None, None, 1912.577314855986)),
    (["--estimator", "ind-b", "--correction", "cross-walker", "--a-mode",
      "set"],
     (None, None, 2011.546107208886)),
)


def test_the_benchmark_crawl_commands_succeed_and_agree(tmp_path, capsys):
    """The benchmark's crawl pass on BA(2000, 3): gen, an rw-multi sample of
    n = N, then its five estimate commands, each printing one JSON object
    whose estimate is its own ratio.  The edge list, the sample file and
    every number are pinned, bit for bit."""
    edges, sample = tmp_path / "graph.txt", tmp_path / "sample.tsv"
    code, _, err = run(capsys, "gen", "gen:ba:nodes=2000,m=3,seed=1",
                       "-o", str(edges))
    assert (code, err) == (0, "")
    assert hashlib.sha256(edges.read_bytes()).hexdigest() == CRAWL_GRAPH_SHA256
    code, out, err = run(capsys, "sample", "--graph", str(edges), "--method",
                         "rw-multi", "--walkers", "4", "--n", "2000",
                         "--seed", "0", "-o", str(sample))
    assert (code, err) == (0, "")
    assert out.startswith("wrote 2000 records")
    assert (hashlib.sha256(sample.read_bytes()).hexdigest()
            == CRAWL_SAMPLE_SHA256)
    for flags, pinned in CRAWL_ESTIMATES:
        code, out, err = run(capsys, "estimate", "--sample", str(sample),
                             *flags)
        assert (code, err) == (0, "")
        assert out.count("\n") == 1
        payload = json.loads(out)
        assert payload["n"] == 2000
        assert isinstance(payload["estimate"], float)
        if payload["denominator"]:
            offset = 1.0 if flags[1] == "ind-a" else 0.0
            assert payload["estimate"] == (
                payload["numerator"] / payload["denominator"] + offset)
        assert (payload["numerator"], payload["denominator"],
                payload["estimate"]) == pinned


def test_experiment_and_plot(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    csv = tmp_path / "out.csv"
    svg = tmp_path / "out.svg"
    plan.write_text(
        "graph = gen:er:nodes=100,p=0.1,seed=1\n"
        "method = uis\n"
        "n = 60\n"
        "estimator = node-uis\n"
        "param = n\n"
        "values = 40,60\n"
        "trials = 10\n")
    code, out, _ = run(capsys, "experiment", "--plan", str(plan),
                       "-o", str(csv))
    assert code == 0
    assert csv.read_text().startswith("param,p10,p50,p90")
    code, out, _ = run(capsys, "plot", "--csv", str(csv),
                       "--xlabel", "sample size", "-o", str(svg))
    assert code == 0
    assert svg.read_text().startswith("<svg")
    # Markup characters in the label are escaped, not written raw.
    label = "m < n & theta > 0"
    code, out, _ = run(capsys, "plot", "--csv", str(csv),
                       "--xlabel", label, "-o", str(svg))
    assert code == 0
    texts = ElementTree.fromstring(svg.read_text()).iter(
        "{http://www.w3.org/2000/svg}text")
    assert label in [t.text for t in texts]


def test_experiment_bad_plan_is_config_error(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text("graph = gen:er:nodes=50,p=0.1,seed=1\nmethod = uis\n")
    code, _, err = run(capsys, "experiment", "--plan", str(plan),
                       "-o", str(tmp_path / "x.csv"))
    assert code == 2


def test_plot_rejects_foreign_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    code, _, err = run(capsys, "plot", "--csv", str(bad),
                       "-o", str(tmp_path / "x.svg"))
    assert code == 3


def _one_line_error(code, out, err, rc):
    assert code == rc
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("estimator", ["capture", "ind-a"])
def test_estimator_rejecting_its_sample_is_data_error(tmp_path, capsys,
                                                      estimator):
    edges = tmp_path / "g.txt"
    sample = tmp_path / "s.tsv"
    run(capsys, "gen", "gen:grid:rows=3,cols=3", "-o", str(edges))
    run(capsys, "sample", "--graph", str(edges), "--method", "uis",
        "--n", "1", "-o", str(sample))
    _one_line_error(*run(capsys, "estimate", "--sample", str(sample),
                         "--estimator", estimator), 3)
    # So is a plan whose n is too small for its estimator.
    plan = tmp_path / "plan.txt"
    plan.write_text("graph = gen:grid:rows=3,cols=3\nmethod = uis\nn = 1\n"
                    f"estimator = {estimator}\nparam = n\nvalues = 1\n"
                    "trials = 2\n")
    _one_line_error(*run(capsys, "experiment", "--plan", str(plan),
                         "-o", str(tmp_path / "x.csv")), 3)


_CSV_HEADER = "param,p10,p50,p90,infinite_fraction,trials\n"


@pytest.mark.parametrize("rows,message", [
    ("", "no summaries to plot"),
    ("40,1,1,1,0,10\n60,1\n", "line 3: expected 6 comma-separated fields, "
                             "got 2"),
    ("40,1,1,1,0,10,7\n", "line 2: expected 6"),
    ("40,1,one,1,0,10\n", "line 2: p50 'one' is not a finite number"),
    ("40,nan,1,1,0,10\n", "line 2: p10 'nan' is not a finite number"),
    ("40,,,,inf,10\n", "line 2: infinite_fraction 'inf' is not a finite"),
    ("40,,,,1,2.5\n", "line 2: trials '2.5' is not a finite number"),
    ("x,,,,1,10\n", "line 2: param 'x' is not a finite number"),
    ("0,0.9,,1.1,0,3\n", "line 2: p10, p50 and p90 must be all empty or "
                         "all present"),
    ("40,1,1,1,0,10\n0,,1.0,1.1,0,3\n", "line 3: p10, p50 and p90"),
    ("0,-9e307,0,9e307,0,3\n", "percentiles span more than the float range"),
    ("1,0.5,1,1.5,7,-3\n", "line 2: infinite_fraction '7' is not in [0, 1]"),
    ("1,0.5,1,1.5,-0.1,3\n", "line 2: infinite_fraction '-0.1' is not in"),
    ("1,0.5,1,1.5,0,-3\n", "line 2: trials '-3' is below 1"),
    ("1,,,,1,0\n", "line 2: trials '0' is below 1"),
    ("1,2,1,0,0,5\n", "line 2: p10, p50 and p90 must not decrease"),
    ("1,0,2,1,0,5\n", "line 2: p10, p50 and p90 must not decrease"),
    # Percentiles are empty exactly when every trial was infinite.
    ("1,,,,0,3\n", "line 2: p10, p50 and p90 are empty with "
                   "infinite_fraction '0'; they are empty exactly when it "
                   "is 1"),
    ("2,1,1,1,1,3\n", "line 2: p10, p50 and p90 are present with "
                      "infinite_fraction '1'"),
])
def test_plot_names_a_malformed_csv(tmp_path, capsys, rows, message):
    csv = tmp_path / "out.csv"
    csv.write_text(_CSV_HEADER + rows)
    err = _one_line_error(*run(capsys, "plot", "--csv", str(csv),
                               "-o", str(tmp_path / "x.svg")), 3)
    assert message in err


@pytest.mark.parametrize("spec,message", [
    ("gen:er:nodes=x,p=0.1", "generator key 'nodes': expected an integer"),
    ("gen:er:nodes=10,p=abc", "generator key 'p': expected a finite number"),
    ("gen:ba:nodes=50,m=3,seed=1.5", "generator key 'seed'"),
    ("gen:grid:rows=3", "missing 'cols'"),
    ("gen:er:nodes=0,p=0.1", "n must be >= 1"),
    ("gen:ba:nodes=100,m=3,sed=5", "unknown generator key 'sed'"),
    ("gen:er:nodes=10,nodes=20,p=0.1", "duplicate generator key 'nodes'"),
])
def test_bad_generator_value_is_config_error(tmp_path, capsys, spec, message):
    plan = tmp_path / "plan.txt"
    plan.write_text(f"graph = {spec}\nmethod = uis\nn = 10\n"
                    "estimator = node-uis\nparam = n\nvalues = 10\n")
    for argv in (["gen", spec, "-o", str(tmp_path / "g.txt")],
                 ["graphstat", spec],
                 ["sample", "--graph", spec, "--method", "uis", "--n", "5",
                  "-o", str(tmp_path / "s.tsv")],
                 ["experiment", "--plan", str(plan),
                  "-o", str(tmp_path / "x.csv")]):
        err = _one_line_error(*run(capsys, *argv), 2)
        assert message in err


def test_an_oversize_ba_is_refused_before_it_draws():
    # Without the size check this spec grows a Python list until memory
    # runs out, so the child gets 1 GiB of address space and 20 s of CPU.
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
        resource.setrlimit(resource.RLIMIT_CPU, (20, 20))

    src = str(Path(graphsize.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "graphsize.cli", "graphstat",
         "gen:ba:nodes=2147483648,m=2,seed=1"], capture_output=True,
        text=True, preexec_fn=cap, timeout=60,
        env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"})
    assert (done.returncode, done.stdout) == (2, "")
    [line] = done.stderr.splitlines()
    assert line.startswith("error: ") and "nodes=2147483648, m=2:" in line


@pytest.mark.parametrize("argv, message", [
    (["estimate", "--sample", "s.tsv", "--estimator", "capture", "--seed",
      "abc"], "argument --seed: invalid int value: 'abc'"),
    (["estimate", "--sample", "s.tsv", "--estimator", "capture", "--seed",
      "9" * 5000], "... (5038 characters)"),
    (["estimate", "--sample", "s.tsv", "--estimator", "bogus"],
     "argument --estimator: invalid choice: 'bogus'"),
    (["sample", "--graph", "g.txt", "--method", "uis", "--n", "5", "-o",
      "s.tsv", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    # Flags are matched in full only, never by a prefix.
    (["estimate", "--sam", "s.tsv", "--est", "node-uis"],
     "the following arguments are required: --sample, --estimator"),
    (["sample", "--graph", "g.txt", "--meth", "uis", "--n", "5", "-o",
      "s.tsv"], "the following arguments are required: --method"),
    ([], "the following arguments are required: command"),
    (["plot"], "the following arguments are required: --csv, -o/--output"),
    # A flag that nothing in the configuration reads.
    (["sample", "--graph", "g.txt", "--method", "rw", "--n", "5", "-o",
      "s.tsv", "--weight-rule", "unit"],
     "weight rule 'unit' is read only by wis sampling"),
    (["estimate", "--sample", "s.tsv", "--estimator", "node-uis", "--seed",
      "5"], "--seed (5) is read only by estimator capture"),
])
def test_flag_errors_are_one_line_config_errors(capsys, argv, message):
    # argparse's own errors: no usage block, and a long value is cut.
    err = _one_line_error(*run(capsys, *argv), 2)
    assert message in err and len(err) < 200


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: graphsize estimate")


def test_negative_seed_is_config_error(tmp_path, capsys):
    # Neither the graph nor the sample file exists: the seed is checked first.
    missing = str(tmp_path / "missing.txt")
    plan = tmp_path / "plan.txt"
    plan.write_text(f"graph = {missing}\nmethod = uis\nn = 10\n"
                    "estimator = node-uis\nparam = n\nvalues = 10\n"
                    "base_seed = -1\n")
    for argv, key in [
            (["sample", "--graph", missing, "--method", "uis", "--n", "5",
              "--seed", "-1", "-o", str(tmp_path / "s.tsv")], "--seed"),
            (["estimate", "--sample", missing, "--estimator", "capture",
              "--seed", "-1"], "--seed"),
            (["experiment", "--plan", str(plan),
              "-o", str(tmp_path / "x.csv")], "base_seed")]:
        err = _one_line_error(*run(capsys, *argv), 2)
        assert f"{key} must be >= 0, got -1" in err


def test_non_integer_grid_value_is_config_error(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text("graph = gen:er:nodes=100,p=0.1,seed=1\nmethod = rw\n"
                    "lcc = true\nn = 50\nestimator = ind-b\n"
                    "correction = margin\nparam = m\nvalues = 2.9,3\n")
    err = _one_line_error(*run(capsys, "experiment", "--plan", str(plan),
                               "-o", str(tmp_path / "x.csv")), 2)
    assert "m grid value 2.9 is not an integer" in err


def test_duplicate_plan_key_is_config_error(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    # The graph file does not exist: the plan is rejected before loading it.
    plan.write_text(f"graph = {tmp_path / 'missing.txt'}\nmethod = uis\n"
                    "n = 10\nestimator = node-uis\nparam = n\nvalues = 10\n"
                    "trials = 3\n# again\ntrials = 5\n")
    err = _one_line_error(*run(capsys, "experiment", "--plan", str(plan),
                               "-o", str(tmp_path / "x.csv")), 2)
    assert "plan line 9: duplicate key 'trials'" in err


def test_edge_list_id_of_2_64_is_a_data_error(tmp_path, capsys):
    edges = tmp_path / "g.txt"
    edges.write_text("1 18446744073709551615\n1 18446744073709551616\n"
                     "1 2\n2 3\n")
    for argv in (["graphstat", str(edges)],
                 ["sample", "--graph", str(edges), "--method", "uis",
                  "--n", "2", "-o", str(tmp_path / "s.tsv")]):
        err = _one_line_error(*run(capsys, *argv), 3)
        assert "line 2: node id not below 2^64" in err


def _rw_sample_file(tmp_path, capsys):
    edges = tmp_path / "g.txt"
    sample = tmp_path / "s.tsv"
    run(capsys, "gen", "gen:er:nodes=60,p=0.15,seed=4", "-o", str(edges))
    run(capsys, "sample", "--graph", str(edges), "--method", "rw",
        "--n", "80", "--lcc", "--seed", "5", "-o", str(sample))
    return sample


def _rewrite(path, header=lambda h: h, record=lambda f: f):
    """Rewrite a sample file, mapping its header and each record's fields."""
    head, *body = path.read_text().splitlines()
    lines = [header(head)] + ["\t".join(record(b.split("\t"))) for b in body]
    path.write_text("\n".join(lines) + "\n")


def _at_record_3(field, value):
    return lambda f: f[:field] + [value(f[field])] + f[field + 1:] \
        if f[0] == "3" else f


@pytest.mark.parametrize("rewrite", [
    *(pytest.param(_at_record_3(3, lambda _, w=w: w), id=w)
      for w in ("nan", "inf", "0.0", "-2.5")),
    pytest.param(_at_record_3(2, lambda d: str(int(d) + 1)), id="degree"),
    # Consecutive walk nodes differ, so their snapshots differ too.
    pytest.param(lambda f: f[:1] + ["0"] + f[2:], id="snapshot"),
    pytest.param(_at_record_3(0, lambda _: "4"), id="position"),
    pytest.param(lambda f: f[:5] if f[0] == "3" else f, id="fields"),
    *(pytest.param(_at_record_3(k, lambda _: "x1"), id=f"{name}-text")
      for k, name in enumerate(("position", "node", "degree", "weight",
                                "walker"))),
    pytest.param(_at_record_3(5, lambda ids: ids + "x"), id="neighbor-text"),
])
def test_estimate_rejects_invalid_weight(tmp_path, capsys, rewrite):
    sample = _rw_sample_file(tmp_path, capsys)
    _rewrite(sample, record=rewrite)
    code, out, err = run(capsys, "estimate", "--sample", str(sample),
                         "--estimator", "node-wis")
    assert code == 3
    assert out == ""
    assert err.startswith("error: record ") and err.count("\n") == 1


_OUT_OF_RANGE = ("error: estimator {}: the sample's weights take its sums "
                 "outside the float range\n")


def test_estimate_that_overflows_is_data_error(tmp_path, capsys):
    # sum(w) * sum(1/w) overflows: the estimate is not a JSON number.
    sample = _rw_sample_file(tmp_path, capsys)
    weights = {"3": "1e300", "4": "1e-300"}
    _rewrite(sample, record=lambda f: f[:3] + [weights.get(f[0], f[3])]
             + f[4:])
    err = _one_line_error(*run(capsys, "estimate", "--sample", str(sample),
                               "--estimator", "node-wis"), 3)
    assert err == _OUT_OF_RANGE.format("node-wis")


@pytest.mark.parametrize("correction", [
    [], ["--correction", "margin"], ["--correction", "thin-shifted"]])
def test_weights_whose_sum_overflows_are_data_error(tmp_path, capsys,
                                                    correction):
    # Every weight is finite, but 80 of them sum past the float range.
    sample = _rw_sample_file(tmp_path, capsys)
    _rewrite(sample, record=lambda f: f[:3] + ["1.5e+308"] + f[4:])
    err = _one_line_error(*run(capsys, "estimate", "--sample", str(sample),
                               "--estimator", "node-wis", *correction), 3)
    assert err == _OUT_OF_RANGE.format("node-wis")


@pytest.mark.parametrize("flags", [
    ["node-wis"], ["ind-b"],
    ["node-wis", "--correction", "margin", "--margin", "3"],
    ["ind-b", "--correction", "margin", "--margin", "3", "--a-mode",
     "multiset"],
    ["ind-b", "--correction", "margin", "--margin", "3"],
    ["ind-b", "--correction", "thin-shifted", "--theta", "3"],
    ["node-wis", "--correction", "cross-walker"],
    ["ind-b", "--correction", "cross-walker", "--a-mode", "multiset"],
    ["ind-b", "--correction", "cross-walker"],
], ids=" ".join)
def test_a_subnormal_weight_is_one_error_line(tmp_path, capsys, flags):
    # 1 / 1e-320 overflows, and sums and window differences of it turn
    # inf or NaN: one error line, and no numpy warning besides.
    edges, sample = tmp_path / "g.txt", tmp_path / "s.tsv"
    run(capsys, "gen", "gen:er:nodes=60,p=0.15,seed=4", "-o", str(edges))
    run(capsys, "sample", "--graph", str(edges), "--method", "rw-multi",
        "--walkers", "2", "--n", "80", "--lcc", "--seed", "5",
        "-o", str(sample))
    _rewrite(sample, record=_at_record_3(3, lambda _: "1e-320"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _one_line_error(*run(capsys, "estimate", "--sample",
                                   str(sample), "--estimator", *flags), 3)
    assert err == _OUT_OF_RANGE.format(flags[0])


def test_route_a_answers_at_any_weight_scale(tmp_path, capsys):
    # Route A's products of sums left the float range at these scales: 0/0
    # read as no collisions, and inf/inf gave NaN.
    sample = tmp_path / "s.tsv"
    run(capsys, "sample", "--graph", "gen:er:nodes=30,p=0.3,seed=1",
        "--method", "rw", "--n", "80", "--seed", "1", "--lcc",
        "-o", str(sample))
    text = sample.read_text()

    def estimates(scale):
        sample.write_text(text)
        _rewrite(sample, record=lambda f: f[:3]
                 + [repr(float(f[3]) * scale)] + f[4:])
        for name in ("ind-a", "node-wis", "ind-b"):
            code, out, err = run(capsys, "estimate", "--sample", str(sample),
                                 "--estimator", name)
            assert (code, err) == (0, "")
            yield json.loads(out)["estimate"]

    base = list(estimates(1.0))
    assert base[0] == pytest.approx(30.63, abs=0.01)
    for scale in (1e150, 1e-150):
        assert list(estimates(scale)) == pytest.approx(base, rel=1e-12)


def _edge_sample(tmp_path, capsys, weights):
    """A WIS sample file over the one-edge graph 0-1: node 0 at weight
    1e300, then node 1 at each of ``weights``."""
    edges = tmp_path / "g.txt"
    edges.write_text("0 1\n")
    sample = tmp_path / "s.tsv"
    n = 1 + len(weights)
    run(capsys, "sample", "--graph", str(edges), "--method", "wis",
        "--n", str(n), "-o", str(sample))
    records = [["0", "0", "1", "1e300", "0", "1"]] + [
        [str(p), "1", "1", w, "0", "0"] for p, w in enumerate(weights, 1)]
    _rewrite(sample, record=lambda f: records[int(f[0])])
    return sample


def test_route_a_sums_a_dominant_inverse_weight_exactly(tmp_path, capsys):
    # Unscaled, 1/w^2 overflows, but the pair sum 1/(1e300 * 1e-300) is 1:
    # taken exactly, route A answers the graph's two nodes.
    sample = _edge_sample(tmp_path, capsys, ["1e-300"])
    code, out, err = run(capsys, "estimate", "--sample", str(sample),
                         "--estimator", "ind-a")
    assert (code, err) == (0, "")
    assert json.loads(out)["estimate"] == 2.0


def test_route_a_names_weights_it_cannot_sum(tmp_path, capsys):
    # Unscaled, the pair sum of node 1's two records is about 1e600;
    # scaled to the larger inverse weight, node 0's vanishes, and with it
    # the pair sums of the edge 0-1.
    sample = _edge_sample(tmp_path, capsys, ["1e-300", "1e-300"])
    err = _one_line_error(*run(capsys, "estimate", "--sample", str(sample),
                               "--estimator", "ind-a"), 3)
    assert err == ("error: route A (ind-a): weights from 1e-300 to 1e+300 "
                   "take its sums outside the float range\n")


def test_uniform_sample_with_a_weight_other_than_1_is_data_error(tmp_path,
                                                                 capsys):
    sample = tmp_path / "s.tsv"
    run(capsys, "sample", "--graph", "gen:er:nodes=30,p=0.3,seed=1",
        "--method", "uis", "--n", "20", "-o", str(sample))
    _rewrite(sample, record=_at_record_3(3, lambda _: "2.0"))
    for name in ("node-uis", "node-wis", "ind-a", "ind-b"):
        err = _one_line_error(*run(capsys, "estimate", "--sample",
                                   str(sample), "--estimator", name), 3)
        assert err == ("error: record 3: weight must be 1 in a UIS sample, "
                       "got 2.0\n")


@pytest.mark.parametrize("refusal, reason", [
    ("size", "too big"), ("numpy", "Unable to allocate"),
    ("python", "out of memory")])
def test_a_sample_too_large_to_allocate_is_data_error(tmp_path, capsys,
                                                      monkeypatch, refusal,
                                                      reason):
    # numpy refuses 2^60 draws of 8 bytes (ValueError) before allocating
    # anything; an allocation that fails raises MemoryError, faked here,
    # with numpy's message or with none, as Python's own allocator does.
    if refusal != "size":
        error = MemoryError(reason) if refusal == "numpy" else MemoryError()

        def draw(*args):
            raise error
        monkeypatch.setattr("graphsize.cli.draw_sample", draw)
    out = tmp_path / "s.tsv"
    err = _one_line_error(*run(capsys, "sample", "--graph",
                               "gen:er:nodes=50,p=0.2,seed=1", "--method",
                               "uis", "--n", str(2**60), "-o", str(out)), 3)
    assert reason in err
    assert list(tmp_path.iterdir()) == []


def test_estimate_rejects_header_without_count(tmp_path, capsys):
    sample = _rw_sample_file(tmp_path, capsys)
    _rewrite(sample, header=lambda h: "\t".join(
        f for f in h.split("\t") if not f.startswith("n=")))
    code, out, err = run(capsys, "estimate", "--sample", str(sample),
                         "--estimator", "node-wis")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def _digits_at_record_3(field):
    """A text rewrite: field ``field`` of record 3 becomes 5000 nines, more
    digits than int() converts by default."""
    at = _at_record_3(field, lambda _: "9" * 5000)
    return lambda t: "\n".join("\t".join(at(line.split("\t")))
                               for line in t.split("\n"))


@pytest.mark.parametrize("rewrite,named", [
    pytest.param(lambda t: t.replace("\n", "\tloose\n", 1), "'loose'",
                 id="header-field"),
    pytest.param(lambda t: re.sub(r"\tseed=\d+", "\tseed=five", t),
                 "seed=five", id="seed"),
    pytest.param(lambda t: re.sub(r"\tn=\d+", "\tn=80.0", t), "n=80.0",
                 id="count"),
    # int() reads each of these header values; only ASCII digits are read.
    *(pytest.param(lambda t, key=key, value=value: re.sub(
        rf"\t{key}=\d+", f"\t{key}={value}", t), f"{key}={value} is not",
        id=f"{key}-{label}")
      for key, value, label in [("seed", "-1_0", "signed"),
                                ("seed", "+5", "plus"),
                                ("seed", "\u0665", "arabic-indic"),
                                ("n", " +8_0", "spaced"),
                                ("n", "8_0", "underscore")]),
    pytest.param(lambda t: re.sub(r"\tseed=\d+", "\tseed=" + "9" * 5000, t),
                 "seed=9999", id="seed-beyond-int-digit-limit"),
    pytest.param(lambda t: re.sub(r"\tn=\d+\n.*", "\tn=0\n", t,
                                  flags=re.DOTALL), "no records",
                 id="no-records"),
    pytest.param(lambda t: t.replace("\tseed=", "\tseed=1\tseed=", 1),
                 "sample header key 'seed' given twice", id="key-twice"),
    *(pytest.param(_digits_at_record_3(field), f"record 3: {name} '9999",
                   id=f"{name}-digits")
      for field, name in [(0, "position"), (1, "node"), (2, "degree"),
                          (4, "walker"), (5, "snapshot")]),
])
def test_estimate_rejects_malformed_sample_file(tmp_path, capsys, rewrite,
                                                named):
    sample = _rw_sample_file(tmp_path, capsys)
    sample.write_text(rewrite(sample.read_text()))
    for flags in (["--estimator", "node-wis", "--correction", "margin"],
                  ["--estimator", "ind-b"]):
        code, out, err = run(capsys, "estimate", "--sample", str(sample),
                             *flags)
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert named in err


_SNAPSHOT = ",".join(["1"] * 299_999 + ["x"])


@pytest.mark.parametrize("rewrite,named,length", [
    pytest.param(lambda t: t.replace("\n", "\t" + "z" * 500_000 + "\n", 1),
                 "sample header field 'zzz", 500_000, id="header-field"),
    pytest.param(lambda t: re.sub(r"\tmethod=\w+", "\tmethod=" + "R" * 500_000,
                                  t),
                 "unknown sampling method 'RRR", 500_000, id="method"),
    pytest.param(lambda t: re.sub(r"(?m)^(3\t(?:[^\t]*\t){4})[^\n]*",
                                  lambda m: m[1] + _SNAPSHOT, t),
                 "record 3: snapshot '1,1,", len(_SNAPSHOT), id="snapshot"),
])
def test_sample_file_errors_cut_long_input(tmp_path, capsys, rewrite, named,
                                           length):
    sample = _rw_sample_file(tmp_path, capsys)
    sample.write_text(rewrite(sample.read_text()))
    err = _one_line_error(*run(capsys, "estimate", "--sample", str(sample),
                               "--estimator", "node-wis"), 3)
    assert len(err) < 300 and named in err
    assert f"... ({length} characters)" in err


def test_edge_list_errors_cut_long_input(tmp_path, capsys):
    edges = tmp_path / "g.txt"
    edges.write_bytes(b"\0" * 1_000_000 + b"\n1 2\n")
    err = _one_line_error(*run(capsys, "sample", "--graph", str(edges),
                               "--method", "uis", "--n", "2",
                               "-o", str(tmp_path / "s.tsv")), 3)
    assert len(err) < 300
    assert err.startswith("error: line 1: expected two node ids: '\\x00")
    assert err.endswith("'... (1000000 characters)\n")


@pytest.mark.parametrize("text", ["", "a" * 80, "\0" * 80, "5\t6"])
def test_excerpt_shows_short_input_whole(text):
    assert _excerpt(text) == repr(text)
    assert _excerpt(text, quote=False) == text


@pytest.mark.parametrize("text,head", [("a" * 81, "a" * 80),
                                       ("\0" * 81, "\0" * 20),
                                       ("ab\0" * 30, "ab\0" * 13 + "ab")])
def test_excerpt_cuts_long_input(text, head):
    assert _excerpt(text) == f"{head!r}... ({len(text)} characters)"
    assert _excerpt(text, quote=False) == f"{head}... ({len(text)} characters)"


def test_plan_errors_cut_long_input(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text("graph = gen:grid:rows=3,cols=3\nmethod = uis\n"
                    f"n = {'9' * 500_000}x\nestimator = node-uis\n"
                    "param = n\nvalues = 10\n")
    err = _one_line_error(*run(capsys, "experiment", "--plan", str(plan),
                               "-o", str(tmp_path / "x.csv")), 2)
    assert len(err) < 300
    assert "plan key 'n': expected an integer, got '999" in err
    assert "... (500001 characters)" in err


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
def test_estimate_reads_every_newline_convention(tmp_path, capsys, newline):
    sample = _rw_sample_file(tmp_path, capsys)
    flags = ["--estimator", "ind-b", "--correction", "margin", "--margin", "3"]
    want = run(capsys, "estimate", "--sample", str(sample), *flags)
    assert want[0] == 0
    sample.write_bytes(sample.read_bytes().replace(b"\n", newline))
    assert run(capsys, "estimate", "--sample", str(sample), *flags) == want


@pytest.mark.parametrize("line", [0, -2])
def test_estimate_rejects_a_sample_that_is_not_utf8(tmp_path, capsys, line):
    # As in text mode, the file fails to decode before any record is read:
    # record 3's weight is not the error named.
    sample = _rw_sample_file(tmp_path, capsys)
    _rewrite(sample, record=_at_record_3(3, lambda _: "nan"))
    lines = sample.read_bytes().split(b"\n")
    lines[line] += b"\xff"
    sample.write_bytes(b"\n".join(lines))
    err = _one_line_error(*run(capsys, "estimate", "--sample", str(sample),
                               "--estimator", "node-wis"), 3)
    assert "'utf-8' codec can't decode" in err


@pytest.mark.parametrize("snapshot,accepted", [
    pytest.param(lambda ids: "0" + ids, True, id="zero-padded"),
    pytest.param(lambda ids: ",".join(ids.split(",")[::-1]), False,
                 id="reordered"),
])
def test_estimate_reads_a_repeated_snapshot_by_value(tmp_path, capsys,
                                                     snapshot, accepted):
    sample = _rw_sample_file(tmp_path, capsys)
    flags = ["--estimator", "ind-b", "--correction", "margin", "--margin", "3"]
    before = run(capsys, "estimate", "--sample", str(sample), *flags)
    records = [line.split("\t") for line in sample.read_text().splitlines()[1:]]
    repeat = next(f[0] for p, f in enumerate(records) if int(f[2]) > 1
                  and f[1] in {g[1] for g in records[:p]})
    _rewrite(sample, record=lambda f: f[:5] + [snapshot(f[5])]
             if f[0] == repeat else f)
    code, out, err = run(capsys, "estimate", "--sample", str(sample), *flags)
    if accepted:
        assert (code, out, err) == before
    else:
        assert (code, out) == (3, "")
        assert err.startswith(f"error: record {repeat}: node ")
        assert err.count("\n") == 1


@pytest.mark.parametrize("offset", [2**62, 2**64 - 2**10])
def test_margin_estimates_ignore_id_magnitude(tmp_path, capsys, offset):
    sample = _rw_sample_file(tmp_path, capsys)
    configs = [["--estimator", "node-wis", "--correction", "margin",
                "--margin", "3"]]
    configs += [["--estimator", "ind-b", *margin, "--a-mode", mode]
                for margin in (["--correction", "margin", "--margin", "3"], [])
                for mode in ("multiset", "set")]
    configs.append(["--estimator", "capture"])

    def estimates():
        payloads = []
        for config in configs:
            code, out, err = run(capsys, "estimate", "--sample", str(sample),
                                 *config)
            assert code == 0, err
            payloads.append(json.loads(out))
        return payloads

    small = estimates()

    def shift(ids):
        return ",".join(str(int(v) + offset) for v in ids.split(",") if v)

    _rewrite(sample, record=lambda f: f[:1] + [shift(f[1])] + f[2:5]
             + [shift(f[5])])
    assert estimates() == small


@pytest.mark.parametrize("method", ["FOO", "uis"])
def test_estimate_rejects_unknown_sample_method(tmp_path, capsys, method):
    sample = _rw_sample_file(tmp_path, capsys)
    _rewrite(sample, header=lambda h: h.replace("method=RW", f"method={method}"))
    code, out, err = run(capsys, "estimate", "--sample", str(sample),
                         "--estimator", "node-wis")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("flags", [
    ["--estimator", "node-wis", "--correction", "thin", "--theta", "0"],
    ["--estimator", "ind-b", "--correction", "thin-shifted", "--theta", "-2"],
    ["--estimator", "ind-b", "--correction", "margin", "--margin", "-1"],
    ["--estimator", "node-uis", "--correction", "margin"],
    # A parameter that nothing in the configuration reads.
    ["--estimator", "node-uis", "--theta", "5"],
    ["--estimator", "ind-b", "--correction", "margin", "--theta", "2"],
    ["--estimator", "node-uis", "--margin", "3"],
    ["--estimator", "ind-b", "--correction", "thin", "--margin", "3"],
    ["--estimator", "node-uis", "--a-mode", "multiset"],
    ["--estimator", "node-wis", "--correction", "margin", "--a-mode",
     "multiset"],
    ["--estimator", "ind-b", "--seed", "5"],
])
def test_estimate_flag_errors_precede_reading(tmp_path, capsys, flags):
    # Configuration errors exit 2 whether or not the sample file exists.
    for sample in (_rw_sample_file(tmp_path, capsys), tmp_path / "missing"):
        code, out, err = run(capsys, "estimate", "--sample", str(sample),
                             *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("flags", [
    ["--n", "0"], ["--walkers", "0", "--n", "9"], ["--walkers", "2"],
    ["--walkers", "4", "--n", "3"], ["--method", "uis", "--walkers", "7"],
    ["--method", "rw", "--walkers", "2"], ["--weight-rule", "unit"],
    ["--method", "uis", "--weight-rule", "unit"]])
def test_sample_flag_errors_precede_loading_the_graph(tmp_path, capsys, flags):
    edges = tmp_path / "g.txt"
    run(capsys, "gen", "gen:grid:rows=3,cols=3", "-o", str(edges))
    for graph in (edges, tmp_path / "missing.txt"):
        code, out, err = run(capsys, "sample", "--graph", str(graph),
                             "--method", "rw-multi", "--n", "9", *flags,
                             "-o", str(tmp_path / "s.tsv"))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("line", [
    "values = 0,-5", "a_mode = bag", "n = abc", "trials = ten", "m = -1",
    "walkers = 0", "param = n\nvalues = 0,50",
    "method = rw-multi\nwalkers = 2\nparam = n\nvalues = 50,51",
    "walkers = 2", "theta = 3", "estimator = node-wis\na_mode = multiset",
    "correction = none\nparam = n\nvalues = 10\nm = 4",
    "weight_rule = unit",
    "method = wis\nweight_rule = bogus\ncorrection = none\nparam = n\n"
    "values = 10,50"])
def test_experiment_plan_errors_precede_building_the_graph(tmp_path, capsys,
                                                           line):
    plan = tmp_path / "plan.txt"
    # The graph file does not exist: reading it would be a data error (3).
    keys = {"graph": str(tmp_path / "missing.txt"), "method": "rw", "n": "50",
            "estimator": "ind-b", "correction": "margin", "param": "m",
            "values": "0,5"}
    # ``line`` replaces the keys it names: a key given twice is an error.
    keys.update(pair.split(" = ") for pair in line.split("\n"))
    plan.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    code, out, err = run(capsys, "experiment", "--plan", str(plan),
                         "-o", str(tmp_path / "x.csv"))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    key = line.split(" = ")[0]
    if key in ("n", "trials"):
        assert f"plan key '{key}'" in err
    if "bogus" in line:
        assert "unknown weight rule: 'bogus'" in err


def test_estimate_calls_each_kernel_once(tmp_path, capsys, monkeypatch):
    from collections import Counter
    from graphsize import ind_estimators, node_estimators, rw_correction

    sample = _rw_sample_file(tmp_path, capsys)
    calls = Counter()
    for module, name in [(node_estimators, "node_wis_ratio"),
                         (ind_estimators, "inda_wis_ratio"),
                         (rw_correction, "margin_ratios")]:
        def counted(*args, _kernel=getattr(module, name), _name=name):
            calls[_name] += 1
            return _kernel(*args)
        monkeypatch.setattr(module, name, counted)
    for flags in (["--estimator", "node-wis"], ["--estimator", "ind-a"],
                  ["--estimator", "ind-b", "--correction", "margin",
                   "--margin", "3"]):
        code, out, err = run(capsys, "estimate", "--sample", str(sample),
                             *flags)
        assert code == 0, err
        assert json.loads(out)["numerator"] is not None
    assert calls == {"node_wis_ratio": 1, "inda_wis_ratio": 1,
                     "margin_ratios": 1}


def test_readme_lists_the_tables():
    import re
    from pathlib import Path

    from graphsize.experiment import CORRECTIONS, ESTIMATORS, METHODS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    readme = " ".join(readme.split())

    def names(label):
        sentence = re.search(label + r"(.*?)\.(\s|$)", readme).group(1)
        return re.findall(r"`([a-z][a-z-]*)`", sentence)

    assert names("Estimators:") == list(ESTIMATORS)
    assert names("Corrections:") == list(CORRECTIONS)
    assert names("the other corrections apply to") == [
        k for k, v in ESTIMATORS.items() if v.walk_corrections]
    methods = re.search(r"draw a sample \(([^)]*)\)", readme).group(1)
    assert methods.split(" | ") == list(METHODS)
