"""Fuzzing of the CLI's input boundaries.

Each test mutates one small valid input (a sample file, a plan, an
experiment CSV, a command line) by inserting, deleting and replacing
characters from a small alphabet, or whole arguments, and drives the result
through ``cli.main``.  Whatever the input, main must return 0, 2 or 3
without raising, print exactly one ``error:`` line when it fails, and print
valid JSON from a successful ``estimate``.

Examples with a number of more than 3 digits are discarded, and so are plans
and command lines whose generated graph could have more than 50 nodes, so
that no example builds a large graph or runs long.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from graphsize.cli import main

from strategies import ALPHABET, SAMPLE, mutated

PLAN = """\
graph = gen:er:nodes=30,p=0.2,seed=1
lcc = true
method = rw-multi
walkers = 2
n = 40
estimator = ind-b
correction = margin
a_mode = multiset
param = m
values = 0,2,5
trials = 3
"""

CSV = """\
param,p10,p50,p90,infinite_fraction,trials
0,0.5,0.9,1.2,0,3
5,,,,1,3
10,0.8,1,1.1,0.5,3
"""

ESTIMATE_FLAGS = [
    ["--estimator", "node-uis"],
    ["--estimator", "node-wis"],
    ["--estimator", "capture", "--seed", "3"],
    ["--estimator", "mle-exact"],
    ["--estimator", "ind-a"],
    ["--estimator", "ind-b", "--a-mode", "multiset"],
    ["--estimator", "node-wis", "--correction", "margin", "--margin", "2"],
    ["--estimator", "ind-b", "--correction", "margin", "--margin", "1",
     "--a-mode", "multiset"],
    ["--estimator", "ind-b", "--correction", "margin", "--margin", "1"],
    ["--estimator", "ind-b", "--correction", "thin", "--theta", "2"],
    ["--estimator", "node-wis", "--correction", "thin-shifted",
     "--theta", "3"],
    ["--estimator", "ind-b", "--correction", "cross-walker"],
]


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=reject)


def _run(argv, warns=False):
    """``main(argv)``'s exit code and stdout, after checking the contract;
    ``warns`` lets a success print one ``warning:`` line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3)
    if code:
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err
    elif warns and err:
        assert err.startswith("warning:") and err.count("\n") == 1, err
    else:
        assert err == ""
    return code, out


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(text=mutated(SAMPLE), flags=st.sampled_from(ESTIMATE_FLAGS))
# A short last record: its missing fields must not read past the text.
@example(text="".join(SAMPLE.splitlines(keepends=True)[:3])
         + "2\t6\t6.0\t1\t0,3", flags=ESTIMATE_FLAGS[0])
def test_estimate_survives_a_mutated_sample_file(workdir, text, flags):
    path = workdir / "sample.tsv"
    path.write_text(text, encoding="utf-8")
    code, out = _run(["estimate", "--sample", str(path), *flags])
    if code == 0:
        payload = _strict_json(out)
        assert payload["estimator"] == flags[1]


@settings(max_examples=150, deadline=None)
@given(text=mutated(PLAN))
def test_experiment_survives_a_mutated_plan(workdir, text):
    for line in text.splitlines():
        if "gen" in line:
            assume(all(int(v) <= 50 for v in re.findall(r"\d+", line)))
    path = workdir / "plan.txt"
    path.write_text(text, encoding="utf-8")
    code, out = _run(["experiment", "--plan", str(path),
                      "-o", str(workdir / "plan.csv")])
    if code == 0:
        assert out.startswith("wrote ")


@settings(max_examples=300, deadline=None)
@given(text=mutated(CSV))
def test_plot_survives_a_mutated_csv(workdir, text):
    path = workdir / "plot.csv"
    path.write_text(text, encoding="utf-8")
    code, out = _run(["plot", "--csv", str(path),
                      "-o", str(workdir / "plot.svg")])
    if code == 0:
        assert (workdir / "plot.svg").read_text().startswith("<svg")


# A valid command line per subcommand.  Paths are relative: the test runs in
# its work directory, and no edit can add a '/' to leave it.
GRAPH = "gen:er:nodes=30,p=0.2,seed=1"
ARGVS = [
    ["graphstat", GRAPH],
    ["gen", "gen:ba:nodes=30,m=2,seed=1", "-o", "g.txt"],
    ["sample", "--graph", GRAPH, "--method", "rw-multi", "--n", "40",
     "--walkers", "2", "--seed", "3", "--lcc", "-o", "s.tsv"],
    ["sample", "--graph", GRAPH, "--method", "wis", "--weight-rule", "unit",
     "--n", "20", "-o", "s.tsv"],
    ["estimate", "--sample", "in.tsv", "--estimator", "ind-b",
     "--correction", "margin", "--margin", "2", "--a-mode", "multiset",
     "--theta", "1", "--seed", "3"],
    ["experiment", "--plan", "in.plan", "-o", "out.csv"],
    ["plot", "--csv", "in.csv", "--xlabel", "m", "-o", "out.svg"],
]
WORDS = sorted({arg for argv in ARGVS for arg in argv
                if arg.startswith("-")} | {argv[0] for argv in ARGVS})


@st.composite
def mutated_argv(draw):
    """A command line of ``ARGVS`` after one to three edits: an argument
    replaced by a flag or subcommand name, edited as text by ``mutated``,
    deleted, or a name or short text inserted.  The subcommand is edited in
    one example of eight."""
    command, *argv = draw(st.sampled_from(ARGVS))
    name = st.sampled_from(WORDS)
    for _ in range(draw(st.integers(1, 3))):
        cut = draw(st.sampled_from(("name", "text", "delete", "insert")))
        if cut == "insert" or not argv:
            argv.insert(draw(st.integers(0, len(argv))), draw(
                name | st.text(st.sampled_from(ALPHABET), max_size=3)))
            continue
        at = draw(st.integers(0, len(argv) - 1))
        if cut == "delete":
            del argv[at]
        else:
            argv[at] = draw(name if cut == "name" else mutated(argv[at]))
    if draw(st.sampled_from(range(8))) == 7:
        command = draw(st.sampled_from((None, "")) | name | mutated(command))
    argv = [command, *argv] if command is not None else argv
    for arg in argv:
        # No example asks for help or names a graph of more than 50 nodes.
        assume(not arg.startswith(("-h", "--h")))
        assume(not re.search(r"\d{4}", arg))
        if "gen" in arg:
            assume(all(int(v) <= 50 for v in re.findall(r"\d+", arg)))
    return argv


ESTIMATE = ["estimate", "--sample", "in.tsv", "--estimator", "capture"]


@settings(max_examples=300, deadline=None)
@given(argv=mutated_argv())
@example(argv=ESTIMATE + ["--seed", "9" * 5000])
@example(argv=ESTIMATE[:-1] + ["bogus"])
@example(argv=ESTIMATE + ["--bogus", "1"])
@example(argv=[])
def test_cli_survives_a_mutated_command_line(workdir, argv):
    with contextlib.chdir(workdir):
        for name, text in (("in.tsv", SAMPLE), ("in.plan", PLAN),
                           ("in.csv", CSV)):
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(text)
        code, out = _run(argv, warns=argv[:1] == ["graphstat"])
    if code == 0 and argv[0] == "estimate":
        _strict_json(out)
