"""Fuzzing of the CLI's input boundaries.

Each test mutates one small valid input (a sample file, a plan, an
experiment CSV) by inserting, deleting and replacing characters from a small
alphabet, and drives the result through ``cli.main``.  Whatever the input,
main must return 0, 2 or 3 without raising, print exactly one ``error:``
line when it fails, and print valid JSON from a successful ``estimate``.

Examples with a number of more than 3 digits are discarded, and so are plans
whose generated graph could have more than 50 nodes, so that no example
builds a large graph or runs long.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from graphsize.cli import main

from strategies import SAMPLE, mutated

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


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3)
    if code:
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err
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
