"""Uniform sample files against a table of answers recorded before the
uniform kernels of ind-a and ind-b were folded into the weighted ones.

Each case writes a uniform sample file through ``graphsize sample`` and runs
``graphsize estimate`` on it with every estimator and auxiliary mode a
uniform sample allows.  The JSON must equal the recorded one, but for
ind-a's numerator and denominator: the weighted kernel's are the uniform
one's, (n-1)*sum(deg) and 2*n_ind, times n/2.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from graphsize.cli import main

GRAPHS = ("gen:er:nodes=1000,p=0.02,seed=1", "gen:ba:nodes=3000,m=3,seed=2",
          "gen:ring:cliques=20,size=6")
SIZES = (2, 30, 400, 2000)
SEEDS = (0, 1)
FLAGS = (("--estimator", "node-uis"), ("--estimator", "node-wis"),
         ("--estimator", "capture"), ("--estimator", "capture", "--seed", "5"),
         ("--estimator", "mle-approx"), ("--estimator", "mle-exact"),
         ("--estimator", "ind-a"), ("--estimator", "ind-b"),
         ("--estimator", "ind-b", "--a-mode", "multiset"))
TABLE = Path(__file__).parent / "data" / "uis_estimates.json"


def _main(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def answers(workdir: Path) -> dict[str, dict]:
    """The ``estimate`` JSON of every case, keyed by graph, size, seed and
    flags."""
    table = {}
    for graph in GRAPHS:
        for n in SIZES:
            for seed in SEEDS:
                path = workdir / "sample.tsv"
                _main("sample", "--graph", graph, "--method", "uis", "--n",
                      str(n), "--seed", str(seed), "-o", str(path))
                for flags in FLAGS:
                    key = " ".join((graph, str(n), str(seed), *flags))
                    table[key] = json.loads(_main(
                        "estimate", "--sample", str(path), *flags))
    return table


def test_uniform_files_give_the_recorded_answers(tmp_path):
    recorded = json.loads(TABLE.read_text())
    got = answers(tmp_path)
    assert got.keys() == recorded.keys()
    for key, old in recorded.items():
        new = got[key]
        if new["estimator"] == "ind-a":
            half = new["n"] / 2
            assert (new.pop("numerator"), new.pop("denominator")) \
                == (old.pop("numerator") * half, old.pop("denominator") * half)
        assert new == old, key
