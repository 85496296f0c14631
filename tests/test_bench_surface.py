"""The package names the benchmark under ``bench/`` looks up.

``bench/tracing.py`` wraps the module attributes listed in its ``TARGETS``
table for a traced run, ``bench/`` counts records through
``Sample.nodes`` and ``Sample.degrees``, and ``bench/run.py`` imports its
entry points from the package.  A rename under ``src/`` that drops one of
them would leave the benchmark tracing nothing or failing.  The bench files
are read, not imported: nothing is written beside them.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

from graphsize.generators import barabasi_albert
from graphsize.sampling import Sample, sample_rw

BENCH = Path(__file__).parents[1] / "bench"
# Targets whose attributes the package no longer has; a traced run lists
# them in missing_trace_targets.
DEAD = {"graphsize.experiment.node_wis", "graphsize.experiment.inda_wis",
        "graphsize.experiment.ind_margin",
        "graphsize.rw_correction.ind_margin_ratio"}


def _targets() -> list[tuple[str, str]]:
    namespace = {"__name__": "bench_tracing"}
    path = BENCH / "tracing.py"
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         namespace)
    return [(module, attr) for module, attr, *_ in namespace["TARGETS"]]


def test_every_live_trace_target_resolves():
    targets = _targets()
    assert len(targets) > len(DEAD)
    unresolved = [f"{module}.{attr}" for module, attr in targets
                  if f"{module}.{attr}" not in DEAD
                  and not hasattr(importlib.import_module(module), attr)]
    assert unresolved == []


def test_the_benchmark_imports_resolve():
    imported = set()
    for path in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "graphsize"):
                imported |= {(node.module, alias.name)
                             for alias in node.names}
    assert ("graphsize.experiment", "run_experiment") in imported
    unresolved = [f"{module}.{name}" for module, name in sorted(imported)
                  if not hasattr(importlib.import_module(module), name)]
    assert unresolved == []


def test_sample_nodes_and_degrees_list_each_position():
    s = sample_rw(barabasi_albert(50, 2, seed=1), 20, seed=3)
    assert isinstance(s, Sample)
    assert s.nodes() == s.ids[s.rank_column].tolist()
    assert s.degrees() == np.diff(s.offsets)[s.rank_column].tolist()
