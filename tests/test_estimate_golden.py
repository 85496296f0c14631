"""Every printed estimate against a table of recorded lines.

``graphsize estimate`` runs on two small fixed sample files, a 3 x 40
``rw-multi`` walk and a ``wis`` draw of 120 on BA(200, 3), with every
estimator, correction and auxiliary mode that ``check_spec`` admits for the
file's method (a thinning correction at theta = 3, margin at m = 4).  Each
printed line, stdout and stderr with the exit code, must equal the recorded
one byte for byte.  The table was recorded by the command line before
``evaluate`` returned the estimator's own result, so it pins that the
refactor changed no printed byte.
"""

import contextlib
import io
import json
from pathlib import Path

from graphsize.cli import main
from graphsize.core import A_MODES
from graphsize.experiment import (CORRECTIONS, ESTIMATORS, EstimatorSpec,
                                  PlanError, check_spec)

DATA = Path(__file__).parent / "data"
FILES = {"rw-multi": DATA / "golden_rw_multi.sample",
         "wis": DATA / "golden_wis.sample"}
TABLE = DATA / "estimate_golden.json"
VALUES = {"theta": 3, "m": 4}
FLAGS = {"theta": "--theta", "m": "--margin"}


def admitted(method: str) -> list[list[str]]:
    """The ``estimate`` flags of every configuration check_spec admits on a
    file of ``method``."""
    cases = []
    for name in ESTIMATORS:
        for correction, entry in CORRECTIONS.items():
            for a_mode in A_MODES:
                param = ({entry.param: VALUES[entry.param]} if entry.param
                         else {})
                try:
                    check_spec(method, EstimatorSpec(name, correction, a_mode,
                                                     **param))
                except PlanError:
                    continue
                flags = ["--estimator", name, "--correction", correction,
                         "--a-mode", a_mode]
                for key, value in param.items():
                    flags += [FLAGS[key], str(value)]
                cases.append(flags)
    return cases


def printed() -> dict[str, list]:
    """Exit code, stdout and stderr of each case, keyed by method and
    flags."""
    table = {}
    for method, path in FILES.items():
        for flags in admitted(method):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(["estimate", "--sample", str(path), *flags])
            table[" ".join((method, *flags))] = [code, out.getvalue(),
                                                 err.getvalue()]
    return table


def test_every_printed_estimate_is_the_recorded_line():
    recorded = json.loads(TABLE.read_text())
    got = printed()
    assert sorted(got) == sorted(recorded)
    differing = [f"{key}\n  recorded {recorded[key]!r}\n  printed  {line!r}"
                 for key, line in got.items() if line != recorded[key]]
    assert not differing, "\n".join(differing)

