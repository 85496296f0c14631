"""The array-native sample against its record-by-record references.

``read_sample`` parses a file with byte arrays; ``oracles.read_sample`` is
the per-record loop it replaced.  The counting kernels work on dense ranks;
``oracles.count_induced_edges``, ``oracles.inda_wis_parts``,
``oracles.indb_parts`` and ``oracles.capture_split`` are dict and set loops
over node ids, and must agree bit for bit.
"""

import ast
import contextlib
import io
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from graphsize.cli import main
from graphsize.core import (MODE_MULTISET, MODE_SET, EstimatorError,
                            count_induced_edges)
from graphsize.experiment import SamplerSpec, _head
from graphsize.generators import barabasi_albert
from graphsize.ind_estimators import (inda_wis_ratio, indb_uis_ratio,
                                      indb_wis_ratio)
from graphsize.node_estimators import (capture_recapture,
                                       capture_recapture_from_sample)
from graphsize.sampling import (Sample, SamplingError, _first_seen,
                                read_sample, sample_rw_multi, sample_wis,
                                write_sample)

import graphsize
import oracles
from strategies import SAMPLE, mutated, walk_like_samples

HEADER = ("graphsize-sample v1\tmethod=RW_MULTI\tseed=0\tweight_rule=degree"
          "\tgraph_digest=x\trng=numpy-pcg64\tn={n}\n")

# A message the array reader gives where the reference, which reads fields
# with int() and float(), accepts: it reads integers as ASCII digits after an
# optional '-', weights as ASCII, and walker ids of at most 64 bits.
NARROWED = re.compile(r"record \d+: (?:(position|node|degree|walker) (.*) is "
                      r"not an integer|(snapshot) (.*) is not a comma-"
                      r"separated list of integer ids|(weight) (.*) is not a "
                      r"number|(walker) (.*) is not a 64-bit integer)$")


def _outcome(read, text):
    try:
        return read(io.StringIO(text))
    except SamplingError as exc:
        return str(exc)


def _assert_narrowed(message):
    """``message`` rejects a field of the narrowed grammar that the
    reference reads."""
    match = NARROWED.match(message)
    assert match, message
    name, text = (group for group in match.groups() if group is not None)
    text = ast.literal_eval(text)
    if name == "weight":
        float(text)  # the reference's reading
        with pytest.raises(ValueError):
            float(text.encode())
    elif match.group(7):
        assert int(text) not in range(-2**63, 2**63), message
    else:
        items = text.split(",")
        for item in items:
            int(item)  # the reference's reading
        assert not all(re.fullmatch(r"-?[0-9]+", item) for item in items)


def _assert_same(text):
    """Both readers give the same sample or the same message, unless the
    array reader rejects a field of the narrowed grammar."""
    new, old = _outcome(read_sample, text), _outcome(oracles.read_sample, text)
    if isinstance(new, Sample) and isinstance(old, Sample):
        assert oracles.same_sample(new, old)
    elif new != old:
        assert isinstance(new, str), (new, old)
        _assert_narrowed(new)
    return new


@settings(max_examples=300, deadline=None)
@given(mutated(SAMPLE))
def test_reader_matches_the_record_loop_on_mutated_files(text):
    _assert_same(text)


def _file(records, trailer="\n"):
    return HEADER.format(n=len(records)) + "\n".join(records) + trailer


CASES = {
    "zero-padded-repeat": _file(["0\t5\t2\t2.0\t0\t1,2", "1\t1\t1\t1.0\t0\t5",
                                 "2\t005\t2\t2.0\t1\t01,0002"]),
    "signed-zero": _file(["0\t-0\t1\t1.0\t0\t-7", "1\t0\t1\t1.0\t0\t-07"]),
    "blank-lines": HEADER.format(n=2) + "\n0\t5\t0\t1.0\t0\t\n\n\n"
                   "1\t6\t0\t3.5\t1\t\n\n",
    "no-trailing-newline": _file(["0\t5\t0\t1.0\t0\t", "1\t5\t0\t1.0\t0\t"],
                                 trailer=""),
    "empty-snapshots": _file(["0\t5\t0\t1.0\t0\t", "1\t5\t0\t1.0\t0\t",
                              "2\t6\t1\t1.0\t0\t5"]),
    "repeat-that-differs": _file(["0\t5\t2\t2.0\t0\t1,2",
                                  "1\t5\t2\t2.0\t0\t2,1"]),
    "repeat-longer": _file(["0\t5\t2\t2.0\t0\t1,2",
                            "1\t5\t3\t2.0\t0\t1,2,3"]),
    "tail-after-error": _file(["0\t5\t0\tnan\t0\t", "1\tx\t0\t1.0\t0\t"]),
    "weights": _file(["0\t5\t0\t1e-3\t0\t", "1\t6\t0\t.5\t0\t",
                      "2\t7\t0\t 2.5 \t0\t", "3\t8\t0\t1_0.5\t0\t",
                      "4\t9\t0\t1E2\t0\t"]),
    "no-records": HEADER.format(n=0) + "\n\n",
    "count": _file(["0\t5\t0\t1.0\t0\t"]).replace("n=1", "n=2"),
}
SAMPLES = ("zero-padded-repeat", "signed-zero", "blank-lines",
           "no-trailing-newline", "empty-snapshots", "weights")


def _shift(token, offset):
    """The id ``token`` plus ``offset``, its zero padding kept."""
    digits = token.lstrip("-")
    zeros = digits[:len(digits) - len(digits.lstrip("0"))]
    value = int(token) + offset
    return ("-" if value < 0 else "") + zeros + str(abs(value))


@pytest.mark.parametrize("offset", [0, 2**62, 2**70, -2**70])
@pytest.mark.parametrize("case", CASES)
def test_reader_matches_the_record_loop_on_edge_cases(case, offset):
    text = re.sub(r"(?m)^(\d+\t)(-?\d+)",
                  lambda m: m.group(1) + _shift(m.group(2), offset),
                  CASES[case])
    text = re.sub(r"(?m)\t([-\d,]+)$", lambda m: "\t" + ",".join(
        _shift(v, offset) for v in m.group(1).split(",")), text)
    got = _assert_same(text)
    assert isinstance(got, Sample) == (case in SAMPLES)


def test_reader_takes_newlines_as_the_handle_gives_them():
    text = _file(["0\t5\t1\t1.0\t0\t6", "1\t6\t1\t1.0\t0\t5"])
    crlf = text.replace("\n", "\r\n").encode()
    translated = read_sample(io.TextIOWrapper(io.BytesIO(crlf),
                                              encoding="utf-8"))
    assert oracles.same_sample(translated, read_sample(io.StringIO(text)))
    with pytest.raises(SamplingError, match=r"record 0: snapshot '6\\r'"):
        read_sample(io.StringIO(crlf.decode()))


@st.composite
def _ids(draw):
    """Ids for ``_first_seen``, the size to give it, and whether the ids
    are dense enough for a table: values below a table size, dense ranges at
    any offset, sparse ids 2^40 apart, or ids beyond int64 in an object
    array."""
    kind = draw(st.sampled_from(("table", "dense", "sparse", "wide")))
    n = draw(st.integers(1, 50))
    slots = draw(st.lists(st.integers(0, 3 * n), min_size=n, max_size=n))
    offset = draw(st.integers(-2**62, 2**62))
    if kind == "table":
        return np.array(slots), 3 * n + 1 + draw(st.integers(0, 5)), True
    if kind == "dense":
        return np.array(slots) + offset, None, True
    if kind == "sparse":
        return np.array(slots) * 2**40 + offset, None, False
    return np.array([2**63 + slot for slot in slots], dtype=object), None, False


@settings(max_examples=300, deadline=None)
@given(_ids())
@example((np.array([7]), 8, True))
@example((np.array([-2**62]), None, True))
@example((np.array([2**64 - 1], dtype=object), None, False))
@example((np.array([3, -2**63, 2**63 - 1, 3]), None, False))
def test_first_seen_matches_the_dict_loop(case):
    values, size, dense = case
    # Dense values index a table: they are never sorted.
    no_sort = mock.patch.object(np, "unique", side_effect=AssertionError)
    with no_sort if dense else contextlib.nullcontext():
        distinct, first, ranks = _first_seen(values, size)
    assert (distinct.tolist(), first.tolist(), ranks.tolist()) == \
        oracles.first_seen(values.tolist())


@pytest.mark.parametrize("record", [
    "0\t+5\t0\t1.0\t0\t", "0\t5\t1\t1.0\t0\t 6", " 0\t5\t0\t1.0\t0\t",
    "0\t5\t1_0\t1.0\t0\t", "0\t5\t1\t1.0\t0\t\u0661",
    "0\t5 \t0\t1.0\t0\t", f"0\t5\t0\t1.0\t{2**63}\t",
])
def test_narrowed_tokens_are_one_record_error(tmp_path, record):
    text = _file([record])
    _assert_narrowed(_outcome(read_sample, text))
    path = tmp_path / "s.tsv"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["estimate", "--sample", str(path), "--estimator",
                     "node-wis"])
    assert (code, out.getvalue()) == (3, "")
    assert err.getvalue().startswith("error: record 0: ")
    assert err.getvalue().count("\n") == 1


# -- kernels -----------------------------------------------------------------


@st.composite
def drawn_samples(draw):
    """A WIS or rw-multi sample on a small BA graph, or a walk-like sample
    with arbitrary ids; then a head cut or a reorder of it."""
    kind = draw(st.sampled_from(["wis", "rw-multi", "walk-like"]))
    if kind == "walk-like":
        s = draw(walk_like_samples())
    else:
        g = barabasi_albert(60, 2, seed=draw(st.integers(0, 2**16)))
        walkers = 1 if kind == "wis" else draw(st.integers(1, 4))
        spec = SamplerSpec(kind, walkers * draw(st.integers(2, 30)), walkers)
        seed = draw(st.integers(0, 2**32))
        s = (sample_wis(g, "degree", spec.n, seed) if kind == "wis" else
             sample_rw_multi(g, walkers, spec.n // walkers,
                             [seed + k for k in range(walkers)]))
        keep = draw(st.integers(2, spec.n // walkers))
        s = draw(st.sampled_from([s, _head(s, spec, keep * walkers)]))
    order = draw(st.permutations(range(len(s))))
    return draw(st.sampled_from([s, s.subset(order), s.subset(order[:2])]))


@settings(max_examples=200, deadline=None)
@given(drawn_samples(), st.integers(0, 2**32))
def test_kernels_equal_the_dict_loops_bit_for_bit(s, seed):
    assert count_induced_edges(s) == oracles.count_induced_edges(s)
    if len(s) >= 2:
        ratio = inda_wis_ratio(s)
        assert (ratio.numerator, ratio.denominator) \
            == oracles.inda_wis_parts(s)
        assert capture_recapture_from_sample(s, seed) \
            == capture_recapture(*oracles.capture_split(s, seed))
    for mode in (MODE_SET, MODE_MULTISET):
        for kernel, weighted in ((indb_uis_ratio, False),
                                 (indb_wis_ratio, True)):
            if not oracles.auxiliary_counts(s, mode):
                with pytest.raises(EstimatorError):
                    kernel(s, mode)
                continue
            ratio = kernel(s, mode)
            assert (ratio.numerator, ratio.denominator) \
                == oracles.indb_parts(s, mode, weighted)


def test_derived_samples_share_the_parent_arrays():
    g = barabasi_albert(60, 2, seed=1)
    s = sample_rw_multi(g, 3, 20, [1, 2, 3])
    spec = SamplerSpec("rw-multi", 60, 3)
    for derived in (s.subset(np.arange(0, 60, 7)), _head(s, spec, 30)):
        assert derived.ids is s.ids and derived.entries is s.entries
        snapshots = oracles.views(s).snapshots
        assert oracles.views(derived).snapshots == {
            v: snapshots[v] for v in oracles.views(derived).node_at}
    buf = io.StringIO()
    write_sample(s.subset(np.arange(59, -1, -1)), buf, g)
    back = read_sample(io.StringIO(buf.getvalue()))
    assert oracles.views(back).node_at \
        == tuple(g.ext_ids[v] for v in oracles.views(s).node_at[::-1])


def test_samples_compare_by_identity():
    """A sample read back from its file holds the same values as its
    source, which ``oracles.same_sample`` compares; ``==`` does not."""
    s = sample_rw_multi(barabasi_albert(60, 2, seed=1), 3, 20, [1, 2, 3])
    buf = io.StringIO()
    write_sample(s, buf)
    back = read_sample(io.StringIO(buf.getvalue()))
    assert oracles.same_sample(back, s)
    assert back != s and s == s
    assert not oracles.same_sample(back, replace(back, seed=back.seed + 1))
    assert not oracles.same_sample(back, back.subset(range(59)))


def test_estimating_from_a_file_does_not_import_numpy_ma(tmp_path):
    # numpy.ma takes about 14 ms to import, which every estimate process
    # would pay; a flagless np.unique or np.union1d imports it.
    g = barabasi_albert(300, 3, seed=1)
    path = tmp_path / "s.tsv"
    with open(path, "w", encoding="utf-8") as fh:
        write_sample(sample_rw_multi(g, 3, 100, [1, 2, 3]), fh, g)
    script = "\n".join([
        "import contextlib, io, sys",
        "from graphsize import cli",
        "for extra in (['node-wis'], ['capture'],",
        "              ['ind-b', '--correction', 'cross-walker']):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        f"        assert cli.main(['estimate', '--sample', {str(path)!r},",
        "                         '--estimator', *extra]) == 0",
        "print('numpy.ma' in sys.modules)",
    ])
    src = str(Path(graphsize.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "False\n"
