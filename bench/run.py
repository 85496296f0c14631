#!/usr/bin/env python3
"""Benchmark of the graphsize package.

Run from the repository root:

    python3 bench/run.py --workload er-msweep --seed 1 --seconds 25 --trace 0

Workloads: er-msweep, ba-wis-nsweep (plan files run trial by trial through
parse_plan_file -> run_experiment -> emit_csv) and ba-crawl-cli (passes of
one graphsize sample and five estimate commands, through graphsize.cli.main).
With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json;
with --trace 1 it measures untraced, replays the same units of work with
every layer boundary wrapped, and reports the per-layer metrics.  Times are
corrected to a reference machine speed (see SpeedClock).  Every run checks
the outputs.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, the uncorrected times and each check.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

from tracing import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
THREADS_ENV = "GRAPHSIZE_THREADS"

DEFAULT_SEED = 0
SEED_STRIDE = 1_000_000   # trial or pass seeds of workload seed s start at s * stride
PINNED_TRIALS = 20        # trials of the default-seed plan whose CSV digest is pinned
RELATIVE_TOLERANCE = 1e-9
PLAUSIBLE = (0.5, 2.0)    # estimate / true size accepted on a crawl of n = N
PINNED_KEYS = ("estimator", "correction", "numerator", "denominator", "estimate")


def timed(tracer, layer, name, fn, *args):
    """Call ``fn``, inside a span when tracing."""
    if tracer is None:
        return fn(*args)
    return tracer.call(layer, name, fn, args)


def relerr(a: float, b: float) -> float:
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b), 1e-300)


@dataclasses.dataclass
class Op:
    seconds: float
    ok: bool
    output: object = None
    scaled: float = math.nan  # seconds at the reference speed, set by SpeedClock


# -- plan workloads ---------------------------------------------------------


class PlanWorkload:
    """A plan file, one trial per operation: a sample plus the whole grid."""

    warmup = True
    reference = (4000, 0.0015)   # SpeedClock task: pairs, nominal seconds

    def __init__(self, plan_lines, grid, redraw, oracle):
        self.plan_text = "\n".join(plan_lines + [f"values = {grid}"]) + "\n"
        self.grid = [float(v) for v in grid.split(",")]
        self.redraw = redraw    # (graph, grid value, trial seed) -> Sample
        self.oracle = oracle    # (sample, grid value) -> expected estimate

    def setup(self, work, tracer):
        from graphsize.experiment import parse_plan_file
        return timed(tracer, "experiment", "parse", parse_plan_file,
                     self.plan_text)

    def run_unit(self, plan, trial_seed, tracer, clock):
        from graphsize.experiment import emit_csv, run_experiment
        start = time.perf_counter()
        try:
            one = dataclasses.replace(plan, trials=1, base_seed=trial_seed)
            summaries = timed(tracer, "experiment", "run", run_experiment, one)
            csv = timed(tracer, "experiment", "emit", emit_csv, summaries)
            ok = (len(summaries) == len(self.grid)
                  and csv.count("\n") == len(self.grid) + 1)
        except Exception:
            traceback.print_exc()
            summaries, ok = None, False
        op = Op(time.perf_counter() - start, ok, summaries)
        clock.tick([op])
        return [op]

    def check(self, plan, first_unit, first_ops, expected):
        """Quadratic oracle on the first trial, and the pinned-plan CSV digest."""
        checks, entries = [], 0
        summaries = first_ops[0].output
        size = plan.graph.node_count
        for value, row in zip(self.grid, summaries or []):
            sample = self.redraw(plan.graph, value, first_unit)
            entries = max(entries, sum(sample.degrees()))
            want = self.oracle(sample, value)
            got = None if row.p50 is None else row.p50 * size
            if not math.isfinite(want):
                ok = got is None
            else:
                ok = got is not None and relerr(want, got) <= RELATIVE_TOLERANCE
            checks.append({"check": f"oracle grid={value:g}", "ok": ok,
                           "expected": want, "got": got})
        if summaries is None:
            checks.append({"check": "oracle", "ok": False, "got": None})

        from graphsize.experiment import emit_csv, parse_plan_file, run_experiment
        pinned = (self.plan_text
                  + f"trials = {PINNED_TRIALS}\nbase_seed = {DEFAULT_SEED}\n")
        digest = hashlib.sha256(emit_csv(run_experiment(parse_plan_file(
            pinned))).encode()).hexdigest()
        checks.append(pinned_check("pinned plan csv_sha256", digest,
                                   expected, "csv_sha256"))
        return checks, entries


def er_msweep(tiny: bool) -> PlanWorkload:
    from graphsize import sample_rw
    oracles = load_oracles()
    nodes, p, n = (200, 0.05, 300) if tiny else (1000, 0.02, 2000)

    def oracle(sample, m):
        num, den = oracles.ind_margin_multiset_parts(sample, int(m))
        return num / den if den > 0 else math.inf

    return PlanWorkload(
        [f"graph = gen:er:nodes={nodes},p={p},seed=1", "method = rw",
         f"n = {n}", "estimator = ind-b", "correction = margin",
         "a_mode = multiset", "param = m"],
        "0,5,10,25" if tiny else "0,5,10,25,50,100",
        lambda g, m, seed: sample_rw(g, n, seed), oracle)


def ba_wis_nsweep(tiny: bool) -> PlanWorkload:
    import numpy as np
    from graphsize import sample_wis
    oracles = load_oracles()
    nodes, m = (2000, 3) if tiny else (20000, 5)

    def oracle(sample, n):
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(oracles.inda_wis_value(sample))

    return PlanWorkload(
        [f"graph = gen:ba:nodes={nodes},m={m},seed=1", "method = wis",
         "weight_rule = degree", "n = 100", "estimator = ind-a",
         "param = n"],
        "100,200" if tiny else "500,1000,2000,4000",
        lambda g, n, seed: sample_wis(g, "degree", int(n), seed), oracle)


# -- crawl workload ---------------------------------------------------------


class CrawlWorkload:
    """A crawl through the CLI, one pass per unit: sample, then five estimates."""

    warmup = False
    reference = (40000, 0.02)

    def __init__(self, tiny: bool):
        self.nodes, self.m = (2000, 3) if tiny else (20000, 5)
        self.n = self.nodes
        self.walkers = 4
        self.estimates = [
            ["--estimator", "node-wis"],
            ["--estimator", "ind-a"],
            ["--estimator", "ind-b", "--correction", "margin",
             "--margin", "50", "--a-mode", "multiset"],
            ["--estimator", "ind-b", "--correction", "thin-shifted",
             "--theta", "10"],
            ["--estimator", "ind-b", "--correction", "cross-walker",
             "--a-mode", "set"],
        ]

    def setup(self, work, tracer):
        graph = str(work / "graph.txt")
        rc, _ = run_cli(["gen", f"gen:ba:nodes={self.nodes},m={self.m},seed=1",
                         "-o", graph], tracer)
        if rc != 0:
            raise RuntimeError(f"graphsize gen failed with exit code {rc}")
        return {"work": work, "graph": graph}

    def sample_path(self, state, pass_seed):
        return str(state["work"] / f"sample-{pass_seed}.tsv")

    def run_unit(self, state, pass_seed, tracer, clock):
        path = self.sample_path(state, pass_seed)
        ops = [self._op(["sample", "--graph", state["graph"], "--method",
                         "rw-multi", "--walkers", str(self.walkers),
                         "--n", str(self.n), "--seed", str(pass_seed),
                         "-o", path], tracer, clock, self._sample_ok)]
        for extra in self.estimates:
            ops.append(self._op(["estimate", "--sample", path] + extra,
                                tracer, clock, self._estimate_ok))
        # Only the first pass's file is checked; removing the others keeps
        # their pages from being written back to disk during later passes.
        if pass_seed != state.setdefault("checked_pass", pass_seed):
            os.remove(path)
        return ops

    def _op(self, argv, tracer, clock, validate):
        start = time.perf_counter()
        rc, out = run_cli(argv, tracer)
        op = Op(time.perf_counter() - start, False, out)
        clock.tick([op])
        try:
            op.ok = rc == 0 and validate(out)
        except (ValueError, KeyError, TypeError):
            pass
        return op

    def _sample_ok(self, out):
        return out.startswith(f"wrote {self.n} records")

    def _estimate_ok(self, out):
        payload = json.loads(out)
        est = payload["estimate"]
        ok = (payload["n"] == self.n and isinstance(est, float)
              and PLAUSIBLE[0] < est / self.nodes < PLAUSIBLE[1])
        if payload["denominator"]:
            offset = 1.0 if payload["estimator"] == "ind-a" else 0.0
            ratio = payload["numerator"] / payload["denominator"] + offset
            ok = ok and relerr(ratio, est) <= RELATIVE_TOLERANCE
        return ok

    def check(self, state, first_unit, first_ops, expected):
        """node-wis parts recomputed from the sample file; pinned default-seed outputs."""
        path = self.sample_path(state, first_unit)
        counts, weights, entries = Counter(), [], 0
        with open(path, "r", encoding="utf-8") as fh:
            fh.readline()
            for line in fh:
                _, node, degree, weight, _ = line.split("\t", 4)
                counts[node] += 1
                weights.append(float(weight))
                entries += int(degree)
        num = math.fsum(weights) * math.fsum(1.0 / w for w in weights)
        den = float(sum(c * (c - 1) for c in counts.values()))
        checks = []
        try:
            got = json.loads(first_ops[1].output)
            ok = (relerr(num, got["numerator"]) <= RELATIVE_TOLERANCE
                  and relerr(den, got["denominator"]) <= RELATIVE_TOLERANCE)
        except (ValueError, KeyError, TypeError):
            got, ok = None, False
        checks.append({"check": "node-wis parts from sample file", "ok": ok,
                       "expected": [num, den], "got": got})
        if first_unit == DEFAULT_SEED * SEED_STRIDE:
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            checks.append(pinned_check("default-seed sample_sha256", digest,
                                       expected, "sample_sha256"))
            try:
                values = [{key: json.loads(op.output)[key] for key in PINNED_KEYS}
                          for op in first_ops[1:]]
            except (ValueError, KeyError, TypeError):
                values = None
            checks.append(pinned_check("default-seed estimate values",
                                       values, expected, "estimates"))
        return checks, entries


def run_cli(argv, tracer):
    """graphsize.cli.main(argv) in-process; returns (exit code, stdout)."""
    from graphsize import cli
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = timed(tracer, "cli", argv[0], cli.main, argv)
    except SystemExit as exc:  # argparse rejected argv
        rc = exc.code
    except Exception:
        traceback.print_exc()
        rc = None
    if rc != 0:
        print(f"graphsize {' '.join(argv)}: exit {rc}\n{err.getvalue()}",
              file=sys.stderr)
    return rc, out.getvalue().strip()


# -- checks -----------------------------------------------------------------


def pinned_check(label, got, expected, key):
    """Compare with the value pinned in expected.json (full size only)."""
    if expected is None:
        return {"check": label, "ok": True, "skipped": "tiny size", "got": got}
    want = expected.get(key)
    return {"check": label, "ok": want is not None and got == want,
            "got": got}


def load_oracles():
    """The quadratic reference implementations the test suite checks against."""
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("graphsize_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- measurement ------------------------------------------------------------


WORKLOADS = {
    "er-msweep": er_msweep,
    "ba-wis-nsweep": ba_wis_nsweep,
    "ba-crawl-cli": CrawlWorkload,
}


def reference_seconds(keys) -> float:
    """Median time of three runs of a fixed task: build and sort (int, str) pairs.

    Allocation and comparisons slow down under contention in about the same
    proportion as the package's code; an integer loop slows down less.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        pairs = [(key, str(key)) for key in keys]
        pairs.sort()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedClock:
    """Corrects each operation's time for the machine's speed at that moment.

    On a shared machine the same code runs up to two fifths faster or slower
    from one second to the next, as other tenants come and go.  The
    reference task is timed after every operation; an operation's time at
    the reference speed is its wall time times the task's nominal time over
    the mean of the task times just before and just after it.  A workload
    sets the task's size (``pairs``) and nominal time: the 0.3 s crawl
    commands track best with a task big enough to leave L2.
    """

    def __init__(self, pairs: int, nominal: float):
        self.keys = [(j * 7919) % 100003 for j in range(pairs)]
        self.nominal = nominal
        self.last = reference_seconds(self.keys)
        self.references = [self.last]

    def tick(self, ops: list[Op]) -> None:
        """Time the reference task and correct ``ops``, run since the last tick."""
        now = reference_seconds(self.keys)
        scale = self.nominal / ((self.last + now) / 2)
        for op in ops:
            op.scaled = op.seconds * scale
        self.last = now
        self.references.append(now)

    def summary(self) -> dict:
        return {"pairs": len(self.keys), "nominal": self.nominal,
                "samples": len(self.references),
                "min": min(self.references),
                "median": statistics.median(self.references),
                "max": max(self.references)}


def setups(workload, work, clock, min_reps=3, min_seconds=2.0, max_reps=100):
    """Set up at least ``min_reps`` times and for ``min_seconds``; returns ops."""
    reps = []
    while len(reps) < min_reps or (sum(op.seconds for op in reps) < min_seconds
                                   and len(reps) < max_reps):
        start = time.perf_counter()
        state = workload.setup(work, None)
        reps.append(Op(time.perf_counter() - start, True))
        clock.tick(reps[-1:])
    return state, reps


def measure(workload, state, units, seconds, clock, tracer=None):
    """Run units of work until ``seconds`` have passed; returns (unit, ops) pairs."""
    done = []
    start = time.perf_counter()
    for unit in units:
        if tracer is not None:
            tracer.unit = unit
        done.append((unit, workload.run_unit(state, unit, tracer, clock)))
        if time.perf_counter() - start >= seconds:
            break
    return done


def percentile(values, q):
    """Nearest-rank percentile, the convention of graphsize's own bands."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def environment(entries: int) -> dict:
    import numpy
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}" + ("" if kind == "Unified" else kind[0].lower())] = \
                (index / "size").read_text().strip()
        except OSError:
            continue
    model = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        model = next((line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")), model)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "caches": caches, THREADS_ENV: "unset",
            "working_set_computed": {"snapshot_entries": entries,
                                     "bytes": entries * 8,
                                     "rule": "snapshot entries x 8 B"}}


def run(args) -> dict:
    workload = WORKLOADS[args.workload](args.tiny)
    expected = None
    if not args.tiny:
        table = json.loads((HERE / "expected.json").read_text())
        expected = table.get(args.workload, {})
    first = args.seed * SEED_STRIDE
    BUILD.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BUILD))
    tracer = Tracer() if args.trace else None
    clock = SpeedClock(*workload.reference)
    try:
        if tracer is None:
            state, setup_ops = setups(workload, work, clock)
        else:
            tracer.install()
            try:
                state = workload.setup(work, tracer)
            finally:
                tracer.uninstall()
        ops = (workload.run_unit(state, first, None, clock)
               if workload.warmup else [])
        timed = measure(workload, state, itertools.count(first), args.seconds,
                        clock)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ops += [op for _, unit_ops in timed for op in unit_ops]
        if tracer is not None:
            traced_clock = SpeedClock(*workload.reference)
            tracer.install()
            try:
                traced = measure(workload, state, [unit for unit, _ in timed],
                                 math.inf, traced_clock, tracer)
            finally:
                tracer.uninstall()
            ops += [op for _, unit_ops in traced for op in unit_ops]
        checks, entries = workload.check(state, first, timed[0][1], expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_ops = sum(not op.ok for op in ops)
    failed_checks = sum(not c["ok"] for c in checks)
    attempted = len(ops) + 1  # the pinned-plan or pinned-output check
    failed = min(attempted, failed_ops + failed_checks)
    seconds = [sum(op.seconds for op in unit_ops) for _, unit_ops in timed]
    scaled = [sum(op.scaled for op in unit_ops) for _, unit_ops in timed]
    uncorrected = {"units_per_s": len(seconds) / sum(seconds),
                   "unit_ms_p50": statistics.median(seconds) * 1000,
                   "unit_ms_p90": percentile(seconds, 0.9) * 1000}
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
            "units": len(timed), "operations": len(ops),
            "uncorrected": uncorrected, "reference_s": clock.summary(),
            "environment": environment(entries), "checks": checks}
    if tracer is None:
        uncorrected["setup_s"] = statistics.median(op.seconds for op in setup_ops)
        values = {"setup_s": statistics.median(op.scaled for op in setup_ops),
                  "units_per_s": len(scaled) / sum(scaled),
                  "unit_ms_p50": statistics.median(scaled) * 1000,
                  "unit_ms_p90": percentile(scaled, 0.9) * 1000,
                  "peak_rss_mb": peak_rss_mb}
        declared = "end_to_end"
    else:
        traced_ops = [op for _, unit_ops in traced for op in unit_ops]
        traced_scaled = sum(op.scaled for op in traced_ops)
        correction = traced_scaled / sum(op.seconds for op in traced_ops)
        values = {key: value * correction if key.endswith(("_s", ".s")) else value
                  for key, value in layer_metrics(tracer, len(timed)).items()}
        values["trace.overhead_frac"] = traced_scaled / sum(scaled) - 1.0
        declared = "per_layer"
        spans = BUILD / f"spans-{args.workload}-{args.seed}.json"
        spans.write_text(json.dumps(tracer.spans))
        info["traced_reference_s"] = traced_clock.summary()
        info["missing_trace_targets"] = tracer.missing
        info["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(info))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[declared] if m["name"] in values}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test; skips pinned outputs")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    os.environ.pop(THREADS_ENV, None)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import graphsize
    except ImportError as exc:
        print(f"error: cannot import graphsize from {src}: {exc}",
              file=sys.stderr)
        return 2
    if src not in Path(graphsize.__file__).resolve().parents:
        print(f"error: graphsize imported from {graphsize.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
