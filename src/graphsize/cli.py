"""Command-line interface.

Subcommands: graphstat, gen, sample, estimate, experiment, plot.
Exit codes: 0 success, 2 configuration error, 3 data error.  Every
configuration error is a PlanError, raised before any data is read; an
estimator that rejects its sample raises EstimatorError, a data error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import secrets
import stat
import sys

import numpy as np

from .core import A_MODES, MODE_SET, EstimatorError
from .experiment import (CORRECTIONS, CSV_COLUMNS, ESTIMATORS, METHODS,
                         EstimatorSpec, PlanError, SamplerSpec, TrialSummary,
                         check_spec, draw_sample, emit_csv, emit_svg_band,
                         evaluate_with_ratio, parse_plan_file, resolve_graph,
                         run_experiment)
from .graph import (GraphError, _excerpt, exact_stats,
                    largest_connected_component, size_identity,
                    write_edge_list)
from .sampling import WEIGHT_RULES, SamplingError, read_sample, write_sample

EXIT_CONFIG = 2
EXIT_DATA = 3


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except (PlanError, EstimatorError, GraphError, SamplingError, OSError,
            ValueError, OverflowError, MemoryError) as exc:
        # A MemoryError raised by Python's own allocator has no message.
        bare = isinstance(exc, MemoryError) and not str(exc)
        print(f"error: {'out of memory' if bare else exc}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, PlanError) else EXIT_DATA


class _Parser(argparse.ArgumentParser):
    """Usage errors, its subparsers' too, as one-line configuration errors.
    Flags are matched in full only: a prefix that works today would turn
    ambiguous once a flag sharing it is added."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):
        # Unrecognized arguments are quoted raw: escape what breaks a line.
        shown = "".join(c if c.isprintable() else ascii(c)[1:-1]
                        for c in message)
        raise PlanError(_excerpt(shown, quote=False))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="graphsize",
        description="Estimate the number of nodes of a graph from node samples.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graphstat", help="print exact graph statistics")
    p.add_argument("graph", help="edge-list path or gen:<model>:<args> spec")
    p.set_defaults(handler=_cmd_graphstat)

    p = sub.add_parser("gen", help="generate a synthetic graph edge list")
    p.add_argument("spec", help="generator spec, e.g. gen:er:nodes=1000,p=0.02,seed=1")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("sample", help="draw a node sample and write it to a file")
    p.add_argument("--graph", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--walkers", type=int, default=1)
    p.add_argument("--weight-rule", default="degree", choices=WEIGHT_RULES)
    p.add_argument("--lcc", action="store_true",
                   help="restrict to the largest connected component first")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("estimate", help="estimate graph size from a sample file")
    p.add_argument("--sample", required=True)
    p.add_argument("--estimator", required=True, choices=ESTIMATORS)
    p.add_argument("--correction", default="none", choices=CORRECTIONS)
    p.add_argument("--a-mode", default=MODE_SET, choices=A_MODES)
    p.add_argument("--theta", type=int, default=1)
    p.add_argument("--margin", type=int, default=0)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the capture-recapture split")
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("experiment", help="run a percentile-band experiment plan")
    p.add_argument("--plan", required=True, help="key=value plan file")
    p.add_argument("-o", "--output", required=True, help="CSV output path")
    p.set_defaults(handler=_cmd_experiment)

    p = sub.add_parser("plot", help="render an experiment CSV as an SVG band plot")
    p.add_argument("--csv", required=True)
    p.add_argument("--xlabel", default="parameter")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_plot)

    return parser


def _cmd_graphstat(args) -> int:
    g = resolve_graph(args.graph)
    print(f"nodes: {g.node_count}")
    print(f"edges: {g.edge_count}")
    print(f"mean_degree: {2 * g.edge_count / g.node_count:.6g}")
    if g.node_count > 1:
        print(f"density: {exact_stats(g).density:.6g}")
    if g.edge_count:
        residual = abs(size_identity(g) - g.node_count) / g.node_count
        print(f"size_identity_residual: {residual:.3e}")
    if g.load_report is not None:
        r = g.load_report
        print(f"dropped_self_loops: {r.self_loops_dropped}")
        print(f"collapsed_duplicates: {r.duplicates_collapsed}")
    if not g.is_connected:
        print("warning: graph is disconnected; random walks need the "
              "largest connected component", file=sys.stderr)
    return 0


@contextlib.contextmanager
def _output(path: str, newline: str | None = None):
    """A text handle on a new file beside ``path``, opened before the work
    that fills it.  If the block succeeds the file replaces ``path``, and
    if it fails the file is removed, so ``path`` is never half written.  It
    gets the mode ``open(path, "w")`` would leave: the replaced file's, or
    0o666 less the umask.  A symbolic link is written through, as open()
    writes, and a path that exists but is no regular file (a pipe or a
    terminal, such as /dev/stdout) is written directly."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        return
    target = os.path.realpath(path)
    head, name = os.path.split(target)
    temp = os.path.join(head, f".{name}.{secrets.token_hex(6)}.tmp")
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the output, not the temporary file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8", newline=newline) as fh:
            with contextlib.suppress(FileNotFoundError):
                os.fchmod(fd, stat.S_IMODE(os.stat(target).st_mode))
            yield fh
        os.replace(temp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temp)
        raise


def _cmd_gen(args) -> int:
    with _output(args.output) as fh:
        g = resolve_graph(args.spec)
        write_edge_list(g, fh)
    print(f"wrote {g.node_count} nodes, {g.edge_count} edges to {args.output}")
    return 0


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise PlanError(f"--seed must be >= 0, got {seed}")


def _cmd_sample(args) -> int:
    spec = SamplerSpec(method=args.method, n=args.n, walkers=args.walkers,
                       weight_rule=args.weight_rule)
    _check_seed(args.seed)
    with _output(args.output) as fh:
        g = resolve_graph(args.graph)
        if args.lcc:
            g = largest_connected_component(g)
        s = draw_sample(g, spec, args.seed)
        write_sample(s, fh)
    print(f"wrote {len(s)} records to {args.output}")
    return 0


def _cmd_estimate(args) -> int:
    est = EstimatorSpec(name=args.estimator, correction=args.correction,
                        a_mode=args.a_mode, theta=args.theta, m=args.margin)
    check_spec(None, est)
    _check_seed(args.seed)
    if args.seed != 0 and est.name != "capture":
        raise PlanError(f"--seed ({args.seed}) is read only by estimator "
                        "capture")
    with open(args.sample, "rb") as fh:
        sample = read_sample(fh)
    check_spec(next(k for k, v in METHODS.items() if v == sample.method), est)
    try:
        # Weights whose inverses or sums leave the float range are reported
        # by the check below, in one line, not by numpy's warnings too.
        with np.errstate(over="ignore", invalid="ignore"):
            ratio, outcome = evaluate_with_ratio(sample, est, args.seed)
        parts = (ratio.numerator, ratio.denominator) if ratio else ()
        finite = all(map(math.isfinite, (*parts, outcome.value or 0.0)))
    except OverflowError:  # an exact sum past the float range
        finite = False
    if not finite:
        raise EstimatorError(f"estimator {est.name}: the sample's weights "
                             "take its sums outside the float range")
    payload = {
        "estimator": est.name,
        "correction": est.correction,
        "params": {"a_mode": est.a_mode, "theta": est.theta, "m": est.m},
        "n": len(sample),
        "numerator": ratio.numerator if ratio else None,
        "denominator": ratio.denominator if ratio else None,
        "estimate": outcome.value if outcome.finite else "no_collisions",
    }
    print(json.dumps(payload, allow_nan=False))
    return 0


def _cmd_experiment(args) -> int:
    with _output(args.output, newline="") as out:
        with open(args.plan, "r", encoding="utf-8") as fh:
            plan = parse_plan_file(fh.read())
        summaries = run_experiment(plan)
        out.write(emit_csv(summaries))
    print(f"wrote {len(summaries)} rows to {args.output}")
    return 0


def _cmd_plot(args) -> int:
    with _output(args.output, newline="") as fh:
        fh.write(emit_svg_band(_read_csv(args.csv), xlabel=args.xlabel))
    print(f"wrote {args.output}")
    return 0


def _read_csv(path: str) -> list[TrialSummary]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != ",".join(CSV_COLUMNS):
            raise ValueError(f"{path}: not a graphsize experiment CSV")
        for line_no, line in enumerate(fh, start=2):
            fields = line.strip().split(",")
            if fields == [""]:
                continue
            if len(fields) != len(CSV_COLUMNS):
                raise ValueError(f"{path} line {line_no}: expected "
                                 f"{len(CSV_COLUMNS)} comma-separated "
                                 f"fields, got {len(fields)}")
            percentiles = fields[1:4]  # empty when every trial was infinite
            if any(percentiles) and not all(percentiles):
                raise ValueError(f"{path} line {line_no}: p10, p50 and p90 "
                                 "must be all empty or all present")
            values = []
            for name, text in zip(CSV_COLUMNS, fields):
                if not text and name in ("p10", "p50", "p90"):
                    values.append(None)
                    continue
                try:
                    value = int(text) if name == "trials" else float(text)
                    if not math.isfinite(value):
                        raise ValueError
                except ValueError:
                    raise ValueError(f"{path} line {line_no}: {name} "
                                     f"{_excerpt(text)} is not a finite "
                                     "number") from None
                values.append(value)
            row = TrialSummary(*values)
            at = f"{path} line {line_no}:"
            if not 0.0 <= row.infinite_fraction <= 1.0:
                raise ValueError(f"{at} infinite_fraction "
                                 f"{_excerpt(fields[4])} is not in [0, 1]")
            if row.trials < 1:
                raise ValueError(f"{at} trials {_excerpt(fields[5])} is "
                                 "below 1")
            # summarize leaves them empty exactly when every trial is
            # infinite.
            if (row.p50 is None) != (row.infinite_fraction == 1.0):
                state = "empty" if row.p50 is None else "present"
                raise ValueError(f"{at} p10, p50 and p90 are {state} with "
                                 f"infinite_fraction {_excerpt(fields[4])}; "
                                 "they are empty exactly when it is 1")
            if any(percentiles) and not row.p10 <= row.p50 <= row.p90:
                raise ValueError(f"{at} p10, p50 and p90 must not decrease")
            rows.append(row)
    return rows


if __name__ == "__main__":
    sys.exit(main())
