"""Percentile-band experiment harness.

Runs repeated seeded trials of a sampler/estimator combination over a
parameter grid, summarizes each grid point by 10/50/90 percentiles of the
finite estimates plus the fraction of no-collisions outcomes, and renders
CSV and static SVG band plots.  Everything is deterministic given the plan
and its base seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from html import escape
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import generators
from . import ind_estimators as ind, node_estimators as node, rw_correction as rw
from .core import (A_MODES, MODE_SET, EstimateOutcome, EstimatorError,
                   RatioEstimate, count_unique)
from .graph import (Graph, _excerpt, largest_connected_component,
                    load_edge_list)
from .rw_correction import estimate_thinned, margin_crosswalker
from .sampling import (METHODS, WEIGHT_RULES, Sample, sample_rw,
                       sample_rw_multi, sample_uis, sample_wis)


class PlanError(Exception):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class SamplerSpec:
    method: str  # a key of METHODS
    n: int
    walkers: int = 1
    weight_rule: str = "degree"

    def __post_init__(self):
        if self.n < 1 or self.walkers < 1:
            raise PlanError(f"n and walkers must be >= 1, got n={self.n}, "
                            f"walkers={self.walkers}")
        if self.weight_rule not in WEIGHT_RULES:
            raise PlanError("unknown weight rule: "
                            f"{_excerpt(self.weight_rule)}")
        if self.method == "rw-multi" and self.n % self.walkers:
            raise PlanError(f"rw-multi n ({self.n}) must be a multiple of "
                            f"walkers ({self.walkers})")
        if self.method != "rw-multi" and self.walkers != 1:
            raise PlanError(f"walkers ({self.walkers}) needs rw-multi "
                            f"sampling, not {_excerpt(self.method)}")
        if self.method != "wis" and self.weight_rule != "degree":
            raise PlanError(f"weight rule {_excerpt(self.weight_rule)} is "
                            "read only by wis sampling")


@dataclass(frozen=True)
class EstimatorSpec:
    name: str
    correction: str = "none"
    a_mode: str = MODE_SET
    theta: int = 1
    m: int = 0


# The tables look each kernel up in its module, or in this one, when they run,
# so that replacing the module attribute (as tests and tracing do) works.
class Estimator(NamedTuple):
    estimate: Callable  # (sample, spec, seed) -> RatioEstimate | EstimateOutcome
    walk_corrections: bool = False  # whether the corrections below apply


ESTIMATORS = {
    "node-uis": Estimator(lambda s, est, seed: node.node_uis_ratio(s)),
    "node-wis": Estimator(lambda s, est, seed: node.node_wis_ratio(s),
                          walk_corrections=True),
    "capture": Estimator(lambda s, est, seed:
                         node.capture_recapture_from_sample(s, seed)),
    "mle-approx": Estimator(lambda s, est, seed:
                            node.mle_unique_approx(len(s), count_unique(s))),
    "mle-exact": Estimator(lambda s, est, seed:
                           node.mle_unique_exact(len(s), count_unique(s))),
    "ind-a": Estimator(lambda s, est, seed: ind.inda_wis_ratio(s)),
    "ind-b": Estimator(lambda s, est, seed: ind.indb_wis_ratio(s, est.a_mode),
                       walk_corrections=True),
}


class Correction(NamedTuple):
    methods: tuple[str, ...]  # the sampling methods it needs
    param: str | None = None  # the grid parameter it sweeps besides n
    # (sample, spec, values of param) -> one result per value, for the
    # estimator's own; without a param, one result for the one value None
    grid: Callable | None = None


def _thinned(shifted: bool) -> Callable:
    # Thins the estimator's own ratio; a walk estimator's ratio takes no seed.
    return lambda s, est, thetas: [estimate_thinned(
        s, theta, lambda sub: ESTIMATORS[est.name].estimate(sub, est, 0),
        shifted=shifted) for theta in thetas]


WALKS = ("rw", "rw-multi")
# rw_correction names the margin and cross-walker bases by their estimator's
# family (node-, ind-).
CORRECTIONS = {
    "none": Correction(tuple(METHODS)),
    "thin": Correction(WALKS, "theta", _thinned(False)),
    "thin-shifted": Correction(WALKS, "theta", _thinned(True)),
    "margin": Correction(WALKS, "m", lambda s, est, ms: rw.margin_ratios(
        s, ms, est.name.split("-")[0], est.a_mode)),
    "cross-walker": Correction(("rw-multi",), None, lambda s, est, _: [
        margin_crosswalker(s, est.name.split("-")[0], est.a_mode)]),
}


def check_spec(method: str | None, est: EstimatorSpec, param: str = "n") -> None:
    """Raise PlanError unless the tables allow this configuration.

    ``method`` is a key of METHODS, or None while it is not known: the CLI
    checks its flags before it reads the sample file that names the method.
    """
    if method is not None and method not in METHODS:
        raise PlanError(f"unknown sampling method: {_excerpt(method)}")
    if est.name not in ESTIMATORS:
        raise PlanError(f"unknown estimator: {_excerpt(est.name)}")
    if est.correction not in CORRECTIONS:
        raise PlanError(f"unknown correction: {_excerpt(est.correction)}")
    if est.a_mode not in A_MODES:
        raise PlanError(f"unknown auxiliary mode: {_excerpt(est.a_mode)}")
    if est.theta < 1:
        raise PlanError(f"theta must be >= 1, got {est.theta}")
    if est.m < 0:
        raise PlanError(f"margin must be >= 0, got {est.m}")
    correction = CORRECTIONS[est.correction]
    if correction.grid and not ESTIMATORS[est.name].walk_corrections:
        raise PlanError(
            f"correction {_excerpt(est.correction)} does not apply to "
            f"{est.name}")
    if method is not None and method not in correction.methods:
        raise PlanError(f"correction {_excerpt(est.correction)} needs "
                        f"{' or '.join(correction.methods)} sampling")
    if param not in ("n", correction.param):
        raise PlanError(f"grid parameter {_excerpt(param)} is neither n nor "
                        f"swept by correction {_excerpt(est.correction)}")
    # A parameter set where nothing reads it would be echoed as if applied.
    if est.theta != 1 and correction.param != "theta":
        raise PlanError(f"theta ({est.theta}) is read only by correction "
                        "thin or thin-shifted")
    if est.m != 0 and correction.param != "m":
        raise PlanError(f"margin m ({est.m}) is read only by correction "
                        "margin")
    if est.a_mode != MODE_SET and est.name != "ind-b":
        raise PlanError(f"auxiliary mode {est.a_mode} is read only by "
                        "estimator ind-b")


def _check_plan(sampler: SamplerSpec, est: EstimatorSpec, param: str,
                values: Sequence[float], trials: int, base_seed: int) -> None:
    """Every plan check that needs no graph; check_spec at each grid point."""
    if trials < 1:
        raise PlanError("trials must be >= 1")
    if base_seed < 0:
        raise PlanError(f"base_seed must be >= 0, got {base_seed}")
    if not values:
        raise PlanError("parameter grid must be non-empty")
    check_spec(sampler.method, est, param)
    # The grid sets its parameter at each point; a fixed one is read by none.
    if param != "n" and getattr(est, param) != getattr(EstimatorSpec, param):
        raise PlanError(f"plan key {_excerpt(param)} ({getattr(est, param)}) "
                        f"is read by nothing: param = {param} sweeps it")
    for value in values:
        # n, m and theta are all integers.
        if not float(value).is_integer():
            raise PlanError(f"{param} grid value {value:g} is not an integer")
        if param == "n":
            replace(sampler, n=int(value))  # SamplerSpec checks each size
        else:
            check_spec(sampler.method, replace(est, **{param: int(value)}),
                       param)


@dataclass(frozen=True)
class ExperimentPlan:
    graph: Graph
    sampler: SamplerSpec
    estimator: EstimatorSpec
    param: str = "n"  # n, or the grid parameter of the correction
    values: tuple = ()
    trials: int = 500
    base_seed: int = 0

    def __post_init__(self):
        _check_plan(self.sampler, self.estimator, self.param, self.values,
                    self.trials, self.base_seed)


@dataclass(frozen=True)
class TrialSummary:
    """Percentile statistics for one grid point."""

    param_value: float
    p10: float | None
    p50: float | None
    p90: float | None
    infinite_fraction: float
    trials: int

    @property
    def band_width(self) -> float | None:
        if self.p10 is None or self.p90 is None:
            return None
        return self.p90 - self.p10


def draw_sample(g: Graph, spec: SamplerSpec, seed: int) -> Sample:
    if spec.method == "uis":
        return sample_uis(g, spec.n, seed)
    if spec.method == "wis":
        return sample_wis(g, spec.weight_rule, spec.n, seed)
    if spec.method == "rw":
        return sample_rw(g, spec.n, seed)
    if spec.method == "rw-multi":
        per_walk = spec.n // spec.walkers
        seeds = [seed * 1_000_003 + k for k in range(spec.walkers)]
        return sample_rw_multi(g, spec.walkers, per_walk, seeds)
    raise PlanError(f"unknown sampling method: {_excerpt(spec.method)}")


def evaluate(sample: Sample, est: EstimatorSpec, seed: int = 0
             ) -> RatioEstimate | EstimateOutcome:
    """Apply the configured estimator and correction to one sample.

    Returns what the estimator's table entry, or its correction's grid at
    the spec's one value, returns: a RatioEstimate, or an EstimateOutcome
    where that function gives one.  Either's ``outcome()`` is the estimate.
    """
    check_spec(None, est)
    correction = CORRECTIONS[est.correction]
    if correction.grid:
        value = getattr(est, correction.param) if correction.param else None
        return correction.grid(sample, est, [value])[0]
    return ESTIMATORS[est.name].estimate(sample, est, seed)


def run_experiment(plan: ExperimentPlan) -> list[TrialSummary]:
    """One summary per grid point of estimate / N, N the graph's node
    count, over `trials` seeded independent trials.

    Trial seeds are base_seed + trial index.  Each trial draws one sample.
    For n grids it is drawn at the largest n, and each grid point evaluates
    the sample of its own size that the seed gives, which is that draw's
    head (per walker for rw-multi): every sampler is prefix-stable.  For
    theta/m grids the parameter is swept over the one sample, mirroring how
    a real crawl would be post-processed: the correction's grid call answers
    the whole grid at once.
    """
    def run_trial(trial: int) -> list[EstimateOutcome]:
        seed = plan.base_seed + trial
        if plan.param == "n":
            spec = replace(plan.sampler, n=int(max(plan.values)))
            sample = draw_sample(plan.graph, spec, seed)
            return [evaluate(_head(sample, spec, int(value)), plan.estimator,
                             seed).outcome()
                    for value in plan.values]
        sample = draw_sample(plan.graph, plan.sampler, seed)
        grid = CORRECTIONS[plan.estimator.correction].grid
        return [result.outcome() for result in grid(
            sample, plan.estimator, [int(v) for v in plan.values])]

    per_trial = [run_trial(t) for t in range(plan.trials)]
    summaries = []
    for col, value in enumerate(plan.values):
        outcomes = [per_trial[t][col] for t in range(plan.trials)]
        summaries.append(summarize(value, outcomes, plan.graph.node_count))
    return summaries


def _head(sample: Sample, spec: SamplerSpec, n: int) -> Sample:
    """The sample of size n <= spec.n that draw_sample gives with the seed
    that drew ``sample`` at spec: its first n positions, or the first
    n / walkers of each walker's run for rw-multi."""
    walkers = spec.walkers if spec.method == "rw-multi" else 1
    run, keep = spec.n // walkers, n // walkers
    return sample.subset((np.arange(0, spec.n, run)[:, None]
                          + np.arange(keep)).ravel())


def summarize(param_value, outcomes: Sequence[EstimateOutcome],
              scale: float = 1.0) -> TrialSummary:
    finite = sorted(o.value / scale for o in outcomes if o.finite)
    infinite_fraction = 1.0 - len(finite) / len(outcomes)
    if finite:
        p10, p50, p90 = (percentile(finite, q) for q in (0.1, 0.5, 0.9))
    else:
        p10 = p50 = p90 = None
    return TrialSummary(param_value, p10, p50, p90, infinite_fraction,
                        len(outcomes))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: sorted value at index ceil(q*len) - 1."""
    if not values:
        raise EstimatorError("percentile of empty list")
    if not 0.0 <= q <= 1.0:
        raise EstimatorError("q must be in [0, 1]")
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    return ordered[max(rank - 1, 0)]


# The experiment CSV's columns, in TrialSummary's field order.
CSV_COLUMNS = ("param", "p10", "p50", "p90", "infinite_fraction", "trials")


def emit_csv(summaries: Sequence[TrialSummary]) -> str:
    """CSV with one row per grid point; missing percentiles stay empty."""
    if not summaries:
        raise EstimatorError("no summaries to emit")
    fmt = lambda x: "" if x is None else f"{x:.12g}"
    lines = [",".join(CSV_COLUMNS)]
    for s in summaries:
        lines.append(f"{s.param_value:.17g},{fmt(s.p10)},{fmt(s.p50)},"
                     f"{fmt(s.p90)},{s.infinite_fraction:.12g},{s.trials}")
    return "\n".join(lines) + "\n"


_SVG_YLABEL = "estimate / true size"
_SVG_WIDTH, _SVG_HEIGHT = 640, 400


def emit_svg_band(summaries: Sequence[TrialSummary],
                  xlabel: str = "parameter") -> str:
    """Static SVG: grey 10-90 band with a dotted median line.

    Grid points are spaced evenly; rows whose trials were all infinite are
    skipped (their information lives in the CSV's infinite_fraction).
    """
    if not summaries:
        raise EstimatorError("no summaries to plot")
    margin_l, margin_r, margin_t, margin_b = 60, 20, 20, 50
    plot_w = _SVG_WIDTH - margin_l - margin_r
    plot_h = _SVG_HEIGHT - margin_t - margin_b
    rows = [s for s in summaries if s.p10 is not None]
    ys = [v for s in rows for v in (s.p10, s.p50, s.p90)]
    y_lo = min(ys + [0.0]) if ys else 0.0
    y_hi = max(ys + [1.0]) if ys else 1.0
    if not math.isfinite(y_hi - y_lo):
        raise EstimatorError("percentiles span more than the float range")
    if y_hi - y_lo < 1e-12:
        y_hi = y_lo + 1.0
    n_pts = len(summaries)

    def x_of(i: int) -> float:
        if n_pts == 1:
            return margin_l + plot_w / 2
        return margin_l + plot_w * i / (n_pts - 1)

    def y_of(v: float) -> float:
        return margin_t + plot_h * (1.0 - (v - y_lo) / (y_hi - y_lo))

    index = {id(s): i for i, s in enumerate(summaries)}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" '
        f'height="{_SVG_HEIGHT}" viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" '
        'fill="white"/>',
        f'<line x1="{margin_l}" y1="{margin_t}" x2="{margin_l}" '
        f'y2="{margin_t + plot_h}" stroke="black"/>',
        f'<line x1="{margin_l}" y1="{margin_t + plot_h}" '
        f'x2="{margin_l + plot_w}" y2="{margin_t + plot_h}" stroke="black"/>',
    ]
    if rows:
        upper = [f"{x_of(index[id(s)]):.2f},{y_of(s.p90):.2f}" for s in rows]
        lower = [f"{x_of(index[id(s)]):.2f},{y_of(s.p10):.2f}"
                 for s in reversed(rows)]
        parts.append(f'<polygon points="{" ".join(upper + lower)}" '
                     'fill="#cccccc" stroke="none"/>')
        med = [f"{x_of(index[id(s)]):.2f},{y_of(s.p50):.2f}" for s in rows]
        parts.append(f'<polyline points="{" ".join(med)}" fill="none" '
                     'stroke="black" stroke-dasharray="4 3"/>')
    for i, s in enumerate(summaries):
        parts.append(f'<text x="{x_of(i):.2f}" y="{margin_t + plot_h + 18}" '
                     f'font-size="11" text-anchor="middle">'
                     f'{s.param_value:.17g}</text>')
    for frac in (0.0, 0.5, 1.0):
        v = y_lo + frac * (y_hi - y_lo)
        parts.append(f'<text x="{margin_l - 6}" y="{y_of(v) + 4:.2f}" '
                     f'font-size="11" text-anchor="end">{v:.3g}</text>')
    parts.append(f'<text x="{margin_l + plot_w / 2:.0f}" '
                 f'y="{_SVG_HEIGHT - 10}" font-size="13" '
                 f'text-anchor="middle">{escape(xlabel, quote=False)}</text>')
    parts.append(f'<text x="16" y="{margin_t + plot_h / 2:.0f}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 16 '
                 f'{margin_t + plot_h / 2:.0f})">{_SVG_YLABEL}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# -- plan files --------------------------------------------------------------

_PLAN_KEYS = {"graph", "method", "n", "walkers", "weight_rule", "estimator",
              "correction", "a_mode", "theta", "m", "param", "values",
              "trials", "base_seed", "lcc"}


def parse_plan_file(text: str) -> ExperimentPlan:
    """Parse the simple key=value plan format (one pair per line, # comments).

    The ``graph`` value is either a path to an edge list, or a generator
    spec like ``gen:er:nodes=1000,p=0.02,seed=1``.
    """
    kv: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise PlanError(f"plan line {line_no}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _PLAN_KEYS:
            raise PlanError(f"plan line {line_no}: unknown key "
                            f"{_excerpt(key)}")
        if key in kv:
            raise PlanError(f"plan line {line_no}: duplicate key "
                            f"{_excerpt(key)}")
        kv[key] = value
    for required in ("graph", "method", "n", "estimator", "param", "values"):
        if required not in kv:
            raise PlanError(f"plan is missing required key {required!r}")
    sampler = SamplerSpec(method=kv["method"], n=_number("n", kv["n"]),
                          walkers=_number("walkers", kv.get("walkers", "1")),
                          weight_rule=kv.get("weight_rule", "degree"))
    estimator = EstimatorSpec(name=kv["estimator"],
                              correction=kv.get("correction", "none"),
                              a_mode=kv.get("a_mode", MODE_SET),
                              theta=_number("theta", kv.get("theta", "1")),
                              m=_number("m", kv.get("m", "0")))
    values = tuple(_number("values", v, float)
                   for v in kv["values"].split(","))
    trials = _number("trials", kv.get("trials", "500"))
    base_seed = _number("base_seed", kv.get("base_seed", "0"))
    lcc = _boolean("lcc", kv.get("lcc", "false"))
    _check_plan(sampler, estimator, kv["param"], values, trials, base_seed)
    graph = resolve_graph(kv["graph"])
    if lcc:
        graph = largest_connected_component(graph)
    return ExperimentPlan(
        graph=graph, sampler=sampler, estimator=estimator,
        param=kv["param"], values=values, trials=trials,
        base_seed=base_seed)


def _boolean(key: str, text: str) -> bool:
    """A plan value as a boolean, in any case; PlanError names the key."""
    if text.lower() not in ("true", "yes", "1", "false", "no", "0"):
        raise PlanError(f"plan key {_excerpt(key)}: expected true, false, "
                        f"yes, no, 1 or 0, got {_excerpt(text)}")
    return text.lower() in ("true", "yes", "1")


def _number(key: str, text: str, convert: Callable[[str], float] = int,
            label: str = "plan key"):
    """A plan or generator value as an int, or a finite float; PlanError
    names the key."""
    try:
        value = convert(text)
        if convert is int or math.isfinite(value):
            return value
    except ValueError:
        pass
    kind = "an integer" if convert is int else "a finite number"
    raise PlanError(f"{label} {_excerpt(key)}: expected {kind}, got "
                    f"{_excerpt(text)}")


# Each generator model's function in `generators`, looked up when it runs,
# and its keys in argument order, with their types and defaults (None: the
# key is required).
_GENERATORS = {
    "er": ("erdos_renyi", {"nodes": (int, None), "p": (float, None),
                           "seed": (int, "0")}),
    "ba": ("barabasi_albert", {"nodes": (int, None), "m": (int, None),
                               "seed": (int, "0")}),
    "ring": ("ring_of_cliques", {"cliques": (int, None), "size": (int, None)}),
    "grid": ("grid_2d", {"rows": (int, None), "cols": (int, None)}),
}


def resolve_graph(spec: str) -> Graph:
    """Load a graph from a path, or build one from a ``gen:...`` spec."""
    if not spec.startswith("gen:"):
        with open(spec, "rb") as fh:
            return load_edge_list(fh)
    try:
        _, model, args = spec.split(":", 2)
    except ValueError:
        raise PlanError(f"bad generator spec: {_excerpt(spec)}") from None
    if model not in _GENERATORS:
        raise PlanError(f"unknown generator model: {_excerpt(model)}")
    name, keys = _GENERATORS[model]
    params: dict[str, str] = {}
    if args:
        for part in args.split(","):
            key, _, value = part.partition("=")
            key = key.strip()
            if key in params:
                raise PlanError(f"generator spec {_excerpt(spec)}: duplicate "
                                f"generator key {_excerpt(key)}")
            params[key] = value.strip()
    for key in params:
        if key not in keys:
            raise PlanError(f"generator spec {_excerpt(spec)}: unknown "
                            f"generator key {_excerpt(key)} for model "
                            f"{_excerpt(model)}")
    values = []
    for key, (convert, default) in keys.items():
        if key not in params and default is None:
            raise PlanError(f"generator spec {_excerpt(spec)} missing "
                            f"{_excerpt(key)}")
        values.append(_number(key, params.get(key, default), convert,
                              "generator key"))
    try:
        return getattr(generators, name)(*values)
    except ValueError as exc:  # a value out of the generator's range
        raise PlanError(f"generator spec {_excerpt(spec)}: {exc}") from None
