"""Outside-in tracing for the benchmark's traced run.

Nothing under ``src/`` is instrumented.  Instead each callee is replaced,
for the length of the traced phase, under the module attribute its caller
looks it up by (``graphsize.experiment.draw_sample``,
``graphsize.cli.read_sample``, ...).  Every wrapped call records a span:
layer, name, start, end, parent span and the unit of work it belongs to.
Spans stay in memory; the benchmark writes them out when the run ends.

A layer's self time is the duration of its spans minus the part covered by
their direct children.  Calls are serial, so direct children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict


def _thin_name(args, kwargs):
    return "thin-shifted" if kwargs.get("shifted") else "thin"


def _sample_counts(tracer, sample, args):
    degrees = sample.degrees()
    distinct = dict(zip(sample.nodes(), degrees))
    tracer.counts["records"] += len(degrees)
    tracer.counts["snapshot_entries"] += sum(degrees)
    tracer.counts["useful_entries"] += sum(distinct.values())


def _graph_counts(tracer, graph, args):
    tracer.graph = {"nodes": graph.node_count, "edges": graph.edge_count}


def _bytes_written(tracer, result, args):
    sink = args[1]
    sink.flush()
    tracer.counts["bytes_written"] += os.fstat(sink.fileno()).st_size


# (module, attribute, layer, span name, counter).  The attribute is the name
# the caller resolves at call time, so replacing it intercepts that caller.
# Estimators are wrapped where the experiment dispatch and the CLI ratio
# path find them, for the estimators the workloads call; calls made from
# inside rw_correction stay in its self time.
TARGETS = [
    ("graphsize.generators", "erdos_renyi", "generators", "build", _graph_counts),
    ("graphsize.generators", "barabasi_albert", "generators", "build", _graph_counts),
    ("graphsize.experiment", "load_edge_list", "graph", "load", _graph_counts),
    ("graphsize.experiment", "draw_sample", "sampling", "draw", _sample_counts),
    ("graphsize.cli", "draw_sample", "sampling", "draw", _sample_counts),
    ("graphsize.cli", "write_sample", "io", "write", _bytes_written),
    ("graphsize.cli", "read_sample", "io", "read", None),
    ("graphsize.experiment", "node_wis", "kernel", "node-wis", None),
    ("graphsize.node_estimators", "node_wis_ratio", "kernel", "node-wis", None),
    ("graphsize.experiment", "inda_wis", "kernel", "ind-a", None),
    ("graphsize.ind_estimators", "inda_wis_ratio", "kernel", "ind-a", None),
    ("graphsize.experiment", "ind_margin", "rw_correction", "margin", None),
    ("graphsize.rw_correction", "ind_margin_ratio", "rw_correction", "margin", None),
    ("graphsize.experiment", "estimate_thinned", "rw_correction", _thin_name, None),
    ("graphsize.experiment", "margin_crosswalker", "rw_correction", "cross-walker", None),
]

SETUP = "setup"


class Tracer:
    """In-memory span recorder; ``unit`` tags spans with the current unit of work."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.graph: dict[str, int] = {}
        self.missing: list[str] = []
        self.unit = SETUP
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def begin(self, layer: str, name: str) -> int:
        index = len(self.spans)
        self.spans.append({"layer": layer, "name": name, "unit": self.unit,
                           "parent": self._stack[-1] if self._stack else None,
                           "start": time.perf_counter(), "end": None})
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._stack.pop()

    def call(self, layer, name, fn, args=(), kwargs=None):
        """Run ``fn`` inside a span of ``layer``/``name``."""
        index = self.begin(layer, name)
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            self.end(index)

    def _wrap(self, fn, layer, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            result = self.call(layer, span_name, fn, args, kwargs)
            if counter is not None:
                # Counting runs in a span of its own so that no layer is
                # charged for it; it shows only in the tracing overhead.
                self.call("trace", "count", counter, (self, result, args))
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; a missing one is noted, not fatal."""
        for module_name, attr, layer, name, counter in TARGETS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer, name, counter))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def self_times(spans: list[dict]) -> list[float]:
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, covered)]


def layer_metrics(tracer: Tracer, units: int) -> dict[str, float]:
    """Per-layer numbers: set-up spans per set-up, body spans per unit of work.

    The traced run does one set-up; ``units`` is the number of trials or
    crawl passes in its body.  A call is a span whose parent belongs to
    another layer.  Metrics of a layer whose targets are all missing are
    left out.
    """
    setup = defaultdict(float)
    body = defaultdict(float)
    calls = defaultdict(int)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        layer, name = span["layer"], span["name"]
        acc = setup if span["unit"] == SETUP else body
        acc[layer] += own
        acc[f"{layer}.{name}"] += own
        parent = span["parent"]
        if acc is body and (parent is None
                            or tracer.spans[parent]["layer"] != layer):
            calls[layer] += 1
            calls[f"{layer}.{name}"] += 1
            if layer == "cli":
                body[f"cmd.{name}"] += span["end"] - span["start"]

    def per_unit(table, key):
        return table[key] / units

    counts = tracer.counts
    out = {
        "generators.build_s": setup["generators"],
        "graph.load_s": per_unit(body, "graph.load"),
        "graph.nodes": tracer.graph.get("nodes", 0),
        "graph.edges": tracer.graph.get("edges", 0),
        "sampling.draw_s": per_unit(body, "sampling"),
        "sampling.draw_calls": per_unit(calls, "sampling"),
        "sampling.records": per_unit(counts, "records"),
        "sampling.snapshot_entries": per_unit(counts, "snapshot_entries"),
        "sampling.snapshot_useful_ratio": (
            counts["useful_entries"] / counts["snapshot_entries"]
            if counts["snapshot_entries"] else 0.0),
        "io.write_s": per_unit(body, "io.write"),
        "io.read_s": per_unit(body, "io.read"),
        "io.read_calls": per_unit(calls, "io.read"),
        "io.bytes_written": per_unit(counts, "bytes_written"),
        "kernel.s": per_unit(body, "kernel"),
        "kernel.node-wis_s": per_unit(body, "kernel.node-wis"),
        "kernel.ind-a_s": per_unit(body, "kernel.ind-a"),
        "rw_correction.s": per_unit(body, "rw_correction"),
        "rw_correction.calls": per_unit(calls, "rw_correction"),
        "rw_correction.margin_s": per_unit(body, "rw_correction.margin"),
        "rw_correction.thin-shifted_s": per_unit(body, "rw_correction.thin-shifted"),
        "rw_correction.cross-walker_s": per_unit(body, "rw_correction.cross-walker"),
        "experiment.self_s": per_unit(body, "experiment.run"),
        "experiment.parse_s": setup["experiment.parse"],
        "experiment.emit_s": per_unit(body, "experiment.emit"),
        "cli.self_s": per_unit(body, "cli"),
        "cli.sample_cmd_s": per_unit(body, "cmd.sample"),
        "cli.estimate_cmd_s": per_unit(body, "cmd.estimate"),
    }
    layers = {t[2] for t in TARGETS}
    wrapped = {t[2] for t in TARGETS if f"{t[0]}.{t[1]}" not in tracer.missing}
    lost = layers - wrapped
    return {key: value for key, value in out.items()
            if key.split(".")[0] not in lost}
